"""Backward-induction solver for the volume-constrained exercise problem.

State is (time index, lattice node, volume level). The volume grid pitch
equals L*dt, so a full-rate step moves exactly one level and restricting the
rate to {0, L} loses nothing: the one-step objective is linear in the rate and
successor values are evaluated on aligned levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import InvariantError, ScenarioLattice, TimeGrid, _read_only

EXACT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class VolumeGrid:
    """Volume levels y_j = j * step for j = j_min..j_cap, with y_{j_cap} = 1.

    step is the canonical pitch 1/j_cap, validated to match L*dt. When
    L*T > 1 the grid extends below zero (j_min = j_cap - K) so the full-rate
    region 1 - L*(T - t) <= y is covered at every time index. Array positions
    are level indices shifted by -j_min.
    """

    L: float
    step: float
    j_cap: int
    j_min: int
    n_steps: int

    @classmethod
    def aligned(cls, L: float, time_grid: TimeGrid) -> "VolumeGrid":
        if not 0 < L < np.inf:
            raise ValueError("rate cap L must be positive and finite")
        raw = 1.0 / (L * time_grid.dt)
        j_cap = int(round(raw))
        if j_cap < 1 or abs(raw - j_cap) > 1e-9:
            raise ValueError(
                "misaligned grids: 1/(L*dt) = %.17g must be a positive integer" % raw
            )
        j_min = min(0, j_cap - time_grid.K)
        if j_cap - j_min > np.iinfo(np.int32).max:
            raise ValueError("rate cap L = %.17g puts the cap at volume position %d, "
                             "beyond the int32 policy thresholds" % (L, j_cap - j_min))
        return cls(L=L, step=1.0 / j_cap, j_cap=j_cap, j_min=j_min, n_steps=time_grid.K)

    @property
    def n_levels(self) -> int:
        return self.j_cap - self.j_min + 1

    @property
    def cap_pos(self) -> int:
        return self.j_cap - self.j_min

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_cap + 1) / self.j_cap

    def boundary_pos(self, k: int) -> int:
        """Array position of the level 1 - L*(T - t_k). On an aligned grid it
        is k + max(j_cap - K, 0), so the level is always on the grid."""
        return self.cap_pos - (self.n_steps - k)

    def n_tail(self, k: int) -> int:
        """Number of leading positions of slice k that hold its tail value."""
        return min(max(self.boundary_pos(k) + 1, 0), self.cap_pos)

    def scan_start(self, k: int) -> int:
        """Where the rows that the per-slice scans read start."""
        return max(self.n_tail(k) - 3, 0)

    def check_steps(self, K: int):
        """Raise ValueError unless the grid was aligned to a K-step time grid."""
        if self.n_steps != K:
            raise ValueError("volume grid was aligned to a different time grid")

    def index_of(self, y: float) -> int:
        yj = y * self.j_cap
        pos = int(round(yj)) - self.j_min if np.isfinite(yj) else -1
        if not 0 <= pos < self.n_levels or abs(yj - round(yj)) > 1e-9:
            raise ValueError("start volume %.17g is off the grid" % y)
        return pos

    def start_pos(self, k0: int, y0: float) -> int:
        """Array position of a start (k0, y0), which must leave at least one
        step to go."""
        if not 0 <= k0 < self.n_steps:
            raise ValueError("start index %d outside the grid" % k0)
        return self.index_of(y0)

    def right_of(self, pos):
        """Position whose left quotient is the right quotient at pos: pos + 1,
        the cap repeated."""
        return np.minimum(pos + 1, self.cap_pos)


def _start_indices(starts: list, tg: TimeGrid, vg: VolumeGrid) -> list:
    """(k0, pos0) of each (t0, y0) start, checked against both grids."""
    return [(tg.start_index(t0), vg.index_of(y0)) for t0, y0 in starts]


class _Points:
    """Band entries at sorted keys node * width + j, read like the band slice
    as points[nodes, j]; a last key past all others ends every search."""

    def __init__(self, band: np.ndarray, keys: np.ndarray):
        self.width = band.shape[1]
        self.keys = np.append(keys, np.iinfo(np.int64).max)
        self.values = np.append(band.reshape(-1)[keys], np.nan)

    def __getitem__(self, index):
        key = index[0] * self.width + index[1]
        at = self.keys.searchsorted(key)
        if np.any(self.keys[at] != key):
            raise ValueError("the band was not kept at every point read")
        return self.values[at]


@dataclass(eq=False)
class Slice:
    """Slice k of the band recursion: its tail and band, J = its row from
    scan_start(k) and ej = E[J_{k+1} | node] from scan_start(k + 1) (None
    at K). dJ = np.diff(J, axis=1) is taken once, on first use, and handed
    read-only to every scan fed the slice."""

    k: int
    tail: np.ndarray
    band: np.ndarray
    J: np.ndarray
    ej: np.ndarray

    @cached_property
    def dJ(self) -> np.ndarray:
        return _read_only(np.diff(self.J, axis=1))


def _row(vg: VolumeGrid, k: int, tail: np.ndarray, band: np.ndarray, lo: int) -> np.ndarray:
    """J at slice k over the positions lo..cap_pos, as a new array."""
    nt = vg.n_tail(k)
    out = np.empty((tail.size, vg.n_levels - lo))
    cut = max(nt - lo, 0)
    out[:, :cut] = tail[:, None]
    out[:, cut:-1] = band[:, max(lo - nt, 0):]
    out[:, -1] = 0.0
    return out


@dataclass(eq=False)
class ValueField:
    """Solved value surface J[k][node][position] of a lattice on its grids,
    stored as the band and the full-rate tail.

    band[k] holds the positions strictly between the full-rate boundary and
    the cap (n_tail(k) .. cap_pos - 1). At and below the boundary J equals the
    full-rate value tail[k][node] and at the cap it is 0, so row(k) builds
    the full slice from the three parts when it is read. Where solve was not
    asked to keep the band, band[k] holds only the points keep() asked for.
    The field keeps the lattice and grids it was solved on, so everything
    derived from it reads them here.
    """

    lattice: ScenarioLattice
    time_grid: TimeGrid
    volume_grid: VolumeGrid
    tail: list
    band: list

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.tail + self.band if isinstance(a, np.ndarray))

    def row(self, k: int) -> np.ndarray:
        if not isinstance(self.band[k], np.ndarray):
            raise TypeError("the band of slice %d was not kept" % k)
        return _row(self.volume_grid, k, self.tail[k], self.band[k], 0)

    def point(self, k: int, nodes, pos) -> np.ndarray:
        """row(k)[nodes, pos] for broadcast index arrays, gathered from the
        band and the tail without building the slice."""
        nodes, pos = np.broadcast_arrays(np.asarray(nodes), np.asarray(pos))
        nt = self.volume_grid.n_tail(k)
        out = np.where(pos < nt, self.tail[k][nodes], 0.0)
        inside = (pos >= nt) & (pos < self.volume_grid.cap_pos)
        out[inside] = self.band[k][nodes[inside], pos[inside] - nt]
        return out

    def keep(self, reads):
        """Make dminus_at answer the (k, nodes, pos) reads: one replay of the
        recursion keeps the band entries they touch that are not stored."""
        want = {}
        for k, nodes, pos in reads:
            points = self.band[k]
            if not isinstance(points, np.ndarray):
                j = np.append(pos, pos - 1) - self.volume_grid.n_tail(k)
                inside = (j >= 0) & (j < points.width)
                keys = np.append(nodes, nodes)[inside] * points.width + j[inside]
                keys = keys[points.keys[points.keys.searchsorted(keys)] != keys]
                if keys.size:
                    want[k] = np.append(want.get(k, points.keys[:-1]), keys)
        for s in _recursion(self.lattice, self.time_grid, self.volume_grid) if want else ():
            if s.k in want:
                # return_index: a plain np.unique imports numpy.ma
                self.band[s.k] = _Points(s.band, np.unique(want[s.k], return_index=True)[0])

    def at(self, k: int, node: int, y: float) -> float:
        return float(self.point(k, node, self.volume_grid.index_of(y)))

    def dminus(self, k: int) -> np.ndarray:
        """Left volume difference quotients at slice k, computed on demand.

        dminus(k)[n, p] = (J[p] - J[p-1]) / step. The lowest column is 0 when
        the grid extends through the full-rate region (J is constant in y
        there) and NaN otherwise.
        """
        row = self.row(k)
        return _window(self, row, np.diff(row, axis=1), 0, 0)[1]

    def dminus_at(self, k: int, nodes, pos) -> np.ndarray:
        """dminus(k)[nodes, pos], bit for bit, without building the slice."""
        pos = np.asarray(pos)
        d = (self.point(k, nodes, pos) - self.point(k, nodes, pos - 1)) / self.volume_grid.step
        return np.where(pos > 0, d, self._dminus_floor())

    def _dminus_floor(self) -> float:
        return 0.0 if self.volume_grid.j_min < 0 else np.nan

    def dplus(self, k: int) -> np.ndarray:
        """Right quotients: dplus(k)[n, p] = dminus(k)[n, right_of(p)]."""
        vg = self.volume_grid
        return self.dminus(k)[:, vg.right_of(np.arange(vg.n_levels))]


def _recursion(lattice: ScenarioLattice, time_grid: TimeGrid, volume_grid: VolumeGrid):
    """The backward band recursion, yielding each Slice, k = K down to 0,
    with only slice k+1 held while slice k is built.

    At each state the stay candidate is E[J_{k+1}(same level)] and the
    exercise candidate is step*X + E[J_{k+1}(level+1)], excluded at the cap.
    Only the band is computed: at and below the full-rate boundary both
    candidates read the tail of slice k+1, and fl(step*X + e) >= e for X >= 0,
    so J there equals tail[k] = step*X + E[tail[k+1]] bit for bit.
    """
    K, vg = time_grid.K, volume_grid
    if lattice.n_steps != K:
        raise ValueError("lattice has %d steps, time grid has %d" % (lattice.n_steps, K))
    vg.check_steps(K)
    if not 2.0 * vg.cap_pos * vg.step * lattice.max_x() < np.inf:
        raise ValueError("cashflow scale max X = %.17g is too large: J can reach %.17g * max X, "
                         "which must stay below half the largest float"
                         % (lattice.max_x(), vg.cap_pos * vg.step))
    tail, band, ej = np.zeros(lattice.n_nodes(K)), np.zeros((lattice.n_nodes(K), 0)), None
    for k in range(K - 1, -1, -1):
        nxt = _row(vg, k + 1, tail, band, vg.scan_start(k + 1))
        yield Slice(k + 1, tail, band, nxt, ej)
        x = lattice.x(k)
        tail = vg.step * x + lattice.expect_next(k, tail)
        ej = lattice.expect_next(k, nxt)
        off = vg.n_tail(k) - vg.scan_start(k + 1)
        band = np.maximum(ej[:, off:-1], vg.step * x[:, None] + ej[:, off + 1:])
    yield Slice(0, tail, band, _row(vg, 0, tail, band, vg.scan_start(0)), ej)


def solve(lattice: ScenarioLattice, time_grid: TimeGrid, volume_grid: VolumeGrid,
          keep=None, *scans) -> ValueField:
    """Backward induction (see _recursion) calling scan(field, Slice) on each
    slice, k = K down to 0. The field stores the tail and, at the slices in
    keep (all for None), the band."""
    K = time_grid.K
    field = ValueField(lattice, time_grid, volume_grid, [None] * (K + 1), [None] * (K + 1))
    for s in _recursion(lattice, time_grid, volume_grid):
        field.tail[s.k] = s.tail
        stored = keep is None or s.k in keep
        field.band[s.k] = s.band if stored else _Points(s.band, np.zeros(0, np.int64))
        for scan in scans:
            scan(field, s)
    return field


class InvariantScan:
    """Fed (field, Slice), k = K down to 0: terminal values vanish, J is
    nonincreasing and concave in the volume, and |J(y1) - J(y2)| <= z *
    |y1 - y2| for the sup Snell envelope z. The full-rate columns below the
    row repeat its first, so every maximum is the full slice's. result()
    raises InvariantError for the lowest failing slice, or returns them."""

    def __init__(self):
        self.report = {"monotone": 0.0, "concavity": 0.0, "lipschitz": 0.0, "terminal": 0.0}
        self.error = None

    def __call__(self, field: ValueField, s: Slice):
        found = []

        def note(key, worst, limit, text):
            self.report[key] = max(self.report[key], worst)
            if worst > limit:
                found.append(text % (worst, s.k))

        if s.k == field.time_grid.K:
            self.report["terminal"] = float(np.abs(s.J).max())
        d1 = s.dJ
        top = d1.max(axis=1)
        note("monotone", float(top.max()), EXACT_TOL, "J increases in y by %.3g at slice %d")
        if field.volume_grid.n_levels >= 3:
            note("concavity", float(np.diff(d1, axis=1).max()), EXACT_TOL,
                 "J is non-concave in y by %.3g at slice %d")
        # fl(a - c) is nondecreasing in a, so the row maxima of |d1| give
        # the extreme of |d1| - c bit for bit
        z = field.lattice.envelope("max").values[s.k]
        note("lipschitz", float((np.maximum(top, -d1.min(axis=1))
                                 - (z * field.volume_grid.step + EXACT_TOL)).max()),
             0.0, "Lipschitz bound violated by %.3g at slice %d")
        self.error = found[0] if found else self.error

    def result(self) -> dict:
        if self.report["terminal"] != 0.0:
            raise InvariantError("terminal values are not identically zero")
        if self.error is not None:
            raise InvariantError(self.error)
        return self.report


def _window(field: ValueField, vals: np.ndarray, diff: np.ndarray, first: int, lo: int):
    """J and dminus at positions lo..cap of a row built from position
    first <= lo, whose differences np.diff(vals, axis=1) are diff. Where
    first = lo > 0, lo - 1 and lo both hold the slice's full-rate tail, so
    column lo stands in for lo - 1."""
    step = field.volume_grid.step
    v = vals[:, lo - first:]
    dm = np.empty_like(v)
    np.divide(diff[:, lo - first:], step, out=dm[:, 1:])
    dm[:, 0] = (v[:, 0] - vals[:, max(lo - first - 1, 0)]) / step if lo else field._dminus_floor()
    return v, dm


class ResidualScan:
    """Residual of J against its one-step optimality identity, fed (field,
    Slice), k = K down to 0, against the row of slice k+1 fed before.

    implicit: r = J_k - (step*(X + dminus_k)_+ + E[J_{k+1}]), with the
    derivative taken from the solved field at the same time index and
    E[J_{k+1}] the slice's ej; explicit: the derivative and positive part
    are taken at k+1 inside the conditional expectation instead. Slice k is
    scanned from position max(b - 1, 0), b = boundary_pos(k), to the cap.
    Every position further down is full-rate at k and k+1, so its residual
    column is that of position b - 1 (or, at position 0, masked or equal to
    it), and the maximum is the one the full slice gives.
    """

    def __init__(self, form: str):
        if form not in ("implicit", "explicit"):
            raise ValueError("form must be 'implicit' or 'explicit'")
        self.form, self.max_abs, self.nxt = form, 0.0, None

    def __call__(self, field: ValueField, s: Slice):
        vg, lattice, k, nxt = field.volume_grid, field.lattice, s.k, self.nxt
        self.nxt = s
        if nxt is None:
            return
        b = vg.boundary_pos(k)
        lo = max(b - 1, 0)
        v, dm = _window(field, s.J, s.dJ, vg.scan_start(k), lo)
        if self.form == "implicit":
            # v - (step * (X + dm)_+ + ej), formed in place; a NaN of dm
            # carries through to r
            r = dm + lattice.x(k)[:, None]
            np.maximum(r, 0.0, out=r)
            r *= vg.step
            r += s.ej[:, lo - vg.scan_start(k + 1):]
            np.subtract(v, r, out=r)
        else:
            nv, dm_next = _window(field, nxt.J, nxt.dJ, vg.scan_start(k + 1), lo)
            start, child, prob = lattice.edges(k)
            inner = (vg.step * np.maximum(lattice.x(k)[lattice.parents(k), None] + dm_next[child],
                                          0.0) + nv[child])
            r = v - np.add.reduceat(prob[:, None] * inner, start[:-1])
            r[np.isnan(dm)] = np.nan
        if lo <= b < vg.n_levels:
            r[:, b - lo] = np.nan
        np.abs(r, out=r)
        self.max_abs = max(self.max_abs, float(np.max(r, where=np.isfinite(r), initial=0.0)))

    def result(self) -> float:
        """Largest one-step consistency residual of the solved field.

        Masked positions are left out: the moving-boundary level (where the
        left and right volume derivatives legitimately differ) and levels
        where the left derivative itself is undefined.
        """
        return self.max_abs


@dataclass(eq=False)
class BoundaryReport:
    """Violations of the full-rate identity."""

    max_deep: float
    violations: list


def boundary_check(field: ValueField) -> BoundaryReport:
    """Check the full-rate identity below the boundary.

    For every level with y <= 1 - L*(T - t_k) the value must equal the
    expected remaining reward of exercising at the full rate throughout,
    E[sum step*X | node], to EXACT_TOL. Those levels hold the stored tail[k],
    so each node is compared once.
    """
    lattice, vg = field.lattice, field.volume_grid
    tail, max_deep, violations = np.zeros(lattice.n_nodes(vg.n_steps)), 0.0, []
    for k in range(vg.n_steps, -1, -1):
        if k < vg.n_steps:
            tail = vg.step * lattice.x(k) + lattice.expect_next(k, tail)
        if vg.boundary_pos(k) >= 0:
            err = float(np.abs(field.tail[k] - tail).max())
            max_deep = max(max_deep, err)
            if err > EXACT_TOL:
                violations.insert(0, ("deep", k, err))
    return BoundaryReport(max_deep, violations)
