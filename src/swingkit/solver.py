"""Backward-induction solver for the volume-constrained exercise problem.

State is (time index, lattice node, volume level). The volume grid pitch
equals L*dt, so a full-rate step moves exactly one level and restricting the
rate to {0, L} loses nothing: the one-step objective is linear in the rate and
successor values are evaluated on aligned levels.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .models import Envelope, InvariantError, ScenarioLattice, TimeGrid

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


class _Rows(Sequence):
    """Read-only sequence of full (node x level) slices, each built on demand."""

    def __init__(self, build, n: int):
        self._build = build
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        row = self._build(range(self._n)[operator.index(k)])
        row.flags.writeable = False
        return row


@dataclass(eq=False)
class ValueField:
    """Solved value surface J[k][node][position] of a lattice on its grids,
    stored as the band and the full-rate tail.

    band[k] holds the positions strictly between the full-rate boundary and
    the cap (n_tail(k) .. cap_pos - 1). At and below the boundary J equals the
    full-rate value tail[k][node] and at the cap it is 0, so values[k] builds
    the full slice from the three parts when it is read. The field keeps the
    lattice and grids it was solved on, so everything derived from it reads
    them here.
    """

    lattice: ScenarioLattice
    time_grid: TimeGrid
    volume_grid: VolumeGrid
    tail: list
    band: list

    @property
    def values(self) -> Sequence:
        return _Rows(self.row, len(self.tail))

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.tail + self.band)

    def n_tail(self, k: int) -> int:
        """Number of leading positions of slice k that hold tail[k]."""
        vg = self.volume_grid
        return min(max(vg.boundary_pos(k) + 1, 0), vg.cap_pos)

    def row(self, k: int, lo: int = 0) -> np.ndarray:
        """J at slice k over the positions lo..cap_pos, as a new array."""
        nt = self.n_tail(k)
        tail = self.tail[k]
        out = np.empty((tail.size, self.volume_grid.n_levels - lo))
        cut = max(nt - lo, 0)
        out[:, :cut] = tail[:, None]
        out[:, cut:-1] = self.band[k][:, max(lo - nt, 0):]
        out[:, -1] = 0.0
        return out

    def point(self, k: int, nodes, pos) -> np.ndarray:
        """values[k][nodes, pos] for broadcast index arrays, gathered from the
        band and the tail without building the slice."""
        nodes, pos = np.broadcast_arrays(np.asarray(nodes), np.asarray(pos))
        nt = self.n_tail(k)
        out = np.where(pos < nt, self.tail[k][nodes], 0.0)
        inside = (pos >= nt) & (pos < self.volume_grid.cap_pos)
        out[inside] = self.band[k][nodes[inside], pos[inside] - nt]
        return out

    def at(self, k: int, node: int, y: float) -> float:
        return float(self.point(k, node, self.volume_grid.index_of(y)))

    def dminus(self, k: int) -> np.ndarray:
        """Left volume difference quotients at slice k, computed on demand.

        dminus(k)[n, p] = (J[p] - J[p-1]) / step. The lowest column is 0 when
        the grid extends through the full-rate region (J is constant in y
        there) and NaN otherwise.
        """
        vals = self.row(k)
        dm = np.empty_like(vals)
        dm[:, 1:] = np.diff(vals, axis=1) / self.volume_grid.step
        dm[:, 0] = self._dminus_floor()
        return dm

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


def solve(lattice: ScenarioLattice, time_grid: TimeGrid, volume_grid: VolumeGrid) -> ValueField:
    """Backward induction over (node, volume level) arrays, one per time slice.

    At each state the stay candidate is E[J_{k+1}(same level)] and the
    exercise candidate is step*X + E[J_{k+1}(level+1)], excluded at the cap.
    Only the band is computed: at and below the full-rate boundary both
    candidates read the tail of slice k+1, and fl(step*X + e) >= e for
    X >= 0, so J there equals tail[k] = step*X + E[tail[k+1]] bit for bit.
    """
    K = time_grid.K
    if lattice.n_steps != K:
        raise ValueError("lattice has %d steps, time grid has %d" % (lattice.n_steps, K))
    volume_grid.check_steps(K)
    if any(lattice.n_nodes(k) == 0 for k in range(K + 1)):
        raise ValueError("empty lattice slice")
    lattice.check_cashflows()
    step = volume_grid.step
    tail = [None] * (K + 1)
    band = [None] * (K + 1)
    tail[K] = np.zeros(lattice.n_nodes(K))
    band[K] = np.zeros((lattice.n_nodes(K), 0))
    field = ValueField(lattice, time_grid, volume_grid, tail, band)
    for k in range(K - 1, -1, -1):
        x = lattice.x(k)
        tail[k] = step * x + lattice.expect_next(k, tail[k + 1])
        ej = lattice.expect_next(k, field.row(k + 1, field.n_tail(k)))
        band[k] = np.maximum(ej[:, :-1], step * x[:, None] + ej[:, 1:])
    return field


def check_value_invariants(field: ValueField) -> dict:
    """Assert the structural properties of a solved field.

    Terminal values vanish, J is nonincreasing and concave in the
    volume level, and adjacent differences obey the Lipschitz bound
    |J(y1) - J(y2)| <= z * |y1 - y2| through the dominating field
    z[k][node] = max(X, E[z_next | node]), the sup Snell envelope. Raises
    InvariantError on the first violation and returns the observed extremes
    otherwise.

    Each slice is read from three columns below the band: the full-rate
    columns further down repeat those values, so every maximum (and
    message) is the one the full slice gives.
    """
    vg = field.volume_grid
    step = vg.step
    K = field.time_grid.K
    z = Envelope(field.lattice, "max").values
    report = {"monotone": 0.0, "concavity": 0.0, "lipschitz": 0.0, "terminal": 0.0}

    def window(k):
        return field.row(k, max(field.n_tail(k) - 3, 0))

    last = window(K)
    term = float(np.abs(last).max())
    report["terminal"] = term
    if term != 0.0:
        raise InvariantError("terminal values are not identically zero")
    for k in range(K + 1):
        vals = last if k == K else window(k)
        d1 = np.diff(vals, axis=1)
        worst = float(d1.max())
        report["monotone"] = max(report["monotone"], worst)
        if worst > EXACT_TOL:
            raise InvariantError("J increases in y by %.3g at slice %d" % (worst, k))
        if vg.n_levels >= 3:
            d2 = np.diff(d1, axis=1)
            worst2 = float(d2.max())
            report["concavity"] = max(report["concavity"], worst2)
            if worst2 > EXACT_TOL:
                raise InvariantError("J is non-concave in y by %.3g at slice %d" % (worst2, k))
        bound = z[k][:, None] * step + EXACT_TOL
        excess = float((np.abs(d1) - bound).max())
        report["lipschitz"] = max(report["lipschitz"], excess)
        if excess > 0:
            raise InvariantError("Lipschitz bound violated by %.3g at slice %d" % (excess, k))
    return report


@dataclass(eq=False)
class ResidualReport:
    """Largest one-step consistency residual of a solved field.

    Masked positions are left out: the moving-boundary level (where the left
    and right volume derivatives legitimately differ) and levels where the
    left derivative itself is undefined.
    """

    form: str
    max_abs: float


def bellman_residual(field: ValueField, form: str = "implicit") -> ResidualReport:
    """Residual of J against its one-step optimality identity.

    implicit: r = J_k - (step*(X + dminus_k)_+ + E[J_{k+1}]), with the
    derivative taken from the solved field at the same time index.
    explicit: the derivative and positive part are taken at k+1 inside the
    conditional expectation instead.

    Slice k is scanned from position max(b - 1, 0), b = boundary_pos(k), to
    the cap. Every position further down is full-rate at k and k+1, so its
    residual column is that of position b - 1 (or, at position 0, masked or
    equal to it), and the maximum is the one the full slice gives.
    """
    if form not in ("implicit", "explicit"):
        raise ValueError("form must be 'implicit' or 'explicit'")
    lattice = field.lattice
    vg = field.volume_grid
    step = vg.step
    K = field.time_grid.K
    explicit = form == "explicit"

    def window(vals, first, lo):
        """J and dminus at positions lo..cap of a row built from position
        first <= max(lo - 1, 0)."""
        v = vals[:, lo - first:]
        dm = np.empty_like(v)
        dm[:, 1:] = np.diff(v, axis=1) / step
        dm[:, 0] = (v[:, 0] - vals[:, lo - first - 1]) / step if lo else field._dminus_floor()
        return v, dm

    max_abs = 0.0
    # each slice is built once. Slice k+1 starts at lo (implicit) or one
    # position lower (explicit, for dminus_{k+1} at lo), which is at or below
    # max(lo_{k+1} - 1, 0) = lo, so it serves as the next step's vals
    first = max(vg.boundary_pos(0) - 2, 0)
    vals = field.row(0, first)
    for k in range(K):
        x = lattice.x(k)
        b = vg.boundary_pos(k)
        lo = max(b - 1, 0)
        nfirst = max(lo - 1, 0) if explicit else lo
        nxt = field.row(k + 1, nfirst)
        v, dm = window(vals, first, lo)
        if explicit:
            nv, dm_next = window(nxt, nfirst, lo)
            start, child, prob = lattice.edges(k)
            inner = (step * np.maximum(x[lattice.parents(k), None] + dm_next[child], 0.0)
                     + nv[child])
            r = v - np.add.reduceat(prob[:, None] * inner, start[:-1])
        else:
            ej = lattice.expect_next(k, nxt)
            r = v - (step * np.maximum(x[:, None] + dm, 0.0) + ej)
        if lo <= b < vg.n_levels:
            r[:, b - lo] = np.nan
        r[np.isnan(dm)] = np.nan
        max_abs = max(max_abs, float(np.max(np.abs(r), where=np.isfinite(r), initial=0.0)))
        vals, first = nxt, nfirst
    return ResidualReport(form, max_abs)


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
    lattice = field.lattice
    vg = field.volume_grid
    step = vg.step
    K = field.time_grid.K
    tail = [None] * (K + 1)
    tail[K] = np.zeros(lattice.n_nodes(K))
    for k in range(K - 1, -1, -1):
        tail[k] = step * lattice.x(k) + lattice.expect_next(k, tail[k + 1])
    max_deep = 0.0
    violations = []
    for k in range(K + 1):
        if vg.boundary_pos(k) >= 0:
            err = float(np.abs(field.tail[k] - tail[k]).max())
            max_deep = max(max_deep, err)
            if err > EXACT_TOL:
                violations.append(("deep", k, err))
    return BoundaryReport(max_deep, violations)
