"""Bang-bang policy extraction, trajectory rollout, exit times, and the
window-averaged control approximation.

The optimal rate at (k, node, level) follows the sign of X + D, where D is
the volume derivative of the value across the level increment the exercise
would consume: exercising moves level p to p+1, so the relevant difference
quotient is dminus at p+1. Ties resolve to the full rate, which matches the
saturating optimal control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import InvariantError, PathEnsemble, PreconditionError
from .solver import Slice, ValueField, solve

TIE_TOL = 1e-9


class ThresholdScan:
    """The thresholds of PolicyField, fed (field, Slice) for k = K down to 0.
    result() raises for the lowest slice whose rate-L set is not a prefix,
    else for the lowest one without the full rate on and below the boundary."""

    def __init__(self, tie_tol: float):
        if not (np.isfinite(tie_tol) and tie_tol >= 0):
            raise ValueError("tie_tol must be finite and nonnegative, got %r" % tie_tol)
        self.tie_tol = tie_tol
        self.thr, self.error, self.below = {}, None, None

    def __call__(self, field: ValueField, s: Slice):
        vg, k = field.volume_grid, s.k
        if k == vg.n_steps:
            return
        # below the boundary J is flat in y and X >= 0, so the rule holds
        lo = max(vg.boundary_pos(k), 0)
        d = s.dJ[:, lo - vg.scan_start(k):] / vg.step
        d += field.lattice.x(k)[:, None]
        go = d >= -self.tie_tol
        bad = np.flatnonzero((go[:, 1:] > go[:, :-1]).any(axis=1))
        if bad.size:
            self.error = "policy at slice %d node %d is not a volume threshold" % (k, bad[0])
        self.thr[k] = (lo - 1 + go.sum(axis=1)).astype(np.int32)
        if np.any(self.thr[k] < vg.boundary_pos(k)):
            self.below = k

    def result(self) -> list:
        if self.error is not None:
            raise InvariantError(self.error)
        if self.below is not None:
            raise InvariantError("full rate not selected below the boundary at slice %d"
                                 % self.below)
        return [self.thr[k] for k in range(len(self.thr))]


@dataclass(eq=False)
class PolicyField:
    """The bang-bang policy of a solved field as a volume threshold.

    thr[k][node] is the highest position at which the optimal rate is L
    (-1 for none): X + dminus(level+1) >= -tie_tol holds exactly at the
    positions up to it. J is concave in the volume, so that set is a prefix
    of the levels, which the ThresholdScan that read thr checked.
    """

    field: ValueField
    tie_tol: float
    thr: list

    def go(self, k: int, nodes, pos) -> np.ndarray:
        """True where the optimal rate at slice k < K is L. nodes and pos
        broadcast."""
        return pos <= self.thr[k][nodes]

    @cached_property
    def pre_exit(self):
        """(trigger, exit_up, reads) of the forward closure of realized volume
        levels from (0, y=0) up to the band exit, computed once: the exit nodes,
        those at the cap, and the (k, nodes, pos) of the pre-exit states, one
        per slice."""
        lattice, vg, K = self.field.lattice, self.field.volume_grid, self.field.time_grid.K
        if vg.n_steps <= vg.j_cap:
            raise PreconditionError("the dual construction needs L*T > 1; this grid has L*T <= 1")
        realized = [np.full(lattice.n_nodes(k), -1, dtype=np.int64) for k in range(K + 1)]
        trigger, exit_up, reads = [], [], []
        realized[0][0] = vg.index_of(0.0)
        for k in range(K + 1):
            pos = realized[k]
            active = pos >= 0
            exit_up.append(active & (pos >= vg.cap_pos))
            trigger.append(exit_up[k] | (active & (pos <= vg.boundary_pos(k))))
            pre = np.flatnonzero(active & ~trigger[k])
            reads.append((k, pre, pos[pre]))
            if k == K:
                break
            _, child, _ = lattice.edges(k)
            parent = lattice.parents(k)
            moving = (active & ~trigger[k])[parent]
            kids = child[moving]
            src_pos = pos[parent[moving]]
            kid_pos = src_pos + self.go(k, parent[moving], src_pos)
            realized[k + 1][kids] = kid_pos
            clash = np.flatnonzero(realized[k + 1][kids] != kid_pos)
            if clash.size:
                raise ValueError("pre-exit volume level at slice %d node %d is path-dependent"
                                 % (k + 1, kids[clash[0]]))
        return trigger, exit_up, reads


def extract_policy(lattice, time_grid, volume_grid, tie_tol: float = TIE_TOL, keep=None,
                   *scans) -> PolicyField:
    """The bang-bang policy, read by a ThresholdScan off the sweep of
    solve(lattice, time_grid, volume_grid, keep, *scans), which feeds it first.

    decision = L iff X + dminus(level+1) >= -tie_tol and the cap leaves room;
    a bad tie_tol is refused before the solve.
    """
    scan = ThresholdScan(tie_tol)
    field = solve(lattice, time_grid, volume_grid, keep, scan, *scans)
    return PolicyField(field, tie_tol, scan.result())


@dataclass(eq=False)
class RolloutBundle:
    """Policy rollout over an ensemble from a common start (t_{k0}, y_0).

    Row r is ensemble row r. nodes, the ensemble's own array, covers slices
    0..K and positions the volume positions at slices k0..K: step k exercises
    at rate L, earning step * X, where positions[:, k + 1 - k0] moves past
    positions[:, k - k0]. rewards are the row sums of those earnings and
    weights the ensemble weights renormalized to sum to one.
    """

    policy: PolicyField
    k0: int
    pos0: int
    nodes: np.ndarray
    positions: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    mean: float

    @property
    def n_paths(self) -> int:
        return self.nodes.shape[0]

    @property
    def volumes(self) -> np.ndarray:
        return self.policy.field.volume_grid.levels[self.positions]


def rollout(policy: PolicyField, ensemble: PathEnsemble, start) -> RolloutBundle:
    """Apply the policy along each ensemble path from (t_{k0}, y0), where
    start is (k0, y0) with y0 on the volume grid."""
    k0, y0 = start
    lattice = policy.field.lattice
    ensemble.check_lattice(lattice)
    vg = policy.field.volume_grid
    K = policy.field.time_grid.K
    pos0 = vg.start_pos(k0, y0)
    nodes = ensemble.nodes
    positions = np.empty((ensemble.n_paths, K - k0 + 1), dtype=np.int64)
    incs = np.zeros((ensemble.n_paths, K - k0))
    positions[:, 0] = pos0
    for m in range(k0, K):
        n, pos = nodes[:, m], positions[:, m - k0]
        go = policy.go(m, n, pos)
        incs[go, m - k0] = vg.step * lattice.x(m)[n[go]]
        positions[:, m - k0 + 1] = pos + go
    rewards = incs.sum(axis=1)
    # running sums keep the left-to-right order of a path-by-path accumulation
    weights = ensemble.weights / np.cumsum(ensemble.weights)[-1]
    mean = float(np.cumsum(weights * rewards)[-1])
    return RolloutBundle(policy, k0, pos0, nodes, positions, rewards, weights, mean)


def inclusion_reads(bundle: RolloutBundle) -> list:
    """(k, nodes, pos) of the dminus_at reads of check_inclusion."""
    return [(m, bundle.nodes[:, m], bundle.positions[:, m - bundle.k0])
            for m in range(bundle.k0, bundle.policy.field.time_grid.K)]


def check_inclusion(bundle: RolloutBundle) -> dict:
    """Differential-inclusion consistency along rolled-out paths.

    At every realized (k, node, level): a zero rate requires X + dminus <=
    tie_tol and a full rate requires X + dminus >= -tie_tol, with dminus and
    tie_tol read off the bundle's policy. Positions whose left derivative is
    undefined (the lowest level of a grid that does not extend below zero)
    are skipped.
    """
    field, tie_tol = bundle.policy.field, bundle.policy.tie_tol
    reads = inclusion_reads(bundle)
    field.keep(reads)
    worst_zero, worst_full = -np.inf, np.inf
    for m, n, pos in reads:
        s = field.lattice.x(m)[n] + field.dminus_at(m, n, pos)
        full, ok = bundle.positions[:, m + 1 - bundle.k0] != pos, ~np.isnan(s)
        worst_zero = max(worst_zero, np.max(s[ok & ~full], initial=-np.inf))
        worst_full = min(worst_full, np.min(s[ok & full], initial=np.inf))
    if worst_zero > tie_tol:
        raise InvariantError("zero rate taken where X + D = %.3g > 0" % worst_zero)
    if worst_full < -tie_tol:
        raise InvariantError("full rate taken where X + D = %.3g < 0" % worst_full)
    return {"max_zero_side": worst_zero, "min_full_side": worst_full}


def check_saturation(bundle: RolloutBundle) -> bool:
    """When the full-rate budget covers the remaining horizon, every path must
    finish with the volume exactly exhausted. Returns False when the start is
    not in that region (nothing to check)."""
    vg = bundle.policy.field.volume_grid
    if bundle.pos0 < vg.boundary_pos(bundle.k0):
        return False
    short = np.flatnonzero(bundle.positions[:, -1] != vg.cap_pos)
    if short.size:
        r = short[0]
        raise InvariantError("path %d ends at volume %.17g, not 1"
                             % (r, bundle.volumes[r, -1]))
    return True


@dataclass(eq=False)
class ExerciseBoundary:
    """Per-path exit data for the volume band (1 - Y0 - L*(T-t), 1 - Y0).

    sigma_u is the first grid time the cumulative volume reaches the global
    cap, sigma_l the first time the remaining capacity is at least the
    remaining full-rate volume, sigma their minimum. Off the event
    {L*(T - t0) > 1 - y0 > 0} the convention sigma = T applies.
    """

    k0: int
    m_event: bool
    sigma_u: np.ndarray
    sigma_l: np.ndarray
    sigma: np.ndarray
    k_sigma: np.ndarray
    case_u: np.ndarray


def exit_times(bundle: RolloutBundle) -> ExerciseBoundary:
    vg = bundle.policy.field.volume_grid
    tg = bundle.policy.field.time_grid
    K = tg.K
    times = tg.times
    m_event = vg.boundary_pos(bundle.k0) < bundle.pos0 < vg.cap_pos
    pos = bundle.positions
    hit_u = pos >= vg.cap_pos
    k_u = np.where(hit_u.any(axis=1), bundle.k0 + hit_u.argmax(axis=1), -1)
    k_l = bundle.k0 + (pos <= vg.boundary_pos(np.arange(bundle.k0, K + 1))).argmax(axis=1)
    ku = np.where(k_u >= 0, k_u, K + 1)
    case_u = ku <= k_l
    k_sig = np.minimum(ku, k_l) if m_event else np.full(bundle.n_paths, K)
    sigma_u = times[np.where(k_u >= 0, k_u, K)]
    sigma_l = times[k_l]
    sigma = times[k_sig]
    if m_event and np.any(k_sig <= bundle.k0):
        raise InvariantError("exit at or before the start time on the interior event")
    return ExerciseBoundary(bundle.k0, m_event, sigma_u, sigma_l, sigma, k_sig, case_u)


@dataclass(eq=False)
class ExerciseRegions:
    """Sign of X + dminus per (k, node, level) of field: +1, -1, or 0 within
    tie_tol."""

    field: ValueField
    sign: list
    tie_tol: float

    def positive(self, k: int) -> np.ndarray:
        return self.sign[k] == 1


def exercise_regions(field: ValueField, tie_tol: float = TIE_TOL) -> ExerciseRegions:
    """Classify every (k, node, level) by the sign of X + dminus.

    Where the left derivative is undefined (lowest level of a grid with no
    extension below zero) the right derivative stands in. The terminal slice
    is all zero.
    """
    K = field.time_grid.K
    vg = field.volume_grid
    right = vg.right_of(np.arange(vg.n_levels))
    sign = []
    for k in range(K):
        x = field.lattice.x(k)[:, None]
        dm = field.dminus(k)
        s = x + dm
        s = np.where(np.isnan(s), x + dm[:, right], s)
        out = np.zeros(s.shape, dtype=np.int8)
        out[s > tie_tol] = 1
        out[s < -tie_tol] = -1
        sign.append(out)
    sign.append(np.zeros((field.lattice.n_nodes(K), vg.n_levels), dtype=np.int8))
    return ExerciseRegions(field, sign, tie_tol)


@dataclass(eq=False)
class MollifiedControl:
    """One window-averaged control iterate.

    f[k] holds the rate field over (node, level); trajectories has one volume
    path per ensemble path, produced by the explicit Euler update
    y <- y + dt * f evaluated at the floor-snapped level.
    """

    window: float
    pitches: int
    clamped: bool
    f: list
    trajectories: np.ndarray


def _window_field(mask: np.ndarray, m: int, L: float) -> np.ndarray:
    """Rate = L * (fraction of the m window starts below p whose closed
    forward window of m pitches stays inside the positive region)."""
    n_nodes, n_levels = mask.shape
    zero = np.zeros((n_nodes, 1), dtype=np.int64)
    ok = np.zeros((n_nodes, n_levels), dtype=np.int64)
    span = n_levels - m
    if span > 0:
        cpad = np.concatenate([zero, np.cumsum(mask.astype(np.int64), axis=1)], axis=1)
        ok[:, :span] = (cpad[:, m + 1:] - cpad[:, :span]) == m + 1
    spad = np.concatenate([zero, np.cumsum(ok, axis=1)], axis=1)
    p_idx = np.arange(n_levels)
    a_idx = np.maximum(p_idx - m, 0)
    return (spad[:, p_idx] - spad[:, a_idx]) * (L / m)


def mollified_iterate(regions: ExerciseRegions, ensemble: PathEnsemble, start,
                      n_max: int) -> list:
    """Window-averaged control iterates n = 1..n_max from a common start.

    The window width 2^-n is snapped to whole grid pitches; a width below one
    pitch clamps to a single pitch and sets the clamped flag. Widths that
    halve exactly on the grid give rate fields that increase pointwise with n,
    so the Euler volume paths rise monotonically toward the rollout path.
    """
    ensemble.check_lattice(regions.field.lattice)
    k0, y0 = start
    vg = regions.field.volume_grid
    dt = regions.field.time_grid.dt
    K = regions.field.time_grid.K
    pos0 = vg.start_pos(k0, y0)
    out = []
    for n in range(1, n_max + 1):
        width = 2.0 ** (-n)
        raw = width / vg.step
        m = max(1, int(round(raw)))
        clamped = raw < 1.0 - 1e-12
        f = [_window_field(regions.positive(k), m, vg.L) for k in range(K + 1)]
        traj = np.empty((ensemble.n_paths, K - k0 + 1))
        traj[:, 0] = vg.levels[pos0]
        for mm in range(k0, K):
            y = traj[:, mm - k0]
            p = np.floor(y * vg.j_cap + 1e-9).astype(np.int64) - vg.j_min
            p = np.clip(p, 0, vg.n_levels - 1)
            traj[:, mm - k0 + 1] = y + dt * f[mm][ensemble.nodes[:, mm], p]
        out.append(MollifiedControl(width, m, clamped, f, traj))
    return out
