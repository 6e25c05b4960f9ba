"""Martingale dual bounds for the swing problem.

Any adapted one-step martingale M gives the upper bound

    dual(M) = E[ sum_k L*dt*(X_k - M_k)_+ ] + M_0,

an algebraic consequence of the budget constraints that holds on the lattice
for every valid M once L*T > 1 (the full budget can then always be spent).
The optimizing martingale is assembled from the marginal value before the
canonical band-exit time and from envelope martingale increments after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import InvariantError, PreconditionError, ScenarioLattice, _wsum
from .policy import PolicyField
from .solver import VolumeGrid


@dataclass(eq=False)
class MartingaleField:
    """Adapted node values on its lattice with the one-step martingale property."""

    lattice: ScenarioLattice
    values: list
    label: str = "user"

    def validate(self) -> float:
        """Worst one-step drift; raises on a non-finite value or when the
        drift exceeds the scaled tolerance."""
        lattice = self.lattice
        for k, v in enumerate(self.values):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValueError("martingale value at slice %d node %d is not finite"
                                 % (k, bad[0]))
        scale = max(1.0, max(float(np.abs(v).max()) for v in self.values))
        worst = 0.0
        for k in range(lattice.n_steps):
            drift = lattice.expect_next(k, self.values[k + 1]) - self.values[k]
            worst = max(worst, float(np.abs(drift).max()))
        if worst > 1e-12 * scale:
            raise ValueError("martingale identity fails by %.3g" % worst)
        return worst


def constant_martingale(lattice: ScenarioLattice, c: float) -> MartingaleField:
    vals = [np.full(lattice.n_nodes(k), float(c)) for k in range(lattice.n_steps + 1)]
    return MartingaleField(lattice, vals, "constant")


def doob_martingale_of_terminal(lattice: ScenarioLattice, terminal,
                                label: str = "user") -> MartingaleField:
    """Closed martingale E[terminal | F_k] of a terminal-slice payoff."""
    K = lattice.n_steps
    term = np.asarray(terminal, dtype=float)
    if term.shape != (lattice.n_nodes(K),):
        raise ValueError("terminal payoff must have one value per terminal node")
    vals = [None] * (K + 1)
    vals[K] = term.copy()
    for k in range(K - 1, -1, -1):
        vals[k] = lattice.expect_next(k, vals[k + 1])
    return MartingaleField(lattice, vals, label)


def random_terminal(lattice: ScenarioLattice, seed: int) -> np.ndarray:
    """Seeded randomized terminal payoff: a random multiple of the terminal
    cashflow plus a random shift and Gaussian noise."""
    rng = np.random.default_rng(seed)
    x_term = lattice.x(lattice.n_steps)
    coeff = rng.uniform(-1.0, 2.0)
    shift = rng.uniform(-1.0, 1.0) * max(1.0, lattice.max_x())
    noise = rng.normal(0.0, 0.3 * max(1.0, lattice.max_x()), size=x_term.shape)
    return coeff * x_term + shift + noise


def random_martingale(lattice: ScenarioLattice, seed: int) -> MartingaleField:
    """Seeded arbitrary-sign martingale, the closed martingale of
    random_terminal(lattice, seed)."""
    return doob_martingale_of_terminal(lattice, random_terminal(lattice, seed))


@dataclass(eq=False)
class DualReport:
    dual_value: float
    primal: float
    gap: float
    label: str


def _check_dual_grid(lattice: ScenarioLattice, volume_grid: VolumeGrid):
    volume_grid.check_steps(lattice.n_steps)
    if volume_grid.n_steps <= volume_grid.j_cap:
        raise PreconditionError("the dual bound needs L*T > 1; this grid has L*T <= 1")


def _gains(occ: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_n occ[n] * (x[n] - M[n])_+ for each column of the (nodes x m)
    slice M."""
    return _wsum(occ, np.maximum(x - values.T, 0.0))


def _reports(m0: np.ndarray, gains: list, volume_grid: VolumeGrid, primal: float,
             label: str) -> list:
    """A DualReport per column: m0 + step * the gains of slices 0, 1, ...,
    K - 1 summed in that order. Like Python floats, the sums overflow to
    inf without a warning."""
    total = np.zeros(m0.size)
    with np.errstate(over="ignore"):
        for gain in gains:
            total += gain
        dual = m0 + volume_grid.step * total
    return [DualReport(float(d), primal, float(d) - primal, label) for d in dual]


def dual_value(martingale: MartingaleField, volume_grid: VolumeGrid,
               primal: float = None) -> DualReport:
    """Upper bound from one martingale field on its lattice, start (0, y=0).

    The integrand samples X and M at the left endpoint of each step, matching
    the solver's reward convention, so weak duality is exact lattice algebra.
    """
    lattice = martingale.lattice
    _check_dual_grid(lattice, volume_grid)
    martingale.validate()
    occ = lattice.occupancy()
    gains = [_gains(occ[k], lattice.x(k), np.reshape(martingale.values[k], (-1, 1)))
             for k in range(lattice.n_steps)]
    return _reports(np.array([float(martingale.values[0][0])]), gains, volume_grid,
                    np.nan if primal is None else primal, martingale.label)[0]


def dual_values(lattice: ScenarioLattice, volume_grid: VolumeGrid, terminals,
                primal: float) -> list:
    """dual_value(doob_martingale_of_terminal(lattice, terminals[:, i]),
    volume_grid, primal) for each column i, bit for bit, in one sweep.

    The closed martingales E[terminals[:, i] | F_k] are the columns of one
    (nodes x m) array, carried from K down to 0 with only slices k and k+1
    held. Each column satisfies the one-step identity by construction, so
    only its values are checked: the lowest column with a non-finite value
    raises MartingaleField.validate's error for its lowest slice.
    """
    K = lattice.n_steps
    cur = np.asarray(terminals, dtype=float)
    if cur.ndim != 2 or cur.shape[0] != lattice.n_nodes(K):
        raise ValueError("terminal payoff must have one value per terminal node")
    _check_dual_grid(lattice, volume_grid)
    occ = lattice.occupancy()
    bad = {}                # column -> (k, node) of its lowest non-finite value
    gains = [None] * K
    for k in range(K, -1, -1):
        if k < K:
            cur = lattice.expect_next(k, cur)
            gains[k] = _gains(occ[k], lattice.x(k), cur)
        nonfinite = ~np.isfinite(cur)
        for i in np.flatnonzero(nonfinite.any(axis=0)):
            bad[i] = k, int(nonfinite[:, i].argmax())
    if bad:
        raise ValueError("martingale value at slice %d node %d is not finite" % bad[min(bad)])
    return _reports(cur[0], gains, volume_grid, primal, "user")


@dataclass(eq=False)
class OptimalMartingaleResult:
    """Construction output: bound, start value, node view, diagnostics.

    field is the node-valued view and is only present when every node's
    path-states agree to rounding; otherwise it is None and a flag records
    the spread (the bound itself is always computed exactly, state by state).
    node_values[k][node] is the probability-weighted mean of M over the
    node's states, or its first state's M where that probability is 0.
    """

    report: DualReport
    m0: float
    field: MartingaleField
    diagnostics: dict
    flags: list
    node_values: list


def _merge(keys, w, v):
    """Per group of equal key tuples (key[i] for key in keys), in first-seen
    order: the first arrival, mass (sum of w), mean (of v weighted by w, or v
    at the first arrival where the mass is 0) and spread (max - min of v).

    Sums run in arrival order, as a loop over the arrivals adds. The mean's
    weights are scaled per group by the power of two that puts the largest in
    [0.5, 1): exact, so no bit moves, unless a scaled weight or product is
    subnormal; and it keeps the mean of subnormal weights between its arrivals.
    """
    order = np.lexsort(keys[::-1])        # stable: each run starts at its first arrival
    new = np.append(True, np.any([a[1:] != a[:-1] for a in (key[order] for key in keys)], 0))
    starts = np.flatnonzero(new)
    head, n, run = order[starts], starts.size, np.empty_like(order)
    run[order] = np.cumsum(new) - 1
    scaled = np.ldexp(w, -np.frexp(np.maximum.reduceat(w[order], starts))[1][run])
    norm, mean, sv = np.bincount(run, scaled, n), v[head], v[order]
    np.divide(np.bincount(run, scaled * v, n), norm, out=mean, where=norm > 0)
    spread = np.maximum.reduceat(sv, starts) - np.minimum.reduceat(sv, starts)
    rank = np.argsort(head)
    return head[rank], np.bincount(run, w, n)[rank], mean[rank], spread[rank]


def build_optimal_martingale(policy: PolicyField) -> OptimalMartingaleResult:
    """Assemble the optimizing martingale for start (0, y=0) from a policy and
    its solved field.

    Before the canonical band exit the martingale is the conditional
    expectation of X at the exit; afterwards it continues by the martingale
    increments of the sup envelope (budget exhausted first) or the inf
    envelope (forced-rate region hit first). Realized volume levels must be a
    function of the node up to the exit; lattices where optimal paths reach
    one pre-exit node at two levels are rejected.
    """
    value_field = policy.field
    lattice, time_grid, vg = value_field.lattice, value_field.time_grid, value_field.volume_grid
    K = time_grid.K
    trigger, exit_up, reads = policy.pre_exit
    pos0 = vg.index_of(0.0)
    tol = 3.0 * time_grid.dt * lattice.max_x()
    sup_env, inf_env = lattice.envelope("max"), lattice.envelope("min")

    # conditional expectation of X at the exit, on the pre-exit region
    w_field = [None] * (K + 1)
    for k in range(K, -1, -1):
        w = np.where(trigger[k], lattice.x(k), np.nan)
        if k < K:
            pre = reads[k][1]
            w[pre] = lattice.expect_next(k, w_field[k + 1])[pre]
        w_field[k] = w
    m0 = float(w_field[0][0])

    dual1 = dual2 = 0.0
    value_field.keep(reads)
    for k, pre, pos in reads:
        env = np.where(exit_up[k], sup_env.values[k], inf_env.values[k])
        dual2 = max(dual2, float(np.abs(lattice.x(k) - env)[trigger[k]].max(initial=0.0)))
        lhs = -value_field.dminus_at(k, pre, pos)
        dual1 = max(dual1, float(np.abs(lhs - w_field[k][pre]).max(initial=0.0)))

    # post-exit state table, one row per state in first-seen order. phase 0
    # is pre-exit (M reads w_field), 1 continues by the sup envelope's
    # increments, 2 by the inf envelope's; m is M of a post-exit state, or
    # of its first arrival when the state has probability 0
    mscale = max(1.0, lattice.max_x(), abs(m0))
    qtol = 1e-9 * mscale
    node, phase, p, m = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1), np.zeros(1)
    integrand = dom = ident = spread = 0.0
    node_values = []
    for k in range(K + 1):
        x = lattice.x(k)[node]
        v = np.where(phase == 0, w_field[k][node], m)
        head, _, mean, node_spread = _merge((node,), p, v)
        vals = np.full(lattice.n_nodes(k), np.nan)
        vals[node[head]] = mean
        node_values.append(vals)
        spread = max(spread, float(node_spread.max()))
        dom = max(dom, float(np.where(phase == 1, x - v, v - x)[phase > 0].max(initial=0.0)))
        if k == K:
            break
        # sums run in state order (bincount, cumsum) so every bit matches a
        # state-by-state loop
        integrand = float(np.cumsum(np.append(integrand, p * np.maximum(x - v, 0.0)))[-1])
        child, prob = lattice.edges(k)[1:]
        row, e = lattice.out_edges(k, node)
        stay = (phase == 0) & ~trigger[k][node]
        new_phase = np.where(phase > 0, phase, np.where(exit_up[k][node], 1, 2))
        base = np.where(stay, w_field[k][node], np.where(phase == 0, x, m))
        inc = np.where(new_phase[row] == 1, sup_env.increments(k)[e], inf_env.increments(k)[e])
        m2 = np.where(stay[row], w_field[k + 1][child[e]], base[row] + inc)
        ev = np.bincount(row, prob[e] * m2, node.size)
        ident = max(ident, float(np.abs(ev - base).max()))
        node, phase = child[e], np.where(stay, 0, new_phase)[row]
        q = np.where(stay[row], 0.0, np.rint(m2 / qtol))
        head, p, m, _ = _merge((node, phase, q), p[row] * prob[e], m2)
        if head.size > 200000:
            raise ValueError(
                "post-exit martingale is path-dependent beyond 200000 states at "
                "slice %d; no node view exists on this lattice" % (k + 1))
        node, phase = node[head], phase[head]

    primal = float(value_field.point(0, 0, pos0))
    dual = m0 + vg.step * integrand
    report = DualReport(dual, primal, dual - primal, "optimal")

    flags, field = [], None
    if spread <= 1e-10 * mscale:
        field = MartingaleField(lattice, node_values, "optimal")
        field.validate()
    else:
        flags.append("node aggregation spread %.3g; bound computed statewise" % spread)
    if ident > 5.0 * time_grid.dt * lattice.max_x():
        flags.append("martingale identity violation %.3g" % ident)
    if dual1 > tol:
        flags.append("pre-exit derivative mismatch %.3g" % dual1)
    if dual2 > tol:
        flags.append("exit envelope mismatch %.3g" % dual2)
    if dom > tol:
        flags.append("post-exit dominance violation %.3g" % dom)

    diagnostics = {
        "premart_vs_derivative": dual1,
        "exit_envelope_match": dual2,
        "post_exit_dominance": dom,
        "martingale_identity": ident,
        "node_spread": spread,
    }
    return OptimalMartingaleResult(report, m0, field, diagnostics, flags, node_values)


def duality_gap_study(policies) -> list:
    """The optimal martingale of each solved policy, in order.

    K and the declared regularity are read off each policy's field. Asserts
    gap >= -1e-10 at every K, and when every model is declared regular a
    0.75 decay factor between consecutive exact doublings, with a 1e-12
    absolute floor for gaps at rounding level.
    """
    rows = []
    lce = True
    for policy in policies:
        lce = lce and policy.field.lattice.lce_declared
        rows.append((policy.field.time_grid.K, build_optimal_martingale(policy)))
    for K, res in rows:
        if res.report.gap < -1e-10:
            raise InvariantError("negative duality gap %.3g at K=%d" % (res.report.gap, K))
    if lce:
        for (Ka, a), (Kb, b) in zip(rows, rows[1:]):
            if Kb == 2 * Ka and b.report.gap > 0.75 * a.report.gap + 1e-12:
                raise InvariantError("duality gap fails to shrink: %.3g -> %.3g"
                                     % (a.report.gap, b.report.gap))
    return [res for _, res in rows]
