"""Optimal stopping machinery: predictable stopping searches confined to
the stop windows of a policy, and the stopping representations of
the marginal value of volume, which read the Snell envelopes of models.

Discrete predictability convention: the event {sigma = t_k} must be decided
one grid step ahead, i.e. it is constant across all time-k children of each
time-(k-1) node. Stopping values sample the cashflow at grid times, so a jump
placed at a grid time is seen by a rule that stops exactly there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import InvariantError, PathEnsemble, ScenarioLattice, _wsum
from .policy import PolicyField, exit_times, rollout
from .solver import _start_indices

@dataclass(eq=False)
class StoppingRule:
    """Stop decisions per (k, node) of its lattice past k0, applied with
    first-hit semantics.

    A predictable rule keeps the stop flag constant across all children of
    each parent node, so {sigma = t_k} is decided at t_{k-1}; check_predictable()
    raises unless the rule is one.
    """

    lattice: ScenarioLattice
    stop: list
    k0: int

    def check_predictable(self):
        for k in range(self.k0 + 1, self.lattice.n_steps + 1):
            start, child, _ = self.lattice.edges(k - 1)
            stops = np.add.reduceat(self.stop[k][child].astype(np.int64), start[:-1])
            if np.any((stops != 0) & (stops != np.diff(start))):
                raise InvariantError(
                    "stop decision at slice %d varies across one parent's children" % k
                )


def evaluate_stop_rule(rule: StoppingRule, ensemble: PathEnsemble) -> float:
    """Expected stopped cashflow of a rule over an ensemble of the rule's
    lattice; every path must stop by the terminal time."""
    ensemble.check_lattice(rule.lattice)
    nodes = ensemble.nodes
    x_hit = np.full(ensemble.n_paths, np.nan)
    for m in range(rule.k0 + 1, rule.lattice.n_steps + 1):
        hit = np.isnan(x_hit) & rule.stop[m][nodes[:, m]]
        x_hit[hit] = rule.lattice.x(m)[nodes[hit, m]]
    if np.isnan(x_hit).any():
        raise ValueError("path %d never stops" % np.isnan(x_hit).argmax())
    # running sums keep the left-to-right order of a path-by-path accumulation
    weights = ensemble.weights
    return float(np.cumsum(weights / np.cumsum(weights)[-1] * x_hit)[-1])


def _window_flags(policy: PolicyField, k0: int, pos0: int, constraint: str) -> list:
    """Stop flags per node of each slice past k0, with the policy walked
    forward over the tree's nodes from every node of slice k0 at position pos0.

    t_m is open when the step into it or the step out of it allows the move:
    a rate below L for "can_raise" (the holder could still exercise more),
    above 0 for "can_lower" (could exercise less). On a tree a node has one
    parent, so one position: its parent's plus the parent's go.
    """
    if constraint not in ("can_raise", "can_lower"):
        raise ValueError("constraint must be 'can_raise' or 'can_lower'")
    lattice = policy.field.lattice
    flags = [np.zeros(lattice.n_nodes(m), dtype=bool) for m in range(k0 + 1)]
    pos = np.full(lattice.n_nodes(k0), pos0)
    for m in range(k0, lattice.n_steps):
        go = policy.go(m, np.arange(pos.size), pos)
        allowed = go if constraint == "can_lower" else ~go
        if m > k0:
            flags[m] |= allowed             # the step out of t_m
        up = np.empty(lattice.n_nodes(m + 1), dtype=np.int64)
        up[lattice.edges(m)[1]] = lattice.parents(m)
        flags.append(allowed[up])           # the step into t_{m+1}
        pos = (pos + go)[up]
    return flags


def optimal_predictable_stop(policy: PolicyField, start, constraint: str):
    """Best discrete-predictable stopping rule (stop decisions made one step
    ahead, at the parent node) from start = (k0, y0), with stop times
    confined to the policy's windows (see _window_flags), on the policy's
    lattice: the sup over the "can_raise" windows, which represents -D-J, or
    the inf over the "can_lower" windows, which represents -D+J.

    Needs a tree lattice; every node of slice k0 starts, weighted by its
    occupancy. Returns (rule, value). Raises when no admissible rule exists.
    """
    lattice = policy.field.lattice
    if not lattice.is_tree():
        raise ValueError("the stopping search needs a tree lattice")
    K = lattice.n_steps
    k0, y0 = start
    flags = _window_flags(policy, k0, policy.field.volume_grid.start_pos(k0, y0), constraint)
    sense = 1.0 if constraint == "can_raise" else -1.0
    bad = -np.inf

    def expect(k, v):
        """E[v | node] over slice k+1; -inf where a child's value is -inf."""
        start, child, _ = lattice.edges(k)
        ok = np.isfinite(v)
        all_ok = np.logical_and.reduceat(ok[child], start[:-1])
        return np.where(all_ok, lattice.expect_next(k, np.where(ok, v, 0.0)), bad)

    # choice[k]: stop at the next step rather than continue
    value, choice = None, [None] * K
    for k in range(K - 1, k0 - 1, -1):
        stop_val = expect(k, np.where(flags[k + 1], sense * lattice.x(k + 1), bad))
        cont_val = bad if value is None else expect(k, value)
        value, choice[k] = np.maximum(stop_val, cont_val), stop_val >= cont_val

    start_w = lattice.occupancy()[k0]
    reached = start_w > 0
    if np.any(~np.isfinite(value[reached])):
        raise ValueError("no admissible stopping rule for constraint %r" % (constraint,))
    best = _wsum(start_w[reached], value[reached]) * sense

    # each child copies its parent's choice; the rule acts at the first hit
    stop = [np.zeros(lattice.n_nodes(k), dtype=bool) for k in range(k0 + 1)]
    for k in range(k0, K):
        stop.append(np.empty(lattice.n_nodes(k + 1), dtype=bool))
        stop[k + 1][lattice.edges(k)[1]] = choice[k][lattice.parents(k)]
    return StoppingRule(lattice, stop, k0), best


@dataclass(eq=False)
class MarginalRow:
    """One start of the marginal-value table."""

    t0: float
    y0: float
    region: str
    dminus_neg: float
    dplus_neg: float
    ex_sigma: float
    sup_raise: float
    inf_lower: float
    snell_sup: float
    snell_inf: float


@dataclass(eq=False)
class MarginalReport:
    rows: list
    tol: float

    def format_table(self) -> str:
        header = ("t0 y0 region neg_dminus neg_dplus ex_sigma sup_can_raise "
                  "inf_can_lower snell_sup snell_inf note")
        lines = [header]
        for r in self.rows:
            lines.append("%.17g %.17g %s %.17g %.17g %.17g %.17g %.17g %.17g %.17g -"
                         % (r.t0, r.y0, r.region, r.dminus_neg, r.dplus_neg, r.ex_sigma,
                            r.sup_raise, r.inf_lower, r.snell_sup, r.snell_inf))
        return "\n".join(lines) + "\n"


def marginal_value_report(policy: PolicyField, ensemble: PathEnsemble,
                          starts) -> MarginalReport:
    """Stopping representations of -D-J and -D+J at the starts, read off the
    solved field of the bang-bang policy.

    Per start (t0, y0) the row carries both one-sided derivatives, the value
    E[X(sigma)] of the canonical exit time, the constrained predictable
    search values, and the plain envelope values where the region calls for
    them. On models declaring a left-continuous-in-expectation limit the
    regional identities are asserted within 3*dt*max(X):

      deep (y below the full-rate boundary): both derivatives vanish;
      boundary (y exactly on it): -D- = 0 and -D+ matches the inf envelope;
      interior: -D- >= sup_can_raise >= E[X(sigma)] >= inf_can_lower >= -D+,
        all five within tolerance of each other;
      cap (y = 1): -D- matches the sup envelope.

    -D- at the cap and -D+ on the boundary equal exactly the envelopes over
    the stops up to t_{K-1}. The snell_sup and snell_inf columns are the
    Envelope values, which may also stop at t_K; that offset, of order
    dt*max(X), is why they are compared within the tolerance.
    """
    field = policy.field
    lattice, tg, vg = field.lattice, field.time_grid, field.volume_grid
    ensemble.check_lattice(lattice)
    occ = lattice.occupancy()
    tol = 3.0 * tg.dt * lattice.max_x()
    searchable = lattice.is_tree()
    places = _start_indices(starts, tg, vg)
    # (k0, nodes, pos) of the -D-J and -D+J reads of each start
    reads = [(k0, *np.broadcast_arrays(np.arange(lattice.n_nodes(k0))[:, None],
                                       np.array([pos0, vg.right_of(pos0)])))
             for k0, pos0 in places]
    field.keep(reads)
    rows = []
    for (t0, y0), (k0, pos0), read in zip(starts, places, reads):
        b = vg.boundary_pos(k0)
        if pos0 == vg.cap_pos:
            region = "cap"
        elif pos0 == b:
            region = "boundary"
        elif pos0 < b:
            region = "deep"
        else:
            region = "interior"
        w = occ[k0]
        ndm, ndp = (-_wsum(w, field.dminus_at(*read).T) + 0.0).tolist()
        # each envelope is read (and built) only where the region calls for it
        ssup = _wsum(w, lattice.envelope("max").values[k0]) if region == "cap" else np.nan
        sinf = _wsum(w, lattice.envelope("min").values[k0]) if region == "boundary" else np.nan
        ex_sig = sup_a = inf_b = np.nan
        if region != "cap":
            bundle = rollout(policy, ensemble, (k0, y0))
            exits = exit_times(bundle)
            x_sig = np.empty(bundle.n_paths)
            for m in set(exits.k_sigma.tolist()):
                at = exits.k_sigma == m
                x_sig[at] = lattice.x(m)[bundle.nodes[at, m]]
            ex_sig = float(np.cumsum(bundle.weights * x_sig)[-1])
            if searchable and region == "interior":
                _, sup_a = optimal_predictable_stop(policy, (k0, y0), "can_raise")
                _, inf_b = optimal_predictable_stop(policy, (k0, y0), "can_lower")
        rows.append(MarginalRow(t0, y0, region, ndm, ndp, ex_sig, sup_a, inf_b, ssup, sinf))
        if not lattice.lce_declared:
            continue
        if region == "deep":
            if abs(ndm) > 1e-12 or abs(ndp) > 1e-12:
                raise InvariantError("derivatives fail to vanish below the boundary")
        elif region == "boundary":
            if abs(ndm) > 1e-12:
                raise InvariantError("left derivative fails to vanish on the boundary")
            if abs(ndp - sinf) > tol:
                raise InvariantError("-D+ differs from the inf envelope by %.3g"
                                     % abs(ndp - sinf))
        elif region == "cap":
            if abs(ndm - ssup) > tol:
                raise InvariantError("-D- differs from the sup envelope by %.3g"
                                     % abs(ndm - ssup))
        else:
            if abs(ndm - ex_sig) > tol:
                raise InvariantError("-D- differs from E[X(sigma)] by %.3g" % abs(ndm - ex_sig))
            if searchable:
                chain = [ndm, sup_a, ex_sig, inf_b, ndp]
                for hi, lo in zip(chain, chain[1:]):
                    if hi < lo - tol:
                        raise InvariantError("marginal-value chain broken: %.17g < %.17g"
                                             % (hi, lo))
    return MarginalReport(rows, tol)
