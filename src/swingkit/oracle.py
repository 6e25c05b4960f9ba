"""Independent value oracles: exhaustive policy enumeration on tiny lattices
and analytic values for the model families with known optimal policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import PreconditionError, ScenarioLattice, TimeGrid, _wsum
from .solver import VolumeGrid


@dataclass(eq=False)
class EnumerationResult:
    value: float
    policy: dict
    n_policies: int
    n_decision_points: int


def brute_force_value(lattice: ScenarioLattice, volume_grid: VolumeGrid, start=(0, 0.0),
                      max_policies: int = 2 ** 20) -> EnumerationResult:
    """Maximum over every deterministic-table policy, by direct evaluation.

    A policy assigns rate 0 or L to each reachable (slice, node, level) with
    k < K and level below the cap; randomized rates never beat the best
    table. Start nodes at k0 > 0 are weighted by occupancy. The policy count
    2^P is capped by max_policies.
    """
    k0, y0 = start
    K = lattice.n_steps
    vg = volume_grid
    vg.check_steps(K)
    pos0 = vg.start_pos(k0, y0)

    occ = lattice.occupancy()
    starts = [(n, float(occ[k0][n])) for n in range(lattice.n_nodes(k0))
              if occ[k0][n] > 0.0]

    def children(k, n):
        start, child, prob = lattice.edges(k)
        lo, hi = start[n], start[n + 1]
        return list(zip(child[lo:hi].tolist(), prob[lo:hi].tolist()))

    # reachable states, then a bit index per decision state
    reach = set()
    frontier = {(k0, n, pos0) for n, _ in starts}
    while frontier:
        nxt = set()
        for (k, n, pos) in frontier:
            if (k, n, pos) in reach or k == K:
                reach.add((k, n, pos))
                continue
            reach.add((k, n, pos))
            for c, _ in children(k, n):
                nxt.add((k + 1, c, pos))
                if pos < vg.cap_pos:
                    nxt.add((k + 1, c, pos + 1))
        frontier = nxt - reach
    decision_states = sorted(s for s in reach if s[0] < K and s[2] < vg.cap_pos)
    P = len(decision_states)
    n_pol = 2 ** P
    if n_pol > max_policies:
        raise PreconditionError("%d decision points give %d policies, above the cap %d"
                                % (P, n_pol, max_policies))
    bit = {s: i for i, s in enumerate(decision_states)}

    order = sorted(reach, key=lambda s: -s[0])
    best_val = -np.inf
    best_mask = 0
    chunk = min(n_pol, 1 << 16)
    for lo in range(0, n_pol, chunk):
        masks = np.arange(lo, min(lo + chunk, n_pol), dtype=np.int64)
        vals = {}
        for s in order:
            k, n, pos = s
            if k == K:
                vals[s] = np.zeros(masks.shape)
                continue
            kids = children(k, n)
            stay = np.zeros(masks.shape)
            for c, p in kids:
                stay += p * vals[(k + 1, c, pos)]
            if pos >= vg.cap_pos:
                vals[s] = stay
                continue
            go = np.full(masks.shape, vg.step * lattice.x(k)[n])
            for c, p in kids:
                go += p * vals[(k + 1, c, pos + 1)]
            u = (masks >> bit[s]) & 1
            vals[s] = np.where(u == 1, go, stay)
        total = np.zeros(masks.shape)
        for n, w in starts:
            total += w * vals[(k0, n, pos0)]
        i = int(np.argmax(total))
        if total[i] > best_val:
            best_val = float(total[i])
            best_mask = int(masks[i])

    policy = {s: (best_mask >> bit[s]) & 1 for s in decision_states}
    return EnumerationResult(best_val, policy, n_pol, P)


def closed_form(kind: str, lattice: ScenarioLattice, time_grid: TimeGrid,
                volume_grid: VolumeGrid, t: float, y: float, c: float = None) -> float:
    """Analytic values for the solvable model families.

    constant: J = c*min(1-y, L*(T-t)).
    example: the two-branch worked model, J = 2-(1+y)^2/2 on t in [0,1],
      y in [0,1]; other starts are outside the formula's validity region.
    submartingale: exercise as late as possible, fully on the last stretch of
      length (1-y)/L; the window reward is summed exactly on the lattice.
    supermartingale: exercise as early as possible, fully on [t, t+(1-y)/L).

    The window sums take unconditional slice expectations, so starts with
    t > 0 match the solver only when the lattice is deterministic up to t.
    """
    tg = time_grid
    k = tg.index_of(t)
    if kind == "constant":
        if c is None:
            raise ValueError("kind 'constant' needs the level c")
        return c * min(1.0 - y, volume_grid.L * (tg.T - t))
    if kind == "example":
        if not (-1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= y <= 1.0 + 1e-9):
            raise ValueError("the example formula is valid for t in [0,1], y in [0,1] only")
        return 2.0 - (1.0 + y) ** 2 / 2.0
    if kind not in ("submartingale", "supermartingale"):
        raise ValueError("unknown closed form %r" % kind)
    pos = volume_grid.index_of(y)
    occ = lattice.occupancy()
    budget = volume_grid.cap_pos - pos
    if kind == "submartingale":
        lo, hi = max(k, tg.K - budget), tg.K
    else:
        lo, hi = k, min(tg.K, k + budget)
    total = 0.0
    for m in range(lo, hi):
        total += volume_grid.step * _wsum(occ[m], lattice.x(m))
    return total
