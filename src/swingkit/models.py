"""Scenario lattices for the cashflow process, path ensembles, and lattice I/O.

A lattice has one time slice per grid time; each slice holds nodes carrying
a nonnegative cashflow value and one-step transition probabilities into the
next slice. The cashflow is treated as constant on [t_k, t_{k+1}), so integrals
of piecewise-constant exercise rates against it are exact sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, count, islice, repeat
from operator import itemgetter

import numpy as np

PROB_TOL = 1e-12
MAX_PATHS = 65536       # the most paths enumerate_paths lists
_CHUNK = 2048           # node lines that read_lattice splits and converts at a time


class InvariantError(Exception):
    """A structural property of a solved field failed to hold."""


class PreconditionError(ValueError):
    """Valid input outside the declared range of a check or oracle."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fsum(terms: list) -> float:
    """The correctly rounded sum of terms, or its IEEE value: +-inf where it
    overflows, nan for inf - inf or a nan term."""
    try:
        return math.fsum(terms)
    except ValueError:                          # inf - inf
        return math.nan
    except OverflowError:                       # a partial sum overflowed
        special = [t for t in terms if not math.isfinite(t)]
        if special:                             # they outweigh any finite sum
            return _fsum(special)
        from fractions import Fraction          # only this rare path pays its import
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _wsum(w, v):
    """sum_i w[i] * v[..., i]: a float for a 1-D v, else an array of
    v.shape[:-1]. Each row is the correctly rounded sum of its products
    (math.fsum), so its bits depend on no summation order, memory layout,
    BLAS kernel or SIMD path. Overflow and nan give their IEEE values, with
    no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.multiply(w, v)
    rows = prod.reshape(math.prod(prod.shape[:-1]), prod.shape[-1]).tolist()
    sums = [_fsum(row) for row in rows]
    return sums[0] if prod.ndim == 1 else np.array(sums).reshape(prod.shape[:-1])


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_K = T."""

    T: float
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not 0 < self.T < np.inf:
            raise ValueError("horizon T must be positive and finite")

    @property
    def dt(self) -> float:
        return self.T / self.K

    @property
    def times(self) -> np.ndarray:
        t = np.arange(self.K + 1) * (self.T / self.K)
        t[-1] = self.T
        return t

    def index_of(self, t: float) -> int:
        kf = t / self.dt
        k = int(round(kf)) if np.isfinite(kf) else -1
        if abs(kf - k) > 1e-9 or not 0 <= k <= self.K:
            raise ValueError("time %.17g is off the grid" % t)
        return k

    def start_index(self, t: float) -> int:
        """index_of(t) for a start time, which must leave at least one step."""
        k = self.index_of(t)
        if k == self.K:
            raise ValueError("start time %.17g has no remaining horizon" % t)
        return k


@dataclass(frozen=True)
class LatticeNode:
    """One node of a hand-built lattice for ScenarioLattice.from_rows:
    cashflow value plus transitions into the next slice.

    Terminal nodes carry empty children/probs tuples.
    """

    x: float
    children: tuple = ()
    probs: tuple = ()


class ScenarioLattice:
    """Finite scenario lattice for the cashflow process.

    xs holds one array of cashflows per time slice and edges one
    (start, child, prob) triple per step: node n of slice k owns edges
    start[n]:start[n+1] of edges[k], which lead to node child[e] of slice
    k+1 with probability prob[e]. The constructor ends with validate(), so
    every lattice has one root at slice 0 and passes its checks. Arrays of
    the right dtype are kept without a copy and must not be mutated: the
    per-step fan-out tables, parents, occupancy, max_x and Snell envelopes
    are derived from them once, on first use, and their arrays handed out
    read-only. lce_declared is a model attribute (left-continuity in
    expectation of the continuous-time limit cannot be decided from
    finitely many grid values).
    """

    def __init__(self, xs, edges, lce_declared: bool = True):
        if len(xs) < 2 or len(edges) != len(xs) - 1:
            raise ValueError("lattice needs at least two time slices and one edge triple per step")
        self.lce_declared = lce_declared
        self._x = [np.asarray(x, dtype=float) for x in xs]
        self._edges = [(np.asarray(s, dtype=np.int64), np.asarray(c, dtype=np.int64),
                        np.asarray(p, dtype=float)) for s, c, p in edges]
        # derived tables, each built on first use
        self._fanouts = [None] * len(self._edges)
        self._parents = [None] * len(self._edges)
        self._occupancy = None
        self._max_x = None
        self._envelopes = {}
        self.validate()

    @classmethod
    def from_rows(cls, rows, lce_declared: bool = True) -> "ScenarioLattice":
        """Lattice from one list of LatticeNode records per time slice."""
        rows = [list(row) for row in rows]
        for k, row in enumerate(rows):
            for n, node in enumerate(row):
                if len(node.children) != len(node.probs):
                    raise ValueError("children/probs length mismatch at slice %d node %d" % (k, n))
                if k == len(rows) - 1 and node.children:
                    raise ValueError("terminal node %d has children" % n)
        edges = [(np.cumsum([0] + [len(node.children) for node in row]),
                  [c for node in row for c in node.children],
                  [p for node in row for p in node.probs]) for row in rows[:-1]]
        return cls([[node.x for node in row] for row in rows], edges, lce_declared)

    @property
    def n_steps(self) -> int:
        return len(self._x) - 1

    def n_nodes(self, k: int) -> int:
        return self._x[k].size

    def x(self, k: int) -> np.ndarray:
        """Cashflow values at slice k as a vector."""
        return self._x[k]

    def max_x(self) -> float:
        """The largest cashflow over all slices, computed once."""
        if self._max_x is None:
            self._max_x = max(float(v.max()) for v in self._x)
        return self._max_x

    def edges(self, k: int):
        """(start, child, prob) of the transitions from slice k to k+1."""
        if not 0 <= k < self.n_steps:
            raise ValueError("no transitions out of slice %d" % k)
        return self._edges[k]

    def out_edges(self, k: int, nodes: np.ndarray):
        """(row, edge) over the edges of edges(k) leaving each nodes[i] in
        turn, in edge order: edge[j] is an edge index, row[j] its i."""
        start = self.edges(k)[0]
        first = start[nodes]
        deg = start[nodes + 1] - first
        row = np.repeat(np.arange(deg.size), deg)
        return row, np.arange(row.size) + (first + deg - np.cumsum(deg))[row]

    def parents(self, k: int) -> np.ndarray:
        """Parent node of each edge of edges(k), as a read-only array."""
        start = self.edges(k)[0]
        if self._parents[k] is None:
            self._parents[k] = _read_only(np.repeat(np.arange(start.size - 1), np.diff(start)))
        return self._parents[k]

    def _fanout(self, k: int) -> list:
        """(child, prob, absent) per fan-out position j of edges(k), read-only.

        Entry j holds, for every node of slice k, the child and probability
        of the node's j-th edge, clamped to the last edge for the nodes of
        degree j or less, whose indices absent lists. Position 0 has no
        absent list: every node of a non-terminal slice owns an edge.
        """
        start, child, prob = self.edges(k)
        if self._fanouts[k] is None:
            first, deg = start[:-1], np.diff(start)
            table = [(child[first], prob[first], None)]
            for j in range(1, int(deg.max(initial=0))):
                e = np.minimum(first + j, child.size - 1)
                table.append((child[e], prob[e], np.flatnonzero(deg <= j)))
            self._fanouts[k] = [tuple(a if a is None else _read_only(a) for a in entry)
                                for entry in table]
        return self._fanouts[k]

    def expect_next(self, k: int, values_next: np.ndarray) -> np.ndarray:
        """Conditional expectation of a slice-(k+1) quantity given each node
        at k; values_next is read as float64, one row per slice-(k+1) node."""
        values_next = np.asarray(values_next, dtype=float)
        col = (-1,) + (1,) * (values_next.ndim - 1)
        (child, prob, _), *rest = self._fanout(k)
        # one pass per fan-out position, summed in edge order; a node without
        # a j-th edge adds an exact 0.0 there. Each product is formed in the
        # gathered rows (v * p is p * v bit for bit)
        out = values_next[child]
        out *= prob.reshape(col)
        for child, prob, absent in rest:
            term = values_next[child]
            term *= prob.reshape(col)
            term[absent] = 0.0
            out += term
        return out

    def occupancy(self) -> list:
        """Forward node probabilities from the root, one read-only array per
        slice; the forward pass runs once."""
        if self._occupancy is None:
            occ = [np.array([1.0])]
            for k in range(self.n_steps):
                _, child, prob = self.edges(k)
                occ.append(np.bincount(child, occ[k][self.parents(k)] * prob,
                                       minlength=self.n_nodes(k + 1)))
            self._occupancy = [_read_only(a) for a in occ]
        return list(self._occupancy)

    def envelope(self, direction: str) -> "Envelope":
        """The Snell envelope in direction "max" or "min", built once."""
        if direction not in self._envelopes:
            env = self._envelopes[direction] = Envelope(self, direction)
            for a in env.values + env.increments:
                _read_only(a)
        return self._envelopes[direction]

    def is_tree(self) -> bool:
        """True when no two edges merge, i.e. every node has a unique parent."""
        return all(np.all(np.bincount(self.edges(k)[1], minlength=self.n_nodes(k + 1)) == 1)
                   for k in range(self.n_steps))

    def validate(self):
        """Check the single root, cashflows, edge layout, probabilities,
        child indices and reachability; the constructor runs it.

        The comparisons are written so that NaN fails them.
        """
        if self.n_nodes(0) != 1:
            raise ValueError("slice 0 holds %d nodes; a lattice has one root" % self.n_nodes(0))
        for k, x in enumerate(self._x):
            bad = np.flatnonzero(~((x >= 0) & (x < np.inf)))
            if bad.size:
                raise ValueError("non-finite or negative cashflow %.17g at slice %d node %d"
                                 % (x[bad[0]], k, bad[0]))
        for k, (start, child, prob) in enumerate(self._edges):
            if not (start.size == self.n_nodes(k) + 1 and start[0] == 0
                    and start[-1] == child.size == prob.size):
                raise ValueError("edge layout of slice %d does not fit its nodes" % k)
            if np.any(start[1:] <= start[:-1]):
                raise ValueError("non-terminal node at slice %d has no children" % k)
            bad = np.flatnonzero(prob < 0)
            if bad.size:
                raise ValueError("negative transition probability at slice %d node %d"
                                 % (k, self.parents(k)[bad[0]]))
            total = np.add.reduceat(prob, start[:-1])
            bad = np.flatnonzero(~(np.abs(total - 1.0) <= PROB_TOL))
            if bad.size:
                raise ValueError("transition probabilities at slice %d node %d sum to %.17g"
                                 % (k, bad[0], total[bad[0]]))
            bad = np.flatnonzero(~((child >= 0) & (child < self.n_nodes(k + 1))))
            if bad.size:
                raise ValueError("child index %d out of range at slice %d" % (child[bad[0]], k))
            incoming = np.bincount(child, minlength=self.n_nodes(k + 1))
            if np.any(incoming == 0):
                raise ValueError("node %d at slice %d is unreachable"
                                 % (int(np.argmin(incoming)), k + 1))


ENVELOPE_TOL = 1e-12


@dataclass(eq=False)
class Envelope:
    """Snell envelope Y of the cashflow on its lattice, with its Doob increments.

    direction "max": smallest supermartingale dominating X, the value of
    sup E[X(sigma)]; "min": largest submartingale below X. One backward pass
    takes e = E[Y[k+1] | node] once per step for Y[k] = extremum(X[k], e) and
    increments[k] = Y[k+1][child] - e[parent] over the edges of edges(k).
    """

    lattice: ScenarioLattice
    direction: str
    values: list = dataclass_field(init=False, repr=False)
    increments: list = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")
        op = np.maximum if self.direction == "max" else np.minimum
        lattice, K = self.lattice, self.lattice.n_steps
        self.values = vals = [None] * K + [lattice.x(K).copy()]
        self.increments = incs = [None] * K
        for k in range(K - 1, -1, -1):
            e = lattice.expect_next(k, vals[k + 1])
            vals[k] = op(lattice.x(k), e)
            incs[k] = vals[k + 1][lattice.edges(k)[1]] - e[lattice.parents(k)]

    def check(self) -> dict:
        """Terminal match, centred increments, dominance and drift, to ENVELOPE_TOL."""
        lattice, vals = self.lattice, self.values
        K = lattice.n_steps
        sup = self.direction == "max"
        worst_dom = 0.0
        worst_mart = 0.0
        if np.any(vals[K] != lattice.x(K)):
            raise InvariantError("terminal envelope does not equal the terminal cashflow")
        scale = max(1.0, max(float(np.abs(v).max()) for v in vals))
        for k in range(K + 1):
            gap = lattice.x(k) - vals[k] if sup else vals[k] - lattice.x(k)
            worst_dom = max(worst_dom, float(gap.max()))
            if k < K:
                start, _, prob = lattice.edges(k)
                mean = np.add.reduceat(prob * self.increments[k], start[:-1])
                bad = np.flatnonzero(~(np.abs(mean) <= ENVELOPE_TOL * scale))
                if bad.size:
                    raise InvariantError("increment mean %.3g at slice %d node %d"
                                         % (mean[bad[0]], k, bad[0]))
                drift = lattice.expect_next(k, vals[k + 1]) - vals[k]
                drift = drift if sup else -drift
                worst_mart = max(worst_mart, float(drift.max()))
        if worst_dom > ENVELOPE_TOL:
            raise InvariantError("envelope fails to dominate the cashflow by %.3g" % worst_dom)
        if worst_mart > ENVELOPE_TOL:
            raise InvariantError("envelope drifts the wrong way by %.3g" % worst_mart)
        return {"dominance": worst_dom, "drift": worst_mart}

    def accumulate(self, ensemble: PathEnsemble) -> np.ndarray:
        """Martingale part along each path of an ensemble of this lattice,
        started at Y[0]."""
        ensemble.check_lattice(self.lattice)
        lattice, y, nodes = self.lattice, self.values, ensemble.nodes
        out = np.zeros((ensemble.n_paths, lattice.n_steps + 1))
        out[:, 0] = y[0][nodes[:, 0]]
        for k in range(lattice.n_steps):
            ey = lattice.expect_next(k, y[k + 1])
            out[:, k + 1] = out[:, k] + (y[k + 1][nodes[:, k + 1]] - ey[nodes[:, k]])
        return out


def build_binary_example(K: int) -> ScenarioLattice:
    """Binary-trial cashflow on [0, 3]: flat at 1, then a jump at t=1.

    A single pre-jump node splits at t=1 into two equally likely branches.
    On the up branch X(t) = 1 + (2 - t) for t >= 1 (so X(1) = 2, decreasing
    to 0 at t = 3); on the down branch X(t) = 1 - (2 - t) (so X(1) = 0,
    increasing to 2 at t = 3). K must be divisible by 6 so that t = 1, 1.5
    and 2.5 land on the grid.
    """
    if K % 6 != 0:
        raise ValueError("K must be divisible by 6, got %d" % K)
    k_jump = K // 3
    t = TimeGrid(3.0, K).times[k_jump:]
    xs = [np.ones(1)] * k_jump + list(np.stack([1.0 + (2.0 - t), 1.0 - (2.0 - t)], axis=1))
    link = (np.array([0, 1]), np.array([0]), np.array([1.0]))
    split = (np.array([0, 2]), np.array([0, 1]), np.array([0.5, 0.5]))
    pair = (np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
    edges = [link] * (k_jump - 1) + [split] + [pair] * (K - k_jump)
    return ScenarioLattice(xs, edges, lce_declared=True)


def build_binomial(kind: str, K: int, T: float, c: float = None, x0: float = None,
                   up: float = None, down: float = None, p_up: float = 0.5,
                   drift: float = None, noise: float = None,
                   lce_declared: bool = True) -> ScenarioLattice:
    """Recombining binomial lattice of one of four drift kinds.

    kind "constant" needs c and yields X identically c on a single-node chain.
    The other kinds ("martingale", "submartingale", "supermartingale") need
    x0 plus either multiplicative parameters (up, down, p_up) giving
    X = x0 * up^i * down^(k-i), or additive parameters (drift, noise) giving
    X = x0 + k*drift + (2i - k)*noise with p = 1/2. The declared kind is
    validated against the actual one-step drift, and any parameterization
    that would produce a negative cashflow is rejected rather than clipped.
    The grid (T, K) is validated as a TimeGrid.
    """
    TimeGrid(T, K)
    if kind == "constant":
        if c is None:
            raise ValueError("constant kind needs c")
        if c < 0:
            raise ValueError("constant cashflow must be nonnegative")
        link = (np.array([0, 1]), np.array([0]), np.array([1.0]))
        return ScenarioLattice([np.full(1, float(c))] * (K + 1), [link] * K, lce_declared)

    if kind not in ("martingale", "submartingale", "supermartingale"):
        raise ValueError("unknown kind %r" % kind)
    if x0 is None:
        raise ValueError("kind %r needs x0" % kind)

    multiplicative = up is not None or down is not None
    additive = drift is not None or noise is not None
    if multiplicative == additive:
        raise ValueError("give either up/down or drift/noise parameters")

    if multiplicative:
        if up is None or down is None:
            raise ValueError("multiplicative parameterization needs both up and down")
        if x0 < 0 or up < 0 or down < 0:
            raise ValueError("negative multiplicative parameters would produce negative cashflows")
        if not 0 <= p_up <= 1:
            raise ValueError("p_up must lie in [0, 1]")
        m = p_up * up + (1.0 - p_up) * down
        # Python ** on scalars: np.power can differ from it in the last bit
        upow = np.array([up ** i for i in range(K + 1)], dtype=float)
        dpow = np.array([down ** i for i in range(K + 1)], dtype=float)
        value = lambda k, i: x0 * upow[i] * dpow[k - i]
        p = p_up
    else:
        if drift is None or noise is None:
            raise ValueError("additive parameterization needs both drift and noise")
        value = lambda k, i: x0 + k * drift + (2 * i - k) * noise
        p = 0.5
    # the declared kind against the one-step factor m or the additive drift
    c, v, tol, what = ((1.0, m, PROB_TOL, "one-step factor") if multiplicative
                       else (0.0, drift, 0.0, "additive drift"))
    if not {"martingale": abs(v - c) <= tol, "submartingale": v > c + tol,
            "supermartingale": v < c - tol}[kind]:
        raise ValueError("declared %s but %s is %.17g" % (kind, what, v))

    xs = []
    for k in range(K + 1):
        xs.append(value(k, np.arange(k + 1)))
        bad = np.flatnonzero(xs[k] < 0)
        if bad.size:
            raise ValueError("parameters clip: cashflow %.17g at slice %d node %d"
                             % (xs[k][bad[0]], k, bad[0]))
    edges = [(np.arange(0, 2 * k + 3, 2), (np.arange(2 * k + 2) + 1) // 2,
              np.tile([1.0 - p, p], k + 1)) for k in range(K)]
    return ScenarioLattice(xs, edges, lce_declared)


@dataclass(eq=False)
class PathEnsemble:
    """A set of paths through lattice with probability weights.

    nodes has shape (n_paths, K+1) and holds node indices per time index.
    exhaustive marks ensembles that enumerate every path with its exact
    probability.
    """

    lattice: ScenarioLattice
    nodes: np.ndarray
    weights: np.ndarray
    exhaustive: bool = False

    @property
    def n_paths(self) -> int:
        return self.nodes.shape[0]

    def check_lattice(self, lattice: ScenarioLattice):
        """Raise ValueError unless the paths run through this very lattice."""
        if self.lattice is not lattice:
            raise ValueError("the path ensemble was drawn from another lattice")

    def validate(self):
        if abs(self.weights.sum() - 1.0) > PROB_TOL * max(1, self.n_paths):
            raise ValueError("path weights sum to %.17g" % self.weights.sum())
        lattice = self.lattice
        K = lattice.n_steps
        if self.nodes.shape[1] != K + 1:
            raise ValueError("path length does not match the lattice")
        for k in range(K):
            n, c, n_next = self.nodes[:, k], self.nodes[:, k + 1], lattice.n_nodes(k + 1)
            edge_keys = lattice.parents(k) * n_next + lattice.edges(k)[1]
            bad = np.flatnonzero(~((0 <= c) & (c < n_next) & np.isin(n * n_next + c, edge_keys)))
            if bad.size:
                raise ValueError("invalid transition on path %d at step %d" % (bad[0], k))
        return self


def count_paths(lattice: ScenarioLattice) -> int:
    """Number of distinct root-to-terminal node sequences."""
    counts = np.ones(1, dtype=object)
    for k in range(lattice.n_steps):
        nxt = np.zeros(lattice.n_nodes(k + 1), dtype=object)
        np.add.at(nxt, lattice.edges(k)[1], counts[lattice.parents(k)])
        counts = nxt
    return int(counts.sum())


def enumerate_paths(lattice: ScenarioLattice) -> PathEnsemble:
    """Exhaustive path ensemble with exact probability weights.

    Paths come in lexicographic order of their edge choices; each weight is
    the product of its edge probabilities, left to right. Lattices with more
    than MAX_PATHS paths are refused before enumerating.
    """
    total = count_paths(lattice)
    if total > MAX_PATHS:
        raise ValueError("path count %d exceeds the bound %d" % (total, MAX_PATHS))
    nodes, weights = np.zeros((1, 1), dtype=np.int64), np.ones(1)
    for k in range(lattice.n_steps):
        child, prob = lattice.edges(k)[1:]
        owner, edge = lattice.out_edges(k, nodes[:, k])
        nodes = np.column_stack([nodes[owner], child[edge]])
        weights = weights[owner] * prob[edge]
    return PathEnsemble(lattice, nodes, weights, exhaustive=True)


def sample_paths(lattice: ScenarioLattice, n_paths: int, seed: int = 0) -> PathEnsemble:
    """Sampled path ensemble with uniform weights.

    Sampling is deterministic given the seed: one uniform per path and
    step, path-major; each step picks the first edge whose normalized
    cumulative probability exceeds the uniform, the rule of
    numpy's Generator.choice.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    K = lattice.n_steps
    nodes = np.zeros((n_paths, K + 1), dtype=np.int64)
    u = rng.random((n_paths, K))
    for k in range(K):
        start, child, prob = lattice.edges(k)
        first = start[nodes[:, k]]
        deg = start[nodes[:, k] + 1] - first
        # probabilities per fan-out position, zero-padded; summed left to right
        p = [np.where(j < deg, prob[np.minimum(first + j, prob.size - 1)], 0.0)
             for j in range(int(deg.max()))]
        cdf = np.cumsum(np.array(p) / sum(p), axis=0)
        cdf /= cdf[-1]
        nodes[:, k + 1] = child[first + (cdf[:-1] <= u[:, k]).sum(axis=0)]
    weights = np.full(n_paths, 1.0 / n_paths)
    return PathEnsemble(lattice, nodes, weights, exhaustive=False)


def _strings(a, spec: str = "%.17g", memo: dict = None) -> np.ndarray:
    """spec % v for every element of a float64 or int64 array, as an object
    array of the same shape.

    Each distinct bit pattern is formatted once and gathered back, so the
    text equals per-element formatting: -0.0 and 0.0 stay apart and every
    NaN prints as nan. memo, a dict from bit pattern to text kept by the
    caller for one spec, carries the formatted patterns across calls, so
    only patterns it has not seen are formatted.
    """
    a = np.ascontiguousarray(a)
    bits, inv = np.unique(a.view(np.int64), return_inverse=True)
    memo = {} if memo is None else memo
    keys = bits.tolist()
    new = [b for b in keys if b not in memo]
    if new:
        memo.update(zip(new, _format(spec, np.array(new, dtype=np.int64).view(a.dtype).tolist())))
    return np.array(list(map(memo.__getitem__, keys)), dtype=object)[inv.reshape(a.shape)]


def _format(spec: str, values: list) -> list:
    """[spec % v for v in values], in one %-operation; the batch is split on
    NUL, which no %-conversion of a number produces."""
    return ((spec + "\0") * len(values) % tuple(values)).split("\0")[:-1]


def _write_table(fh, *columns):
    """Write the broadcast string columns row by row. Each column's strings
    carry their own separator: the first column's start with the newline that
    ends the previous line, the others' with a space."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    table = np.empty(shape + (len(columns),), dtype=object)
    for i, col in enumerate(columns):
        table[..., i] = col
    fh.write("".join(table.ravel().tolist()))


def write_lattice(path: str, lattice: ScenarioLattice, time_grid: TimeGrid, L: float):
    """Plain-text lattice export, one node per line.

    Header: `T K L lce 2`; the fifth field is kept for file compatibility and
    ignored on reading. Node lines: `k node X child:prob ...`. All floats use
    17 significant digits so a write/read/write round trip is byte-identical.
    """
    K = lattice.n_steps
    sizes = np.array([lattice.n_nodes(k) for k in range(K + 1)])
    k_of = np.repeat(np.arange(K + 1), sizes)
    node = np.arange(k_of.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    edges = [lattice.edges(k) for k in range(K)]
    deg = np.concatenate([np.diff(start) for start, _, _ in edges] + [np.zeros(sizes[K], int)])
    # per node line "\nk", " node", " X", then " child", ":prob" per edge
    pieces = np.empty(3 * k_of.size + 2 * deg.sum(), dtype=object)
    at = np.cumsum(3 + 2 * deg) - 3 - 2 * deg
    pieces[at] = _strings(np.arange(K + 1), "\n%d")[k_of]
    pieces[at + 1] = _strings(np.arange(sizes.max()), " %d")[node]
    pieces[at + 2] = _strings(np.concatenate([lattice.x(k) for k in range(K + 1)]), " %.17g")
    on_edge = np.ones(pieces.size, dtype=bool)
    on_edge[at] = on_edge[at + 1] = on_edge[at + 2] = False
    slot = np.flatnonzero(on_edge)
    pieces[slot[0::2]] = _strings(np.concatenate([e[1] for e in edges]), " %d")
    pieces[slot[1::2]] = _strings(np.concatenate([e[2] for e in edges]), ":%.17g")
    with open(path, "w") as fh:
        fh.write("%.17g %d %.17g %d 2" % (time_grid.T, time_grid.K, L, int(lattice.lce_declared)))
        fh.write("".join(pieces.tolist()) + "\n")


def _distinct(tokens):
    """(the distinct tokens in first-occurrence order, the int64 index of
    each token into them); the reading mirror of `_strings`."""
    first_seen = {}
    first = np.fromiter(map(first_seen.setdefault, tokens, count()), np.int64)
    return list(first_seen), (np.cumsum(first == np.arange(first.size)) - 1)[first]


def read_lattice(path: str):
    """Read a lattice export; returns (lattice, time_grid, L). Node lines may
    come in any order. The error of the first bad node line in file order is
    raised (_read_body); the layout checks then run on the whole arrays, and
    the constructor's validate last."""
    with open(path) as fh:
        lines = filter(None, map(str.split, fh))
        head = next(lines, [])
        if len(head) != 5:
            raise ValueError("malformed lattice header")
        tg, L, lce = TimeGrid(float(head[0]), int(head[1])), float(head[2]), int(head[3])
        if lce not in (0, 1):
            raise ValueError("lattice header field lce = %d is not 0 or 1" % lce)
        k, n, deg, x, child, prob = _read_body(lines)
    K = tg.K
    bad = np.flatnonzero((k < 0) | (k > K))
    if bad.size:
        raise ValueError("slice index %d outside 0..%d" % (k[bad[0]], K))
    # checked before any array is sized by K; a plain np.unique imports numpy.ma
    present = np.unique(k, return_index=True)[0]
    missing = np.append(np.flatnonzero(present != np.arange(present.size)), present.size)[0]
    if missing <= K:
        raise ValueError("missing slice %d in lattice file" % missing)
    order = np.lexsort((n, k))
    first = np.cumsum(deg) - deg    # each line's first edge, in file order
    k, n, deg, x = k[order], n[order], deg[order], x[order]
    bad = np.flatnonzero((k[1:] == k[:-1]) & (n[1:] == n[:-1]))
    if bad.size:
        raise ValueError("duplicate node %d at slice %d" % (n[bad[0]], k[bad[0]]))
    off = np.concatenate([[0], np.cumsum(np.bincount(k, minlength=K + 1))])
    bad = np.flatnonzero(n != np.arange(n.size) - off[k])
    if bad.size:
        kb = k[bad[0]]
        raise ValueError("node numbering at slice %d is not 0..%d" % (kb, np.diff(off)[kb] - 1))
    bad = np.flatnonzero(deg[off[K]:])
    if bad.size:
        raise ValueError("terminal node %d has children" % bad[0])
    start = np.concatenate([[0], np.cumsum(deg)])
    at = np.repeat(first[order] - start[:-1], deg) + np.arange(start[-1])
    child, prob = child[at], prob[at]
    lo, hi = off.tolist(), start[off].tolist()
    edges = [(start[lo[j]:lo[j + 1] + 1] - hi[j], child[hi[j]:hi[j + 1]], prob[hi[j]:hi[j + 1]])
             for j in range(K)]
    return ScenarioLattice(np.split(x, off[1:-1]), edges, lce_declared=bool(lce)), tg, L


def _read_body(lines) -> list:
    """The columns (k, node, degree, X, child, prob) of the split node lines
    in file order, _CHUNK lines at a time, each distinct token of a column
    converted once. If a chunk fails to convert, _check_line walks its lines
    in order and raises the first bad one's error."""
    cols = [tuple(np.zeros(0, dt) for dt in (np.int64,) * 3 + (float, np.int64, float))]
    for chunk in iter(lambda: list(islice(lines, _CHUNK)), []):
        try:
            cols.append(_chunk_columns(chunk))
        except (IndexError, ValueError, OverflowError):
            for words in chunk:
                _check_line(words)
            raise
    return [np.concatenate(col) for col in zip(*cols)]


def _chunk_columns(chunk: list) -> tuple:
    """(k, node, degree, X, child, prob) of a chunk of node lines. A bad line
    raises IndexError (a short line), ValueError or OverflowError, whose
    message is not the one to report."""
    k, n, x = (_column(fn, *_distinct(map(itemgetter(j), chunk)))
               for j, fn in enumerate((int, int, float)))
    deg = np.fromiter(map(len, chunk), np.int64, len(chunk)) - 3
    tokens, edge = _distinct(chain.from_iterable(map(itemgetter(slice(3, None)), chunk)))
    fields = " ".join(tokens).replace(":", " ").split()
    colons = np.fromiter(map(str.count, tokens, repeat(":")), np.int64, len(tokens))
    if len(fields) != 2 * len(tokens) or np.any(colons != 1):
        raise ValueError("edge token is not child:prob")
    return k, n, deg, x, _column(int, fields[0::2], edge), _column(float, fields[1::2], edge)


def _column(fn, tokens: list, at: np.ndarray) -> np.ndarray:
    """fn (int or float) of each distinct token, gathered back by at; an int
    beyond int64 raises OverflowError."""
    return np.array(list(map(fn, tokens)), np.int64 if fn is int else float)[at]


def _check_line(words: list):
    """Raise the error of a bad node line: a short line, else its first
    token, left to right (k, node, X, then per edge token its format, child
    and prob), that does not convert."""
    if len(words) < 3:
        raise ValueError("malformed node line %r" % " ".join(words))
    _int64(words[0]), _int64(words[1]), float(words[2])
    for token in words[3:]:
        child, _, prob = token.partition(":")
        if token.count(":") != 1 or not child or not prob:
            raise ValueError("edge token %r is not child:prob" % token)
        _int64(child), float(prob)


def _int64(token: str):
    v = int(token)
    if not -2 ** 63 <= v < 2 ** 63:
        raise ValueError("integer %d is out of range" % v)
