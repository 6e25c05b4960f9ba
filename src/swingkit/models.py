"""Scenario lattices for the cashflow process, path ensembles, and lattice I/O.

A lattice has one time slice per grid time; each slice holds nodes carrying
a nonnegative cashflow value and one-step transition probabilities into the
next slice. The cashflow is treated as constant on [t_k, t_{k+1}), so integrals
of piecewise-constant exercise rates against it are exact sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_K = T."""

    T: float
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")

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


@dataclass(frozen=True)
class LatticeNode:
    """Constructor input for one node: cashflow value plus transitions into
    the next slice.

    Terminal nodes carry empty children/probs tuples.
    """

    x: float
    children: tuple = ()
    probs: tuple = ()


class ScenarioLattice:
    """Finite scenario lattice for the cashflow process.

    Built from one list of LatticeNode records per time slice and stored as
    arrays: x(k) holds the cashflows of slice k and, for k < K, edges(k) =
    (start, child, prob) holds the one-step transitions grouped by parent
    (node n owns edges start[n]:start[n+1], which lead to node child[e] of
    slice k+1 with probability prob[e]). lce_declared is a model attribute
    (left-continuity in expectation of the continuous-time limit cannot be
    decided from finitely many grid values). The arrays must not be mutated.
    """

    def __init__(self, rows, lce_declared: bool = True):
        rows = [list(row) for row in rows]
        if len(rows) < 2:
            raise ValueError("lattice needs at least two time slices")
        self.lce_declared = lce_declared
        self._x = [np.array([node.x for node in row], dtype=float) for row in rows]
        for k, row in enumerate(rows):
            for n, node in enumerate(row):
                if len(node.children) != len(node.probs):
                    raise ValueError("children/probs length mismatch at slice %d node %d" % (k, n))
                if k == len(rows) - 1 and node.children:
                    raise ValueError("terminal node %d has children" % n)
        self._edges = []
        for row in rows[:-1]:
            start = np.zeros(len(row) + 1, dtype=np.int64)
            np.cumsum([len(node.children) for node in row], out=start[1:])
            child = np.array([c for node in row for c in node.children], dtype=np.int64)
            prob = np.array([p for node in row for p in node.probs], dtype=float)
            self._edges.append((start, child, prob))

    @property
    def n_steps(self) -> int:
        return len(self._x) - 1

    def n_nodes(self, k: int) -> int:
        return self._x[k].size

    def x(self, k: int) -> np.ndarray:
        """Cashflow values at slice k as a vector."""
        return self._x[k]

    def max_x(self) -> float:
        return max(float(v.max()) for v in self._x)

    def edges(self, k: int):
        """(start, child, prob) of the transitions from slice k to k+1."""
        if not 0 <= k < self.n_steps:
            raise ValueError("no transitions out of slice %d" % k)
        return self._edges[k]

    def parents(self, k: int) -> np.ndarray:
        """Parent node of each edge of edges(k)."""
        start = self.edges(k)[0]
        return np.repeat(np.arange(start.size - 1), np.diff(start))

    def expect_next(self, k: int, values_next: np.ndarray) -> np.ndarray:
        """Conditional expectation of a slice-(k+1) quantity given each node at k."""
        start, child, prob = self.edges(k)
        first, deg = start[:-1], np.diff(start)
        col = (-1,) + (1,) * (np.ndim(values_next) - 1)
        # one pass per fan-out position (j-th edge of every node); much faster
        # than np.add.reduceat along axis 0 and summed in the same edge order
        out = prob[first].reshape(col) * values_next[child[first]]
        for j in range(1, int(deg.max(initial=0))):
            e = np.minimum(first + j, child.size - 1)
            out += np.where((deg > j).reshape(col),
                            prob[e].reshape(col) * values_next[child[e]], 0.0)
        return out

    def occupancy(self) -> list:
        """Forward node probabilities from the single root."""
        if self.n_nodes(0) != 1:
            raise ValueError("occupancy needs a single root node")
        occ = [np.array([1.0])]
        for k in range(self.n_steps):
            _, child, prob = self.edges(k)
            occ.append(np.bincount(child, occ[k][self.parents(k)] * prob,
                                   minlength=self.n_nodes(k + 1)))
        return occ

    def is_tree(self) -> bool:
        """True when no two edges merge, i.e. every node has a unique parent."""
        return all(np.all(np.bincount(self.edges(k)[1], minlength=self.n_nodes(k + 1)) == 1)
                   for k in range(self.n_steps))

    def validate(self):
        """Check cashflows, probabilities, child indices and reachability.

        The comparisons are written so that NaN fails them.
        """
        for k, x in enumerate(self._x):
            bad = np.flatnonzero(~((x >= 0) & (x < np.inf)))
            if bad.size:
                raise ValueError("non-finite or negative cashflow %.17g at slice %d node %d"
                                 % (x[bad[0]], k, bad[0]))
        for k, (start, child, prob) in enumerate(self._edges):
            if np.any(start[1:] == start[:-1]):
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
        return self


def backward_extremum(lattice: ScenarioLattice, direction: str) -> list:
    """Backward recursion W_k = extremum(X_k, E[W_{k+1} | node]).

    direction "max" gives the smallest supermartingale dominating X (the
    optimal stopping value of sup E[X(sigma)]); "min" gives the inf version.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    op = np.maximum if direction == "max" else np.minimum
    K = lattice.n_steps
    w = [None] * (K + 1)
    w[K] = lattice.x(K).copy()
    for k in range(K - 1, -1, -1):
        w[k] = op(lattice.x(k), lattice.expect_next(k, w[k + 1]))
    return w


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
    T = 3.0
    k_jump = K // 3
    times = TimeGrid(T, K).times
    rows = []
    for k in range(K + 1):
        t = times[k]
        if k < k_jump:
            if k == k_jump - 1:
                rows.append([LatticeNode(1.0, (0, 1), (0.5, 0.5))])
            else:
                rows.append([LatticeNode(1.0, (0,), (1.0,))])
        else:
            hi = 1.0 + (2.0 - t)
            lo = 1.0 - (2.0 - t)
            if k == K:
                rows.append([LatticeNode(hi), LatticeNode(lo)])
            else:
                rows.append([LatticeNode(hi, (0,), (1.0,)), LatticeNode(lo, (1,), (1.0,))])
    return ScenarioLattice(rows, lce_declared=True).validate()


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
    """
    if kind == "constant":
        if c is None:
            raise ValueError("constant kind needs c")
        if c < 0:
            raise ValueError("constant cashflow must be nonnegative")
        rows = [[LatticeNode(float(c), (0,), (1.0,))] for _ in range(K)]
        rows.append([LatticeNode(float(c))])
        return ScenarioLattice(rows, lce_declared).validate()

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
        value = lambda k, i: x0 * up ** i * down ** (k - i)
        p = p_up
    else:
        if drift is None or noise is None:
            raise ValueError("additive parameterization needs both drift and noise")
        m = None
        value = lambda k, i: x0 + k * drift + (2 * i - k) * noise
        p = 0.5

    if multiplicative:
        if kind == "martingale" and abs(m - 1.0) > PROB_TOL:
            raise ValueError("declared martingale but one-step factor is %.17g" % m)
        if kind == "submartingale" and not m > 1.0 + PROB_TOL:
            raise ValueError("declared submartingale but one-step factor is %.17g" % m)
        if kind == "supermartingale" and not m < 1.0 - PROB_TOL:
            raise ValueError("declared supermartingale but one-step factor is %.17g" % m)
    else:
        if kind == "martingale" and drift != 0.0:
            raise ValueError("declared martingale but additive drift is %.17g" % drift)
        if kind == "submartingale" and not drift > 0.0:
            raise ValueError("declared submartingale but additive drift is %.17g" % drift)
        if kind == "supermartingale" and not drift < 0.0:
            raise ValueError("declared supermartingale but additive drift is %.17g" % drift)

    rows = []
    for k in range(K + 1):
        row = []
        for i in range(k + 1):
            v = value(k, i)
            if v < 0:
                raise ValueError(
                    "parameters clip: cashflow %.17g at slice %d node %d" % (v, k, i)
                )
            if k == K:
                row.append(LatticeNode(float(v)))
            else:
                row.append(LatticeNode(float(v), (i, i + 1), (1.0 - p, p)))
        rows.append(row)
    return ScenarioLattice(rows, lce_declared).validate()


@dataclass(eq=False)
class PathEnsemble:
    """A set of lattice paths with probability weights.

    nodes has shape (n_paths, K+1) and holds node indices per time index.
    exhaustive marks ensembles that enumerate every path with its exact
    probability.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exhaustive: bool = False

    @property
    def n_paths(self) -> int:
        return self.nodes.shape[0]

    def validate(self, lattice: ScenarioLattice):
        if abs(self.weights.sum() - 1.0) > PROB_TOL * max(1, self.n_paths):
            raise ValueError("path weights sum to %.17g" % self.weights.sum())
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

    def expectation_of_x(self, lattice: ScenarioLattice, k: int) -> float:
        return float(self.weights @ lattice.x(k)[self.nodes[:, k]])


def count_paths(lattice: ScenarioLattice) -> int:
    """Number of distinct root-to-terminal node sequences."""
    counts = np.ones(lattice.n_nodes(0), dtype=object)
    for k in range(lattice.n_steps):
        nxt = np.zeros(lattice.n_nodes(k + 1), dtype=object)
        np.add.at(nxt, lattice.edges(k)[1], counts[lattice.parents(k)])
        counts = nxt
    return int(counts.sum())


def enumerate_paths(lattice: ScenarioLattice, max_paths: int = 65536) -> PathEnsemble:
    """Exhaustive path ensemble with exact probability weights.

    Paths come in lexicographic order of their edge choices; each weight is
    the product of its start weight and edge probabilities, left to right.
    """
    total = count_paths(lattice)
    if total > max_paths:
        raise ValueError("path count %d exceeds the bound %d" % (total, max_paths))
    n0 = lattice.n_nodes(0)
    nodes = np.arange(n0)[:, None]
    weights = np.full(n0, 1.0 / n0)
    for k in range(lattice.n_steps):
        start, child, prob = lattice.edges(k)
        first = start[nodes[:, k]]
        deg = start[nodes[:, k] + 1] - first
        owner = np.repeat(np.arange(deg.size), deg)
        edge = np.arange(owner.size) + (first + deg - np.cumsum(deg))[owner]
        nodes = np.column_stack([nodes[owner], child[edge]])
        weights = weights[owner] * prob[edge]
    return PathEnsemble(nodes, weights, exhaustive=True)


def sample_paths(lattice: ScenarioLattice, n_paths: int = 0, seed: int = 0,
                 exhaustive: bool = False, max_paths: int = 65536) -> PathEnsemble:
    """Sampled (uniform-weight) or exhaustive path ensemble.

    Sampling is deterministic given the seed. Start nodes are drawn first
    (only when slice 0 has several nodes), then one uniform per path and
    step, path-major; each step picks the first edge whose normalized
    cumulative probability exceeds the uniform, the rule of
    numpy's Generator.choice. Exhaustive mode enumerates all paths with exact
    probabilities and rejects lattices whose path count exceeds max_paths.
    """
    if exhaustive:
        return enumerate_paths(lattice, max_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    rng = np.random.default_rng(seed)
    K = lattice.n_steps
    nodes = np.zeros((n_paths, K + 1), dtype=np.int64)
    if lattice.n_nodes(0) > 1:
        nodes[:, 0] = rng.integers(lattice.n_nodes(0), size=n_paths)
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
    return PathEnsemble(nodes, weights, exhaustive=False)


def write_lattice(path: str, lattice: ScenarioLattice, time_grid: TimeGrid, L: float):
    """Plain-text lattice export, one node per line.

    Header: `T K L lce 2`; the fifth field is kept for file compatibility and
    ignored on reading. Node lines: `k node X child:prob ...`. All floats use
    17 significant digits so a write/read/write round trip is byte-identical.
    """
    K = lattice.n_steps
    lines = ["%.17g %d %.17g %d 2" % (time_grid.T, time_grid.K, L, int(lattice.lce_declared))]
    for k in range(K + 1):
        if k < K:
            start, child, prob = lattice.edges(k)
            tokens = ["%d:%.17g" % cp for cp in zip(child.tolist(), prob.tolist())]
            bounds = start.tolist()
        else:
            tokens, bounds = [], [0] * (lattice.n_nodes(k) + 1)
        for n, x in enumerate(lattice.x(k).tolist()):
            lines.append(" ".join(["%d %d %.17g" % (k, n, x)] + tokens[bounds[n]:bounds[n + 1]]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lattice(path: str):
    """Read a lattice export; returns (lattice, time_grid, L)."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines or len(lines[0]) != 5:
        raise ValueError("malformed lattice header")
    head = lines[0]
    T, K, L = float(head[0]), int(head[1]), float(head[2])
    lce = bool(int(head[3]))
    raw = {}
    for parts in lines[1:]:
        if len(parts) < 3:
            raise ValueError("malformed node line %r" % " ".join(parts))
        k, n, x = int(parts[0]), int(parts[1]), float(parts[2])
        if not 0 <= k <= K:
            raise ValueError("slice index %d outside 0..%d" % (k, K))
        row = raw.setdefault(k, {})
        if n in row:
            raise ValueError("duplicate node %d at slice %d" % (n, k))
        children = []
        probs = []
        for tok in parts[3:]:
            cs, ps = tok.split(":")
            children.append(int(cs))
            probs.append(float(ps))
        row[n] = LatticeNode(x, tuple(children), tuple(probs))
    rows = []
    for k in range(K + 1):
        if k not in raw:
            raise ValueError("missing slice %d in lattice file" % k)
        row = raw[k]
        if min(row) != 0 or max(row) != len(row) - 1:
            raise ValueError("node numbering at slice %d is not 0..%d" % (k, len(row) - 1))
        rows.append([row[n] for n in range(len(row))])
    lat = ScenarioLattice(rows, lce_declared=lce).validate()
    return lat, TimeGrid(T, K), L
