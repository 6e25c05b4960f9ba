import numpy as np
import pytest
from hypothesis import strategies as st

from swingkit import (DualReport, Envelope, InvariantError, LatticeNode, MartingaleField,
                      OptimalMartingaleResult, ScenarioLattice, TimeGrid, VolumeGrid,
                      build_binary_example, build_binomial, enumerate_paths, extract_policy)
from swingkit.solver import EXACT_TOL, Slice


def exp_sigma_params(K, T=2.0, sigma=0.15):
    dt = T / K
    up = float(np.exp(sigma * np.sqrt(dt)))
    down = float(np.exp(-sigma * np.sqrt(dt)))
    p_up = (1.0 - down) / (up - down)
    return up, down, p_up


def make_exp_martingale(K, T=2.0, x0=1.0):
    """Recombining martingale lattice with volatility scaled to the step."""
    up, down, p_up = exp_sigma_params(K, T)
    return build_binomial("martingale", K, T, x0=x0, up=up, down=down, p_up=p_up)


def exp_martingale_keys(K, T=2.0):
    """Config lines of the binomial that make_exp_martingale(K, T) builds."""
    up, down, p_up = exp_sigma_params(K, T)
    return "model=binomial\nkind=martingale\nK=%d\nT=%r\nx0=1\nup=%r\ndown=%r\np_up=%r\n" % (
        K, T, up, down, p_up)


def with_policy(make):
    """Gap-study policy maker: the default-tolerance policy of the solved
    field of make(K) = (lattice, tg, vg)."""
    def make_policy(K):
        return extract_policy(*make(K))
    return make_policy


def solved(lattice, T, L=1.0):
    tg = TimeGrid(T, lattice.n_steps)
    vg = VolumeGrid.aligned(L, tg)
    policy = extract_policy(lattice, tg, vg)
    return tg, vg, policy.field, policy


def feed(field, scan):
    """scan.result() after feeding scan(field, Slice) the stored slices of
    field, K down to 0, shaped as solve's sweep makes them: J from
    scan_start(k), and ej = E[J_{k+1}] taken by expect_next from the next
    row. Test harness for fields that no sweep made, such as dented ones."""
    vg, nxt = field.volume_grid, None
    for k in range(field.time_grid.K, -1, -1):
        J = np.ascontiguousarray(field.row(k)[:, vg.scan_start(k):])
        ej = None if nxt is None else field.lattice.expect_next(k, nxt)
        scan(field, Slice(k, field.tail[k], field.band[k], J, ej))
        nxt = J
    return scan.result()


def reference_solve(lattice, tg, vg):
    """The full-grid backward induction that band storage replaced: yields
    (k, J_k) over every (node, level) for k = K down to 0, keeping only the
    slice it has just built."""
    K = tg.K
    J = np.zeros((lattice.n_nodes(K), vg.n_levels))
    yield K, J
    for k in range(K - 1, -1, -1):
        ej = lattice.expect_next(k, J)
        ex = np.empty_like(ej)
        ex[:, :-1] = vg.step * lattice.x(k)[:, None] + ej[:, 1:]
        ex[:, -1] = -np.inf
        J = np.maximum(ej, ex)
        yield k, J


def reference_expect_next(lattice, k, values_next):
    """expect_next as it was before the per-step fan-out tables: first, deg,
    the clamped edge index and the deg > j mask rebuilt from the edge arrays
    on every call."""
    start, child, prob = lattice.edges(k)
    first, deg = start[:-1], np.diff(start)
    col = (-1,) + (1,) * (np.ndim(values_next) - 1)
    out = prob[first].reshape(col) * values_next[child[first]]
    for j in range(1, int(deg.max(initial=0))):
        e = np.minimum(first + j, child.size - 1)
        out += np.where((deg > j).reshape(col),
                        prob[e].reshape(col) * values_next[child[e]], 0.0)
    return out


def reference_parents(lattice, k):
    """parents as it was before the cached table."""
    start = lattice.edges(k)[0]
    return np.repeat(np.arange(start.size - 1), np.diff(start))


def reference_occupancy(lattice):
    """occupancy as it was before the cached forward pass."""
    occ = [np.array([1.0])]
    for k in range(lattice.n_steps):
        _, child, prob = lattice.edges(k)
        occ.append(np.bincount(child, occ[k][reference_parents(lattice, k)] * prob,
                               minlength=lattice.n_nodes(k + 1)))
    return occ


def _reference_ints(tokens) -> list:
    """int() of each token in turn; a value outside the int64 range is
    refused, -2**63 included in the range."""
    values = []
    for token in tokens:
        values.append(int(token))
        if not -2 ** 63 <= values[-1] < 2 ** 63:
            raise ValueError("integer %d is out of range" % values[-1])
    return values


def reference_read_lattice(path: str):
    """read_lattice read whole and line by line: each node line in file order
    is short, or converts k, node, X, then per edge token its format, child
    and prob, and the first failure is the error; the layout checks then run
    on the converted file. Its header still reads lce as bool(int(.)), which
    accepts any integer."""
    with open(path) as fh:
        lines = [words for words in map(str.split, fh) if words]
    if not lines or len(lines[0]) != 5:
        raise ValueError("malformed lattice header")
    head, body = lines[0], lines[1:]
    tg, L, lce = TimeGrid(float(head[0]), int(head[1])), float(head[2]), bool(int(head[3]))
    K = tg.K
    rows = []
    for words in body:
        if len(words) < 3:
            raise ValueError("malformed node line %r" % " ".join(words))
        kn, x, pairs = _reference_ints(words[:2]), float(words[2]), []
        for token in words[3:]:
            parts = token.split(":")
            if len(parts) != 2 or "" in parts:
                raise ValueError("edge token %r is not child:prob" % token)
            pairs.append((_reference_ints(parts[:1])[0], float(parts[1])))
        rows.append((kn, x, pairs))
    k = np.array([kn[0] for kn, _, _ in rows], dtype=np.int64)
    n = np.array([kn[1] for kn, _, _ in rows], dtype=np.int64)
    deg = np.array([len(pairs) for _, _, pairs in rows], dtype=np.int64)
    bad = np.flatnonzero((k < 0) | (k > K))
    if bad.size:
        raise ValueError("slice index %d outside 0..%d" % (k[bad[0]], K))
    present = np.unique(k)          # checked before any array is sized by K
    missing = np.append(np.flatnonzero(present != np.arange(present.size)), present.size)[0]
    if missing <= K:
        raise ValueError("missing slice %d in lattice file" % missing)
    order = np.lexsort((n, k))
    k, n, deg, rows = k[order], n[order], deg[order], [rows[i] for i in order.tolist()]
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
    x = np.array([x for _, x, _ in rows], dtype=float)
    pairs = [pair for _, _, row_pairs in rows for pair in row_pairs]
    child = np.array([c for c, _ in pairs], dtype=np.int64)
    prob = np.array([p for _, p in pairs], dtype=float)
    start = np.concatenate([[0], np.cumsum(deg)])
    lo, hi = off.tolist(), start[off].tolist()
    edges = [(start[lo[j]:lo[j + 1] + 1] - hi[j], child[hi[j]:hi[j + 1]], prob[hi[j]:hi[j + 1]])
             for j in range(K)]
    lat = ScenarioLattice(np.split(x, off[1:-1]), edges, lce_declared=lce)
    return lat, tg, L


def reference_check_value_invariants(field):
    """The InvariantScan of a stored field as it was before the second
    difference was taken from the first and the rows were cut to the band."""
    vg = field.volume_grid
    step = vg.step
    K = field.time_grid.K
    z = Envelope(field.lattice, "max").values
    report = {"monotone": 0.0, "concavity": 0.0, "lipschitz": 0.0, "terminal": 0.0}
    term = float(np.abs(field.row(K)).max())
    report["terminal"] = term
    if term != 0.0:
        raise InvariantError("terminal values are not identically zero")
    for k in range(K + 1):
        vals = field.row(k)
        d1 = np.diff(vals, axis=1)
        worst = float(d1.max())
        report["monotone"] = max(report["monotone"], worst)
        if worst > EXACT_TOL:
            raise InvariantError("J increases in y by %.3g at slice %d" % (worst, k))
        if vals.shape[1] >= 3:
            d2 = np.diff(vals, n=2, axis=1)
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


def reference_bellman_residual(field, form="implicit"):
    """The ResidualScan of a stored field as it was before each slice was
    built once: J_k and J_{k+1} rebuilt per use, and the finite residuals
    copied out before the reduction. Returns (form, max_abs)."""
    lattice = field.lattice
    vg = field.volume_grid
    step = vg.step
    K = field.time_grid.K
    max_abs = 0.0
    for k in range(K):
        vals = field.row(k)
        x = lattice.x(k)
        dm = field.dminus(k)
        if form == "implicit":
            ej = reference_expect_next(lattice, k, field.row(k + 1))
            r = vals - (step * np.maximum(x[:, None] + dm, 0.0) + ej)
        else:
            start, child, prob = lattice.edges(k)
            dm_next = field.dminus(k + 1)[child]
            inner = (step * np.maximum(x[reference_parents(lattice, k), None] + dm_next, 0.0)
                     + field.row(k + 1)[child])
            r = vals - np.add.reduceat(prob[:, None] * inner, start[:-1])
        b = vg.boundary_pos(k)
        if 0 <= b < vg.n_levels:
            r[:, b] = np.nan
        r[np.isnan(dm)] = np.nan
        finite = r[np.isfinite(r)]
        if finite.size:
            max_abs = max(max_abs, float(np.abs(finite).max()))
    return form, max_abs


def reference_boundary_check(field, tol=EXACT_TOL):
    """boundary_check as it was before it read the stored tail: every full
    slice compared with the recomputed tail at each level at or below the
    boundary. Returns (max_deep, violations)."""
    lattice = field.lattice
    vg = field.volume_grid
    K = field.time_grid.K
    tail = [None] * (K + 1)
    tail[K] = np.zeros(lattice.n_nodes(K))
    for k in range(K - 1, -1, -1):
        tail[k] = vg.step * lattice.x(k) + lattice.expect_next(k, tail[k + 1])
    max_deep = 0.0
    violations = []
    for k in range(K + 1):
        vals = field.row(k)
        hi = min(vg.boundary_pos(k), vg.n_levels - 1)
        if hi >= 0:
            err = float(np.abs(vals[:, :hi + 1] - tail[k][:, None]).max())
            max_deep = max(max_deep, err)
            if err > tol:
                violations.append(("deep", k, err))
    return max_deep, violations


def reference_stopping_envelopes(lattice):
    """(sup, inf) Snell envelopes of the cashflow over the stops t_k ..
    t_{K-1}, one array per slice k < K, by the plain backward recursion: the
    sup from W_K = 0 (worth X_{K-1} at K-1, as X >= 0), the inf from
    V_{K-1} = X_{K-1}. Unlike Envelope, neither may stop at t_K."""
    K = lattice.n_steps
    sup, inf = [None] * K, [None] * K
    sup[K - 1] = np.maximum(lattice.x(K - 1), reference_expect_next(
        lattice, K - 1, np.zeros(lattice.n_nodes(K))))
    inf[K - 1] = lattice.x(K - 1).copy()
    for k in range(K - 2, -1, -1):
        sup[k] = np.maximum(lattice.x(k), reference_expect_next(lattice, k, sup[k + 1]))
        inf[k] = np.minimum(lattice.x(k), reference_expect_next(lattice, k, inf[k + 1]))
    return sup, inf


def region_masks(field, k):
    """Boolean masks over the positions of slice k: deep (strictly below the
    full-rate boundary), boundary, interior, cap."""
    vg = field.volume_grid
    pos = np.arange(vg.n_levels)
    b = vg.boundary_pos(k)
    return {
        "deep": pos < b,
        "boundary": pos == b,
        "interior": (pos > b) & (pos < vg.cap_pos),
        "cap": pos == vg.cap_pos,
    }


def dense_go(lattice, k, J, vg, tie_tol):
    """The (node x level) rate-L rule on a full slice J: pos < cap and
    X + (J[pos+1] - J[pos]) / step >= -tie_tol."""
    want = np.zeros(J.shape, dtype=bool)
    want[:, :-1] = lattice.x(k)[:, None] + np.diff(J, axis=1) / vg.step >= -tie_tol
    return want


def is_threshold(go):
    """True when every row of go is a prefix of the levels."""
    return not np.any(go[:, 1:] & ~go[:, :-1])


@pytest.fixture(scope="session")
def binary96():
    lat = build_binary_example(96)
    tg, vg, field, policy = solved(lat, 3.0)
    ens = enumerate_paths(lat)
    return {"lat": lat, "tg": tg, "vg": vg, "field": field,
            "policy": policy, "ens": ens}


def collision_lattice():
    """Two mid nodes with opposite exercise decisions feeding one child, so
    the realized volume level at that child depends on the path."""
    slices = [
        [LatticeNode(1.0, (0, 1), (0.5, 0.5))],
        [LatticeNode(5.0, (0,), (1.0,)), LatticeNode(0.01, (0,), (1.0,))],
        [LatticeNode(0.5, (0,), (1.0,))],
        [LatticeNode(0.0)],
    ]
    lat = ScenarioLattice.from_rows(slices)
    tg = TimeGrid(3.0, 3)
    vg = VolumeGrid.aligned(1.0, tg)
    return lat, tg, vg


def random_tiny_lattice(seed):
    """Seeded lattice small enough for exhaustive policy enumeration."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 4))
    sizes = [1] + [int(rng.integers(1, 4)) for _ in range(K)]
    slices = []
    for k in range(K + 1):
        row = []
        nxt = sizes[k + 1] if k < K else 0
        owners = {}
        for c in range(nxt):
            owners.setdefault(int(rng.integers(sizes[k])), []).append(c)
        for n in range(sizes[k]):
            x = float(np.round(rng.uniform(0.0, 3.0), 3))
            if k == K:
                row.append(LatticeNode(x))
                continue
            kids = set(owners.get(n, []))
            kids |= set(np.nonzero(rng.random(nxt) < 0.4)[0].tolist())
            if not kids:
                kids = {int(rng.integers(nxt))}
            kids = sorted(kids)
            w = rng.uniform(0.2, 1.0, size=len(kids))
            w = w / w.sum()
            row.append(LatticeNode(x, tuple(int(i) for i in kids),
                                   tuple(float(v) for v in w)))
        slices.append(row)
    lat = ScenarioLattice.from_rows(slices)
    tg = TimeGrid(float(K), K)
    j_cap = int(rng.integers(1, 3))
    vg = VolumeGrid.aligned(1.0 / (j_cap * tg.dt), tg)
    return lat, tg, vg


@st.composite
def tiny_lattice_rows(draw, max_steps=3):
    """LatticeNode rows shaped like random_tiny_lattice: one root, 1-3 nodes
    per slice, every node reachable, 2..max_steps steps."""
    K = draw(st.integers(2, max_steps))
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(K)]
    rows = []
    for k in range(K + 1):
        nxt = sizes[k + 1] if k < K else 0
        owner = [draw(st.integers(0, sizes[k] - 1)) for _ in range(nxt)]
        row = []
        for n in range(sizes[k]):
            x = draw(st.floats(0.0, 3.0))
            if k == K:
                row.append(LatticeNode(x))
                continue
            kids = {c for c in range(nxt) if owner[c] == n}
            kids |= draw(st.sets(st.integers(0, nxt - 1), min_size=0 if kids else 1))
            kids = sorted(kids)
            w = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=len(kids),
                                       max_size=len(kids))))
            row.append(LatticeNode(x, tuple(kids), tuple((w / w.sum()).tolist())))
        rows.append(row)
    return rows


@st.composite
def tiny_tree_rows(draw):
    """LatticeNode rows of a tiny tree: one root, 1-2 children per node,
    2..4 steps."""
    K = draw(st.integers(2, 4))
    rows, width = [], 1
    for k in range(K + 1):
        row, nxt = [], 0
        for _ in range(width):
            x = draw(st.floats(0.0, 3.0))
            if k == K:
                row.append(LatticeNode(x))
                continue
            fan = draw(st.integers(1, 2))
            w = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=fan, max_size=fan)))
            row.append(LatticeNode(x, tuple(range(nxt, nxt + fan)),
                                   tuple((w / w.sum()).tolist())))
            nxt += fan
        rows.append(row)
        width = nxt
    return rows


def rollout_steps(bundle):
    """(rates, increments) of a rollout's steps k0..K-1: L and step * X where
    the policy exercises at the realized (node, position), 0 elsewhere; read
    off the policy's decisions, not off the moves of the positions."""
    policy, k0, nodes = bundle.policy, bundle.k0, bundle.nodes
    lattice, vg, K = policy.field.lattice, policy.field.volume_grid, policy.field.time_grid.K
    go = np.stack([policy.go(m, nodes[:, m], bundle.positions[:, m - k0]) for m in range(k0, K)],
                  axis=1)
    x = np.stack([lattice.x(m)[nodes[:, m]] for m in range(k0, K)], axis=1)
    return np.where(go, vg.L, 0.0), np.where(go, vg.step * x, 0.0)


def reference_stop_windows(bundle):
    """The per-path window rule that per-node flags replaced: for each
    constraint ("can_raise", "can_lower") a (path x slice) flag array
    in which t_m past the start is open when the step before it or the step
    after it allows the move (a rate below L to raise, above 0 to lower)."""
    K, k0 = bundle.policy.field.time_grid.K, bundle.k0
    rates = rollout_steps(bundle)[0]
    low, pos = rates < bundle.policy.field.volume_grid.L, rates > 0.0
    can_raise = np.zeros((bundle.n_paths, K + 1), dtype=bool)
    can_lower = np.zeros((bundle.n_paths, K + 1), dtype=bool)
    can_raise[:, k0 + 1:] = low
    can_lower[:, k0 + 1:] = pos
    can_raise[:, k0 + 1:K] |= low[:, 1:]
    can_lower[:, k0 + 1:K] |= pos[:, 1:]
    return {"can_raise": can_raise, "can_lower": can_lower}


@pytest.fixture(scope="session")
def mart96():
    lat = make_exp_martingale(96)
    tg, vg, field, policy = solved(lat, 2.0)
    return {"lat": lat, "tg": tg, "vg": vg, "field": field, "policy": policy}


def reference_optimal_martingale(policy):
    """The dict state machine that the array state table of
    build_optimal_martingale replaced: states keyed by (node, phase,
    round(M/qtol)) in insertion order, summed one state at a time. Kept as
    the bitwise oracle for that table."""
    value_field = policy.field
    lattice, time_grid = value_field.lattice, value_field.time_grid
    vg = value_field.volume_grid
    K = time_grid.K
    if vg.n_steps <= vg.j_cap:
        raise ValueError("the dual construction needs L*T > 1; this grid has L*T <= 1")
    pos0 = vg.index_of(0.0)
    maxx = max(1.0, lattice.max_x())
    tol = 3.0 * time_grid.dt * lattice.max_x()

    sup_env = Envelope(lattice, "max")
    inf_env = Envelope(lattice, "min")

    # forward closure of realized volume levels up to the band exit
    realized = [np.full(lattice.n_nodes(k), -1, dtype=np.int64) for k in range(K + 1)]
    trigger = []
    exit_up = []
    realized[0][0] = pos0
    for k in range(K + 1):
        pos = realized[k]
        active = pos >= 0
        exit_up.append(active & (pos >= vg.cap_pos))
        trigger.append(exit_up[k] | (active & (vg.cap_pos - pos >= K - k)))
        if k == K:
            break
        _, child, _ = lattice.edges(k)
        parent = lattice.parents(k)
        moving = (active & ~trigger[k])[parent]
        kids = child[moving]
        src_pos = pos[parent[moving]]
        kid_pos = src_pos + policy.go(k, parent[moving], src_pos)
        realized[k + 1][kids] = kid_pos
        clash = np.flatnonzero(realized[k + 1][kids] != kid_pos)
        if clash.size:
            raise ValueError("pre-exit volume level at slice %d node %d is path-dependent"
                             % (k + 1, kids[clash[0]]))

    # conditional expectation of X at the exit, on the pre-exit region
    w_field = [None] * (K + 1)
    for k in range(K, -1, -1):
        w = np.where(trigger[k], lattice.x(k), np.nan)
        if k < K:
            cont = (realized[k] >= 0) & ~trigger[k]
            w[cont] = lattice.expect_next(k, w_field[k + 1])[cont]
        w_field[k] = w
    m0 = float(w_field[0][0])

    dual1 = 0.0
    dual2 = 0.0
    for k in range(K + 1):
        env = np.where(exit_up[k], sup_env.values[k], inf_env.values[k])
        dual2 = max(dual2, float(np.abs(lattice.x(k) - env)[trigger[k]].max(initial=0.0)))
        pre = np.flatnonzero((realized[k] >= 0) & ~trigger[k])
        lhs = -value_field.dminus_at(k, pre, realized[k][pre])
        dual1 = max(dual1, float(np.abs(lhs - w_field[k][pre]).max(initial=0.0)))

    # forward state machine: phase 0 pre-exit, 1 post-exit via sup envelope,
    # 2 post-exit via inf envelope
    mscale = max(1.0, maxx, abs(m0))
    qtol = 1e-9 * mscale
    states = {(0, 0, None): [1.0, 0.0]}
    integrand = 0.0
    dom_u = 0.0
    dom_l = 0.0
    ident = 0.0
    node_stats = []
    for k in range(K + 1):
        # Python floats and ints: numpy scalars would slow this per-state loop
        xk = lattice.x(k).tolist()
        wk = w_field[k].tolist()
        stats = {}
        for (n, phase, _), (p, msum) in states.items():
            v = wk[n] if phase == 0 else msum / p
            st = stats.get(n)
            if st is None:
                stats[n] = [p, p * v, v, v]
            else:
                st[0] += p
                st[1] += p * v
                st[2] = min(st[2], v)
                st[3] = max(st[3], v)
            if k < K:
                integrand += p * max(xk[n] - v, 0.0)
            if phase == 1:
                dom_u = max(dom_u, xk[n] - v)
            elif phase == 2:
                dom_l = max(dom_l, v - xk[n])
        node_stats.append(stats)
        if k == K:
            break
        start, child, prob = (arr.tolist() for arr in lattice.edges(k))
        w_next = w_field[k + 1].tolist()
        inc_by_phase = {1: sup_env.increments[k].tolist(), 2: inf_env.increments[k].tolist()}
        pre_exit = (~trigger[k]).tolist()
        up = exit_up[k].tolist()
        nxt = {}
        for (n, phase, qk), (p, msum) in states.items():
            edges = range(start[n], start[n + 1])
            if phase == 0 and pre_exit[n]:
                ev = 0.0
                for e in edges:
                    ev += prob[e] * w_next[child[e]]
                    slot = nxt.setdefault((child[e], 0, None), [0.0, 0.0])
                    slot[0] += p * prob[e]
                ident = max(ident, abs(ev - wk[n]))
                continue
            if phase == 0:
                new_phase = 1 if up[n] else 2
                base = xk[n]
            else:
                new_phase = phase
                base = msum / p
            inc = inc_by_phase[new_phase]
            ev = 0.0
            for e in edges:
                m2 = base + inc[e]
                ev += prob[e] * m2
                slot = nxt.setdefault((child[e], new_phase, round(m2 / qtol)), [0.0, 0.0])
                slot[0] += p * prob[e]
                slot[1] += p * prob[e] * m2
            ident = max(ident, abs(ev - base))
        states = nxt
        if len(states) > 200000:
            raise ValueError(
                "post-exit martingale is path-dependent beyond 200000 states at "
                "slice %d; no node view exists on this lattice" % (k + 1))

    primal = float(value_field.point(0, 0, pos0))
    dual = m0 + vg.step * integrand
    report = DualReport(dual, primal, dual - primal, "optimal")

    spread = 0.0
    node_values = []
    for k in range(K + 1):
        vals = np.full(lattice.n_nodes(k), np.nan)
        for n, (w, vsum, vmin, vmax) in node_stats[k].items():
            vals[n] = vsum / w
            spread = max(spread, vmax - vmin)
        node_values.append(vals)

    flags = []
    field = None
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
    if max(dom_u, dom_l) > tol:
        flags.append("post-exit dominance violation %.3g" % max(dom_u, dom_l))

    diagnostics = {
        "premart_vs_derivative": dual1,
        "exit_envelope_match": dual2,
        "post_exit_dominance": max(dom_u, dom_l),
        "martingale_identity": ident,
        "node_spread": spread,
    }
    return OptimalMartingaleResult(report, m0, field, diagnostics, flags, node_values)
