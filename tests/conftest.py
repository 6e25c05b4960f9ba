import numpy as np
import pytest
from hypothesis import strategies as st

from swingkit import (LatticeNode, ScenarioLattice, TimeGrid, VolumeGrid,
                      build_binary_example, build_binomial, extract_policy,
                      sample_paths, solve)


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


def with_field(make):
    """Gap-study instance maker: make(K) = (lattice, tg, vg) plus its solved field."""
    def make_instance(K):
        lattice, tg, vg = make(K)
        return lattice, tg, vg, solve(lattice, tg, vg)
    return make_instance


def solved(lattice, T, L=1.0):
    tg = TimeGrid(T, lattice.n_steps)
    vg = VolumeGrid.aligned(L, tg)
    field = solve(lattice, tg, vg)
    policy = extract_policy(field, lattice)
    return tg, vg, field, policy


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
    ens = sample_paths(lat, exhaustive=True)
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
    lat = ScenarioLattice.from_rows(slices).validate()
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
    lat = ScenarioLattice.from_rows(slices).validate()
    tg = TimeGrid(float(K), K)
    j_cap = int(rng.integers(1, 3))
    vg = VolumeGrid.aligned(1.0 / (j_cap * tg.dt), tg)
    return lat, tg, vg


@st.composite
def tiny_lattice_rows(draw):
    """LatticeNode rows shaped like random_tiny_lattice: one root, 1-3 nodes
    per slice, every node reachable, 2-3 steps."""
    K = draw(st.integers(2, 3))
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


@pytest.fixture(scope="session")
def mart96():
    lat = make_exp_martingale(96)
    tg, vg, field, policy = solved(lat, 2.0)
    return {"lat": lat, "tg": tg, "vg": vg, "field": field, "policy": policy}
