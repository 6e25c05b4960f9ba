import math
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingkit import (Envelope, LatticeNode, PathEnsemble, ScenarioLattice, TimeGrid,
                      build_binary_example, build_binomial, count_paths, enumerate_paths,
                      models, read_lattice, sample_paths, write_lattice)

from conftest import (exp_sigma_params, make_exp_martingale, reference_expect_next,
                      reference_occupancy, reference_parents, reference_read_lattice,
                      tiny_lattice_rows)


def reference_binomial_rows(K, x0, up=None, down=None, p_up=0.5, drift=None, noise=None):
    """One LatticeNode per node, the way build_binomial built its lattices
    before it worked on whole slices."""
    if up is not None:
        value = lambda k, i: x0 * up ** i * down ** (k - i)
        p = p_up
    else:
        value = lambda k, i: x0 + k * drift + (2 * i - k) * noise
        p = 0.5
    rows = []
    for k in range(K + 1):
        row = []
        for i in range(k + 1):
            v = value(k, i)
            row.append(LatticeNode(float(v)) if k == K
                       else LatticeNode(float(v), (i, i + 1), (1.0 - p, p)))
        rows.append(row)
    return rows


def assert_bitwise_equal(a, b):
    """Same slices, cashflows and edge arrays, bit for bit."""
    assert a.n_steps == b.n_steps and a.lce_declared == b.lce_declared
    for k in range(a.n_steps + 1):
        pairs = [(a.x(k), b.x(k))]
        if k < a.n_steps:
            pairs += list(zip(a.edges(k), b.edges(k)))
        for u, v in pairs:
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def test_time_grid():
    tg = TimeGrid(3.0, 96)
    assert tg.dt == 3.0 / 96
    assert tg.times[0] == 0.0
    assert tg.times[-1] == 3.0
    assert len(tg.times) == 97
    for T in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            TimeGrid(T, 4)


def test_binary_example_values():
    """Flat at 1 before the jump, then 3-t on the up branch and t-1 below."""
    lat = build_binary_example(12)
    assert lat.n_nodes(0) == 1
    assert lat.n_nodes(3) == 1
    assert lat.n_nodes(4) == 2
    assert lat.x(0)[0] == 1.0
    assert lat.x(4)[0] == 2.0
    assert lat.x(4)[1] == 0.0
    assert lat.x(10)[1] == 1.5
    assert lat.x(12)[0] == 0.0
    assert lat.x(12)[1] == 2.0
    assert lat.edges(3)[2].tolist() == [0.5, 0.5]
    assert lat.is_tree()


def test_binary_rejects_bad_step_count():
    with pytest.raises(ValueError, match="divisible by 6"):
        build_binary_example(7)


def test_additive_submartingale_leaves():
    lat = build_binomial("submartingale", 2, 2.0, x0=2.0, drift=0.5, noise=0.5)
    assert list(lat.x(2)) == [2.0, 3.0, 4.0]
    _, child, prob = lat.edges(1)
    probs = np.zeros(3)
    np.add.at(probs, child, 0.5 * prob)
    assert np.allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)
    ens = enumerate_paths(lat)
    assert ens.weights @ lat.x(2)[ens.nodes[:, 2]] == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("kind, K, params", [
    ("martingale", 384, dict(zip(("up", "down", "p_up"), exp_sigma_params(384)), x0=1.0)),
    ("submartingale", 96, dict(x0=1.0, up=1.05, down=0.97, p_up=0.4)),
    ("martingale", 200, dict(x0=2.0, drift=0.0, noise=0.005)),
    ("submartingale", 200, dict(x0=2.0, drift=0.001, noise=0.007)),
    ("supermartingale", 200, dict(x0=3.0, drift=-0.003, noise=0.0049)),
])
def test_build_binomial_matches_the_per_node_rows(kind, K, params):
    """build_binomial, a slice at a time, equals the old per-node rows bit for bit;
    p_up differs from 1/2 in the multiplicative cases."""
    lat = build_binomial(kind, K, 2.0, **params)
    assert_bitwise_equal(lat, ScenarioLattice.from_rows(reference_binomial_rows(K, **params)))


def test_binomial_parameter_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        build_binomial("sideways", 4, 1.0, x0=1.0, drift=0.1, noise=0.1)
    with pytest.raises(ValueError, match="needs c"):
        build_binomial("constant", 4, 1.0)
    with pytest.raises(ValueError, match="needs x0"):
        build_binomial("martingale", 4, 1.0, up=1.1, down=0.9)
    with pytest.raises(ValueError, match="either up/down or drift/noise"):
        build_binomial("martingale", 4, 1.0, x0=1.0, up=1.1, down=0.9, drift=0.0, noise=0.1)
    with pytest.raises(ValueError, match="declared martingale but one-step factor"):
        build_binomial("martingale", 4, 1.0, x0=1.0, up=1.1, down=0.9, p_up=0.6)
    with pytest.raises(ValueError, match="declared submartingale but additive drift"):
        build_binomial("submartingale", 4, 1.0, x0=1.0, drift=-0.1, noise=0.1)
    with pytest.raises(ValueError, match="parameters clip"):
        build_binomial("submartingale", 2, 1.0, x0=1.0, drift=0.1, noise=1.0)
    with pytest.raises(ValueError, match="p_up"):
        build_binomial("martingale", 4, 1.0, x0=1.0, up=1.1, down=0.9, p_up=1.5)
    for T in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            build_binomial("martingale", 4, T, x0=1.0, up=1.1, down=0.9, p_up=0.5)
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            build_binomial("constant", 4, T, c=1.0)


@settings(derandomize=True, max_examples=40)
@given(a=st.floats(0.01, 0.5), b=st.floats(0.01, 0.5))
def test_martingale_identity_holds(a, b):
    up, down = 1.0 + a, 1.0 - b
    p = (1.0 - down) / (up - down)
    lat = build_binomial("martingale", 6, 1.0, x0=1.0, up=up, down=down, p_up=p)
    for k in range(6):
        drift = lat.expect_next(k, lat.x(k + 1)) - lat.x(k)
        assert np.max(np.abs(drift)) <= 1e-12


def test_transition_matrix_rows():
    lat = make_exp_martingale(8)
    for k in range(8):
        start, child, prob = lat.edges(k)
        assert start.size == k + 2 and np.array_equal(np.unique(child), np.arange(k + 2))
        assert np.allclose(np.add.reduceat(prob, start[:-1]), 1.0, atol=1e-15)


def test_occupancy_sums_to_one():
    lat = build_binary_example(12)
    occ = lat.occupancy()
    assert occ[0].tolist() == [1.0]
    assert occ[4].tolist() == [0.5, 0.5]
    lat2 = make_exp_martingale(10)
    for k, row in enumerate(lat2.occupancy()):
        assert row.sum() == pytest.approx(1.0, abs=1e-14)


def test_backward_extremum_roots():
    lat = build_binary_example(96)
    assert Envelope(lat, "max").values[0][0] == 2.0
    assert Envelope(lat, "min").values[0][0] == 0.0
    const = build_binomial("constant", 8, 1.0, c=0.7)
    assert Envelope(const, "max").values[0][0] == 0.7
    assert Envelope(const, "min").values[0][0] == 0.7
    with pytest.raises(ValueError, match="'max' or 'min'"):
        Envelope(const, "sup")


def test_path_counts_and_enumeration():
    lat = build_binary_example(12)
    assert count_paths(lat) == 2
    ens = enumerate_paths(lat)
    assert ens.n_paths == 2
    assert ens.exhaustive
    assert sorted(ens.weights.tolist()) == [0.5, 0.5]
    ens.validate()

    const = build_binomial("constant", 5, 1.0, c=1.0)
    assert count_paths(const) == 1
    assert enumerate_paths(const).weights.tolist() == [1.0]

    b2 = make_exp_martingale(2)
    e2 = enumerate_paths(b2)
    assert e2.n_paths == 4
    assert e2.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert all(w > 0 for w in e2.weights)


def test_enumerate_respects_bound():
    lat = make_exp_martingale(17)
    assert count_paths(lat) == 131072
    with pytest.raises(ValueError, match="path count 131072 exceeds the bound 65536"):
        enumerate_paths(lat)


def test_sample_paths_deterministic():
    lat = make_exp_martingale(6)
    a = sample_paths(lat, n_paths=50, seed=7)
    b = sample_paths(lat, n_paths=50, seed=7)
    assert np.array_equal(a.nodes, b.nodes)
    assert not a.exhaustive
    a.validate()
    c = sample_paths(lat, n_paths=50, seed=8)
    assert not np.array_equal(a.nodes, c.nodes)
    with pytest.raises(ValueError, match="at least 1"):
        sample_paths(lat, n_paths=0)


def test_sample_paths_refuses_a_negative_seed():
    """The refusal names the key, as the CLI's does, not numpy's wording."""
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        sample_paths(make_exp_martingale(6), n_paths=5, seed=-1)


def test_ensemble_validate_rejects_bad_paths():
    lat = build_binary_example(6)
    ens = enumerate_paths(lat)
    bad = PathEnsemble(lat, ens.nodes.copy(), ens.weights * 0.5, exhaustive=True)
    with pytest.raises(ValueError, match="weights sum"):
        bad.validate()
    nodes = ens.nodes.copy()
    nodes[0, -1] = 1 - nodes[0, -1]
    with pytest.raises(ValueError, match="invalid transition"):
        PathEnsemble(lat, nodes, ens.weights.copy(), exhaustive=True).validate()


def test_lattice_validate_rejections():
    ok = LatticeNode(1.0, (0,), (1.0,))
    term = LatticeNode(1.0)
    with pytest.raises(ValueError, match="at least two time slices"):
        ScenarioLattice.from_rows([[term]])
    with pytest.raises(ValueError, match="negative cashflow"):
        ScenarioLattice.from_rows([[LatticeNode(-1.0, (0,), (1.0,))], [term]])
    with pytest.raises(ValueError, match="sum to"):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0,), (0.6,))], [term]])
    with pytest.raises(ValueError, match="has children"):
        ScenarioLattice.from_rows([[ok], [LatticeNode(1.0, (0,), (1.0,))]])
    with pytest.raises(ValueError, match="no children"):
        ScenarioLattice.from_rows([[LatticeNode(1.0)], [term]])
    with pytest.raises(ValueError, match="out of range"):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0, 2), (0.5, 0.5))],
                                   [term, term]])
    with pytest.raises(ValueError, match="unreachable"):
        ScenarioLattice.from_rows([[ok], [term, term]])
    with pytest.raises(ValueError, match="length mismatch"):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0,), (0.5, 0.5))], [term]])
    with pytest.raises(ValueError, match="negative transition"):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0, 0), (1.5, -0.5))], [term]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite or negative cashflow"):
            ScenarioLattice.from_rows([[LatticeNode(bad, (0,), (1.0,))], [term]])
        with pytest.raises(ValueError, match="non-finite or negative cashflow"):
            ScenarioLattice.from_rows([[ok], [LatticeNode(bad)]])
    with pytest.raises(ValueError, match="sum to nan"):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0, 1), (np.nan, 1.0))],
                                   [term, term]])
    # the array constructor: one edge triple per step, laid out to fit its slices
    with pytest.raises(ValueError, match="one edge triple per step"):
        ScenarioLattice([[1.0], [1.0]], [])
    for start, child, prob in (([0, 1, 1], [0], [1.0]), ([1, 1], [0], [1.0]),
                               ([0, 2], [0], [1.0]), ([0, 1], [0], [0.5, 0.5])):
        with pytest.raises(ValueError, match="edge layout of slice 0"):
            ScenarioLattice([[1.0], [1.0]], [(start, child, prob)])
    assert_bitwise_equal(ScenarioLattice([[1.0], [2.0, 0.0]], [([0, 2], [0, 1], [0.5, 0.5])]),
                         ScenarioLattice.from_rows([[LatticeNode(1.0, (0, 1), (0.5, 0.5))],
                                                    [LatticeNode(2.0), LatticeNode(0.0)]]))


def test_the_array_constructor_rejects_a_negative_or_non_finite_cashflow():
    """The constructor validates, so no lattice with a negative, NaN or inf
    X reaches solve, however it was built."""
    edges = [(np.array([0, 2]), np.array([0, 1]), np.array([0.5, 0.5])),
             (np.array([0, 1, 2]), np.array([0, 0]), np.array([1.0, 1.0]))]
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="^non-finite or negative cashflow %.17g at slice 1 "
                                             "node 1$" % bad):
            ScenarioLattice([np.array([1.0]), np.array([1.0, bad]), np.array([1.0])], edges)


def test_each_builder_validates_its_lattice_once(tmp_path):
    """The constructor runs validate, and no builder runs it again."""
    path = str(tmp_path / "lattice.txt")
    write_lattice(path, build_binary_example(12), TimeGrid(3.0, 12), 1.0)
    builds = {
        "read_lattice": lambda: read_lattice(path),
        "constant binomial": lambda: build_binomial("constant", 8, 1.0, c=0.7),
        "martingale binomial": lambda: build_binomial("martingale", 8, 2.0, x0=1.0, drift=0.0,
                                                      noise=0.005),
        "binary example": lambda: build_binary_example(12),
    }
    for name, build in builds.items():
        with mock.patch.object(ScenarioLattice, "validate", autospec=True,
                               side_effect=ScenarioLattice.validate) as counted:
            build()
        assert counted.call_count == 1, name


def test_serialization_round_trip(tmp_path):
    lat = build_binary_example(12)
    tg = TimeGrid(3.0, 12)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_lattice(str(p1), lat, tg, 1.0)
    lat2, tg2, L2 = read_lattice(str(p1))
    assert L2 == 1.0
    assert tg2.T == tg.T and tg2.K == tg.K
    assert lat2.lce_declared == lat.lce_declared
    for k in range(13):
        assert np.array_equal(lat2.x(k), lat.x(k))
        if k < 12:
            for a, b in zip(lat.edges(k), lat2.edges(k)):
                assert np.array_equal(a, b)
    write_lattice(str(p2), lat2, tg2, L2)
    assert p1.read_bytes() == p2.read_bytes()


BIG = "99999999999999999999"
# Bad tokens for the k, node, X and edge columns of a node line.
BAD_TOKENS = (("2.0", BIG, "-1", "9"), ("x", BIG, "-1", "7"), ("abc", "nan", "-1", "1e"),
              ("0:1:1", "01", "0:", ":1", ":", "0:x", BIG + ":1", "0:0.5", "9:1"))


def test_read_lattice_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 4\n")
    with pytest.raises(ValueError, match="malformed lattice header"):
        read_lattice(str(p))
    good = "3 3 1 1 2\n0 0 1 0:1\n1 0 1 0:1\n2 0 1 0:1\n3 0 1\n"
    p.write_text(good)
    assert read_lattice(str(p))[0].n_steps == 3
    for text, msg in ((good.replace("2 0 1", "2 1 1"), "numbering at slice 2"),
                      (good + "1 2 1 0:1\n", "numbering at slice 1"),
                      (good + "3 0 5\n", "duplicate node 0 at slice 3"),
                      (good + "4 0 1\n", "slice index 4 outside"),
                      (good + "-1 0 1 0:1\n", "slice index -1 outside"),
                      ("", "malformed lattice header"),
                      ("\n  \n", "malformed lattice header"),
                      (good + "3 1\n", "malformed node line '3 1'"),
                      (good.replace("1 0 1 0:1", "1 0 abc 0:1"), "could not convert string to"),
                      (good.replace("2 0 1", "2.0 0 1"), "invalid literal for int"),
                      (good.replace("2 0 1 0:1", "2 0 1 0:x"), "could not convert string to"),
                      (good.replace("3 0 1", "3 0 1 0:1"), "terminal node 0 has children"),
                      (good.replace("3 3 1", "3 1000000000000 1"), "missing slice 4 in"),
                      (good.replace("1 0 1 0:1", "1 0 1 0:1:1"), "edge token '0:1:1' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 0:1:0 1"), "edge token '0:1:0' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 01"), "edge token '01' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 0:"), "edge token '0:' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 :1"), "edge token ':1' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 0:1 :"), "edge token ':' is not"),
                      (good.replace("1 0 1 0:1", "1 0 1 %s:1" % BIG), "integer %s" % BIG),
                      (good.replace("2 0 1", BIG + " 0 1"), "integer %s" % BIG),
                      ("inf 3 1 1 2" + good[good.index("\n"):], "positive and finite"),
                      (good.replace("3 3 1 1 2", "3 3 1 7 2"), "lce = 7 is not 0 or 1"),
                      (good.replace("3 3 1 1 2", "3 3 1 -1 2"), "lce = -1 is not 0 or 1")):
        p.write_text(text)
        with pytest.raises(ValueError, match=msg):
            read_lattice(str(p))


def test_read_lattice_accepts_lines_in_any_order(tmp_path):
    lat = build_binary_example(12)
    p = tmp_path / "a.txt"
    write_lattice(str(p), lat, TimeGrid(3.0, 12), 1.0)
    head, *body = p.read_text().splitlines()
    order = np.random.default_rng(0).permutation(len(body))
    p.write_text("\n".join([head] + [body[i] for i in order]) + "\n\n")
    assert_bitwise_equal(read_lattice(str(p))[0], lat)


def test_read_lattice_is_bitwise_on_a_written_k384_file(tmp_path):
    lat = make_exp_martingale(384)
    p = tmp_path / "k384.txt"
    write_lattice(str(p), lat, TimeGrid(2.0, 384), 1.0)
    assert_bitwise_equal(read_lattice(str(p))[0], lat)


def spoil(body, fault, rng):
    """Inject fault number `fault` into the node lines (lists of words):
    0-3 a bad token in that column (one token, or a draw per line, on a
    random set of lines), 4 a short line, 5 a repeated line, 6 a dropped
    line, 7 children on a terminal node; a negative fault injects nothing."""
    lines = rng.permutation(len(body))[:rng.integers(1, len(body) + 1)]
    if fault in range(4):
        bad = BAD_TOKENS[fault]
        same = bad[rng.integers(len(bad))] if rng.random() < 0.5 else None
        for i in lines:
            words = body[i]
            col = fault if fault < 3 else 3 + rng.integers(max(len(words) - 3, 1))
            if col < len(words):
                words[col] = same or bad[rng.integers(len(bad))]
    elif fault == 4:
        body[lines[0]] = body[lines[0]][:2]
    elif fault == 5:
        body.append(list(body[lines[0]]))
    elif fault == 6:
        del body[lines[0]]
    elif fault == 7:
        max(body, key=lambda words: int(words[0])).append("0:1")
    return body


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), seed=st.integers(0, 2 ** 32 - 1))
def test_read_lattice_matches_the_reference(rows, seed):
    """On a written lattice with its lines shuffled, tab or CRLF separators,
    blank lines and at most one injected fault, the reader returns the
    reference's lattice bit for bit or raises its ValueError text."""
    rng = np.random.default_rng(seed)
    lat = ScenarioLattice.from_rows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lat.txt")
        write_lattice(path, lat, TimeGrid(float(lat.n_steps), lat.n_steps), 1.0)
        with open(path) as fh:
            head, *body = map(str.split, fh)
        body = spoil(body, rng.integers(-4, 8), rng)
        sep, end = (" ", "\t", " \t ")[rng.integers(3)], ("\n", "\r\n")[rng.integers(2)]
        lines = [sep.join(words) for words in [head] + [body[i] for i in rng.permutation(len(body))]]
        for _ in range(rng.integers(4)):
            lines.insert(rng.integers(len(lines) + 1), ("", " \t")[rng.integers(2)])
        with open(path, "w", newline="") as fh:
            fh.write(end.join(lines) + end)
        try:
            want = reference_read_lattice(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_lattice(path)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        got = read_lattice(path)
    assert_bitwise_equal(got[0], want[0])
    assert (got[1].T, got[1].K, got[2]) == (want[1].T, want[1].K, want[2])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=6), seed=st.integers(0, 2 ** 32 - 1))
def test_read_lattice_matches_the_reference_across_chunks(rows, seed):
    """With shuffled node lines and a fault in each of two chunks of 1-3
    lines, the reader gives the reference's lattice bit for bit or its
    ValueError text, and gives the same at chunks of 1, 2, 3 and 2048 lines.
    Half the draws also put a bad edge token on the root line, the first in
    (k, node) order, and move that line into the last chunk, behind bad edge
    tokens in an earlier chunk."""
    rng = np.random.default_rng(seed)
    lat = ScenarioLattice.from_rows(rows)
    n_lines = sum(lat.n_nodes(k) for k in range(lat.n_steps + 1))
    chunk = int(rng.integers(1, min(3, n_lines - 2) + 1))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(models, "_CHUNK", chunk):
        path = os.path.join(tmp, "lat.txt")
        write_lattice(path, lat, TimeGrid(float(lat.n_steps), lat.n_steps), 1.0)
        with open(path) as fh:
            head, *body = map(str.split, fh)
        body, tail = [body[i] for i in rng.permutation(len(body))], []
        if rng.random() < 0.5:
            root = body.pop(next(i for i, words in enumerate(body) if words[:2] == ["0", "0"]))
            root[3 + rng.integers(len(root) - 3)] = BAD_TOKENS[3][rng.integers(len(BAD_TOKENS[3]))]
            tail = [root]
        cut = chunk * int(rng.integers(1, (len(body) - 1) // chunk + 1))
        faults = (3, rng.integers(-4, 8)) if tail else rng.integers(-4, 8, size=2)
        body = spoil(body[:cut], faults[0], rng) + spoil(body[cut:], faults[1], rng) + tail
        with open(path, "w") as fh:
            fh.write("\n".join(map(" ".join, [head] + body)) + "\n")
        try:
            want = reference_read_lattice(path)
        except ValueError as exc:
            for size in (1, 2, 3, 2048):
                with mock.patch.object(models, "_CHUNK", size), pytest.raises(ValueError) as got:
                    read_lattice(path)
                assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        got = read_lattice(path)
    assert_bitwise_equal(got[0], want[0])
    assert (got[1].T, got[1].K, got[2]) == (want[1].T, want[1].K, want[2])


def test_read_lattice_reports_the_first_error_across_chunks(tmp_path):
    """Two-line chunks of node lines out of (k, node) order: each spoiled
    file raises the reference's error, that of its first bad line in file
    order, whose token the expected text pins."""
    lines = ["2 0 1 0:1", "3 0 1", "1 0 1 0:1", "0 0 1 0:1"]   # the last one sorts first
    p = tmp_path / "lat.txt"
    for spoilt, text in (({1: "a 0 1", 2: "b 0 1 0:1"}, "'a'"),
                         ({1: BIG + " 0 1", 2: "9%s 0 1 0:1" % BIG}, "integer %s " % BIG),
                         ({1: "3 z 1", 2: "7 0 1 0:1"}, "'z'"),
                         ({0: "2 0 p 0:1", 3: "0 0 q 0:1"}, "'p'"),
                         ({0: "2 0 1 a:1", 3: "0 0 1 b:1"}, "'a'"),
                         ({0: "2 0 1 9%s:1" % BIG, 3: "0 0 1 %s:1" % BIG}, "integer 9" + BIG),
                         ({0: "2 0 1 0:x", 3: "0 0 1 0:y"}, "'x'"),
                         ({0: "2 0 1 01", 3: "0 0 q 0:1"}, "'01'"),
                         ({0: "2 0 1 0:1:1", 3: "0 0 1 :1"}, "'0:1:1'"),
                         # several faults on one line: its first token left to right
                         ({1: "a z q"}, "'a'"), ({1: "3 z q"}, "'z'"),
                         ({0: "2 0 q 01 0:x"}, "'q'"), ({0: "2 0 1 0:x 01"}, "'x'"),
                         ({0: "2 0 1 a:x"}, "'a'"), ({0: "2 0 1 %s:x" % BIG}, "integer " + BIG),
                         # a short line and a bad token in one chunk: the earlier line
                         ({0: "2 0", 1: "a 0 1"}, "'2 0'"), ({0: "a 0 1 0:1", 1: "3 0"}, "'a'")):
        p.write_text("3 3 1 1 2\n" + "\n".join(spoilt.get(i, line) for i, line in enumerate(lines)))
        with pytest.raises(ValueError) as want:
            reference_read_lattice(str(p))
        with mock.patch.object(models, "_CHUNK", 2), pytest.raises(ValueError) as got:
            read_lattice(str(p))
        assert text in str(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("chunk", [1, 2, 2048])
def test_read_lattice_keeps_the_int64_minimum_in_range(tmp_path, chunk):
    """-2**63 fits int64, so only 2**63 beside it is out of range, at every
    chunk size; alone it reaches the slice range check."""
    p = tmp_path / "lat.txt"
    for ks, text in ((["-9223372036854775808", "9223372036854775808"],
                      "integer 9223372036854775808 is out of range"),
                     (["-9223372036854775808"], "slice index -9223372036854775808 outside 0..1")):
        p.write_text("1 1 1 1 2\n" + "".join("%s 0 1 0:1\n" % k for k in ks))
        with mock.patch.object(models, "_CHUNK", chunk), pytest.raises(ValueError) as got:
            read_lattice(str(p))
        assert str(got.value) == text


def test_read_lattice_peak_memory_is_bounded_by_the_lattice(tmp_path):
    """Reading the K=384 exp-martingale file allocates at most five times
    the bytes of the lattice's own arrays at any moment: the reader holds
    one chunk of split lines, not the whole file's."""
    lat = make_exp_martingale(384)
    p = tmp_path / "k384.txt"
    write_lattice(str(p), lat, TimeGrid(2.0, 384), 1.0)
    own = sum(lat.x(k).nbytes for k in range(385))
    own += sum(a.nbytes for k in range(384) for a in lat.edges(k))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        read_lattice(str(p))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5 * own, (peak, own)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), seed=st.integers(0, 2 ** 32 - 1))
def test_edge_layout_properties(rows, seed):
    """expect_next matches the dense matrix of the rows; enumeration covers
    count_paths paths of total weight one; sampled paths follow edges."""
    lat = ScenarioLattice.from_rows(rows)
    for k in range(lat.n_steps):
        P = np.zeros((lat.n_nodes(k), lat.n_nodes(k + 1)))
        for n, node in enumerate(rows[k]):
            for c, p in zip(node.children, node.probs):
                P[n, c] += p
        v = np.random.default_rng(seed).normal(size=(lat.n_nodes(k + 1), 3))
        np.testing.assert_allclose(lat.expect_next(k, lat.x(k + 1)), P @ lat.x(k + 1),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(lat.expect_next(k, v), P @ v, rtol=0, atol=1e-14)
    ens = enumerate_paths(lat)
    assert ens.n_paths == count_paths(lat)
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
    ens.validate()
    sample_paths(lat, n_paths=20, seed=seed).validate()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows())
def test_lattice_file_round_trip_is_byte_identical(rows):
    lat = ScenarioLattice.from_rows(rows)
    tg = TimeGrid(float(lat.n_steps), lat.n_steps)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        write_lattice(p1, lat, tg, 1.0)
        write_lattice(p2, *read_lattice(p1))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5, 1e308, -5e-324])


def probe_values(n, seed):
    """1-D and 2-D slice-(k+1) quantities of n rows: signed normals with the
    special values -0.0, +-inf and NaN scattered through them."""
    rng = np.random.default_rng(seed)
    out = []
    for shape in (n, (n, 5)):
        v = rng.normal(size=shape)
        spots = rng.random(shape) < 0.3
        v[spots] = rng.choice(SPECIALS, size=spots.sum())
        out.append(v)
    return out + [np.full(n, -0.0), np.full((n, 2), np.nan)]


def assert_tables_match_reference(lat, seed):
    """expect_next, parents and occupancy equal the per-call reference code
    bit for bit."""
    for k in range(lat.n_steps):
        assert np.array_equal(lat.parents(k), reference_parents(lat, k))
        for v in probe_values(lat.n_nodes(k + 1), seed + k):
            with np.errstate(invalid="ignore"):         # inf - inf makes NaN
                got, want = lat.expect_next(k, v), reference_expect_next(lat, k, v)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for got, want in zip(lat.occupancy(), reference_occupancy(lat), strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rows=tiny_lattice_rows(), seed=st.integers(0, 2 ** 32 - 1))
def test_step_tables_match_the_reference_on_mixed_fanout(rows, seed):
    assert_tables_match_reference(ScenarioLattice.from_rows(rows), seed)


@pytest.mark.parametrize("make", [
    lambda: build_binomial("martingale", 96, 2.0, x0=1.0, up=1.05, down=0.95, p_up=0.5),
    lambda: make_exp_martingale(384),
    lambda: build_binary_example(12),
])
def test_step_tables_match_the_reference_on_uniform_fanout(make):
    assert_tables_match_reference(make(), 7)


def test_step_tables_are_read_only_and_built_once():
    lat = build_binary_example(12)
    for k in (3, 4):
        entries = lat._fanout(k)
        assert lat._fanout(k) is entries and lat.parents(k) is lat.parents(k)
        for table in [lat.parents(k)] + [a for entry in entries for a in entry if a is not None]:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
    occ = lat.occupancy()
    assert all(a is b for a, b in zip(occ, lat.occupancy()))
    with pytest.raises(ValueError, match="read-only"):
        occ[4][0] = 0.25
    occ[4] = None               # the list is the caller's own
    assert lat.occupancy()[4].tolist() == [0.5, 0.5]


# finite doubles of both signs, from subnormal to about 2^500 in size, so the
# products of two stay finite and a sum of a few dozen cannot overflow
WIDE = st.one_of(st.floats(-1e150, 1e150),
                 st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 495)))


def weighted_terms(shape=()):
    """(w, v): a weight vector of a drawn length n and an array of shape
    shape + (n,), drawn from WIDE."""
    def draw(n):
        size = n * math.prod(shape)
        return st.tuples(st.lists(WIDE, min_size=n, max_size=n).map(np.array),
                         st.lists(WIDE, min_size=size, max_size=size).map(
                             lambda v: np.reshape(v, shape + (n,))))
    return st.integers(0, 40).flatmap(draw)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(terms=weighted_terms(), data=st.data())
def test_wsum_is_the_correctly_rounded_sum_of_the_products_in_any_order(terms, data):
    w, v = terms
    got = models._wsum(w, v)
    assert type(got) is float
    assert got == float(sum(Fraction(p) for p in (w * v).tolist()))
    perm = np.array(data.draw(st.permutations(range(w.size))), dtype=int)
    assert models._wsum(w[perm], v[perm]).hex() == got.hex()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.integers(0, 5), data=st.data())
def test_wsum_of_a_matrix_is_the_sum_of_each_row(m, data):
    """Also on a matrix in column-major order and on a strided view."""
    w, v = data.draw(weighted_terms((m,)))
    want = [models._wsum(w, row).hex() for row in v]
    for layout in (v, np.asfortranarray(v), np.repeat(v, 2, axis=1)[:, ::2]):
        got = models._wsum(w, layout)
        assert got.shape == v.shape[:1] and [x.hex() for x in got.tolist()] == want


def test_wsum_gives_the_ieee_value_of_a_nonfinite_sum_without_a_warning():
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert models._wsum([1.0, 1.0], [big, big]) == math.inf
        assert models._wsum([1.0, 1.0], [-big, -big]) == -math.inf
        assert models._wsum([1e200, 1.0], [-1e200, 1.0]) == -math.inf   # the product overflows
        # a partial sum overflows, the exact sum does not
        assert models._wsum([1.0, 1.0, 1.0], [big, big, -big]) == big
        # an infinite term outweighs any finite sum, in any order
        assert models._wsum([1.0, 1.0, 1.0], [big, big, -math.inf]) == -math.inf
        assert models._wsum([1.0, 1.0], [math.inf, 1.0]) == math.inf
        for w, v in (([1.0, 1.0], [math.inf, -math.inf]), ([1.0, 1.0], [math.nan, 1.0]),
                     ([0.0, 1.0], [math.inf, 1.0]), ([1.0, 1.0, 1.0], [big, big, math.nan])):
            assert math.isnan(models._wsum(w, v))
        rows = models._wsum([1.0, 1.0], [[big, big], [1.0, 2.0], [math.inf, -math.inf]])
        assert rows[:2].tolist() == [math.inf, 3.0] and math.isnan(rows[2])
