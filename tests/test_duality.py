import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swingkit import (PreconditionError, ScenarioLattice, TimeGrid, VolumeGrid,
                      build_binomial, build_optimal_martingale, constant_martingale,
                      doob_martingale_of_terminal, dual_value, dual_values, duality_gap_study,
                      extract_policy, random_martingale, random_terminal)
from swingkit.duality import _merge

from conftest import (collision_lattice, make_exp_martingale, reference_optimal_martingale,
                      solved, tiny_lattice_rows, with_policy)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def outcome(build, *args):
    """build(*args), or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def assert_same_construction(policy):
    """The state table and the dict machine agree bit for bit, or raise the
    same ValueError."""
    got = outcome(build_optimal_martingale, policy)
    want = outcome(reference_optimal_martingale, policy)
    if isinstance(want, str):
        assert got == want
        return
    assert bits(got.report.dual_value) == bits(want.report.dual_value)
    assert bits(got.m0) == bits(want.m0)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for name in want.diagnostics:
        assert bits(got.diagnostics[name]) == bits(want.diagnostics[name]), name
    assert got.flags == want.flags
    assert (got.field is None) == (want.field is None)
    assert len(got.node_values) == len(want.node_values)
    for a, b in zip(got.node_values, want.node_values):
        assert np.array_equal(bits(a), bits(b))


def test_martingale_field_validate(binary96):
    lat = binary96["lat"]
    m = constant_martingale(lat, 1.0)
    assert m.label == "constant"
    assert m.validate() == 0.0
    m.values[5][0] = 2.0
    with pytest.raises(ValueError, match="martingale identity fails"):
        m.validate()
    for bad in (np.nan, np.inf, -np.inf):
        m = constant_martingale(lat, 1.0)
        m.values[70][1] = bad
        with pytest.raises(ValueError, match="slice 70 node 1 is not finite"):
            m.validate()
    m = constant_martingale(lat, 1.0)
    m.values[0][0] = np.nan
    with pytest.raises(ValueError, match="slice 0 node 0 is not finite"):
        dual_value(m, binary96["vg"])


def test_doob_martingale_of_terminal(binary96):
    lat = binary96["lat"]
    m = doob_martingale_of_terminal(lat, lat.x(96))
    assert m.values[0][0] == 1.0
    assert m.validate() == 0.0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2), data=st.data())
def test_weak_duality_for_drawn_terminal_payoffs(rows, j_cap, data):
    """Whenever L*T > 1, the closed martingale of any terminal payoff bounds
    the solved value from above."""
    K = len(rows) - 1
    assume(K > j_cap)
    lat = ScenarioLattice.from_rows(rows)
    tg, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    payoff = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=lat.n_nodes(K),
                                max_size=lat.n_nodes(K)))
    rep = dual_value(doob_martingale_of_terminal(lat, payoff), vg, field.at(0, 0, 0.0))
    assert rep.gap >= -1e-10


def test_random_martingales_are_martingales(binary96):
    lat = binary96["lat"]
    seen = set()
    for seed in range(6):
        m = random_martingale(lat, seed)
        assert m.validate() <= 1e-10
        seen.add(round(m.values[0][0], 12))
    assert len(seen) > 1
    a = random_martingale(lat, 3)
    b = random_martingale(lat, 3)
    assert a.values[0][0] == b.values[0][0]


def test_constant_martingale_duals(binary96):
    lat, tg, vg = binary96["lat"], binary96["tg"], binary96["vg"]
    primal = binary96["field"].at(0, 0, 0.0)
    r2 = dual_value(constant_martingale(lat, 2.0), vg, primal=primal)
    assert abs(r2.dual_value - 2.0) <= 1e-12
    r15 = dual_value(constant_martingale(lat, 1.5), vg, primal=primal)
    assert abs(r15.dual_value - 1.625) <= 1e-12
    assert abs(r15.gap - 0.125) <= 1e-12
    assert r15.label == "constant"
    bare = dual_value(constant_martingale(lat, 1.5), vg)
    assert np.isnan(bare.primal) and np.isnan(bare.gap)


def test_weak_duality_over_random_martingales(binary96):
    lat, tg, vg = binary96["lat"], binary96["tg"], binary96["vg"]
    primal = binary96["field"].at(0, 0, 0.0)
    for seed in range(12):
        rep = dual_value(random_martingale(lat, seed), vg, primal=primal)
        assert rep.dual_value >= primal - 1e-10


def test_dual_needs_lt_above_one():
    lat = build_binomial("constant", 4, 1.0, c=1.0)
    tg = TimeGrid(1.0, 4)
    vg = VolumeGrid.aligned(1.0, tg)
    with pytest.raises(ValueError, match="needs L\\*T > 1"):
        dual_value(constant_martingale(lat, 1.0), vg)
    policy = extract_policy(lat, tg, vg)
    with pytest.raises(ValueError, match="needs L\\*T > 1"):
        build_optimal_martingale(policy)


def test_dual_value_refuses_a_grid_of_another_step_count():
    """A volume grid aligned to K = 24 or 6 gave this K=12 lattice other
    bounds (1.598 and 1.891 against 1.696) without complaint."""
    lat = build_binomial("martingale", 12, 2.0, x0=1.0, up=1.25, down=0.75, p_up=0.5)
    m = constant_martingale(lat, 1.5)
    rep = dual_value(m, VolumeGrid.aligned(1.0, TimeGrid(2.0, 12)))
    assert rep.dual_value == pytest.approx(1.6955897151880588, abs=1e-12)
    for K in (24, 6):
        with pytest.raises(ValueError, match="aligned to a different time grid"):
            dual_value(m, VolumeGrid.aligned(1.0, TimeGrid(2.0, K)))


def terminals(lat, seeds):
    return np.stack([random_terminal(lat, seed) for seed in seeds], axis=1)


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert [bits(a.dual_value), bits(a.primal), bits(a.gap), a.label] == \
            [bits(b.dual_value), bits(b.primal), bits(b.gap), b.label]


def per_seed_duals(lat, vg, seeds, primal):
    return [dual_value(random_martingale(lat, seed), vg, primal) for seed in seeds]


@pytest.mark.parametrize("case", ["binary96", "exp_martingale48"])
def test_dual_values_match_the_per_seed_duals_bit_for_bit(binary96, case):
    if case == "binary96":
        lat, vg, primal = binary96["lat"], binary96["vg"], binary96["field"].at(0, 0, 0.0)
    else:
        lat = make_exp_martingale(48)
        _, vg, field, _ = solved(lat, 2.0)
        primal = field.at(0, 0, 0.0)
    got = dual_values(lat, vg, terminals(lat, range(10)), primal)
    assert_same_reports(got, per_seed_duals(lat, vg, range(10), primal))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=5), j_cap=st.integers(1, 3),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
def test_dual_values_match_the_per_seed_duals_on_drawn_lattices(rows, j_cap, seeds):
    K = len(rows) - 1
    assume(K > j_cap)
    lat = ScenarioLattice.from_rows(rows)
    _, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    primal = field.at(0, 0, 0.0)
    assert_same_reports(dual_values(lat, vg, terminals(lat, seeds), primal),
                        per_seed_duals(lat, vg, seeds, primal))


def test_dual_values_raise_the_message_of_validate_for_a_nan_terminal():
    lat = make_exp_martingale(12)
    vg = VolumeGrid.aligned(1.0, TimeGrid(2.0, 12))
    terms = terminals(lat, range(3))
    terms[7, 1] = np.nan
    want = outcome(dual_value, doob_martingale_of_terminal(lat, terms[:, 1]), vg, 0.0)
    assert want == "martingale value at slice 0 node 0 is not finite"
    assert outcome(dual_values, lat, vg, terms, 0.0) == want


def test_dual_values_raise_the_first_error_of_the_per_seed_loop():
    """Several bad columns: the error is the one a loop over the columns, in
    order, meets first."""
    lat = make_exp_martingale(12)
    vg = VolumeGrid.aligned(1.0, TimeGrid(2.0, 12))
    terms = terminals(lat, range(6))
    terms[3, 2], terms[0, 4], terms[12, 5] = np.inf, -np.inf, np.nan

    def loop():
        for i in range(terms.shape[1]):
            dual_value(doob_martingale_of_terminal(lat, terms[:, i]), vg, 0.0)

    want = outcome(loop)
    assert isinstance(want, str)
    assert outcome(dual_values, lat, vg, terms, 0.0) == want


def test_dual_values_refusals():
    """The refusals of doob_martingale_of_terminal and dual_value, in their
    order: the terminal shape, then the grid's step count, then L*T <= 1."""
    lat = build_binomial("constant", 4, 1.0, c=1.0)
    vg = VolumeGrid.aligned(1.0, TimeGrid(1.0, 4))
    n = lat.n_nodes(4)
    for bad in (np.zeros((n + 1, 2)), np.zeros(n)):
        with pytest.raises(ValueError, match="one value per terminal node"):
            dual_values(lat, vg, bad, 0.0)
    with pytest.raises(ValueError, match="aligned to a different time grid"):
        dual_values(lat, VolumeGrid.aligned(1.0, TimeGrid(1.0, 8)), np.zeros((n, 2)), 0.0)
    with pytest.raises(PreconditionError, match="needs L\\*T > 1"):
        dual_values(lat, vg, np.zeros((n, 2)), 0.0)
    with pytest.raises(PreconditionError, match="needs L\\*T > 1"):
        dual_value(constant_martingale(lat, 1.0), vg)


def test_optimal_martingale_closes_the_gap(binary96):
    res = build_optimal_martingale(binary96["policy"])
    assert res.m0 == 1.0
    assert res.report.dual_value == 1.5
    assert res.report.primal == 1.5
    assert res.report.gap == 0.0
    assert res.report.label == "optimal"
    assert res.flags == []
    assert res.field is not None
    assert res.field.values[0][0] == 1.0
    assert res.field.validate() <= 1e-12


def test_optimal_martingale_diagnostics(binary96):
    res = build_optimal_martingale(binary96["policy"])
    assert sorted(res.diagnostics) == ["exit_envelope_match", "martingale_identity",
                                       "node_spread", "post_exit_dominance",
                                       "premart_vs_derivative"]
    assert res.diagnostics["node_spread"] == 0.0
    assert res.diagnostics["martingale_identity"] == 0.0
    assert res.diagnostics["post_exit_dominance"] == 0.0
    tol = 3.0 * binary96["tg"].dt * binary96["lat"].max_x()
    assert res.diagnostics["premart_vs_derivative"] <= tol


def test_optimal_martingale_is_x_under_martingale_cashflow(mart96):
    """When X itself is a martingale the construction must return X."""
    res = build_optimal_martingale(mart96["policy"])
    worst = max(float(np.max(np.abs(res.field.values[k] - mart96["lat"].x(k))))
                for k in range(97))
    assert worst <= 1e-12
    assert abs(res.report.gap) <= 1e-12
    assert res.flags == []


def test_optimal_martingale_constant_model():
    c = 1.25
    lat = build_binomial("constant", 48, 3.0, c=c)
    tg = TimeGrid(3.0, 48)
    vg = VolumeGrid.aligned(1.0, tg)
    res = build_optimal_martingale(extract_policy(lat, tg, vg))
    assert all(float(np.max(np.abs(res.field.values[k] - c))) == 0.0
               for k in range(49))
    assert res.report.gap == 0.0


def test_optimal_martingale_detects_path_dependence():
    lat = build_binomial("supermartingale", 48, 2.0, x0=1.0, up=1.02, down=0.97,
                         p_up=0.5)
    tg = TimeGrid(2.0, 48)
    vg = VolumeGrid.aligned(1.0, tg)
    policy = extract_policy(lat, tg, vg)
    with pytest.raises(ValueError, match="path-dependent"):
        build_optimal_martingale(policy)


def test_optimal_martingale_rejects_level_collision():
    lat, tg, vg = collision_lattice()
    policy = extract_policy(lat, tg, vg)
    with pytest.raises(ValueError, match="pre-exit volume level"):
        build_optimal_martingale(policy)


def test_gap_study_binary_is_exactly_tight():
    from swingkit import build_binary_example

    def make(K):
        tg = TimeGrid(3.0, K)
        return build_binary_example(K), tg, VolumeGrid.aligned(1.0, tg)

    rows = duality_gap_study(with_policy(make), [48, 96, 192])
    assert [r.K for r in rows] == [48, 96, 192]
    for r in rows:
        assert r.primal == 1.5
        assert abs(r.gap) <= 1e-12
        assert r.martingale.report.gap == r.gap
        assert len(r.martingale.node_values) == r.K + 1


def test_gap_study_martingale_family():
    def make(K):
        tg = TimeGrid(2.0, K)
        return make_exp_martingale(K), tg, VolumeGrid.aligned(1.0, tg)

    rows = duality_gap_study(with_policy(make), [24, 48])
    for r in rows:
        assert r.gap >= -1e-10
        assert abs(r.gap) <= 1e-12


def test_gap_study_rows_respect_weak_duality():
    from swingkit import build_binary_example

    def make(K):
        tg = TimeGrid(3.0, K)
        return build_binary_example(K), tg, VolumeGrid.aligned(1.0, tg)

    for row in duality_gap_study(with_policy(make), [24, 48]):
        assert row.dual >= row.primal - 1e-10


ARRIVAL = st.tuples(st.integers(0, 2), st.integers(0, 2),
                    st.one_of(st.just(0.0), st.floats(2.0 ** -30, 1.0)),
                    st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40))
def test_merged_means_lie_between_their_arrivals(arrivals):
    """_merge groups in first-seen order and sums in arrival order, so with
    normal products its means are sum(w*v) / sum(w) bit for bit. With the
    weights scaled by 2^-j, down into the subnormal range, every mean stays
    within [min, max] of its arrivals up to rounding, and keeps its bits
    while the scaled weights are normal."""
    a, b, w, v = map(np.array, zip(*arrivals))
    groups = {}
    for i, key in enumerate(zip(a.tolist(), b.tolist())):
        groups.setdefault(key, []).append(i)
    head, mass, mean, spread = _merge((a, b), w, v)
    assert head.tolist() == [idx[0] for idx in groups.values()]
    for g, idx in enumerate(groups.values()):
        ws, vs = w[idx], v[idx]
        assert bits(mass[g]) == bits(np.cumsum(ws)[-1])       # sequential sums
        assert bits(spread[g]) == bits(vs.max() - vs.min())
        want = np.cumsum(ws * vs)[-1] / mass[g] if mass[g] > 0 else vs[0]
        assert bits(mean[g]) == bits(want)
    for j in (1, 60, 1000, 1010, 1030, 1050, 1070):
        tiny = np.ldexp(w, -j)
        _, _, tmean, tspread = _merge((a, b), tiny, v)
        assert np.array_equal(bits(tspread), bits(spread))
        normal = np.all((w == 0) | (tiny >= np.finfo(float).tiny))
        for g, idx in enumerate(groups.values()):
            vs = v[idx]
            slack = (len(idx) + 2) * np.finfo(float).eps * np.abs(vs).max()
            assert vs.min() - slack <= tmean[g] <= vs.max() + slack, j
            if normal:
                assert bits(tmean[g]) == bits(mean[g])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2))
def test_state_table_matches_dict_machine_on_drawn_lattices(rows, j_cap):
    K = len(rows) - 1
    assume(K > j_cap)
    lat = ScenarioLattice.from_rows(rows)
    *_, policy = solved(lat, float(K), 1.0 / j_cap)
    assert_same_construction(policy)


def test_state_table_matches_dict_machine_at_k384():
    lat = make_exp_martingale(384)
    *_, policy = solved(lat, 2.0)
    assert_same_construction(policy)


def test_state_table_and_dict_machine_hit_the_cap_at_the_same_slice():
    lat = build_binomial("supermartingale", 48, 2.0, x0=1.0, up=1.02, down=0.97,
                         p_up=0.5)
    *_, policy = solved(lat, 2.0)
    msg = outcome(build_optimal_martingale, policy)
    assert msg.startswith("post-exit martingale is path-dependent beyond 200000 states "
                          "at slice 37;")
    assert msg == outcome(reference_optimal_martingale, policy)
