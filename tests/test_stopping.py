import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingkit import (Envelope, InvariantError, ScenarioLattice, StoppingRule, TimeGrid,
                      VolumeGrid, build_binary_example, build_binomial, enumerate_paths,
                      evaluate_stop_rule, exit_times, marginal_value_report,
                      optimal_predictable_stop, rollout, sample_paths)
from swingkit.models import ENVELOPE_TOL
from swingkit.solver import EXACT_TOL
from swingkit.stopping import _window_flags

from conftest import (make_exp_martingale, reference_stop_windows, reference_stopping_envelopes,
                      solved, tiny_lattice_rows, tiny_tree_rows)


@pytest.fixture()
def half_bundle(binary96):
    return rollout(binary96["policy"], binary96["ens"], (0, 0.5))


def doubled(lat):
    """A lattice of the same shape and probabilities paying twice lat's
    cashflow."""
    return ScenarioLattice([2.0 * lat.x(k) for k in range(lat.n_steps + 1)],
                           [lat.edges(k) for k in range(lat.n_steps)])


def test_snell_roots(binary96):
    lat = binary96["lat"]
    assert Envelope(lat, "max").values[0][0] == 2.0
    assert Envelope(lat, "min").values[0][0] == 0.0
    const = build_binomial("constant", 8, 1.0, c=0.7)
    assert Envelope(const, "max").values[0][0] == 0.7
    assert Envelope(const, "min").values[0][0] == 0.7


def test_an_envelope_takes_one_expectation_per_step(monkeypatch):
    """Building an envelope calls expect_next once per step and keeps each
    result as cont; check() and accumulate() read cont and call it no more."""
    for lat in (build_binary_example(12), make_exp_martingale(24)):
        ens = sample_paths(lat, n_paths=16, seed=1)
        calls = []
        real = lat.expect_next

        def counting(k, values_next):
            calls.append(k)
            return real(k, values_next)

        monkeypatch.setattr(lat, "expect_next", counting)
        for d in ("max", "min"):
            calls.clear()
            env = Envelope(lat, d)
            assert sorted(calls) == list(range(lat.n_steps))
            env.check()
            env.accumulate(ens)
            assert sorted(calls) == list(range(lat.n_steps))


def test_snell_invariants(binary96):
    lat = binary96["lat"]
    for d in ("max", "min"):
        rep = Envelope(lat, d).check()
        assert rep == {"dominance": 0.0, "drift": 0.0}


def test_snell_detects_corruption(binary96):
    lat = binary96["lat"]
    env = Envelope(lat, "max")
    env.values[10][0] = 0.0
    with pytest.raises(InvariantError, match="fails to dominate"):
        env.check()
    # building never checks: a continuation value off E[Y_41 | node] shows
    # as an off-centre increment mean in check()
    env = Envelope(lat, "max")
    env.cont[40][1] += 1e-6
    with pytest.raises(InvariantError, match="increment mean .* at slice 40 node 1"):
        env.check()


def test_stop_windows_exact_sets(half_bundle):
    """The node flags of each window, read along the high (row 0) and the
    low (row 1) branch."""
    b = half_bundle
    assert b.k0 == 0 and exit_times(b).m_event

    def opened(constraint, r):
        flags = _window_flags(b.policy, 0, b.pos0, constraint)
        return {m for m in range(1, 97) if flags[m][b.nodes[r, m]]}

    # high branch exercises on [1, 1.5): both windows pinch at the exit
    assert opened("can_raise", 0) == set(range(1, 33)) | set(range(48, 97))
    assert opened("can_lower", 0) == set(range(32, 49))
    assert opened("can_raise", 1) == set(range(1, 81))
    assert opened("can_lower", 1) == set(range(80, 97))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=tiny_tree_rows(), j_cap=st.integers(1, 2))
def test_window_flags_follow_the_per_path_rule_on_drawn_trees(rows, j_cap):
    """From every start of a drawn tiny tree, the node flags of the forward
    walk, gathered along each path of the exhaustive rollout, are that
    path's flags under the per-path rule."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    _, vg, _, policy = solved(lat, float(K), 1.0 / j_cap)
    ens = enumerate_paths(lat)
    for k0 in range(K):
        for y0 in vg.levels:
            b = rollout(policy, ens, (k0, y0))
            for constraint, want in reference_stop_windows(b).items():
                flags = _window_flags(policy, k0, b.pos0, constraint)
                for m in range(k0 + 1, K + 1):
                    assert np.array_equal(flags[m][b.nodes[:, m]], want[:, m])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=tiny_tree_rows(), j_cap=st.integers(1, 2))
def test_searches_are_bounded_by_the_envelopes_on_drawn_trees(rows, j_cap):
    """From every start of a drawn tiny tree, the can_raise search is worth
    at most the occupancy-weighted sup envelope and the can_lower search at
    least the inf one: the envelopes stop at any time, adapted. Each returned
    rule is predictable and evaluates to its value along the paths."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    _, vg, _, policy = solved(lat, float(K), 1.0 / j_cap)
    ens = enumerate_paths(lat)
    tol = ENVELOPE_TOL * max(1.0, lat.max_x())
    sup, inf = Envelope(lat, "max").values, Envelope(lat, "min").values
    searched = 0
    for k0 in range(K):
        for y0 in vg.levels:
            w = lat.occupancy()[k0]
            for constraint, sense, bound in (("can_raise", 1.0, w @ sup[k0]),
                                             ("can_lower", -1.0, w @ inf[k0])):
                try:
                    rule, v = optimal_predictable_stop(policy, (k0, y0), constraint)
                except ValueError as e:
                    assert "no admissible stopping rule" in str(e)
                    continue
                searched += 1
                assert sense * (v - bound) <= tol
                rule.check_predictable()
                assert abs(evaluate_stop_rule(rule, ens) - v) <= tol
    assert searched > 0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(rows=tiny_tree_rows(), j_cap=st.integers(1, 2), seed=st.integers(0, 99))
def test_search_columns_do_not_read_the_ensemble_on_drawn_trees(rows, j_cap, seed):
    """The search columns of the marginal table come from the policy and
    the tree alone: three sampled paths give the bits of the exhaustive
    ensemble at every start."""
    lat = ScenarioLattice.from_rows(rows, lce_declared=False)
    K = lat.n_steps
    _, vg, _, policy = solved(lat, float(K), 1.0 / j_cap)
    starts = [(float(k0), float(y0)) for k0 in range(K) for y0 in vg.levels]
    cols = [[(r.sup_raise.hex(), r.inf_lower.hex())
             for r in marginal_value_report(policy, ens, starts).rows]
            for ens in (enumerate_paths(lat), sample_paths(lat, n_paths=3, seed=seed))]
    assert cols[0] == cols[1]
    assert any(a != "nan" for a, _ in cols[0])


def test_constrained_searches_hit_the_marginal_values(binary96):
    lat, policy = binary96["lat"], binary96["policy"]
    rule_a, va = optimal_predictable_stop(policy, (0, 0.5), "can_raise")
    rule_b, vb = optimal_predictable_stop(policy, (0, 0.5), "can_lower")
    assert va == 1.5
    assert vb == 1.5
    assert rule_a.lattice is rule_b.lattice is lat
    rule_a.check_predictable()
    rule_b.check_predictable()
    ens = binary96["ens"]
    assert evaluate_stop_rule(rule_a, ens) == 1.5
    assert evaluate_stop_rule(rule_b, ens) == 1.5


def test_unconstrained_beats_constrained_strictly(binary96):
    """Dropping both the window constraint and predictability, which the
    sup envelope does, is worth exactly the 2 vs 1.5 difference here."""
    _, va = optimal_predictable_stop(binary96["policy"], (0, 0.5), "can_raise")
    vu = Envelope(binary96["lat"], "max").values[0][0]
    assert vu - va == 0.5


def test_named_rule_evaluates_to_seven_quarters(binary96):
    lat = binary96["lat"]
    stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(97)]
    stop[32][0] = True
    stop[80][1] = True
    rule = StoppingRule(lat, stop=stop, k0=0)
    assert evaluate_stop_rule(rule, binary96["ens"]) == 1.75


def test_predictability_check(binary96):
    lat = binary96["lat"]
    stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(97)]
    stop[32][0] = True
    stop[80][1] = True
    stop[96][:] = True
    bad = StoppingRule(lat, stop=stop, k0=0)
    with pytest.raises(InvariantError, match="varies across one parent's children"):
        bad.check_predictable()


def test_evaluate_requires_stopping(binary96):
    lat = binary96["lat"]
    stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(97)]
    rule = StoppingRule(lat, stop=stop, k0=0)
    with pytest.raises(ValueError, match="path 0 never stops"):
        evaluate_stop_rule(rule, binary96["ens"])


def test_search_rejections(binary96):
    """An unknown constraint, a start volume off the grid and a start with
    no step left are refused."""
    policy = binary96["policy"]
    for constraint in ("sometimes", None):
        with pytest.raises(ValueError, match="constraint must be 'can_raise' or 'can_lower'"):
            optimal_predictable_stop(policy, (0, 0.5), constraint)
    with pytest.raises(ValueError, match="start volume .* is off the grid"):
        optimal_predictable_stop(policy, (0, 0.5 + 1e-6), "can_raise")
    with pytest.raises(ValueError, match="start index 96 outside the grid"):
        optimal_predictable_stop(policy, (96, 0.5), "can_raise")


def test_search_needs_a_tree():
    lat = build_binomial("martingale", 4, 2.0, x0=1.0, up=1.25, down=0.8, p_up=4 / 9)
    tg = TimeGrid(2.0, 4)
    vg = VolumeGrid.aligned(1.0, tg)
    from swingkit import extract_policy
    pol = extract_policy(lat, tg, vg)
    with pytest.raises(ValueError, match="needs a tree lattice"):
        optimal_predictable_stop(pol, (0, 0.0), "can_raise")


def test_infeasible_constraint(binary96):
    policy = binary96["policy"]
    b = rollout(policy, binary96["ens"], (0, 1.0))
    assert not exit_times(b).m_event
    assert not any(flags.any() for flags in _window_flags(policy, 0, b.pos0, "can_lower"))
    with pytest.raises(ValueError, match="no admissible stopping rule"):
        optimal_predictable_stop(policy, (0, 1.0), "can_lower")


def assert_doob_split_on_a_tree(lat, tol=0.0):
    """On a tree the accumulated martingale part M is a function of the
    node, and along every path the compensator Y - M never rises for the sup
    envelope and never falls for the inf envelope (by more than tol)."""
    ens = enumerate_paths(lat)
    for d, sense in (("max", -1.0), ("min", 1.0)):
        env = Envelope(lat, d)
        assert env.direction == d
        acc = env.accumulate(ens)
        for k in range(lat.n_steps + 1):
            node_view = np.full(lat.n_nodes(k), np.nan)
            node_view[ens.nodes[:, k]] = acc[:, k]
            assert np.array_equal(node_view[ens.nodes[:, k]], acc[:, k])
        y = np.stack([env.values[k][ens.nodes[:, k]] for k in range(lat.n_steps + 1)], axis=1)
        assert (sense * np.diff(y - acc, axis=1)).min() >= -tol


def test_doob_decomposition_on_the_tree(binary96):
    assert_doob_split_on_a_tree(binary96["lat"])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(rows=tiny_tree_rows())
def test_doob_decomposition_on_drawn_trees(rows):
    """Drawn cashflows leave rounding in Y - M, so a step may go the wrong
    way by ENVELOPE_TOL times the largest cashflow."""
    lat = ScenarioLattice.from_rows(rows)
    assert_doob_split_on_a_tree(lat, ENVELOPE_TOL * max(1.0, lat.max_x()))


def test_doob_increments_are_centered(binary96):
    lat = binary96["lat"]
    dd = Envelope(lat, "max")
    for k in range(96):
        start, _, prob = lat.edges(k)
        mean = np.add.reduceat(prob * dd.increments(k), start[:-1])
        assert np.abs(mean).max() <= 1e-12


def test_envelope_accumulates_on_a_recombining_lattice():
    lat = build_binomial("martingale", 2, 2.0, x0=1.0, up=1.25, down=0.75, p_up=0.5)
    dd = Envelope(lat, "max")
    assert dd.check() == {"dominance": 0.0, "drift": 0.0}
    assert Envelope(lat, "min").check() == {"dominance": 0.0, "drift": 0.0}
    ens = enumerate_paths(lat)
    acc = dd.accumulate(ens)  # pathwise accumulation still works
    assert acc.shape == (4, 3)
    assert np.max(np.abs(ens.weights @ acc - acc[0, 0])) <= 1e-12


def test_envelope_accumulates_only_its_own_lattice():
    a = build_binary_example(6)
    env = Envelope(a, "max")
    assert env.accumulate(enumerate_paths(a)).shape == (2, 7)
    with pytest.raises(ValueError, match="another lattice"):
        env.accumulate(enumerate_paths(doubled(a)))


def test_a_rule_is_refused_on_another_lattice():
    """A rule carries the lattice it was found on: on the binary K=6 tree it
    evaluates to its search value, and an ensemble of a same-shape lattice
    paying twice the cashflow is refused rather than read."""
    a = build_binary_example(6)
    ens = enumerate_paths(a)
    rule, v = optimal_predictable_stop(solved(a, 3.0)[3], (0, 0.5), "can_raise")
    assert rule.lattice is a
    assert evaluate_stop_rule(rule, ens) == v == 1.5
    with pytest.raises(ValueError, match="another lattice"):
        evaluate_stop_rule(rule, enumerate_paths(doubled(a)))


def test_searches_read_the_windows_own_lattice():
    """On two same-shape trees, the second paying twice the first's cashflow,
    a policy carries the lattice of its field and the search reads it. A
    search that took the lattice apart from its windows returned 3.0 for
    the first tree's windows beside the second tree."""
    a = build_binary_example(6)
    for lat, want in ((a, 1.5), (doubled(a), 3.0)):
        policy = solved(lat, 3.0)[3]
        assert policy.field.lattice is lat
        assert optimal_predictable_stop(policy, (0, 0.5), "can_raise")[1] == want


def test_marginal_report_rejects_a_start_at_the_horizon(binary96):
    with pytest.raises(ValueError, match="start time 3 has no remaining horizon"):
        marginal_value_report(binary96["policy"], binary96["ens"], [(0.0, 0.5), (3.0, 0.5)])


def test_marginal_report_refuses_a_start_off_the_volume_grid(binary96):
    """A start within 1e-9 of the full-rate boundary level (-2 at t = 0)
    but off the volume grid is refused as the command line refuses it."""
    with pytest.raises(ValueError, match="start volume .* is off the grid"):
        marginal_value_report(binary96["policy"], binary96["ens"], [(0.0, -2.0 + 5e-10)])


def test_marginal_report_regions(binary96):
    rep = marginal_value_report(binary96["policy"], binary96["ens"],
                                [(0.0, 0.5), (0.0, 0.0), (2.0, 0.0), (2.5, 0.0),
                                 (0.0, 1.0)])
    assert rep.tol == 0.1875
    rows = {(r.t0, r.y0): r for r in rep.rows}

    r = rows[(0.0, 0.5)]
    assert r.region == "interior"
    assert r.dminus_neg == 1.484375
    assert r.dplus_neg == 1.515625
    assert r.ex_sigma == 1.5
    assert r.sup_raise == 1.5
    assert r.inf_lower == 1.5
    assert np.isnan(r.snell_sup) and np.isnan(r.snell_inf)

    r = rows[(0.0, 0.0)]
    assert r.region == "interior"
    assert (r.dminus_neg, r.ex_sigma, r.sup_raise, r.inf_lower) == (1.0, 1.0, 1.0, 1.0)

    r = rows[(2.0, 0.0)]
    assert r.region == "boundary"
    assert r.dminus_neg == 0.0
    assert r.snell_inf == 0.5
    assert abs(r.dplus_neg - r.snell_inf) <= rep.tol

    r = rows[(2.5, 0.0)]
    assert r.region == "deep"
    assert r.dminus_neg == 0.0 and r.dplus_neg == 0.0

    r = rows[(0.0, 1.0)]
    assert r.region == "cap"
    assert r.dminus_neg == 1.984375
    assert r.snell_sup == 2.0
    assert abs(r.dminus_neg - r.snell_sup) <= rep.tol


def test_marginal_report_table_format(binary96):
    rep = marginal_value_report(binary96["policy"], binary96["ens"], [(0.0, 0.5)])
    lines = rep.format_table().splitlines()
    assert lines[0].split() == ["t0", "y0", "region", "neg_dminus", "neg_dplus",
                                "ex_sigma", "sup_can_raise", "inf_can_lower",
                                "snell_sup", "snell_inf", "note"]
    assert lines[1].split()[:3] == ["0", "0.5", "interior"]
    assert lines[1].split()[-1] == "-"


def test_stopping_reads_an_ensemble_on_its_own_lattice():
    """marginal_value_report refuses an ensemble of another lattice than its
    policy's; evaluate_stop_rule reads the cashflows of the rule's own
    lattice and refuses an ensemble of another."""
    a, b = [build_binomial(kind, 12, 2.0, x0=1.0, up=1.25, down=0.75, p_up=p)
            for kind, p in (("martingale", 0.5), ("submartingale", 0.7))]
    policy = solved(a, 2.0)[3]
    ens_a, ens_b = enumerate_paths(a), enumerate_paths(b)
    assert marginal_value_report(policy, ens_a, [(0.0, 0.5)]).rows[0].region == "interior"
    with pytest.raises(ValueError, match="another lattice"):
        marginal_value_report(policy, ens_b, [(0.0, 0.5)])
    at_end = [StoppingRule(lat, [np.arange(lat.n_nodes(k)) >= 0 if k == 12
                                 else np.zeros(lat.n_nodes(k), dtype=bool) for k in range(13)],
                           k0=0) for lat in (a, b)]
    assert evaluate_stop_rule(at_end[0], ens_a) == pytest.approx(1.0, abs=1e-12)
    # E[X_12] on b: one-step factor 0.7 * 1.25 + 0.3 * 0.75 = 1.1
    assert evaluate_stop_rule(at_end[1], ens_b) == pytest.approx(1.1 ** 12, rel=1e-12)
    with pytest.raises(ValueError, match="another lattice"):
        evaluate_stop_rule(at_end[0], ens_b)


def assert_regional_identities(field):
    """-D-J at the cap is the sup envelope and, where the full-rate boundary
    lies below the cap, -D+J on it is the inf envelope, over the stops up to
    t_{K-1}, at every node of every slice k < K. Returns how many boundary
    slices were compared."""
    lat, vg = field.lattice, field.volume_grid
    sup, inf = reference_stopping_envelopes(lat)
    tol = EXACT_TOL * max(1.0, lat.max_x())
    n_boundary = 0
    for k in range(lat.n_steps):
        dm = field.dminus(k)
        assert np.abs(-dm[:, vg.cap_pos] - sup[k]).max() <= tol
        b = vg.boundary_pos(k)
        if 0 <= b < vg.cap_pos:
            assert np.abs(-dm[:, vg.right_of(b)] - inf[k]).max() <= tol
            n_boundary += 1
    return n_boundary


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 3))
def test_regional_identities_are_exact_on_drawn_lattices(rows, j_cap):
    lat = ScenarioLattice.from_rows(rows)
    assert_regional_identities(solved(lat, float(lat.n_steps), 1.0 / j_cap)[2])


def test_regional_identities_are_exact(binary96):
    """Binary K=96, the K=384 exp-martingale, a sub- and a supermartingale,
    and a grid with L*T <= 1 (whose boundary never leaves the grid)."""
    fields = [binary96["field"], solved(make_exp_martingale(384), 2.0)[2]]
    for kind, up, down in (("submartingale", 1.05, 0.96), ("supermartingale", 1.02, 0.97)):
        fields.append(solved(build_binomial(kind, 48, 2.0, x0=1.0, up=up, down=down), 2.0)[2])
    short = solved(make_exp_martingale(24, T=1.0), 1.0, 0.5)[2]
    assert short.volume_grid.L * short.time_grid.T <= 1
    fields.append(short)
    for field in fields:
        assert assert_regional_identities(field) > 0
