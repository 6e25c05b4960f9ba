from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingkit import (ExerciseRegions, InvariantError, ScenarioLattice, ThresholdScan,
                      ValueField, brute_force_value, build_binary_example, build_binomial,
                      check_inclusion, check_saturation, enumerate_paths, exercise_regions,
                      exit_times, extract_policy, mollified_iterate, optimal_predictable_stop,
                      rollout)

from conftest import (dense_go, feed, is_threshold, make_exp_martingale, region_masks,
                      rollout_steps, solved, tiny_lattice_rows)


def test_binary_policy_switches_at_the_jump(binary96):
    pol = binary96["policy"]
    # from y=0.5 the high branch starts exercising the moment X jumps to 2
    assert not pol.go(31, 0, 80)
    assert pol.go(32, 0, 80)
    assert not pol.go(32, 1, 80)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2), flat=st.booleans(),
       tie_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 1.0]))
def test_go_matches_the_dense_rule(rows, j_cap, flat, tie_tol):
    """go(k, nodes, pos) equals the dense (node x level) rule pos < cap and
    X + (J[pos+1] - J[pos]) / step >= -tie_tol, broadcast or one state at a
    time, whenever every row of that rule is a volume threshold that takes
    the full rate on and below the boundary; otherwise building the policy
    raises InvariantError. A constant X puts the whole band on a tie, which
    any tie_tol >= 1e-9 resolves to the full rate, while tie_tol = 0 leaves
    rounding to split the tie."""
    if flat:
        rows = [[replace(nd, x=rows[0][0].x) for nd in row] for row in rows]
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    wants = [dense_go(lat, k, field.row(k), vg, tie_tol) for k in range(K)]
    if not all(map(is_threshold, wants)):
        with pytest.raises(InvariantError, match="not a volume threshold"):
            extract_policy(lat, tg, vg, tie_tol)
        return
    if any(np.any(want.sum(axis=1) - 1 < vg.boundary_pos(k)) for k, want in enumerate(wants)):
        with pytest.raises(InvariantError, match="full rate not selected below the boundary"):
            extract_policy(lat, tg, vg, tie_tol)
        return
    pol = extract_policy(lat, tg, vg, tie_tol)
    for k, want in enumerate(wants):
        got = pol.go(k, np.arange(lat.n_nodes(k))[:, None], np.arange(vg.n_levels))
        assert np.array_equal(got, want)
        for n, p in np.ndindex(*want.shape):
            assert pol.go(k, n, p) == want[n, p]
        if flat and tie_tol >= 1e-9:
            assert want[:, :-1].all()


def test_extract_policy_rejects_a_non_threshold_row(binary96):
    """A dent in a stored band row makes the rate-L set skip a level; the
    policy is refused rather than read as a wrong threshold."""
    field, lat = binary96["field"], binary96["lat"]
    k, n = 60, 0
    assert binary96["policy"].thr[k][n] == field.volume_grid.cap_pos - 1
    band = [b.copy() for b in field.band]
    band[k][n, 1] -= 10.0
    broken = replace(field, band=band)
    with pytest.raises(InvariantError, match="slice 60 node 0 is not a volume threshold"):
        feed(broken, ThresholdScan(1e-9))


def test_extract_policy_rejects_a_bad_tie_tol(binary96, monkeypatch):
    """A bad tie_tol is refused before the model is solved."""
    import swingkit.policy

    def unsolved(*args):
        raise AssertionError("solved with a bad tie_tol")

    monkeypatch.setattr(swingkit.policy, "solve", unsolved)
    for bad in (np.nan, np.inf, -1.0, -1e-12):
        with pytest.raises(ValueError, match="tie_tol"):
            extract_policy(binary96["lat"], binary96["tg"], binary96["vg"], bad)


def test_submartingale_policy_is_the_late_window():
    from swingkit import build_binomial
    lat = build_binomial("submartingale", 48, 2.0, x0=1.0, drift=0.05, noise=0.02)
    tg, vg, field, pol = solved(lat, 2.0)
    levels = np.arange(vg.cap_pos)
    for k in range(48):
        b = vg.boundary_pos(k)
        want = np.zeros(vg.cap_pos, dtype=bool)
        want[:min(max(b + 1, 0), vg.cap_pos)] = True
        for n in range(lat.n_nodes(k)):
            assert np.array_equal(pol.go(k, n, levels), want)


def test_supermartingale_policy_exercises_immediately():
    from swingkit import build_binomial
    lat = build_binomial("supermartingale", 48, 2.0, x0=1.0, up=1.02, down=0.97, p_up=0.5)
    tg, vg, field, pol = solved(lat, 2.0)
    for k in range(48):
        nodes = np.arange(lat.n_nodes(k))[:, None]
        assert pol.go(k, nodes, np.arange(vg.cap_pos)).all()


def test_rollout_reproduces_value(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.5))
    assert b.mean == 0.875
    assert sorted(b.rewards.tolist()) == [0.8671875, 0.8828125]
    assert binary96["ens"].exhaustive
    b0 = rollout(binary96["policy"], binary96["ens"], (0, 0.0))
    assert b0.mean == 1.5


def test_rollout_path_bookkeeping(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.5))
    rates, incs = rollout_steps(b)
    assert b.positions.shape == (2, 97)
    assert rates.shape == incs.shape == (2, 96)
    assert b.nodes.shape == (2, 97)
    assert b.volumes.shape == (2, 97)
    for r in range(b.n_paths):
        assert b.rewards[r] == pytest.approx(incs[r].sum(), abs=1e-15)
        assert b.positions[r, 0] == 80
        # positions advance one pitch exactly when the rate is L
        steps = np.diff(b.positions[r])
        assert np.array_equal(steps == 1, rates[r] > 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2))
def test_rollout_from_a_node(rows, j_cap):
    """Rolled out from (k0, y0) over the exhaustive ensemble, the paths
    through each node at k0 earn their conditional value J[k0][node, pos0],
    up to the tie_tol a tie can cost per step, at every start."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg, vg, field, pol = solved(lat, float(K), 1.0 / j_cap)
    ens = enumerate_paths(lat)
    for k0 in range(K):
        for pos0 in range(vg.n_levels):
            b = rollout(pol, ens, (k0, vg.levels[pos0]))
            assert b.nodes is ens.nodes
            assert abs(b.weights.sum() - 1.0) <= 1e-12
            rates, incs = rollout_steps(b)
            assert np.array_equal(np.diff(b.positions, axis=1), (rates == vg.L).astype(int))
            assert b.rewards.tolist() == [row.sum() for row in incs]
            start = b.nodes[:, k0]
            mass = np.bincount(start, b.weights, minlength=lat.n_nodes(k0))
            assert np.all(mass > 0)   # every drawn node is reachable
            mean = np.bincount(start, b.weights * b.rewards, minlength=lat.n_nodes(k0)) / mass
            J = field.row(k0)[:, pos0]
            assert np.all(J - (K - k0) * vg.step * pol.tie_tol - 1e-12 <= mean)
            assert np.all(mean <= J + 1e-12)


@pytest.mark.parametrize("k0", [-1, 4, 5])
@pytest.mark.parametrize("caller", ["rollout", "brute_force_value", "mollified_iterate"])
def test_a_start_without_a_step_to_go_is_refused(caller, k0):
    """Every caller that takes a start index k0 refuses it outside 0..K-1
    with the same message."""
    lat = build_binomial("constant", 4, 1.0, c=1.0)
    _, vg, field, pol = solved(lat, 1.0)
    ens = enumerate_paths(lat)
    call = {"rollout": lambda: rollout(pol, ens, (k0, 0.0)),
            "brute_force_value": lambda: brute_force_value(lat, vg, (k0, 0.0)),
            "mollified_iterate": lambda: mollified_iterate(exercise_regions(field), ens,
                                                           (k0, 0.0), 1)}[caller]
    with pytest.raises(ValueError, match="^start index %d outside the grid$" % k0):
        call()


@pytest.mark.parametrize("k0", [0.5, 1.0])
@pytest.mark.parametrize("caller", ["rollout", "brute_force_value", "mollified_iterate",
                                    "optimal_predictable_stop"])
def test_a_start_index_that_is_not_an_integer_is_refused(caller, k0):
    """A start index is an int or a numpy integer: a float, even a whole
    one, is refused with a message that names it, before it indexes a
    slice."""
    lat = build_binomial("constant", 4, 1.0, c=1.0)
    _, vg, field, pol = solved(lat, 1.0)
    ens = enumerate_paths(lat)
    call = {"rollout": lambda: rollout(pol, ens, (k0, 0.0)),
            "brute_force_value": lambda: brute_force_value(lat, vg, (k0, 0.0)),
            "mollified_iterate": lambda: mollified_iterate(exercise_regions(field), ens,
                                                           (k0, 0.0), 1),
            "optimal_predictable_stop": lambda: optimal_predictable_stop(pol, (k0, 0.0),
                                                                         "can_raise")}[caller]
    with pytest.raises(ValueError, match="^start index %r is not an integer$" % k0):
        call()
    assert rollout(pol, ens, (np.int64(1), 0.0)).k0 == 1


def test_constant_rollout_reward_is_deterministic():
    from swingkit import build_binomial
    c = 1.25
    lat = build_binomial("constant", 24, 3.0, c=c)
    tg, vg, field, pol = solved(lat, 3.0)
    ens = enumerate_paths(lat)
    for y0 in (0.0, 0.5):
        b = rollout(pol, ens, (0, y0))
        want = c * min(1.0 - y0, vg.L * tg.T)
        for reward in b.rewards:
            assert reward == pytest.approx(want, abs=1e-12)


def test_inclusion_holds_along_rollout(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.5))
    rep = check_inclusion(b)
    assert rep["max_zero_side"] <= 1e-9
    assert rep["min_full_side"] >= -1e-9
    assert rep["max_zero_side"] == -0.03125
    assert rep["min_full_side"] == 0.0


def test_inclusion_reads_the_bundles_policy_and_tie_tol():
    """A policy extracted at tie_tol 0.5 takes the full rate where X + D is
    -0.5; the check reads that tolerance off the bundle's policy, and the
    same rates judged by a default-tolerance policy fail."""
    lat = build_binary_example(12)
    tg, vg, _, policy = solved(lat, 3.0)
    loose = rollout(extract_policy(lat, tg, vg, 0.5), enumerate_paths(lat), (0, 0.0))
    assert check_inclusion(loose) == {"max_zero_side": -0.625, "min_full_side": -0.5}
    with pytest.raises(InvariantError, match="full rate taken where X \\+ D = -0.5 < 0"):
        check_inclusion(replace(loose, policy=policy))


def test_saturation_in_and_out_of_region(binary96):
    b0 = rollout(binary96["policy"], binary96["ens"], (0, 0.0))
    assert check_saturation(b0) is True
    late = rollout(binary96["policy"], binary96["ens"], (90, 0.5))
    assert check_saturation(late) is False


def test_exit_times_from_half(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.5))
    ex = exit_times(b)
    assert ex.m_event
    assert ex.sigma.tolist() == [1.5, 2.5]
    assert ex.case_u.tolist() == [True, False]
    assert ex.k_sigma.tolist() == [48, 80]
    w = b.weights
    x_at = np.array([binary96["lat"].x(k)[int(row[k])]
                     for row, k in zip(b.nodes, ex.k_sigma)])
    assert float(w @ x_at) == 1.5


def test_exit_times_from_zero(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.0))
    ex = exit_times(b)
    assert ex.sigma.tolist() == [2.0, 2.0]
    assert ex.case_u.tolist() == [True, False]
    w = b.weights
    x_at = np.array([binary96["lat"].x(k)[int(row[k])]
                     for row, k in zip(b.nodes, ex.k_sigma)])
    assert float(w @ x_at) == 1.0


def test_exit_times_off_event(binary96):
    b = rollout(binary96["policy"], binary96["ens"], (0, 1.0))
    ex = exit_times(b)
    assert not ex.m_event
    assert ex.sigma.tolist() == [3.0, 3.0]
    assert ex.k_sigma.tolist() == [96, 96]


def test_exercise_regions_partition(binary96):
    regs = exercise_regions(binary96["field"])
    assert regs.sign[0][0, 80] == -1
    assert regs.positive(32)[0, 80]
    n_levels = binary96["vg"].n_levels
    for k in (0, 32, 60, 96):
        total = (regs.positive(k).sum() + (regs.sign[k] == -1).sum()
                 + (regs.sign[k] == 0).sum())
        assert total == binary96["lat"].n_nodes(k) * n_levels


def test_exercise_regions_ties_on_martingale(mart96):
    """X + D-J vanishes identically on a martingale cashflow: the zero set
    covers the whole undecided band."""
    regs = exercise_regions(mart96["field"])
    field = mart96["field"]
    for k in (0, 48, 95):
        m = region_masks(field, k)["interior"]
        assert np.all(regs.sign[k][:, m] == 0)
        deep = region_masks(field, k)["deep"]
        if deep.any():
            assert np.all(regs.sign[k][:, deep] == 1)


def test_exercise_regions_builds_dminus_once_per_slice(mart96, monkeypatch):
    calls = []
    dminus = ValueField.dminus

    def counted(self, k):
        calls.append(k)
        return dminus(self, k)

    monkeypatch.setattr(ValueField, "dminus", counted)
    exercise_regions(mart96["field"])
    assert calls == list(range(mart96["tg"].K))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=4), j_cap=st.integers(1, 6),
       tie_tol=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_exercise_regions_match_the_dminus_then_dplus_signs(rows, j_cap, tie_tol):
    """The sign table is that of X + dminus, with X + dplus where dminus is
    NaN (grids that stop at y = 0), dplus built as dminus shifted one column
    left with the top column repeated; the terminal slice is all zero."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    _, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    regs = exercise_regions(field, tie_tol)
    for k in range(K + 1):
        want = np.zeros((lat.n_nodes(k), vg.n_levels), dtype=np.int8)
        if k < K:
            x = lat.x(k)[:, None]
            dm = field.dminus(k)
            s = x + dm
            s = np.where(np.isnan(s), x + np.concatenate([dm[:, 1:], dm[:, -1:]], axis=1), s)
            want[s > tie_tol] = 1
            want[s < -tie_tol] = -1
        assert regs.sign[k].dtype == np.int8
        assert np.array_equal(regs.sign[k], want)


def test_mollified_pitches_and_clamping(binary96):
    regs = exercise_regions(binary96["field"])
    mcs = mollified_iterate(regs, binary96["ens"], (0, 0.5), 6)
    assert [mc.pitches for mc in mcs] == [16, 8, 4, 2, 1, 1]
    assert [mc.clamped for mc in mcs] == [False] * 5 + [True]
    assert [mc.window for mc in mcs] == [2.0 ** -n for n in range(1, 7)]


def test_mollified_trajectories_rise_to_the_rollout(binary96):
    regs = exercise_regions(binary96["field"])
    mcs = mollified_iterate(regs, binary96["ens"], (0, 0.5), 5)
    b = rollout(binary96["policy"], binary96["ens"], (0, 0.5))
    roll = b.volumes
    prev = None
    for mc in mcs:
        if prev is not None:
            assert float((mc.trajectories - prev).min()) >= 0.0
        prev = mc.trajectories
    dt = binary96["tg"].dt
    L = binary96["vg"].L
    assert np.max(np.abs(roll - mcs[3].trajectories)) <= 2.0 * L * dt
    assert np.max(np.abs(roll - mcs[4].trajectories)) == 0.0


def test_window_field_saturates_inside_a_solid_region(binary96):
    vg = binary96["vg"]
    K = binary96["tg"].K
    solid = [np.ones((binary96["lat"].n_nodes(k), vg.n_levels), dtype=np.int8)
             for k in range(K + 1)]
    regs = ExerciseRegions(binary96["field"], solid, 1e-9)
    mcs = mollified_iterate(regs, binary96["ens"], (0, 0.0), 3)
    for mc in mcs:
        m = mc.pitches
        band = mc.f[0][0, m:vg.n_levels - m]
        assert np.all(band == vg.L)


def test_empty_region_gives_zero_rate(binary96):
    vg = binary96["vg"]
    K = binary96["tg"].K
    hollow = [-np.ones((binary96["lat"].n_nodes(k), vg.n_levels), dtype=np.int8)
              for k in range(K + 1)]
    regs = ExerciseRegions(binary96["field"], hollow, 1e-9)
    mcs = mollified_iterate(regs, binary96["ens"], (0, 0.5), 2)
    for mc in mcs:
        assert all(np.all(fk == 0.0) for fk in mc.f)
        assert np.all(mc.trajectories == 0.5)


def binomial_pair():
    """K=12 binomials with the same shape and up/down moves: A a martingale
    (p_up 0.5), B a submartingale (p_up 0.7)."""
    return [build_binomial(kind, 12, 2.0, x0=1.0, up=1.25, down=0.75, p_up=p)
            for kind, p in (("martingale", 0.5), ("submartingale", 0.7))]


def test_rollout_refuses_an_ensemble_of_another_lattice():
    a, b = binomial_pair()
    policy = solved(a, 2.0)[3]
    own = rollout(policy, enumerate_paths(a), (0, 0.0))
    assert own.mean == pytest.approx(policy.field.at(0, 0, 0.0), abs=1e-12)
    with pytest.raises(ValueError, match="another lattice"):
        rollout(policy, enumerate_paths(b), (0, 0.0))
    with pytest.raises(ValueError, match="another lattice"):
        mollified_iterate(exercise_regions(policy.field), enumerate_paths(b),
                          (0, 0.0), 1)
