from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import swingkit.solver
from swingkit import (Envelope, InvariantError, InvariantScan, LatticeNode, ResidualScan,
                      ScenarioLattice, ThresholdScan, TimeGrid, ValueField, VolumeGrid,
                      boundary_check, build_binary_example, build_binomial, extract_policy, solve)

from conftest import (dense_go, feed, is_threshold, make_exp_martingale,
                      reference_bellman_residual, reference_boundary_check,
                      reference_check_value_invariants, reference_solve, region_masks, solved,
                      tiny_lattice_rows)


def test_volume_grid_anchors():
    tg = TimeGrid(3.0, 96)
    vg = VolumeGrid.aligned(1.0, tg)
    assert vg.j_cap == 32
    assert vg.j_min == -64
    assert vg.n_levels == 97
    assert vg.cap_pos == 96
    assert vg.index_of(0.0) == 64
    assert vg.index_of(0.5) == 80
    assert vg.index_of(1.0) == 96
    assert vg.step == 1.0 / 32
    assert vg.levels[vg.index_of(0.0)] == 0.0
    # full-rate boundary y = 1 - L*(T - t) hits the grid at every slice
    assert vg.boundary_pos(0) == 0
    assert vg.boundary_pos(96) == 96


def test_volume_grid_rejects_misalignment():
    tg = TimeGrid(3.0, 96)
    with pytest.raises(ValueError, match="misaligned"):
        VolumeGrid.aligned(0.7, tg)


@settings(derandomize=True, max_examples=30)
@given(j=st.integers(1, 60), K=st.integers(2, 40))
def test_volume_grid_alignment_property(j, K):
    """Any L with 1/(L*dt) integer is accepted and tiles [0,1] exactly."""
    tg = TimeGrid(2.0, K)
    L = 1.0 / (j * tg.dt)
    vg = VolumeGrid.aligned(L, tg)
    assert vg.j_cap == j
    assert vg.levels[vg.index_of(1.0)] == 1.0
    assert vg.levels[vg.index_of(0.0)] == 0.0


def test_solver_rejects_off_grid_start():
    tg = TimeGrid(3.0, 96)
    vg = VolumeGrid.aligned(1.0, tg)
    for y in (0.123, 1e308, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="off the grid"):
            vg.index_of(y)
    for t in (0.01, 1e308, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="off the grid"):
            tg.index_of(t)


def test_binary_value_anchors(binary96):
    field = binary96["field"]
    assert field.at(0, 0, 0.5) == 0.875
    assert field.at(0, 0, 0.0) == 1.5
    assert field.at(0, 0, 1.0) == 0.0


def test_constant_value_matches_closed_form_everywhere():
    c = 1.3
    lat = build_binomial("constant", 48, 3.0, c=c)
    tg, vg, field, _ = solved(lat, 3.0)
    worst = 0.0
    for k in range(49):
        t = tg.times[k]
        want = c * np.minimum(1.0 - vg.levels, vg.L * (tg.T - t))
        want = np.maximum(want, 0.0)
        worst = max(worst, float(np.max(np.abs(field.row(k)[0] - want))))
    assert worst <= 1e-12


def test_two_step_martingale_value():
    # X = 1 at every node, one unit of volume, two steps at full rate L=1
    lat = build_binomial("martingale", 2, 2.0, x0=1.0, up=1.25, down=0.75, p_up=0.5)
    tg, vg, field, _ = solved(lat, 2.0)
    assert field.at(0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_bellman_residual_implicit_is_exact(binary96):
    assert feed(binary96["field"], ResidualScan("implicit")) <= 1e-12
    lat = build_binomial("constant", 24, 3.0, c=1.0)
    tg = TimeGrid(3.0, 24)
    scan = ResidualScan("implicit")
    extract_policy(lat, tg, VolumeGrid.aligned(1.0, tg), 1e-9, None, scan)
    assert scan.result() <= 1e-12


def test_bellman_residual_explicit_is_order_dt(binary96):
    assert 0.0 < feed(binary96["field"], ResidualScan("explicit")) <= 5.0 * binary96["tg"].dt


def test_bellman_residual_rejects_unknown_form():
    with pytest.raises(ValueError, match="form must be"):
        ResidualScan("midpoint")


def test_boundary_identities_are_exact(binary96):
    rep = boundary_check(binary96["field"])
    assert rep.max_deep == 0.0
    assert rep.violations == []


def test_value_invariants_pass(binary96, mart96):
    for bundle in (binary96, mart96):
        ext = feed(bundle["field"], InvariantScan())
        assert set(ext) == {"monotone", "concavity", "lipschitz", "terminal"}
        assert ext["terminal"] == 0.0
        assert ext["monotone"] <= 1e-10
        assert ext["concavity"] <= 1e-10


def test_value_monotone_nonincreasing_in_volume(binary96):
    for k in range(97):
        dv = np.diff(binary96["field"].row(k), axis=1)
        assert dv.max() <= 1e-12


def test_derivative_anchors(binary96):
    field = binary96["field"]
    vg = binary96["vg"]
    assert -field.dminus(0)[0, vg.index_of(0.5)] == 1.484375
    assert -field.dplus(0)[0, vg.index_of(0.5)] == 1.515625
    # marginal value of the last unit approaches the best stopped cashflow
    assert abs(-field.dminus(0)[0, vg.cap_pos] - 2.0) < 0.1


def test_constant_derivative_is_flat():
    c = 0.8
    lat = build_binomial("constant", 24, 3.0, c=c)
    tg, vg, field, _ = solved(lat, 3.0)
    for k in range(24):
        m = region_masks(field, k)["interior"]
        if m.any():
            assert np.max(np.abs(-field.dminus(k)[0, m] - c)) <= 1e-12


def test_derivative_gap_is_concavity(binary96):
    for k in range(97):
        g = binary96["field"].dminus(k) - binary96["field"].dplus(k)
        g = g[np.isfinite(g)]
        assert g.min() >= -1e-10


def test_dminus_nan_when_grid_stops_at_zero():
    # L*T = 1: no levels below zero, left derivative undefined at the floor
    lat = build_binomial("constant", 4, 1.0, c=1.0)
    tg = TimeGrid(1.0, 4)
    vg = VolumeGrid.aligned(1.0, tg)
    assert vg.j_min == 0
    field = solve(lat, tg, vg)
    for k in range(5):
        assert np.all(np.isnan(field.dminus(k)[:, 0]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2))
def test_derivatives_match_a_dense_reference(rows, j_cap):
    """dminus/dplus are the column differences of J over the step, with the
    lowest left quotient 0 (grid below zero) or NaN and the top right
    quotient repeated. The point reads give the same bits as the slices."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    for k in range(K + 1):
        J = field.row(k)
        dm = np.full(J.shape, 0.0 if vg.j_min < 0 else np.nan)
        for p in range(1, vg.n_levels):
            dm[:, p] = (J[:, p] - J[:, p - 1]) / vg.step
        dp = dm.copy()
        dp[:, :-1] = dm[:, 1:]
        assert np.array_equal(field.dminus(k), dm, equal_nan=True)
        assert np.array_equal(field.dplus(k), dp, equal_nan=True)
        nodes, pos = np.arange(J.shape[0])[:, None], np.arange(vg.n_levels)
        assert np.array_equal(field.point(k, nodes, pos), J)
        assert np.array_equal(field.dminus_at(k, nodes, pos), dm, equal_nan=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2), c=st.floats(0.0, 3.0),
       a=st.floats(0.1, 10.0))
def test_shift_and_scale_identities(rows, j_cap, c, a):
    """For X >= 0 and L*T > 1: J(X + c) = J(X) + c*min(1 - y, L*(T - t)) and
    J(a*X) = a*J(X)."""
    K = len(rows) - 1
    assume(K > j_cap)

    def value(f):
        lat = ScenarioLattice.from_rows([[replace(nd, x=f(nd.x)) for nd in row] for row in rows])
        return solved(lat, float(K), 1.0 / j_cap)[2]

    field = value(lambda x: x)
    shifted = value(lambda x: x + c)
    scaled = value(lambda x: a * x)
    tg, vg = field.time_grid, field.volume_grid
    assert vg.L * tg.T > 1
    for k in range(K + 1):
        J = field.row(k)
        volume = np.minimum(1.0 - vg.levels, vg.L * (tg.T - tg.times[k]))
        np.testing.assert_allclose(shifted.row(k), J + c * volume, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(scaled.row(k), a * J, rtol=1e-13, atol=1e-12)


def test_lipschitz_dominates_derivative(binary96):
    """The sup Snell envelope z = Envelope(max).values bounds every volume
    derivative of J."""
    z = Envelope(binary96["lat"], "max").values
    c_max = max(float(v.max()) for v in z)
    for k in range(96):
        dm = binary96["field"].dminus(k)
        dm = dm[np.isfinite(dm)]
        assert np.max(-dm) <= c_max + 1e-10
    assert c_max == 2.0


def test_invariant_error_on_corrupted_field(binary96):
    """The slices are built on demand as new arrays, so writing into one
    leaves the field as it was; the corruption goes into a stored band
    entry: J then rises in y at slice 3."""
    field = binary96["field"]
    J = field.row(3)
    field.row(3)[0, 5] = 0.0
    assert np.array_equal(field.row(3), J)
    broken = replace(field, tail=[t.copy() for t in field.tail],
                     band=[b.copy() for b in field.band])
    broken.band[3][0, 1] = broken.band[3][0, 0] + 1.0
    with pytest.raises(InvariantError, match="J increases in y by 1 at slice 3"):
        feed(broken, InvariantScan())


def test_invariant_scan_refuses_a_nonzero_terminal_slice():
    """J vanishes at the horizon; a terminal slice flat at 0.5 in y passes
    the shape checks but not that one."""
    lat, tg = build_binary_example(12), TimeGrid(3.0, 12)
    field = solve(lat, tg, VolumeGrid.aligned(1.0, tg))
    J = np.full_like(field.row(12)[:, field.volume_grid.scan_start(12):], 0.5)
    scan = InvariantScan()
    scan(field, swingkit.solver.Slice(12, field.tail[12], field.band[12], J, None))
    with pytest.raises(InvariantError, match="^terminal values are not identically zero$"):
        scan.result()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2), flat=st.booleans(),
       tie_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1.0]))
def test_band_solve_matches_the_full_grid_reference(rows, j_cap, flat, tie_tol):
    """Every slice assembled from band and tail equals the full-grid solve bit
    for bit, and thr reproduces the dense rate-L rule on the reference slices,
    ties included. A rule that is not a threshold, or (tie_tol = 0 on a
    rounding tie) leaves the full rate below the boundary, is refused."""
    if flat:
        rows = [[replace(nd, x=rows[0][0].x) for nd in row] for row in rows]
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg = TimeGrid(float(K), K)
    vg = VolumeGrid.aligned(1.0 / j_cap, tg)
    field = solve(lat, tg, vg)
    ref = dict(reference_solve(lat, tg, vg))
    for k in range(K + 1):
        assert np.array_equal(field.row(k).view(np.int64), ref[k].view(np.int64))
    wants = [dense_go(lat, k, ref[k], vg, tie_tol) for k in range(K)]
    if not all(map(is_threshold, wants)):
        with pytest.raises(InvariantError, match="not a volume threshold"):
            extract_policy(lat, tg, vg, tie_tol)
        return
    thr_want = [want.sum(axis=1) - 1 for want in wants]
    if any(np.any(t < vg.boundary_pos(k)) for k, t in enumerate(thr_want)):
        with pytest.raises(InvariantError, match="full rate not selected"):
            extract_policy(lat, tg, vg, tie_tol)
        return
    thr = extract_policy(lat, tg, vg, tie_tol).thr
    for k, want in enumerate(thr_want):
        assert thr[k].dtype == np.int32
        assert np.array_equal(thr[k], want)


@pytest.fixture(scope="module")
def mart384():
    lat = make_exp_martingale(384)
    tg = TimeGrid(2.0, 384)
    vg = VolumeGrid.aligned(1.0, tg)
    return lat, tg, vg, solve(lat, tg, vg)


def test_band_solve_is_bitwise_on_exp_martingale_k384(mart384):
    lat, tg, vg, field = mart384
    policy = extract_policy(lat, tg, vg)
    for k, J in reference_solve(lat, tg, vg):
        assert np.array_equal(field.row(k).view(np.int64), J.view(np.int64))
        if k < tg.K:
            assert np.array_equal(policy.thr[k], dense_go(lat, k, J, vg, 1e-9).sum(axis=1) - 1)


def test_band_storage_is_under_40_percent_at_k384(mart384):
    lat, tg, vg, field = mart384
    full = sum(lat.n_nodes(k) * vg.n_levels * 8 for k in range(tg.K + 1))
    assert field.nbytes <= 0.4 * full
    assert field.nbytes == sum(a.nbytes for a in field.tail + field.band)


def test_solve_refuses_a_volume_grid_of_another_step_count():
    lat = build_binary_example(12)
    for K in (24, 6):
        with pytest.raises(ValueError, match="aligned to a different time grid"):
            solve(lat, TimeGrid(3.0, 12), VolumeGrid.aligned(1.0, TimeGrid(3.0, K)))


def test_volume_grid_rejects_an_infinite_rate_cap():
    for L in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="rate cap L must be positive and finite"):
            VolumeGrid.aligned(L, TimeGrid(2.0, 4))


def test_volume_grid_rejects_a_cap_beyond_the_int32_thresholds():
    """The policy stores one int32 threshold per node, so the cap position
    must fit int32: one past it (or 1e-10 on a 4-line file) would wrap the
    thresholds, and 1e-20 would overflow when they are stored."""
    tg = TimeGrid(3.0, 3)
    top = int(np.iinfo(np.int32).max)
    assert VolumeGrid.aligned(1.0 / top, tg).cap_pos == top
    for L in (1.0 / (top + 1), 1e-10, 1e-20):
        with pytest.raises(ValueError, match="beyond the int32 policy thresholds"):
            VolumeGrid.aligned(L, tg)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2), data=st.data())
def test_relabeling_a_slice_permutes_j_and_the_threshold(rows, j_cap, data):
    """Renumbering the nodes of one slice (and the child indices pointing at
    them, in the same edge order) permutes that slice of J and thr and leaves
    every other slice unchanged, bit for bit."""
    K = len(rows) - 1
    s = data.draw(st.integers(1, K))
    perm = data.draw(st.permutations(range(len(rows[s]))))
    inv = np.argsort(perm)
    moved = [list(row) for row in rows]
    moved[s] = [rows[s][i] for i in perm]
    moved[s - 1] = [replace(nd, children=tuple(int(inv[c]) for c in nd.children))
                    for nd in rows[s - 1]]
    _, vg, field, pol = solved(ScenarioLattice.from_rows(rows), float(K), 1.0 / j_cap)
    _, _, field2, pol2 = solved(ScenarioLattice.from_rows(moved), float(K), 1.0 / j_cap)
    for k in range(K + 1):
        order = perm if k == s else slice(None)
        assert np.array_equal(field2.row(k), field.row(k)[order])
        if k < K:
            assert np.array_equal(pol2.thr[k], pol.thr[k][order])


def bits(x):
    return np.float64(x).view(np.int64)


def assert_scans_match_reference(field):
    """The residual scan (both forms), boundary_check and the invariant scan
    give the reports of the reference scans bit for bit, or raise the same
    message."""
    for form in ("implicit", "explicit"):
        ref_form, ref_max = reference_bellman_residual(field, form)
        assert ref_form == form and bits(feed(field, ResidualScan(form))) == bits(ref_max)
    rep = boundary_check(field)
    ref_deep, ref_violations = reference_boundary_check(field)
    assert bits(rep.max_deep) == bits(ref_deep)
    assert [(kind, k, bits(err)) for kind, k, err in rep.violations] == \
        [(kind, k, bits(err)) for kind, k, err in ref_violations]
    try:
        want = reference_check_value_invariants(field)
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            feed(field, InvariantScan())
        assert str(got.value) == str(exc)
        return str(exc)
    got = feed(field, InvariantScan())
    assert got.keys() == want.keys()
    assert all(bits(got[key]) == bits(want[key]) for key in want)
    return None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=6), j_cap=st.integers(1, 8))
def test_verify_scans_match_the_reference_on_drawn_lattices(rows, j_cap):
    """Horizons up to 6 steps with j_cap up to 8 cover L*T below, at and
    above 1, and slices with several full-rate columns below the boundary."""
    lat = ScenarioLattice.from_rows(rows)
    tg = TimeGrid(float(lat.n_steps), lat.n_steps)
    assert_scans_match_reference(solve(lat, tg, VolumeGrid.aligned(1.0 / j_cap, tg)))


@pytest.mark.parametrize("j_cap, j_min, floor", [
    (9, 0, np.nan),   # L*T = 2/3: the boundary starts above y = 0
    (6, 0, np.nan),   # L*T = 1: the boundary starts at y = 0
    (2, -4, 0.0),     # L*T = 3: the grid extends below y = 0
])
def test_verify_scans_match_the_reference_for_each_regime_of_lt(j_cap, j_min, floor):
    lat = make_exp_martingale(6, T=6.0)
    tg = TimeGrid(6.0, 6)
    vg = VolumeGrid.aligned(1.0 / j_cap, tg)
    assert vg.j_min == j_min
    field = solve(lat, tg, vg)
    assert np.array_equal(field.dminus(3)[:, 0], np.full(lat.n_nodes(3), floor), equal_nan=True)
    assert vg.boundary_pos(0) == max(j_cap - 6, 0)
    assert assert_scans_match_reference(field) is None


def test_verify_scans_match_the_reference_on_exp_martingale_k384(mart384):
    assert assert_scans_match_reference(mart384[3]) is None


def dented(field):
    return replace(field, tail=[t.copy() for t in field.tail],
                   band=[b.copy() for b in field.band])


@pytest.mark.parametrize("rise, prefix", [
    (True, "J increases in y by 1 "),
    (False, "J is non-concave in y by "),
])
def test_a_band_dent_is_reported_at_the_same_slice(mart96, rise, prefix):
    """A dent in one stored band entry is found at its slice, with the
    message of the reference scan; the residual and boundary reports still
    agree, and the residual is far above verify's 1e-10."""
    broken = dented(mart96["field"])
    band = broken.band[40]
    band[3, 5] = band[3, 4] + 1.0 if rise else band[3, 5] - 1e-3
    message = assert_scans_match_reference(broken)
    assert message.startswith(prefix) and message.endswith(" at slice 40")
    assert feed(broken, ResidualScan("implicit")) > 1e-4


@pytest.mark.parametrize("k, node", [(40, 3), (0, 0), (95, 10)])
def test_a_tail_dent_is_reported_as_the_same_deep_violation(mart96, k, node):
    """A dent in one stored tail entry is the one deep violation, with the
    error of the full-row reference."""
    broken = dented(mart96["field"])
    broken.tail[k][node] += 1e-6
    assert [(kind, j) for kind, j, _ in boundary_check(broken).violations] == [("deep", k)]
    assert_scans_match_reference(broken)


def test_scans_build_no_more_than_the_band_plus_four_columns(mart96, monkeypatch):
    """The sweep builds one row per slice, the stored band plus at most four
    columns, and the scans fed it (the thresholds, the invariants and both
    residual forms) build no row of their own; boundary_check reads only the
    stored tail and builds nothing."""
    lat, tg, vg, field = mart96["lat"], mart96["tg"], mart96["vg"], mart96["field"]
    band = sum(b.size for b in field.band)
    column = sum(t.size for t in field.tail)
    built = []
    row = swingkit.solver._row

    def counted(*args):
        out = row(*args)
        built.append(out.size)
        return out

    def refused(self, k):
        raise AssertionError("a scan built slice %d" % k)

    monkeypatch.setattr(swingkit.solver, "_row", counted)
    monkeypatch.setattr(ValueField, "row", refused)
    extract_policy(lat, tg, vg, 1e-9, {0}, InvariantScan(), ResidualScan("implicit"),
                   ResidualScan("explicit"))
    assert len(built) == tg.K + 1 and sum(built) <= band + 4 * column
    built.clear()
    boundary_check(field)
    assert built == []


def scan_outcome(result):
    """result(), or the message of the InvariantError it raises."""
    try:
        return result()
    except InvariantError as exc:
        return str(exc)


def same_outcome(a, b):
    """Bitwise equality of two scan outcomes: messages, thresholds,
    invariant extremes or largest residuals."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bits(a[key]) == bits(b[key]) for key in a)
    return bits(a) == bits(b)


def assert_shared_row_matches_each_scan_alone(lat, tg, vg, tie_tol):
    """solve feeding the thresholds, the invariants and both residual forms
    at once, so they share each slice's difference row, gives what each scan
    fed alone through feed gives."""
    def scans():
        return [ThresholdScan(tie_tol), InvariantScan(), ResidualScan("implicit"),
                ResidualScan("explicit")]

    together = scans()
    field = solve(lat, tg, vg, None, *together)
    for shared, alone in zip(together, scans()):
        assert same_outcome(scan_outcome(shared.result),
                            scan_outcome(lambda: feed(field, alone)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=6), j_cap=st.integers(1, 8),
       tie_tol=st.sampled_from([0.0, 1e-9]))
def test_scans_sharing_the_difference_row_match_each_scan_alone(rows, j_cap, tie_tol):
    lat = ScenarioLattice.from_rows(rows)
    tg = TimeGrid(float(lat.n_steps), lat.n_steps)
    assert_shared_row_matches_each_scan_alone(lat, tg, VolumeGrid.aligned(1.0 / j_cap, tg),
                                              tie_tol)


@pytest.mark.parametrize("tie_tol", [0.0, 1e-9])
def test_scans_sharing_the_difference_row_match_each_scan_alone_at_k96(mart96, tie_tol):
    """With tie_tol = 0 the rounding noise on the exact ties of the
    martingale cashflow makes the thresholds fail; the messages agree too."""
    assert_shared_row_matches_each_scan_alone(mart96["lat"], mart96["tg"], mart96["vg"],
                                              tie_tol)


def single_node_chain(K, x_at, lce_declared):
    """One node per slice on T = 1.5, paying x_at(k, t_k) at slice k."""
    times = TimeGrid(1.5, K).times
    rows = [[LatticeNode(float(x_at(k, t)), (0,), (1.0,))] for k, t in enumerate(times[:-1])]
    rows.append([LatticeNode(float(x_at(K, times[-1])))])
    return ScenarioLattice.from_rows(rows, lce_declared)


def sup_interior_gap(field):
    """sup of D-J - D+J over k < K and the positions strictly between the
    full-rate boundary and the cap."""
    vg, gap = field.volume_grid, -np.inf
    for k in range(field.time_grid.K):
        d = (field.dminus(k) - field.dplus(k))[:, max(vg.boundary_pos(k) + 1, 0):vg.cap_pos]
        gap = max(gap, float(d.max(initial=-np.inf)))
    return gap


@pytest.mark.parametrize("K", [12, 24, 48, 96, 192])
def test_the_lce_hypothesis_decides_whether_the_volume_derivative_gap_closes(K):
    """Under LCE (the ramp X = 1 + t) the one-sided volume derivatives differ
    by exactly slope * dt = 1.5 / K, so J becomes C1 in the volume as K
    grows; a deterministic jump of 1 at t = 1 (not LCE) keeps the gap at
    the jump size at every K."""
    ramp = single_node_chain(K, lambda k, t: 1.0 + t, True)
    jump = single_node_chain(K, lambda k, t: 2.0 if 3 * k >= 2 * K else 1.0, False)
    assert sup_interior_gap(solved(ramp, 1.5)[2]) == 1.5 / K
    assert sup_interior_gap(solved(jump, 1.5)[2]) == 1.0
