from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swingkit import (InvariantError, ScenarioLattice, TimeGrid, VolumeGrid,
                      bellman_residual, boundary_check, build_binary_example,
                      build_binomial, check_value_invariants, lipschitz_diagnostic,
                      solve)

from conftest import make_exp_martingale, solved, tiny_lattice_rows


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
        worst = max(worst, float(np.max(np.abs(field.values[k][0] - want))))
    assert worst <= 1e-12


def test_two_step_martingale_value():
    # X = 1 at every node, one unit of volume, two steps at full rate L=1
    lat = build_binomial("martingale", 2, 2.0, x0=1.0, up=1.25, down=0.75, p_up=0.5)
    tg, vg, field, _ = solved(lat, 2.0)
    assert field.at(0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_bellman_residual_implicit_is_exact(binary96):
    rep = bellman_residual(binary96["field"], binary96["lat"], "implicit")
    assert rep.form == "implicit"
    assert rep.max_abs <= 1e-12
    lat = build_binomial("constant", 24, 3.0, c=1.0)
    tg, vg, field, _ = solved(lat, 3.0)
    assert bellman_residual(field, lat, "implicit").max_abs <= 1e-12


def test_bellman_residual_explicit_is_order_dt(binary96):
    rep = bellman_residual(binary96["field"], binary96["lat"], "explicit")
    assert 0.0 < rep.max_abs <= 5.0 * binary96["tg"].dt


def test_bellman_residual_rejects_unknown_form(binary96):
    with pytest.raises(ValueError, match="form must be"):
        bellman_residual(binary96["field"], binary96["lat"], "midpoint")


def test_boundary_identities_are_exact(binary96):
    rep = boundary_check(binary96["field"], binary96["lat"])
    assert rep.max_deep == 0.0
    assert rep.max_cap == 0.0
    assert rep.violations == []


def test_value_invariants_pass(binary96, mart96):
    for bundle in (binary96, mart96):
        ext = check_value_invariants(bundle["field"], bundle["lat"])
        assert set(ext) == {"monotone", "concavity", "lipschitz", "terminal", "cap"}
        assert ext["terminal"] == 0.0
        assert ext["cap"] == 0.0
        assert ext["monotone"] <= 1e-10
        assert ext["concavity"] <= 1e-10


def test_value_monotone_nonincreasing_in_volume(binary96):
    for k in range(97):
        dv = np.diff(binary96["field"].values[k], axis=1)
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
        m = field.region_masks(k)["interior"]
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
    quotient repeated."""
    lat = ScenarioLattice.from_rows(rows).validate()
    K = lat.n_steps
    tg, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    for k in range(K + 1):
        J = field.values[k]
        dm = np.full(J.shape, 0.0 if vg.j_min < 0 else np.nan)
        for p in range(1, vg.n_levels):
            dm[:, p] = (J[:, p] - J[:, p - 1]) / vg.step
        dp = dm.copy()
        dp[:, :-1] = dm[:, 1:]
        assert np.array_equal(field.dminus(k), dm, equal_nan=True)
        assert np.array_equal(field.dplus(k), dp, equal_nan=True)


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
        return solved(lat.validate(), float(K), 1.0 / j_cap)[2]

    field = value(lambda x: x)
    shifted = value(lambda x: x + c)
    scaled = value(lambda x: a * x)
    tg, vg = field.time_grid, field.volume_grid
    assert vg.L * tg.T > 1
    for k in range(K + 1):
        J = field.values[k]
        volume = np.minimum(1.0 - vg.levels, vg.L * (tg.T - tg.times[k]))
        np.testing.assert_allclose(shifted.values[k], J + c * volume, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(scaled.values[k], a * J, rtol=1e-13, atol=1e-12)


def test_lipschitz_dominates_derivative(binary96):
    diag = lipschitz_diagnostic(binary96["lat"])
    for k in range(96):
        dm = binary96["field"].dminus(k)
        dm = dm[np.isfinite(dm)]
        assert np.max(-dm) <= diag.c_max + 1e-10
    assert diag.c_max == 2.0


def test_invariant_error_on_corrupted_field(binary96):
    field = binary96["field"]
    broken = type(field)(field.time_grid, field.volume_grid,
                         [v.copy() for v in field.values])
    broken.values[3][0, 5] = broken.values[3][0, 4] + 1.0
    with pytest.raises(InvariantError):
        check_value_invariants(broken, binary96["lat"])
