import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingkit import (PreconditionError, ScenarioLattice, TimeGrid, VolumeGrid,
                      brute_force_value, build_binary_example, build_binomial, closed_form,
                      solve)

from conftest import random_tiny_lattice, solved, tiny_lattice_rows


def test_enumeration_matches_solver_on_small_binary():
    lat = build_binary_example(6)
    tg = TimeGrid(3.0, 6)
    vg = VolumeGrid.aligned(1.0, tg)
    field = solve(lat, tg, vg)
    res = brute_force_value(lat, vg, start=(0, 0.0))
    assert res.value == 1.5
    assert field.at(0, 0, 0.0) == 1.5
    assert res.n_decision_points == 19
    assert res.n_policies == 2 ** 19
    half = brute_force_value(lat, vg, start=(0, 0.5))
    assert half.value == 0.875
    assert field.at(0, 0, 0.5) == 0.875


def test_enumeration_two_step_martingale():
    """Any adapted schedule of a single unit has the same mean under a
    martingale cashflow, so the brute-force optimum equals x0."""
    lat = build_binomial("martingale", 2, 2.0, x0=1.0, up=1.25, down=0.75, p_up=0.5)
    tg = TimeGrid(2.0, 2)
    vg = VolumeGrid.aligned(1.0, tg)
    res = brute_force_value(lat, vg)
    assert res.value == 1.0
    assert solve(lat, tg, vg).at(0, 0, 0.0) == 1.0


def test_enumeration_two_step_submartingale():
    lat = build_binomial("submartingale", 2, 2.0, x0=2.0, drift=0.5, noise=0.5)
    tg = TimeGrid(2.0, 2)
    vg = VolumeGrid.aligned(1.0, tg)
    res = brute_force_value(lat, vg)
    assert res.value == 2.5
    assert solve(lat, tg, vg).at(0, 0, 0.0) == 2.5
    assert closed_form("submartingale", lat, tg, vg, 0.0, 0.0) == 2.5


def test_enumeration_constant():
    lat = build_binomial("constant", 3, 3.0, c=1.0)
    tg = TimeGrid(3.0, 3)
    vg = VolumeGrid.aligned(1.0, tg)
    assert brute_force_value(lat, vg).value == 1.0


def test_enumeration_refuses_a_grid_of_another_step_count():
    lat = build_binomial("constant", 3, 3.0, c=1.0)
    with pytest.raises(ValueError, match="aligned to a different time grid"):
        brute_force_value(lat, VolumeGrid.aligned(1.0, TimeGrid(4.0, 4)))


def test_enumeration_policy_cap():
    lat = build_binary_example(6)
    tg = TimeGrid(3.0, 6)
    vg = VolumeGrid.aligned(1.0, tg)
    with pytest.raises(PreconditionError, match="above the cap"):
        brute_force_value(lat, vg, max_policies=4)


def test_enumeration_matches_solver_on_random_lattices():
    worst = 0.0
    for seed in range(8):
        lat, tg, vg = random_tiny_lattice(seed)
        res = brute_force_value(lat, vg)
        field = solve(lat, tg, vg)
        worst = max(worst, abs(res.value - field.at(0, 0, 0.0)))
    assert worst <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 2))
def test_enumeration_matches_solver_on_drawn_lattices(rows, j_cap):
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg, vg, field, _ = solved(lat, float(K), 1.0 / j_cap)
    assert abs(brute_force_value(lat, vg).value - field.at(0, 0, 0.0)) <= 1e-12


def test_closed_form_example():
    lat = build_binary_example(6)
    tg = TimeGrid(3.0, 6)
    vg = VolumeGrid.aligned(1.0, tg)
    assert closed_form("example", lat, tg, vg, 0.0, 0.5) == 0.875
    assert closed_form("example", lat, tg, vg, 0.0, 0.0) == 1.5
    assert closed_form("example", lat, tg, vg, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="valid for t in"):
        closed_form("example", lat, tg, vg, 1.5, 0.0)
    with pytest.raises(ValueError, match="off the grid"):
        closed_form("example", lat, tg, vg, 0.3, 0.0)


def test_closed_form_constant_needs_level():
    lat = build_binomial("constant", 3, 3.0, c=1.0)
    tg = TimeGrid(3.0, 3)
    vg = VolumeGrid.aligned(1.0, tg)
    with pytest.raises(ValueError, match="needs the level"):
        closed_form("constant", lat, tg, vg, 0.0, 0.0)
    assert closed_form("constant", lat, tg, vg, 1.0, 0.0, c=2.0) == 2.0 * min(1.0, 2.0)


def test_closed_form_submartingale_matches_solver():
    lat = build_binomial("submartingale", 16, 2.0, x0=3.0, drift=0.2, noise=0.1)
    tg, vg, field, _ = solved(lat, 2.0)
    for y in (0.0, 0.5):
        want = closed_form("submartingale", lat, tg, vg, 0.0, y)
        assert abs(field.at(0, 0, y) - want) <= 1e-10


def test_closed_form_supermartingale_matches_solver():
    lat = build_binomial("supermartingale", 16, 2.0, x0=3.0, up=1.02, down=0.95, p_up=0.5)
    tg, vg, field, _ = solved(lat, 2.0)
    for y in (0.0, 0.5):
        want = closed_form("supermartingale", lat, tg, vg, 0.0, y)
        assert abs(field.at(0, 0, y) - want) <= 1e-10


def test_closed_form_unknown_kind():
    lat = build_binomial("constant", 3, 3.0, c=1.0)
    tg = TimeGrid(3.0, 3)
    vg = VolumeGrid.aligned(1.0, tg)
    with pytest.raises(ValueError):
        closed_form("linear", lat, tg, vg, 0.0, 0.0)
