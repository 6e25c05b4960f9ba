"""A mutation matrix for `swingkit verify`: one targeted defect per report
line, each of which that line must report as FAIL or ERROR.

Every defect is injected with monkeypatch into a run of `cli.cmd_verify`:
either into the slices that the solve's sweep hands its scans, or into the
objects that the solve stores. The report must still list every line, in
order, and `cmd_verify` must return 2.
"""

import ast
import pathlib

import numpy as np
import pytest

import swingkit.cli as cli
import swingkit.solver as solver
from swingkit import PolicyField, enumerate_paths, rollout
from swingkit.solver import Slice

from conftest import exp_martingale_keys
from test_source import verify_line_names

LINES = ("value_invariants", "bellman_residual", "boundary_identities", "policy_rollout",
         "snell_envelopes", "enumeration_oracle", "weak_duality", "optimal_martingale",
         "marginal_values")

# K=48, T=2, L=1: j_cap = 24, j_min = -24, boundary_pos(k) = k, position of y = 0 is 24
EXP48 = exp_martingale_keys(48)
# the two-branch example: the threshold defect below lands where X + D = 0.0625, not on a tie
BINARY48 = "model=binary\nK=48\n"


def parse(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return cli.parse_config(str(path))


def verify(tmp_path, text):
    """(exit code, [(status, name)]) of cmd_verify on the configuration text."""
    out = tmp_path / "out"
    rc = cli.cmd_verify(parse(tmp_path, text), str(out))
    lines = (out / "report.txt").read_text().splitlines()
    return rc, [tuple(line.split(":", 1)[0].split(" ", 1)) for line in lines]


def assert_reported(tmp_path, text, name):
    rc, report = verify(tmp_path, text)
    assert [n for _, n in report] == list(LINES)
    assert dict((n, s) for s, n in report)[name] in ("FAIL", "ERROR"), report
    assert rc == 2


def dent_sweep(monkeypatch, k, part, col, delta):
    """The solve's sweep hands its scans slice k with a copy of part ("J" or
    "ej") raised by delta in column col; the recursion itself and the stored
    field are untouched."""
    real = solver._recursion

    def dented(*args):
        for s in real(*args):
            if s.k == k:
                arrays = {"J": s.J, "ej": s.ej}
                arrays[part] = arrays[part].copy()
                arrays[part][:, col] += delta
                s = Slice(s.k, s.tail, s.band, arrays["J"], arrays["ej"])
            yield s

    monkeypatch.setattr(solver, "_recursion", dented)


def after_solve(monkeypatch, corrupt):
    """corrupt(policy) runs on the policy of every solve the CLI makes and
    returns the policy the CLI goes on with."""
    real = cli.extract_policy
    monkeypatch.setattr(cli, "extract_policy", lambda *args: corrupt(real(*args)))


def nudge_band(field, k, node, pos, delta):
    """Raise the stored band entry of J at (k, node, pos) by delta, in a copy."""
    band = field.band[k].copy()
    band[node, pos - field.volume_grid.n_tail(k)] += delta
    field.band[k] = band


def test_a_dented_row_fails_value_invariants(tmp_path, monkeypatch):
    """Slice 40's row starts at scan_start = 38, below the boundary position
    40 from which the thresholds are read, so the policy is unchanged."""
    dent_sweep(monkeypatch, 40, "J", 0, 1e-3)
    assert_reported(tmp_path, EXP48, "value_invariants")


def test_a_dented_expectation_fails_bellman_residual(tmp_path, monkeypatch):
    """E[J_41 | node] of slice 40, which only the residual reads, is raised
    at position 42."""
    dent_sweep(monkeypatch, 40, "ej", 42 - 39, 1e-3)
    assert_reported(tmp_path, EXP48, "bellman_residual")


def test_a_nudged_tail_fails_boundary_identities(tmp_path, monkeypatch):
    """Fails only on a corrupted stored object: the stored tail[30] is
    nudged after the sweep that built it."""
    def corrupt(policy):
        tail = policy.field.tail[30].copy()
        tail[7] += 1e-6
        policy.field.tail[30] = tail
        return policy

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, EXP48, "boundary_identities")


def test_a_threshold_off_by_one_fails_policy_rollout(tmp_path, monkeypatch):
    """Fails only on a corrupted stored object: at the first state where the
    (0, 0) rollout exercises at its threshold, the threshold is lowered by
    one, so the rollout stops exercising there."""
    def corrupt(policy):
        bundle = rollout(policy, enumerate_paths(policy.field.lattice), (0, 0.0))
        thr = [t.copy() for t in policy.thr]
        for k in range(len(thr)):
            n, pos = bundle.nodes[:, k], bundle.positions[:, k]
            at = np.flatnonzero(pos == thr[k][n])
            if at.size:
                thr[k][n[at[0]]] -= 1
                return PolicyField(policy.field, policy.tie_tol, thr)
        raise AssertionError("the rollout never exercises at a threshold")

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, BINARY48, "policy_rollout")


def test_an_envelope_value_below_x_fails_snell_envelopes(tmp_path, monkeypatch):
    """Fails only on a corrupted stored object: one cached value of the sup
    envelope is pushed below X after the solve."""
    def corrupt(policy):
        lattice = policy.field.lattice
        env = lattice.envelope("max")
        values = env.values[20].copy()
        values[5] = lattice.x(20)[5] - 1e-3
        env.values[20] = values
        return policy

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, EXP48, "snell_envelopes")


def test_a_nudged_start_value_fails_enumeration_oracle(tmp_path, monkeypatch):
    """Fails only on a corrupted stored object: J(0, 0) of a K = 4 lattice,
    at position 2 of slice 0, is nudged after the solve."""
    def corrupt(policy):
        nudge_band(policy.field, 0, 0, 2, 1e-6)
        return policy

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, exp_martingale_keys(4), "enumeration_oracle")


@pytest.mark.parametrize("name", ["weak_duality", "optimal_martingale"])
def test_a_start_value_above_the_bound_fails_the_dual_lines(tmp_path, monkeypatch, name):
    """Fails only on a corrupted stored object: J(0, 0) is raised by 10,
    above the bound of the gap-closing martingale and of at least one of
    the ten random ones."""
    def corrupt(policy):
        nudge_band(policy.field, 0, 0, 24, 10.0)
        return policy

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, EXP48, name)


def test_a_nudged_interior_start_fails_marginal_values(tmp_path, monkeypatch):
    """Fails only on a corrupted stored object: the lattice declares LCE, and
    J at the interior start (t, y) = (1, 0.5), slice 24 position 36, is
    raised by 1 at the middle node after the solve."""
    def corrupt(policy):
        nudge_band(policy.field, 24, 12, 36, 1.0)
        return policy

    after_solve(monkeypatch, corrupt)
    assert_reported(tmp_path, EXP48 + "starts=1:0.5\n", "marginal_values")


MATRIX = {
    "value_invariants": test_a_dented_row_fails_value_invariants,
    "bellman_residual": test_a_dented_expectation_fails_bellman_residual,
    "boundary_identities": test_a_nudged_tail_fails_boundary_identities,
    "policy_rollout": test_a_threshold_off_by_one_fails_policy_rollout,
    "snell_envelopes": test_an_envelope_value_below_x_fails_snell_envelopes,
    "enumeration_oracle": test_a_nudged_start_value_fails_enumeration_oracle,
    "weak_duality": test_a_start_value_above_the_bound_fails_the_dual_lines,
    "optimal_martingale": test_a_start_value_above_the_bound_fails_the_dual_lines,
    "marginal_values": test_a_nudged_interior_start_fails_marginal_values,
}


def test_every_verify_line_has_a_mutation():
    assert verify_line_names(ast.parse(pathlib.Path(cli.__file__).read_text())) == list(LINES)
    assert list(MATRIX) == list(LINES)


def test_the_unmutated_runs_pass(tmp_path):
    """Without a defect the same configurations pass: every line is PASS,
    apart from the oracle's SKIP above K = 4."""
    for text in (EXP48, BINARY48, EXP48 + "starts=1:0.5\n"):
        rc, report = verify(tmp_path, text)
        assert rc == 0 and [s for s, _ in report] == ["PASS"] * 5 + ["SKIP"] + ["PASS"] * 3
    rc, report = verify(tmp_path, exp_martingale_keys(4))
    assert rc == 0 and [s for s, _ in report] == ["PASS"] * 9
