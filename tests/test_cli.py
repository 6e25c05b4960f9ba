import filecmp
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import swingkit
from swingkit import (InvariantError, LatticeNode, ScenarioLattice, TimeGrid,
                      build_binary_example, build_binomial, read_lattice, write_lattice)
from swingkit.cli import (_verify_checks, main, make_ensemble, parse_config, parse_k_list,
                          parse_starts)

from conftest import collision_lattice, exp_martingale_keys


def run(tmp, *args):
    return main(list(args) + ["--out", str(tmp)])


def write_cfg(tmp, text, name="run.cfg"):
    p = tmp / name
    p.write_text(text)
    return str(p)


def test_parse_config_types(tmp_path):
    p = write_cfg(tmp_path, "# comment\nmodel = binary\nK=48\nT = 3.0\n\nexhaustive=true\n")
    cfg = parse_config(p)
    assert cfg == {"model": "binary", "K": 48, "T": 3.0, "exhaustive": True}
    assert parse_config(write_cfg(tmp_path, "exhaustive=no\n")) == {"exhaustive": False}


def test_parse_config_rejects_unknown_key(tmp_path):
    p = write_cfg(tmp_path, "granularity=9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(p)


def test_parse_starts():
    assert parse_starts("0:0.5;2:0") == [(0.0, 0.5), (2.0, 0.0)]
    with pytest.raises(ValueError, match="not t:y"):
        parse_starts("0-0.5")
    with pytest.raises(ValueError, match="empty start list"):
        parse_starts(";")


def test_parse_k_list():
    assert parse_k_list("48,96 192") == [48, 96, 192]
    with pytest.raises(ValueError, match="list of integers"):
        parse_k_list("48,None")


def test_cli_requires_a_command(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_price_binary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\nstarts=0:0.5;0:0\n")
    assert run(tmp_path, "price", "--config", cfg, "--exhaustive") == 0
    out = capsys.readouterr().out
    assert "J(0,0.5)=0.875" in out.replace(" ", "")
    for name in ("value_field.txt", "summary.txt", "rollout_0.txt", "exits_0.txt"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "value_field.txt").read_text().splitlines()[0]
    assert header.split() == ["t", "node", "y", "J", "dminus", "dplus"]
    assert "0.875" in (tmp_path / "summary.txt").read_text()


def test_cli_price_rejects_misaligned_volume(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\nL=0.7\n")
    assert run(tmp_path, "price", "--config", cfg) == 1
    assert "misaligned" in capsys.readouterr().err


def test_cli_price_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\ngranularity=2\n")
    assert run(tmp_path, "price", "--config", cfg) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_cli_binary_pins_its_horizon(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\nT=2.5\n")
    assert run(tmp_path, "price", "--config", cfg) == 1
    assert "T = 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "stopping", "verify"])
def test_cli_rejects_non_finite_starts(tmp_path, capsys, command):
    for start in ("inf:0", "0:inf", "-inf:0", "nan:0", "0:nan"):
        cfg = write_cfg(tmp_path, "model=binary\nstarts=%s\n" % start)
        assert run(tmp_path, command, "--config", cfg, "--steps", "12") == 1
        assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("starts", ["0:0;3:0", "0:0;0.01:0", "0:0;0:0.013"])
def test_cli_price_bad_start_writes_nothing(tmp_path, capsys, starts):
    """A start at the horizon or off either grid fails before any file is
    written, even after a good start."""
    cfg = write_cfg(tmp_path, "model=binary\nstarts=%s\n" % starts)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["price", "--config", cfg, "--steps", "12", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_price_rejects_a_start_at_the_horizon(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\nstarts=3:0\n")
    assert main(["price", "--config", cfg, "--steps", "12", "--out", str(tmp_path)]) == 1
    assert "error: start time 3 has no remaining horizon" in capsys.readouterr().err


def test_cli_verify_rejects_an_off_grid_start(tmp_path, capsys):
    """An off-grid start is bad input (exit 1) under verify as under price,
    not an ERROR line."""
    cfg = write_cfg(tmp_path, "model=binary\nstarts=0.01:0\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--steps", "12", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: time 0.01 is off the grid" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["price", "stopping", "verify"])
@pytest.mark.parametrize("n_paths", ["0", "-5"])
def test_cli_rejects_a_path_count_below_one(tmp_path, capsys, command, n_paths):
    """A config n_paths below 1 is bad input, not "unset": before, a K=12
    binomial enumerated its paths and exited 0."""
    cfg = write_cfg(tmp_path, "model=binomial\nkind=martingale\nx0=1\nup=1.05\n"
                              "down=0.96\np_up=0.44444444444444442\nK=12\n"
                              "n_paths=%s\n" % n_paths)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: n_paths must be at least 1" in captured.err
    assert captured.out == "" and not out.exists()


BINOMIAL_K20 = ("model=binomial\nkind=martingale\nx0=1\nup=1.05\ndown=0.96\n"
                "p_up=0.44444444444444442\nK=20\n")


@pytest.mark.parametrize("command", ["price", "stopping", "verify"])
@pytest.mark.parametrize("text, message", [
    ("model=binary\nK=12\nn_paths=0\n", "n_paths must be at least 1"),
    ("model=binary\nK=96\nstarts=0.3:0\n", "time 0.29999999999999999 is off the grid"),
    (BINOMIAL_K20, "too many paths to enumerate (1048576, above the bound 65536); set n_paths="),
    ("model=binary\nK=12\nseed=-1\nn_paths=5\n", "seed must be nonnegative"),
], ids=["n_paths", "off-grid-start", "too-many-paths", "negative-seed"])
def test_cli_refuses_bad_input_before_the_solve(tmp_path, capsys, monkeypatch, command,
                                                text, message):
    """The starts and the path ensemble are checked before the solve: each
    bad input exits 1 with its message, writes nothing and never solves.
    The too-many-paths hint names the count and asks for n_paths= only:
    exhaustive=true is refused on that lattice too."""
    forbid_solve(monkeypatch)
    if command == "verify" and text == BINOMIAL_K20:
        # verify samples 256 paths where there are too many to enumerate,
        # so only a forced enumeration is refused there
        text, message = text + "exhaustive=true\n", "path count 1048576 exceeds the bound 65536"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: " + message in captured.err
    if text == BINOMIAL_K20:
        assert captured.err == "error: %s\n" % message
    assert captured.out == "" and not out.exists()


def test_make_ensemble_counts_the_paths_once():
    """make_ensemble counts the paths to choose between listing and
    sampling them; enumerate_paths counts only to name the total it
    refuses, and a forced enumeration within the bound counts nothing."""
    real = swingkit.models.count_paths
    lat = build_binary_example(12)
    with mock.patch("swingkit.cli.count_paths", wraps=real) as by_cli, \
            mock.patch("swingkit.models.count_paths", wraps=real) as by_models:
        assert make_ensemble(lat, {}, 0).exhaustive
        assert (by_cli.call_count, by_models.call_count) == (1, 0)
        assert make_ensemble(lat, {"exhaustive": True}, 0).exhaustive
        assert (by_cli.call_count, by_models.call_count) == (1, 0)
        big = build_binomial("martingale", 20, 2.0, x0=1.0, up=1.05, down=0.96,
                             p_up=0.44444444444444442)
        with pytest.raises(ValueError, match="^path count 1048576 exceeds the bound 65536$"):
            make_ensemble(big, {"exhaustive": True}, 0)
        assert (by_cli.call_count, by_models.call_count) == (1, 1)


@pytest.mark.parametrize("text, message", [
    ("model=binomial\nkind=constant\nc=1\nK=100000000000000000000\n",
     "cannot fit 'int' into an index-sized integer"),
    ("K=6\nn_paths=100000000000000\n", "Unable to allocate 4.97 PiB"),
], ids=["K", "n_paths"])
def test_a_number_beyond_the_address_space_exits_1(tmp_path, capsys, text, message):
    """numpy refuses these sizes at once, as they pass the address space;
    the CLI reports the OverflowError or MemoryError and exits 1."""
    out = tmp_path / "out"
    assert main(["price", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message)
    assert captured.out == "" and not out.exists()


def forbid_solve(monkeypatch):
    """Make every solve fail the test: the refusals must come first."""
    import swingkit.policy as policy

    def no_solve(*args, **kwargs):
        raise AssertionError("solve was called")

    monkeypatch.setattr(policy, "solve", no_solve)


ONE_STEP_FILE = "1 1 1 1 2\n0 0 1 0:1\n1 0 1\n"


@pytest.mark.parametrize("command, text, message", [
    ("price", "model=binary\nbogus\n", "line 2 is not key=value: 'bogus'"),
    ("price", "exhaustive=maybe\n", "key 'exhaustive' wants a boolean, got 'maybe'"),
    ("price", "K=twelve\n", "key 'K' wants int, got 'twelve'"),
    ("price", "K=48\nmodel=binary\n\nK=96\n", "key 'K' is given twice (lines 1 and 4)"),
    ("price", "model=binomial\n", "binomial model needs kind="),
    ("price", "model=file\n", "model=file needs lattice_file="),
    ("price", "model=file\nlattice_file={file}\nK=2\n",
     "config K=2 disagrees with the lattice file"),
    ("price", "model=tree\n", "unknown model 'tree'"),
    ("dual", "model=binary\nk_list=,\n", "empty k_list"),
    ("dual", "model=file\nlattice_file={file}\n",
     "the refinement study needs a rebuildable model, not model=file"),
    ("price", "model=binomial\nkind=constant\nc=1\nK=0\n", "K must be at least 1"),
    ("price", "model=binomial\nkind=constant\nc=-1\n", "constant cashflow must be nonnegative"),
    ("price", "model=binomial\nkind=martingale\nx0=1\nup=1.05\n",
     "multiplicative parameterization needs both up and down"),
    ("price", "model=binomial\nkind=martingale\nx0=-1\nup=1.05\ndown=0.95\n",
     "negative multiplicative parameters would produce negative cashflows"),
    ("price", "model=binomial\nkind=martingale\nx0=1\ndrift=0\n",
     "additive parameterization needs both drift and noise"),
], ids=["not-key-value", "bad-boolean", "bad-int", "repeated-key", "no-kind", "no-lattice-file",
        "file-disagrees", "unknown-model", "empty-k-list", "dual-on-file", "zero-steps",
        "negative-c", "lone-up", "negative-x0", "lone-drift"])
def test_cli_refuses_a_bad_config(tmp_path, capsys, monkeypatch, command, text, message):
    """Each config refusal exits 1 with its message, writes nothing and
    never solves."""
    (tmp_path / "lattice.txt").write_text(ONE_STEP_FILE)
    forbid_solve(monkeypatch)
    cfg = write_cfg(tmp_path, text.format(file=tmp_path / "lattice.txt"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == "" and not out.exists()


TWO_ROOTS = "slice 0 holds 2 nodes; a lattice has one root"


def test_a_two_root_lattice_is_refused(tmp_path, capsys, monkeypatch):
    """J(0, y) is one number, so a lattice has one root: the array
    constructor, from_rows and read_lattice refuse a second node at slice 0,
    and price, verify and stopping exit 1 on such a file before the solve
    and write nothing. Before, verify solved it, compared the rollout mean
    over both roots with root 0's J (a false FAIL policy_rollout) and exited
    2."""
    edges = [(np.array([0, 1, 2]), np.array([0, 0]), np.array([1.0, 1.0])),
             (np.array([0, 1]), np.array([0]), np.array([1.0]))]
    with pytest.raises(ValueError, match="^%s$" % TWO_ROOTS):
        ScenarioLattice([np.array([1.0, 2.0]), np.array([1.0]), np.array([0.0])], edges)
    with pytest.raises(ValueError, match="^%s$" % TWO_ROOTS):
        ScenarioLattice.from_rows([[LatticeNode(1.0, (0,), (1.0,)),
                                    LatticeNode(2.0, (0,), (1.0,))],
                                   [LatticeNode(1.0, (0,), (1.0,))], [LatticeNode(0.0)]])
    path = tmp_path / "lattice.txt"
    path.write_text("2 2 1 1 2\n0 0 1 0:1\n0 1 2 0:1\n1 0 1 0:1\n2 0 0\n")
    with pytest.raises(ValueError, match="^%s$" % TWO_ROOTS):
        read_lattice(str(path))
    forbid_solve(monkeypatch)
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\n" % path)
    for command in ("price", "verify", "stopping"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % TWO_ROOTS
        assert captured.out == "" and not out.exists()


def test_cli_reports_an_invariant_violation_with_exit_2(tmp_path, capsys, monkeypatch):
    """An InvariantError outside verify's lines is exit 2 with its message,
    not the exit 1 of bad input."""
    import swingkit.policy as policy

    def broken(self):
        raise InvariantError("forced by the test")

    monkeypatch.setattr(policy.ThresholdScan, "result", broken)
    assert run(tmp_path, "price", "--steps", "12") == 2
    assert capsys.readouterr().err == "invariant violation: forced by the test\n"


def two_node_lattice_file(x):
    """A 4-step, two-node-per-slice lattice file on T = 2, L = 1 (L*T = 2)
    whose node 0 pays x at every slice and node 1 pays 1."""
    lines = ["2 4 1 1 2"]
    for k in range(5):
        kids = "" if k == 4 else " 0:0.5 1:0.5"
        lines += ["%d 0 %r%s" % (k, x, kids)] + (["%d 1 1%s" % (k, kids)] if k else [])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["price", "stopping", "verify"])
def test_cli_refuses_an_overflowing_cashflow_scale_before_the_solve(tmp_path, capsys,
                                                                    monkeypatch, command):
    """J can reach 2 * max X here, which overflows at X = 1.7e308: before, the
    solve printed numpy RuntimeWarnings and exited 2 with "policy at slice 0
    node 0 is not a volume threshold". Now it exits 1 before any slice is
    computed, writes nothing and warns nothing."""
    (tmp_path / "lattice.txt").write_text(two_node_lattice_file(1.7e308))
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\nn_paths=4\n"
                    % (tmp_path / "lattice.txt"))

    def no_slice(*args):
        raise AssertionError("a slice was computed")

    monkeypatch.setattr(ScenarioLattice, "expect_next", no_slice)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert ("error: cashflow scale max X = 1.6999999999999999e+308 is too large: J can "
            "reach 2 * max X, which must stay below half the largest float") in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_prices_a_large_but_bounded_cashflow_scale(tmp_path):
    """X = 1e300 keeps 2 * 2 * max X finite: it is priced as before."""
    (tmp_path / "lattice.txt").write_text(two_node_lattice_file(1e300))
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\nn_paths=4\n"
                    % (tmp_path / "lattice.txt"))
    assert run(tmp_path, "price", "--config", cfg) == 0
    assert (tmp_path / "summary.txt").read_text() == (
        "J(0,0)=9.3750000000000001e+299\nrollout_mean(0,0)=7.5000000000000004e+299\n")


def test_cli_verify_warns_nothing_just_below_the_cashflow_limit(tmp_path):
    """X = 4e307 passes the scale check (2 * 2 * 4e307 is finite). The
    integrand sums of the weak-duality bounds overflow to inf there, silently
    as Python floats do; the absolute 1e-10 gates of other lines fail."""
    (tmp_path / "lattice.txt").write_text(two_node_lattice_file(4e307))
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\nn_paths=4\n"
                    % (tmp_path / "lattice.txt"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "verify", "--config", cfg) == 2
    report = (tmp_path / "report.txt").read_text()
    assert "PASS weak_duality: 10 random martingales, worst gap 3.41e+306\n" in report


def test_verify_makes_at_most_10k_plus_8_expect_next_calls(tmp_path):
    """One sweep carries all ten weak-duality martingales, with no second
    sweep to re-derive their identity, and the envelope checks read the
    envelopes' own continuation values: 31*K calls (1,488 at K=48) when each
    martingale had its own build and validate, 13*K with the identity sweep,
    12*K while the envelope checks took their expectations again."""
    K = 48
    cfg = parse_config(write_cfg(tmp_path, exp_martingale_keys(K)))
    with mock.patch.object(ScenarioLattice, "expect_next", autospec=True,
                           side_effect=ScenarioLattice.expect_next) as counted:
        results = _verify_checks(cfg)
    assert [status for status, _, _ in results] == ["PASS"] * 5 + ["SKIP"] + ["PASS"] * 3
    assert counted.call_count <= 10 * K + 8


@pytest.mark.parametrize("tie_tol", ["nan", "inf", "-1"])
def test_cli_rejects_a_bad_tie_tol(tmp_path, capsys, tie_tol):
    cfg = write_cfg(tmp_path, "model=binary\ntie_tol=%s\n" % tie_tol)
    assert run(tmp_path, "price", "--config", cfg, "--steps", "12") == 1
    assert "tie_tol must be finite and nonnegative" in capsys.readouterr().err


def test_cli_verify_binary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\n")
    assert run(tmp_path, "verify", "--config", cfg, "--steps", "48",
               "--exhaustive") == 0
    report = (tmp_path / "report.txt").read_text()
    assert "FAIL" not in report and "ERROR" not in report
    assert "SKIP enumeration_oracle: enumeration oracle runs at K <= 4 only" in report
    names = [ln.split()[1].rstrip(":") for ln in report.splitlines() if ln.strip()]
    assert "value_invariants" in names
    assert "optimal_martingale" in names


def test_cli_verify_reports_a_defect_as_error(tmp_path, capsys):
    """A check that fails on a ValueError outside the declared skips is an
    ERROR with exit code 2, not a SKIP."""
    lat, tg, vg = collision_lattice()
    write_lattice(str(tmp_path / "lattice.txt"), lat, tg, vg.L)
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\n" % (tmp_path / "lattice.txt"))
    assert run(tmp_path, "verify", "--config", cfg) == 2
    out = capsys.readouterr().out
    assert ("ERROR optimal_martingale: pre-exit volume level at slice 2 node 0 "
            "is path-dependent") in out
    assert "SKIP" not in out and "FAIL" not in out


def test_cli_verify_skips_the_dual_checks_when_lt_is_one(tmp_path, capsys):
    """L*T = 1 is outside the range of the dual bound: both dual checks are a
    SKIP with the library's message, the rest pass, and verify exits 0;
    dual itself rejects the input with exit 1."""
    cfg = write_cfg(tmp_path, "model=binomial\nkind=martingale\nx0=1\ndrift=0\n"
                              "noise=0.005\nT=1\nK=12\n")
    assert run(tmp_path, "verify", "--config", cfg) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert [ln.split()[0] for ln in report] == ["PASS"] * 5 + ["SKIP"] * 3 + ["PASS"]
    assert ("SKIP weak_duality: the dual bound needs L*T > 1; "
            "this grid has L*T <= 1") in report
    assert ("SKIP optimal_martingale: the dual construction needs L*T > 1; "
            "this grid has L*T <= 1") in report
    capsys.readouterr()
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
    assert "error: the dual construction needs L*T > 1" in capsys.readouterr().err


def test_cli_verify_binomial_sampled(tmp_path):
    cfg = write_cfg(tmp_path, "model=binomial\nkind=martingale\nx0=1\n"
                              "up=1.05\ndown=0.96\np_up=0.44444444444444442\n")
    assert run(tmp_path, "verify", "--config", cfg, "--steps", "24",
               "--seed", "5") == 0
    report = (tmp_path / "report.txt").read_text()
    assert "FAIL" not in report


ZERO_PROB_BINOMIAL = "model=binomial\nkind=martingale\nx0=1\nup=1\ndown=0.9\np_up=1\nT=2\n"


def test_cli_zero_probability_edges(tmp_path, capsys):
    """p_up=1 puts probability 0 on every down edge: states reached only
    that way keep the martingale value of their first arrival, so verify
    passes and the dual's node trace is finite."""
    cfg = write_cfg(tmp_path, ZERO_PROB_BINOMIAL + "K=12\nk_list=6,12\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "report.txt").read_text().splitlines()
    assert [ln.split()[0] for ln in report] == ["PASS"] * 5 + ["SKIP"] + ["PASS"] * 3
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    trace = (tmp_path / "d" / "martingale.txt").read_text()
    assert "nan" not in trace and len(trace.splitlines()) == 1 + 13 * 14 // 2


def test_cli_verify_merges_states_of_subnormal_mass(tmp_path):
    """With p_up = 1e-4 the path masses of the extreme nodes go subnormal by
    K = 80. The merged martingale values stay between their arrivals, so
    the states of a node agree and optimal_martingale passes with spread 0."""
    cfg = write_cfg(tmp_path, "model=binomial\nkind=martingale\nx0=1\nup=1.009999\n"
                              "down=0.999999\np_up=0.0001\nT=2\nK=80\n")
    assert run(tmp_path, "verify", "--config", cfg) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    line = [ln for ln in report if ln.split()[1] == "optimal_martingale:"]
    assert line[0].startswith("PASS") and line[0].endswith(" spread 0")


def test_verify_and_stopping_do_not_import_numpy_ma(tmp_path):
    """A plain np.unique or np.union1d imports numpy.ma (about 18 ms); a
    fresh verify and stopping run on a lattice file never does."""
    lattice = tmp_path / "binary.txt"
    write_lattice(str(lattice), build_binary_example(12), TimeGrid(3.0, 12), 1.0)
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\nstarts=0:0.5\n" % lattice)
    code = ("import sys\nfrom swingkit.cli import main\n"
            "print([main([c, '--config', %r, '--out', %r, '--exhaustive'])"
            " for c in ('verify', 'stopping')], 'numpy.ma' in sys.modules)"
            % (cfg, str(tmp_path)))
    env = dict(os.environ, PYTHONPATH=str(Path(swingkit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] False"


def test_cli_dual_study(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=binary\nk_list=12,24\n")
    assert run(tmp_path, "dual", "--config", cfg) == 0
    out = capsys.readouterr().out
    gap = (tmp_path / "gap_study.txt").read_text().splitlines()
    assert gap[0].split() == ["K", "primal", "dual", "gap"]
    assert len(gap) == 3
    assert (tmp_path / "martingale.txt").read_text().splitlines()[0].split() == \
        ["k", "node", "M"]
    assert "12" in out and "24" in out


def test_cli_example_builds_each_martingale_once(tmp_path, monkeypatch):
    """The dual study's construction at the finest K is the one written to
    martingale.txt; it is not built a second time."""
    import swingkit.cli as cli
    import swingkit.duality as duality
    built = []
    real = duality.build_optimal_martingale

    def counting(policy):
        built.append(policy.field.time_grid.K)
        return real(policy)

    monkeypatch.setattr(duality, "build_optimal_martingale", counting)
    monkeypatch.setattr(cli, "build_optimal_martingale", counting)
    assert main(["example", "--steps", "12", "--out", str(tmp_path)]) == 0
    assert sorted(built) == [6, 12, 24]


def test_cli_example_solves_each_k_once(tmp_path, monkeypatch):
    """The dual study reuses the example's own solved K instead of solving
    it again."""
    import swingkit.duality as duality
    import swingkit.policy as policy
    seen = []
    real = policy.solve

    def counting(lattice, tg, *args, **kwargs):
        seen.append(tg.K)
        return real(lattice, tg, *args, **kwargs)

    monkeypatch.setattr(policy, "solve", counting)
    monkeypatch.setattr(duality, "solve", counting, raising=False)
    assert main(["example", "--steps", "12", "--out", str(tmp_path)]) == 0
    assert sorted(seen) == [6, 12, 24]


def spy_extract_policy(monkeypatch):
    """Record (K, tie_tol) of every extract_policy call the CLI makes."""
    import swingkit.cli as cli
    seen = []
    real = cli.extract_policy

    def spying(lattice, tg, vg, tie_tol, *rest):
        seen.append((tg.K, tie_tol))
        return real(lattice, tg, vg, tie_tol, *rest)

    monkeypatch.setattr(cli, "extract_policy", spying)
    return seen


def test_cli_dual_extracts_at_the_configured_tie_tol(tmp_path, monkeypatch):
    seen = spy_extract_policy(monkeypatch)
    cfg = write_cfg(tmp_path, "model=binary\nk_list=6,12\ntie_tol=1e-3\n")
    assert run(tmp_path, "dual", "--config", cfg) == 0
    assert seen == [(6, 1e-3), (12, 1e-3)]


def test_cli_example_extracts_its_own_k_once(tmp_path, monkeypatch):
    seen = spy_extract_policy(monkeypatch)
    cfg = write_cfg(tmp_path, "tie_tol=1e-3\n")
    assert run(tmp_path, "example", "--config", cfg, "--steps", "12") == 0
    assert sorted(seen) == [(6, 1e-3), (12, 1e-3), (24, 1e-3)]


def test_cli_rejects_an_infinite_horizon(tmp_path, capsys):
    """T=inf in a lattice-file header is bad input with its own message."""
    (tmp_path / "lattice.txt").write_text("inf 3 1 1 2\n0 0 1 0:1\n1 0 1 0:1\n2 0 1 0:1\n3 0 1\n")
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\n" % (tmp_path / "lattice.txt"))
    assert run(tmp_path, "price", "--config", cfg) == 1
    assert "error: horizon T must be positive and finite" in capsys.readouterr().err


def test_cli_rejects_an_infinite_rate_cap(tmp_path, capsys):
    """L=inf in a lattice-file header names the rate cap, not the grid pitch."""
    (tmp_path / "lattice.txt").write_text("3 3 inf 1 2\n0 0 1 0:1\n1 0 1 0:1\n2 0 1 0:1\n3 0 1\n")
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\n" % (tmp_path / "lattice.txt"))
    assert run(tmp_path, "price", "--config", cfg) == 1
    assert "error: rate cap L must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("L", ["1e-10", "1e-20"])
def test_cli_rejects_a_rate_cap_beyond_the_int32_thresholds(tmp_path, capsys, L):
    """A cap so small that the policy thresholds would leave int32 is bad
    input (exit 1), not a wrapped threshold (exit 2) or a traceback."""
    (tmp_path / "lattice.txt").write_text("3 3 %s 1 2\n0 0 1 0:1\n1 0 1 0:1\n2 0 1 0:1\n3 0 1\n" % L)
    cfg = write_cfg(tmp_path, "model=file\nlattice_file=%s\n" % (tmp_path / "lattice.txt"))
    assert run(tmp_path, "verify", "--config", cfg) == 1
    assert "beyond the int32 policy thresholds" in capsys.readouterr().err


def test_cli_stopping_table(tmp_path):
    cfg = write_cfg(tmp_path, "model=binary\nstarts=0:0.5\n")
    assert run(tmp_path, "stopping", "--config", cfg, "--exhaustive") == 0
    lines = (tmp_path / "marginal.txt").read_text().splitlines()
    assert lines[0].startswith("t0 y0 region")
    assert lines[1].split()[:3] == ["0", "0.5", "interior"]


def test_cli_example_bundle_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert main(["example", "--steps", "12", "--out", str(a)]) == 0
    assert main(["example", "--steps", "12", "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in ("summary.txt", "value_field.txt", "marginal.txt",
                 "gap_study.txt", "example_lattice.txt"):
        assert name in names
    match, mismatch, errors = filecmp.cmpfiles(str(a), str(b), names, shallow=False)
    assert mismatch == [] and errors == []


def test_cli_example_summary_values(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    assert main(["example", "--steps", "48", "--out", str(out)]) == 0
    text = (out / "summary.txt").read_text().replace(" ", "")
    assert "J(0,0.5)=0.875" in text
    assert "J(0,0)=1.5" in text
