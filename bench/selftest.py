"""Self-test of the benchmark: each output check accepts real outputs and
rejects perturbed ones, span accounting is right, and BENCHMARK.json names
the workloads and metrics that run.py prints.

    python3 bench/selftest.py

Runs the CLI on small instances of each workload (a few seconds in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
from workloads import WORKLOADS, price_export, stopping_tree, verify_recombining

SMALL = {"price-export": (price_export, 16),
         "verify-recombining": (verify_recombining, 24),
         "stopping-tree": (stopping_tree, 16)}


def edit(path, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def replace_field(line, col, value):
    parts = line.split()
    parts[col] = value
    return " ".join(parts)


class OutputChecks(unittest.TestCase):
    """One real CLI run per workload; every perturbation must be rejected."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=run.WORK)
        cls.runs = {}
        for name, (make, K) in SMALL.items():
            work = os.path.join(cls.tmp, name)
            os.makedirs(work)
            inp = make(7, work, K=K)
            out = os.path.join(work, "out")
            res = run.spawn([sys.executable, "-m", "swingkit.cli", inp.command,
                             "--config", inp.config, "--out", out],
                            work, os.path.join(work, "log"), 120)
            assert res.rc == 0, open(os.path.join(work, "log")).read()
            cls.runs[name] = (inp, out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def perturbed(self, name, fn):
        """Check result on a copy of the outputs after fn(copy_dir)."""
        inp, out = self.runs[name]
        copy = out + "-perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        fn(copy)
        return WORKLOADS[name][1](inp, copy)

    def test_real_outputs_pass(self):
        for name, (inp, out) in self.runs.items():
            self.assertEqual(WORKLOADS[name][1](inp, out), [], name)

    def test_price_rejects(self):
        def bump_j(d):
            edit(os.path.join(d, "summary.txt"),
                 lambda ls: [ls[0].split("=")[0] + "=%.17g" % (float(ls[0].split("=")[1]) + 1e-9)]
                 + ls[1:])

        def scale_rewards(d):
            # rows still sum to the reported mean, which now sits far from J
            edit(os.path.join(d, "rollout_0.txt"),
                 lambda ls: ls[:1] + [replace_field(l, 5, "%.17g" % (1.5 * float(l.split()[5])))
                                      for l in ls[1:]])
            edit(os.path.join(d, "summary.txt"),
                 lambda ls: [ls[0], ls[1].split("=")[0] + "=%.17g"
                             % (1.5 * float(ls[1].split("=")[1]))] + ls[2:])

        def unsummed_row(d):
            edit(os.path.join(d, "rollout_1.txt"),
                 lambda ls: ls[:1] + [replace_field(ls[1], 5, "1")] + ls[2:])

        def short_field(d):
            edit(os.path.join(d, "value_field.txt"), lambda ls: ls[:-1])

        def short_exits(d):
            edit(os.path.join(d, "exits_0.txt"), lambda ls: ls[:-1])

        def nan_j(d):
            edit(os.path.join(d, "summary.txt"),
                 lambda ls: [ls[0].split("=")[0] + "=nan"] + ls[1:])

        for fn in (bump_j, nan_j, scale_rewards, unsummed_row, short_field, short_exits):
            self.assertTrue(self.perturbed("price-export", fn), fn.__name__)

    def test_verify_rejects(self):
        def fail_line(d):
            edit(os.path.join(d, "report.txt"),
                 lambda ls: [l.replace("PASS weak_duality", "FAIL weak_duality") for l in ls])

        def skip_line(d):
            edit(os.path.join(d, "report.txt"),
                 lambda ls: [l.replace("PASS marginal_values", "SKIP marginal_values") for l in ls])

        def dropped_line(d):
            edit(os.path.join(d, "report.txt"), lambda ls: ls[:-1])

        def oracle_pass(d):
            edit(os.path.join(d, "report.txt"),
                 lambda ls: [l.replace("SKIP enumeration_oracle", "PASS enumeration_oracle")
                             for l in ls])

        for fn in (fail_line, skip_line, dropped_line, oracle_pass):
            self.assertTrue(self.perturbed("verify-recombining", fn), fn.__name__)

    def test_stopping_rejects(self):
        def cap_value(d):
            edit(os.path.join(d, "marginal.txt"),
                 lambda ls: ls[:-1] + [replace_field(ls[-1], 3, "%.17g"
                                                     % (float(ls[-1].split()[3]) + 1e-10))])

        def region(d):
            edit(os.path.join(d, "marginal.txt"),
                 lambda ls: ls[:1] + [replace_field(ls[1], 2, "deep")] + ls[2:])

        def chain_missing(d):
            edit(os.path.join(d, "marginal.txt"),
                 lambda ls: ls[:1] + [replace_field(ls[1], 6, "nan")] + ls[2:])

        def cap_nan(d):
            edit(os.path.join(d, "marginal.txt"),
                 lambda ls: ls[:-1] + [replace_field(ls[-1], 3, "nan")])

        for fn in (cap_value, cap_nan, region, chain_missing):
            self.assertTrue(self.perturbed("stopping-tree", fn), fn.__name__)


class Spans(unittest.TestCase):
    def test_self_time_and_nesting(self):
        doc = {"spans": [["cli.main", 0.0, 10.0, -1],
                         ["solver.solve", 1.0, 5.0, 0],
                         ["models.expect_next", 2.0, 3.0, 1],
                         ["models.expect_next", 6.0, 6.5, 0]],
               "counts": {"solver.solve.states": 7}}
        m = run.span_metrics(doc)
        self.assertAlmostEqual(m["cli.main.self_s"], 5.5)
        self.assertAlmostEqual(m["solver.solve.self_s"], 3.0)
        self.assertAlmostEqual(m["solver.solve.s"], 4.0)
        self.assertAlmostEqual(m["models.expect_next.s"], 1.5)
        self.assertEqual(m["models.expect_next.calls"], 2)
        self.assertAlmostEqual(m["models.self_s"], 1.5)
        self.assertEqual(m["solver.solve.states"], 7)

    def test_recursion_counted_once(self):
        doc = {"spans": [["models.validate", 0.0, 4.0, -1],
                         ["models.validate", 1.0, 2.0, 0]], "counts": {}}
        m = run.span_metrics(doc)
        self.assertAlmostEqual(m["models.validate.s"], 4.0)
        self.assertAlmostEqual(m["models.validate.self_s"], 4.0)


class Tracing(unittest.TestCase):
    def test_wraps_command_table_and_reports_absent_names(self):
        sys.path.insert(0, run.SRC)
        import child
        swingkit = child._import_swingkit()
        tracer = child.Tracer()
        saved = dict(child.TRACED), child.LATTICE_METHODS
        child.TRACED["models"] += ("removed_function",)
        child.LATTICE_METHODS += ("removed_method",)
        try:
            tracer.install(swingkit)
        finally:
            child.TRACED.clear()
            child.TRACED.update(saved[0])
            child.LATTICE_METHODS = saved[1]
        self.assertIn("models.removed_function", tracer.absent)
        self.assertIn("models.removed_method", tracer.absent)
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as work:
            inp = stopping_tree(3, work, K=16)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = swingkit.cli.main([inp.command, "--config", inp.config,
                                        "--out", os.path.join(work, "out")])
        self.assertEqual(rc, 0)
        m = run.span_metrics({"spans": tracer.spans, "counts": tracer.counts})
        self.assertEqual(m["cli.cmd_stopping.calls"], 1)
        self.assertEqual(m["stopping.marginal_value_report.calls"], 1)
        self.assertEqual(m["policy.rollout.paths"], 5 * 16)
        self.assertGreater(m["models.transition_matrix.bytes"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_missing_sources_fail_without_result(self):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
            shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            res = subprocess.run([sys.executable, "bench/run.py", "--workload",
                                  "stopping-tree", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=bare, capture_output=True,
                                 text=True, timeout=60)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()
