"""swingkit benchmark: CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]

Run from the root of a checkout. The workload's inputs are generated from the
seed (bench/workloads.py). For S seconds the benchmark then repeats the
workload's `swingkit` command, each time in a fresh process with one BLAS
thread, and checks every run's outputs.

--trace 0 (end-to-end metrics, medians over the runs of this invocation):
    wall_s       spawn to exit of the CLI process
    cpu_s        user plus system CPU time of that process
    peak_rss_mb  its ru_maxrss
    setup_s      `import swingkit` plus `cli.build_model(cfg)` in a fresh
                 process, once before each CLI run
--trace 1 (per-layer metrics): traced CLI runs (bench/child.py wraps each
    module's public functions from outside) alternate with untraced ones; the
    per-layer values are medians over the traced runs, and trace.overhead_s is
    the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the same numbers with
sample counts, fail_frac and the run record. --save appends the full record
to FILE as one JSON line.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

# One BLAS thread, so each workload is one single-threaded process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUN_LIMIT_S = 165.0   # stop starting children so the whole run ends within 180 s

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics of the traced run. `.s` is inclusive span time, `.self_s`
# span time minus child spans, `.calls` the call count; `<layer>.self_s` sums
# the self time of the layer's spans. Bytes are computed from array sizes.
PER_LAYER = (
    ("cli.self_s", "s"), ("models.self_s", "s"), ("solver.self_s", "s"),
    ("policy.self_s", "s"), ("stopping.self_s", "s"), ("duality.self_s", "s"),
    ("cli.cmd_price.self_s", "s"), ("cli.output_bytes", "B"),
    ("models.occupancy.calls", "count"), ("models.sample_paths.s", "s"),
    ("models.expect_next.s", "s"), ("models.expect_next.calls", "count"),
    ("models.transition_matrix.bytes", "B"), ("models.read_lattice.s", "s"),
    ("models.validate.s", "s"), ("models.build_binomial.s", "s"),
    ("models.enumerate_paths.s", "s"), ("models.is_tree.s", "s"),
    ("solver.solve.self_s", "s"), ("solver.solve.states", "count"),
    ("solver.value_bytes", "B"), ("solver.derivatives.s", "s"),
    ("solver.derivatives.calls", "count"), ("solver.bellman_residual.s", "s"),
    ("solver.boundary_check.s", "s"), ("solver.check_value_invariants.s", "s"),
    ("policy.extract_policy.s", "s"), ("policy.extract_policy.calls", "count"),
    ("policy.rollout.s", "s"), ("policy.rollout.paths", "count"),
    ("policy.exit_times.s", "s"),
    ("stopping.optimal_predictable_stop.s", "s"),
    ("stopping.optimal_predictable_stop.calls", "count"),
    ("stopping.stop_windows.s", "s"), ("stopping.marginal_value_report.self_s", "s"),
    ("stopping.snell.s", "s"), ("stopping.doob_decomposition.s", "s"),
    ("duality.build_optimal_martingale.s", "s"), ("duality.dual_value.s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)


Child = collections.namedtuple("Child", "rc wall cpu rss_mb")


def spawn(argv, cwd, log, timeout):
    """Run argv to completion; wall from spawn to exit, rusage of the child.
    The child is killed if it outlives timeout."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4, not Popen
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def output_bytes(out):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs)


def span_metrics(doc):
    """Per-name inclusive and self time, calls and layer self totals."""
    spans = doc["spans"]
    dur = [end - start for _, start, end, _ in spans]
    inner = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            inner[span[3]] += dur[i]
    m = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    for i, (name, _, _, parent) in enumerate(spans):
        own = dur[i] - inner[i]
        add(name + ".self_s", own)
        add(name.split(".", 1)[0] + ".self_s", own)
        add(name + ".calls", 1)
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:                      # not nested in a span of the same name
            add(name + ".s", dur[i])
    m.update(doc["counts"])
    return m


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_record(args, inp):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    config = {k: os.path.relpath(v, ROOT) if k == "lattice_file" else v
              for k, v in inp.cfg.items()}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "command": inp.command, "config": config,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_env": BLAS_ENV}


def measure(args, work):
    make_inputs, check = WORKLOADS[args.workload]
    inp = make_inputs(args.seed, work)
    out = os.path.join(work, "out")
    cli = [sys.executable, "-m", "swingkit.cli", inp.command,
           "--config", inp.config, "--out", out]
    child = os.path.join(BENCH, "child.py")
    spans_path = os.path.join(work, "spans.json")
    t_start = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    def cli_run(argv):
        shutil.rmtree(out, ignore_errors=True)
        res = spawn(argv, work, os.path.join(work, "cli.log"), left())
        problems = ["exit code %d" % res.rc] if res.rc != 0 else []
        if not problems:
            try:
                problems = check(inp, out)
            except (OSError, ValueError, IndexError, StopIteration) as exc:
                problems = ["output unreadable: %r" % exc]
        return res, problems

    # Untimed warm-up: byte-compiles the package and reads the inputs once.
    spawn([sys.executable, child, "setup", inp.config], work,
          os.path.join(work, "setup.log"), left())

    samples = {}
    layer = []
    absent = set()
    problems = []
    attempted = failed = 0
    t_window = time.perf_counter()
    iteration = []
    while True:
        t_it = time.perf_counter()
        attempted += 1
        bad = []
        if args.trace:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            traced, bad_t = cli_run([sys.executable, child, "trace", spans_path] + cli[3:])
            bad += bad_t
            if not bad_t:
                with open(spans_path) as fh:
                    doc = json.load(fh)
                m = span_metrics(doc)
                m["cli.output_bytes"] = output_bytes(out)
                layer.append(m)
                absent.update(doc["absent"])
            samples.setdefault("trace.wall_s", []).append(traced.wall)
        else:
            log = os.path.join(work, "setup.log")
            res = spawn([sys.executable, child, "setup", inp.config], work, log, left())
            if res.rc != 0:
                with open(log) as fh:
                    bad.append("setup probe failed: %s" % fh.read()[-500:])
            else:
                with open(log) as fh:
                    samples.setdefault("setup_s", []).append(
                        json.loads(fh.read().splitlines()[-1])["setup_s"])
        res, bad_u = cli_run(cli)
        bad += bad_u
        for key, val in (("wall_s", res.wall), ("cpu_s", res.cpu), ("peak_rss_mb", res.rss_mb)):
            samples.setdefault(key, []).append(val)
        if bad:
            failed += 1
            problems += bad
        iteration.append(time.perf_counter() - t_it)
        spent = time.perf_counter() - t_window
        if spent + statistics.median(iteration) > args.seconds or \
                left() < 2 * max(iteration):
            break
    return inp, samples, layer, sorted(absent), attempted, failed, problems


def summarize(samples, layer):
    e2e = {}
    for key, xs in samples.items():
        q1, q3 = quartiles(xs)
        e2e[key] = {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}
    per = {}
    for name, _ in PER_LAYER:
        vals = [m.get(name, 0.0) for m in layer]
        per[name] = statistics.median(vals) if vals else 0.0
    if "trace.wall_s" in e2e:
        per["trace.wall_s"] = e2e["trace.wall_s"]["median"]
        per["trace.overhead_s"] = e2e["trace.wall_s"]["median"] - e2e["wall_s"]["median"]
    return e2e, per


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="append the full record to this file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swingkit", "cli.py")):
        print("error: no swingkit sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        inp, samples, layer, absent, attempted, failed, problems = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, per = summarize(samples, layer)
    record = run_record(args, inp)

    print("workload %s seed %d: %d runs, %d failed, fail_frac %.3g"
          % (args.workload, args.seed, attempted, failed, failed / attempted))
    for problem in problems[:10]:
        print("  check failed: %s" % problem)
    if args.trace:
        metrics = {name: {"value": per[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print("  %-42s %.6g %s" % (name, per[name], unit))
        if absent:
            print("  absent (reported as 0): %s" % ", ".join(absent))
    else:
        empty = {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}   # every sample failed
        metrics = {name: {"value": e2e.get(name, empty)["median"], "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            s = e2e.get(name, empty)
            print("  %-12s %.6g %s (median of %d; q1 %.6g, q3 %.6g)"
                  % (name, s["median"], unit, s["n"], s["q1"], s["q3"]))
    print("record %s" % json.dumps(record, sort_keys=True))
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps({"record": record, "attempted": attempted, "failed": failed,
                                 "fail_frac": failed / attempted, "samples": samples,
                                 "per_layer": per if args.trace else None,
                                 "absent": absent, "problems": problems},
                                sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
