"""Child-process entry points of the benchmark.

    python3 bench/child.py setup CONFIG
        Times `import swingkit` plus `cli.build_model(cfg)` in this fresh
        process and prints one JSON line.

    python3 bench/child.py trace SPANS_JSON swingkit-args...
        Wraps the public functions of each swingkit module (and the
        ScenarioLattice methods) from outside, runs `swingkit.cli.main(args)`
        in this process, and writes the recorded spans and counts to
        SPANS_JSON. Nothing under src/ is changed.

The parent (bench/run.py) puts the checkout's src/ first on PYTHONPATH; both
modes refuse to run against a swingkit imported from anywhere else.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Public functions wrapped per layer. The oracle layer is left out on purpose:
# the CLI runs it only at K <= 4, which no workload reaches.
TRACED = {
    "models": ("build_binomial", "read_lattice", "sample_paths", "enumerate_paths",
               "count_paths"),
    "solver": ("solve", "derivatives", "bellman_residual", "boundary_check",
               "check_value_invariants", "lipschitz_diagnostic"),
    "policy": ("extract_policy", "rollout", "exit_times", "check_inclusion",
               "check_saturation"),
    "stopping": ("snell", "check_snell", "doob_decomposition", "stop_windows",
                 "optimal_predictable_stop", "marginal_value_report"),
    "duality": ("build_optimal_martingale", "dual_value", "random_martingale"),
    "cli": ("main", "build_model", "make_ensemble", "cmd_price", "cmd_verify",
            "cmd_stopping"),
}
LATTICE_METHODS = ("validate", "expect_next", "transition_matrix", "occupancy", "is_tree")


def _import_swingkit():
    import swingkit
    import swingkit.cli
    where = os.path.dirname(os.path.abspath(swingkit.__file__))
    if where != os.path.join(SRC, "swingkit"):
        raise SystemExit("swingkit imported from %s, not from %s" % (where, SRC))
    return swingkit


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []
        self._seen_p = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, inspect=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if inspect is not None:
                try:
                    inspect(result)
                except (AttributeError, TypeError) as exc:
                    self.absent.append("%s result: %s" % (name, exc))
            return result

        return traced

    # result inspectors: counts and computed bytes from returned arrays

    def on_solve(self, field):
        self.add("solver.solve.states", sum(int(v.size) for v in field.values))
        self.add("solver.value_bytes", sum(int(v.nbytes) for v in field.values))

    def on_derivatives(self, deriv):
        self.add("solver.value_bytes",
                 sum(int(a.nbytes) for a in list(deriv.dminus) + list(deriv.dplus)))

    def on_transition_matrix(self, P):
        ref = self._seen_p.get(id(P))
        if ref is None or ref() is not P:
            self._seen_p[id(P)] = weakref.ref(P)
            self.add("models.transition_matrix.bytes", int(P.nbytes))

    def on_rollout(self, bundle):
        self.add("policy.rollout.paths", int(bundle.n_paths))

    def install(self, swingkit):
        """Replace each traced function in every swingkit namespace that binds
        it (module globals and dicts held in them, such as the CLI's command
        table) and the ScenarioLattice methods."""
        inspectors = {"solver.solve": self.on_solve,
                      "solver.derivatives": self.on_derivatives,
                      "models.transition_matrix": self.on_transition_matrix,
                      "policy.rollout": self.on_rollout}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "swingkit" or key.startswith("swingkit."))]
        for layer, names in TRACED.items():
            home = sys.modules["swingkit." + layer]
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    self.absent.append("%s.%s" % (layer, name))
                    continue
                new = self.wrap("%s.%s" % (layer, name), orig,
                                inspectors.get("%s.%s" % (layer, name)))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
                        elif isinstance(val, dict):
                            for k2, v2 in list(val.items()):
                                if v2 is orig:
                                    val[k2] = new
        cls = swingkit.models.ScenarioLattice
        for name in LATTICE_METHODS:
            orig = cls.__dict__.get(name)
            if not callable(orig):
                self.absent.append("models.%s" % name)
                continue
            setattr(cls, name, self.wrap("models." + name, orig,
                                         inspectors.get("models." + name)))

    def dump(self, path, rc, wall):
        with open(path, "w") as fh:
            json.dump({"rc": rc, "wall_s": wall, "spans": self.spans,
                       "counts": self.counts, "absent": sorted(set(self.absent))}, fh)


def setup(config):
    t0 = time.perf_counter()
    swingkit = _import_swingkit()
    cfg = swingkit.cli.parse_config(config)
    swingkit.cli.build_model(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def trace(spans_path, argv):
    swingkit = _import_swingkit()
    tracer = Tracer()
    tracer.install(swingkit)
    t0 = time.perf_counter()
    rc = swingkit.cli.main(argv)
    wall = time.perf_counter() - t0
    tracer.dump(spans_path, rc, wall)
    return rc


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if len(sys.argv) >= 4 and sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit("usage: child.py setup CONFIG | child.py trace SPANS_JSON ARGS...")
