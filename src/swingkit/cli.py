"""Command line front end.

Subcommands: price (solve and export), verify (invariant suites), dual
(refinement study of the martingale bound), stopping (marginal-value table),
example (full worked-model bundle). Configuration is a flat key=value file;
all numeric output uses 17 significant digits so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .duality import build_optimal_martingale, dual_values, duality_gap_study, random_terminal
from .models import (MAX_PATHS, InvariantError, PreconditionError, TimeGrid,
                     _strings, _write_table, _wsum, build_binary_example, build_binomial,
                     count_paths, enumerate_paths, read_lattice, sample_paths, write_lattice)
from .oracle import brute_force_value
from .policy import (TIE_TOL, check_inclusion, check_saturation, exit_times, extract_policy,
                     inclusion_reads, rollout)
from .solver import InvariantScan, ResidualScan, VolumeGrid, _start_indices, boundary_check
from .stopping import marginal_value_report

_KEY_TYPES = {
    "model": str,
    "kind": str,
    "K": int,
    "T": float,
    "L": float,
    "c": float,
    "x0": float,
    "up": float,
    "down": float,
    "p_up": float,
    "drift": float,
    "noise": float,
    "seed": int,
    "n_paths": int,
    "exhaustive": bool,
    "starts": str,
    "k_list": str,
    "lattice_file": str,
    "tie_tol": float,
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are skipped. Unknown
    and repeated keys are refused."""
    cfg, seen = {}, {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("line %d is not key=value: %r" % (ln, raw.strip()))
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _KEY_TYPES:
                raise ValueError("unknown config key %r" % key)
            if key in seen:
                raise ValueError("key %r is given twice (lines %d and %d)" % (key, seen[key], ln))
            seen[key], typ = ln, _KEY_TYPES[key]
            try:
                cfg[key] = _BOOLS[val.lower()] if typ is bool else typ(val)
            except (KeyError, ValueError):
                raise ValueError("key %r wants %s, got %r"
                                 % (key, "a boolean" if typ is bool else typ.__name__, val))
    return cfg


def build_model(cfg: dict):
    """Returns (lattice, time_grid, volume_grid) from the configuration, the
    volume grid aligned to the time grid."""
    model = cfg.get("model", "binary")
    if model == "binary":
        K = cfg.get("K", 96)
        T = cfg.get("T", 3.0)
        if T != 3.0:
            raise ValueError("the binary example lives on T = 3")
        lat, tg, L = build_binary_example(K), TimeGrid(3.0, K), cfg.get("L", 1.0)
    elif model == "binomial":
        kind = cfg.get("kind")
        if kind is None:
            raise ValueError("binomial model needs kind=")
        K = cfg.get("K", 96)
        T = cfg.get("T", 2.0)
        lat = build_binomial(kind, K, T, c=cfg.get("c"), x0=cfg.get("x0"),
                             up=cfg.get("up"), down=cfg.get("down"),
                             p_up=cfg.get("p_up", 0.5), drift=cfg.get("drift"),
                             noise=cfg.get("noise"))
        tg, L = TimeGrid(T, K), cfg.get("L", 1.0)
    elif model == "file":
        path = cfg.get("lattice_file")
        if path is None:
            raise ValueError("model=file needs lattice_file=")
        lat, tg, L = read_lattice(path)
        for key, have in (("K", tg.K), ("T", tg.T), ("L", L)):
            if key in cfg and cfg[key] != have:
                raise ValueError("config %s=%r disagrees with the lattice file" % (key, cfg[key]))
    else:
        raise ValueError("unknown model %r" % model)
    return lat, tg, VolumeGrid.aligned(L, tg)


def make_ensemble(lattice, cfg: dict, n_paths: int):
    """All paths under exhaustive=true, or when at most MAX_PATHS and either
    n_paths here is positive or no count is given (the config's n_paths, else
    the n_paths here); otherwise that many sampled paths. A config n_paths
    below 1 (not read as unset) or seed below 0 is refused, sampling or not."""
    prefer_all = n_paths > 0
    if "n_paths" in cfg:
        n_paths = cfg["n_paths"]
        if n_paths < 1:
            raise ValueError("n_paths must be at least 1")
    if cfg.get("seed", 0) < 0:
        raise ValueError("seed must be nonnegative")
    if cfg.get("exhaustive", False) or (
            (prefer_all or n_paths < 1) and (total := count_paths(lattice)) <= MAX_PATHS):
        return enumerate_paths(lattice)
    if n_paths < 1:
        raise ValueError("too many paths to enumerate (%d, above the bound %d); set n_paths="
                         % (total, MAX_PATHS))
    return sample_paths(lattice, n_paths=n_paths, seed=cfg.get("seed", 0))


def parse_starts(text: str) -> list:
    starts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError("start %r is not t:y" % chunk)
        t, y = float(parts[0]), float(parts[1])
        if not (np.isfinite(t) and np.isfinite(y)):
            raise ValueError("start %r is not finite" % chunk)
        starts.append((t, y))
    if not starts:
        raise ValueError("empty start list")
    return starts


def parse_k_list(text: str) -> list:
    try:
        ks = [int(s) for s in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError("k_list must be a comma-separated list of integers")
    if not ks:
        raise ValueError("empty k_list")
    return ks


def _write(out_dir: str, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _write_value_field(fh, field):
    tg, vg = field.time_grid, field.volume_grid
    fh.write("t node y J dminus dplus")
    times, levels = _strings(tg.times, "\n%.17g"), _strings(vg.levels, " %.17g")
    sizes = [field.lattice.n_nodes(k) for k in range(tg.K + 1)]
    nodes = _strings(np.arange(max(sizes)), " %d")
    seen_J, seen_dm = {}, {}       # bit pattern -> text, for the whole file
    right = vg.right_of(np.arange(vg.n_levels))     # dplus(k) is dminus(k)[:, right]
    for k in range(tg.K + 1):
        dm = _strings(field.dminus(k), " %.17g", seen_dm)
        _write_table(fh, (times[k] + nodes[:sizes[k]])[:, None], levels,
                     _strings(field.row(k), " %.17g", seen_J), dm, dm[:, right])
    fh.write("\n")


def _write_rollout(fh, bundle):
    lattice, tg = bundle.policy.field.lattice, bundle.policy.field.time_grid
    k0, K = bundle.k0, tg.K
    fh.write("path t u y X inc")
    times = _strings(tg.times[k0:K], " %.17g")
    x = np.stack([lattice.x(k)[bundle.nodes[:, k]] for k in range(k0, K)], axis=1)
    vg, pos = bundle.policy.field.volume_grid, bundle.positions
    moves = pos[:, 1:] != pos[:, :-1]
    cols = (np.where(moves, vg.L, 0.0), bundle.volumes[:, :-1], x,
            np.where(moves, vg.step * x, 0.0))      # rate and reward of each step
    block = max(1, (1 << 16) // (K - k0))          # paths per ~65k lines
    for rows in (slice(r, r + block) for r in range(0, bundle.n_paths, block)):
        _write_table(fh, _strings(np.arange(bundle.n_paths)[rows], "\n%d")[:, None], times,
                     *(_strings(col[rows], " %.17g") for col in cols))
    fh.write("\n")


def _write_exits(fh, bundle, ex):
    fh.write("path sigma_u sigma_l sigma case")
    _write_table(fh, _strings(np.arange(bundle.n_paths), "\n%d"), _strings(ex.sigma_u, " %.17g"),
                 _strings(ex.sigma_l, " %.17g"), _strings(ex.sigma, " %.17g"),
                 np.where(ex.case_u, " U", " L"))
    fh.write("\n")


def _write_martingale(fh, node_values):
    fh.write("k node M")
    nodes = _strings(np.arange(max(map(len, node_values))), " %d")
    for k, vals in enumerate(node_values):
        _write_table(fh, "\n%d" % k, nodes[:len(vals)], _strings(vals, " %.17g"))
    fh.write("\n")


def _prepare(cfg: dict, store: bool = True, scans=(), n_paths=0):
    """(policy, ens, starts) of a run. The starts are checked against the
    model's grids and make_ensemble(lattice, cfg, n_paths) runs before the
    solve, so bad input fails before the solve is paid for.
    Unless store is set (only value_field.txt reads the whole band), the
    band is kept at slice 0 and the start slices."""
    lattice, tg, vg = build_model(cfg)
    starts = parse_starts(cfg.get("starts", "0:0"))
    keep = {0} | {k0 for k0, _ in _start_indices(starts, tg, vg)}
    ens = make_ensemble(lattice, cfg, n_paths)
    tie_tol = cfg.get("tie_tol", TIE_TOL)
    return extract_policy(lattice, tg, vg, tie_tol, None if store else keep, *scans), ens, starts


def cmd_price(cfg: dict, out_dir: str) -> int:
    _export_price(out_dir, *_prepare(cfg))
    return 0


def _export_price(out_dir: str, policy, ens, starts):
    """Write the price bundle of a solved model and print its summary.

    Everything that can fail on the input runs before the first file is
    opened, so a bad start leaves no files behind."""
    field = policy.field
    occ = field.lattice.occupancy()
    summary, runs = [], []
    for (t0, y0), (k0, pos0) in zip(starts, _start_indices(starts, field.time_grid,
                                                           field.volume_grid)):
        value = _wsum(occ[k0], field.point(k0, np.arange(occ[k0].size), pos0))
        summary.append("J(%.17g,%.17g)=%.17g" % (t0, y0, value))
        bundle = rollout(policy, ens, (k0, y0))
        summary.append("rollout_mean(%.17g,%.17g)=%.17g" % (t0, y0, bundle.mean))
        runs.append((bundle, exit_times(bundle)))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "value_field.txt"), "w") as fh:
        _write_value_field(fh, field)
    for i, (bundle, ex) in enumerate(runs):
        with open(os.path.join(out_dir, "rollout_%d.txt" % i), "w") as fh:
            _write_rollout(fh, bundle)
        with open(os.path.join(out_dir, "exits_%d.txt" % i), "w") as fh:
            _write_exits(fh, bundle, ex)
    _write(out_dir, "summary.txt", "\n".join(summary) + "\n")
    for line in summary:
        print(line)


def _verify_checks(cfg: dict):
    invariants, residual = InvariantScan(), ResidualScan("implicit")
    policy, ens, starts = _prepare(cfg, False, (invariants, residual), n_paths=256)
    field, lattice, vg = policy.field, policy.field.lattice, policy.field.volume_grid
    results, bundle = [], rollout(policy, ens, (0, 0.0))
    try:        # one replay answers the dminus_at reads of both rollout checks
        field.keep(inclusion_reads(bundle) + policy.pre_exit[2])
    except ValueError:      # the optimal_martingale line reports it
        field.keep(inclusion_reads(bundle))

    def run(name, fn):
        try:
            results.append(("PASS", name, fn()))
        except InvariantError as exc:
            results.append(("FAIL", name, str(exc)))
        except PreconditionError as exc:
            results.append(("SKIP", name, str(exc)))
        except ValueError as exc:
            results.append(("ERROR", name, str(exc)))

    def check_values():
        ext = invariants.result()
        return "monotone %.3g concavity %.3g lipschitz %.3g" % (
            ext["monotone"], ext["concavity"], ext["lipschitz"])

    def check_residual():
        worst = residual.result()
        if worst > 1e-10:
            raise InvariantError("implicit residual %.3g above 1e-10" % worst)
        return "max residual %.3g" % worst

    def check_boundary():
        rep = boundary_check(field)
        if rep.violations:
            raise InvariantError("%d violations, deep %.3g"
                                 % (len(rep.violations), rep.max_deep))
        return "deep %.3g" % rep.max_deep

    def check_rollout():
        inc = check_inclusion(bundle)
        saturated = check_saturation(bundle)
        if ens.exhaustive:
            err = abs(bundle.mean - field.at(0, 0, 0.0))
            if err > 1e-10:
                raise InvariantError("rollout mean misses the value by %.3g" % err)
        return "saturated %s zero-side %.3g full-side %.3g" % (
            saturated, inc["max_zero_side"], inc["min_full_side"])

    def check_envelopes():
        a, b = lattice.envelope("max").check(), lattice.envelope("min").check()
        return "sup drift %.3g inf drift %.3g" % (a["drift"], b["drift"])

    def check_oracle():
        if lattice.n_steps > 4:
            raise PreconditionError("enumeration oracle runs at K <= 4 only")
        res = brute_force_value(lattice, vg)
        err = abs(res.value - field.at(0, 0, 0.0))
        if err > 1e-12:
            raise InvariantError("solver misses enumeration by %.3g" % err)
        return "enumerated %d policies, error %.3g" % (res.n_policies, err)

    def check_weak_duality():
        terminals = np.stack([random_terminal(lattice, seed) for seed in range(10)], axis=1)
        worst = np.inf
        for seed, rep in enumerate(dual_values(lattice, vg, terminals, field.at(0, 0, 0.0))):
            worst = min(worst, rep.gap)
            if rep.gap < -1e-10:
                raise InvariantError("weak duality broken by %.3g (seed %d)" % (rep.gap, seed))
        return "10 random martingales, worst gap %.3g" % worst

    def check_optimal_martingale():
        res = build_optimal_martingale(policy)
        if res.report.gap < -1e-10:
            raise InvariantError("negative gap %.3g" % res.report.gap)
        if res.flags:
            raise InvariantError("; ".join(res.flags))
        return "gap %.3g spread %.3g" % (res.report.gap, res.diagnostics["node_spread"])

    def check_marginal():
        rep = marginal_value_report(policy, ens, starts)
        return "%d starts within %.3g" % (len(rep.rows), rep.tol)

    run("value_invariants", check_values)
    run("bellman_residual", check_residual)
    run("boundary_identities", check_boundary)
    run("policy_rollout", check_rollout)
    run("snell_envelopes", check_envelopes)
    run("enumeration_oracle", check_oracle)
    run("weak_duality", check_weak_duality)
    run("optimal_martingale", check_optimal_martingale)
    run("marginal_values", check_marginal)
    return results


def cmd_verify(cfg: dict, out_dir: str) -> int:
    results = _verify_checks(cfg)
    lines = ["%s %s: %s" % (status, name, detail) for status, name, detail in results]
    _write(out_dir, "report.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 2 if any(status in ("FAIL", "ERROR") for status, _, _ in results) else 0


def cmd_dual(cfg: dict, out_dir: str, solved=None) -> int:
    """solved: an optional policy the study reuses at its K."""
    model = cfg.get("model", "binary")
    if model == "file":
        raise ValueError("the refinement study needs a rebuildable model, not model=file")
    k_list = parse_k_list(cfg.get("k_list", "48,96,192"))
    tie_tol = cfg.get("tie_tol", TIE_TOL)
    results = duality_gap_study(
        solved if solved is not None and solved.field.time_grid.K == K
        else extract_policy(*build_model(dict(cfg, K=K)), tie_tol, (0,)) for K in k_list)
    lines = ["K primal dual gap"]
    for K, res in zip(k_list, results):
        lines.append("%d %.17g %.17g %.17g"
                     % (K, res.report.primal, res.report.dual_value, res.report.gap))
    _write(out_dir, "gap_study.txt", "\n".join(lines) + "\n")

    res = results[k_list.index(max(k_list))]
    with open(os.path.join(out_dir, "martingale.txt"), "w") as fh:
        _write_martingale(fh, res.node_values)
    for line in lines:
        print(line)
    for flag in res.flags:
        print("flag: %s" % flag)
    return 0


def cmd_stopping(cfg: dict, out_dir: str) -> int:
    report = marginal_value_report(*_prepare(cfg, False))
    text = report.format_table()
    _write(out_dir, "marginal.txt", text)
    print(text, end="")
    return 0


def cmd_example(cfg: dict, out_dir: str) -> int:
    """Full bundle on the worked two-branch model."""
    sub = dict(cfg)
    sub["model"] = "binary"
    sub.setdefault("K", 96)
    sub.setdefault("starts", "0:0.5;0:0")
    policy, ens, starts = _prepare(sub)
    field = policy.field
    _export_price(out_dir, policy, ens, starts)
    report = marginal_value_report(policy, ens,
                                   [(0.0, 0.5), (0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    _write(out_dir, "marginal.txt", report.format_table())
    write_lattice(os.path.join(out_dir, "example_lattice.txt"), field.lattice,
                  field.time_grid, field.volume_grid.L)
    K = sub["K"]
    sub["k_list"] = "%d,%d,%d" % (K // 2, K, 2 * K)
    return cmd_dual(sub, out_dir, policy)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="swingkit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("price", "solve and export value, policy, and exits"),
                            ("verify", "run the invariant suites"),
                            ("dual", "martingale-bound refinement study"),
                            ("stopping", "marginal-value stopping table"),
                            ("example", "full worked-example bundle")):
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="key=value configuration file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--steps", type=int, default=None, help="override the step count K")
        sp.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        sp.add_argument("--exhaustive", action="store_true",
                        help="force exhaustive path enumeration")
    return parser


_COMMANDS = {
    "price": cmd_price,
    "verify": cmd_verify,
    "dual": cmd_dual,
    "stopping": cmd_stopping,
    "example": cmd_example,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config) if args.config else {}
        if args.steps is not None:
            cfg["K"] = args.steps
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.exhaustive:
            cfg["exhaustive"] = True
        return _COMMANDS[args.command](cfg, args.out)
    except InvariantError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
