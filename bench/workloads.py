"""Benchmark workloads: seeded input generators and output checks.

Each workload writes its own inputs (a config file and, for model=file, a
lattice file in the documented `T K L lce p_exponent` / `k node X child:prob`
text format) so the program only ever sees those files. The output check of
each workload is a property that holds for every seed; `check` returns a list
of problems, empty when the outputs are correct.

Only the standard library is used here, so inputs and checks do not depend on
the code under test.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass, field


@dataclass
class Inputs:
    """One generated instance of a workload."""

    command: str                 # swingkit subcommand
    config: str                  # path of the generated config file
    cfg: dict                    # the same config as a dict
    expect: dict = field(default_factory=dict)  # what the output check needs


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_config(path: str, cfg: dict):
    with open(path, "w") as fh:
        for key, val in cfg.items():
            fh.write("%s=%s\n" % (key, val))


def _write_lattice(path: str, T: float, K: int, L: float, slices):
    """slices[k] is a list of (x, [(child, prob), ...]); lce is declared."""
    with open(path, "w") as fh:
        fh.write("%s %d %s 1 2\n" % (_fmt(T), K, _fmt(L)))
        for k, row in enumerate(slices):
            for n, (x, kids) in enumerate(row):
                parts = ["%d %d %s" % (k, n, _fmt(x))]
                parts += ["%d:%s" % (c, _fmt(p)) for c, p in kids]
                fh.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------- price-export

PRICE_STARTS = ((0.0, 0.0), (0.5, 0.25))


def price_export(seed: int, work: str, K: int = 96) -> Inputs:
    """ROADMAP binomial martingale, sampled rollouts from two starts."""
    cfg = {"model": "binomial", "kind": "martingale", "drift": 0, "noise": 0.005,
           "x0": 1, "T": 2, "L": 1, "K": K, "n_paths": 256, "seed": seed,
           "starts": ";".join("%s:%s" % s for s in PRICE_STARTS)}
    path = os.path.join(work, "price.cfg")
    _write_config(path, cfg)
    return Inputs("price", path, cfg,
                  {"K": K, "T": 2.0, "x0": 1.0, "n_paths": 256, "starts": PRICE_STARTS})


def _read_pairs(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            out[key] = float(val)
    return out


def check_price(inp: Inputs, out: str) -> list:
    """J equals the martingale closed form x0*(1-y0) (L*(T-t0) >= 1-y0 at
    both starts) and each rollout mean lies within 4 standard errors of J."""
    e = inp.expect
    K = e["K"]
    problems = []
    summary = _read_pairs(os.path.join(out, "summary.txt"))
    for i, (t0, y0) in enumerate(e["starts"]):
        tag = "(%s,%s)" % (_fmt(t0), _fmt(y0))
        J = summary.get("J" + tag)
        mean = summary.get("rollout_mean" + tag)
        if J is None or mean is None:
            problems.append("summary lacks start %s" % tag)
            continue
        if not abs(J - e["x0"] * (1.0 - y0)) <= 1e-12:       # NaN fails too
            problems.append("J%s=%r misses x0*(1-y0)" % (tag, J))
        k0 = int(round(t0 * K / e["T"]))
        rewards = {}
        with open(os.path.join(out, "rollout_%d.txt" % i)) as fh:
            next(fh)
            rows = 0
            for line in fh:
                parts = line.split()
                rewards[parts[0]] = rewards.get(parts[0], 0.0) + float(parts[5])
                rows += 1
        if len(rewards) != e["n_paths"] or rows != e["n_paths"] * (K - k0):
            problems.append("rollout_%d has %d paths and %d rows" % (i, len(rewards), rows))
            continue
        vals = list(rewards.values())
        if not abs(statistics.fmean(vals) - mean) <= 1e-9:
            problems.append("rollout_%d rows do not sum to the reported mean" % i)
        se = statistics.stdev(vals) / math.sqrt(len(vals))
        if not abs(mean - J) <= 4.0 * se:
            problems.append("rollout mean %r is %.3g SE from J %r" % (mean, abs(mean - J) / se, J))
        with open(os.path.join(out, "exits_%d.txt" % i), "rb") as fh:
            if fh.read().count(b"\n") != e["n_paths"] + 1:
                problems.append("exits_%d has the wrong row count" % i)
    levels = K + 1                    # j_cap = K/(L*T) = K/2, j_min = -K/2
    nodes = (K + 1) * (K + 2) // 2
    with open(os.path.join(out, "value_field.txt"), "rb") as fh:
        if fh.read().count(b"\n") != 1 + nodes * levels:
            problems.append("value_field.txt has the wrong row count")
    return problems


# ---------------------------------------------------------- verify-recombining

VERIFY_STARTS = ((0.0, 0.0), (0.5, 0.5), (1.0, 0.25), (0.25, 1.0))


def verify_recombining(seed: int, work: str, K: int = 384) -> Inputs:
    """Exp-martingale recombining lattice (sigma 0.15 scaled to the step)."""
    T, L, sigma = 2.0, 1.0, 0.15
    dt = T / K
    up, down = math.exp(sigma * math.sqrt(dt)), math.exp(-sigma * math.sqrt(dt))
    p = (1.0 - down) / (up - down)
    slices = []
    for k in range(K + 1):
        row = []
        for i in range(k + 1):
            x = 1.0 * up ** i * down ** (k - i)
            row.append((x, [] if k == K else [(i, 1.0 - p), (i + 1, p)]))
        slices.append(row)
    lat = os.path.join(work, "exp_martingale.txt")
    _write_lattice(lat, T, K, L, slices)
    cfg = {"model": "file", "lattice_file": lat, "n_paths": 256, "seed": seed,
           "starts": ";".join("%s:%s" % s for s in VERIFY_STARTS)}
    path = os.path.join(work, "verify.cfg")
    _write_config(path, cfg)
    return Inputs("verify", path, cfg)


VERIFY_CHECKS = ("value_invariants", "bellman_residual", "boundary_identities",
                 "policy_rollout", "snell_envelopes", "enumeration_oracle",
                 "weak_duality", "optimal_martingale", "marginal_values")


def check_verify(inp: Inputs, out: str) -> list:
    """Every report line is PASS except the declared enumeration-oracle SKIP."""
    problems = []
    seen = []
    with open(os.path.join(out, "report.txt")) as fh:
        for line in fh:
            status, _, rest = line.partition(" ")
            name = rest.split(":", 1)[0]
            seen.append(name)
            want = "SKIP" if name == "enumeration_oracle" else "PASS"
            if status != want:
                problems.append("%s is %s, want %s" % (name, status, want))
    if tuple(seen) != VERIFY_CHECKS:
        problems.append("report lists %s" % ",".join(seen))
    return problems


# --------------------------------------------------------------- stopping-tree

TREE_INTERIOR = ((0.0, 0.0), (0.25, 0.5), (0.5, 0.25), (0.75, 0.75), (1.0, 0.5))
TREE_CAP = (0.5, 1.0)


def tree_slices(seed: int, K: int = 48, T: float = 2.0):
    """Seeded non-recombining tree: fan-out 2 out of every slice k with
    k % 4 == 3, fan-out 1 otherwise. Branch sizes and probabilities are
    drawn per node; single-child steps carry a small drawn drift."""
    rng = random.Random(seed)
    dt = T / K
    slices = []
    xs = [1.0]
    for k in range(K + 1):
        row, nxt = [], []
        for x in xs:
            if k == K:
                row.append((x, []))
            elif k % 4 == 3:
                p = rng.uniform(0.3, 0.7)
                s = 0.2 * math.sqrt(4 * dt) * rng.uniform(0.5, 1.5)
                row.append((x, [(len(nxt), 1.0 - p), (len(nxt) + 1, p)]))
                nxt += [x * math.exp(-s), x * math.exp(s)]
            else:
                row.append((x, [(len(nxt), 1.0)]))
                nxt.append(x * (1.0 + rng.uniform(-0.5, 0.5) * dt))
        slices.append(row)
        xs = nxt
    return slices


def cap_envelope(slices, k0: int) -> float:
    """E[W_{k0}] for W_k = max(X_k, E[W_{k+1} | node]) with W_K = 0.

    Exercising at the cap level spends the last volume step, so the latest
    useful stop is t_{K-1}; -D-J at y = 1 is this envelope.
    """
    K = len(slices) - 1
    w = [0.0] * len(slices[K])
    for k in range(K - 1, k0 - 1, -1):
        w = [max(x, sum(p * w[c] for c, p in kids)) for x, kids in slices[k]]
    occ = [1.0]
    for k in range(k0):
        nxt = [0.0] * len(slices[k + 1])
        for n, (_, kids) in enumerate(slices[k]):
            for c, p in kids:
                nxt[c] += occ[n] * p
        occ = nxt
    return sum(o * v for o, v in zip(occ, w))


def stopping_tree(seed: int, work: str, K: int = 48) -> Inputs:
    T = 2.0
    slices = tree_slices(seed, K, T)
    lat = os.path.join(work, "tree.txt")
    _write_lattice(lat, T, K, 1.0, slices)
    starts = TREE_INTERIOR + (TREE_CAP,)
    cfg = {"model": "file", "lattice_file": lat, "exhaustive": "true",
           "starts": ";".join("%s:%s" % s for s in starts)}
    path = os.path.join(work, "stopping.cfg")
    _write_config(path, cfg)
    k_cap = int(round(TREE_CAP[0] * K / T))
    return Inputs("stopping", path, cfg,
                  {"n_interior": len(TREE_INTERIOR), "cap": cap_envelope(slices, k_cap)})


def check_stopping(inp: Inputs, out: str) -> list:
    """Interior rows carry the searched chain; the cap row's -D-J equals the
    benchmark's own envelope within 1e-12."""
    with open(os.path.join(out, "marginal.txt")) as fh:
        rows = [line.split() for line in fh][1:]
    regions = [r[2] for r in rows]
    want = ["interior"] * inp.expect["n_interior"] + ["cap"]
    if regions != want:
        return ["regions %s, want %s" % (regions, want)]
    problems = []
    for r in rows[:-1]:
        if any(math.isnan(float(v)) for v in r[3:8]):
            problems.append("interior row at t0=%s lacks a chain value" % r[0])
    ndm = float(rows[-1][3])
    if not abs(ndm - inp.expect["cap"]) <= 1e-12:
        problems.append("cap neg_dminus %r differs from the envelope %r"
                        % (ndm, inp.expect["cap"]))
    return problems


WORKLOADS = {
    "price-export": (price_export, check_price),
    "verify-recombining": (verify_recombining, check_verify),
    "stopping-tree": (stopping_tree, check_stopping),
}
