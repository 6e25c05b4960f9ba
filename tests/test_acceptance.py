"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single summary line when it passes; tolerances are pinned
in the asserts. The binary worked example carries exact grid identities, so
several error ratios are tested against a 1e-12 floor (the measured errors
are exactly zero and a ratio of zeros is meaningless).
"""

import time

import numpy as np
import pytest

from swingkit import (InvariantScan, StoppingRule, TimeGrid, VolumeGrid, boundary_check,
                      brute_force_value, build_binary_example, build_binomial,
                      check_inclusion, check_saturation,
                      closed_form, constant_martingale, dual_value,
                      duality_gap_study, enumerate_paths, evaluate_stop_rule, exercise_regions,
                      exit_times, extract_policy, mollified_iterate,
                      optimal_predictable_stop, random_martingale, rollout,
                      sample_paths, solve)

from conftest import make_exp_martingale, random_tiny_lattice, region_masks

FLOOR = 1e-12


def build(kind, K, **kw):
    if kind == "binary":
        lat = build_binary_example(K)
        tg = TimeGrid(3.0, K)
    else:
        T = kw.pop("T")
        lat = build_binomial(kind, K, T, **kw)
        tg = TimeGrid(T, K)
    vg = VolumeGrid.aligned(1.0, tg)
    return lat, tg, vg


def shipped_models(K):
    """One instance of every cashflow family the builders ship."""
    return [
        ("binary", build("binary", K)),
        ("constant", build("constant", K, T=3.0, c=1.0)),
        ("martingale-mult", build("martingale", K, T=2.0, x0=1.0,
                                  up=1.05, down=0.96, p_up=4.0 / 9.0)),
        ("martingale-exp", (make_exp_martingale(K), TimeGrid(2.0, K),
                            VolumeGrid.aligned(1.0, TimeGrid(2.0, K)))),
        ("submartingale", build("submartingale", K, T=2.0, x0=1.0,
                                drift=0.05, noise=0.02)),
        ("supermartingale", build("supermartingale", K, T=2.0, x0=1.0,
                                  up=1.02, down=0.97, p_up=0.5)),
    ]


@pytest.fixture(scope="module")
def binary_multi():
    out = {}
    for K in (48, 96, 192):
        lat, tg, vg = build("binary", K)
        start = time.perf_counter()
        field = solve(lat, tg, vg)
        out[K] = {"lat": lat, "tg": tg, "vg": vg, "field": field,
                  "seconds": time.perf_counter() - start}
    return out


@pytest.fixture(scope="module")
def binary_solved(binary_multi):
    b = dict(binary_multi[96])
    b["policy"] = extract_policy(b["lat"], b["tg"], b["vg"])
    b["ens"] = enumerate_paths(b["lat"])
    return b


def test_criterion_01_value_and_refinement(binary_multi):
    err96 = abs(binary_multi[96]["field"].at(0, 0, 0.5) - 0.875)
    err192 = abs(binary_multi[192]["field"].at(0, 0, 0.5) - 0.875)
    assert err96 <= 0.05
    assert max(err192, FLOOR) <= 0.6 * max(err96, FLOOR) + FLOOR
    assert binary_multi[96]["seconds"] < 1.0
    assert binary_multi[192]["seconds"] < 1.0
    print("criterion 1 PASS: err96=%.3g err192=%.3g solve %.3fs/%.3fs"
          % (err96, err192, binary_multi[96]["seconds"], binary_multi[192]["seconds"]))


def test_criterion_02_marginal_value_and_exit(binary_solved):
    b = binary_solved
    ndm = -b["field"].dminus(0)[0, b["vg"].index_of(0.5)]
    assert abs(ndm - 1.5) <= 0.05
    bundle = rollout(b["policy"], b["ens"], (0, 0.5))
    ex = exit_times(bundle)
    assert ex.sigma.tolist() == [1.5, 2.5]
    w = bundle.weights
    x_at = np.array([b["lat"].x(k)[int(row[k])]
                     for row, k in zip(bundle.nodes, ex.k_sigma)])
    value = float(w @ x_at)
    assert value == 1.5
    print("criterion 2 PASS: -D-J(0,0.5)=%.17g E[X(sigma)]=%.17g sigma=%s"
          % (ndm, value, ex.sigma.tolist()))


def test_criterion_03_predictability_separation(binary_solved):
    b = binary_solved
    start = time.perf_counter()
    _, sup_a = optimal_predictable_stop(b["policy"], (0, 0.5), "can_raise")
    stop = [np.zeros(b["lat"].n_nodes(k), dtype=bool) for k in range(97)]
    stop[32][0] = True
    stop[80][1] = True
    rule = StoppingRule(b["lat"], stop=stop, k0=0)
    ripped = evaluate_stop_rule(rule, b["ens"])
    seconds = time.perf_counter() - start
    assert sup_a == 1.5
    assert ripped == 1.75
    assert seconds < 1.0
    print("criterion 3 PASS: predictable sup=%.17g non-predictable rule=%.17g in %.3fs"
          % (sup_a, ripped, seconds))


def test_criterion_04_enumeration_oracle():
    worst = 0.0
    biggest = 0
    for seed in range(20):
        lat, tg, vg = random_tiny_lattice(seed)
        res = brute_force_value(lat, vg)
        assert res.n_policies <= 2 ** 20
        field = solve(lat, tg, vg)
        worst = max(worst, abs(res.value - field.at(0, 0, 0.0)))
        biggest = max(biggest, res.n_policies)
    assert worst <= 1e-12
    print("criterion 4 PASS: 20 lattices, worst |solver-enum|=%.3g, largest 2^P=%d"
          % (worst, biggest))


def test_criterion_05_weak_duality():
    models = [
        build("binary", 48),
        build("constant", 48, T=3.0, c=1.0),
        (make_exp_martingale(48), TimeGrid(2.0, 48),
         VolumeGrid.aligned(1.0, TimeGrid(2.0, 48))),
        build("submartingale", 48, T=2.0, x0=1.0, drift=0.05, noise=0.02),
        build("supermartingale", 48, T=2.0, x0=1.0, up=1.02, down=0.97, p_up=0.5),
    ]
    checked = 0
    worst = np.inf
    for lat, tg, vg in models:
        primal = solve(lat, tg, vg).at(0, 0, 0.0)
        for seed in range(10):
            rep = dual_value(random_martingale(lat, seed), vg, primal=primal)
            assert rep.dual_value >= primal - 1e-10
            worst = min(worst, rep.dual_value - primal)
            checked += 1
    assert checked == 50
    print("criterion 5 PASS: 50 martingales on 5 models, min dual-primal=%.3g" % worst)


def test_criterion_06_strong_duality_refinement():
    def binary_make(K):
        return build("binary", K)

    def mart_make(K):
        tg = TimeGrid(2.0, K)
        return make_exp_martingale(K), tg, VolumeGrid.aligned(1.0, tg)

    def const_make(K):
        return build("constant", K, T=3.0, c=1.0)

    summaries = []
    for name, make in (("binary", binary_make), ("martingale", mart_make)):
        gaps = [res.report.gap for res in
                duality_gap_study(extract_policy(*make(K)) for K in (48, 96, 192))]
        for gap in gaps:
            assert gap >= -1e-10
        for a, b in zip(gaps, gaps[1:]):
            assert max(b, FLOOR) <= 0.75 * max(a, FLOOR) + FLOOR
        summaries.append("%s gaps %s" % (name, ["%.2g" % gap for gap in gaps]))
    for res in duality_gap_study(extract_policy(*const_make(K)) for K in (48, 96, 192)):
        assert res.report.gap == 0.0
    summaries.append("constant gaps identically 0")
    print("criterion 6 PASS: " + "; ".join(summaries))


def test_criterion_07_closed_forms():
    lat, tg, vg = build("submartingale", 16, T=2.0, x0=3.0, drift=0.2, noise=0.1)
    sub_field = solve(lat, tg, vg)
    worst = 0.0
    for y in (0.0, 0.25, 0.5, 0.75):
        want = closed_form("submartingale", lat, tg, vg, 0.0, y)
        worst = max(worst, abs(sub_field.at(0, 0, y) - want))
    lat2, tg2, vg2 = build("supermartingale", 16, T=2.0, x0=3.0,
                           up=1.02, down=0.95, p_up=0.5)
    sup_field = solve(lat2, tg2, vg2)
    for y in (0.0, 0.25, 0.5, 0.75):
        want = closed_form("supermartingale", lat2, tg2, vg2, 0.0, y)
        worst = max(worst, abs(sup_field.at(0, 0, y) - want))
    assert worst <= 1e-10
    print("criterion 7 PASS: late/early exercise closed forms, worst |diff|=%.3g" % worst)


def test_criterion_08_invariant_suite():
    details = []
    for name, (lat, tg, vg) in shipped_models(96):
        invariants = InvariantScan()
        policy = extract_policy(lat, tg, vg, 1e-9, None, invariants)
        field = policy.field
        invariants.result()
        rep = boundary_check(field)
        assert rep.violations == []
        try:
            ens = enumerate_paths(lat)
        except ValueError:
            ens = sample_paths(lat, n_paths=256, seed=11)
        for y0 in (0.0, 0.5):
            bundle = rollout(policy, ens, (0, y0))
            check_inclusion(bundle)
            if tg.K - 0 >= vg.cap_pos - vg.index_of(y0):
                assert check_saturation(bundle) is True
        details.append(name)
    assert len(details) == 6
    print("criterion 8 PASS: invariant suite clean on " + ", ".join(details))


def test_criterion_09_derivative_gap_refinement():
    def mean_interior_gap(lat, tg, vg):
        field = solve(lat, tg, vg)
        total, count = 0.0, 0
        for k in range(tg.K + 1):
            mask = region_masks(field, k)["interior"]
            if not mask.any():
                continue
            g = field.dminus(k)[:, mask] - field.dplus(k)[:, mask]
            g = g[np.isfinite(g)]
            total += float(g.sum())
            count += g.size
        return total / count

    families = {
        "binary": lambda K: build("binary", K),
        "constant": lambda K: build("constant", K, T=3.0, c=1.0),
        "martingale": lambda K: (make_exp_martingale(K), TimeGrid(2.0, K),
                                 VolumeGrid.aligned(1.0, TimeGrid(2.0, K))),
        "submartingale": lambda K: build("submartingale", K, T=2.0, x0=1.0,
                                         drift=0.05 * 48 / K,
                                         noise=0.02 * float(np.sqrt(48 / K))),
    }
    lines = []
    for name, make in families.items():
        lat, tg, vg = make(48)
        assert lat.lce_declared
        gaps = [mean_interior_gap(*make(K)) for K in (48, 96, 192)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + FLOOR
        if gaps[0] > FLOOR:
            assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        lines.append("%s %s" % (name, ["%.2g" % g for g in gaps]))
    print("criterion 9 PASS: " + "; ".join(lines))


def test_criterion_10_mollified_controls(binary_solved):
    b = binary_solved
    regions = exercise_regions(b["field"])
    controls = mollified_iterate(regions, b["ens"], (0, 0.5), 5)
    for lo, hi in zip(controls, controls[1:]):
        assert float((hi.trajectories - lo.trajectories).min()) >= 0.0
    bundle = rollout(b["policy"], b["ens"], (0, 0.5))
    roll = bundle.volumes
    bound = 2.0 * b["vg"].L * b["tg"].dt
    gap4 = float(np.max(np.abs(roll - controls[3].trajectories)))
    assert gap4 <= bound
    print("criterion 10 PASS: monotone iterates, n=4 gap %.17g <= %.17g" % (gap4, bound))
