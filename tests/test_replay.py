"""A field that solve keeps at a few slices only (verify, stopping, dual)
against the stored band (price, example): the scans fed by the one sweep
give the results of the full-row references, and the kept rows and the
replayed point reads are the stored bits."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingkit import (InvariantError, InvariantScan, ResidualScan, ScenarioLattice,
                      ThresholdScan, TimeGrid, VolumeGrid, extract_policy, marginal_value_report,
                      sample_paths, solve)
from swingkit.cli import main
from swingkit.models import _wsum

from conftest import (dense_go, exp_martingale_keys, feed, is_threshold, make_exp_martingale,
                      reference_bellman_residual, reference_check_value_invariants,
                      tiny_lattice_rows)


def outcome(fn):
    """fn()'s value, or the text of the InvariantError it raises."""
    try:
        return fn()
    except InvariantError as exc:
        return "InvariantError: %s" % exc


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def dense_thresholds(field, tie_tol):
    """The thresholds of the dense rate-L rule on the stored field's full
    slices, or the first error that building the policy raises."""
    vg, K = field.volume_grid, field.time_grid.K
    wants = [dense_go(field.lattice, k, field.row(k), vg, tie_tol) for k in range(K)]
    bad = [k for k, want in enumerate(wants) if not is_threshold(want)]
    if bad:
        go = wants[bad[0]]
        node = np.flatnonzero((go[:, 1:] & ~go[:, :-1]).any(axis=1))[0]
        return "InvariantError: policy at slice %d node %d is not a volume threshold" % (
            bad[0], node)
    thr = [want.sum(axis=1) - 1 for want in wants]
    below = [k for k, t in enumerate(thr) if np.any(t < vg.boundary_pos(k))]
    if below:
        return "InvariantError: full rate not selected below the boundary at slice %d" % below[0]
    return thr


def same_thresholds(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return len(a) == len(b) and all(x.dtype == np.int32 and np.array_equal(x, y)
                                    for x, y in zip(a, b))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=5), j_cap=st.integers(1, 2), flat=st.booleans(),
       tie_tol=st.sampled_from([0.0, 1e-9, 1.0]), data=st.data())
def test_a_replayed_field_reads_as_the_stored_one(rows, j_cap, flat, tie_tol, data):
    """One pass of the recursion that keeps slice 0 and a start slice feeds
    the thresholds, the invariants and both residual forms the results of the
    full-slice references on the stored field (or the same first error); its
    tail and kept rows are the stored bits, and one replay answers drawn
    dminus_at reads with them. A constant X puts the band on a tie, which
    tie_tol = 0 lets rounding split into a refused non-threshold row."""
    if flat:
        rows = [[replace(nd, x=rows[0][0].x) for nd in row] for row in rows]
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg = TimeGrid(float(K), K)
    vg = VolumeGrid.aligned(1.0 / j_cap, tg)
    stored = solve(lat, tg, vg)
    k0 = data.draw(st.integers(0, K - 1))
    thr, inv = ThresholdScan(tie_tol), InvariantScan()
    res = {form: ResidualScan(form) for form in ("implicit", "explicit")}
    field = solve(lat, tg, vg, {0, k0}, thr, inv, *res.values())

    assert same_thresholds(outcome(thr.result), dense_thresholds(stored, tie_tol))
    assert outcome(inv.result) == outcome(lambda: reference_check_value_invariants(stored))
    for form, scan in res.items():
        assert bits(scan.result()) == bits(reference_bellman_residual(stored, form)[1])
    for k in range(K + 1):
        assert np.array_equal(bits(field.tail[k]), bits(stored.tail[k]))
    for k in {0, k0}:
        assert np.array_equal(bits(field.row(k)), bits(stored.row(k)))
    with pytest.raises(TypeError, match="band of slice %d was not kept" % K):
        field.row(K)

    def draw_reads():
        reads = []
        for _ in range(data.draw(st.integers(1, 6))):
            k = data.draw(st.integers(0, K))
            n = data.draw(st.integers(1, 4))
            nodes = data.draw(st.lists(st.integers(0, lat.n_nodes(k) - 1), min_size=n,
                                       max_size=n))
            pos = data.draw(st.lists(st.integers(0, vg.cap_pos), min_size=n, max_size=n))
            reads.append((k, np.array(nodes), np.array(pos)))
        return reads

    first, second = draw_reads(), draw_reads()
    field.keep(first)
    field.keep(second)          # a second replay keeps the first one's points
    for k, nodes, pos in first + second:
        assert np.array_equal(bits(field.dminus_at(k, nodes, pos)),
                              bits(stored.dminus_at(k, nodes, pos)))
        assert np.array_equal(bits(field.point(k, nodes, pos)), bits(stored.point(k, nodes, pos)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=tiny_lattice_rows(max_steps=6), j_cap=st.integers(1, 2), data=st.data())
def test_the_downward_scans_report_the_lowest_failing_slice(rows, j_cap, data):
    """The scans see the slices from K down to 0, as the sweep makes them,
    yet a field dented at two slices reports the first error of an upward
    scan: the invariants as the full-slice reference does, and the policy
    the lower slice's non-threshold row, also when other slices, above or
    below them, leave the full rate unchosen on the boundary; those alone
    report the lowest of them."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg = TimeGrid(float(K), K)
    vg = VolumeGrid.aligned(1.0 / j_cap, tg)
    field = solve(lat, tg, vg)
    wide = [k for k in range(K) if field.band[k].shape[1] >= 2]
    if not wide:
        return
    dents = sorted(set(data.draw(st.lists(st.sampled_from(wide), min_size=2, max_size=2))))
    band = [b.copy() for b in field.band]
    for k in dents:
        n = data.draw(st.integers(0, lat.n_nodes(k) - 1))
        band[k][n, 1] -= 10.0       # a dip: J rises after it, and so does the rate
    broken = replace(field, band=band)
    want = outcome(lambda: reference_check_value_invariants(broken))
    assert want.startswith("InvariantError: ")
    assert outcome(lambda: feed(broken, InvariantScan())) == want
    policy = outcome(lambda: feed(broken, ThresholdScan(1e-9)))
    assert policy.startswith("InvariantError: policy at slice %d node " % dents[0])
    spare = [k for k in range(K) if vg.boundary_pos(k) >= 0 and k not in dents]
    if spare:
        ks = sorted(set(data.draw(st.lists(st.sampled_from(spare), min_size=2, max_size=2))))
        rows = [(k, data.draw(st.integers(0, lat.n_nodes(k) - 1))) for k in ks]
        below = "InvariantError: full rate not selected below the boundary at slice %d" % ks[0]
        assert outcome(lambda: feed(unexercised(field, rows), ThresholdScan(1e-9))) == below
        assert outcome(lambda: feed(unexercised(broken, rows), ThresholdScan(1e-9))) == policy


def unexercised(field, rows):
    """field with J at each (slice k, node n) of rows falling by 1e6 a level
    from the boundary up: the rate-L set of that row is empty, a threshold
    that leaves the full rate unchosen on the boundary."""
    tail, band = [t.copy() for t in field.tail], [b.copy() for b in field.band]
    for k, n in rows:
        w = band[k].shape[1]
        tail[k][n] = 1e6 * (w + 2)
        band[k][n] = 1e6 * (w + 1 - np.arange(w))
    return replace(field, tail=tail, band=band)


def test_a_kept_sweep_gives_the_reference_residuals_at_k384():
    """Both residual forms, fed by a sweep that keeps slice 0 only, give the
    full-row reference residuals of the stored K=384 exp-martingale field
    bit for bit."""
    lat = make_exp_martingale(384)
    tg = TimeGrid(2.0, 384)
    vg = VolumeGrid.aligned(1.0, tg)
    res = {form: ResidualScan(form) for form in ("implicit", "explicit")}
    solve(lat, tg, vg, {0}, *res.values())
    stored = solve(lat, tg, vg)
    for form, scan in res.items():
        assert bits(scan.result()) == bits(reference_bellman_residual(stored, form)[1])


STARTS = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25), (0.25, 1.0), (1.0, 0.0), (1.5, 0.25)]

# The price summary J(t0, y0) = sum_n occ[k0][n] * row(k0)[n, pos0] and the
# marginal table's -D-J, -D+J, snell_sup and snell_inf at STARTS, as float.hex.
PINS = {
    96: (["0x1.0000000000008p+0", "0x1.0000000000006p-1", "0x1.8000000000005p-1", "0x0.0p+0",
          "0x1.fffffffffffffp-1", "0x1.0000000000000p-1"],
         [("0x1.0000000000020p+0", "0x1.fffffffffffe0p-1", "nan", "nan"),
          ("0x1.0000000000008p+0", "0x1.0000000000009p+0", "nan", "nan"),
          ("0x1.fffffffffffeap-1", "0x1.ffffffffffff4p-1", "nan", "nan"),
          ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000001p+0", "nan"),
          ("0x0.0p+0", "0x1.fffffffffffd5p-1", "nan", "0x1.ffffffffffff3p-1"),
          ("0x0.0p+0", "0x0.0p+0", "nan", "nan")]),
    384: (["0x1.0000000000060p+0", "0x1.000000000005ep-1", "0x1.8000000000085p-1", "0x0.0p+0",
           "0x1.0000000000045p+0", "0x1.0000000000051p-1"],
          [("0x1.0000000000200p+0", "0x1.0000000000020p+0", "nan", "nan"),
           ("0x1.00000000000dcp+0", "0x1.0000000000024p+0", "nan", "nan"),
           ("0x1.000000000002ep+0", "0x1.fffffffffffffp-1", "nan", "nan"),
           ("0x1.0000000000022p+0", "0x1.0000000000022p+0", "0x1.0000000000023p+0", "nan"),
           ("0x0.0p+0", "0x1.ffffffffffe62p-1", "nan", "0x1.000000000002ep+0"),
           ("0x0.0p+0", "0x0.0p+0", "nan", "nan")]),
}


@pytest.mark.parametrize("K", sorted(PINS))
def test_summary_and_marginal_values_are_pinned(K):
    """The stored and the replayed policy of the exp-martingale lattice give
    the pinned price summary and marginal-table bits. A policy that kept
    slice 0 only gives the same marginal bits: the report keeps its own
    point reads."""
    lat = make_exp_martingale(K)
    tg = TimeGrid(2.0, K)
    vg = VolumeGrid.aligned(1.0, tg)
    keep = {0} | {tg.start_index(t) for t, _ in STARTS}
    occ, ens = lat.occupancy(), sample_paths(lat, 8, 1)
    stored, replayed, bare = (extract_policy(lat, tg, vg, 1e-9, kept)
                              for kept in (None, keep, {0}))
    for policy in (stored, replayed):
        summary = [_wsum(occ[k0], policy.field.row(k0)[:, vg.index_of(y)])
                   for k0, y in ((tg.start_index(t), y) for t, y in STARTS)]
        assert [v.hex() for v in summary] == PINS[K][0]
    for policy in (stored, replayed, bare):
        rows = marginal_value_report(policy, ens, STARTS).rows
        assert [tuple(float(v).hex() for v in (r.dminus_neg, r.dplus_neg, r.snell_sup,
                                               r.snell_inf)) for r in rows] == PINS[K][1]


@pytest.mark.parametrize("command", ["verify", "stopping"])
def test_verify_and_stopping_never_hold_the_band(command, tmp_path, capsys):
    """verify and stopping on the K=192 exp-martingale binomial, built in
    memory from its config: the traced peak stays below the bytes of the
    stored band, which a resident band alone would reach (the stored solve
    peaked at 1.73x and 1.56x of them)."""
    K = 192
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(exp_martingale_keys(K) + "n_paths=256\nstarts=0:0;0.5:0.25;1:0.5;0.5:1\n")
    tg = TimeGrid(2.0, K)
    band = solve(make_exp_martingale(K), tg, VolumeGrid.aligned(1.0, tg)).nbytes
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < band
