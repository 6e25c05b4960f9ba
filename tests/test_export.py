"""The streamed text export against per-line reference formatting.

The reference functions below format one line at a time, the way the export
was first written; the streamed writers in `swingkit.cli` and
`write_lattice` must reproduce their text byte for byte.
"""

import io
import os
import tempfile

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from swingkit import (ScenarioLattice, TimeGrid, enumerate_paths, exit_times, extract_policy,
                      rollout, solve, write_lattice)
from swingkit import models
from swingkit.cli import (_strings, build_model, _write_exits, _write_martingale,
                          _write_rollout, _write_value_field, main, make_ensemble,
                          parse_config, parse_starts)

from conftest import rollout_steps, solved, tiny_lattice_rows


def reference_value_field(field, lattice) -> str:
    tg, vg = field.time_grid, field.volume_grid
    times, levels = tg.times.tolist(), vg.levels.tolist()
    lines = ["t node y J dminus dplus"]
    for k in range(tg.K + 1):
        t, J = times[k], field.row(k).tolist()
        dm, dp = field.dminus(k).tolist(), field.dplus(k).tolist()
        for n in range(lattice.n_nodes(k)):
            for p in range(vg.n_levels):
                lines.append("%.17g %d %.17g %.17g %.17g %.17g"
                             % (t, n, levels[p], J[n][p], dm[n][p], dp[n][p]))
    return "\n".join(lines) + "\n"


def reference_rollout(bundle, lattice) -> str:
    tg = bundle.policy.field.time_grid
    k0, K = bundle.k0, tg.K
    times = tg.times[k0:K].tolist()
    x = np.stack([lattice.x(k)[bundle.nodes[:, k]] for k in range(k0, K)], axis=1)
    lines = ["path t u y X inc"]
    rates, incs = rollout_steps(bundle)
    for pid, u, y, xs, inc in zip(range(bundle.n_paths), rates.tolist(),
                                  bundle.volumes[:, :-1].tolist(), x.tolist(), incs.tolist()):
        lines.extend("%d %.17g %.17g %.17g %.17g %.17g" % (pid, *row)
                     for row in zip(times, u, y, xs, inc))
    return "\n".join(lines) + "\n"


def reference_exits(bundle) -> str:
    ex = exit_times(bundle)
    lines = ["path sigma_u sigma_l sigma case"]
    for pid, s_u, s_l, sigma, case_u in zip(range(bundle.n_paths), ex.sigma_u.tolist(),
                                            ex.sigma_l.tolist(), ex.sigma.tolist(),
                                            ex.case_u.tolist()):
        lines.append("%d %.17g %.17g %.17g %s" % (pid, s_u, s_l, sigma, "U" if case_u else "L"))
    return "\n".join(lines) + "\n"


def reference_martingale(node_values) -> str:
    lines = ["k node M"]
    for k, vals in enumerate(node_values):
        lines.extend("%d %d %.17g" % (k, n, v) for n, v in enumerate(vals.tolist()))
    return "\n".join(lines) + "\n"


def reference_lattice_text(lattice, tg, L) -> str:
    lines = ["%.17g %d %.17g %d 2" % (tg.T, tg.K, L, int(lattice.lce_declared))]
    for k in range(tg.K + 1):
        start, child, prob = ([a.tolist() for a in lattice.edges(k)] if k < tg.K
                              else ([0] * (lattice.n_nodes(k) + 1), [], []))
        for n, x in enumerate(lattice.x(k).tolist()):
            lines.append("%d %d %.17g" % (k, n, x) + "".join(
                " %d:%.17g" % e for e in zip(child[start[n]:start[n + 1]],
                                             prob[start[n]:start[n + 1]])))
    return "\n".join(lines) + "\n"


def streamed(writer, *args) -> str:
    fh = io.StringIO()
    writer(fh, *args)
    return fh.getvalue()


SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 1.0 + 2.0 ** -52,
           1.0 - 2.0 ** -53, 0.1, 1e16, 1.7976931348623157e308]


AFFIXES = ["", " ", "\n"]
# the explain phase can fail inside hypothesis and hide the falsifying example
PHASES = [p for p in Phase if p is not Phase.explain]


@settings(derandomize=True, max_examples=200, deadline=None, phases=PHASES)
@given(pool=st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=6),
       data=st.data())
def test_strings_match_per_element_formatting(pool, data):
    """Formatting each distinct bit pattern once gives the text of formatting
    every element: repeats, both zeros, NaN, infinities, subnormals and
    neighbouring doubles, in 1-D and 2-D arrays, contiguous or not, with a
    space or newline before or after the number, and through a memo that a
    second call finds filled."""
    shape = data.draw(st.sampled_from([(0,), (1,), (7,), (40,), (0, 3), (3, 5), (6, 4)]))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
    a = np.array(pool, dtype=np.float64)[np.array(idx, dtype=np.int64)].reshape(shape)
    if a.ndim == 2 and data.draw(st.booleans()):
        a = a.T
    pre, suf = data.draw(st.sampled_from(AFFIXES)), data.draw(st.sampled_from(AFFIXES))
    memo = {} if data.draw(st.booleans()) else None
    for b in (a, a[::-1]):
        got = _strings(b, pre + "%.17g" + suf, memo)
        assert got.shape == b.shape
        assert got.ravel().tolist() == [pre + "%.17g" % v + suf for v in b.ravel().tolist()]
    ints = np.array(idx, dtype=np.int64) - 3
    assert (_strings(ints, pre + "%d" + suf).tolist()
            == [pre + "%d" % i + suf for i in ints.tolist()])


def test_value_field_formats_each_distinct_value_once_per_file(monkeypatch):
    """On a K=12 binomial martingale the value-field export formats each
    distinct bit pattern of J and of dminus once for the whole file (plus
    the times and levels), not once for every slice it occurs in."""
    formatted, real = [], models._format

    def counting(spec, values):
        if spec.endswith("g"):
            formatted.append(len(values))
        return real(spec, values)

    monkeypatch.setattr(models, "_format", counting)
    field = solve(*build_model({"model": "binomial", "kind": "martingale", "drift": 0.0,
                                "noise": 0.005, "x0": 1.0, "T": 2.0, "K": 12}))
    streamed(_write_value_field, field)
    K, n_levels = field.time_grid.K, field.volume_grid.n_levels

    def distinct(slices):
        return np.unique(np.concatenate([s.ravel() for s in slices]).view(np.int64)).size

    J = [field.row(k) for k in range(K + 1)]
    dm = [field.dminus(k) for k in range(K + 1)]
    assert sum(formatted) == distinct(J) + distinct(dm) + (K + 1) + n_levels
    assert sum(distinct([s]) for s in J + dm) > distinct(J) + distinct(dm)


@settings(derandomize=True, max_examples=60, deadline=None, phases=PHASES)
@given(rows=tiny_lattice_rows(), j_cap=st.integers(1, 3), data=st.data())
def test_streamed_tables_match_the_reference(rows, j_cap, data):
    """On drawn tiny lattices (j_cap >= K gives a grid that stops at zero and
    a NaN dminus column) every table equals the per-line reference."""
    lat = ScenarioLattice.from_rows(rows)
    K = lat.n_steps
    tg, vg, field, pol = solved(lat, float(K), 1.0 / j_cap)
    assert streamed(_write_value_field, field) == reference_value_field(field, lat)
    ens = enumerate_paths(lat)
    k0 = data.draw(st.integers(0, K - 1))
    pos0 = data.draw(st.integers(0, vg.n_levels - 1))
    b = rollout(pol, ens, (k0, vg.levels[pos0]))
    assert streamed(_write_rollout, b) == reference_rollout(b, lat)
    assert streamed(_write_exits, b, exit_times(b)) == reference_exits(b)


@settings(derandomize=True, max_examples=60, deadline=None, phases=PHASES)
@given(rows=tiny_lattice_rows(), data=st.data())
def test_martingale_table_matches_the_reference(rows, data):
    """`martingale.txt`'s table equals the per-line reference for node values
    shaped by a drawn tiny lattice: drawn floats, repeats and the special
    values, NaN included."""
    lat = ScenarioLattice.from_rows(rows)
    node_values = [np.array(data.draw(st.lists(st.sampled_from(SPECIAL) | st.floats(),
                                               min_size=n, max_size=n)), dtype=np.float64)
                   for n in map(lat.n_nodes, range(lat.n_steps + 1))]
    assert streamed(_write_martingale, node_values) == reference_martingale(node_values)


@settings(derandomize=True, max_examples=60, deadline=None, phases=PHASES)
@given(rows=tiny_lattice_rows(), lce=st.booleans(), L=st.sampled_from([1.0, 0.5, 1.0 / 3.0]))
def test_lattice_text_matches_the_reference(rows, lce, L):
    """`write_lattice` on a drawn tiny lattice writes the per-line reference."""
    lat = ScenarioLattice.from_rows(rows, lce_declared=lce)
    tg = TimeGrid(float(lat.n_steps), lat.n_steps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.txt")
        write_lattice(path, lat, tg, L)
        with open(path) as fh:
            assert fh.read() == reference_lattice_text(lat, tg, L)


def test_price_files_match_the_reference(tmp_path):
    """`price` files equal the reference on the binary K=12 example (6000
    sampled paths, so a rollout spans two blocks of lines) and on a binomial
    grid that stops at zero, whose dminus column is NaN."""
    cases = {
        "binary": "model=binary\nK=12\nn_paths=6000\nseed=3\nstarts=0:0.5;1.5:0\n",
        "floor": ("model=binomial\nkind=submartingale\ndrift=0.01\nnoise=0.005\nx0=1\n"
                  "T=1\nK=12\nstarts=0:0;0.25:0.5\n"),
    }
    for name, text in cases.items():
        cfg_path = tmp_path / (name + ".cfg")
        cfg_path.write_text(text)
        out = tmp_path / name
        assert main(["price", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = parse_config(str(cfg_path))
        pol = extract_policy(*build_model(cfg))
        field = pol.field
        lat, tg, vg = field.lattice, field.time_grid, field.volume_grid
        ens = make_ensemble(lat, cfg, 0)
        if name == "floor":
            assert vg.j_min == 0 and np.isnan(field.dminus(0)[:, 0]).all()
        assert (out / "value_field.txt").read_text() == reference_value_field(field, lat)
        for i, (t0, y0) in enumerate(parse_starts(cfg["starts"])):
            b = rollout(pol, ens, (tg.index_of(t0), y0))
            assert (out / ("rollout_%d.txt" % i)).read_text() == reference_rollout(b, lat)
            assert (out / ("exits_%d.txt" % i)).read_text() == reference_exits(b)
