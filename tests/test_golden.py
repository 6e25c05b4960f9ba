"""Golden outputs: the CLI's files and stdout, pinned byte for byte.

Each case runs `main()` on a small fixed config and compares the sha256 of
every file in the output directory and of stdout with the digests pinned
below. A change that alters a digest on purpose updates the pin and says
which files changed and why.
"""

import hashlib

import numpy as np
import pytest

from swingkit import LatticeNode, ScenarioLattice, TimeGrid, write_lattice
from swingkit.cli import main

from conftest import exp_martingale_keys, make_exp_martingale


def seeded_tree(K=8, seed=5):
    """A non-recombining tree on T = 2: every other step splits each node in
    two, at x / u and x * u for a drawn u, with a drawn probability that is
    no short binary fraction, so the occupancy of a node rounds; the other
    steps have one child, drifted by a drawn factor. Only correctly rounded
    operations make the values, so they have the same bits on every CPU."""
    rng = np.random.default_rng(seed)
    rows, xs = [], [1.0]
    for k in range(K + 1):
        row, nxt = [], []
        for x in xs:
            if k == K:
                row.append(LatticeNode(x))
            elif k % 2 == 1:
                p, u = rng.uniform(0.3, 0.7), 1.0 + rng.uniform(0.05, 0.15)
                row.append(LatticeNode(x, (len(nxt), len(nxt) + 1), (1.0 - p, p)))
                nxt += [x / u, x * u]
            else:
                row.append(LatticeNode(x, (len(nxt),), (1.0,)))
                nxt.append(x * (1.0 + rng.uniform(-0.05, 0.05)))
        rows.append(row)
        xs = nxt
    return ScenarioLattice.from_rows(rows)


# name -> (subcommand arguments, config text or None); {lattice} is the path
# of a K=12 exp-martingale lattice file and {tree} that of the K=8 seeded_tree(),
# each written next to the outputs
CASES = {
    "example": (["example", "--steps", "12"], None),
    "price-floor": (["price"], "model=binomial\nkind=submartingale\ndrift=0.01\nnoise=0.005\n"
                               "x0=1\nT=1\nK=12\nstarts=0:0;0.25:0.5\n"),
    "price-exp-martingale": (["price"], exp_martingale_keys(12) + "starts=0:0;0.5:0.5\n"),
    "verify-file": (["verify"], "model=file\nlattice_file={lattice}\n"),
    "stopping-file": (["stopping"], "model=file\nlattice_file={lattice}\nstarts=0:0;0.5:0.5\n"),
    "stopping-tree": (["stopping"], "model=file\nlattice_file={tree}\n"
                                    "starts=0:0;0.5:0.25;1:0.5;0.5:1\n"),
    "dual": (["dual"], "model=binary\nk_list=6,12,24\n"),
    "dual-zero-probability": (["dual"], "model=binomial\nkind=martingale\nx0=1\nup=1\n"
                                        "down=0.9\np_up=1\nT=2\nk_list=6,12\n"),
}

GOLDEN = {
    "dual": {
        "stdout": "1ce6c30762c673f22966bc2db53f3518e33c1930233da83bc0ed61816a464fc9",
        "gap_study.txt": "1ce6c30762c673f22966bc2db53f3518e33c1930233da83bc0ed61816a464fc9",
        "martingale.txt": "9ee4d8b6067809171c5fddd8bb00b4435900ca39a8ccd07ea91b1fa6c94b6b2c",
    },
    # p_up=1: every down edge has probability 0, so most nodes show the
    # martingale value of their first state
    "dual-zero-probability": {
        "stdout": "6711777670264e1907683f68cd85679041d607cdb925a58cd06f83b0811614a7",
        "gap_study.txt": "6711777670264e1907683f68cd85679041d607cdb925a58cd06f83b0811614a7",
        "martingale.txt": "1ade90e956855c6afcadaea58171f1cbff4a6c486218527e20946209fb6acc19",
    },
    "example": {
        "stdout": "ee6a86b402e5486a661685da63beacb659b80de914165959d21d3401c983461f",
        "example_lattice.txt": "490cf52b3a5a95c05db9a6dd7f633d63cbe08eeff9e03c202e33ba12de7057ab",
        "exits_0.txt": "3e727f2e823856f7a72943951edbbb8e6ceb0e76a7354ef8aa2b21c0fbef2f80",
        "exits_1.txt": "a41465d888a79f6aa8d50c4969467b241b18298c5f23c4a0cc1716d12d77bdb1",
        "gap_study.txt": "1ce6c30762c673f22966bc2db53f3518e33c1930233da83bc0ed61816a464fc9",
        "marginal.txt": "6e5357ea5f99a4041a46be397271d5832329a5fee4d475ecbd18a225ee68c460",
        "martingale.txt": "9ee4d8b6067809171c5fddd8bb00b4435900ca39a8ccd07ea91b1fa6c94b6b2c",
        "rollout_0.txt": "d39dfd0e1ccc4b1156152d8191870b4ba34dd7fc6ba926d5e78eb2a76f827e37",
        "rollout_1.txt": "77edacad19b7cbd817c672fc6df3955063cd1b5140ac58428d2ce264f2b34247",
        "summary.txt": "11d50ea124ca11d1b29addcf2e157ec526dbb507a9bfb38093dd0196fb9c9b8d",
        "value_field.txt": "6beaa721d663ca1acaf7b5bed787ef33a2fbd24bb5d556a24326e7a0f0668f2f",
    },
    "price-exp-martingale": {
        "stdout": "d84b88bb6001e481d78160f9a66c9c84a1d5d0ed695c54974609306c682b6dcb",
        "exits_0.txt": "e1be10efc7b8fd1d51daa4ecea7df1ab39cf52ca3cb57fd06f791ce067fcd9f8",
        "exits_1.txt": "e1be10efc7b8fd1d51daa4ecea7df1ab39cf52ca3cb57fd06f791ce067fcd9f8",
        "rollout_0.txt": "caae60db6dd9b6dcbe96ce8bd2826a5c2ed0c1cf94c06483d9774b5d321b776e",
        "rollout_1.txt": "ca0eb8ba3d9de614ef227f0c0b12dbe5a10777211fd14c011d4bac824f23342e",
        "summary.txt": "d84b88bb6001e481d78160f9a66c9c84a1d5d0ed695c54974609306c682b6dcb",
        "value_field.txt": "6efca5c952f2ab6e36737887fbb209a5daf204b385318f49a2fa962df1706e59",
    },
    "price-floor": {
        "stdout": "e850c790fee5ea96d2e2d9d33038179c81bc366cfc4fdf57f4af344c507e0d42",
        "exits_0.txt": "0e1d5c1499916a2cf04e97725eb193117675265000d87531299fbfce75a93691",
        "exits_1.txt": "070732fc26227082a663d7f6fe2ce21125a8a8dad5715924849fafdcbccec84f",
        "rollout_0.txt": "a9baf6456e2a049b064f6519e3777c0c39ab94319b18c5a38171da4f683a175f",
        "rollout_1.txt": "3a4c7d6c33bf90079f9ebeb4821b9cf363782449f042fb0c97d012d223ad5a7c",
        "summary.txt": "e850c790fee5ea96d2e2d9d33038179c81bc366cfc4fdf57f4af344c507e0d42",
        "value_field.txt": "52c507561ddbb003ece4672854a0b70535f3ff1cc70f406e77a9f660211d6600",
    },
    "stopping-file": {
        "stdout": "6eae13922ff71b6cc877fcb304c312c6e98fbcdf437546b74902fe000252e841",
        "lattice.txt": "bda614f8dcbe58e800bc5173ce512470eb76e4002ede0e18d4d8baafa741f95c",
        "marginal.txt": "6eae13922ff71b6cc877fcb304c312c6e98fbcdf437546b74902fe000252e841",
    },
    # the search columns on a tree whose branch probabilities are no short
    # binary fractions, so the search's start mass, the occupancy, rounds;
    # its split children x / u and x * u are correctly rounded, so tree.txt
    # has the same bits on every CPU
    "stopping-tree": {
        "stdout": "c469ff5d370bbd0f495ab5d9755278506b1ab317abe10716316c683dc16a0781",
        "marginal.txt": "c469ff5d370bbd0f495ab5d9755278506b1ab317abe10716316c683dc16a0781",
        "tree.txt": "4c5f5c099db0655a9626e9f4d2afce7108795d847a1c7af9e5b9d32be148268e",
    },
    # boundary_identities reads "deep 0": the cap column it also reported is
    # the literal 0 that ValueField.row writes, so that check was dropped
    "verify-file": {
        "stdout": "c449d326394400f2e55352626db2b606ab6e74d00961d0daa2d3b44b155f89df",
        "lattice.txt": "bda614f8dcbe58e800bc5173ce512470eb76e4002ede0e18d4d8baafa741f95c",
        "report.txt": "c449d326394400f2e55352626db2b606ab6e74d00961d0daa2d3b44b155f89df",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys) -> dict:
    """sha256 of stdout and of every output file of one case."""
    args, text = CASES[name]
    out = tmp_path / "out"
    out.mkdir()
    lattice, tree = out / "lattice.txt", out / "tree.txt"
    if text is not None and "{lattice}" in text:
        write_lattice(str(lattice), make_exp_martingale(12), TimeGrid(2.0, 12), 1.0)
    if text is not None and "{tree}" in text:
        write_lattice(str(tree), seeded_tree(), TimeGrid(2.0, 8), 1.0)
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.format(lattice=lattice, tree=tree))
        args = args + ["--config", str(cfg)]
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 0
    digests = {"stdout": sha(capsys.readouterr().out.encode())}
    digests.update((p.name, sha(p.read_bytes())) for p in sorted(out.iterdir()))
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == GOLDEN[name]
