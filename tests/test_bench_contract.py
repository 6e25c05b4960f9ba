"""The benchmark's own output checks, run on small instances of its workloads.

bench/workloads.py generates each workload's inputs and checks its outputs
with the standard library only. Running its generators at small K through
the CLI makes a change that would fail the benchmark's output check fail
here first. Nothing under bench/ is imported as a package: the module is
loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from swingkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its @dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload, K", [("price-export", 24), ("verify-recombining", 48),
                                         ("stopping-tree", 24)])
def test_a_small_workload_passes_its_output_check(tmp_path, workload, K, seed):
    make_inputs, check = WORKLOADS[workload]
    inp = make_inputs(seed, str(tmp_path), K=K)
    out = str(tmp_path / "out")
    assert main([inp.command, "--config", inp.config, "--out", out]) == 0
    assert check(inp, out) == []
