"""The pinned output bits hold on other CPU kernels.

Each case runs the golden digests and the replay pins in a child process
whose environment alone selects another OpenBLAS kernel or switches off
numpy's AVX2 and AVX-512 dispatch, as a CPU without those features would.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from test_golden import CASES
from test_replay import PINS

TESTS = pathlib.Path(__file__).resolve().parent

KERNELS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-without-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_digests_and_replay_pins_hold_on_another_kernel(kernel, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp",
         str(tmp_path), str(TESTS / "test_golden.py"),
         "%s::test_summary_and_marginal_values_are_pinned" % (TESTS / "test_replay.py")],
        env=dict(os.environ, **KERNELS[kernel]), cwd=TESTS.parent, capture_output=True,
        text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1].startswith("%d passed" % (len(CASES) + len(PINS)))
