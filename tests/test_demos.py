"""Every CLI command and every demo script runs on numpy alone, through
``tests/without_extras.py``, which refuses imports of the test extras."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("0*.py"))
# Other BLAS and numpy kernels change last bits (ROADMAP item 8), so under
# them the launcher checks exit codes and, of the outputs, only the sampled
# bytes of the QM and threshold-model simulates, which no BLAS touches.
DISPATCH = {"default": {}, "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
            "numpy-below-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL X86_V4"}}


def launch(*args, cwd, env=None):
    proc = subprocess.run([sys.executable, str(REPO / "tests" / "without_extras.py"), *args],
                          cwd=cwd, env={**os.environ, **(env or {})},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("dispatch", DISPATCH)
def test_cli_runs_without_extras(dispatch, tmp_path):
    launch(cwd=tmp_path, env=DISPATCH[dispatch])


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    launch(str(script), cwd=tmp_path)
