"""The benchmark's own self-test passes against this source tree."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    # Runs every workload at tiny sizes, traced and untraced, so a change
    # that breaks the benchmark's instrumentation of the package shows here.
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "selftest.py")],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
