"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints exactly the
metrics BENCHMARK.json names with their units and passes its gates; that
a deliberately perturbed golden byte in a copy of the golden outputs is
counted as a failed operation (the run still exits 0 with a result);
and the span arithmetic on a hand-made example.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import OUT_DIR  # noqa: E402
from tracing import SpanStats  # noqa: E402


def run_bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
            "--tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_metrics(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for wl in spec["workloads"]:
            result, stderr = run_bench(wl["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, stderr
            assert result["attempted"] >= 1
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                if trace == 0:
                    assert m["value"] > 0, (wl["name"], name, m)
            print(f"ok: {wl['name']} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks")


def check_broken_golden() -> None:
    golden = OUT_DIR / "selftest-golden"
    shutil.rmtree(golden, ignore_errors=True)
    shutil.copytree(ROOT / "tests" / "golden", golden)
    try:
        report = golden / "qm_run_report.json"
        data = bytearray(report.read_bytes())
        data[len(data) // 2] ^= 0x01
        report.write_bytes(bytes(data))
        result, stderr = run_bench("mc_sweep", 0, "--golden-dir", str(golden))
    finally:
        shutil.rmtree(golden, ignore_errors=True)
    assert not result["correct"], result
    assert result["failed"] >= 1, result
    assert "cli analyze report bytes" in stderr, stderr
    print(f"ok: perturbed golden byte -> {result['failed']} failed of "
          f"{result['attempted']} checks")


def check_span_arithmetic() -> None:
    # Parent 0..10 with children 1..4 and 3..6 on two threads (overlap
    # counted once) and a grandchild inside the first child.
    spans = [(0, "outer", 0.0, 10.0, None, 1, None),
             (1, "inner", 1.0, 4.0, 0, 2, None),
             (2, "inner", 3.0, 6.0, 0, 3, None),
             (3, "leaf", 2.0, 3.0, 1, 2, None)]
    st = SpanStats(spans)
    assert abs(st.self_s["outer"] - 5.0) < 1e-12, st.self_s
    assert abs(st.self_s["inner"] - 5.0) < 1e-12, st.self_s
    assert st.calls["inner"] == 2
    assert st.count_under("leaf", "outer") == 1
    assert st.count_under("inner", "leaf") == 0
    print("ok: span self times and ancestry")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_span_arithmetic()
    check_metrics(spec)
    check_broken_golden()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
