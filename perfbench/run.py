"""bellsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; bellsim is imported from
``src/``.  The run

1. builds the inputs in this process and repeats passes over them for
   ``--seconds`` (and at least the workload's minimum pass count), with
   every pass checking bellsim's outputs;
2. between passes, spread evenly over the run, starts seven fresh
   interpreters, each timing ``import bellsim`` plus building the
   workload's inputs (``setup_s`` is their median);
3. with ``--trace 1``, also runs the workload's worker-scaling probe and
   one more pass with spans installed around bellsim's public functions,
   and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is the result object; the line before
it records the environment.  Spans, the result and the environment are
also written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
PROBE_TIMEOUT_S = 60
# Fresh interpreters timed for setup_s (one with --tiny).
SETUP_PROBES = 7
# A run stops starting passes after this long even below its minimum.
PASS_DEADLINE_S = 120
# The CPUs this process may run on, before any pinning.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
# At most this many CPUs are probed before a setup interpreter starts timing.
MAX_PROBED_CPUS = 8


def nproc() -> int:
    return len(CPUS) or os.cpu_count() or 1


def _cpu_probe_s() -> float:
    """A few milliseconds of pure-Python work, timed (best of two)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_fastest_cpu() -> None:
    """Pin this process to the CPU that runs the probe fastest right now.

    On a shared host each CPU's speed flips between two levels about 1.4x
    apart, for seconds to tens of seconds at a time and independently of
    the other CPUs.  A single-threaded setup interpreter pinned to the
    currently faster CPU is slowed only while every CPU is slow.  The
    workloads themselves run on every CPU and are never pinned.
    """
    if len(CPUS) < 2:
        return
    timings = {}
    for cpu in CPUS[:MAX_PROBED_CPUS]:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = _cpu_probe_s()
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


def _import_paths() -> None:
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _context(args):
    from workloads import Context
    golden = Path(args.golden_dir) if args.golden_dir else ROOT / "tests" / "golden"
    return Context(root=ROOT, work_dir=OUT_DIR / f"work-{os.getpid()}",
                   golden_dir=golden, workers=nproc(), tiny=args.tiny)


def setup_probe(args) -> int:
    """Child mode: time import and input building in a fresh interpreter."""
    _import_paths()
    pin_to_fastest_cpu()
    t0 = time.perf_counter()
    import bellsim  # noqa: F401
    t1 = time.perf_counter()
    modules = len(sys.modules)
    import workloads
    wl = workloads.WORKLOADS[args.workload](_context(args))
    inputs = wl.build(args.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1,
                      "modules_loaded": modules,
                      "build_s": inputs.get("build_s", 0.0)}))
    return 0


def run_setup_probe(args) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"setup probe failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, workers: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bellsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc(), "workers": workers,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "machine": platform.machine(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, wl, inputs, gates):
    """Passes until ``--seconds`` have elapsed and the minimum count is met.

    The setup interpreters start between passes, spread evenly over the
    run, so that ``setup_s`` samples the host over the whole run rather
    than in its first seconds.  Returns the passes and the setup probes.
    """
    seconds = args.seconds
    n_probes = 1 if args.tiny else SETUP_PROBES
    passes, probes = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(probes) < n_probes and elapsed >= len(probes) * seconds / n_probes:
            probes.append(run_setup_probe(args))
            continue
        if passes and elapsed >= seconds and len(passes) >= wl.min_passes:
            break
        if passes and elapsed >= PASS_DEADLINE_S:
            break
        passes.append(wl.run_pass(inputs, 0 if args.trace else len(passes), gates))
    while len(probes) < n_probes:
        probes.append(run_setup_probe(args))
    return passes, probes


def end_to_end(wl, passes, probes, gates) -> dict:
    """Whole-run figures.

    A shared host's CPU speed flips between two levels for seconds to
    minutes at a time, so per-pass figures are bimodal and a median over
    passes jumps between the levels.  Rates are therefore taken over the
    whole run, and latency percentiles within each pass, then averaged
    over the passes.
    """
    import numpy as np

    tasks = [t for p in passes for t in p.task_ms]
    if len(tasks) == len(passes):
        # One task a pass: the tail is taken over the run's passes.
        tail = float(np.percentile(tasks, wl.tail_pct))
        tail_label = f"p{wl.tail_pct} of the run's {len(tasks)} passes"
    else:
        tail = statistics.fmean(float(np.percentile(p.task_ms, wl.tail_pct))
                                for p in passes)
        tail_label = f"per-pass p{wl.tail_pct}, averaged over the passes"
    print(f"# {wl.name}: {len(passes)} passes, {len(tasks)} tasks ({wl.task}); "
          f"task_tail_ms is the {tail_label}", flush=True)
    ok_frac = (gates.attempted - gates.failed) / gates.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(p["import_s"] + p["inputs_s"] for p in probes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_ok_frac": (ok_frac, "ratio"),
        "work_per_s": (sum(p.work for p in passes) / sum(p.work_s for p in passes), "1/s"),
        "task_p50_ms": (statistics.fmean(float(np.percentile(p.task_ms, 50))
                                         for p in passes), "ms"),
        "task_tail_ms": (tail, "ms"),
    }


LAYER_UNITS = {
    "sampler.qm_trials_per_s": "trials/s",
    "sampler.slhv_trials_per_s": "trials/s",
    "sampler.uniforms_per_trial": "count",
    "sampler.parallel_speedup": "ratio",
    "sampler.run_experiment.self_s": "s",
    "sampler.substream.calls": "count",
    "sampler.substream.self_s": "s",
    "sampler.write_counts_csv.self_s": "s",
    "estimator.read_counts_csv.self_s": "s",
    "estimator.analysis_report.self_s": "s",
    "modelio.load_model.self_s": "s",
    "qm.effective_chsh_value.calls": "count",
    "model.triples.calls": "count",
    "model.triples.self_s": "s",
    "bounds.triples_per_eval": "count",
    "bounds.effective_chsh_value.calls": "count",
    "bounds.effective_chsh_value.us_per_call": "us",
    "bounds.effective_chsh.calls": "count",
    "bounds.effective_chsh.self_s": "s",
    "bounds.triples_per_report": "count",
    "model.validate.calls": "count",
    "model.validate.self_s": "s",
    "adversary.objective.calls": "count",
    "adversary.objective.us_per_call": "us",
    "adversary.instantiate.self_s": "s",
    "adversary.optimizer_s": "s",
    "adversary.parallel_speedup": "ratio",
    "setup.import_s": "s",
    "setup.modules_loaded": "count",
    "setup.inputs_s": "s",
    "random_models.build_s": "s",
    "cli.simulate_s": "s",
    "cli.analyze_s": "s",
    "cli.verify_bounds_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(wl, inputs, gates, passes, probes, run_tag: str) -> dict:
    from tracing import Tracer, layer_metrics

    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values.update(wl.probe(inputs, gates))
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_pass(inputs, 0, gates)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(OUT_DIR / f"spans-{run_tag}.jsonl")
    values.update(layer_metrics(tracer))
    values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
    values["setup.modules_loaded"] = statistics.median(p["modules_loaded"] for p in probes)
    values["random_models.build_s"] = statistics.median(p["build_s"] for p in probes)
    untraced = statistics.median(p.wall_s for p in passes)
    values["trace.overhead_frac"] = traced.wall_s / untraced - 1.0
    return {name: (value, LAYER_UNITS[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_sweep", "adversary_search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one pass minimum, one setup interpreter "
                             "(self-test)")
    parser.add_argument("--golden-dir", default=None,
                        help="golden CLI outputs (default tests/golden)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if not (ROOT / "src" / "bellsim").is_dir():
        print(f"error: no bellsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _import_paths()
    import workloads

    ctx = _context(args)
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ctx)
        inputs = wl.build(args.seed)
        gates = workloads.Gates()
        passes, probes = measure(args, wl, inputs, gates)
        run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = per_layer(wl, inputs, gates, passes, probes, run_tag)
        else:
            metrics = end_to_end(wl, passes, probes, gates)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)

    for failure in gates.failures[:20]:
        print(f"# gate failed: {failure}", file=sys.stderr)
    result = {"correct": gates.failed == 0, "attempted": gates.attempted,
              "failed": gates.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    env = environment(args, ctx.workers)
    (OUT_DIR / f"result-{run_tag}.json").write_text(
        json.dumps({"environment": env, "result": result,
                    "gate_failures": gates.failures,
                    "passes": [{"wall_s": p.wall_s, "work": p.work, "work_s": p.work_s,
                                "task_ms": p.task_ms} for p in passes]},
                   indent=2) + "\n",
        encoding="utf-8")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
