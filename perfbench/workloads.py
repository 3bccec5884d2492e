"""The benchmark's two workloads.

Each workload builds its inputs from the run seed (``build``), runs one
pass over a fixed-size input set (``run_pass``), and checks bellsim's
outputs with gates that record failures instead of aborting.  Pass ``k``
draws its per-pass randomness (point seeds, quads, search seeds) from
``SeedSequence(entropy=seed, spawn_key=(k,))``, so repeated passes do
fresh work and the same seed always gives the same inputs.

bellsim functions are always reached through their module
(``bellsim.sampler.run_experiment``), never bound into this file, so
the spans that ``tracing`` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bellsim
import bellsim.cli
import bellsim.random_models

# A sampled U_eff must lie within this many of its standard errors of
# the exact value.  Each run makes about a hundred such checks with a
# fresh seed, so at 4 one run in about 160 would fail by chance.
PULL_LIMIT = 5.0
# Soundness tolerance of the exact suite and the frozen search.
BOUND_SLACK = 1e-9
# The report's U_eff must reproduce the lean value to this accuracy.
REPORT_MATCH_TOL = 1e-12


def pass_seed_sequence(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


class Gates:
    """Counts correctness-checked operations; a failure never aborts a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    @contextlib.contextmanager
    def operation(self, name: str):
        """Count an exception inside the block as one failed operation."""
        try:
            yield
        except Exception as exc:  # a crashed operation is a failed gate
            self.check(name, False, f"raised {type(exc).__name__}: {exc}")


@dataclass
class PassResult:
    wall_s: float = 0.0
    work: int = 0           # units of work finished (trials, evals, objective calls)
    work_s: float = 0.0     # wall time the work rate is taken over
    task_ms: list[float] = field(default_factory=list)


@dataclass
class Context:
    root: Path              # checkout root: holds src/, tests/, demos/
    work_dir: Path          # scratch files of one run, removed at exit
    golden_dir: Path
    workers: int
    tiny: bool = False


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return bellsim.cli.main(argv)


def _tables_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.label.encode())
        h.update(np.ascontiguousarray(rec.table, dtype=np.int64).tobytes())
    return h.hexdigest()


class McSweep:
    """Monte Carlo efficiency sweep: run, write CSV, read CSV, analyze."""

    name = "mc_sweep"
    task = "one sweep point: run_experiment, CSV write and read, analysis"
    tail_pct = 90
    # The grid of acceptance criterion 4 and the README sweep: 15 QM
    # points plus 2 model files make 17 tasks a pass, whose 90th
    # percentile lies between the second and third largest points.
    ETAS = (0.1, 0.3, 0.5, 0.75, 1.0)
    F12S = (0.25, 0.5, 1.0)
    F = 0.95
    MODEL_FILES = ("solution1_tabulated.json", "threshold_adversary.json")
    GOLDEN_SIMULATE = ["simulate", "--eta", "0.75", "--f", "0.9", "--F", "0.95",
                       "--trials", "5000", "--seed", "314"]

    def __init__(self, ctx: Context):
        self.ctx = ctx
        # Large enough that the median point's time is mostly sampling,
        # not the fixed per-point cost of threads, CSV and analysis.
        self.target = 100 if ctx.tiny else 12_000
        self.slhv_trials = 2_000 if ctx.tiny else 1 << 17
        self.probe_trials = 1 << 14 if ctx.tiny else 1 << 20
        self.min_passes = 1 if ctx.tiny else 6

    def build(self, seed: int) -> dict:
        quad = bellsim.optimal_quad()
        # Enough emitted pairs that every setting pair collects the
        # coincidence target with a six-sigma margin.
        margin = self.target + 6.0 * math.sqrt(self.target)
        points = []
        for eta in self.ETAS:
            for f12 in self.F12S:
                params = bellsim.QMModelParams(eta, eta, f12, 1.0, self.F)
                points.append((params, int(math.ceil(margin / params.eta12f12))))
        model_paths = [self.ctx.root / "demos" / "models" / f for f in self.MODEL_FILES]
        exact_slhv = [bellsim.bounds.effective_chsh_value(
            bellsim.modelio.load_model(p), quad, validate=False) for p in model_paths]
        golden = {name: (self.ctx.golden_dir / name).read_bytes()
                  for name in ("qm_run.csv", "qm_run.csv.run.json",
                               "qm_run_report.json")}
        return {"seed": seed, "quad": quad, "points": points,
                "model_paths": model_paths, "exact_slhv": exact_slhv,
                "golden": golden}

    def _pipeline(self, source, plan, csv_path):
        res = bellsim.sampler.run_experiment(source, plan, workers=self.ctx.workers)
        bellsim.sampler.write_counts_csv(res.records, csv_path)
        recs = bellsim.estimator.read_counts_csv(csv_path)
        return res, recs, bellsim.estimator.analysis_report(recs)

    def _check_point(self, gates, tag, res, recs, report, exact, target):
        n = res.plan.trials_per_pair
        gates.check(f"{tag} table sums", all(
            int(r.table.sum()) == n for r in res.records), f"expected {n}")
        read_back = {r.label: r for r in recs}
        gates.check(f"{tag} CSV round trip", all(
            r.label in read_back and read_back[r.label].emitted_total == n
            and np.array_equal(read_back[r.label].table, r.table)
            for r in res.records))
        if target is not None:
            coinc = min(int(r.table[:2, :2].sum()) for r in res.records)
            gates.check(f"{tag} coincidence target", coinc >= target,
                        f"{coinc} < {target}")
        # A source whose detected outcomes are fully correlated has zero
        # plug-in stderr; its estimate must then match to rounding.
        diff = abs(report["U_eff"] - exact)
        gates.check(f"{tag} U_eff pull",
                    diff <= PULL_LIMIT * report["stderr"] + REPORT_MATCH_TOL,
                    f"|U_eff - exact| = {diff!r}, stderr {report['stderr']!r}")

    def _check_golden(self, gates, inputs):
        golden = inputs["golden"]
        wd = self.ctx.work_dir
        sim_out = wd / "golden_sim.csv"
        with gates.operation("cli simulate"):
            code = _quiet_cli(self.GOLDEN_SIMULATE + ["--out", str(sim_out)])
            gates.check("cli simulate exit", code == 0, f"exit {code}")
            gates.check("cli simulate CSV bytes",
                        sim_out.read_bytes() == golden["qm_run.csv"])
            sidecar = Path(str(sim_out) + ".run.json")
            gates.check("cli simulate run.json",
                        json.loads(sidecar.read_text(encoding="utf-8"))
                        == json.loads(golden["qm_run.csv.run.json"]))
        report_out = wd / "golden_report.json"
        with gates.operation("cli analyze"):
            code = _quiet_cli(["analyze", "--counts",
                               str(self.ctx.golden_dir / "qm_run.csv"),
                               "--out", str(report_out)])
            gates.check("cli analyze exit", code == 0, f"exit {code}")
            gates.check("cli analyze report bytes",
                        report_out.read_bytes() == golden["qm_run_report.json"])

    def run_pass(self, inputs: dict, k: int, gates: Gates) -> PassResult:
        quad = inputs["quad"]
        n_sources = len(inputs["points"]) + len(inputs["model_paths"])
        seeds = [int(s) for s in
                 pass_seed_sequence(inputs["seed"], k).generate_state(n_sources)]
        out = PassResult()
        t_pass = time.perf_counter()
        for i, (params, n) in enumerate(inputs["points"]):
            tag = f"qm eta={params.eta1} f12={params.f12}"
            with gates.operation(tag):
                plan = bellsim.ExperimentPlan(quad=quad, trials_per_pair=n, seed=seeds[i])
                t0 = time.perf_counter()
                res, recs, report = self._pipeline(
                    params, plan, self.ctx.work_dir / f"point{i}.csv")
                out.task_ms.append(1e3 * (time.perf_counter() - t0))
                out.work += 4 * n
                exact = bellsim.qm.effective_chsh_value(params, quad)
                self._check_point(gates, tag, res, recs, report, exact, self.target)
        for j, path in enumerate(inputs["model_paths"]):
            with gates.operation(path.name):
                plan = bellsim.ExperimentPlan(quad=quad, trials_per_pair=self.slhv_trials,
                                              seed=seeds[len(inputs["points"]) + j])
                t0 = time.perf_counter()
                model = bellsim.modelio.load_model(path)
                res, recs, report = self._pipeline(
                    model, plan, self.ctx.work_dir / f"model{j}.csv")
                out.task_ms.append(1e3 * (time.perf_counter() - t0))
                out.work += 4 * self.slhv_trials
                self._check_point(gates, path.name, res, recs, report,
                                  inputs["exact_slhv"][j], None)
        self._check_golden(gates, inputs)
        out.wall_s = out.work_s = time.perf_counter() - t_pass
        return out

    def probe(self, inputs: dict, gates: Gates) -> dict[str, float]:
        """Sampler scaling on one fixed point, and worker independence."""
        params = bellsim.QMModelParams(0.75, 0.75, 0.9, 0.9, self.F)
        plan = bellsim.ExperimentPlan(quad=inputs["quad"],
                                      trials_per_pair=self.probe_trials,
                                      seed=inputs["seed"])
        times = {1: [], self.ctx.workers: []}
        digests = {}
        for _ in range(3):
            for w in times:
                t0 = time.perf_counter()
                res = bellsim.sampler.run_experiment(params, plan, workers=w)
                times[w].append(time.perf_counter() - t0)
                digests.setdefault(w, set()).add(_tables_digest(res.records))
        gates.check("sampler worker independence",
                    len(set().union(*digests.values())) == 1,
                    f"digests {digests}")
        t1 = float(np.median(times[1]))
        tn = float(np.median(times[self.ctx.workers]))
        return {"sampler.parallel_speedup": t1 / tn}


class AdversarySearch:
    """The two criterion-6 searches, after exact checks on small models.

    Each pass first runs the criterion-2 checks: random models from the
    three ``random_models`` generators, each with lean exact U_eff
    evaluations at fresh random quads and one full report, and
    ``verify-bounds`` on the demo tabulated model in all three modes.
    These take a few percent of a pass and are outside its timed task;
    the traced run reports their layers.  Timed alone, such per-call
    Python work slows by up to 1.75x when the host is busy, against under
    1.1x for the searches, so no end-to-end figure rests on it.
    """

    name = "adversary_search"
    task = "one pass: both adversary.search calls, until both verdicts are back"
    # A pass is one task, and a run has too few passes for a percentile
    # with ten samples beyond it; the slowest pass alone moves with the
    # seed's evaluation counts, so the tail is the run's p90.
    tail_pct = 90
    DEMO_MODEL = "solution1_tabulated.json"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.budget = (dict(restarts=2, max_evals=50, n_lambda=90) if ctx.tiny
                       else dict(restarts=20, max_evals=2000, n_lambda=720))
        self.models_per_generator = 2 if ctx.tiny else 4
        self.quads_per_model = 3 if ctx.tiny else 20
        self.min_passes = 1 if ctx.tiny else 3

    def build(self, seed: int) -> dict:
        adv = bellsim.adversary
        rm = bellsim.random_models
        mode = bellsim.EffectiveCorrelationMode
        generators = ((rm.random_angle_independent_model, mode.SOLUTION1),
                      (rm.random_lambda_independent_model, mode.SOLUTION2),
                      (rm.random_nondegenerate_model, mode.SOLUTION3))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        # The sizes are the same for every seed, spread evenly over 4-47,
        # so that seeds differ in the models' contents, not in the work.
        sizes = np.linspace(4, 47, self.models_per_generator).round().astype(int)
        t0 = time.perf_counter()
        models = [(gen(rng, int(n_lambda)), m)
                  for gen, m in generators for n_lambda in sizes]
        build_s = time.perf_counter() - t0
        return {"seed": seed, "quad": bellsim.optimal_quad(),
                "attack": adv.get_family("threshold-detection"),
                "frozen": adv.get_family("modulated-p0"),
                "models": models, "build_s": build_s,
                "demo_model": self.ctx.root / "demos" / "models" / self.DEMO_MODEL}

    def configs(self, inputs: dict, k: int):
        s_attack, s_frozen = (int(s) for s in
                              pass_seed_sequence(inputs["seed"], k).generate_state(2))
        cfg = bellsim.adversary.SearchConfig
        return (cfg(family=inputs["attack"], quad=inputs["quad"], seed=s_attack,
                    **self.budget),
                cfg(family=inputs["frozen"], quad=inputs["quad"], seed=s_frozen,
                    freeze={"c1": 0.0}, **self.budget))

    def exact_checks(self, inputs: dict, k: int, gates: Gates) -> None:
        """|U_eff| <= 2 over the small random models, and verify-bounds."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=inputs["seed"], spawn_key=(k, 1)))
        lean = bellsim.bounds.effective_chsh_value
        for i, (model, mode) in enumerate(inputs["models"]):
            tag = f"model {i} ({mode.value})"
            with gates.operation(tag):
                quads = [bellsim.random_models.random_quad(rng)
                         for _ in range(self.quads_per_model)]
                values = [lean(model, q, mode, validate=False) for q in quads]
                report = bellsim.bounds.effective_chsh(model, quads[0], mode)
                worst = max(abs(v) for v in values)
                gates.check(f"{tag} |U_eff| <= 2", worst <= 2.0 + BOUND_SLACK,
                            f"max |U_eff| = {worst!r}")
                gates.check(f"{tag} validator", report.assumption_report.passed,
                            f"max deviation {report.assumption_report.max_deviation!r}")
                gates.check(f"{tag} no theorem breach", not report.theorem_breach)
                gates.check(f"{tag} report matches lean",
                            abs(report.u_eff - values[0]) <= REPORT_MATCH_TOL,
                            f"{report.u_eff!r} vs {values[0]!r}")
        for mode in ("solution1", "solution2", "solution3"):
            with gates.operation(f"cli verify-bounds {mode}"):
                code = _quiet_cli(["verify-bounds", "--model", str(inputs["demo_model"]),
                                   "--mode", mode])
                gates.check(f"cli verify-bounds {mode} exit", code == 0, f"exit {code}")

    def run_pass(self, inputs: dict, k: int, gates: Gates) -> PassResult:
        attack_cfg, frozen_cfg = self.configs(inputs, k)
        out = PassResult()
        t_pass = time.perf_counter()
        self.exact_checks(inputs, k, gates)
        t_search = time.perf_counter()
        with gates.operation("attack search"):
            attack = bellsim.adversary.search(attack_cfg, workers=self.ctx.workers)
            out.work += attack.evaluation_count
            gates.check("attack beats 2.05", attack.best_u_eff > 2.05,
                        f"best |U_eff| = {attack.best_u_eff!r}")
            gates.check("attack breaks solution1", not attack.assumption_solution1)
        with gates.operation("frozen search"):
            frozen = bellsim.adversary.search(frozen_cfg, workers=self.ctx.workers)
            out.work += frozen.evaluation_count
            gates.check("frozen slice <= 2", frozen.best_u_eff <= 2.0 + BOUND_SLACK,
                        f"best |U_eff| = {frozen.best_u_eff!r}")
        t_end = time.perf_counter()
        out.work_s = t_end - t_search
        out.task_ms.append(1e3 * out.work_s)
        out.wall_s = t_end - t_pass
        return out

    def probe(self, inputs: dict, gates: Gates) -> dict[str, float]:
        """Search scaling on the pass-0 attack, and worker independence."""
        attack_cfg, _ = self.configs(inputs, 0)
        times, results = {}, {}
        for w in (1, self.ctx.workers):
            t0 = time.perf_counter()
            results[w] = bellsim.adversary.search(attack_cfg, workers=w)
            times[w] = time.perf_counter() - t0
        one, many = results[1], results[self.ctx.workers]
        gates.check("search worker independence",
                    one.evaluation_count == many.evaluation_count
                    and one.to_json_dict() == many.to_json_dict(),
                    f"evaluations {one.evaluation_count} vs {many.evaluation_count}")
        return {"adversary.parallel_speedup": times[1] / times[self.ctx.workers]}


WORKLOADS = {cls.name: cls for cls in (McSweep, AdversarySearch)}
