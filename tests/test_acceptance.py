"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see
them) and asserts the criterion at its stated tolerance.

Criterion 5 note: the full-sample CHSH check and the 2/(eta^2*f12) cap
apply where the quantum prediction keeps the full-sample CHSH value
within 2, i.e. where sqrt(2)*F*eta1*eta2*f12 <= 1.  The sweep grid's
single ideal-detection point (eta = f12 = 1) violates that premise by
construction (an ideal Bell test must violate CHSH), and the suite
asserts that too instead of hiding it.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from bellsim import qm
from bellsim.adversary import SearchConfig, get_family, search
from bellsim.bounds import (
    EffectiveCorrelationMode,
    effective_chsh_values,
    enumerate_vertices,
    optimal_quad,
)
from bellsim.cli import main as cli_main
from bellsim.estimator import (
    epsilon_decomposition,
    u_eff_from_counts,
)
from bellsim.qm import QMModelParams, qm_epsilon_identity
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
    random_nondegenerate_model,
    random_quad,
)
from bellsim.sampler import ExperimentPlan, run_experiment
import reference

SQRT2 = math.sqrt(2.0)
QUAD = optimal_quad()

ETA_GRID = (0.1, 0.3, 0.5, 0.75, 1.0)
F12_GRID = (0.25, 0.5, 1.0)
F_FIXED = 0.95


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_vertex_table_reproduction():
    t0 = time.perf_counter()
    ok = True
    points = [(Fraction(1), Fraction(1)), (Fraction(3, 5), Fraction(1, 2)),
              (Fraction(1, 3), Fraction(2, 7)), (1.0, 1.0), (0.6, 0.5)]
    for alpha, beta in points:
        rows = enumerate_vertices(alpha, beta)
        target = 2 * alpha * beta
        ok &= len(rows) == 16
        ok &= all(r.u_value in (target, -target) for r in rows)
        ok &= max(abs(r.u_value) for r in rows) == target
        # Independent oracle: raw evaluation over all sign choices.
        brute = {sx * alpha * (sy * beta - syp * beta)
                 + sxp * alpha * (sy * beta + syp * beta)
                 for sx, sxp, sy, syp in itertools.product((-1, 1), repeat=4)}
        ok &= {r.u_value for r in rows} == brute
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"16 vertices = +-2*alpha*beta at {len(points)} points, "
                  f"{elapsed * 1000:.1f} ms")


def test_criterion_2_bound_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    n_models = 1000
    n_quads = 50
    worst = {mode: 0.0 for mode in EffectiveCorrelationMode}
    generators = {
        EffectiveCorrelationMode.SOLUTION1: random_angle_independent_model,
        EffectiveCorrelationMode.SOLUTION2: random_lambda_independent_model,
        EffectiveCorrelationMode.SOLUTION3: random_nondegenerate_model,
    }
    for mode, gen in generators.items():
        for i in range(n_models):
            n_lambda = int(rng.integers(4, 48))
            model = gen(rng, n_lambda)
            quads = [random_quad(rng) for _ in range(n_quads)]
            values = effective_chsh_values(model, quads, mode, validate=False)
            worst[mode] = max(worst[mode], float(np.max(np.abs(values))))
    elapsed = time.perf_counter() - t0
    ok = all(v <= 2.0 + 1e-9 for v in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"{m.value} max |U_eff| = {v:.6f}"
                       for m, v in worst.items())
    report(2, ok, f"{n_models} models x {n_quads} quads per mode; {detail}; "
                  f"{elapsed:.1f} s")


def test_criterion_3_qm_violation_reproduction():
    t0 = time.perf_counter()
    ok = True
    exact = qm.effective_chsh_value(QMModelParams(1, 1, 1, 1, F_FIXED), QUAD)
    ok &= abs(exact - 2 * SQRT2 * F_FIXED) <= 1e-12
    ok &= abs(exact - 2.68701) <= 1e-5
    for F in (1.0, 0.8, 0.5):
        v = qm.effective_chsh_value(QMModelParams(0.3, 0.4, 0.9, 0.7, F), QUAD)
        ok &= abs(v - 2 * SQRT2 * F) <= 1e-12

    params = QMModelParams(0.75, 0.75, 0.9, 0.9, F_FIXED)
    res = run_experiment(params, ExperimentPlan(QUAD, 10**6, seed=2718))
    sampled, stderr = u_eff_from_counts(res.records)
    pull = (sampled - exact) / stderr
    ok &= abs(pull) <= 4.0
    ok &= 0.001 < stderr < 0.004  # announced sigma is about 0.002
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, ok, f"exact = {exact:.6f} = 2*sqrt(2)*F; sampled = "
                  f"{sampled:.4f} +- {stderr:.4f} ({pull:+.2f} sigma); "
                  f"{elapsed:.1f} s")


def test_criterion_4_efficiency_independence():
    t0 = time.perf_counter()
    min_coincidences = 10**5
    exact_values = set()
    sampled = []
    for i, (eta, f12) in enumerate(itertools.product(ETA_GRID, F12_GRID)):
        params = QMModelParams(eta, eta, f12, 1.0, F_FIXED)
        exact_values.add(qm.effective_chsh_value(params, QUAD))
        n = int(math.ceil(min_coincidences / params.eta12f12))
        seed = int(np.random.SeedSequence(entropy=44, spawn_key=(i,)).
                   generate_state(1)[0])
        res = run_experiment(params, ExperimentPlan(QUAD, n, seed=seed))
        u_eff, stderr = u_eff_from_counts(res.records)
        coincidences = min(int(r.table[:2, :2].sum()) for r in res.records)
        assert coincidences >= min_coincidences * 0.98, (eta, f12, coincidences)
        sampled.append((eta, f12, u_eff, stderr))

    ok = len(exact_values) == 1  # bitwise constant
    worst_pull = 0.0
    for (e1, f1, u1, s1), (e2, f2, u2, s2) in itertools.combinations(sampled, 2):
        pull = abs(u1 - u2) / math.hypot(s1, s2)
        worst_pull = max(worst_pull, pull)
    ok &= worst_pull <= 4.0
    exact = next(iter(exact_values))
    for _, _, u, s in sampled:
        ok &= abs(u - exact) <= 4 * s
    elapsed = time.perf_counter() - t0
    report(4, ok, f"{len(sampled)} grid points: exact bitwise-constant at "
                  f"{exact:.6f}; worst mutual pull {worst_pull:.2f} sigma; "
                  f"{elapsed:.1f} s")


def test_criterion_5_bookkeeping_identities():
    ok = True
    details = []

    # (a) U == U_eff - eps_total exactly on simulated data with totals.
    worst_identity = 0.0
    for seed, params in [(31, QMModelParams(0.75, 0.75, 0.9, 0.9, F_FIXED)),
                         (32, QMModelParams(0.4, 0.55, 0.7, 1.0, 0.9))]:
        res = run_experiment(params, ExperimentPlan(QUAD, 200_000, seed=seed))
        rep = epsilon_decomposition(res.records)
        worst_identity = max(worst_identity,
                             abs(rep.u - (rep.u_eff - rep.eps_total)))
    ok &= worst_identity <= 1e-12
    details.append(f"identity residual {worst_identity:.2e}")

    # (b) The closed-form discrepancy matches the definition applied to
    # the exact quantum quantities, for every grid point.
    worst_formula = 0.0
    for eta, f12 in itertools.product(ETA_GRID, F12_GRID):
        params = QMModelParams(eta, eta, f12, 1.0, F_FIXED)
        sp = qm.coincidence_probability(params)
        e = [qm.correlation(params, a, b) for _label, a, b in QUAD.pairs()]
        eps_total = reference.chsh([x * (1.0 - sp) / sp for x in e])
        u_eff = reference.chsh([x / sp for x in e])
        worst_formula = max(worst_formula,
                            abs(eps_total - qm_epsilon_identity(params, u_eff)))
    ok &= worst_formula <= 1e-12
    details.append(f"closed-form residual {worst_formula:.2e}")

    # (c) Full-sample CHSH stays within 2 in every simulation where the
    # quantum prediction itself satisfies it (realistic efficiencies).
    realistic = []
    premise_broken = []
    for i, (eta, f12) in enumerate(itertools.product(ETA_GRID, F12_GRID)):
        params = QMModelParams(eta, eta, f12, 1.0, F_FIXED)
        if SQRT2 * params.F * params.eta12f12 <= 1.0:
            realistic.append((i, params))
        else:
            premise_broken.append((eta, f12))
    ok &= premise_broken == [(1.0, 1.0)]
    max_abs_u = 0.0
    for i, params in realistic:
        n = int(math.ceil(2e4 / params.eta12f12))
        seed = int(np.random.SeedSequence(entropy=5, spawn_key=(i,)).
                   generate_state(1)[0])
        res = run_experiment(params, ExperimentPlan(QUAD, n, seed=seed))
        rep = epsilon_decomposition(res.records)
        max_abs_u = max(max_abs_u, abs(rep.u))
        ok &= abs(rep.u) <= 2.0
        # (d) the cap implied by an unviolated CHSH holds exactly here.
        ok &= abs(qm.effective_chsh_value(params, QUAD)) <= \
            qm.u_eff_cap(params) + 1e-12
    details.append(f"max sampled |U| = {max_abs_u:.4f} over "
                   f"{len(realistic)} realistic points")

    # The single ideal point genuinely violates the premise, as quantum
    # mechanics requires of a lossless Bell test.
    ideal = QMModelParams(1.0, 1.0, 1.0, 1.0, F_FIXED)
    ok &= abs(qm.chsh_value(ideal, QUAD)) > 2.0
    ok &= abs(qm.effective_chsh_value(ideal, QUAD)) > qm.u_eff_cap(ideal)
    details.append("ideal point violates CHSH as expected")

    report(5, ok, "; ".join(details))


def test_criterion_6_detection_loophole_demonstration():
    t0 = time.perf_counter()
    budget = dict(restarts=20, max_evals=2000)

    attack = search(SearchConfig(family=get_family("threshold-detection"),
                                 quad=QUAD, seed=606, **budget))
    ok = attack.best_u_eff > 2.05
    ok &= not attack.assumption_solution1

    frozen = search(SearchConfig(family=get_family("modulated-p0"),
                                 quad=QUAD, seed=607, freeze={"c1": 0.0},
                                 **budget))
    ok &= frozen.best_u_eff <= 2.0 + 1e-9

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(6, ok, f"attack best |U_eff| = {attack.best_u_eff:.4f} with "
                  f"angle-independence violated; frozen slice best = "
                  f"{frozen.best_u_eff:.6f} <= 2; {elapsed:.1f} s")


def test_criterion_7_reproducibility_across_workers(tmp_path):
    runs = {
        "sim": ["simulate", "--eta", "0.7", "--f", "0.85", "--F", "0.95",
                "--trials", "40000", "--seed", "777"],
        "sweep": ["sweep", "--eta-values", "0.5,1.0", "--f12-values", "0.5,1.0",
                  "--F", "0.95", "--seed", "778", "--min-coincidences", "2000"],
        "adv": ["adversary-search", "--family", "threshold-detection",
                "--restarts", "6", "--max-evals", "150", "--seed", "779",
                "--n-lambda", "360"],
    }
    suffixes = {"sim": ".csv", "sweep": ".csv", "adv": ".json"}
    ok = True
    details = []
    for name, argv in runs.items():
        outputs = {}
        for workers in (1, 4, 8):
            outdir = tmp_path / f"{name}_w{workers}"
            outdir.mkdir()
            out = outdir / f"out{suffixes[name]}"
            code = cli_main(argv + ["--workers", str(workers), "--out", str(out)])
            assert code == 0
            blobs = [out.read_bytes()]
            run_json = Path(str(out) + ".run.json")
            if run_json.exists():
                blobs.append(run_json.read_bytes())
            outputs[workers] = blobs
            if workers == 1:
                # Re-execute from the manifest in place: must be byte-stable.
                manifest = json.loads(
                    Path(str(out) + ".manifest.json").read_text())
                assert cli_main(manifest["argv"]) == 0
                assert out.read_bytes() == blobs[0]
        same = outputs[1] == outputs[4] == outputs[8]
        ok &= same
        details.append(f"{name}: {'byte-identical' if same else 'DIFFERS'}")
    report(7, ok, "; ".join(details) + " at 1, 4, 8 workers")
