"""Monte Carlo sampling: determinism, conservation, statistics."""

import contextlib
import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from bellsim.bounds import optimal_quad
from bellsim import sampler
from bellsim.model import (
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    ValidationError,
)
from bellsim.qm import QMModelParams, _pair_law
from bellsim import qm
from bellsim.random_models import random_nondegenerate_model
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
)
from bellsim.sampler import (
    BLOCK_SIZE,
    ExperimentPlan,
    _lambda_cdf,
    _outcome_edges,
    _qm_block,
    _slhv_block,
    run_experiment,
    substream,
    write_run_sidecar,
)

# SHA-256 of substream(seed, pair, block).random(16) over seeds 0, 314 and
# 2**63 - 1, pairs 0-3 and blocks 0, 1 and 10**6, in that nesting order.
SUBSTREAM_DIGEST = "8f09f2310c3b05614a89303dedeee1569d88e1b87fbb839f36cc77e7de875600"


def angle_blind(t):
    """A response fn giving the (n, 3) table ``t`` at every angle."""
    return lambda angles, lam: np.tile(t, (angles.size, 1, 1))


def constant_model(triple1, triple2):
    t1 = np.asarray([triple1], dtype=float)
    t2 = np.asarray([triple2], dtype=float)
    return SLHVModel(HiddenVariableSpace([1.0]),
                     ResponseFunction(1, angle_blind(t1)),
                     ResponseFunction(2, angle_blind(t2)))


class TestPlan:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            ExperimentPlan(quad=optimal_quad(), trials_per_pair=0, seed=1)

    def test_trials_limited_to_int64(self):
        limit = int(np.iinfo(np.int64).max)
        assert ExperimentPlan(optimal_quad(), limit, seed=1).trials_per_pair == limit
        with pytest.raises(ValidationError, match="int64"):
            ExperimentPlan(quad=optimal_quad(), trials_per_pair=limit + 1, seed=1)
        with pytest.raises(ValidationError, match="trials_per_pair must be an integer"):
            ExperimentPlan(quad=optimal_quad(), trials_per_pair=1e30, seed=1)

    def test_rejects_non_integral_trials_and_seed(self):
        with pytest.raises(ValidationError, match="trials_per_pair"):
            ExperimentPlan(quad=optimal_quad(), trials_per_pair=1.9, seed=1)
        with pytest.raises(ValidationError, match="seed"):
            ExperimentPlan(quad=optimal_quad(), trials_per_pair=10, seed=2.7)
        # Integral floats are rejected too, not coerced.
        for name, bad in (("trials_per_pair", True), ("seed", False),
                          ("trials_per_pair", 1e3), ("seed", 4.0)):
            kwargs = {"trials_per_pair": 10, "seed": 1, name: bad}
            with pytest.raises(ValidationError, match=name):
                ExperimentPlan(quad=optimal_quad(), **kwargs)
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=np.int64(1000),
                              seed=np.int64(4))
        assert (plan.trials_per_pair, plan.seed) == (1000, 4)
        assert type(plan.trials_per_pair) is int and type(plan.seed) is int

    def test_rejects_a_quad_of_another_type(self):
        with pytest.raises(ValidationError, match="quad must be of type SettingsQuad, got tuple"):
            ExperimentPlan((0, 1, 2, 3), 10, 0)

    @pytest.mark.parametrize("source", ["x", None, (0.8, 0.8, 0.9, 0.9, 0.95)], ids=repr)
    def test_rejects_an_unknown_source(self, source):
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=10, seed=1)
        with pytest.raises(ValidationError,
                           match="source must be of type SLHVModel or QMModelParams"):
            run_experiment(source, plan)

    def test_rejects_a_plan_of_another_type(self):
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        with pytest.raises(ValidationError, match="plan must be of type ExperimentPlan"):
            run_experiment(params, (optimal_quad(), 10, 1))

    def test_rejects_workers_below_one(self):
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=10, seed=1)
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        for workers in (0, -1):
            with pytest.raises(ValidationError, match="workers"):
                run_experiment(params, plan, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2", None, True], ids=repr)
    def test_rejects_non_integer_workers(self, workers):
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=10, seed=1)
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        with pytest.raises(ValidationError, match="workers must be an integer"):
            run_experiment(params, plan, workers=workers)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=10, seed=1)
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        expected = run_experiment(params, plan)
        sizes = []

        def inline_pool(max_workers, **_kw):
            sizes.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=map))

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", inline_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = run_experiment(params, plan, workers=10**6)
        assert sizes == [3]
        for got, want in zip(result.records, expected.records):
            assert np.array_equal(got.table, want.table)


class TestDeterminism:
    def test_same_seed_same_counts(self):
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=30000, seed=7)
        r1 = run_experiment(params, plan)
        r2 = run_experiment(params, plan)
        for a, b in zip(r1.records, r2.records):
            assert (a.table == b.table).all()

    def test_worker_count_does_not_change_counts(self):
        rng = np.random.default_rng(2)
        model = random_nondegenerate_model(rng, 16)
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=200_000, seed=3)
        tables = {}
        for workers in (1, 4, 8):
            res = run_experiment(model, plan, workers=workers)
            tables[workers] = [r.table for r in res.records]
        for workers in (4, 8):
            for t1, t8 in zip(tables[1], tables[workers]):
                assert (t1 == t8).all()

    def test_in_flight_bound_does_not_change_counts(self, monkeypatch):
        # Two blocks per pair make eight blocks, so a bound of 3 leaves
        # a short last chunk.
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=BLOCK_SIZE + 5, seed=6)
        sources = (QMModelParams(0.7, 0.8, 0.9, 0.6, 0.9),
                   random_nondegenerate_model(np.random.default_rng(4), 8))
        for source in sources:
            want = [r.table for r in run_experiment(source, plan).records]
            with monkeypatch.context() as m:
                m.setattr(sampler, "_MAX_IN_FLIGHT", 3)
                for workers in (1, 2):
                    got = [r.table for r in run_experiment(source, plan, workers).records]
                    assert all((g == w).all() for g, w in zip(got, want))

    def test_different_seeds_differ(self):
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        r1 = run_experiment(params, ExperimentPlan(optimal_quad(), 10000, seed=1))
        r2 = run_experiment(params, ExperimentPlan(optimal_quad(), 10000, seed=2))
        assert any((a.table != b.table).any()
                   for a, b in zip(r1.records, r2.records))

    def test_substream_is_reproducible(self):
        a = substream(5, 2, 17).random(8)
        b = substream(5, 2, 17).random(8)
        np.testing.assert_array_equal(a, b)
        c = substream(5, 2, 18).random(8)
        assert (a != c).any()


class TestConservation:
    def test_total_counts_match_trials(self):
        params = QMModelParams(0.3, 0.6, 0.7, 0.8, 0.9)
        n = 70_001  # not a multiple of the block size
        res = run_experiment(params, ExperimentPlan(optimal_quad(), n, seed=11))
        for rec in res.records:
            assert rec.table.sum() == n
            assert rec.emitted_total == n

    def test_deterministic_anticorrelated_model(self):
        m = constant_model((1, 0, 0), (0, 1, 0))
        quad = optimal_quad()
        res = run_experiment(m, ExperimentPlan(quad, 5000, seed=1))
        for rec in res.records:
            assert rec.table[0, 1] == 5000  # every trial lands in (+1, -1)


class TestScalarTrials:
    """Tiny runs, down to one trial, whose every trial has a known cell."""

    @staticmethod
    def tables(source, n):
        plan = ExperimentPlan(optimal_quad(), n, seed=n)
        return [rec.table for rec in run_experiment(source, plan).records]

    def test_slhv_deterministic(self):
        m = constant_model((1, 0, 0), (0, 1, 0))
        for n in (1, 20):
            assert all(t[0, 1] == t.sum() == n for t in self.tables(m, n))

    def test_qm_no_detection_when_blocked(self):
        p = QMModelParams(1e-12, 0.9, 1e-12, 0.9, 0.9)
        assert all(t[2].sum() == 50 for t in self.tables(p, 50))

    def test_qm_perfect_never_nondetect(self):
        p = QMModelParams(1, 1, 1, 1, 0.9)
        assert all(t[:2, :2].sum() == 50 for t in self.tables(p, 50))


class TestStatistics:
    def test_slhv_cell_frequencies_within_four_sigma(self):
        m = constant_model((0.4, 0.35, 0.25), (0.2, 0.5, 0.3))
        quad = optimal_quad()
        n = 10**6
        res = run_experiment(m, ExperimentPlan(quad, n, seed=42))
        t1 = np.array([0.4, 0.35, 0.25])
        t2 = np.array([0.2, 0.5, 0.3])
        expected = np.outer(t1, t2)
        for rec in res.records:
            for i in range(3):
                for j in range(3):
                    p = expected[i, j]
                    sigma = math.sqrt(n * p * (1 - p))
                    assert abs(rec.table[i, j] - n * p) <= 4 * sigma

    def test_qm_coincidence_rate_matches(self):
        p = QMModelParams(0.5, 0.5, 1, 1, 0.9)
        n = 10**6
        res = run_experiment(p, ExperimentPlan(optimal_quad(), n, seed=5))
        for rec in res.records:
            coins = rec.table[:2, :2].sum()
            sigma = math.sqrt(n * 0.25 * 0.75)
            assert abs(coins - 0.25 * n) <= 4 * sigma

    def test_qm_joint_frequencies_match(self):
        p = QMModelParams(1, 1, 1, 1, 1.0)
        n = 10**6
        a, b = 0.0, math.pi / 8
        quad = optimal_quad()  # pair "ab" has separation pi/8
        res = run_experiment(p, ExperimentPlan(quad, n, seed=9))
        rec = res.records[0]
        for r in (0, 1):
            for q in (0, 1):
                pr = qm.joint_probability(p, quad.a, quad.b,
                                          1 if r == 0 else -1,
                                          1 if q == 0 else -1)
                sigma = math.sqrt(n * pr * (1 - pr))
                assert abs(rec.table[r, q] - n * pr) <= 4 * sigma

    def test_cell_frequencies_sound_over_100_seeds(self):
        # Soundness across seeds: every 3x3 cell of every pair within a
        # 4-sigma binomial band of its exact probability, for both
        # source kinds, over 100 fixed seeds.
        quad = optimal_quad()
        n = 10**5

        p = QMModelParams(0.75, 0.75, 0.9, 1.0, 0.95)
        exact_qm = {}
        eta1f1 = p.eta1 * p.f1
        eta2f2 = p.eta2 * p.f2
        for label, a, b in quad.pairs():
            cell = np.zeros((3, 3))
            for i, r in enumerate((1, -1)):
                for j, q in enumerate((1, -1)):
                    cell[i, j] = qm.joint_probability(p, a, b, r, q)
            cell[0, 2] = cell[1, 2] = eta1f1 * (1 - eta2f2) / 2
            cell[2, 0] = cell[2, 1] = (1 - eta1f1) * eta2f2 / 2
            cell[2, 2] = (1 - eta1f1) * (1 - eta2f2)
            exact_qm[label] = cell

        rng = np.random.default_rng(77)
        m = random_nondegenerate_model(rng, 8)
        exact_slhv = {}
        for label, a, b in quad.pairs():
            t1 = m.triples(1, a)
            t2 = m.triples(2, b)
            exact_slhv[label] = np.einsum("l,li,lj->ij", m.space.weights, t1, t2)

        failures = 0
        checks = 0
        for seed in range(100):
            for source, exact in ((p, exact_qm), (m, exact_slhv)):
                res = run_experiment(source, ExperimentPlan(quad, n, seed=seed))
                for rec in res.records:
                    probs = exact[rec.label]
                    for i in range(3):
                        for j in range(3):
                            pr = probs[i, j]
                            sigma = math.sqrt(n * pr * (1 - pr))
                            checks += 1
                            if abs(rec.table[i, j] - n * pr) > 4 * max(sigma, 1e-9):
                                failures += 1
        assert failures / checks <= 0.001, (failures, checks)


# Reference kernels: the block bodies as they were before blocks were
# tallied straight from the uniforms, kept verbatim as the bit-for-bit
# specification of the draw-to-outcome mapping.

def _categorical_rows(tables: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome column index per trial from per-trial (3,) probability rows."""
    c0 = tables[:, 0]
    c1 = c0 + tables[:, 1]
    return np.where(u < c0, 0, np.where(u < c1, 1, 2))


def _reference_slhv_block(t1: np.ndarray, t2: np.ndarray, cdf: np.ndarray,
                          rng: np.random.Generator, n: int) -> np.ndarray:
    """3x3 outcome counts for n trials; t1/t2 are the per-point triples."""
    lam = np.searchsorted(cdf, rng.random(n), side="right")
    np.clip(lam, 0, cdf.size - 1, out=lam)
    r_idx = _categorical_rows(t1[lam], rng.random(n))
    q_idx = _categorical_rows(t2[lam], rng.random(n))
    counts = np.bincount(r_idx * 3 + q_idx, minlength=9)
    return counts.reshape(3, 3)


def _reference_qm_block(params: QMModelParams, a: float, b: float,
                        rng: np.random.Generator, n: int) -> np.ndarray:
    d1 = rng.random(n) < params.eta1 * params.f1
    d2 = rng.random(n) < params.eta2 * params.f2
    u1 = rng.random(n)
    u2 = rng.random(n)

    fc = params.F * np.cos(2.0 * (a - b))
    p_same = 0.25 * (1.0 + fc)   # (+,+) and (-,-) given both detected
    p_diff = 0.25 * (1.0 - fc)
    # Joint cells in order (+,+), (+,-), (-,+), (-,-).
    edges = np.cumsum([p_same, p_diff, p_diff])

    r_idx = np.full(n, 2, dtype=np.intp)
    q_idx = np.full(n, 2, dtype=np.intp)

    both = d1 & d2
    cell = np.searchsorted(edges, u1[both], side="right")
    r_idx[both] = cell // 2
    q_idx[both] = cell % 2

    only1 = d1 & ~d2
    r_idx[only1] = (u1[only1] >= 0.5).astype(np.intp)
    only2 = d2 & ~d1
    q_idx[only2] = (u2[only2] >= 0.5).astype(np.intp)

    counts = np.bincount(r_idx * 3 + q_idx, minlength=9)
    return counts.reshape(3, 3)


class TestFrozenReference:
    """The block kernels give the reference kernels' tables, bit for bit."""

    SIZES = (1, 2, 17, 40_000, 65_536)

    @staticmethod
    def assert_same(got, want, case):
        assert got.dtype == np.int64 and got.shape == (3, 3), case
        assert want.dtype == np.int64, case
        assert (got == want).all(), (case, got, want)

    def test_qm_block_matches_reference(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = self.SIZES[seed % len(self.SIZES)]
            if seed % 6 == 0:
                eta1 = eta2 = f1 = f2 = 1.0
            else:
                eta1, eta2, f1, f2 = rng.uniform(0.01, 1.0, size=4)
            F = (0.0, 1.0, rng.random())[seed % 3]
            a = rng.random() * math.pi
            # b == a with F = 1 ties the middle edges (p_diff = 0); a
            # right-angle separation ties the first edge to 0.
            b = (a, a + math.pi / 4, a + math.pi / 2, rng.random() * math.pi)[seed % 4]
            params = QMModelParams(eta1, eta2, f1, f2, F)
            case = (seed, n, params, a, b)
            detect, (same, diff) = _pair_law(params, a, b)
            got = _qm_block(detect, np.cumsum([same, diff, diff]),
                            substream(seed, seed % 4, seed % 3), n)
            self.assert_same(got, _reference_qm_block(params, a, b,
                                                      substream(seed, seed % 4, seed % 3), n),
                             case)

    def test_slhv_block_matches_reference(self):
        builders = (random_nondegenerate_model, random_angle_independent_model,
                    random_lambda_independent_model)
        models = [builders[k % 3](np.random.default_rng(1000 + k), int(n_lambda))
                  for k, n_lambda in enumerate(np.linspace(1, 64, 12).astype(int))]
        # A zero p- column (tied edges), and a p- just below 0 that the
        # validator tolerates, which puts the upper edge under the lower one.
        models.append(constant_model((0.6, 0.0, 0.4), (0.25, 0.0, 0.75)))
        t_neg = np.array([[0.5, -5e-13, 0.5 + 5e-13], [0.3, 0.2, 0.5]])
        models.append(SLHVModel(HiddenVariableSpace([0.5, 0.5]),
                                ResponseFunction(1, angle_blind(t_neg)),
                                ResponseFunction(2, angle_blind(t_neg))))
        cases = 0
        for m_index, model in enumerate(models):
            cdf = _lambda_cdf(model)
            for k in range(18):
                seed = 100 * m_index + k
                rng = np.random.default_rng(seed)
                n = self.SIZES[k % len(self.SIZES)]
                a, b = rng.random(2) * math.pi
                t1, t2 = model.triples(1, a), model.triples(2, b)
                got = _slhv_block(_outcome_edges(t1), _outcome_edges(t2), cdf,
                                  substream(seed, k % 4, 0), n)
                want = _reference_slhv_block(t1, t2, cdf, substream(seed, k % 4, 0), n)
                self.assert_same(got, want, (m_index, seed, n))
                cases += 1
        assert cases >= 250


def test_substream_bits_pinned(tmp_path):
    # Every sampled golden rests on these bits; a change of bit generator,
    # of the seeding or of numpy's stream shows here first.
    digest = hashlib.sha256()
    for seed in (0, 314, 2**63 - 1):
        for pair in range(4):
            for block in (0, 1, 10**6):
                digest.update(substream(seed, pair, block).random(16).tobytes())
    assert digest.hexdigest() == SUBSTREAM_DIGEST
    # The sidecar names the generator the substreams come from.
    plan = ExperimentPlan(optimal_quad(), 10, seed=0)
    write_run_sidecar(run_experiment(QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95), plan),
                      tmp_path / "run.json")
    rng = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))["rng"]
    assert rng["bit_generator"] == type(substream(0, 0, 0).bit_generator).__name__
