"""Monte Carlo sampling: determinism, conservation, statistics."""

import hashlib
import itertools
import json
import math
import os
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellsim.bounds import PAIR_LABELS, SettingsQuad, _QuadTables, optimal_quad
from bellsim import sampler
from bellsim.model import (
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    ValidationError,
)
from bellsim.modelio import load_model
from bellsim.qm import QMModelParams
from bellsim import qm
from bellsim.random_models import random_nondegenerate_model
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
)
from bellsim.sampler import (
    BLOCK_SIZE,
    ExperimentPlan,
    _block,
    _edges,
    run_experiment,
    substream,
    write_run_sidecar,
)
import reference

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
        shares = []
        split = sampler._shares

        def recorded(workers, tasks):
            shares.append(split(workers, tasks))
            return shares[-1]

        monkeypatch.setattr(sampler, "_shares", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = run_experiment(params, plan, workers=10**6)
        assert shares == [[range(0, 4, 3), range(1, 4, 3), range(2, 4, 3)]]
        for got, want in zip(result.records, expected.records):
            assert np.array_equal(got.table, want.table)


class TestThreads:
    """The calling thread counts share 0, so n workers start n - 1 threads."""

    @pytest.mark.parametrize("trials", [1, BLOCK_SIZE + 5], ids=["4-blocks", "8-blocks"])
    def test_caller_counts_share_zero(self, monkeypatch, trials):
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        plan = ExperimentPlan(optimal_quad(), trials, seed=9)
        for source in (QMModelParams(0.7, 0.8, 0.9, 0.6, 0.9),
                       random_nondegenerate_model(np.random.default_rng(5), 8)):
            started.clear()
            want = run_experiment(source, plan, workers=1)
            assert started == []
            got = run_experiment(source, plan, workers=3)
            assert len(started) == 2
            assert [r.table.tobytes() for r in got.records] == [
                r.table.tobytes() for r in want.records]


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

    def test_uneven_shares_do_not_change_counts(self, monkeypatch):
        # Two blocks per pair make eight blocks, so three threads count
        # shares of 3, 3 and 2 blocks, each a mix of pairs.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        plan = ExperimentPlan(quad=optimal_quad(), trials_per_pair=BLOCK_SIZE + 5, seed=6)
        sources = (QMModelParams(0.7, 0.8, 0.9, 0.6, 0.9),
                   random_nondegenerate_model(np.random.default_rng(4), 8))
        for source in sources:
            want = [r.table for r in run_experiment(source, plan).records]
            for workers in (2, 3):
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
        quad = optimal_quad()  # pair "ab" has separation pi/8
        res = run_experiment(p, ExperimentPlan(quad, n, seed=9))
        rec = res.records[0]
        exact = reference.qm_joint(p, quad.a, quad.b)
        for r in (0, 1):
            for q in (0, 1):
                pr = exact[r, q]
                sigma = math.sqrt(n * pr * (1 - pr))
                assert abs(rec.table[r, q] - n * pr) <= 4 * sigma

    def test_cell_frequencies_sound_over_100_seeds(self):
        # Soundness across seeds: every 3x3 cell of every pair within a
        # 4-sigma binomial band of its exact probability, for both
        # source kinds, over 100 fixed seeds.
        quad = optimal_quad()
        n = 10**5

        p = QMModelParams(0.75, 0.75, 0.9, 1.0, 0.95)
        m = random_nondegenerate_model(np.random.default_rng(77), 8)
        cases = [(source, dict(zip(PAIR_LABELS, reference.joints(source, quad))))
                 for source in (p, m)]

        failures = 0
        checks = 0
        for seed in range(100):
            for source, exact in cases:
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


MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
TWO53 = 1 << 53


def pair_tables(source, quad):
    """The four pairs' joint tables, in PAIR_LABELS order, from the same
    calls run_experiment makes."""
    if isinstance(source, QMModelParams):
        return [qm.joint_table(source, a, b) for _label, a, b in quad.pairs()]
    return list(_QuadTables(source, quad).joints[0])


class TestRealisedLaw:
    """The law the block kernel realises, computed exactly.

    ``Generator.random`` returns k / 2**53 with k uniform on [0, 2**53),
    so ``u < e`` holds for exactly ceil(e * 2**53) of the 2**53 values,
    clamped to [0, 2**53].  Each cell's realised probability is then the
    difference of two consecutive such integers over 2**53.  It lies
    within 2**-49 of the exact joint of the float inputs: each term
    rounds at most twice and each cell once (fsum, or the QM products),
    the running sum rounds each of the eight edges once, ceil moves an
    edge by less than 2**-53, and the exact joint of float weights and
    rows misses 1 by a few 2**-53, which the remainder cell absorbs.
    Measured, the largest gap is about 2 * 2**-53.
    """

    BOUND = Fraction(1, 1 << 49)

    @staticmethod
    def realised(edges):
        ks = [min(max(math.ceil(Fraction(e) * TWO53), 0), TWO53) for e in edges.tolist()]
        ks = [0, *ks, TWO53]
        return [Fraction(hi - lo, TWO53) for lo, hi in zip(ks, ks[1:])]

    def assert_realised(self, source, quad):
        for table, exact in zip(pair_tables(source, quad),
                                reference.joints(source, quad, Fraction)):
            got = self.realised(_edges(table))
            assert sum(got) == 1
            worst = max(abs(g - x) for g, x in zip(got, exact.ravel().tolist()))
            assert worst <= self.BOUND, (source, float(worst))

    @pytest.mark.parametrize("params", [(0.75, 0.75, 0.9, 0.9, 0.95), (1, 1, 1, 1, 1),
                                        (1, 1, 1, 1, 0.9), (0.1, 0.3, 0.25, 1, 0.0),
                                        (1e-3, 0.6, 0.5, 0.8, 1.0)], ids=str)
    def test_qm(self, params):
        p = QMModelParams(*params)
        for quad in (optimal_quad(), SettingsQuad(0.3, 0.3 + math.pi / 4, 0.3, 1.9)):
            self.assert_realised(p, quad)

    @pytest.mark.parametrize("builder", [random_nondegenerate_model,
                                         random_angle_independent_model,
                                         random_lambda_independent_model])
    def test_generator_models(self, builder):
        rng = np.random.default_rng(3600)
        for n_lambda in (1, 2, 7, 40, 64):
            self.assert_realised(builder(rng, n_lambda), optimal_quad())

    @pytest.mark.parametrize("name", ["solution1_tabulated", "threshold_adversary"])
    def test_demo_models(self, name):
        self.assert_realised(load_model(MODELS / f"{name}.json"), optimal_quad())


class StubGenerator:
    """Hands out the given draws, in order, and records each call's size."""

    def __init__(self, draws, calls):
        self.draws, self.calls = draws, calls

    def random(self, size):
        self.calls.append(size)
        assert size == self.draws.size
        return self.draws.copy()


def reference_cells(table, u):
    """The cell of a draw u by the documented rule, in plain Python: the
    cells clamped at 0 and summed row-major, the edges from the last
    positive cell on raised to at least 1, and u in the first cell whose
    edge lies above it."""
    cells = [max(c, 0.0) for c in table.ravel().tolist()]
    edges = list(itertools.accumulate(cells))
    last = max(k for k, c in enumerate(cells) if c > 0.0)
    edges[last:] = [max(edges[-1], 1.0)] * (9 - last)
    return next(k for k, e in enumerate(edges) if u < e)


class TestEdgeDraws:
    """Draws that land on every edge of every pair, one ulp below each,
    and at 0.0 and 1 - 2**-53, run through run_experiment with a stub
    generator in place of each block's stream: each lands in the cell the
    documented rule names, each block draws once, and a cell of
    probability 0 never gets a count."""

    @staticmethod
    def run(source, quad, monkeypatch):
        tables = pair_tables(source, quad)
        draws = {0.0, 1.0 - 2.0 ** -53}
        for table in tables:
            for e in _edges(table).tolist():
                draws.update(x for x in (e, math.nextafter(e, 0.0)) if 0.0 <= x < 1.0)
        draws = np.array(sorted(draws))
        calls = []
        monkeypatch.setattr(sampler, "substream",
                            lambda *key: StubGenerator(draws, calls))
        result = run_experiment(source, ExperimentPlan(quad, draws.size, seed=0))
        assert calls == [draws.size] * 4
        for table, rec in zip(tables, result.records):
            want = np.bincount([reference_cells(table, u) for u in draws.tolist()],
                               minlength=9).reshape(3, 3)
            assert (rec.table == want).all(), (table, rec.table, want)
            assert (rec.table[table <= 0.0] == 0).all()
            assert (np.diff(_edges(table)) >= 0.0).all()
        return tables, [rec.table for rec in result.records]

    def test_tied_edges(self, monkeypatch):
        # F = 1 with b = a leaves the opposite-sign cells empty.
        quad = SettingsQuad(0.4, 0.4 + math.pi / 4, 0.4, 0.4 + math.pi / 8)
        tables, counts = self.run(QMModelParams(0.8, 0.7, 0.9, 0.95, 1.0), quad, monkeypatch)
        assert tables[0][0, 1] == tables[0][1, 0] == 0.0
        assert counts[0][0, 1] == counts[0][1, 0] == 0

    def test_perfect_detection_never_lands_in_no_detection(self, monkeypatch):
        # Weights 5e-13 short of 1, which the space tolerates, leave the
        # top edge below 1 - 2**-53 unless it is raised.
        t = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
        short = SLHVModel(HiddenVariableSpace([0.5, 0.5 - 5e-13]),
                          ResponseFunction(1, angle_blind(t)), ResponseFunction(2, angle_blind(t)))
        for source in (QMModelParams(1, 1, 1, 1, 0.95), QMModelParams(1, 1, 1, 1, 1.0), short):
            tables, counts = self.run(source, optimal_quad(), monkeypatch)
            for table, count in zip(tables, counts):
                assert table[2].sum() == table[:, 2].sum() == 0.0
                assert count[2].sum() == count[:, 2].sum() == 0
                assert count[:2, :2].sum() == count.sum()

    def test_tolerated_negative_p_minus(self, monkeypatch):
        # Party 1's p- of -5e-13 at the point where party 2 can click +
        # makes the (-, +) cell negative, which the validator tolerates.
        t1 = np.array([[0.5, -5e-13, 0.5 + 5e-13], [0.3, 0.2, 0.5]])
        t2 = np.array([[0.4, 0.3, 0.3], [0.0, 0.0, 1.0]])
        model = SLHVModel(HiddenVariableSpace([0.5, 0.5]),
                          ResponseFunction(1, angle_blind(t1)),
                          ResponseFunction(2, angle_blind(t2)))
        tables, counts = self.run(model, optimal_quad(), monkeypatch)
        for table, count in zip(tables, counts):
            assert table[1, 0] < 0.0 and count[1, 0] == 0

    def test_zero_column_and_generator_models(self, monkeypatch):
        self.run(constant_model((0.6, 0.0, 0.4), (0.25, 0.0, 0.75)), optimal_quad(),
                 monkeypatch)
        rng = np.random.default_rng(36)
        for builder in (random_nondegenerate_model, random_angle_independent_model,
                        random_lambda_independent_model):
            self.run(builder(rng, 9), optimal_quad(), monkeypatch)

    def test_block_draws_once(self):
        calls = []
        draws = np.linspace(0.0, 1.0 - 2.0 ** -53, 101)
        table = qm.joint_table(QMModelParams(0.7, 0.8, 0.9, 0.6, 0.9), 0.1, 0.5)
        counts = _block(_edges(table), StubGenerator(draws, calls), draws.size)
        assert calls == [draws.size]
        assert counts.dtype == np.int64 and counts.shape == (3, 3)
        want = np.bincount([reference_cells(table, u) for u in draws.tolist()], minlength=9)
        assert (counts.ravel() == want).all()


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
