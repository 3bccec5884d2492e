"""Adversarial search: family validity, bound soundness, determinism."""

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bellsim import adversary
from bellsim.adversary import (
    FAMILIES,
    ParametricFamily,
    SearchConfig,
    get_family,
    objective,
    search,
)
from bellsim.bounds import (
    EffectiveCorrelationMode,
    effective_chsh_value,
    optimal_quad,
)
from bellsim.model import (
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    TheoremViolationError,
    ValidationError,
    validate_solution1,
)

QUAD = optimal_quad()


def _two_point_builder(params, n_lambda):
    """Sign-of-cos 2(angle - lambda) responders at two equally weighted
    hidden points, detecting with probability 1 at the first and params[0]
    at the second, at every angle: angle-independent non-detection that
    varies across lambda."""
    eta = np.array([1.0, params[0]])

    def fn(angle, lam):
        c = np.cos(2.0 * (angle - lam))
        return np.column_stack([eta * (c >= 0.0), eta * (c < 0.0), 1.0 - eta])

    model = SLHVModel(HiddenVariableSpace([0.5, 0.5], [0.0, math.pi / 2]),
                      ResponseFunction.from_function(1, fn),
                      ResponseFunction.from_function(2, fn))
    model.meta["projection_active"] = False  # search reports this flag
    return model


TWO_POINT = ParametricFamily(name="two-point", param_names=("eta",), lower=(0.0,),
                             upper=(1.0,), builder=_two_point_builder)


def _bare_meta_builder(params, n_lambda):
    """The two-point model with no meta at all, so no projection flag."""
    model = _two_point_builder(params, n_lambda)
    model.meta.clear()
    return model


BARE_META = ParametricFamily(name="bare-meta", param_names=("eta",), lower=(0.0,),
                             upper=(1.0,), builder=_bare_meta_builder)


class TestFamilies:
    def test_registry(self):
        assert set(FAMILIES) == {"threshold-detection", "modulated-p0"}
        with pytest.raises(ValidationError):
            get_family("nope")

    def test_instantiations_are_valid_models(self):
        rng = np.random.default_rng(3)
        for name, fam in FAMILIES.items():
            lo = np.asarray(fam.lower)
            hi = np.asarray(fam.upper)
            for _ in range(20):
                params = lo + rng.random(lo.size) * (hi - lo)
                m = fam.instantiate(params, n_lambda=90)
                for party in (1, 2):
                    for angle in rng.random(3) * math.pi:
                        t = m.triples(party, angle)  # validates internally
                        assert np.all(t >= -1e-15)

    def test_parameter_box_enforced(self):
        fam = get_family("threshold-detection")
        with pytest.raises(ValidationError):
            fam.instantiate([1.5, 0.0])
        with pytest.raises(ValidationError):
            fam.instantiate([0.1])

    def test_modulated_projection_flag(self):
        fam = get_family("modulated-p0")
        m = fam.instantiate([0.9, 0.5, 1.0], n_lambda=60)
        assert m.meta["projection_active"]  # set at build time
        m.triples(1, 0.3)  # c0 + c1 can exceed 1: triggers clipping
        assert m.meta["projection_active"]
        m2 = fam.instantiate([0.3, 0.1, 1.0], n_lambda=60)
        assert not m2.meta["projection_active"]
        m2.triples(1, 0.3)
        assert not m2.meta["projection_active"]
        assert fam.instantiate([0.2, -0.3, 1.0], n_lambda=60).meta["projection_active"]


class TestObjective:
    def test_always_detecting_threshold_respects_bound(self):
        fam = get_family("threshold-detection")
        v = objective(fam, [0.0, 0.0], QUAD)
        assert v <= 2.0 + 1e-9
        m = fam.instantiate([0.0, 0.0])
        assert validate_solution1(m, QUAD.party1_angles(), QUAD.party2_angles()).passed

    def test_unmodulated_malus_respects_bound(self):
        fam = get_family("modulated-p0")
        for c0 in (0.0, 0.3, 0.7):
            for sharp in (0.5, 1.0, 3.0):
                assert objective(fam, [c0, 0.0, sharp], QUAD) <= 2.0 + 1e-9

    def test_high_threshold_exceeds_bound(self):
        fam = get_family("threshold-detection")
        v = objective(fam, [0.8, 0.8], QUAD)
        assert v > 2.0

    def test_degenerate_point_returns_zero(self):
        fam = get_family("threshold-detection")
        assert objective(fam, [0.999, 0.999], QUAD) == 0.0

    def test_soundness_checked_by_the_mode_validator(self):
        # Solution1's validator passes for this model, solution2's does not,
        # so its solution2 value may exceed 2 without breaching a theorem.
        mode = EffectiveCorrelationMode
        v = objective(TWO_POINT, [0.05], QUAD, mode=mode.SOLUTION2)
        assert v == pytest.approx(3.6371882086, abs=1e-9)
        for m in (mode.SOLUTION1, mode.SOLUTION3):
            assert objective(TWO_POINT, [0.05], QUAD, mode=m) <= 2.0 + 1e-9

    def test_one_table_evaluation_per_point(self, monkeypatch):
        calls = []
        triples = SLHVModel.triples

        def counted(self, *args, **kwargs):
            calls.append(args)
            return triples(self, *args, **kwargs)

        monkeypatch.setattr(SLHVModel, "triples", counted)
        fam = get_family("threshold-detection")
        assert objective(fam, [0.8, 0.8], QUAD) > 2.0
        assert len(calls) == 4

    def test_reproducible_from_parameters(self):
        fam = get_family("threshold-detection")
        params = [0.77, 0.81]
        v1 = objective(fam, params, QUAD)
        m = fam.instantiate(params)
        v2 = abs(effective_chsh_value(m, QUAD, EffectiveCorrelationMode.SOLUTION1))
        assert v1 == v2


class TestSearch:
    def small_config(self, **kw):
        base = dict(family=get_family("threshold-detection"), quad=QUAD,
                    restarts=4, max_evals=200, seed=12, n_lambda=360)
        base.update(kw)
        return SearchConfig(**base)

    def test_finds_loophole_and_flags_assumptions(self):
        res = search(self.small_config())
        assert res.best_u_eff > 2.05
        assert not res.assumption_solution1
        assert res.evaluation_count > 0

    def test_deterministic_given_seed(self):
        r1 = search(self.small_config())
        r2 = search(self.small_config())
        assert r1 == r2

    def test_worker_count_does_not_change_result(self):
        r1 = search(self.small_config(), workers=1)
        for workers in (2, 4):
            assert search(self.small_config(), workers=workers) == r1
        # A family defined outside bellsim pickles into the workers by reference.
        two_point = self.small_config(family=TWO_POINT, mode=EffectiveCorrelationMode.SOLUTION2,
                                      n_lambda=2)
        assert search(two_point, workers=2) == search(two_point, workers=1)

    def test_family_without_projection_flag(self):
        config = self.small_config(family=BARE_META, mode=EffectiveCorrelationMode.SOLUTION2,
                                   n_lambda=2)
        res = search(config, workers=1)
        assert res.projection_active_at_optimum is False
        assert search(config, workers=2) == res

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        def inline_pool(max_workers, **_kw):
            sizes.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=map))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert search(self.small_config(), workers=10**6) == search(self.small_config())
        assert sizes == [3]

    def test_workers_below_one_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ValidationError, match="workers"):
                search(self.small_config(), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_soundness_check_fires_in_every_worker(self, monkeypatch, workers):
        # A validator that always passes turns every |U_eff| > 2 into a
        # theorem breach; forked workers inherit the patch, and the error
        # must reach the caller from them.
        monkeypatch.setattr(adversary, "_mode_report",
                            lambda q, mode: SimpleNamespace(passed=True))
        with pytest.raises(TheoremViolationError):
            search(self.small_config(restarts=2, max_evals=60, n_lambda=90),
                   workers=workers)

    def test_best_value_reproducible_from_stored_parameters(self):
        res = search(self.small_config())
        fam = get_family("threshold-detection")
        params = [res.best_parameters[n] for n in fam.param_names]
        m = fam.instantiate(params, n_lambda=360)
        again = abs(effective_chsh_value(m, QUAD, EffectiveCorrelationMode.SOLUTION1))
        assert again == pytest.approx(res.best_u_eff, abs=1e-12)
        for rs in res.restarts:
            assert rs.best_value == objective(fam, rs.best_params, QUAD, n_lambda=360)

    def test_trajectories_monotone(self):
        res = search(self.small_config())
        for rs in res.restarts:
            traj = list(rs.trajectory)
            assert traj == sorted(traj)

    def test_modulated_family_exceeds_bound_when_unfrozen(self):
        config = SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                              restarts=6, max_evals=300, seed=14, n_lambda=360)
        res = search(config)
        assert res.best_u_eff > 2.0
        assert not res.assumption_solution1

    def test_frozen_slice_never_beats_bound(self):
        config = SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                              restarts=4, max_evals=200, seed=9, n_lambda=360,
                              freeze={"c1": 0.0})
        res = search(config)
        assert res.best_u_eff <= 2.0 + 1e-9
        assert res.best_parameters["c1"] == 0.0

    def test_projection_active_at_optimum(self):
        # c0 + |c1| > 1: the non-detection probability is clipped at some angle.
        config = SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                              restarts=2, max_evals=60, seed=3, n_lambda=90,
                              freeze={"c0": 0.9, "c1": 0.3})
        res = search(config)
        assert res.projection_active_at_optimum is True
        assert res.to_json_dict()["projection_active_at_optimum"] is True
        res = search(self.small_config(restarts=2, max_evals=60))
        assert res.projection_active_at_optimum is False
        assert res.to_json_dict()["projection_active_at_optimum"] is False

    def test_freeze_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                         restarts=1, max_evals=10, freeze={"bogus": 1.0})

    def test_freezing_every_parameter_rejected(self):
        with pytest.raises(ValidationError, match="remain free"):
            SearchConfig(family=get_family("threshold-detection"), quad=QUAD,
                         restarts=1, max_evals=10, freeze={"theta1": 0.1, "theta2": 0.2})

    def test_json_serialization(self):
        import json
        res = search(self.small_config(restarts=2, max_evals=60))
        doc = res.to_json_dict()
        json.dumps(doc)
        assert doc["config"]["family"] == "threshold-detection"
        assert len(doc["restarts"]) == 2


def test_import_loads_no_scipy():
    # Nor the process pool's modules: the search imports them when it runs.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, bellsim; print(sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
