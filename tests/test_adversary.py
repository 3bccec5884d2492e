"""Adversarial search: family validity, bound soundness, determinism."""

import contextlib
import dataclasses
import hashlib
import json
import math
import multiprocessing
import multiprocessing.context
import os
import signal
import time

import numpy as np
import pytest

from bellsim import adversary, bounds
from bellsim.adversary import (
    FAMILIES,
    ParametricFamily,
    RestartSummary,
    SearchConfig,
    get_family,
    objective,
    search,
)
from bellsim.bounds import (
    EffectiveCorrelationMode,
    SettingsQuad,
    _QuadTables,
    effective_chsh_value,
    optimal_quad,
)
from bellsim.model import (
    TheoremViolationError,
    ValidationError,
    uniform_lambda_grid,
    validate_solution1,
)

QUAD = optimal_quad()


def _two_point_response(params, party, angles, n_lambda, out):
    """Sign-of-cos 2(angle - lambda) responders on the uniform grid,
    detecting with probability 1 at even grid points and params[:, 0] at odd
    ones, at every angle: angle-independent non-detection that varies
    across lambda.  At n_lambda = 2 these are two equally weighted points."""
    lam = uniform_lambda_grid(n_lambda).values
    c = np.cos(2.0 * (np.asarray(angles)[:, None] - lam))
    detect = np.ones((len(params), 1, n_lambda))
    detect[..., 1::2] = params[:, :1, None]
    out[..., 0] = detect * (c >= 0.0)
    out[..., 1] = detect * (c < 0.0)
    out[..., 2] = 1.0 - detect


TWO_POINT = ParametricFamily(name="two-point", param_names=("eta",), lower=(0.0,),
                             upper=(1.0,), response=_two_point_response)


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

    @pytest.mark.parametrize("params", [
        ["0.5", "0.2"], ["0.8", "0.8"], [0.5, True], [None, 0.5], [math.nan, 0.5],
        [0.5, -math.inf], {"theta1": "0.5", "theta2": 0.2}],
        ids=["strings", "strings-at-4", "bool", "none", "nan", "inf", "string-by-name"])
    def test_search_point_is_checked_reals(self, params):
        # A point enters as real numbers: a string or a bool is rejected, not
        # coerced, by the model and by the objective alike.
        fam = get_family("threshold-detection")
        with pytest.raises(ValidationError, match="parameter 'theta[12]'"):
            fam.instantiate(params)
        with pytest.raises(ValidationError, match="parameter 'theta[12]'"):
            objective(fam, params, QUAD)

    def test_point_takes_a_vector_or_a_mapping(self):
        # Both forms give each parameter's float by name in the family's
        # order, with the bits of the value given (the sign of a zero too).
        fam = get_family("modulated-p0")
        want = {"c0": -0.0, "c1": -0.1, "sharpness": 2.0}
        for params in ([-0.0, -0.1, 2], np.array([-0.0, -0.1, 2.0]),
                       {"sharpness": np.int64(2), "c1": -0.1, "c0": -0.0}):
            point = fam.point(params)
            assert list(point.items()) == list(want.items())
            assert all(type(v) is float for v in point.values())
            assert math.copysign(1.0, point["c0"]) == -1.0
        assert fam.instantiate(want, n_lambda=60).meta == \
            fam.instantiate([-0.0, -0.1, 2.0], n_lambda=60).meta
        assert fam.point({"c1": 0}, subset=True) == {"c1": 0.0}

    @pytest.mark.parametrize("params, match", [
        ({"c0": 0.3}, "missing parameters \\['c1', 'sharpness'\\]"),
        ({"c0": 0.3, "c1": 0.0, "sharpness": 1.0, "x": 1.0}, "does not take parameters \\['x'\\]"),
        ({"c0": 0.3, "c1": 0.6, "sharpness": 1.0}, "parameter 'c1' = 0.6 is outside the box"),
        ([0.3, 0.0], "takes 3 parameters"),
        ([[0.3, 0.0, 1.0]], "got shape \\(1, 3\\)"),
    ], ids=["missing", "unknown", "outside-box", "short-vector", "matrix"])
    def test_point_rejects(self, params, match):
        with pytest.raises(ValidationError, match=match):
            get_family("modulated-p0").point(params)

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

    @pytest.mark.parametrize("name, params, want", [
        pytest.param("threshold-detection", [0.8, 0.7], {
            "family": "threshold-detection", "theta1": 0.8, "theta2": 0.7, "n_lambda": 60,
            "projection_active": False}, id="threshold"),
        pytest.param("modulated-p0", [0.3, 0.1, 1.5], {
            "family": "modulated-p0", "c0": 0.3, "c1": 0.1, "sharpness": 1.5, "n_lambda": 60,
            "projection_active": False}, id="modulated-unclipped"),
        pytest.param("modulated-p0", [0.9, 0.5, 1.0], {
            "family": "modulated-p0", "c0": 0.9, "c1": 0.5, "sharpness": 1.0, "n_lambda": 60,
            "projection_active": True}, id="modulated-clipped-above-1"),
        pytest.param("modulated-p0", [0.2, -0.3, 1.0], {
            "family": "modulated-p0", "c0": 0.2, "c1": -0.3, "sharpness": 1.0, "n_lambda": 60,
            "projection_active": True}, id="modulated-clipped-below-0"),
    ])
    def test_instantiated_meta(self, name, params, want):
        # The family, each parameter by name, n_lambda and the clip flag, in
        # that order: the keys and values a run's sidecar records.
        meta = get_family(name).instantiate(params, n_lambda=60).meta
        assert list(meta.items()) == list(want.items())
        assert meta["projection_active"] is want["projection_active"]

    def test_cached_malus_shares_are_read_only(self):
        adversary._malus_shares.cache_clear()
        fam = get_family("modulated-p0")
        fam.instantiate([0.3, 0.2, 2.5], n_lambda=90).tables(1, QUAD.party1_angles())
        key = tuple(QUAD.party1_angles())
        for shares in (adversary._malus_shares(key, 90, 2.5),
                       adversary._malus_shares(key, 90, 1.0)):
            for a in shares:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0.5

    def test_modulated_tables_are_fresh(self):
        m = get_family("modulated-p0").instantiate([0.3, 0.2, 2.5], n_lambda=90)
        angles = QUAD.party1_angles()
        first = m.tables(1, angles)
        want = first.tobytes()
        assert first.flags.writeable and first.flags.owndata
        first[...] = -1.0
        again = m.tables(1, angles)
        assert again.tobytes() == want
        assert again is not first


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
        v = objective(TWO_POINT, [0.05], QUAD, mode=mode.SOLUTION2, n_lambda=2)
        assert v == pytest.approx(3.6371882086, abs=1e-9)
        for m in (mode.SOLUTION1, mode.SOLUTION3):
            assert objective(TWO_POINT, [0.05], QUAD, mode=m, n_lambda=2) <= 2.0 + 1e-9

    def test_one_table_evaluation_per_point(self):
        # One response call per party, the two together covering the quad's
        # four angles: each (party, angle) table is evaluated exactly once.
        calls = []
        fam = get_family("threshold-detection")

        def counted(params, party, angles, n_lambda, out):
            calls.append((party, tuple(angles)))
            fam.response(params, party, angles, n_lambda, out)

        assert objective(dataclasses.replace(fam, response=counted), [0.8, 0.8], QUAD) > 2.0
        assert sorted(calls) == [(1, QUAD.party1_angles()), (2, QUAD.party2_angles())]

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
        # A family defined outside bellsim reaches the forked workers too.
        two_point = self.small_config(family=TWO_POINT, mode=EffectiveCorrelationMode.SOLUTION2,
                                      n_lambda=2)
        assert search(two_point, workers=2) == search(two_point, workers=1)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # The caller runs restarts too, so min(workers, restarts, CPU count)
        # processes means one forked child fewer.
        started = []
        start = multiprocessing.context.ForkProcess.start

        def counted_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted_start)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for workers, restarts, children in ((10**6, 4, 2), (10**6, 2, 1), (2, 4, 1),
                                            (1, 4, 0)):
            started.clear()
            config = self.small_config(restarts=restarts)
            assert search(config, workers=workers) == search(config)
            assert len(started) == children

    def test_n_lambda_past_batch_budget_rejected(self):
        # At n_lambda = 43691 one point's tables pass BATCH_TABLE_BYTES; a
        # search or a model that large is refused before any grid is built.
        limit = adversary.BATCH_TABLE_BYTES // adversary._POINT_TABLE_BYTES
        assert limit == 43690
        assert self.small_config(n_lambda=limit).n_lambda == limit
        for n in (limit + 1, 10**9):
            with pytest.raises(ValidationError, match="n_lambda must be at most 43690"):
                self.small_config(n_lambda=n)
            with pytest.raises(ValidationError, match="n_lambda must be at most 43690"):
                get_family("threshold-detection").instantiate([0.5, 0.5], n_lambda=n)

    def test_workers_below_one_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ValidationError, match="workers"):
                search(self.small_config(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2", None, True], ids=repr)
    def test_workers_must_be_an_integer(self, workers):
        with pytest.raises(ValidationError, match="workers must be an integer"):
            search(self.small_config(), workers=workers)

    def test_lambda_family_runs_on_workers(self):
        # Workers are forked, so a family that cannot pickle reaches them.
        fam = dataclasses.replace(
            get_family("threshold-detection"),
            response=lambda *args: adversary._threshold_response(*args),
            breakpoints=lambda quad, n: adversary._threshold_breakpoints(quad, n))
        config = self.small_config(family=fam)
        assert search(config, workers=2) == search(config, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_soundness_check_fires_in_every_worker(self, monkeypatch, workers):
        # A cap of exactly 2 under every premise turns every |U_eff| > 2
        # into a theorem breach; forked workers inherit the patch, and the
        # error must reach the caller from them.  With two processes the
        # caller runs nothing, so the breach is the worker's.
        monkeypatch.setattr(bounds, "_slack", lambda q, bound, rows=None: 0.0)
        if workers == 2:
            _split_restarts(monkeypatch, _one_restart, lambda *args: {})
        with pytest.raises(TheoremViolationError):
            search(self.small_config(restarts=2, max_evals=60, n_lambda=90),
                   workers=workers)

    def test_no_worker_outlives_a_search(self):
        search(self.small_config(), workers=2)
        assert multiprocessing.active_children() == []


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

    def test_frozen_modulated_search_matches_one_angle_formulas(self):
        # The cached sharpness terms change no result: the built-in family
        # and one stacking the one-angle formula agree at either worker count.
        from test_model import _one_angle_modulated

        builtin = get_family("modulated-p0")

        def stacked_response(params, party, angles, n_lambda, out):
            lam = uniform_lambda_grid(n_lambda).values
            for row, (c0, c1, sharpness) in zip(out, params.tolist()):
                row[...] = [_one_angle_modulated(c0, c1, sharpness, a, lam) for a in angles]

        stacked = dataclasses.replace(builtin, response=stacked_response)
        docs = [search(SearchConfig(family=fam, quad=QUAD, restarts=4, max_evals=200,
                                    seed=21, n_lambda=90, freeze={"c1": 0.0}),
                       workers=workers).to_json_dict()
                for fam in (builtin, stacked) for workers in (1, 2)]
        assert all(doc == docs[0] for doc in docs[1:])
        assert docs[0]["best_u_eff"] <= 2.0 + 1e-9

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

    @pytest.mark.parametrize("name, value", [
        ("family", "threshold-detection"),
        ("quad", (0, 1, 2, 3)),
        ("mode", "solution1"),
    ])
    def test_config_rejects_wrong_types(self, name, value):
        # Rejected at the config, not by an AttributeError inside the search.
        with pytest.raises(ValidationError, match=f"{name} must be of type"):
            self.small_config(**{name: value})

    def test_freeze_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                         restarts=1, max_evals=10, freeze={"bogus": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 7.0, -0.6, "0.1", True])
    def test_freeze_value_checked_at_config(self, value):
        # Rejected before any restart runs, and the error names the parameter.
        with pytest.raises(ValidationError, match="frozen parameter 'c1'"):
            SearchConfig(family=get_family("modulated-p0"), quad=QUAD,
                         restarts=1, max_evals=10, freeze={"c1": value})

    def test_freeze_box_edges_accepted(self):
        # The config holds the checked floats.
        fam = get_family("modulated-p0")
        for c1 in (fam.lower[1], fam.upper[1], 0):
            config = SearchConfig(family=fam, quad=QUAD, restarts=1, max_evals=10,
                                  freeze={"c1": c1})
            assert config.freeze == {"c1": float(c1)}
            assert type(config.freeze["c1"]) is float

    @pytest.mark.parametrize("name, value", [
        *(pytest.param("n_lambda", v, id=str(v)) for v in (True, 0, -1, 36.7, "36")),
        *(pytest.param(name, v, id=f"{name}-{v}") for name, v in (
            ("restarts", True), ("restarts", 0), ("restarts", 2.5),
            ("max_evals", 60.5), ("max_evals", 9), ("max_evals", "60"),
            ("seed", True), ("seed", -1), ("seed", 1.5))),
    ])
    def test_n_lambda_checked_at_config(self, name, value):
        # Every count is an integer (not a bool) with a minimum; n_lambda is
        # checked the same way when a family is instantiated directly, and
        # so is the size of a hidden-variable grid.
        with pytest.raises(ValidationError, match=f"{name} must be an integer >="):
            self.small_config(**{name: value})
        if name == "n_lambda":
            with pytest.raises(ValidationError, match="n_lambda must be an integer >="):
                get_family("threshold-detection").instantiate([0.1, 0.2], n_lambda=value)
            with pytest.raises(ValidationError, match="grid size must be an integer >="):
                uniform_lambda_grid(value)

    def test_n_lambda_numpy_integer_accepted(self):
        config = self.small_config(n_lambda=np.int64(36), restarts=np.int32(2),
                                   max_evals=np.int64(60), seed=np.uint8(3))
        assert [type(getattr(config, name)) for name in
                ("n_lambda", "restarts", "max_evals", "seed")] == [int] * 4
        assert config.n_lambda == 36 and config.seed == 3
        assert uniform_lambda_grid(np.int64(12)).size == 12

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


def _one_restart(config, k, _lockstep=adversary._lockstep):
    """Restart ``k`` alone, through the search's own lockstep loop."""
    return _lockstep(config, [k])[k]


def _split_restarts(monkeypatch, in_worker, in_caller=adversary._lockstep):
    """Patch ``_lockstep``, a search process's unit of work, so that a
    forked worker returns ``{k: in_worker(config, k)}`` for each restart k
    of its share, and the caller runs ``in_caller(config, indices)`` on
    its own share."""
    caller = os.getpid()

    def patched(config, indices):
        if os.getpid() != caller:
            return {k: in_worker(config, k) for k in indices}
        return in_caller(config, indices)

    monkeypatch.setattr(adversary, "_lockstep", patched)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkers:
    CONFIG = SearchConfig(family=get_family("threshold-detection"), quad=QUAD,
                          restarts=4, max_evals=60, seed=12, n_lambda=90)

    @staticmethod
    def breach(*args):
        raise TheoremViolationError(f"breach in restart {args[-1]}")

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        _split_restarts(monkeypatch, self.breach)
        with _deadline(60), pytest.raises(TheoremViolationError, match="breach in restart"):
            search(self.CONFIG, workers=2)
        assert multiprocessing.active_children() == []

    def test_error_in_the_caller_stops_the_workers(self, monkeypatch):
        # The worker would sleep far past the deadline: it must be stopped.
        _split_restarts(monkeypatch, lambda config, k: time.sleep(600), self.breach)
        with _deadline(60), pytest.raises(TheoremViolationError, match="breach in restart"):
            search(self.CONFIG, workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_exiting_without_report_raises(self, monkeypatch):
        _split_restarts(monkeypatch, lambda config, k: os._exit(3))
        with _deadline(60), pytest.raises(RuntimeError, match="code 3 without reporting"):
            search(self.CONFIG, workers=2)
        assert multiprocessing.active_children() == []


class TestRestartMemo:
    """A restart evaluates each memo key once, with no change to the
    search's result."""

    THRESHOLD = get_family("threshold-detection")
    MODES = tuple(EffectiveCorrelationMode)

    @staticmethod
    def _theta_candidates(b, lo, hi, rng):
        """Every breakpoint and its two float neighbours, the box ends and
        200 random values, those inside the box [lo, hi]."""
        v = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                            [lo, hi], lo + rng.random(200) * (hi - lo)])
        return v[(v >= lo) & (v <= hi)]

    @pytest.mark.parametrize("quad", [QUAD, SettingsQuad.from_degrees(3, 41, 17, 80)],
                             ids=["optimal", "other"])
    def test_equal_keys_give_identical_tables_and_values(self, quad):
        fam, n_lambda = self.THRESHOLD, 90
        rng = np.random.default_rng(11)
        bps = fam.breakpoints(quad, n_lambda)
        cands = [self._theta_candidates(b, lo, hi, rng)
                 for b, lo, hi in zip(bps, fam.lower, fam.upper)]
        # Each party's theta over its candidates with the other held, then
        # random pairs of candidates.
        points = [np.array([t, 0.5]) for t in cands[0]]
        points += [np.array([0.5, t]) for t in cands[1]]
        points += [np.array([rng.choice(cands[0]), rng.choice(cands[1])])
                   for _ in range(200)]
        first, repeats = {}, 0
        for full in points:
            key = adversary._memo_key(bps, full)
            seen = (_QuadTables(fam.instantiate(full, n_lambda), quad, validate=False).t,
                    [objective(fam, full, quad, m, n_lambda) for m in self.MODES])
            if key not in first:
                first[key] = seen
                continue
            repeats += 1
            assert seen[0].tobytes() == first[key][0].tobytes(), full
            assert seen[1] == first[key][1], full
        assert repeats > len(bps[0])  # each breakpoint's upper neighbour repeats a key
        assert len(first) > 2 * len(bps[0])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_search_same_without_breakpoints(self, mode, workers):
        config = SearchConfig(family=self.THRESHOLD, quad=QUAD, mode=mode, restarts=4,
                              max_evals=200, seed=12, n_lambda=360)
        plain = dataclasses.replace(
            config, family=dataclasses.replace(self.THRESHOLD, breakpoints=None))
        assert search(config, workers=workers) == search(plain, workers=workers)

    @pytest.mark.parametrize("family", ["threshold-detection", "modulated-p0"])
    def test_objective_runs_once_per_key(self, monkeypatch, family):
        # The family without breakpoints repeats only bit-equal points, which
        # Nelder-Mead makes when the box clipping puts several on one face.
        # The search evaluates exactly the points the per-point reference
        # passes to ``objective``, one per distinct key of each restart, and
        # never calls ``objective`` itself.
        keys_per_restart, calls, evaluated = [], [], []
        memo_key, inner, evaluate = (adversary._memo_key, adversary.objective,
                                     adversary._evaluate)

        def recorded_key(breakpoints, full):
            key = memo_key(breakpoints, full)
            keys_per_restart[-1].add(key)
            return key

        def counted_objective(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        def recorded_evaluate(config, points, workspace):
            evaluated.extend(map(tuple, points))
            return evaluate(config, points, workspace)

        monkeypatch.setattr(adversary, "_memo_key", recorded_key)
        monkeypatch.setattr(adversary, "objective", counted_objective)
        config = SearchConfig(family=get_family(family), quad=QUAD, restarts=4,
                              max_evals=200, seed=12, n_lambda=360)
        reference = []
        for k in range(config.restarts):
            keys_per_restart.append(set())
            reference.append(_run_restart(config, k))
        assert len(calls) == sum(map(len, keys_per_restart))

        monkeypatch.setattr(adversary, "_memo_key", memo_key)
        monkeypatch.setattr(adversary, "_evaluate", recorded_evaluate)
        calls.clear()
        res = search(config, workers=1)
        assert list(res.restarts) == reference
        assert calls == []
        assert len(evaluated) == sum(map(len, keys_per_restart)) < res.evaluation_count

    def test_breakpoints_need_one_entry_per_parameter(self):
        fam = dataclasses.replace(self.THRESHOLD, breakpoints=lambda quad, n: (None,))
        with pytest.raises(ValidationError, match="breakpoints"):
            search(SearchConfig(family=fam, quad=QUAD, restarts=1, max_evals=10,
                                n_lambda=36))


def _scipy_expand(free_idx, frozen_full, x_free):
    full = frozen_full.copy()
    full[free_idx] = x_free
    return full


def _scipy_memo_key(breakpoints, full):
    if breakpoints is None:
        return full.tobytes()
    return tuple(int(np.searchsorted(b, v, side="left")) if b is not None else v.tobytes()
                 for b, v in zip(breakpoints, full))


def _scipy_run_restart(config, k, _memo_key=_scipy_memo_key, _expand=_scipy_expand):
    """The search's restart as it was when scipy.optimize.minimize ran the
    simplex: the body is kept verbatim as the reference for _nelder_mead."""
    from scipy import optimize

    fam = config.family
    names = fam.param_names
    lower = np.asarray(fam.lower, dtype=float)
    upper = np.asarray(fam.upper, dtype=float)
    frozen_full = lower.copy()
    for name, v in config.freeze.items():
        frozen_full[names.index(name)] = float(v)
    free_idx = np.array([i for i, n in enumerate(names) if n not in config.freeze],
                        dtype=int)

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))))
    x0 = lower[free_idx] + rng.random(free_idx.size) * \
        (upper[free_idx] - lower[free_idx])
    breakpoints = (None if fam.breakpoints is None
                   else fam.breakpoints(config.quad, config.n_lambda))
    if breakpoints is not None and len(breakpoints) != len(names):
        raise ValidationError(
            f"family {fam.name!r} declares breakpoints for {len(breakpoints)} "
            f"parameters, not {len(names)}")
    memo: dict = {}
    evals = 0
    trajectory: list[float] = []

    def neg_abs_ueff(x_free):
        nonlocal evals
        evals += 1
        x = np.clip(x_free, lower[free_idx], upper[free_idx])
        full = _expand(free_idx, frozen_full, x)
        key = _memo_key(breakpoints, full)
        value = memo.get(key)
        if value is None:
            value = memo[key] = objective(fam, full, config.quad, config.mode,
                                          n_lambda=config.n_lambda)
        if not trajectory or value > trajectory[-1]:
            trajectory.append(value)
        return -value

    res = optimize.minimize(
        neg_abs_ueff, x0, method="Nelder-Mead",
        bounds=list(zip(lower[free_idx], upper[free_idx])),
        options={"maxfev": config.max_evals, "xatol": 1e-6,
                 "fatol": 1e-10, "adaptive": False})
    x_best = np.clip(res.x, lower[free_idx], upper[free_idx])
    full_best = _expand(free_idx, frozen_full, x_best)
    return RestartSummary(restart_index=k, start=tuple(x0.tolist()),
                          best_params=tuple(full_best.tolist()),
                          best_value=float(-res.fun), evaluations=evals,
                          converged=bool(res.success),
                          trajectory=tuple(trajectory))


def _minimize(func, x0, lower, upper, maxfev):
    """``_nelder_mead`` driven by a callback: ``func`` gives each point's value."""
    steps = adversary._nelder_mead(x0, lower, upper, maxfev)
    try:
        x = next(steps)
        while True:
            x = steps.send(func(x))
    except StopIteration as stop:
        return stop.value


def _run_restart(config, k):
    """Restart ``k`` as the search ran it before its restarts ran in
    lockstep: one descent calling ``objective`` at each new point.  The
    body is kept as the per-point reference for the batched search."""
    fam = config.family
    names = fam.param_names
    free = [i for i, n in enumerate(names) if n not in config.freeze]
    lower = [float(fam.lower[i]) for i in free]
    upper = [float(fam.upper[i]) for i in free]
    frozen_full = [float(config.freeze.get(n, lo)) for n, lo in zip(names, fam.lower)]

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))))
    x0 = [lo + r * (hi - lo)
          for lo, hi, r in zip(lower, upper, rng.random(len(free)).tolist())]
    breakpoints = (None if fam.breakpoints is None
                   else fam.breakpoints(config.quad, config.n_lambda))
    if breakpoints is not None:
        if len(breakpoints) != len(names):
            raise ValidationError(
                f"family {fam.name!r} declares breakpoints for {len(breakpoints)} "
                f"parameters, not {len(names)}")
        breakpoints = tuple(None if b is None else np.asarray(b).tolist()
                            for b in breakpoints)
    memo = {}
    trajectory = []

    def expand(x):
        full = frozen_full.copy()
        for i, v in zip(free, x):
            full[i] = v
        return full

    def neg_abs_ueff(x):
        full = expand(x)
        key = adversary._memo_key(breakpoints, full)
        value = memo.get(key)
        if value is None:
            value = memo[key] = adversary.objective(fam, full, config.quad, config.mode,
                                                    n_lambda=config.n_lambda)
        if not trajectory or value > trajectory[-1]:
            trajectory.append(value)
        return -value

    x_best, f_best, evals = _minimize(neg_abs_ueff, x0, lower, upper, config.max_evals)
    return RestartSummary(restart_index=k, start=tuple(x0),
                          best_params=tuple(expand(x_best)),
                          best_value=float(-f_best), evaluations=evals,
                          converged=evals < config.max_evals,
                          trajectory=tuple(trajectory))


class TestNelderMeadReference:
    """``_nelder_mead`` takes scipy's bounded Nelder-Mead steps bit for bit:
    each restart visits the points the scipy-driven restart visited, in the
    same order, and returns an equal summary.  The restart is the per-point
    reference ``_run_restart``, which ``TestLockstep`` pins the search to."""

    @staticmethod
    def _bytes(points):
        return [np.asarray(x, dtype=float).tobytes() for x in points]

    @pytest.mark.parametrize("family, freeze", [
        pytest.param("threshold-detection", {}, id="threshold"),
        pytest.param("threshold-detection", {"theta2": 0.999}, id="threshold-theta2-top"),
        pytest.param("threshold-detection", {"theta1": 0.0}, id="threshold-theta1-bottom"),
        pytest.param("modulated-p0", {}, id="modulated"),
        pytest.param("modulated-p0", {"c1": 0.0}, id="modulated-c1"),
        pytest.param("modulated-p0", {"c0": 0.9}, id="modulated-c0-top"),
        pytest.param("modulated-p0", {"c1": 0.0, "sharpness": 1.0}, id="modulated-c1-sharpness"),
    ])
    @pytest.mark.parametrize("mode", tuple(EffectiveCorrelationMode), ids=lambda m: m.value)
    def test_restart_matches_scipy(self, monkeypatch, family, freeze, mode):
        pytest.importorskip("scipy.optimize")
        new_points, ref_points = [], []
        memo_key = adversary._memo_key

        def recorded_key(breakpoints, full):
            new_points.append(full)
            return memo_key(breakpoints, full)

        def recorded_ref_key(breakpoints, full):
            ref_points.append(full)
            return _scipy_memo_key(breakpoints, full)

        monkeypatch.setattr(adversary, "_memo_key", recorded_key)
        # The small budgets run out inside expansions, contractions and
        # shrinks; at 60 most restarts converge first.
        for max_evals in (10, 11, 13, 17, 60):
            config = SearchConfig(family=get_family(family), quad=QUAD, mode=mode,
                                  restarts=2, max_evals=max_evals, seed=max_evals,
                                  n_lambda=90, freeze=freeze)
            for k in range(config.restarts):
                new_points.clear()
                ref_points.clear()
                summary = _run_restart(config, k)
                assert summary == _scipy_run_restart(config, k, _memo_key=recorded_ref_key)
                assert self._bytes(new_points) == self._bytes(ref_points)
                assert len(new_points) == summary.evaluations

    @pytest.mark.parametrize("x0, maxfev", [
        pytest.param([0.0, 0.4], 60, id="zero-start"),
        pytest.param([0.97, 0.5], 60, id="near-upper"),
        pytest.param([0.97, 0.0], 13, id="both-budget"),
        pytest.param([0.0], 40, id="one-dim"),
    ])
    def test_direct_matches_scipy(self, x0, maxfev):
        # A start coordinate of 0 moves to 0.00025 in the initial simplex,
        # and one within 5 % of the upper bound is reflected back into the
        # box; the stepped objective makes ties between vertices.
        optimize = pytest.importorskip("scipy.optimize")
        lower, upper = [0.0] * len(x0), [1.0] * len(x0)

        def stepped(x):
            return math.floor(sum((v - 0.3) ** 2 for v in x) / 0.01) * 0.01

        ours, theirs = [], []
        x, fx, calls = _minimize(
            lambda x: ours.append(list(x)) or stepped(x), x0, lower, upper, maxfev)
        res = optimize.minimize(
            lambda x: theirs.append(x.tolist()) or stepped(x), np.array(x0),
            method="Nelder-Mead", bounds=list(zip(lower, upper)),
            options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-10, "adaptive": False})
        assert self._bytes(ours) == self._bytes(theirs)
        assert all(0.0 <= v <= 1.0 for p in ours for v in p)
        assert np.asarray(x).tobytes() == res.x.tobytes()
        assert (fx, calls, calls < maxfev) == (res.fun, res.nfev, res.success)


class TestLockstep:
    """The search runs its restarts in lockstep and evaluates their new
    points in batches; each restart's summary equals the per-point
    reference ``_run_restart``'s, whatever the batches hold."""

    BUDGETS = (10, 11, 13, 17, 60)

    @staticmethod
    def assert_matches_reference(config, workers=1):
        reference = [_run_restart(config, k) for k in range(config.restarts)]
        assert list(search(config, workers=workers).restarts) == reference

    @pytest.mark.parametrize("family", ["threshold-detection", "modulated-p0"])
    @pytest.mark.parametrize("mode", tuple(EffectiveCorrelationMode), ids=lambda m: m.value)
    def test_summaries_match_per_point_reference(self, family, mode):
        # The small budgets run out inside expansions, contractions and
        # shrinks, with the restarts beside it still running.
        for max_evals in self.BUDGETS:
            self.assert_matches_reference(SearchConfig(
                family=get_family(family), quad=QUAD, mode=mode, restarts=5,
                max_evals=max_evals, seed=max_evals, n_lambda=90))

    def test_builder_only_family_matches_reference(self):
        for mode in EffectiveCorrelationMode:
            config = SearchConfig(family=TWO_POINT, quad=QUAD, mode=mode, restarts=4,
                                  max_evals=60, seed=5, n_lambda=2)
            self.assert_matches_reference(config)
            self.assert_matches_reference(config, workers=2)

    def test_tiny_batch_memory_matches_reference(self, monkeypatch):
        # One point per batch, and three points per batch at n_lambda = 90.
        for budget in (1, 3 * 96 * 90):
            monkeypatch.setattr(adversary, "BATCH_TABLE_BYTES", budget)
            for family in ("threshold-detection", "modulated-p0"):
                self.assert_matches_reference(SearchConfig(
                    family=get_family(family), quad=QUAD, restarts=5, max_evals=60,
                    seed=4, n_lambda=90))

    @pytest.mark.parametrize("mode", tuple(EffectiveCorrelationMode), ids=lambda m: m.value)
    def test_batch_with_degenerate_rows_matches_objective(self, mode):
        # theta = 0.999 leaves pairs with no coincidences or dead rows; the
        # batch mixes them with ordinary points and repeats one.
        cases = ((get_family("threshold-detection"),
                  [[0.999, 0.999], [0.8, 0.8], [0.0, 0.999], [0.0, 0.0], [0.999, 0.3],
                   [0.8, 0.8]]),
                 (get_family("modulated-p0"),
                  [[0.9, 0.5, 4.0], [0.0, -0.5, 0.25], [0.3, 0.0, 1.0]]))
        for family, points in cases:
            config = SearchConfig(family=family, quad=QUAD, mode=mode, restarts=1,
                                  max_evals=10, n_lambda=90)
            want = [objective(family, p, QUAD, mode, n_lambda=90) for p in points]
            workspace = np.full((len(points), 2, 2, 90, 3), np.nan)
            assert adversary._evaluate(config, points, workspace) == want
            if family.name == "threshold-detection":
                assert 0.0 in want and any(v > 0.0 for v in want)

    def test_batched_tables_match_builder_tables(self):
        # Each family's response fills a B-row batch, row for row, with the
        # bytes of B calls at B = 1, which are the instantiated model's.
        rng = np.random.default_rng(31)
        for fam in FAMILIES.values():
            lo, hi = np.asarray(fam.lower), np.asarray(fam.upper)
            params = lo + rng.random((7, lo.size)) * (hi - lo)
            params[0] = lo
            params[1] = hi
            if fam.name == "modulated-p0":
                # numpy's power takes fast paths at these scalar exponents.
                params[2:5, 2] = (0.5, 1.0, 2.0)
            for party, angles in ((1, QUAD.party1_angles()), (2, (0.3, 2.9, 1.1))):
                # The search passes a strided view of its workspace.
                batch = np.full((7, 2, len(angles), 90, 3), np.nan)[:, 1]
                fam.response(params, party, angles, 90, batch)
                for row, p in zip(batch, params):
                    one = np.empty((1, len(angles), 90, 3))
                    fam.response(p[None], party, angles, 90, one)
                    assert row.tobytes() == one.tobytes() == fam.instantiate(p, 90).tables(
                        party, angles, validate=False).tobytes()

    def test_each_process_runs_a_fixed_share(self, monkeypatch, tmp_path):
        # Every process appends its pid and share to one file, since a
        # forked worker's memory is lost when it exits.  The shares split
        # the restarts evenly, and no output depends on the split.
        log = tmp_path / "shares.jsonl"
        lockstep = adversary._lockstep

        def recorded(config, indices):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid(), list(indices)]) + "\n")
            return lockstep(config, indices)

        monkeypatch.setattr(adversary, "_lockstep", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        config = SearchConfig(family=get_family("threshold-detection"), quad=QUAD,
                              restarts=5, max_evals=60, n_lambda=90)
        want = json.dumps(search(config).to_json_dict())
        for workers in (1, 2, 3, 4):
            log.write_text("", encoding="utf-8")
            assert json.dumps(search(config, workers=workers).to_json_dict()) == want
            entries = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
            shares = [indices for _pid, indices in entries]
            assert len({pid for pid, _indices in entries}) == len(shares) == workers
            assert sorted(k for share in shares for k in share) == list(range(5))
            sizes = [len(share) for share in shares]
            assert max(sizes) - min(sizes) <= 1


# SHA-256 over the search JSONs of ``test_search_bits_pinned``: every family
# and slice, in every mode, at the optimal quad and a skewed one, each at
# workers 1 and 2.
SEARCH_QUADS = (QUAD, SettingsQuad.from_degrees(3, 41, 17, 80))
SEARCH_CASES = (("threshold-detection", {}), ("modulated-p0", {}),
                ("modulated-p0", {"c1": 0.0}))
SEARCH_DIGEST = "3434b6bd2d1feb125ec1eccbb3e9aff88a519e306e22cfed899e392fed2e6ceb"


def test_search_bits_pinned(monkeypatch):
    # A faster evaluation of the objective must keep every value, and so
    # every step of every restart, to the bit.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    digest = hashlib.sha256()
    for family, freeze in SEARCH_CASES:
        for mode in EffectiveCorrelationMode:
            for quad in SEARCH_QUADS:
                config = SearchConfig(family=get_family(family), quad=quad, mode=mode,
                                      restarts=5, max_evals=200, seed=12, n_lambda=720,
                                      freeze=freeze)
                texts = [json.dumps(search(config, workers=w).to_json_dict())
                         for w in (1, 2)]
                assert texts[0] == texts[1]
                for text in texts:
                    digest.update(text.encode())
    assert digest.hexdigest() == SEARCH_DIGEST

