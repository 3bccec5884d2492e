"""Core model machinery: response tables, averages, validators."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.bounds import (
    EffectiveCorrelationMode,
    SettingsQuad,
    _QuadTables,
    effective_chsh,
    effective_chsh_value,
)
from bellsim.adversary import get_family
from bellsim.model import (
    DegenerateModelError,
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    ValidationError,
    _nondetect_rows,
    _parse_number,
    _premise_report,
    canonical_angle,
    uniform_lambda_grid,
    validate_solution1,
    validate_solution2,
)
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
    random_nondegenerate_model,
)
import reference


def constant_model(triple1, triple2, n=4, weights=None):
    """Model whose responses ignore the angle and the hidden point."""
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights)
    space = HiddenVariableSpace(w)

    def resp(party, triple):
        t = np.asarray(triple, dtype=float)

        def fn(angles, lam):
            return np.tile(t, (angles.size, lam.size, 1))

        return ResponseFunction(party, fn)

    return SLHVModel(space, resp(1, triple1), resp(2, triple2))


_DIGITS_5000 = "1" * 5000  # past Python's digit limit for int parsing


class TestParseNumber:
    # (text, integer, value): what int() or float() reads, bits included.
    ACCEPTED = [
        ("+1", False, 1.0), ("+1", True, 1),
        (" 5 ", False, 5.0), (" 5 ", True, 5),
        ("1e3", False, 1000.0),
        (".5", False, 0.5),
        ("-0.0", False, -0.0),
    ]
    REJECTED = [
        ("nan", False), ("inf", False), ("-inf", False),
        ("1_0", False), ("1_0", True),
        ("\u0663", False), ("\u0663", True),
        (_DIGITS_5000, False), (_DIGITS_5000, True),
        ("1e3", True), (".5", True), ("", False), ("x", True),
        (5, False), (None, True),
    ]

    @pytest.mark.parametrize("text, integer, value", ACCEPTED)
    def test_accepts(self, text, integer, value):
        got = _parse_number(text, "x", integer=integer)
        assert type(got) is type(value)
        assert got == value and math.copysign(1, got) == math.copysign(1, value)

    @pytest.mark.parametrize("text, integer", REJECTED,
                             ids=lambda v: "5000-digits" if v == _DIGITS_5000 else None)
    def test_rejects(self, text, integer):
        with pytest.raises(ValidationError, match=r"^the value must be"):
            _parse_number(text, "the value", integer=integer)


class TestCanonicalAngle:
    @settings(derandomize=True, database=None)
    @given(st.floats(-100.0, 100.0))
    def test_range_and_periodicity(self, x):
        a = canonical_angle(x)
        assert 0.0 <= a < math.pi
        assert abs(math.cos(2 * a) - math.cos(2 * x)) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            canonical_angle(float("nan"))

    @pytest.mark.parametrize("angle", ["0", True, None, [0.1]])
    def test_rejects_non_real(self, angle):
        # An angle is a real number; a string or a bool is not coerced.
        with pytest.raises(ValidationError, match="angle must be a real number"):
            canonical_angle(angle)

    def test_rejects_integer_past_float_range(self):
        # Too large for a float, and too long for Python to print.
        with pytest.raises(ValidationError, match="angle is out of range for a float"):
            canonical_angle(10**5000)


class TestHiddenVariableSpace:
    def test_rejects_unnormalized_weights(self):
        # The sum prints as a plain float, not as np.float64(1.1).
        with pytest.raises(ValidationError, match=r"must sum to 1 \(got 1\.1\)$"):
            HiddenVariableSpace([0.5, 0.6])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            HiddenVariableSpace([1.5, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            HiddenVariableSpace([])

    @pytest.mark.parametrize("weights, values", [
        (["0.5", "0.5"], None), ([True, False], None), (np.array([True, False]), None),
        ([0.5, 0.5], ["0", "1"]), ([0.5, 0.5], [0.0, False])],
        ids=["string-weights", "bool-weights", "bool-array-weights", "string-values",
             "bool-value"])
    def test_rejects_non_real_points(self, weights, values):
        with pytest.raises(ValidationError, match="must be a real number"):
            HiddenVariableSpace(weights, values)

    def test_uniform_grid(self):
        g = uniform_lambda_grid(360)
        assert g.size == 360
        assert abs(g.weights.sum() - 1.0) < 1e-12
        assert g.values[0] == 0.0
        assert g.values[-1] < math.pi


class TestResponse:
    def test_perfect_efficiency_has_no_nondetection(self):
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        t = m.triples(1, 0.3)[0]
        assert t.tolist() == [0.5, 0.5, 0.0]
        assert t[0] + t[1] == 1.0

    def test_unnormalized_response_raises_with_location(self):
        space = HiddenVariableSpace([1.0])

        def bad(angles, lam):
            return np.array([[[0.5, 0.5, 0.5]]])

        m = SLHVModel(space, ResponseFunction(1, bad),
                      ResponseFunction(2, bad))
        with pytest.raises(ValidationError, match=r"party 1, .*, sum 1\.5\)$"):
            m.triples(1, 0.25)

    @pytest.mark.parametrize("build, name", [
        (lambda: ResponseFunction(1, 5), "fn"),
        (lambda: ResponseFunction(2, None), "fn"),
    ], ids=["int", "none"])
    def test_non_callable_rejected_at_construction(self, build, name):
        with pytest.raises(ValidationError, match=f"response {name} must be callable"):
            build()

    @pytest.mark.parametrize("call", [
        lambda fn, m: ResponseFunction(True, fn),
        lambda fn, m: ResponseFunction(1.0, fn),
        lambda fn, m: ResponseFunction(3, fn),
        lambda fn, m: m.tables(True, [0.0]),
        lambda fn, m: m.tables(2.0, [0.0]),
        lambda fn, m: m.triples(0, 0.0),
    ], ids=["ctor-bool", "ctor-float", "ctor-3", "tables-bool", "tables-float", "triples-0"])
    def test_party_must_be_one_or_two_as_int(self, call):
        # A bool or a float is not coerced into a party number.
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        with pytest.raises(ValidationError, match=r"^party must be (an integer|at most)"):
            call(m.response1._fn, m)

    def test_normalization_property_over_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            kind = rng.integers(3)
            m = (random_angle_independent_model(rng, 6) if kind == 0
                 else random_lambda_independent_model(rng, 6) if kind == 1
                 else random_nondegenerate_model(rng, 6))
            angle = rng.random() * math.pi
            for party in (1, 2):
                t = m.triples(party, angle)
                np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(t >= -1e-15) and np.all(t <= 1.0 + 1e-15)


MODE3 = EffectiveCorrelationMode.SOLUTION3


def pair_report(m, a, b, mode=EffectiveCorrelationMode.SOLUTION1):
    """The report at the quad (a, a, b, b): its "ab" entries are the
    pair (a, b)'s E, coincidence probability and E_eff."""
    return effective_chsh(m, SettingsQuad(a, a, b, b), mode)


class TestAverages:
    """The table-column conventions (alpha, local and effective local
    averages), read through the exact sums of bounds."""

    def test_symmetric_triple_has_zero_average(self):
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        assert pair_report(m, 0.1, 0.1).e["ab"] == 0.0

    def test_plain_average_example(self):
        # local average 0.6 and alpha 0.6 per party
        m = constant_model((0.6, 0.0, 0.4), (0.6, 0.0, 0.4))
        rep = pair_report(m, 0.0, 0.0)
        assert rep.e["ab"] == pytest.approx(0.36, abs=1e-15)
        assert rep.coincidence["ab"] == pytest.approx(0.36, abs=1e-15)

    def test_triple_sum_example(self):
        m = constant_model((0.3, 0.2, 0.5), (0.3, 0.2, 0.5))
        t = m.triples(1, 1.0)[1]
        assert t[0] + t[1] == pytest.approx(0.5, abs=1e-15)
        assert t[2] == pytest.approx(0.5, abs=1e-15)

    def test_effective_average_example(self):
        # (0.3 - 0.1) / (0.3 + 0.1) = 0.5 per party
        m = constant_model((0.3, 0.1, 0.6), (0.3, 0.1, 0.6))
        assert pair_report(m, 0.0, 0.0, MODE3).e_eff["ab"] == pytest.approx(0.25, rel=1e-12)

    def test_effective_average_equals_plain_without_loss(self):
        m = constant_model((0.7, 0.3, 0.0), (0.7, 0.3, 0.0))
        rep = pair_report(m, 0.2, 0.2, MODE3)
        assert rep.e_eff["ab"] == pytest.approx(rep.e["ab"], abs=1e-15)

    def test_effective_average_undefined_at_dead_point(self):
        m = constant_model((0.0, 0.0, 1.0), (0.5, 0.5, 0.0))
        with pytest.raises(DegenerateModelError, match="party 1"):
            effective_chsh_value(m, SettingsQuad(0.0, 0.0, 0.0, 0.0), MODE3)

    def test_average_bounds_over_random_models(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = random_nondegenerate_model(rng, 8)
            angle = rng.random() * math.pi
            for party in (1, 2):
                t = m.triples(party, angle)
                alpha = t[:, 0] + t[:, 1]
                eps = t[:, 0] - t[:, 1]
                assert np.all(np.abs(eps) <= alpha + 1e-12)
                assert np.all(t[:, 0] <= alpha + 1e-15)
                assert np.all(t[:, 1] <= alpha + 1e-15)
                eff = eps / alpha
                assert np.all(np.abs(eff) <= 1.0)

    def test_nondetect_is_one_minus_alpha(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            m = random_lambda_independent_model(rng, 8)
            angle = rng.random() * math.pi
            t = m.triples(1, angle)
            np.testing.assert_allclose(t[:, 2], 1.0 - (t[:, 0] + t[:, 1]), atol=1e-12)


class TestJointProb:
    """The four 3x3 joint-outcome tables of a quad (``_QuadTables.joints``
    of a batch of one), rows and columns in OUTCOME_VALUES order."""

    def test_deterministic_opposite_outcomes(self):
        m = constant_model((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        want = np.zeros((3, 3))
        want[0, 1] = 1.0
        assert np.array_equal(_QuadTables(m, SettingsQuad(0.0, 0.0, 0.0, 0.0)).joints[0, 0],
                              want)

    def test_independent_fair_responses(self):
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        joints = _QuadTables(m, SettingsQuad(0.1, 0.1, 0.2, 0.2)).joints[0]
        assert np.all(joints[:, :2, :2] == 0.25)

    def test_full_table_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = random_nondegenerate_model(rng, 6)
            quad = SettingsQuad(*(rng.random(4) * math.pi))
            joints = _QuadTables(m, quad).joints[0]
            np.testing.assert_allclose(joints.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_factorization_is_exact(self):
        # At a single hidden point each joint table is the outer product of
        # the two parties' triples, bit for bit.
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = random_nondegenerate_model(rng, 1)
            quad = SettingsQuad(0.3, 0.7, 1.1, 2.9)
            joints = _QuadTables(m, quad).joints[0]
            for k, (_label, a, b) in enumerate(quad.pairs()):
                assert np.array_equal(joints[k],
                                      np.outer(m.triples(1, a)[0], m.triples(2, b)[0]))


class TestValidators:
    def test_angle_independent_model_passes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = random_angle_independent_model(rng, 8)
            angles = list(rng.random(3) * math.pi)
            rep = validate_solution1(m, angles, angles)
            assert rep.passed and rep.max_deviation <= 1e-10

    def test_angle_modulated_nondetection_fails(self):
        space = uniform_lambda_grid(36)

        def fn(angles, lam):
            p0 = 0.1 + 0.05 * np.cos(2.0 * (angles[:, None] - lam))
            share = np.full_like(p0, 0.5)
            return np.stack([(1 - p0) * share, (1 - p0) * (1 - share), p0], axis=-1)

        m = SLHVModel(space, ResponseFunction(1, fn),
                      ResponseFunction(2, fn))
        rep = validate_solution1(m, [0.0, math.pi / 4], [0.0, math.pi / 4])
        assert not rep.passed
        assert rep.max_deviation > 0.01
        assert rep.worst is not None and rep.worst[0] in (1, 2)

    def test_perfect_model_passes_both_with_zero_deviation(self):
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        r1 = validate_solution1(m, [0.0, 1.0], [0.5, 1.5])
        r2 = validate_solution2(m, [0.0, 1.0], [0.5, 1.5])
        assert r1.passed and r1.max_deviation == 0.0
        assert r2.passed and r2.max_deviation == 0.0
        assert all(v == 0.0 for v in r2.implied_p0[1].values())

    def test_constant_nondetection_reports_implied_value(self):
        m = constant_model((0.375, 0.375, 0.25), (0.3, 0.3, 0.4))
        rep = validate_solution2(m, [0.2], [0.9])
        assert rep.passed
        assert rep.implied_p0[1][canonical_angle(0.2)] == pytest.approx(0.25)
        assert rep.implied_p0[2][canonical_angle(0.9)] == pytest.approx(0.4)

    def test_lambda_dependent_nondetection_fails(self):
        space = HiddenVariableSpace([0.5, 0.5])

        def fn(angles, lam):
            p0 = np.tile([0.2, 0.3], (angles.size, 1))
            return np.stack([(1 - p0) / 2, (1 - p0) / 2, p0], axis=-1)

        m = SLHVModel(space, ResponseFunction(1, fn),
                      ResponseFunction(2, fn))
        rep = validate_solution2(m, [0.0], [0.0])
        assert not rep.passed
        assert rep.implied_p0 is None

    def test_lambda_independent_random_models_pass_solution2(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = random_lambda_independent_model(rng, 8)
            angles = list(rng.random(2) * math.pi)
            assert validate_solution2(m, angles, angles).passed

    def test_empty_angle_list_rejected(self):
        m = constant_model((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        with pytest.raises(ValidationError):
            validate_solution1(m, [], [0.0])

    def test_one_response_call_per_party(self):
        calls = {1: 0, 2: 0}

        def counting(party):
            def fn(angles, lam):
                calls[party] += 1
                return np.tile([0.25, 0.25, 0.5], (angles.size, lam.size, 1))

            return ResponseFunction(party, fn)

        m = SLHVModel(uniform_lambda_grid(8), counting(1), counting(2))
        for validate in (validate_solution1, validate_solution2):
            calls.update({1: 0, 2: 0})
            assert validate(m, [0.0, 1.0, 2.0, 1.0], [0.5, 1.5 + math.pi]).passed
            assert calls == {1: 1, 2: 1}


def _p0_table_model(rows1, rows2):
    """Tabulated model over three equal-weight hidden points from per-angle
    non-detection rows keyed by degrees; detections split evenly."""
    def resp(party, rows):
        return ResponseFunction.from_table(party, {
            math.radians(deg): np.column_stack([(1 - np.array(p0)) / 2,
                                                (1 - np.array(p0)) / 2, p0])
            for deg, p0 in rows.items()})

    return SLHVModel(uniform_lambda_grid(3), resp(1, rows1), resp(2, rows2))


class TestWorstPoint:
    """Where each regime's check reports its failure, with more than two
    angles per party, at the canonical angles: for solution1 the first
    (party, lambda) where the range over the angles peaks, with its first
    minimum's and first maximum's angles in index order; for solution2
    and solution3 the first maximum in (party, angle, lambda) order.
    Party 1 asks for 0, 30, 0 again and 240 (= 60) degrees; party 2 for
    10, 230 (= 50), 10 again and -80 (= 100) degrees.  Every value is
    dyadic, so the ties are exact."""

    MODEL = _p0_table_model(
        {0: [0.125, 0.25, 0.5], 30: [1.0, 1.0, 1.0], 60: [0.375, 0.25, 0.875]},
        {10: [0.25, 0.25, 0.25], 50: [0.25, 0.25, 0.75], 100: [0.25, 1.0, 0.25]})
    ANGLES1 = [math.radians(d) for d in (0, 30, 0, 240)]
    ANGLES2 = [math.radians(d) for d in (10, 230, 10, -80)]

    @staticmethod
    def at(deg):
        return canonical_angle(math.radians(deg))

    def test_solution1(self):
        # Party 1's pairs (0, 30) and (30, 0 again) both differ by 0.875 at
        # lambda 0; the first is reported, and party 2's 0.75 is smaller.
        rep = validate_solution1(self.MODEL, self.ANGLES1, self.ANGLES2)
        assert not rep.passed and rep.max_deviation == 0.875
        assert rep.worst == (1, 0, (self.at(0), self.at(30)))

    def test_solution2(self):
        # Party 2's 100-degree row ranges over 0.75, more than party 1's
        # 0.625 at 60 degrees; it is asked for as -80 degrees.
        rep = validate_solution2(self.MODEL, self.ANGLES1, self.ANGLES2)
        assert not rep.passed and rep.max_deviation == 0.75
        assert rep.worst == (2, 1, (self.at(-80), self.at(-80)))
        assert rep.implied_p0 is None

    def test_solution3(self):
        # Both parties have a point with p0 = 1; party 1's (every point at
        # 30 degrees, the first at lambda 0) comes first.
        rep = _premise_report("solution3",
                              *_nondetect_rows(self.MODEL, self.ANGLES1, self.ANGLES2),
                              self.MODEL.space.weights)
        assert not rep.passed and rep.max_deviation == 1.0
        assert rep.worst == (1, 0, (self.at(30), self.at(30)))


_TIE_P0 = (0.0, 0.25, 0.5, 0.75, 1.0)


def _tie_heavy_model(rng, n):
    """Tabulated model at four angles per party whose p0 entries all lie in
    _TIE_P0, with random weights, and those angles in radians.  About half
    the rows are constant over lambda, so solution2 sometimes passes."""
    space = HiddenVariableSpace(rng.dirichlet(np.ones(n)))
    parts, angles = [], []
    for party in (1, 2):
        degrees = rng.choice(180, size=4, replace=False)
        tables = {}
        for deg in degrees:
            p0 = (np.full(n, rng.choice(_TIE_P0)) if rng.random() < 0.5
                  else rng.choice(_TIE_P0, size=n))
            plus = (1.0 - p0) * rng.choice((0.0, 0.5, 1.0))
            tables[math.radians(deg)] = np.column_stack([plus, 1.0 - p0 - plus, p0])
        parts.append(ResponseFunction.from_table(party, tables))
        angles.append(list(tables))
    return SLHVModel(space, *parts), angles


def _report_cases(k_choices, seed):
    """(case, model, angles1, angles2) with len(angles) drawn from
    ``k_choices`` per party: the three random_models generators, both
    search families and tie-heavy tabulated models, at each n in
    (1, 2, 5, 16, 90, 720).  Angles may repeat."""
    rng = np.random.default_rng(seed)
    generators = (random_angle_independent_model, random_lambda_independent_model,
                  random_nondegenerate_model)
    families = tuple(get_family(name) for name in ("threshold-detection", "modulated-p0"))

    def draw(pool=None):
        k = int(rng.choice(k_choices))
        if pool is None:
            return list(rng.random(k) * math.pi)
        return [pool[i] for i in rng.integers(len(pool), size=k)]

    for n in (1, 2, 5, 16, 90, 720):
        for rep in range(4):
            for gen in generators:
                yield (gen.__name__, n, rep), gen(rng, n), draw(), draw()
            for fam in families:
                params = np.asarray(fam.lower) + rng.random(len(fam.lower)) * (
                    np.asarray(fam.upper) - np.asarray(fam.lower))
                if rep == 0:  # the slices theta1 = theta2 = 0 and c1 = 0
                    params[[0, 1] if fam.name == "threshold-detection" else [1]] = 0.0
                yield ((fam.name, n, rep), fam.instantiate(params, n_lambda=n),
                       draw(), draw())
            model, pools = _tie_heavy_model(rng, n)
            yield ("tie-heavy", n, rep), model, draw(pools[0]), draw(pools[1])


class TestReferenceReports:
    """The array reductions give ``reference.premise_report``'s reports,
    those of the validators' former loop over each party's angle pairs."""

    @staticmethod
    def reports(model, angles1, angles2):
        p0, angles = _nondetect_rows(model, angles1, angles2)
        return [(_premise_report(regime, p0, angles, model.space.weights),
                 reference.premise_report(regime, model, angles1, angles2))
                for regime in ("solution1", "solution2", "solution3")]

    @staticmethod
    def fields(rep, worst=True):
        return (rep.passed, repr(rep.max_deviation), rep.worst if worst else None,
                repr(rep.implied_p0), rep.tol)

    def test_equal_reports_at_one_or_two_angles(self):
        verdicts = set()
        for case, model, angles1, angles2 in _report_cases((1, 2), seed=61):
            for regime, (got, want) in enumerate(self.reports(model, angles1, angles2),
                                                 start=1):
                assert self.fields(got) == self.fields(want), (case, regime)
                verdicts.add((regime, got.passed))
        assert len(verdicts) == 6  # each regime both passes and fails

    def test_equal_verdicts_at_three_or_four_angles(self):
        verdicts = set()
        for case, model, angles1, angles2 in _report_cases((3, 4), seed=67):
            (got1, want1), *others = self.reports(model, angles1, angles2)
            assert self.fields(got1, worst=False) == self.fields(want1, worst=False), case
            assert (got1.worst is None) == (want1.worst is None), case
            for regime, (got, want) in enumerate(others, start=2):
                assert self.fields(got) == self.fields(want), (case, regime)
            verdicts.update((regime, rep.passed) for regime, rep in
                            enumerate((got1, *(got for got, _ in others)), start=1))
        assert len(verdicts) == 6

    def test_no_positive_p0_reads_zero(self):
        # A p0 of -0.0, or just below 0 within the normalization
        # tolerance, is a deviation of 0.0 in every regime.
        for p0 in (-0.0, -2.0 ** -50):
            m = _p0_table_model({0: [p0] * 3, 45: [p0] * 3}, {0: [p0] * 3})
            for got, want in self.reports(m, [0.0, math.pi / 4], [0.0]):
                assert self.fields(got) == self.fields(want), p0
                assert repr(got.max_deviation) == "0.0"

    def test_solution1_worst_is_the_first_lambda_of_the_peak_range(self):
        # Lambdas 0 and 1 both range over 1.  The loop over angle pairs met
        # the peak first in pair (0, 1), at lambda 1; the range reduction
        # reports the first lambda, 0, with its first minimum (0 degrees)
        # and first maximum (60 degrees).
        m = _p0_table_model({0: [0.0, 1.0, 0.0], 30: [0.0, 0.0, 0.0], 60: [1.0, 1.0, 0.0]},
                            {0: [0.5, 0.5, 0.5]})
        angles1 = [math.radians(d) for d in (0, 30, 60)]
        rep = validate_solution1(m, angles1, [0.0])
        assert not rep.passed and rep.max_deviation == 1.0
        assert rep.worst == (1, 0, (angles1[0], angles1[2]))
        assert reference.premise_report("solution1", m, angles1, [0.0]).worst == (
            1, 1, (angles1[0], angles1[1]))


def _one_angle_threshold(theta, angle, lam):
    """The threshold-detection response at one angle, in its one-angle form."""
    c = np.cos(2.0 * (angle - lam))
    detect = (np.abs(c) >= theta).astype(float)
    plus = detect * (c >= 0.0)
    minus = detect * (c < 0.0)
    return np.column_stack([plus, minus, 1.0 - detect])


def _one_angle_modulated(c0, c1, sharpness, angle, lam):
    """The modulated-p0 response at one angle, in its one-angle form."""
    p0 = np.clip(c0 + c1 * np.cos(2.0 * (angle - lam)), 0.0, 1.0)
    w_plus = np.cos(angle - lam) ** 2
    w_minus = np.sin(angle - lam) ** 2
    if sharpness != 1.0:
        w_plus = w_plus ** sharpness
        w_minus = w_minus ** sharpness
    share = w_plus / (w_plus + w_minus)
    detect = 1.0 - p0
    plus = detect * share
    minus = detect * (1.0 - share)
    return np.column_stack([plus, minus, p0])


class TestBroadcastProtocol:
    """One k-angle response call equals the stack of k one-angle calls, bit
    for bit, on every construction route."""

    SIZES = (1, 90, 97, 720)

    @staticmethod
    def angles(rng):
        # A repeat, a turn past pi and a negative angle, which the response
        # sees reduced to [0, pi).
        a = (rng.random(5) * math.pi).tolist()
        return a + [a[1], a[2] + math.pi, -a[3]]

    @staticmethod
    def assert_stacked(m, angles, reference=None):
        # Bytes, not np.array_equal, which takes -0.0 for 0.0.
        for party in (1, 2):
            got = m.tables(party, angles)
            assert got.shape == (len(angles), m.space.size, 3)
            assert got.dtype == np.float64
            assert got.tobytes() == np.stack([m.triples(party, a) for a in angles]).tobytes()
            if reference is not None:
                want = np.stack([reference(party, canonical_angle(a), m.space.values)
                                 for a in angles])
                assert got.tobytes() == want.tobytes()

    def test_families_match_one_angle_formulas(self):
        from bellsim import adversary

        rng = np.random.default_rng(53)
        threshold = adversary.get_family("threshold-detection")
        modulated = adversary.get_family("modulated-p0")
        # The box ends and the no-op sharpness; c1 = +-0.5 makes the clip
        # bind at c0 = 0.9 (and at -0.0), and -0.0 keeps its sign through it.
        edges = [(c0, c1, sharpness) for c0 in (-0.0, 0.9) for c1 in (0.5, -0.5, -0.0)
                 for sharpness in (1.0, 0.25, 4.0, 2.0)]
        for n in self.SIZES:
            for _ in range(4):
                th = rng.random(2) * 0.999
                self.assert_stacked(
                    threshold.instantiate(th, n), self.angles(rng),
                    lambda party, a, lam: _one_angle_threshold(th[party - 1], a, lam))
            cases = [(rng.random() * 0.9, rng.uniform(-0.5, 0.5), rng.uniform(0.25, 4.0))
                     for _ in range(4)]
            cases += [(rng.random() * 0.9, 0.0, 1.0) for _ in range(4)]
            for c0, c1, sharpness in cases + edges:
                angles = self.angles(rng)
                # Once with the sharpness terms computed afresh, once from the cache.
                adversary._malus_shares.cache_clear()
                for _ in range(2):
                    self.assert_stacked(
                        modulated.instantiate([c0, c1, sharpness], n), angles,
                        lambda party, a, lam: _one_angle_modulated(c0, c1, sharpness,
                                                                   a, lam))
                assert adversary._malus_shares.cache_info().hits > 0

    def test_generators(self):
        rng = np.random.default_rng(59)
        for n in self.SIZES:
            for gen in (random_angle_independent_model, random_lambda_independent_model,
                        random_nondegenerate_model):
                for _ in range(3):
                    self.assert_stacked(gen(rng, n), self.angles(rng))

    def test_from_table(self):
        rng = np.random.default_rng(67)
        for n in self.SIZES:
            keys = (rng.random(4) * math.pi).tolist()

            def tables():
                p = rng.random((n, 3))
                return {a: p / p.sum(axis=1, keepdims=True) for a in keys}

            m = SLHVModel(HiddenVariableSpace(np.full(n, 1.0 / n)),
                          ResponseFunction.from_table(1, tables()),
                          ResponseFunction.from_table(2, tables()))
            query = keys[::-1] + [keys[0], keys[1] + math.pi, keys[2] - math.pi]
            self.assert_stacked(m, query)
            with pytest.raises(ValidationError, match="no entry"):
                m.tables(1, [keys[0], keys[0] + 1e-3])

    def test_one_angle_table_rejected(self):
        t = np.array([[0.5, 0.5, 0.0]])
        m = SLHVModel(HiddenVariableSpace([1.0]),
                      ResponseFunction(1, lambda angles, lam: t),
                      ResponseFunction(2, lambda angles, lam: t))
        with pytest.raises(ValidationError, match=r"shape \(k, n, 3\)"):
            m.tables(1, [0.0, 1.0], validate=False)

    def test_from_table_rejects_one_polarizer_twice(self):
        t = np.array([[1.0, 0.0, 0.0]])
        for twin in (math.pi - 1e-12, 1e-10, -1e-10):
            with pytest.raises(ValidationError, match="same polarizer angle twice"):
                ResponseFunction.from_table(1, {0.0: t, twin: t})
        ResponseFunction.from_table(1, {0.0: t, 1e-8: t})


# SHA-256 of the seeded generators' output: for seeds 0-49 of each generator
# at n_lambda 1-40, both parties' tables at GENERATOR_ANGLES, the weights and
# the next three draws of the generator's rng.
GENERATOR_ANGLES = (-2.5, 0.0, 0.7, 2.9, 4.1)
GENERATOR_DIGEST = "82faa9b437c269fe947caa79095c84fbd39930311e41178892fd045ff19b4ffd"


def test_generator_bits_pinned():
    # Demos, property suites and benchmark inputs all rest on these seeded
    # models; a rewrite of a generator must reproduce them bit for bit.
    digest = hashlib.sha256()
    for gen in (random_angle_independent_model, random_lambda_independent_model,
                random_nondegenerate_model):
        for seed in range(50):
            for n in range(1, 41):
                rng = np.random.default_rng(seed)
                m = gen(rng, n)
                for party in (1, 2):
                    digest.update(m.tables(party, GENERATOR_ANGLES).tobytes())
                digest.update(m.space.weights.tobytes())
                digest.update(rng.random(3).tobytes())
    assert digest.hexdigest() == GENERATOR_DIGEST


@settings(max_examples=200, derandomize=True, database=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_arbitrary_valid_triple_roundtrip(p1, p2, p3):
    total = p1 + p2 + p3
    if total == 0:
        return
    t = np.array([[p1 / total, p2 / total, p3 / total]])
    fn = lambda angles, lam: np.tile(t, (angles.size, 1, 1))  # noqa: E731
    m = SLHVModel(HiddenVariableSpace([1.0]), ResponseFunction(1, fn),
                  ResponseFunction(2, fn))
    trip = m.triples(1, 0.0)[0]
    assert trip[0] + trip[1] + trip[2] == pytest.approx(1.0, abs=1e-9)
