"""CHSH quantities: vertex table, U and M, effective correlations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.bounds import (
    EffectiveCorrelationMode,
    SettingsQuad,
    _breach,
    _mode_report,
    _premise_deviations,
    _QuadTables,
    _slack,
    _u_eff,
    chsh_combination,
    chsh_sum,
    chsh_value,
    coincidence_probability,
    coincidence_sum,
    correlation,
    effective_chsh,
    effective_chsh_value,
    effective_chsh_values,
    effective_correlation,
    enumerate_vertices,
    optimal_quad,
    pointwise_bound_check,
    signed_sum,
)
from bellsim.model import (
    AssumptionError,
    DegenerateModelError,
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    ValidationError,
    uniform_lambda_grid,
)
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
    random_nondegenerate_model,
    random_quad,
)

MODE1 = EffectiveCorrelationMode.SOLUTION1
MODE2 = EffectiveCorrelationMode.SOLUTION2
MODE3 = EffectiveCorrelationMode.SOLUTION3
# The CHSH signs of E(a,b) - E(a,b') + E(a',b) + E(a',b'), written here
# independently of bounds.chsh_sum, which the tests check against them.
CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)


def _joint(w: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The 3x3 joint-outcome table t1^T . diag(w) . t2 of one setting pair."""
    return (t1 * w[:, None]).T @ t2


def tabulated_model(weights, triples1, triples2):
    """Angle-blind model from per-point triples (lists of 3-tuples)."""
    space = HiddenVariableSpace(weights)
    t1 = np.asarray(triples1, dtype=float)
    t2 = np.asarray(triples2, dtype=float)
    return SLHVModel(
        space,
        ResponseFunction(1, lambda a, lam: np.tile(t1, (a.size, 1, 1))),
        ResponseFunction(2, lambda a, lam: np.tile(t2, (a.size, 1, 1))),
    )


def sign_model(theta1=0.0, theta2=0.0, n=720):
    """Deterministic sign-of-cosine responder (perfect detection at theta=0)."""
    space = uniform_lambda_grid(n)

    def resp(party, theta):
        def fn(angles, lam):
            c = np.cos(2.0 * (angles[:, None] - lam))
            det = (np.abs(c) >= theta).astype(float)
            return np.stack([det * (c >= 0), det * (c < 0), 1.0 - det], axis=-1)
        return ResponseFunction(party, fn)

    return SLHVModel(space, resp(1, theta1), resp(2, theta2))


class TestChshCombination:
    @settings(derandomize=True, database=None)
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    def test_never_exceeds_two_on_unit_box(self, x, xp, y, yp):
        assert abs(chsh_combination(x, xp, y, yp)) <= 2.0 + 1e-12

    def test_direct_evaluations(self):
        assert chsh_combination(0, 0, 0.4, -0.9) == 0
        assert chsh_combination(1, -1, 1, -1) == 2
        assert chsh_combination(-1, -1, -1, -1) == 2

    def test_exact_for_fractions(self):
        u = chsh_combination(Fraction(1, 3), Fraction(-1, 7),
                             Fraction(2, 5), Fraction(1, 2))
        assert u == Fraction(1, 3) * (Fraction(2, 5) - Fraction(1, 2)) + \
            Fraction(-1, 7) * (Fraction(2, 5) + Fraction(1, 2))


class TestChshSum:
    VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 0.1, math.nan, -math.nan, math.inf, -math.inf)

    @staticmethod
    def assert_same_bits(got, want):
        """Byte for byte, a NaN compared as NaN: which of two NaNs that meet
        survives, with its sign, differs between numpy's loops, numpy's
        scalars and Python floats."""
        got, want = np.asarray(got), np.asarray(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @staticmethod
    def list_sum(row):
        """The reference: Python floats times their signs, summed left to
        right from the integer 0."""
        return sum(sign * v for sign, v in zip(CHSH_SIGNS, row))

    def test_array_path_matches_list_path_bytewise(self):
        # Every row of four from the pool: signed zeros, NaNs of both signs,
        # infinities and sums that cancel to zero, as (4,), (B, 4) and
        # (B, k, 4), and as lists.  The (B, 4) sums also equal, NaN bits
        # included, the signed sum of the four columns in numpy's own loops.
        rows = np.array(list(itertools.product(self.VALUES, repeat=4)))
        want = np.array([self.list_sum(row) for row in rows.tolist()])
        assert want.size == 10 ** 4 and np.any(want == 0.0) and np.any(np.isnan(want))
        with np.errstate(invalid="ignore"):  # inf - inf
            got = chsh_sum(rows)
            signed = sum(sign * v for sign, v in zip(CHSH_SIGNS, np.moveaxis(rows, -1, 0)))
            assert got.tobytes() == signed.tobytes()
            assert chsh_sum(rows.reshape(100, 100, 4)).tobytes() == got.tobytes()
            self.assert_same_bits(got, want)
            self.assert_same_bits([chsh_sum(row) for row in rows], want)
            self.assert_same_bits([chsh_sum(row) for row in rows.tolist()], want)


class TestVertexEnumeration:
    def test_sixteen_rows_at_unit_bounds(self):
        rows = enumerate_vertices(1.0, 1.0)
        assert len(rows) == 16
        assert {r.u_value for r in rows} == {2.0, -2.0}
        assert max(abs(r.u_value) for r in rows) == 2.0
        assert [r.row_index for r in rows] == list(range(1, 17))

    def test_all_sign_patterns_present_once(self):
        rows = enumerate_vertices(0.7, 0.3)
        assert len({r.signs for r in rows}) == 16

    def test_first_row_is_all_negative_and_positive_valued(self):
        rows = enumerate_vertices(1.0, 1.0)
        assert rows[0].signs == (-1, -1, -1, -1)
        assert rows[0].u_value == 2.0

    def test_degenerate_alpha(self):
        assert all(r.u_value == 0.0 for r in enumerate_vertices(0.0, 0.8))

    def test_exact_rational_points(self):
        for alpha, beta in [(Fraction(1), Fraction(1)),
                            (Fraction(3, 5), Fraction(1, 2)),
                            (Fraction(2, 7), Fraction(5, 11))]:
            rows = enumerate_vertices(alpha, beta)
            target = 2 * alpha * beta
            assert {r.u_value for r in rows} <= {target, -target}
            assert max(abs(r.u_value) for r in rows) == target

    def test_against_brute_force_enumeration(self):
        # Independent oracle: evaluate x(y-y') + x'(y+y') over all sign
        # choices directly, without the library combination helper.
        alpha, beta = 0.6, 0.5
        brute = set()
        for sx, sxp, sy, syp in itertools.product((-1, 1), repeat=4):
            x, xp = sx * alpha, sxp * alpha
            y, yp = sy * beta, syp * beta
            brute.add(round(x * (y - yp) + xp * (y + yp), 12))
        rows = enumerate_vertices(alpha, beta)
        assert {round(r.u_value, 12) for r in rows} == brute
        assert max(abs(v) for v in brute) == pytest.approx(0.6, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            enumerate_vertices(1.2, 0.5)
        with pytest.raises(ValidationError):
            enumerate_vertices(0.5, -0.1)


class TestCorrelation:
    def test_perfect_anticorrelation_at_equal_angles(self):
        m = tabulated_model([0.5, 0.5],
                            [(1, 0, 0), (0, 1, 0)],
                            [(0, 1, 0), (1, 0, 0)])
        assert correlation(m, 0.4, 0.4) == -1.0

    def test_two_point_weighted_sum(self):
        # eps1 = (0.8, 0.2), eps2 = (1, -1): E = 0.5*0.8 - 0.5*0.2 = 0.3
        m = tabulated_model([0.5, 0.5],
                            [(0.9, 0.1, 0), (0.6, 0.4, 0)],
                            [(1, 0, 0), (0, 1, 0)])
        assert correlation(m, 0.0, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_magnitude_bounded_by_detection_product(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            m = random_nondegenerate_model(rng, 8)
            a, b = rng.random(2) * math.pi
            e = correlation(m, a, b)
            t1, t2 = m.triples(1, a), m.triples(2, b)
            cap = float(np.sum(m.space.weights *
                               (t1[:, 0] + t1[:, 1]) * (t2[:, 0] + t2[:, 1])))
            assert abs(e) <= cap + 1e-12


class TestQuadTables:
    def test_joints_formed_on_first_use(self):
        # Solution3 reads only the response tables; the both-detected block,
        # E and the coincidence probabilities are formed when a mode needs
        # them, and no mode forms the full joint tables.
        m = random_nondegenerate_model(np.random.default_rng(101), 16)
        q = _QuadTables(m, optimal_quad())
        _u_eff(q, MODE3)
        assert not {"joints", "detected", "e", "coin"} & set(vars(q))
        _u_eff(q, MODE1)
        assert {"detected", "e", "coin"} <= set(vars(q))
        assert "joints" not in vars(q)

    @staticmethod
    def assert_block_matches_joints(q):
        assert q.detected.tobytes() == q.joints[..., :2, :2].tobytes()
        assert q.e.tobytes() == signed_sum(q.joints).tobytes()
        assert q.coin.tobytes() == coincidence_sum(q.joints).tobytes()

    def test_detected_block_matches_joints_bitwise(self):
        # E and the coincidence probability read a product over the two
        # detected columns alone; its dot products are the joint tables'.
        rng = np.random.default_rng(109)
        generators = (random_angle_independent_model, random_lambda_independent_model,
                      random_nondegenerate_model)
        for n in (1, 2, 7, 90, 720, 5000):
            for gen in generators:
                m = gen(rng, n)
                for b in (1, 2, 60):
                    self.assert_block_matches_joints(
                        _QuadTables(m, *(random_quad(rng) for _ in range(b))))
            for b in (1, 3, 60):
                for kind in ("random", "0/1", "negative"):
                    t = rng.random((b, 2, 2, n, 3))
                    if kind == "0/1":
                        t = np.round(t)
                    elif kind == "negative":
                        t -= 1e-13 * rng.random(t.shape)
                    for w in (rng.random((1, n)), rng.random((b, n))):
                        self.assert_block_matches_joints(_QuadTables.from_tables(w / n, t))

    def test_stacked_joints_match_per_pair_products_bitwise(self):
        # _QuadTables forms all four joint tables in one stacked matmul;
        # _joint is the per-pair reference, and they must agree to the bit.
        rng = np.random.default_rng(107)
        generators = (random_angle_independent_model, random_lambda_independent_model,
                      random_nondegenerate_model)
        for n in (1, 2, 7, 64, 720, 5000):
            for gen in generators:
                m = gen(rng, n)
                q = random_quad(rng)
                for quad in (q, SettingsQuad(q.a, q.a, q.b, q.b_prime),
                             SettingsQuad(q.a, q.a, q.b, q.b)):
                    tables = _QuadTables(m, quad)
                    for k, (_label, a, b) in enumerate(quad.pairs()):
                        t1, t2 = m.triples(1, a), m.triples(2, b)
                        assert np.array_equal(tables.t[0, 0, k // 2], t1)
                        assert np.array_equal(tables.t[0, 1, k % 2], t2)
                        assert np.array_equal(tables.joints[0, k],
                                              _joint(m.space.weights, t1, t2))


class TestBatchAxis:
    """A batch of sources in one ``_QuadTables`` gives each row the bits of
    that source as a batch of one, and the breach check reads each row's
    premise without building a report."""

    GENERATORS = ((random_angle_independent_model, MODE1),
                  (random_lambda_independent_model, MODE2),
                  (random_nondegenerate_model, MODE3))

    @staticmethod
    def stacked(singles):
        w = np.concatenate([q.w for q in singles])
        if all(np.array_equal(q.w, singles[0].w) for q in singles):
            w = singles[0].w
        return _QuadTables.from_tables(w, np.concatenate([q.t for q in singles]))

    def batches(self, rng):
        """Batches of single models at one quad: random models of one size
        (each with its own weights), the sign model on one grid, and models
        whose premises fail."""
        for n in (1, 5, 90):
            quad = random_quad(rng)
            models = [gen(rng, n) for gen, _mode in self.GENERATORS for _ in range(3)]
            yield [_QuadTables(m, quad) for m in models]
        quad = optimal_quad()
        yield [_QuadTables(sign_model(t1, t2, n=90), quad)
               for t1, t2 in ((0.0, 0.0), (0.9, 0.2), (0.999, 0.999), (0.5, 0.0))]

    def test_rows_match_batches_of_one(self):
        rng = np.random.default_rng(211)
        for singles in self.batches(rng):
            q = self.stacked(singles)
            assert len(q) == len(singles)
            for name in ("joints", "e", "coin", "detection"):
                assert getattr(q, name).tobytes() == np.concatenate(
                    [getattr(s, name) for s in singles]).tobytes(), name
            for mode in EffectiveCorrelationMode:
                value, dead = q.e_eff(mode)
                rows = [s.e_eff(mode) for s in singles]
                assert value.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
                assert np.array_equal(dead, np.concatenate([r[1] for r in rows]))

    def test_breach_check_reads_each_rows_premise(self):
        rng = np.random.default_rng(223)
        for singles in self.batches(rng):
            q = self.stacked(singles)
            for mode in EffectiveCorrelationMode:
                reports = [_mode_report(s, mode) for s in singles]
                rows = np.ones(len(q), dtype=bool)
                assert _premise_deviations(q, mode, rows) == [
                    r.max_deviation if r.passed else None for r in reports]
                slack = _slack(q, mode)
                for b, (s, r) in enumerate(zip(singles, reports)):
                    want = _slack(s, mode)
                    assert slack[b:b + 1].tobytes() == want.tobytes()
                    assert math.isnan(want[0]) != r.passed
                # An excess at the cap plus BOUND_TOL is no breach, and one
                # just past it is, on exactly the rows whose premise holds.
                at_cap = np.where(np.isnan(slack), 5.0, slack + 1e-12)
                assert not _breach(q, mode, at_cap).any()
                assert np.array_equal(_breach(q, mode, np.nextafter(at_cap, 9.0) + 1e-9),
                                      ~np.isnan(slack))

    def test_caps_only_for_rows_past_the_tolerance(self):
        singles = [_QuadTables(sign_model(t, 0.0, n=90), optimal_quad())
                   for t in (0.0, 0.0, 0.0)]
        q = self.stacked(singles)
        rows = np.array([True, False, True])
        slack = _slack(q, MODE1, rows=rows)
        assert np.isnan(slack[1]) and not np.isnan(slack[[0, 2]]).any()


class TestEffectiveChshValues:
    """``effective_chsh_values`` is ``effective_chsh_value`` at each quad,
    bit for bit, from one response call per party."""

    def test_matches_per_quad_values_bitwise(self):
        from bellsim.adversary import get_family

        rng = np.random.default_rng(227)
        models = [(gen(rng, n), mode) for n in (1, 4, 47, 720)
                  for gen, mode in TestBatchAxis.GENERATORS]
        models += [(get_family("modulated-p0").instantiate([0.3, 0.2, 2.5], 90), mode)
                   for mode in EffectiveCorrelationMode]
        models += [(tabulated_model([0.25, 0.75], [(0.5, 0.3, 0.2), (0.1, 0.8, 0.1)],
                                    [(0.6, 0.2, 0.2), (0.3, 0.3, 0.4)]), MODE1)]
        for model, mode in models:
            quads = [random_quad(rng) for _ in range(7)] + [optimal_quad()]
            quads.append(SettingsQuad(quads[0].a, quads[0].a, quads[0].b, quads[0].b))
            want = [effective_chsh_value(model, quad, mode) for quad in quads]
            got = effective_chsh_values(model, quads, mode)
            assert got.shape == (len(quads),)
            assert got.tobytes() == np.array(want).tobytes()
            assert effective_chsh_values(model, quads, mode, validate=False).tobytes() \
                == got.tobytes()

    def test_one_response_call_per_party(self):
        calls = []
        m = random_nondegenerate_model(np.random.default_rng(229), 8)
        quads = [random_quad(np.random.default_rng(k)) for k in range(5)]
        for party in (1, 2):
            response = (m.response1, m.response2)[party - 1]
            fn = response._fn
            response._fn = lambda a, v, fn=fn, party=party: calls.append((party, a.size)) \
                or fn(a, v)
        effective_chsh_values(m, quads, MODE3)
        assert calls == [(1, 10), (2, 10)]

    def test_degenerate_quad_raises(self):
        m = sign_model(0.999, 0.999, n=90)
        with pytest.raises(DegenerateModelError, match="pair"):
            effective_chsh_values(m, [random_quad(np.random.default_rng(3)), optimal_quad()],
                                  MODE1)


class TestEvaluationForms:
    """The joint tables and the solution1 E_eff equal, bit for bit, the
    forms they replaced: the weights applied to t1 in its (n, 3) layout,
    and the masked division."""

    SIZES = (1, 90, 97, 720)

    @staticmethod
    def quads(rng):
        q = random_quad(rng)
        return (optimal_quad(), q, SettingsQuad(q.a, q.a, q.b, q.b_prime))

    @staticmethod
    def assert_old_forms(q):
        (t1, t2), w, e, coin = q.t[0], q.w[0], q.e[0], q.coin[0]
        joints = ((t1 * w[:, None]).transpose(0, 2, 1)[:, None]
                  @ t2[None]).reshape(4, 3, 3)
        assert q.joints[0].tobytes() == joints.tobytes()
        masked = np.divide(e, coin, out=np.full(4, np.nan), where=~(coin <= 0.0))
        assert q.e_eff(MODE1)[0][0].tobytes() == masked.tobytes()

    def test_generators(self):
        rng = np.random.default_rng(113)
        for n in self.SIZES:
            for gen in (random_angle_independent_model, random_lambda_independent_model,
                        random_nondegenerate_model):
                for _ in range(3):
                    m = gen(rng, n)
                    for quad in self.quads(rng):
                        self.assert_old_forms(_QuadTables(m, quad))

    def test_families(self):
        from bellsim.adversary import get_family

        rng = np.random.default_rng(127)
        threshold, modulated = get_family("threshold-detection"), get_family("modulated-p0")
        dead = 0
        for n in self.SIZES:
            for _ in range(4):
                models = (threshold.instantiate(rng.random(2) * 0.999, n),
                          modulated.instantiate([rng.random() * 0.9, rng.uniform(-0.5, 0.5),
                                                 rng.uniform(0.25, 4.0)], n),
                          modulated.instantiate([rng.random() * 0.9, 0.0, 1.0], n))
                for m in models:
                    for quad in self.quads(rng):
                        q = _QuadTables(m, quad, validate=False)
                        self.assert_old_forms(q)
                        dead += bool(np.any(q.coin <= 0.0))
        assert dead  # the masked path runs too


def _per_point_reference(model, a, b):
    """E, coincidence probability and E_eff per mode at one setting pair,
    summed in pure Python over the hidden points, from the rows of one
    ``triples`` call per party: local average p+ - p-, detection
    probability p+ + p- and detected-subset average (p+ - p-) / (p+ + p-)."""
    e = coin = det1 = det2 = subset = 0.0
    rows = zip(model.space.weights.tolist(), model.triples(1, a).tolist(),
               model.triples(2, b).tolist())
    for w, (p1, m1, _), (p2, m2, _) in rows:
        x, y = p1 - m1, p2 - m2
        al, be = p1 + m1, p2 + m2
        e += w * x * y
        coin += w * al * be
        det1 += w * al
        det2 += w * be
        subset += w * (x / al) * (y / be)
    return e, coin, {MODE1: e / coin, MODE2: e / (det1 * det2), MODE3: subset}


class TestPerPointReference:
    def test_report_matches_scalar_sums(self):
        # A second evaluation of every per-pair value that shares no code
        # with the stacked tables in bounds.
        rng = np.random.default_rng(211)
        generators = (random_angle_independent_model, random_lambda_independent_model,
                      random_nondegenerate_model)
        for n in (1, 2, 5, 16, 90, 720):
            for gen in generators:
                for _ in range(4):
                    m, quad = gen(rng, n), random_quad(rng)
                    pairs = (("ab", quad.a, quad.b), ("ab'", quad.a, quad.b_prime),
                             ("a'b", quad.a_prime, quad.b),
                             ("a'b'", quad.a_prime, quad.b_prime))
                    ref = {label: _per_point_reference(m, a, b) for label, a, b in pairs}
                    for mode in (MODE1, MODE2, MODE3):
                        rep = effective_chsh(m, quad, mode)
                        for label, (e, coin, e_eff) in ref.items():
                            assert rep.e[label] == pytest.approx(e, abs=1e-12)
                            assert rep.coincidence[label] == pytest.approx(coin, abs=1e-12)
                            assert rep.e_eff[label] == pytest.approx(e_eff[mode], abs=1e-12)
                        u_eff = sum(sign * ref[label][2][mode] for label, sign in
                                    (("ab", 1), ("ab'", -1), ("a'b", 1), ("a'b'", 1)))
                        assert rep.u_eff == pytest.approx(u_eff, abs=1e-12)


class TestCoincidenceProbability:
    def test_perfect_model(self):
        m = tabulated_model([1.0], [(0.5, 0.5, 0)], [(0.5, 0.5, 0)])
        assert coincidence_probability(m, 0.0, 1.0) == 1.0

    def test_constant_detection_levels(self):
        m = tabulated_model([1.0], [(0.3, 0.3, 0.4)], [(0.25, 0.25, 0.5)])
        assert coincidence_probability(m, 0.2, 0.9) == pytest.approx(0.30, abs=1e-15)

    def test_setting_independent_for_angle_independent_models(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            m = random_angle_independent_model(rng, 8)
            pairs = rng.random((5, 2)) * math.pi
            vals = [coincidence_probability(m, a, b) for a, b in pairs]
            assert max(vals) - min(vals) <= 1e-12


class TestPointwiseBound:
    def test_holds_on_random_angle_independent_models(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            m = random_angle_independent_model(rng, 8)
            rep = pointwise_bound_check(m, random_quad(rng))
            assert rep.passed, rep

    def test_saturated_by_deterministic_perfect_model(self):
        rep = pointwise_bound_check(sign_model(), optimal_quad())
        assert rep.passed
        assert rep.max_slack <= 1e-12

    def test_refuses_angle_dependent_nondetection(self):
        m = sign_model(theta1=0.6, theta2=0.6)
        with pytest.raises(AssumptionError):
            pointwise_bound_check(m, optimal_quad())


class TestChshValue:
    def test_zero_detection_model(self):
        m = tabulated_model([1.0], [(0, 0, 1)], [(0, 0, 1)])
        res = chsh_value(m, optimal_quad())
        assert res.u == 0.0 and res.m == 0.0

    def test_deterministic_model_saturates_exactly(self):
        res = chsh_value(sign_model(), optimal_quad())
        assert res.u == pytest.approx(2.0, abs=1e-12)
        assert res.m == pytest.approx(2.0, abs=1e-12)

    def test_u_bounded_by_m_for_angle_independent_models(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            m = random_angle_independent_model(rng, 8)
            res = chsh_value(m, random_quad(rng))
            assert abs(res.u) <= res.m + 1e-12
            assert abs(res.u) <= 2.0 + 1e-12

    def test_u_bounded_by_two_for_any_model(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            m = random_nondegenerate_model(rng, 8)
            res = chsh_value(m, random_quad(rng))
            assert abs(res.u) <= 2.0 + 1e-12


class TestEffectiveCorrelation:
    def test_all_modes_equal_plain_correlation_without_loss(self):
        rng = np.random.default_rng(127)
        space = HiddenVariableSpace(np.full(8, 1 / 8))
        m_arr = rng.uniform(-1, 1, 8)
        psi = rng.random(8) * math.pi

        def fn(angles, lam):
            share = 0.5 * (1 + m_arr * np.cos(2 * (angles[:, None] - psi)))
            return np.stack([share, 1 - share, np.zeros_like(share)], axis=-1)

        m = SLHVModel(space, ResponseFunction(1, fn),
                      ResponseFunction(2, fn))
        e = correlation(m, 0.3, 0.8)
        for mode in (MODE1, MODE2, MODE3):
            assert effective_correlation(m, 0.3, 0.8, mode) == pytest.approx(
                e, abs=1e-12)

    def test_modes_one_and_two_agree_under_constant_losses(self):
        m = tabulated_model([0.25, 0.75],
                            [(0.8 * 0.8, 0.8 * 0.2, 1 - 0.8), (0.8 * 0.3, 0.8 * 0.7, 0.2)],
                            [(0.6 * 0.9, 0.6 * 0.1, 0.4), (0.6 * 0.4, 0.6 * 0.6, 0.4)])
        v1 = effective_correlation(m, 0.1, 0.2, MODE1)
        v2 = effective_correlation(m, 0.1, 0.2, MODE2)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_bounded_by_one_in_every_mode(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            m = random_nondegenerate_model(rng, 8)
            a, b = rng.random(2) * math.pi
            for mode in (MODE1, MODE3):
                assert abs(effective_correlation(m, a, b, mode)) <= 1.0 + 1e-12
        for _ in range(100):
            m = random_lambda_independent_model(rng, 8)
            a, b = rng.random(2) * math.pi
            assert abs(effective_correlation(m, a, b, MODE2)) <= 1.0 + 1e-12
        # Entries down to -NORMALIZATION_TOL: the subset average reads 2e-12/2e-12.
        m = tabulated_model([1.0], [(2e-12, -1e-12, 1 - 1e-12)], [(1.0, 0.0, 0.0)])
        assert effective_correlation(m, 0.0, 0.0, MODE3) == 1.0

    def test_degenerate_coincidence_raises(self):
        m = tabulated_model([1.0], [(0, 0, 1)], [(0.5, 0.5, 0)])
        with pytest.raises(DegenerateModelError):
            effective_correlation(m, 0.0, 0.0, MODE1)

    def test_dead_point_raises_in_subset_mode(self):
        m = tabulated_model([0.5, 0.5],
                            [(0.5, 0.5, 0), (0, 0, 1)],
                            [(0.5, 0.5, 0), (0.5, 0.5, 0)])
        with pytest.raises(DegenerateModelError):
            effective_correlation(m, 0.0, 0.0, MODE3)

    def test_strict_mode_two_rejects_lambda_dependent_losses(self):
        m = tabulated_model([0.5, 0.5],
                            [(0.4, 0.4, 0.2), (0.35, 0.35, 0.3)],
                            [(0.5, 0.5, 0), (0.5, 0.5, 0)])
        with pytest.raises(AssumptionError, match="validate_solution2"):
            effective_correlation(m, 0.0, 0.0, MODE2)
        # The full report still gives the violating model its value.
        rep = effective_chsh(m, SettingsQuad(0.0, 0.0, 0.0, 0.0), MODE2)
        assert math.isfinite(rep.e_eff["ab"])
        assert not rep.bound_guaranteed


class TestEffectiveChsh:
    def test_equals_plain_chsh_without_loss(self):
        m = sign_model()
        quad = optimal_quad()
        res = chsh_value(m, quad)
        for mode in (MODE1, MODE2, MODE3):
            assert effective_chsh_value(m, quad, mode) == pytest.approx(
                res.u, abs=1e-12)

    def test_three_modes_agree_under_fully_constant_losses(self):
        rng = np.random.default_rng(137)
        space = HiddenVariableSpace(np.full(16, 1 / 16))
        m_arr = rng.choice([-1.0, 1.0], 16)
        psi = rng.random(16) * math.pi

        def make(party, eta):
            def fn(angles, lam):
                share = 0.5 * (1 + m_arr * np.cos(2 * (angles[:, None] - psi)))
                return np.stack([eta * share, eta * (1 - share),
                                 np.full_like(share, 1 - eta)], axis=-1)
            return ResponseFunction(party, fn)

        m = SLHVModel(space, make(1, 0.8), make(2, 0.6))
        quad = random_quad(rng)
        vals = [effective_chsh_value(m, quad, mode) for mode in (MODE1, MODE2, MODE3)]
        assert max(vals) - min(vals) <= 1e-10

    def test_report_for_compliant_model(self):
        rng = np.random.default_rng(139)
        m = random_angle_independent_model(rng, 12)
        rep = effective_chsh(m, optimal_quad(), MODE1)
        assert rep.bound_guaranteed
        assert not rep.theorem_breach
        assert rep.verdicts["abs_u_eff_le_2"]
        assert rep.pointwise is not None and rep.pointwise.passed
        # Verdicts recomputable from stored values.
        assert rep.verdicts["abs_u_le_2"] == (abs(rep.u) <= 2.0 + 1e-12)
        assert rep.verdicts["abs_u_le_m"] == (abs(rep.u) <= rep.m + 1e-12)
        combo = rep.e_eff["ab"] - rep.e_eff["ab'"] + rep.e_eff["a'b"] + rep.e_eff["a'b'"]
        assert rep.u_eff == pytest.approx(combo, abs=1e-12)
        # The sums are Python floats and the verdicts Python bools, not numpy
        # scalars, so the report serializes as it reads.
        assert all(type(x) is float for x in (rep.u, rep.m, rep.u_eff))
        assert all(type(v) is bool for v in rep.verdicts.values())

    def test_report_flags_assumption_violating_model(self):
        m = sign_model(theta1=0.7, theta2=0.7)
        rep = effective_chsh(m, optimal_quad(), MODE1)
        assert not rep.bound_guaranteed
        assert not rep.verdicts["assumptions_passed"]
        assert abs(rep.u_eff) > 2.0
        # Not a theorem breach: the bound was never guaranteed here.
        assert not rep.theorem_breach
        assert rep.verdicts["abs_u_le_2"]
        worst = rep.to_json_dict()["assumptions"]["worst"]
        party, lam, angles = rep.assumption_report.worst
        assert worst == {"party": party, "lambda_index": lam,
                         "angles_degrees": [math.degrees(a) for a in angles]}
        assert party in (1, 2) and 0 <= lam < 720

    @pytest.mark.parametrize("mode", [MODE1, MODE2, MODE3])
    def test_degenerate_pair_report(self, mode):
        # Party 1 is never detected at a, detected at every point at a'.
        quad = optimal_quad()
        never, always = [(0.0, 0.0, 1.0)] * 2, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
        model = SLHVModel(
            HiddenVariableSpace([0.5, 0.5]),
            ResponseFunction.from_table(1, {quad.a: never, quad.a_prime: always}),
            ResponseFunction.from_table(2, {quad.b: always, quad.b_prime: always}))
        rep = effective_chsh(model, quad, mode)
        assert rep.to_json_dict()["U_eff"] is None
        assert rep.verdicts["abs_u_eff_le_2"] is False
        assert rep.theorem_breach is False
        if mode is MODE2:
            # Non-detection is constant over lambda, so the validator passes,
            # but a never-detected party leaves the bound unguaranteed.
            assert rep.assumption_report.passed
            assert rep.verdicts["assumptions_passed"]
            assert rep.bound_guaranteed is False

    def test_json_serialization(self):
        rng = np.random.default_rng(149)
        m = random_lambda_independent_model(rng, 8)
        rep = effective_chsh(m, optimal_quad(), MODE2)
        doc = rep.to_json_dict(verbosity=2)
        assert doc["mode"] == "solution2"
        assert set(doc["per_pair"]) == {"ab", "ab'", "a'b", "a'b'"}
        assert "per_lambda_extremes" in doc
        assert "implied_p0" in doc["assumptions"]


class TestSettingsQuad:
    def test_degree_round_trip(self):
        q = SettingsQuad.from_degrees(0, 45, 22.5, 67.5)
        assert q.to_degrees() == pytest.approx((0, 45, 22.5, 67.5))

    @pytest.mark.parametrize("build", [
        lambda: SettingsQuad("0", 0, 0, 0),
        lambda: SettingsQuad(0, True, 0.3, 0.4),
        lambda: SettingsQuad.from_degrees(0, 45, "22.5", 67.5),
    ], ids=["string", "bool", "string-degrees"])
    def test_rejects_non_real_angles(self, build):
        with pytest.raises(ValidationError, match="angle must be a real number"):
            build()

    def test_canonicalizes(self):
        q = SettingsQuad(math.pi + 0.1, -0.2, 0.0, 2 * math.pi)
        assert 0 <= q.a < math.pi
        assert 0 <= q.a_prime < math.pi
        assert q.b_prime == 0.0

    def test_pair_order(self):
        q = SettingsQuad(0.1, 0.2, 0.3, 0.4)
        labels, angles1, angles2 = zip(*q.pairs())
        assert labels == ("ab", "ab'", "a'b", "a'b'")
        assert list(zip(angles1, angles2)) == [(q.a, q.b), (q.a, q.b_prime),
                                               (q.a_prime, q.b), (q.a_prime, q.b_prime)]
