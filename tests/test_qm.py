"""Quantum predictions: joint probabilities, the efficiency-free
coincidence-normalized correlation, and the violation threshold."""

import math

import numpy as np
import pytest

from bellsim import qm
from bellsim.bounds import SettingsQuad, optimal_quad
from bellsim.model import ValidationError
from bellsim.qm import QMModelParams
import reference

SQRT2 = math.sqrt(2.0)


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            QMModelParams(0.0, 1, 1, 1, 0.9)
        with pytest.raises(ValidationError):
            QMModelParams(1, 1, 1, 1.2, 0.9)
        with pytest.raises(ValidationError):
            QMModelParams(1, 1, 1, 1, 1.1)

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5]])
    @pytest.mark.parametrize("field", range(5))
    def test_rejects_non_numbers(self, field, bad):
        values = [0.5, 0.5, 0.5, 0.5, 0.5]
        values[field] = bad
        with pytest.raises(ValidationError, match="must be a real number"):
            QMModelParams(*values)

    def test_fields_are_floats(self):
        p = QMModelParams(1, np.float64(0.5), 1, 1, 1)
        assert all(type(getattr(p, name)) is float
                   for name in ("eta1", "eta2", "f1", "f2", "F"))
        assert (p.eta1, p.eta2, p.F) == (1.0, 0.5, 1.0)

    def test_products(self):
        p = QMModelParams(0.5, 0.8, 0.9, 0.7, 0.95)
        assert p.f12 == pytest.approx(0.63)
        assert p.eta12f12 == pytest.approx(0.5 * 0.8 * 0.63)


class TestJointProbability:
    def test_perfect_aligned_same_outcome(self):
        p = QMModelParams(1, 1, 1, 1, 1)
        assert qm.joint_probability(p, 0.0, 0.0, 1, 1) == pytest.approx(0.5)

    def test_perfect_at_quarter_separation(self):
        p = QMModelParams(1, 1, 1, 1, 1)
        assert qm.joint_probability(p, math.pi / 4, 0.0, 1, 1) == pytest.approx(0.25)

    def test_lossy_example(self):
        p = QMModelParams(0.2, 0.2, 0.5, 1.0, 0.95)
        assert qm.joint_probability(p, 0.0, 0.0, 1, 1) == pytest.approx(
            0.25 * 0.04 * 0.5 * 1.95)

    def test_four_outcomes_sum_to_coincidence_probability(self):
        p = QMModelParams(0.7, 0.6, 0.9, 0.8, 0.95)
        for sep in np.linspace(0, math.pi, 17):
            total = sum(qm.joint_probability(p, sep, 0.0, r, q)
                        for r in (1, -1) for q in (1, -1))
            assert total == pytest.approx(p.eta12f12, abs=1e-14)

    def test_nonnegative_iff_correlation_at_most_one(self):
        p = QMModelParams(1, 1, 1, 1, 1.0)
        for sep in np.linspace(0, math.pi, 181):
            for r in (1, -1):
                for q in (1, -1):
                    assert qm.joint_probability(p, sep, 0.0, r, q) >= -1e-15

    def test_bits_pinned_to_closed_form(self):
        # The probability keeps the bits of the reference's closed form,
        # 0.25 * eta1 eta2 f1 f2 * (1 + r q F cos 2(a - b)).
        rng = np.random.default_rng(7)
        checked = 0
        for k in range(60):
            eta1, eta2, f1, f2 = rng.uniform(0.01, 1.0, size=4)
            F = (0.0, 1.0, rng.random())[k % 3]
            a = rng.uniform(-math.pi, math.pi)
            sep = (0.0, math.pi / 4, math.pi / 2, rng.uniform(-math.pi, math.pi))[k % 4]
            p = QMModelParams(eta1, eta2, f1, f2, F)
            for b in (a - sep, a + sep):
                for r in (1, -1):
                    for q in (1, -1):
                        want = reference.qm_detected(p, a, b, r, q)
                        got = qm.joint_probability(p, a, b, r, q)
                        assert type(got) is float
                        assert got.hex() == want.hex(), (k, a, b, r, q)
                        checked += 1
        assert checked == 480


class TestJointTable:
    """``joint_table``, and the tests' ``reference.qm_joint``, against the
    law derived in sympy from its physical premises: each photon detected
    independently with probability eta_k f_k; both detected, the outcomes
    (r, q) with probability (1 + r q F cos 2(a - b))/4; one detected, its
    outcome is that law's marginal.  Rational parameters make every cell
    exact but the cosine."""

    EPS = 2.0 ** -52

    @staticmethod
    def sympy_law():
        sympy = pytest.importorskip("sympy")
        eta1, eta2, f1, f2, F, c = sympy.symbols("eta1 eta2 f1 f2 F c")
        d1, d2 = eta1 * f1, eta2 * f2
        both = {(r, q): (1 + r * q * F * c) / 4 for r in (1, -1) for q in (1, -1)}
        law = {}
        for r in (1, -1, 0):
            for q in (1, -1, 0):
                if r and q:
                    law[r, q] = d1 * d2 * both[r, q]
                elif r:
                    law[r, q] = d1 * (1 - d2) * sum(both[r, s] for s in (1, -1))
                elif q:
                    law[r, q] = (1 - d1) * d2 * sum(both[s, q] for s in (1, -1))
                else:
                    law[r, q] = (1 - d1) * (1 - d2)
        assert sympy.simplify(sum(law.values()) - 1) == 0
        return sympy, (eta1, eta2, f1, f2, F, c), law

    def test_cells_match_the_sympy_law(self):
        sympy, symbols, law = self.sympy_law()
        R = sympy.Rational
        params = [(R(3, 4), R(1, 2), R(9, 10), R(4, 5), R(19, 20)),
                  (R(1), R(1), R(1), R(1), R(1)),
                  (R(1, 10), R(7, 8), R(1, 4), R(1), R(0)),
                  (R(1, 1000), R(1, 3), R(2, 3), R(5, 7), R(1, 2))]
        turns = [0, R(1, 16), R(1, 12), R(1, 8), R(3, 16), R(1, 4), R(3, 8), R(1, 2)]
        checked = 0
        for values in params:
            p = QMModelParams(*(float(v) for v in values))
            for turn in turns:
                theta = turn * sympy.pi
                table = qm.joint_table(p, float(theta), 0.0)
                assert table.shape == (3, 3) and table.dtype == np.float64
                ref = reference.qm_joint(p, float(theta), 0.0)
                subs = dict(zip(symbols, (*values, sympy.cos(2 * theta))))
                for i, r in enumerate((1, -1, 0)):
                    for j, q in enumerate((1, -1, 0)):
                        exact = sympy.N(law[r, q].subs(subs), 40)
                        # A few rounded products, a rounded cosine and one
                        # rounded sum: a few units in the last place of 1.
                        for got in (table, ref):
                            err = abs(got[i, j] - exact)
                            assert err <= 4 * self.EPS, (values, turn, r, q, err)
                        checked += 1
        assert checked == 4 * 8 * 9

    def test_detected_cells_are_joint_probability_and_sum_is_one(self):
        rng = np.random.default_rng(36)
        for k in range(200):
            eta1, eta2, f1, f2 = (1.0,) * 4 if k % 5 == 0 else rng.uniform(0.01, 1.0, 4)
            p = QMModelParams(eta1, eta2, f1, f2, (0.0, 1.0, rng.random())[k % 3])
            a, b = rng.uniform(-math.pi, math.pi, 2)
            table = qm.joint_table(p, a, b)
            for i, r in enumerate((1, -1)):
                for j, q in enumerate((1, -1)):
                    assert table[i, j].hex() == qm.joint_probability(p, a, b, r, q).hex()
            assert (table >= 0.0).all()
            assert abs(math.fsum(table.ravel().tolist()) - 1.0) <= 4 * self.EPS, (k, table)


class TestCorrelation:
    def test_perfect_aligned(self):
        p = QMModelParams(1, 1, 1, 1, 1)
        assert qm.correlation(p, 0.0, 0.0) == pytest.approx(1.0)

    def test_eighth_turn(self):
        p = QMModelParams(1, 1, 1, 1, 1)
        assert qm.correlation(p, math.pi / 8, 0.0) == pytest.approx(SQRT2 / 2)

    def test_lossy_value(self):
        p = QMModelParams(0.5, 0.5, 0.8, 1.0, 0.95)
        assert qm.correlation(p, 0.0, 0.0) == pytest.approx(0.19)


class TestEffectiveCorrelation:
    def test_bitwise_invariant_under_efficiency_sweep(self):
        a, b = 0.3, 1.1
        ref = qm.effective_correlation(QMModelParams(1, 1, 1, 1, 0.95), a, b)
        for eta in (0.1, 0.35, 0.8):
            for f in (0.25, 0.6, 1.0):
                p = QMModelParams(eta, eta, f, 1.0, 0.95)
                assert qm.effective_correlation(p, a, b) == ref

    def test_agrees_with_ratio_form(self):
        p = QMModelParams(0.4, 0.7, 0.6, 0.9, 0.87)
        for sep in np.linspace(0, math.pi, 13):
            ratio = qm.correlation(p, sep, 0.0) / qm.coincidence_probability(p)
            assert qm.effective_correlation(p, sep, 0.0) == pytest.approx(
                ratio, abs=1e-14)

    def test_values(self):
        p = QMModelParams(1, 1, 1, 1, 0.95)
        assert qm.effective_correlation(p, math.pi / 8, 0.0) == pytest.approx(
            0.95 * SQRT2 / 2)
        assert qm.effective_correlation(p, math.pi / 4, 0.0) == pytest.approx(
            0.0, abs=1e-15)


class TestViolationThreshold:
    def test_maximal_value_at_quarter_phase(self):
        assert qm.violation_lhs(1.0, math.pi / 4) == pytest.approx(2 * SQRT2)

    def test_downconversion_strength_violates(self):
        lhs = qm.violation_lhs(0.95, math.pi / 4)
        assert lhs == pytest.approx(0.95 * 2 * SQRT2)
        assert lhs > 2.0

    def test_threshold_strength_is_boundary(self):
        assert qm.violation_lhs(1 / SQRT2, math.pi / 4) == pytest.approx(
            2.0, abs=1e-12)

    def test_zero_phase_never_violates(self):
        # 3cos(0) - cos(0) = 2: boundary even at F = 1.
        assert qm.violation_lhs(1.0, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("F, phi, match", [
        (True, math.pi / 4, "real number"), ("1", math.pi / 4, "real number"),
        (math.nan, math.pi / 4, "finite"), (1.5, math.pi / 4, r"\[0, 1\]"),
        (1.0, False, "real number"), (1.0, "0.7", "real number"),
        (1.0, math.nan, "finite"), (1.0, math.inf, "finite"),
    ])
    def test_arguments_are_checked(self, F, phi, match):
        with pytest.raises(ValidationError, match=match):
            qm.violation_lhs(F, phi)


class TestEffectiveChsh:
    def test_optimal_quad_reaches_tsirelson_scaling(self):
        for F in (1.0, 0.95, 0.5):
            p = QMModelParams(1, 1, 1, 1, F)
            assert qm.effective_chsh_value(p, optimal_quad()) == pytest.approx(
                2 * SQRT2 * F, abs=1e-12)

    def test_downconversion_value(self):
        p = QMModelParams(0.75, 0.75, 0.9, 0.9, 0.95)
        v = qm.effective_chsh_value(p, optimal_quad())
        assert v == pytest.approx(2.68701, abs=1e-5)
        assert v == pytest.approx(qm.violation_lhs(0.95, math.pi / 4), abs=1e-12)

    def test_bitwise_constant_over_efficiency_sweep(self):
        quad = optimal_quad()
        vals = {qm.effective_chsh_value(QMModelParams(eta, eta, f, 1, 0.95), quad)
                for eta in (0.1, 0.5, 1.0) for f in (0.25, 1.0)}
        assert len(vals) == 1

    def test_matches_plain_chsh_scaled_by_coincidence(self):
        p = QMModelParams(0.6, 0.7, 0.8, 0.9, 0.92)
        quad = SettingsQuad.from_degrees(10, 55, 32.5, 77.5)
        assert qm.chsh_value(p, quad) == pytest.approx(
            p.eta12f12 * qm.effective_chsh_value(p, quad), abs=1e-14)
        assert type(qm.chsh_value(p, quad)) is float
        assert type(qm.effective_chsh_value(p, quad)) is float


class TestEpsilonIdentity:
    def test_rejects_a_non_finite_u_eff(self):
        params = QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="u_eff must be finite"):
                qm.qm_epsilon_identity(params, bad)


class TestUEffCap:
    def test_perfect(self):
        assert qm.u_eff_cap(QMModelParams(1, 1, 1, 1, 0.95)) == 2.0

    def test_lossy(self):
        assert qm.u_eff_cap(QMModelParams(0.2, 0.2, 0.5, 1, 0.95)) == \
            pytest.approx(100.0)

    def test_holds_exactly_when_full_sample_chsh_unviolated(self):
        quad = optimal_quad()
        for eta in (0.1, 0.3, 0.5, 0.75, 1.0):
            for f in (0.25, 0.5, 1.0):
                p = QMModelParams(eta, eta, f, 1, 0.95)
                ueff = abs(qm.effective_chsh_value(p, quad))
                inside = math.sqrt(2) * p.F * p.eta12f12 <= 1.0
                assert qm.u_eff_cap_holds(p) == inside
                if inside:
                    assert ueff <= qm.u_eff_cap(p) + 1e-12
                else:
                    # Ideal-detection QM genuinely breaks the full-sample
                    # CHSH value, so the cap derived from it fails too.
                    assert ueff > qm.u_eff_cap(p)
