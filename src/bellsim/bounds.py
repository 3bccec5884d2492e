"""Exact CHSH-type quantities for discrete SLHV models.

Everything here is a finite weighted sum over the hidden-variable
points; no sampling.  A quad evaluates each party's two response
tables in one call and forms the four setting pairs' 3x3 joint-outcome tables
``t1^T . diag(w) . t2`` in one stacked product.  Every per-pair value
is then a (4,) vector in PAIR_LABELS order: ``signed_sum`` gives E,
``coincidence_sum`` the coincidence probability (the estimator applies
both to count tables), and each mode its E_eff, NaN where the pair is
degenerate.  The central objects:

* ``u = x(y - y') + x'(y + y')``, the CHSH combination of the four
  single-party averages at one hidden point.  On the box
  ``|x|, |x'| <= alpha``, ``|y|, |y'| <= beta`` its extreme values sit at
  the 16 sign vertices and equal +-2*alpha*beta.
* ``U``, the same combination of the full correlations
  ``E(a, b) = sum_i rho_i eps1(a, i) eps2(b, i)``; bounded by
  ``M = 2 * (coincidence probability)`` when non-detection is
  angle-independent, and by 2 for every SLHV model.
* ``U_eff``, the combination of coincidence-normalized correlations.
  Three assumption regimes make ``|U_eff| <= 2`` provable; the mode enum
  selects which hidden-level expression is used:

  - ``SOLUTION1``: divide each E by that pair's coincidence probability
    (valid when non-detection is angle-independent at the hidden level);
  - ``SOLUTION2``: divide E by the product of per-party experimental
    detection probabilities (valid when non-detection is constant across
    the hidden variable);
  - ``SOLUTION3``: average the product of detected-subset single-party
    averages directly (valid for any model without dead points).

All three agree with plain E in the ideal (no-loss) limit, and with one
another whenever non-detection is constant in both angle and lambda.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    AssumptionError,
    AssumptionReport,
    DegenerateModelError,
    SLHVModel,
    TheoremViolationError,
    ValidationError,
    _solution1_report,
    _solution2_report,
    _solution3_report,
    canonical_angle,
)

__all__ = [
    "BOUND_TOL",
    "PAIR_LABELS",
    "PAIR_SIGNS",
    "chsh_sum",
    "SettingsQuad",
    "EffectiveCorrelationMode",
    "chsh_combination",
    "VertexRow",
    "enumerate_vertices",
    "signed_sum",
    "coincidence_sum",
    "correlation",
    "coincidence_probability",
    "pointwise_bound_check",
    "PointwiseBoundReport",
    "ChshValues",
    "chsh_value",
    "effective_correlation",
    "effective_chsh_value",
    "InequalityReport",
    "effective_chsh",
]

# Additive tolerance on inequality verdicts computed from exact sums.
BOUND_TOL = 1e-12

# The four setting pairs of a CHSH run, with the sign each correlation
# carries in the combination: E(a,b) - E(a,b') + E(a',b) + E(a',b').
PAIR_LABELS = ("ab", "ab'", "a'b", "a'b'")
PAIR_SIGNS = (1.0, -1.0, 1.0, 1.0)


def chsh_sum(values) -> float:
    """v(ab) - v(ab') + v(a'b) + v(a'b') of per-pair values in PAIR_LABELS
    order, summed left to right: U, U_eff and eps_total for every source."""
    return sum(sign * v for sign, v in zip(PAIR_SIGNS, values))


@dataclass(frozen=True)
class SettingsQuad:
    """The four analyzer angles (a, a', b, b') of a CHSH run, radians."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, canonical_angle(getattr(self, name)))

    @classmethod
    def from_degrees(cls, a, a_prime, b, b_prime) -> "SettingsQuad":
        return cls(*(math.radians(float(x)) for x in (a, a_prime, b, b_prime)))

    def to_degrees(self) -> tuple[float, float, float, float]:
        return tuple(math.degrees(x) for x in
                     (self.a, self.a_prime, self.b, self.b_prime))

    def pairs(self) -> tuple[tuple[str, float, float, float], ...]:
        """(label, angle1, angle2, sign) for the four setting pairs, in order."""
        return tuple(zip(PAIR_LABELS,
                         (self.a, self.a, self.a_prime, self.a_prime),
                         (self.b, self.b_prime, self.b, self.b_prime),
                         PAIR_SIGNS))

    def party1_angles(self) -> tuple[float, float]:
        return (self.a, self.a_prime)

    def party2_angles(self) -> tuple[float, float]:
        return (self.b, self.b_prime)


def optimal_quad() -> SettingsQuad:
    """The quad with adjacent separations pi/8, maximizing the quantum value."""
    return SettingsQuad(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


class EffectiveCorrelationMode(enum.Enum):
    """Which assumption regime backs the coincidence-normalized correlation."""

    SOLUTION1 = "solution1"
    SOLUTION2 = "solution2"
    SOLUTION3 = "solution3"

    @classmethod
    def from_string(cls, s: str) -> "EffectiveCorrelationMode":
        try:
            return cls(s.lower())
        except ValueError:
            raise ValidationError(
                f"unknown mode {s!r}; expected one of "
                f"{[m.value for m in cls]}") from None


def chsh_combination(x, x_prime, y, y_prime):
    """The CHSH combination x(y - y') + x'(y + y') of four averages.

    Pure Python arithmetic so exact number types (fractions.Fraction)
    pass through unchanged.
    """
    return x * (y - y_prime) + x_prime * (y + y_prime)


@dataclass(frozen=True)
class VertexRow:
    """One sign vertex of the box |x| <= alpha, ... and its u value."""

    row_index: int
    signs: tuple[int, int, int, int]
    x: object
    x_prime: object
    y: object
    y_prime: object
    u_value: object


# Sign vertices ordered by number of sign flips from the all-negative
# corner, ties in variable order (x, x', y, y').
_VERTEX_SIGNS = (
    (-1, -1, -1, -1),
    (+1, -1, -1, -1), (-1, +1, -1, -1), (-1, -1, +1, -1), (-1, -1, -1, +1),
    (+1, +1, -1, -1), (+1, -1, +1, -1), (+1, -1, -1, +1),
    (-1, +1, +1, -1), (-1, +1, -1, +1), (-1, -1, +1, +1),
    (+1, +1, +1, -1), (+1, +1, -1, +1), (+1, -1, +1, +1), (-1, +1, +1, +1),
    (+1, +1, +1, +1),
)


def enumerate_vertices(alpha, beta) -> list[VertexRow]:
    """All 16 sign vertices of u with equal per-party detection bounds.

    With |x|, |x'| capped by the same alpha and |y|, |y'| by the same
    beta, every vertex evaluates to +2*alpha*beta or -2*alpha*beta, so
    the linear function u is confined to [-2*alpha*beta, 2*alpha*beta].
    Exact for rational inputs (fractions.Fraction supported).
    """
    if not (0 <= alpha <= 1) or not (0 <= beta <= 1):
        raise ValidationError(
            f"detection bounds must lie in [0, 1], got alpha={alpha!r}, beta={beta!r}")
    rows = []
    for i, (sx, sxp, sy, syp) in enumerate(_VERTEX_SIGNS, start=1):
        x, xp = sx * alpha, sxp * alpha
        y, yp = sy * beta, syp * beta
        rows.append(VertexRow(row_index=i, signs=(sx, sxp, sy, syp),
                              x=x, x_prime=xp, y=y, y_prime=yp,
                              u_value=chsh_combination(x, xp, y, yp)))
    return rows


def signed_sum(table):
    """Sum of r*q*table[..., r, q] over 3x3 joint tables: E of probability
    tables, the exact signed coincidence count of integer count tables."""
    return table[..., 0, 0] - table[..., 0, 1] - table[..., 1, 0] + table[..., 1, 1]


def coincidence_sum(table):
    """Mass of the four both-detected cells of 3x3 joint tables."""
    return table[..., 0, 0] + table[..., 0, 1] + table[..., 1, 0] + table[..., 1, 1]


class _QuadTables:
    """A model at a quad: one response call per party, over its two angles.

    ``t1`` and ``t2`` are the two parties' (2, n, 3) tables as their
    response calls returned them, and ``t`` stacks them as (party, angle,
    n, 3) on first use.  Per-pair values are (4,) arrays in PAIR_LABELS
    order, the (a, a') x (b, b') grid flattened: ``e`` and ``coin`` of the
    four ``joints``, formed on first use, and ``e_eff(mode)``.
    """

    def __init__(self, model: SLHVModel, quad: SettingsQuad, validate: bool = True):
        self.w = model.space.weights
        self.angles = (quad.party1_angles(), quad.party2_angles())
        self.t1, self.t2 = (model.tables(party, angles, validate)
                            for party, angles in enumerate(self.angles, start=1))

    @cached_property
    def t(self) -> np.ndarray:
        return np.stack([self.t1, self.t2])

    @cached_property
    def joints(self) -> np.ndarray:
        """The four joint-outcome tables t1^T . diag(w) . t2 in one matmul,
        (2, 1, 3, n) @ (1, 2, n, 3).  The weights scale t1 in its transposed
        (outcome, lambda) layout, a long inner loop over lambda."""
        return ((self.t1.transpose(0, 2, 1) * self.w)[:, None]
                @ self.t2[None]).reshape(4, 3, 3)

    @cached_property
    def e(self) -> np.ndarray:
        return signed_sum(self.joints)

    @cached_property
    def coin(self) -> np.ndarray:
        return coincidence_sum(self.joints)

    def e_eff(self, mode: EffectiveCorrelationMode) -> tuple[np.ndarray, str | None]:
        """The four coincidence-normalized correlations, NaN at a degenerate
        pair, and why the first degenerate pair is one (None if none is).

        A pair is degenerate when its coincidence probability (solution1),
        a party's detection probability at its setting (solution2) or at
        some hidden point (solution3) is not positive.
        """
        if mode is EffectiveCorrelationMode.SOLUTION1:
            dead = self.coin <= 0.0
            if not dead.any():
                return self.e / self.coin, None
            value = np.divide(self.e, self.coin, out=np.full(4, np.nan), where=~dead)
            why = "zero coincidence probability"
        elif mode is EffectiveCorrelationMode.SOLUTION2:
            t = self.t
            d = 1.0 - np.sum(self.w * t[..., 2], axis=2)
            dead_at = d <= 0.0
            dead = (dead_at[0, :, None] | dead_at[1]).ravel()
            value = np.divide(self.e, (d[0, :, None] * d[1]).ravel(),
                              out=np.full(4, np.nan), where=~dead)
            why = "is never detected at its setting"
        elif mode is EffectiveCorrelationMode.SOLUTION3:
            t = self.t
            al = t[..., 0] + t[..., 1]
            dead_at = np.any(al <= 0.0, axis=2)
            dead = (dead_at[0, :, None] | dead_at[1]).ravel()
            # A dead (party, angle) row stays NaN, and so do its pairs' sums.
            eff = np.divide(t[..., 0] - t[..., 1], al, out=np.full_like(al, np.nan),
                            where=~dead_at[..., None])
            value = np.sum(self.w * eff[0, :, None] * eff[1], axis=2).ravel()
            why = "has a hidden point with zero detection probability"
        else:
            raise ValidationError(f"unknown mode {mode!r}")
        k = int(np.argmax(dead))
        if not dead[k]:
            return value, None
        if mode is not EffectiveCorrelationMode.SOLUTION1:
            why = f"party {1 if dead_at[0, k // 2] else 2} {why}"
        return value, f"{mode.value} E_eff undefined at pair {PAIR_LABELS[k]}: {why}"


def _mode_report(q: _QuadTables, mode: EffectiveCorrelationMode) -> AssumptionReport:
    """The mode's assumption validator on tables already evaluated; the one
    place a regime is mapped to its check."""
    p0 = q.t[..., 2]
    if mode is EffectiveCorrelationMode.SOLUTION1:
        return _solution1_report(p0, q.angles)
    if mode is EffectiveCorrelationMode.SOLUTION2:
        return _solution2_report(p0, q.angles, q.w)
    return _solution3_report(p0, q.angles)


def correlation(model: SLHVModel, a: float, b: float) -> float:
    """Full-ensemble correlation: weighted sum of eps1(a) * eps2(b)."""
    return float(_QuadTables(model, SettingsQuad(a, a, b, b)).e[0])


def coincidence_probability(model: SLHVModel, a: float, b: float) -> float:
    """Probability that both photons are detected: weighted sum of alpha*beta."""
    return float(_QuadTables(model, SettingsQuad(a, a, b, b)).coin[0])


@dataclass(frozen=True)
class PointwiseBoundReport:
    passed: bool
    max_slack: float
    worst_lambda: int
    tol: float


def pointwise_bound_check(model: SLHVModel, quad: SettingsQuad) -> PointwiseBoundReport:
    """Verify |u| <= 2*alpha*beta at every hidden point.

    Only meaningful when non-detection is angle-independent (then the
    four per-party bounds collapse to a single alpha and beta per
    point); refuses otherwise.
    """
    q = _QuadTables(model, quad)
    rep = _mode_report(q, EffectiveCorrelationMode.SOLUTION1)
    if not rep.passed:
        raise AssumptionError(
            "pointwise bound requires angle-independent non-detection; "
            f"validator failed with max deviation {rep.max_deviation:.3e}")
    return _pointwise(q)


def _pointwise(q: _QuadTables) -> PointwiseBoundReport:
    (x, xp), (y, yp) = q.t[..., 0] - q.t[..., 1]
    alpha, beta = q.t[:, 0, :, 0] + q.t[:, 0, :, 1]
    slack = np.abs(chsh_combination(x, xp, y, yp)) - 2.0 * alpha * beta
    k = int(np.argmax(slack))
    return PointwiseBoundReport(passed=bool(slack[k] <= BOUND_TOL),
                                max_slack=float(slack[k]), worst_lambda=k, tol=BOUND_TOL)


class ChshValues(NamedTuple):
    """(u, m): the CHSH combination and its coincidence bound 2*sum(P)."""

    u: float
    m: float


def chsh_value(model: SLHVModel, quad: SettingsQuad) -> ChshValues:
    """Full-ensemble CHSH value U and the coincidence bound M.

    |U| <= 2 holds for every SLHV model; |U| <= M additionally holds
    when non-detection is angle-independent.  Both are re-checked here
    and raise TheoremViolationError on numerical breach (a bug tripwire,
    not a reachable state).
    """
    q = _QuadTables(model, quad)
    u = chsh_sum(q.e.tolist())
    m = 2.0 * float(q.coin[0])
    if abs(u) > 2.0 + BOUND_TOL:
        raise TheoremViolationError(
            f"|U| = {abs(u)!r} exceeds 2 for an SLHV model")
    if abs(u) > m + BOUND_TOL and _mode_report(
            q, EffectiveCorrelationMode.SOLUTION1).passed:
        raise TheoremViolationError(
            f"|U| = {abs(u)!r} exceeds M = {m!r} despite angle-independent "
            "non-detection")
    return ChshValues(float(u), float(m))


def effective_correlation(model: SLHVModel, a: float, b: float,
                          mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1
                          ) -> float:
    """Coincidence-normalized correlation for one setting pair.

    Per-pair preconditions: a positive coincidence probability (mode
    solution1), lambda-independent non-detection with both parties
    detectable (solution2), or no dead hidden point (solution3).  A
    degenerate denominator raises first; then a failing mode validator
    raises AssumptionError (``effective_chsh`` reports such models).
    """
    q = _QuadTables(model, SettingsQuad(a, a, b, b))
    value, why = q.e_eff(mode)
    if why is not None:
        raise DegenerateModelError(why)
    rep = _mode_report(q, mode)
    if not rep.passed:
        raise AssumptionError(
            f"validate_{mode.value} failed for mode {mode.value} "
            f"(max deviation {rep.max_deviation:.3e})")
    return float(value[0])


def effective_chsh_value(model: SLHVModel, quad: SettingsQuad,
                         mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1,
                         validate: bool = True) -> float:
    """The CHSH combination of the four coincidence-normalized correlations.

    Lean path used in hot loops (property suites, adversarial search);
    no assumption checking, degenerate pairs raise.
    """
    return _u_eff(_QuadTables(model, quad, validate), mode)


def _u_eff(q: _QuadTables, mode: EffectiveCorrelationMode) -> float:
    """Signed U_eff of tables already evaluated; degenerate pairs raise."""
    value, why = q.e_eff(mode)
    if why is not None:
        raise DegenerateModelError(why)
    return chsh_sum(value.tolist())


@dataclass(frozen=True)
class InequalityReport:
    """Everything the bound verification of one (model, quad, mode) produced.

    ``bound_guaranteed`` is True when the mode's assumption validator
    passed, in which case |u_eff| <= 2 is a theorem for this model;
    ``theorem_breach`` marks the impossible combination of a passing
    validator and a broken bound (always False for a correct
    implementation, surfaced for the CLI's exit-code contract).
    """

    quad_degrees: tuple[float, float, float, float]
    mode: EffectiveCorrelationMode
    e: dict[str, float]
    e_eff: dict[str, float]
    coincidence: dict[str, float]
    u: float
    m: float
    u_eff: float
    assumption_report: AssumptionReport
    bound_guaranteed: bool
    verdicts: dict[str, bool]
    theorem_breach: bool
    pointwise: PointwiseBoundReport | None = None
    per_lambda_extremes: dict[str, float] | None = None

    def to_json_dict(self, verbosity: int = 0) -> dict:
        def num(x):
            # Degenerate pairs leave NaN values; emit null, valid JSON.
            return None if isinstance(x, float) and math.isnan(x) else x

        d = {
            "schema_version": 1,
            "quad_degrees": list(self.quad_degrees),
            "mode": self.mode.value,
            "per_pair": {
                lab: {
                    "E": self.e[lab],
                    "E_eff": num(self.e_eff[lab]),
                    "coincidence_probability": self.coincidence[lab],
                }
                for lab in PAIR_LABELS
            },
            "U": self.u,
            "M": self.m,
            "U_eff": num(self.u_eff),
            "assumptions": {
                "passed": self.assumption_report.passed,
                "max_deviation": self.assumption_report.max_deviation,
                "tol": self.assumption_report.tol,
            },
            "bound_guaranteed": self.bound_guaranteed,
            "verdicts": dict(self.verdicts),
            "theorem_breach": self.theorem_breach,
        }
        worst = self.assumption_report.worst
        if worst is not None:
            party, lam, angles = worst
            d["assumptions"]["worst"] = {
                "party": party, "lambda_index": lam,
                "angles_degrees": [math.degrees(a) for a in angles]}
        if self.assumption_report.implied_p0 is not None:
            d["assumptions"]["implied_p0"] = {
                str(party): {f"{math.degrees(a):.6g}": v for a, v in vals.items()}
                for party, vals in self.assumption_report.implied_p0.items()
            }
        if verbosity >= 1 and self.pointwise is not None:
            d["pointwise"] = {
                "passed": self.pointwise.passed,
                "max_slack": self.pointwise.max_slack,
                "worst_lambda": self.pointwise.worst_lambda,
            }
        if verbosity >= 2 and self.per_lambda_extremes is not None:
            d["per_lambda_extremes"] = dict(self.per_lambda_extremes)
        return d


def effective_chsh(model: SLHVModel, quad: SettingsQuad,
                   mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1
                   ) -> InequalityReport:
    """Full bound-verification report for one model, quad and mode.

    Always computes; when the mode's assumptions fail the report flags
    the bound as not guaranteed instead of refusing, so assumption-
    violating models (the adversarial workflow) still get their values.
    """
    q = _QuadTables(model, quad)
    e = dict(zip(PAIR_LABELS, q.e.tolist()))
    e_eff = dict(zip(PAIR_LABELS, q.e_eff(mode)[0].tolist()))
    coin = dict(zip(PAIR_LABELS, q.coin.tolist()))
    # A degenerate pair's NaN carries into U_eff and fails its verdict.
    u = chsh_sum(e.values())
    u_eff = chsh_sum(e_eff.values())
    m = 2.0 * coin["ab"]

    assumption = _mode_report(q, mode)
    bound_guaranteed = assumption.passed and not math.isnan(u_eff)

    pointwise = None
    if mode is EffectiveCorrelationMode.SOLUTION1 and assumption.passed:
        pointwise = _pointwise(q)

    verdicts = {
        "abs_u_le_2": abs(u) <= 2.0 + BOUND_TOL,
        "abs_u_le_m": abs(u) <= m + BOUND_TOL,
        "abs_u_eff_le_2": abs(u_eff) <= 2.0 + BOUND_TOL,
        "assumptions_passed": assumption.passed,
    }
    theorem_breach = bound_guaranteed and not verdicts["abs_u_eff_le_2"]

    extremes = {
        "max_abs_local_average_a": float(np.max(np.abs(q.t1[0, :, 0] - q.t1[0, :, 1]))),
        "min_coincidence_probability": min(coin.values()),
        "max_coincidence_probability": max(coin.values()),
    }
    return InequalityReport(
        quad_degrees=quad.to_degrees(), mode=mode, e=e, e_eff=e_eff,
        coincidence=coin, u=float(u), m=float(m), u_eff=float(u_eff),
        assumption_report=assumption, bound_guaranteed=bound_guaranteed,
        verdicts=verdicts, theorem_breach=theorem_breach,
        pointwise=pointwise, per_lambda_extremes=extremes)
