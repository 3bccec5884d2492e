"""Exact CHSH-type quantities for discrete SLHV models.

Everything here is a finite weighted sum over the hidden-variable
points; no sampling.  A quad evaluates each party's two response
tables in one call and forms the both-detected cells of the four setting
pairs' 3x3 joint-outcome tables ``t1^T . diag(w) . t2`` in one stacked
product.  The tables carry a leading batch axis (``_QuadTables``): a
batch holds several sources at one quad (the adversary search's points)
or one model at several quads (``effective_chsh_values``), and a single
model is a batch of one.
Every per-pair value is then a (B, 4) array in PAIR_LABELS order:
``signed_sum`` gives E, ``coincidence_sum`` the coincidence probability
(the estimator applies both to count tables), and each mode its E_eff,
NaN where the pair is degenerate.  The central objects:

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
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    NORMALIZATION_TOL,
    AssumptionError,
    AssumptionReport,
    DegenerateModelError,
    SLHVModel,
    TheoremViolationError,
    ValidationError,
    _PREMISES,
    _check_instance,
    _check_real,
    _premise_report,
    canonical_angle,
)

__all__ = [
    "BOUND_TOL",
    "PAIR_LABELS",
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
    "effective_chsh_values",
    "InequalityReport",
    "effective_chsh",
]

# Additive tolerance on inequality verdicts computed from exact sums: the
# rounding room every verdict and trip-wire allows on top of its bound.
BOUND_TOL = 1e-12

# The four setting pairs of a CHSH run, in the order ``chsh_sum`` reads them.
PAIR_LABELS = ("ab", "ab'", "a'b", "a'b'")


def chsh_sum(values):
    """v(ab) - v(ab') + v(a'b) + v(a'b') of per-pair values in PAIR_LABELS
    order: U, U_eff and eps_total for every source, and the one place the
    CHSH signs are written.  ``values`` is read as a float array holding
    the four values along its last axis (a list or a row of four gives a
    numpy scalar), and each row is summed left to right as
    ((v0 + 0.0) - v1) + v2 + v3, so a zero sum is +0.0."""
    v = np.asarray(values, dtype=float)
    return ((v[..., 0] + 0.0) - v[..., 1]) + v[..., 2] + v[..., 3]


@dataclass(frozen=True)
class SettingsQuad:
    """The four analyzer angles (a, a', b, b') of a CHSH run, radians: real
    numbers (``model._check_real``), stored reduced by ``canonical_angle``."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, canonical_angle(getattr(self, name)))

    @classmethod
    def from_degrees(cls, a, a_prime, b, b_prime) -> "SettingsQuad":
        return cls(*(math.radians(_check_real(x, "angle"))
                     for x in (a, a_prime, b, b_prime)))

    def to_degrees(self) -> tuple[float, float, float, float]:
        return tuple(math.degrees(x) for x in
                     (self.a, self.a_prime, self.b, self.b_prime))

    def pairs(self) -> tuple[tuple[str, float, float], ...]:
        """(label, angle1, angle2) for the four setting pairs in PAIR_LABELS
        order: (a, b), (a, b'), (a', b), (a', b').  ``chsh_sum`` combines
        per-pair values in this order."""
        return tuple(zip(PAIR_LABELS,
                         (self.a, self.a, self.a_prime, self.a_prime),
                         (self.b, self.b_prime, self.b, self.b_prime)))

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
    """Sum of r*q*table[..., r, q] over joint tables, 3x3 or their 2x2
    both-detected block: E of probability tables, the exact signed
    coincidence count of integer count tables."""
    return table[..., 0, 0] - table[..., 0, 1] - table[..., 1, 0] + table[..., 1, 1]


def coincidence_sum(table):
    """Mass of the four both-detected cells of joint tables, 3x3 or 2x2."""
    return table[..., 0, 0] + table[..., 0, 1] + table[..., 1, 0] + table[..., 1, 1]


class _QuadTables:
    """A batch of B sources at a quad, or one model at B quads: one
    response call per party over all of its angles.

    ``t`` holds the tables as (B, party, angle, n, 3) and ``w`` the
    hidden-point weights, (1, n) when the batch shares them and (B, n) when
    not.  A single model at one quad is a batch of one.  ``angles`` holds
    each party's two canonical angles for a single quad (a validator
    report names them), else None.  Per-pair values are (B, 4)
    arrays in PAIR_LABELS order, the (a, a') x (b, b') grid flattened,
    each formed on first use: ``e`` and ``coin`` read only the
    both-detected block ``detected`` of the four joint tables, and
    ``e_eff(mode)`` reads those (solution1), ``e`` and ``detection``
    (solution2) or ``t`` alone (solution3).  ``joints``, the full 3x3
    tables, hold the same four cells bit for bit (``tests/test_bounds.py``
    checks it) beside the non-detection cells; no per-pair value reads them.
    """

    def __init__(self, model: SLHVModel, *quads: SettingsQuad, validate: bool = True):
        _check_instance(model, SLHVModel, "model")
        for quad in quads:
            _check_instance(quad, SettingsQuad, "quad")
        n = model.space.size
        self.w = model.space.weights[None]
        self.angles = ((quads[0].party1_angles(), quads[0].party2_angles())
                       if len(quads) == 1 else None)
        self.t = np.stack([model.tables(party, [a for quad in quads for a in angles(quad)],
                                        validate).reshape(len(quads), 2, n, 3)
                           for party, angles in ((1, SettingsQuad.party1_angles),
                                                 (2, SettingsQuad.party2_angles))], axis=1)

    @classmethod
    def from_tables(cls, w: np.ndarray, t: np.ndarray) -> "_QuadTables":
        """A batch of tables already evaluated: ``w`` (1 or B, n) and ``t``
        (B, party, angle, n, 3).  It names no angles, so no report reads it."""
        q = cls.__new__(cls)
        q.w, q.t, q.angles = w, t, None
        return q

    def __len__(self) -> int:
        return len(self.t)

    def _joint_block(self, outcomes: slice) -> np.ndarray:
        """The ``outcomes`` x ``outcomes`` block of the four joint tables
        t1^T . diag(w) . t2 in one matmul, (B, 2, 1, o, n) @ (B, 1, 2, n, o),
        with t1 and t2 the parties' tables.  The weights, repeated over the
        three outcomes, scale t1 in its own (n, 3) layout, and the block's
        columns are sliced from that."""
        b, _, k, n, _ = self.t.shape
        scaled = (self.t[:, 0].reshape(b, k, 3 * n)
                  * np.repeat(self.w, 3, axis=-1)[:, None]).reshape(b, k, n, 3)
        block = (scaled[..., outcomes].transpose(0, 1, 3, 2)[:, :, None]
                 @ self.t[:, 1, None, ..., outcomes])
        return block.reshape(b, 4, *block.shape[-2:])

    @cached_property
    def joints(self) -> np.ndarray:
        """The (B, 4, 3, 3) joint-outcome tables."""
        return self._joint_block(slice(None))

    @cached_property
    def detected(self) -> np.ndarray:
        """The (B, 4, 2, 2) both-detected cells of ``joints``, from a product
        over the two detected columns alone: each cell is the same dot
        product over the same scaled rows as in ``joints``."""
        return self._joint_block(slice(2))

    @cached_property
    def detection(self) -> np.ndarray:
        """Each party's experimental detection probability 1 - sum(w p0) at
        each of its angles, (B, party, angle)."""
        return 1.0 - np.sum(self.w[:, None, None] * self.t[..., 2], axis=-1)

    @cached_property
    def e(self) -> np.ndarray:
        return signed_sum(self.detected)

    @cached_property
    def coin(self) -> np.ndarray:
        return coincidence_sum(self.detected)

    def dead_at(self, mode: EffectiveCorrelationMode) -> np.ndarray:
        """The (B, party, angle) rows that make a solution2 or solution3
        pair degenerate: a party never detected at its setting (solution2),
        or with a hidden point of zero detection probability (solution3)."""
        if mode is EffectiveCorrelationMode.SOLUTION2:
            return self.detection <= 0.0
        t = self.t
        return np.any(t[..., 0] + t[..., 1] <= 0.0, axis=-1)

    def e_eff(self, mode: EffectiveCorrelationMode) -> tuple[np.ndarray, np.ndarray]:
        """The (B, 4) coincidence-normalized correlations, NaN at a
        degenerate pair, and the (B, 4) mask of degenerate pairs.

        A pair is degenerate when its coincidence probability (solution1),
        a party's detection probability at its setting (solution2) or at
        some hidden point (solution3) is not positive.
        """
        _check_instance(mode, EffectiveCorrelationMode, "mode")
        if mode is EffectiveCorrelationMode.SOLUTION1:
            dead = self.coin <= 0.0
            if not dead.any():
                return self.e / self.coin, dead
            return np.divide(self.e, self.coin, out=np.full(dead.shape, np.nan),
                             where=~dead), dead
        dead_at = self.dead_at(mode)
        dead = (dead_at[:, 0, :, None] | dead_at[:, 1, None]).reshape(-1, 4)
        if mode is EffectiveCorrelationMode.SOLUTION2:
            d = self.detection
            value = np.divide(self.e, (d[:, 0, :, None] * d[:, 1, None]).reshape(-1, 4),
                              out=np.full(dead.shape, np.nan), where=~dead)
        else:
            t = self.t
            # The ratio reads entries clamped at 0, so it stays in [-1, 1] for
            # entries down to -NORMALIZATION_TOL.  A dead (party, angle) row
            # stays NaN, and so do its pairs' sums.
            plus, minus = np.maximum(t[..., 0], 0.0), np.maximum(t[..., 1], 0.0)
            eff = np.divide(plus - minus, plus + minus, out=np.full_like(plus, np.nan),
                            where=~dead_at[..., None])
            value = np.sum(self.w[:, None, None] * eff[:, 0, :, None] * eff[:, 1, None],
                           axis=-1).reshape(-1, 4)
        return value, dead

    def degenerate(self, mode: EffectiveCorrelationMode, dead: np.ndarray) -> str | None:
        """Why the first degenerate pair of ``e_eff``'s mask ``dead`` is one,
        over the batch in order; None if no pair is."""
        b, k = divmod(int(np.argmax(dead)), 4)
        if not dead[b, k]:
            return None
        if mode is EffectiveCorrelationMode.SOLUTION1:
            why = "zero coincidence probability"
        else:
            party = 1 if self.dead_at(mode)[b, 0, k // 2] else 2
            why = (f"party {party} is never detected at its setting"
                   if mode is EffectiveCorrelationMode.SOLUTION2 else
                   f"party {party} has a hidden point with zero detection probability")
        return f"{mode.value} E_eff undefined at pair {PAIR_LABELS[k]}: {why}"


def _mode_report(q: _QuadTables, mode: EffectiveCorrelationMode) -> AssumptionReport:
    """The report of the mode's premise (``model._PREMISES``) on a batch of
    one built from a model at one quad, from each party's (2, n)
    non-detection rows as views of ``t``."""
    return _premise_report(mode.value, tuple(q.t[0, ..., 2]), q.angles, q.w[0])


def _premise_deviations(q: _QuadTables, mode: EffectiveCorrelationMode,
                        rows: np.ndarray) -> list[float | None]:
    """The ``max_deviation`` that ``_mode_report`` gives each source of
    ``rows`` (a (B,) mask), or None where the premise fails: the score and
    pass rule of ``model._PREMISES`` in one reduction over the
    (B', party, angle, n) non-detection rows, with no report built."""
    premise = _PREMISES[mode.value]
    scores = premise.score(q.t[rows, ..., 2])
    dev = np.maximum(scores.reshape(len(scores), -1).max(axis=1), 0.0)
    holds = premise.passes(dev, premise.tol)
    return [d if h else None for d, h in zip(dev.tolist(), holds.tolist())]


def _slack(q: _QuadTables, bound: str | EffectiveCorrelationMode,
           rows: np.ndarray | None = None):
    """How far above its ideal bound the premise of ``bound`` still caps
    each source of the batch ``q``: a (B,) array, (B, n) for
    ``"pointwise"``, NaN for a source whose premise fails and proves nothing
    and for one outside the (B,) mask ``rows`` (None: every source).

    This is the one place that knows which premise proves which bound and
    how far the premise's tolerances stretch it.  The slack is the cap
    minus the ideal bound (2, M or 2ab), and ``bound`` names the value:

    * ``"U"``: |U| of any model, cap 2(1 + 4nu)^2;
    * ``"M"``: |U| under solution1, cap M + 2(2delta + delta^2);
    * ``"pointwise"``: |u| at each hidden point under solution1, an (n,)
      cap 2ab + 2(delta(a + b) + delta^2), with a and b the parties'
      detection probabilities at their first angles;
    * a mode: |U_eff| under that mode's premise, cap
      2 + 6(2delta + delta^2)/C* (solution1), 2(1 + delta/D1*)(1 + delta/D2*)
      (solution2) or 2(1 + nu) (solution3), with C* the smallest
      coincidence probability and D* a party's smaller experimental
      detection probability over its two angles.

    Here nu = NORMALIZATION_TOL and delta = dev + 5nu, where
    dev <= VALIDATOR_TOL is each source's premise deviation from
    ``_premise_deviations``, the ``max_deviation`` its validator reports.
    Rounding is left to BOUND_TOL.

    Proof.  Admitted tables hold entries in [-nu, 1 + nu] in rows summing to
    within nu of 1, and weights w >= 0 with W = sum(w) <= 1 + nu.  Write
    x = p+ - p- and a = p+ + p- at one (party, angle, point); taking the
    smaller of p+- as at least -nu, (i) |x| <= 1 + 2nu, |x| <= a + 2nu and
    |x| <= 1 - p0 + 3nu.  Let d = delta - nu.

    * U: by (i) |u| <= 2(1 + 2nu)^2, so |U| <= 2W(1 + 2nu)^2 <= 2(1 + 4nu)^2.
    * solution1: a party's p0 at its two angles differ by at most dev at
      each point, so its a differ by at most dev + 2nu and by (i) |x| <= a + d
      at both angles, a at its first angle.  Hence |u| <= 2(a + d)(b + d), the
      pointwise cap.  Summed, with M = 2 sum(w ab), sum(w a) <= W(1 + 2nu) and
      W <= 1 + nu, |U| <= M + 2(2delta + delta^2).  For U_eff take instead
      the party's smaller a over its angles, a_, and X = a_ + d (Y for party
      2): every a lies in [a_, X] and |x| <= X.  With Q = sum(w XY) and
      R = d sum(w(X + Y)), each |E_k| <= Q, |U| <= 2Q, and each C_k lies in
      [Q - R, Q] (ab over the box [a_, X] x [b_, Y], X, Y > 0).  Then
      U_eff = U/C* + sum_k s_k E_k (1/C_k - 1/C*), where each term is at most
      (Q - C*)/C* <= R/C* and the smallest pair's is 0, so
      |U_eff| <= 2 + 5R/C*, and 5R <= 10dW(1 + 2nu + d) <= 6(2delta + delta^2).
    * solution2: at each angle a party's p0 over the points lies in
      [m, m + dev], and D = 1 - sum(w p0) divides its E.  By (i)
      |x| <= 1 - m + 3nu, and D >= 1 - W(m + dev) >= 1 - m - dev - nu(1 + nu + dev),
      so |x/D| <= 1 + e/D with e = dev + 4nu + nu(nu + dev).  U_eff is the
      weighted sum of u over the x/D and y/D', so
      |U_eff| <= 2W(1 + e/D1*)(1 + e/D2*), where each sqrt(W)(1 + e/D) <=
      (1 + nu/2)(1 + e/D) <= 1 + delta/D as D <= 1 + 2nu.
    * solution3: each clamped detected-subset average lies in [-1, 1], so
      |U_eff| <= 2W <= 2(1 + nu).
    """
    nu = NORMALIZATION_TOL
    if bound == "U":
        return np.full(len(q), 2.0 * ((1.0 + 4.0 * nu) ** 2 - 1.0))
    mode = bound if isinstance(bound, EffectiveCorrelationMode) \
        else EffectiveCorrelationMode.SOLUTION1
    if rows is None:
        rows = np.ones(len(q), dtype=bool)
    deviations = _premise_deviations(q, mode, rows)
    slack = np.full((len(q), q.t.shape[3]) if bound == "pointwise" else len(q), np.nan)
    # Each cap is Python float arithmetic on its source's scalars: Python's
    # ``** 2`` need not round as numpy's squaring does.
    for b, dev in zip(rows.nonzero()[0].tolist(), deviations):
        if dev is None:
            continue
        delta = dev + 5.0 * nu
        if bound == "M":
            slack[b] = 2.0 * (2.0 * delta + delta ** 2)
        elif bound == "pointwise":
            alpha, beta = q.t[b, :, 0, :, 0] + q.t[b, :, 0, :, 1]
            slack[b] = 2.0 * (delta * (alpha + beta) + delta ** 2)
        elif mode is EffectiveCorrelationMode.SOLUTION1:
            slack[b] = 6.0 * (2.0 * delta + delta ** 2) / float(q.coin[b].min())
        elif mode is EffectiveCorrelationMode.SOLUTION2:
            d1, d2 = q.detection[b].min(axis=1).tolist()
            slack[b] = 2.0 * ((1.0 + delta / d1) * (1.0 + delta / d2) - 1.0)
        else:
            slack[b] = 2.0 * nu
    return slack


def _breach(q: _QuadTables, bound: str | EffectiveCorrelationMode, excess) -> np.ndarray:
    """Which sources of the batch ``q`` hold a value whose ``excess``, its
    distance above the ideal bound of ``bound`` (see ``_slack``), passes the
    slack its premise proves by more than BOUND_TOL: (B,) bools, the one
    test behind every trip-wire.

    ``excess`` holds one value per source, (B,), or (B, n) for
    ``"pointwise"`` (a float or an (n,) array for a batch of one); it is
    never NaN.  Every slack is at least 0, so a source whose excess stays
    within BOUND_TOL is decided without its premise: only the others get a
    deviation and a cap.
    """
    excess = np.reshape(excess, (len(q), -1))
    over = (excess > BOUND_TOL).any(axis=1)
    if not over.any():
        return over
    slack = _slack(q, bound, rows=over)
    if np.ndim(slack) == 1:
        slack = slack[:, None]
    return over & (excess > slack + BOUND_TOL).any(axis=1)


def correlation(model: SLHVModel, a: float, b: float) -> float:
    """Full-ensemble correlation: weighted sum of eps1(a) * eps2(b)."""
    return float(_QuadTables(model, SettingsQuad(a, a, b, b)).e[0, 0])


def coincidence_probability(model: SLHVModel, a: float, b: float) -> float:
    """Probability that both photons are detected: weighted sum of alpha*beta."""
    return float(_QuadTables(model, SettingsQuad(a, a, b, b)).coin[0, 0])


@dataclass(frozen=True)
class PointwiseBoundReport:
    passed: bool
    max_slack: float
    worst_lambda: int


def pointwise_bound_check(model: SLHVModel, quad: SettingsQuad) -> PointwiseBoundReport:
    """Verify |u| <= 2*alpha*beta at every hidden point.

    Only meaningful when non-detection is angle-independent (then the
    four per-party bounds collapse to a single alpha and beta per
    point); refuses otherwise.  ``passed`` holds when no point exceeds
    the cap that premise proves (see ``_slack``); ``max_slack`` is the
    largest |u| - 2*alpha*beta.
    """
    q = _QuadTables(model, quad)
    rep = _mode_report(q, EffectiveCorrelationMode.SOLUTION1)
    if not rep.passed:
        raise AssumptionError(
            "pointwise bound requires angle-independent non-detection; "
            f"validator failed with max deviation {rep.max_deviation:.3e}")
    return _pointwise(q)


def _pointwise(q: _QuadTables) -> PointwiseBoundReport:
    """The pointwise check of a batch of one whose solution1 premise holds."""
    (x, xp), (y, yp) = q.t[0, ..., 0] - q.t[0, ..., 1]
    alpha, beta = q.t[0, :, 0, :, 0] + q.t[0, :, 0, :, 1]
    excess = np.abs(chsh_combination(x, xp, y, yp)) - 2.0 * alpha * beta
    k = int(np.argmax(excess))
    return PointwiseBoundReport(passed=not _breach(q, "pointwise", excess)[0],
                                max_slack=float(excess[k]), worst_lambda=k)


class ChshValues(NamedTuple):
    """(u, m): the CHSH combination and its coincidence bound 2*sum(P)."""

    u: float
    m: float


def chsh_value(model: SLHVModel, quad: SettingsQuad) -> ChshValues:
    """Full-ensemble CHSH value U and the coincidence bound M.

    |U| <= 2 holds for every SLHV model; |U| <= M additionally holds
    when non-detection is angle-independent.  Both are re-checked here,
    and a |U| above the cap its premise proves for these tables (see
    ``_slack``) raises TheoremViolationError (a bug tripwire, not a
    reachable state).
    """
    return _chsh_values(_QuadTables(model, quad))


def _chsh_values(q: _QuadTables) -> ChshValues:
    """U and M of the batch of one ``q``, and their trip-wires: a |U| past
    the cap of ``"U"`` or ``"M"`` (see ``_slack``) raises
    TheoremViolationError."""
    u = float(chsh_sum(q.e[0]))
    m = 2.0 * float(q.coin[0, 0])
    if _breach(q, "U", abs(u) - 2.0)[0]:
        raise TheoremViolationError(
            f"|U| = {abs(u)!r} exceeds 2 by more than any SLHV model can")
    if _breach(q, "M", abs(u) - m)[0]:
        raise TheoremViolationError(
            f"|U| = {abs(u)!r} exceeds M = {m!r} by more than angle-independent "
            "non-detection allows")
    return ChshValues(u, m)


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
    value, dead = q.e_eff(mode)
    if dead.any():
        raise DegenerateModelError(q.degenerate(mode, dead))
    rep = _mode_report(q, mode)
    if not rep.passed:
        raise AssumptionError(
            f"validate_{mode.value} failed for mode {mode.value} "
            f"(max deviation {rep.max_deviation:.3e})")
    return float(value[0, 0])


def effective_chsh_value(model: SLHVModel, quad: SettingsQuad,
                         mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1,
                         validate: bool = True) -> float:
    """The CHSH combination of the four coincidence-normalized correlations.

    Lean path: no assumption checking, degenerate pairs raise.  The
    adversarial search does not call it; it evaluates a batch of points
    per step through ``adversary._evaluate``.
    """
    return float(_u_eff(_QuadTables(model, quad, validate=validate), mode)[0])


def effective_chsh_values(model: SLHVModel, quads: Sequence[SettingsQuad],
                          mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1,
                          validate: bool = True) -> np.ndarray:
    """``effective_chsh_value`` at each of ``quads``, a (q,) array: the
    quads are the batch axis of one ``_QuadTables``, so each party's
    response is called once over all 2q of its angles.  A degenerate pair
    at any quad raises, naming the first."""
    return _u_eff(_QuadTables(model, *quads, validate=validate), mode)


def _u_eff(q: _QuadTables, mode: EffectiveCorrelationMode) -> np.ndarray:
    """Each source's signed U_eff, (B,), from tables already evaluated; a
    degenerate pair raises."""
    value, dead = q.e_eff(mode)
    if dead.any():
        raise DegenerateModelError(q.degenerate(mode, dead))
    return chsh_sum(value)


@dataclass(frozen=True)
class InequalityReport:
    """Everything the bound verification of one (model, quad, mode) produced.

    ``bound_guaranteed`` is True when the mode's assumption validator
    passed, in which case |u_eff| <= 2 is a theorem for this model, up to
    the slack the validator's tolerances leave: ``u_eff_cap`` is the cap
    the passing premise proves for these tables (see ``bounds._slack``),
    None when it proves nothing.  ``theorem_breach`` marks the impossible
    combination of a passing validator and a |u_eff| above that cap plus
    BOUND_TOL (always False for a correct implementation, surfaced for
    the CLI's exit-code contract).
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
    u_eff_cap: float | None = None

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
        if verbosity >= 1:
            d["assumptions"]["u_eff_cap"] = self.u_eff_cap
        if verbosity >= 1 and self.pointwise is not None:
            d["pointwise"] = asdict(self.pointwise)
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
    U and M carry ``chsh_value``'s trip-wires: a |U| past its cap raises
    TheoremViolationError.
    """
    q = _QuadTables(model, quad)
    value = q.e_eff(mode)[0]
    e, e_eff, coin = (dict(zip(PAIR_LABELS, v[0].tolist())) for v in (q.e, value, q.coin))
    u, m = _chsh_values(q)
    # A degenerate pair's NaN carries into U_eff and fails its verdict.
    u_eff = float(chsh_sum(value[0]))

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
    u_eff_cap = 2.0 + float(_slack(q, mode)[0]) if bound_guaranteed else None
    theorem_breach = bound_guaranteed and bool(_breach(q, mode, abs(u_eff) - 2.0)[0])

    extremes = {
        "max_abs_local_average_a": float(np.max(np.abs(q.t[0, 0, 0, :, 0] - q.t[0, 0, 0, :, 1]))),
        "min_coincidence_probability": min(coin.values()),
        "max_coincidence_probability": max(coin.values()),
    }
    return InequalityReport(
        quad_degrees=quad.to_degrees(), mode=mode, e=e, e_eff=e_eff,
        coincidence=coin, u=u, m=m, u_eff=u_eff,
        assumption_report=assumption, bound_guaranteed=bound_guaranteed,
        verdicts=verdicts, theorem_breach=theorem_breach,
        pointwise=pointwise, per_lambda_extremes=extremes, u_eff_cap=u_eff_cap)
