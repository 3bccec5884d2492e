"""Phenomenological quantum prediction for a lossy double-channel pair source.

The joint probability of detecting outcomes (r, q) at analyzer angles
(a, b) is

    P_rq = (1/4) * eta1 * eta2 * f1 * f2 * (1 + r*q*F*cos 2(a - b))

with per-photon detector efficiencies ``eta_k``, collimator/transmission
factors ``f_k``, and source correlation strength ``F`` (about 0.95 for
parametric down-conversion sources).  Analyzer losses are folded into
eta*f; there is no separate analyzer-imperfection term.  The same law,
spelled once in ``_pair_law``, is what the sampler draws QM trials from,
and ``qm_epsilon_identity`` gives the eps it predicts.

The coincidence-normalized correlation F*cos 2(a - b) carries no
efficiency dependence at all, which is why the coincidence-normalized
CHSH value measured in real experiments lands on 2*sqrt(2)*F regardless
of the detectors used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BOUND_TOL, SettingsQuad, chsh_sum
from .model import ValidationError, _check_instance, _check_integer, _check_real

__all__ = [
    "QMModelParams",
    "joint_probability",
    "coincidence_probability",
    "correlation",
    "effective_correlation",
    "chsh_value",
    "effective_chsh_value",
    "violation_lhs",
    "u_eff_cap",
    "u_eff_cap_holds",
    "qm_epsilon_identity",
]


@dataclass(frozen=True)
class QMModelParams:
    """Detector efficiencies, collimator factors and correlation strength.

    The two detector efficiencies are kept distinct; wherever a squared
    efficiency appears in derived formulas it means the product
    eta1*eta2.
    """

    eta1: float
    eta2: float
    f1: float
    f2: float
    F: float

    def __post_init__(self):
        for name in ("eta1", "eta2", "f1", "f2", "F"):
            v = _check_real(getattr(self, name), name)
            if name == "F" and not (0.0 <= v <= 1.0):
                raise ValidationError(f"F must lie in [0, 1], got {v!r}")
            if name != "F" and not (0.0 < v <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1], got {v!r}")
            object.__setattr__(self, name, v)
        if self.eta12f12 == 0.0:
            raise ValidationError(
                "eta1*eta2*f1*f2 underflows to 0: no pair is ever detected")

    @property
    def f12(self) -> float:
        return self.f1 * self.f2

    @property
    def eta12f12(self) -> float:
        """Both-detected probability eta1*eta2*f1*f2."""
        return self.eta1 * self.eta2 * self.f1 * self.f2


def joint_probability(params: QMModelParams, a: float, b: float,
                      r: int, q: int) -> float:
    """Probability of coincident outcomes (r, q) in {+1, -1}^2."""
    _check_instance(params, QMModelParams, "params")
    r, q = _check_integer(r, "r", -1), _check_integer(q, "q", -1)
    if r not in (1, -1) or q not in (1, -1):
        raise ValidationError(f"r and q must be +1 or -1, got {(r, q)}")
    # The pair law's cells are (equal-sign, opposite-sign).
    return params.eta12f12 * _pair_law(params, a, b)[1][r != q]


def coincidence_probability(params: QMModelParams) -> float:
    """Total both-detected probability; independent of the analyzer angles."""
    _check_instance(params, QMModelParams, "params")
    return params.eta12f12


def correlation(params: QMModelParams, a: float, b: float) -> float:
    """Full-ensemble correlation eta1*eta2*f12*F*cos 2(a - b)."""
    _check_instance(params, QMModelParams, "params")
    a, b = _check_real(a, "a"), _check_real(b, "b")
    return params.eta12f12 * params.F * math.cos(2.0 * (a - b))


def effective_correlation(params: QMModelParams, a: float, b: float) -> float:
    """Coincidence-normalized correlation F*cos 2(a - b).

    The efficiency factors cancel algebraically, so they are omitted
    here outright: the returned value is bitwise identical across any
    (eta, f) sweep at fixed F and angles.
    """
    _check_instance(params, QMModelParams, "params")
    a, b = _check_real(a, "a"), _check_real(b, "b")
    return params.F * math.cos(2.0 * (a - b))


def _pair_law(params: QMModelParams, a: float, b: float) -> tuple[tuple, tuple]:
    """The law of one pair at (a, b): each photon's detection probability
    eta_k*f_k (the two independent), and, given both detected, the
    probability of each equal-sign cell and of each opposite-sign cell,
    (1 +- F cos 2(a - b))/4.  The sampler draws every QM trial from it."""
    fc = effective_correlation(params, a, b)
    return ((params.eta1 * params.f1, params.eta2 * params.f2),
            (0.25 * (1.0 + fc), 0.25 * (1.0 - fc)))


def chsh_value(params: QMModelParams, quad: SettingsQuad) -> float:
    """Full-ensemble CHSH combination of the four correlations."""
    _check_instance(params, QMModelParams, "params")
    _check_instance(quad, SettingsQuad, "quad")
    return float(chsh_sum([correlation(params, x, y) for _, x, y in quad.pairs()]))


def effective_chsh_value(params: QMModelParams, quad: SettingsQuad) -> float:
    """Coincidence-normalized CHSH combination; equals 2*sqrt(2)*F at the
    pi/8-separation quad and never depends on eta or f."""
    _check_instance(params, QMModelParams, "params")
    _check_instance(quad, SettingsQuad, "quad")
    return float(chsh_sum([effective_correlation(params, x, y) for _, x, y in quad.pairs()]))


def violation_lhs(F: float, phi: float) -> float:
    """F * |3 cos(phi) - cos(3*phi)|, to be compared against 2.

    ``phi`` is the doubled angle appearing inside the cosine of the
    effective correlation: a quad with adjacent physical separations
    phi/2 (and 3*phi/2 between the outer pair) yields this combination.
    At phi = pi/4 (physical separations pi/8) the bracket is 2*sqrt(2),
    so any F > 1/sqrt(2) violates the bound of 2.  Both arguments are
    real numbers (``model._check_real``), F in [0, 1].
    """
    F, phi = _check_real(F, "F"), _check_real(phi, "phi")
    if not (0.0 <= F <= 1.0):
        raise ValidationError(f"F must lie in [0, 1], got {F!r}")
    return F * abs(3.0 * math.cos(phi) - math.cos(3.0 * phi))


def qm_epsilon_identity(params: QMModelParams, u_eff: float) -> float:
    """The discrepancy the QM model predicts: (1 - eta1*eta2*f12) * u_eff.

    Equivalently, the full-sample CHSH value is eta1*eta2*f12 * u_eff,
    which stays within 2 whenever sqrt(2)*F*eta1*eta2*f12 <= 1.
    """
    _check_instance(params, QMModelParams, "params")
    return (1.0 - params.eta12f12) * u_eff


def u_eff_cap(params: QMModelParams) -> float:
    """2 / (eta1*eta2*f12): the cap on the coincidence-normalized CHSH
    value implied by an unviolated full-sample CHSH inequality.

    The cap binds only while the full-sample CHSH value stays within 2,
    i.e. while sqrt(2)*F*eta1*eta2*f12 <= 1; at realistic efficiencies
    the cap is far above 2*sqrt(2) and can never be saturated.
    """
    _check_instance(params, QMModelParams, "params")
    return 2.0 / params.eta12f12


def u_eff_cap_holds(params: QMModelParams) -> bool:
    """Whether the quantum prediction respects the 2/(eta^2 f12) cap,
    equivalently whether the full-sample CHSH value stays within 2."""
    _check_instance(params, QMModelParams, "params")
    return math.sqrt(2.0) * params.F * params.eta12f12 <= 1.0 + BOUND_TOL
