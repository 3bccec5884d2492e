"""Random SLHV model generators for property suites and demos.

Each generator draws a formula-defined model valid at every angle.  The
ideal two-channel response of party k at hidden point i is

    p_plus = (1 + m_i * cos 2(angle - psi_i)) / 2

with per-point modulation m_i in [-1, 1] and phase psi_i, which is a
proper distribution at any angle.  The three constructors differ only
in the shape of the detection efficiency applied on top:

* angle-independent: eta depends on the hidden point only, so the
  non-detection probability never reacts to the analyzer setting;
* lambda-independent: eta depends on the analyzer angle only, shared by
  every hidden point;
* unconstrained (nondegenerate): eta varies with both and per detected
  channel, floored away from zero so no hidden point is dead.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import SettingsQuad
from .model import HiddenVariableSpace, ResponseFunction, SLHVModel

__all__ = [
    "random_quad",
    "random_angle_independent_model",
    "random_lambda_independent_model",
    "random_nondegenerate_model",
]


def random_quad(rng: np.random.Generator) -> SettingsQuad:
    return SettingsQuad(*(rng.random(4) * math.pi))


def _random_space(rng: np.random.Generator, n_lambda: int) -> HiddenVariableSpace:
    w = rng.random(n_lambda) + 1e-3
    return HiddenVariableSpace(w / w.sum())


def _ideal_params(rng: np.random.Generator, n: int):
    # Half the models get hard +-1 modulations (deterministic ideal
    # responses), which push the CHSH combination toward its bound and
    # make the property suites bite.
    if rng.random() < 0.5:
        m = rng.choice([-1.0, 1.0], size=n)
    else:
        m = rng.uniform(-1.0, 1.0, size=n)
    psi = rng.random(n) * math.pi
    return m, psi


def _pair_ideal_params(rng: np.random.Generator, n: int):
    """Ideal-response parameters for both parties, often strongly aligned."""
    m1, psi1 = _ideal_params(rng, n)
    style = rng.random()
    if style < 1 / 3:
        return (m1, psi1), (m1, psi1)
    if style < 2 / 3:
        return (m1, psi1), (-m1, psi1)
    return (m1, psi1), _ideal_params(rng, n)


def _ideal_share(m, psi, angles):
    """(k, n) ideal +1 shares at the (k,) ``angles``."""
    return 0.5 * (1.0 + m * np.cos(2.0 * (angles[:, None] - psi)))


def _lossy_model(rng: np.random.Generator, n_lambda: int, efficiency) -> SLHVModel:
    """Each party's ideal response detected with efficiency eta: the
    (k,) angles map to eta, (n,) or (k, 1), through ``efficiency()``, which
    draws its parameters once per party."""
    space = _random_space(rng, n_lambda)
    ideal1, ideal2 = _pair_ideal_params(rng, n_lambda)

    def make_response(party, ideal):
        m, psi = ideal
        eta_at = efficiency()

        def fn(angles, lam):
            eta = eta_at(angles)
            share = _ideal_share(m, psi, angles)
            plus = eta * share
            minus = eta * (1.0 - share)
            return np.stack([plus, minus, 1.0 - plus - minus], axis=-1)

        return ResponseFunction.from_function(party, fn)

    return SLHVModel(space, make_response(1, ideal1), make_response(2, ideal2))


def random_angle_independent_model(rng: np.random.Generator,
                                   n_lambda: int = 32) -> SLHVModel:
    """Non-detection depends on the hidden point but never on the angle."""
    def efficiency():
        eta = rng.uniform(0.0, 1.0, size=n_lambda)
        return lambda angles: eta

    return _lossy_model(rng, n_lambda, efficiency)


def random_lambda_independent_model(rng: np.random.Generator,
                                    n_lambda: int = 32) -> SLHVModel:
    """Non-detection depends on the angle but is shared by all hidden points."""
    def efficiency():
        e0 = rng.uniform(0.3, 0.9)
        e1 = rng.uniform(0.0, min(e0, 1.0 - e0))
        chi = rng.random() * math.pi
        # One math.cos per angle: np.cos need not round like it.
        return lambda angles: np.array([e0 + e1 * math.cos(2.0 * (a - chi))
                                        for a in angles.tolist()])[:, None]

    return _lossy_model(rng, n_lambda, efficiency)


def random_nondegenerate_model(rng: np.random.Generator, n_lambda: int = 32) -> SLHVModel:
    """Fully setting- and point-dependent losses; every point detectable."""
    space = _random_space(rng, n_lambda)
    lo = 0.05
    ideal1, ideal2 = _pair_ideal_params(rng, n_lambda)

    def make_response(party, ideal_p):
        m, psi = ideal_p

        def eff_params():
            me = rng.uniform(-1.0, 1.0, size=n_lambda)
            pe = rng.random(n_lambda) * math.pi
            return me, pe

        me_plus, pe_plus = eff_params()
        me_minus, pe_minus = eff_params()

        def ideal(angles, lam):
            share = _ideal_share(m, psi, angles)
            return np.stack([share, 1.0 - share], axis=-1)

        def efficiency(angles, lam, r):
            me, pe = (me_plus, pe_plus) if r == 1 else (me_minus, pe_minus)
            c = np.cos(2.0 * (angles[:, None] - pe))
            return lo + (1.0 - lo) * 0.5 * (1.0 + me * c)

        return ResponseFunction.from_split(party, ideal, efficiency)

    return SLHVModel(space, make_response(1, ideal1), make_response(2, ideal2))

