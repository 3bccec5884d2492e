"""Random SLHV model generators for property suites and demos.

Each generator draws a formula-defined model valid at every angle.  The
ideal two-channel response of party k at hidden point i is

    p_plus = (1 + m_i * cos 2(angle - psi_i)) / 2

with per-point modulation m_i in [-1, 1] and phase psi_i, which is a
proper distribution at any angle.  Each detected channel keeps its share
with its own efficiency, ``p_plus * eta_plus`` and ``(1 - p_plus) *
eta_minus``, and the rest is non-detection.  One body (``_lossy_model``)
builds every model; each generator supplies only the per-channel
efficiencies:

* angle-independent: eta depends on the hidden point only, the same in
  both channels, so the non-detection probability never reacts to the
  analyzer setting;
* lambda-independent: eta depends on the analyzer angle only, the same
  in both channels and shared by every hidden point;
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
    """Each party's ideal response detected channel by channel:
    ``efficiency()`` draws its parameters once per party and returns
    ``eta_at``, which maps the (k,) angles to the (eta_plus, eta_minus)
    efficiencies, each (n,), (k, 1) or (k, n)."""
    space = _random_space(rng, n_lambda)
    ideal1, ideal2 = _pair_ideal_params(rng, n_lambda)

    def make_response(party, ideal):
        m, psi = ideal
        eta_at = efficiency()

        def fn(angles, lam):
            eta_plus, eta_minus = eta_at(angles)
            share = _ideal_share(m, psi, angles)
            plus = eta_plus * share
            minus = eta_minus * (1.0 - share)
            return np.stack([plus, minus, 1.0 - plus - minus], axis=-1)

        return ResponseFunction(party, fn)

    return SLHVModel(space, make_response(1, ideal1), make_response(2, ideal2))


def random_angle_independent_model(rng: np.random.Generator,
                                   n_lambda: int = 32) -> SLHVModel:
    """Non-detection depends on the hidden point but never on the angle."""
    def efficiency():
        eta = rng.uniform(0.0, 1.0, size=n_lambda)
        return lambda angles: (eta, eta)

    return _lossy_model(rng, n_lambda, efficiency)


def random_lambda_independent_model(rng: np.random.Generator,
                                    n_lambda: int = 32) -> SLHVModel:
    """Non-detection depends on the angle but is shared by all hidden points."""
    def efficiency():
        e0 = rng.uniform(0.3, 0.9)
        e1 = rng.uniform(0.0, min(e0, 1.0 - e0))
        chi = rng.random() * math.pi

        def eta_at(angles):
            # One math.cos per angle: np.cos need not round like it.
            eta = np.array([e0 + e1 * math.cos(2.0 * (a - chi))
                            for a in angles.tolist()])[:, None]
            return eta, eta

        return eta_at

    return _lossy_model(rng, n_lambda, efficiency)


def random_nondegenerate_model(rng: np.random.Generator, n_lambda: int = 32) -> SLHVModel:
    """Fully setting- and point-dependent losses; every point detectable."""
    lo = 0.05

    def efficiency():
        # (me, pe) of the +1 channel, then of the -1 channel: the draw order
        # that the seeded models rest on.
        channels = [(rng.uniform(-1.0, 1.0, size=n_lambda), rng.random(n_lambda) * math.pi)
                    for _ in range(2)]
        return lambda angles: tuple(
            lo + (1.0 - lo) * 0.5 * (1.0 + me * np.cos(2.0 * (angles[:, None] - pe)))
            for me, pe in channels)

    return _lossy_model(rng, n_lambda, efficiency)
