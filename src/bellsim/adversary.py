"""Adversarial search for detection-loophole models.

Goal: find parameters of small SLHV families whose coincidence-
normalized CHSH value exceeds 2 at a fixed quad.  Such points must
violate the angle-independent non-detection assumption; on the
parameter slice where that assumption holds by construction, no amount
of searching can beat 2.  Both facts are checked live during the
search.

Two built-in families:

* ``threshold-detection``: each party outputs the sign of
  cos 2(angle - lambda) and detects only when |cos 2(angle - lambda)|
  clears a per-party threshold.  At threshold 0 detection is certain
  (assumption satisfied); at higher thresholds the detected subset is
  strongly setting-dependent and post-selection inflates correlations.
* ``modulated-p0``: a smoothed Malus-law responder whose non-detection
  probability is c0 + c1*cos 2(angle - lambda), clipped into [0, 1].
  Freezing c1 = 0 is the assumption-satisfying slice.

The objective is evaluated exactly by the bounds module (no sampling in
the loop); the optimizer is a restarted Nelder-Mead simplex with box
projection, gradients being unavailable through the absolute value and
the clipping.  The simplex code is bellsim's own (``_nelder_mead``) and
equals scipy's bounded, non-adaptive Nelder-Mead step for step, so the
search needs no scipy at run time.

Nelder-Mead is sequential within a restart, so the restarts a process
holds are the batch a search shares its per-evaluation overhead over.
Each process runs its restarts in lockstep (``_lockstep``): every
restart's next new point goes into one batched evaluation
(``_evaluate``), whose tables carry the batch axis of
``bounds._QuadTables``.  Each restart still takes exactly the steps it
would take alone, so no result depends on which restarts share a batch.
"""

from __future__ import annotations

import math
import numbers
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .bounds import (
    EffectiveCorrelationMode,
    SettingsQuad,
    _breach,
    _mode_report,
    _QuadTables,
    _u_eff,
    chsh_sum,
)
from .model import (
    DegenerateModelError,
    ResponseFunction,
    SLHVModel,
    TheoremViolationError,
    ValidationError,
    _check_integer,
    canonical_angle,
    uniform_lambda_grid,
)
from .sampler import _pool_size

__all__ = [
    "ParametricFamily",
    "FAMILIES",
    "get_family",
    "SearchConfig",
    "RestartSummary",
    "SearchResult",
    "objective",
    "search",
]

# A restart's simplex has converged once every vertex lies within _XATOL of
# the best one in each coordinate and within _FATOL of its value.
_XATOL = 1e-6
_FATOL = 1e-10
# Parameters may sit this far outside a family's box.
_BOX_TOL = 1e-12
# A batched evaluation's response tables take at most this many bytes; a
# lockstep step with more new points evaluates them in several batches.
BATCH_TABLE_BYTES = 1 << 22
# The bytes of one point's tables per hidden point: two parties at two
# angles, three float64 outcomes each.
_POINT_TABLE_BYTES = 2 * 2 * 3 * 8


@dataclass(frozen=True)
class ParametricFamily:
    """A named map from a small parameter box to SLHV models.

    ``builder(params, n_lambda)`` returns a model whose responses follow
    the broadcast protocol of ``bellsim.model`` (k angles in, (k, n, 3)
    tables out).  It may set ``meta["projection_active"]`` on
    the model it returns: True when clipping moved a response into [0, 1].
    ``search`` reports it at the optimum, and a model without the key
    counts as unclipped (False).

    The responses may reuse read-only terms that depend only on the
    angles and some of the parameters, cached across models, as the
    built-in families do.  Each response call must still return a fresh
    table, and equal inputs must give bit-identical tables whatever the
    caches hold.

    ``breakpoints(quad, n_lambda)``, if given, returns one entry per
    parameter: the sorted values at which the tables instantiated at that
    quad and ``n_lambda`` change, or None for a parameter they depend on
    continuously.  A search keys each point on the count of breakpoints
    strictly below each such parameter (and on the exact value of every
    other one), and evaluates each key once per restart, so equal keys
    must mean bit-identical tables.

    ``response(params, party, angles, n_lambda, out)``, if given, is the
    batched form of the builder's responses: ``params`` is a (B, p) array
    of points and ``angles`` a tuple of k canonical angles, and it fills
    ``out``, a (B, k, n, 3) float array that may be a strided view, with
    the party's tables on the grid ``uniform_lambda_grid(n_lambda)``, row b
    bit-identical to the table the model ``builder(params[b], n_lambda)``
    returns.  ``search`` evaluates the new points of a lockstep step
    through it into one buffer it reuses (see ``_evaluate``); without it,
    each point is instantiated and its tables are stacked, so every model
    a family builds at one ``n_lambda`` must then have the same number of
    hidden points.  The built-in families' builders wrap their
    ``response`` code at B = 1, so each family has one response
    implementation.

    ``search`` hands the family to its worker processes by fork, never by
    pickling, so ``builder``, ``breakpoints`` and ``response`` may be any
    callables, lambdas and closures included.
    """

    name: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    builder: Callable[[np.ndarray, int], SLHVModel]
    description: str = ""
    breakpoints: Callable[[SettingsQuad, int], tuple[Sequence[float] | None, ...]] | None = None
    response: Callable[[np.ndarray, int, tuple[float, ...], int, np.ndarray], None] | None = None

    def instantiate(self, params, n_lambda: int = 720) -> SLHVModel:
        p = np.asarray(params, dtype=float)
        if p.shape != (len(self.param_names),):
            raise ValidationError(
                f"family {self.name!r} takes {len(self.param_names)} parameters "
                f"{self.param_names}, got shape {p.shape}")
        values = p.tolist()
        if not all(map(math.isfinite, values)):
            raise ValidationError(
                f"family {self.name!r} parameters must be finite, got {values}")
        n_lambda = _check_integer(n_lambda, "n_lambda", 1)
        if not all(lo - _BOX_TOL <= v <= hi + _BOX_TOL
                   for v, lo, hi in zip(values, self.lower, self.upper)):
            raise ValidationError(
                f"parameters {values} outside box "
                f"[{self.lower}, {self.upper}] for family {self.name!r}")
        return self.builder(p, n_lambda)

    def params_dict(self, params) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.param_names, params)}


# A search instantiates thousands of models on one grid at one quad.  The
# grid, the response terms that depend only on the angles and the grid, and
# modulated-p0's Malus shares, which depend on them and the sharpness alone,
# are computed once and shared read-only, so each evaluation runs only the
# operations that depend on the other parameters.  The family responses
# read the grid through this cache: ``lam`` is always the model's own grid.
_grid = lru_cache(maxsize=8)(uniform_lambda_grid)


class _AngleTerms(NamedTuple):
    """Functions of d = angle - lambda, each (k, n_lambda)."""

    cos2d: np.ndarray
    abs_cos2d: np.ndarray
    cos2d_nonneg: np.ndarray  # bool
    cos2d_neg: np.ndarray  # bool
    cos_sq: np.ndarray
    sin_sq: np.ndarray


@lru_cache(maxsize=64)
def _angle_terms(angles: tuple[float, ...], n_lambda: int) -> _AngleTerms:
    """The terms at each of the k ``angles`` over the family grid."""
    d = np.asarray(angles)[:, None] - _grid(n_lambda).values
    c = np.cos(2.0 * d)
    terms = _AngleTerms(c, np.abs(c), c >= 0.0, c < 0.0,
                        np.cos(d) ** 2, np.sin(d) ** 2)
    for t in terms:
        t.setflags(write=False)
    return terms


# On the c1 = 0 slice U_eff does not depend on c0 and the optimum lies on
# the sharpness box top, so a search there evaluates most points at a
# sharpness it has just used.  Each entry holds two (k, n_lambda) arrays.
_MALUS_CACHE_SIZE = 16


@lru_cache(maxsize=_MALUS_CACHE_SIZE)
def _malus_shares(angles: tuple[float, ...], n_lambda: int,
                  sharpness: float) -> tuple[np.ndarray, np.ndarray]:
    """The Malus shares cos^2s d / (cos^2s d + sin^2s d) and one minus them."""
    terms = _angle_terms(angles, n_lambda)
    w_plus, w_minus = terms.cos_sq, terms.sin_sq
    if sharpness != 1.0:
        w_plus = w_plus ** sharpness
        w_minus = w_minus ** sharpness
    share = w_plus / (w_plus + w_minus)
    rest = 1.0 - share
    share.setflags(write=False)
    rest.setflags(write=False)
    return share, rest


@lru_cache(maxsize=64)
def _abs_cos2d_breakpoints(angles: tuple[float, ...], n_lambda: int) -> tuple[float, ...]:
    """The distinct values of |cos 2d| at ``angles`` over the grid, sorted."""
    # Not np.unique, whose first call imports numpy.ma.
    return tuple(sorted(set(_angle_terms(angles, n_lambda).abs_cos2d.ravel().tolist())))


def _threshold_breakpoints(quad: SettingsQuad, n_lambda: int) -> tuple[tuple[float, ...], ...]:
    # A party's detection mask |cos 2d| >= theta changes only when theta
    # crosses one of its values.  The angles are reduced as the response
    # call reduces them, so the values are those the builder compares.
    return tuple(
        _abs_cos2d_breakpoints(tuple(canonical_angle(a) for a in angles), n_lambda)
        for angles in (quad.party1_angles(), quad.party2_angles()))


def _threshold_tables(theta, angles: tuple[float, ...], n_lambda: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The (..., k, n, 3) tables at the thresholds ``theta``, in ``out`` or
    a new array: a float for one model's (k, n, 3), a (B, 1, 1) array for a
    batch's (B, k, n, 3)."""
    terms = _angle_terms(angles, n_lambda)
    # Detected points answer +1 where cos 2d >= 0 and -1 elsewhere; every
    # probability is 0 or 1.
    detect = terms.abs_cos2d >= theta
    if out is None:
        out = np.empty(detect.shape + (3,))
    np.logical_and(detect, terms.cos2d_nonneg, out=out[..., 0])
    np.logical_and(detect, terms.cos2d_neg, out=out[..., 1])
    np.logical_not(detect, out=out[..., 2])
    return out


def _threshold_response(params: np.ndarray, party: int, angles: tuple[float, ...],
                        n_lambda: int, out: np.ndarray) -> None:
    _threshold_tables(params[:, party - 1, None, None], angles, n_lambda, out)


def _threshold_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    theta1, theta2 = float(params[0]), float(params[1])

    def response(theta):
        def fn(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
            return _threshold_tables(theta, tuple(angles.tolist()), n_lambda)
        return fn

    model = SLHVModel(_grid(n_lambda),
                      ResponseFunction.from_function(1, response(theta1)),
                      ResponseFunction.from_function(2, response(theta2)))
    model.meta.update(family="threshold-detection", theta1=theta1, theta2=theta2,
                      n_lambda=n_lambda, projection_active=False)
    return model


def _modulated_tables(c0, c1, shares, angles: tuple[float, ...], n_lambda: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The (..., k, n, 3) tables at ``c0`` and ``c1`` with the Malus
    ``shares`` (share, rest), in ``out`` or a new array: floats and (k, n)
    arrays for one model's (k, n, 3), (B, 1, 1) and (B, k, n) arrays for a
    batch's (B, k, n, 3)."""
    share, rest = shares
    cos2d = _angle_terms(angles, n_lambda).cos2d
    # The ndarray method runs np.clip's ufunc without its wrapper.
    p0 = (c0 + c1 * cos2d).clip(0.0, 1.0)
    detect = 1.0 - p0
    if out is None:
        out = np.empty(p0.shape + (3,))
    np.multiply(detect, share, out=out[..., 0])
    np.multiply(detect, rest, out=out[..., 1])
    out[..., 2] = p0
    return out


def _modulated_response(params: np.ndarray, party: int, angles: tuple[float, ...],
                        n_lambda: int, out: np.ndarray) -> None:
    # Each sharpness's cached shares, stacked: a power with an array of
    # exponents need not round as the power with one exponent does.
    pairs = [_malus_shares(angles, n_lambda, s) for s in params[:, 2].tolist()]
    shares = [np.stack([pair[i] for pair in pairs]) for i in (0, 1)]
    _modulated_tables(params[:, 0, None, None], params[:, 1, None, None], shares,
                      angles, n_lambda, out)


def _modulated_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    c0, c1, sharpness = (float(v) for v in params)

    def fn(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
        key = tuple(angles.tolist())
        return _modulated_tables(c0, c1, _malus_shares(key, n_lambda, sharpness), key,
                                 n_lambda)

    model = SLHVModel(_grid(n_lambda),
                      ResponseFunction.from_function(1, fn),
                      ResponseFunction.from_function(2, fn))
    # c0 + c1*cos spans [c0 - |c1|, c0 + |c1|] over the angles, so the
    # clip into [0, 1] binds at some angle exactly when that range leaves it.
    model.meta.update(family="modulated-p0", c0=c0, c1=c1, sharpness=sharpness,
                      n_lambda=n_lambda,
                      projection_active=c0 - abs(c1) < 0.0 or c0 + abs(c1) > 1.0)
    return model


FAMILIES: dict[str, ParametricFamily] = {
    "threshold-detection": ParametricFamily(
        name="threshold-detection",
        param_names=("theta1", "theta2"),
        lower=(0.0, 0.0),
        upper=(0.999, 0.999),
        builder=_threshold_builder,
        description="sign-of-cosine responder, detects only above a "
                    "per-party |cos| threshold",
        breakpoints=_threshold_breakpoints,
        response=_threshold_response,
    ),
    "modulated-p0": ParametricFamily(
        name="modulated-p0",
        param_names=("c0", "c1", "sharpness"),
        lower=(0.0, -0.5, 0.25),
        upper=(0.9, 0.5, 4.0),
        builder=_modulated_builder,
        description="smoothed Malus-law responder with angle-modulated "
                    "non-detection probability",
        response=_modulated_response,
    ),
}


def get_family(name: str) -> ParametricFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown family {name!r}; available: {sorted(FAMILIES)}") from None


@dataclass(frozen=True)
class SearchConfig:
    family: ParametricFamily
    quad: SettingsQuad
    mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1
    restarts: int = 20
    max_evals: int = 2000
    seed: int = 0
    n_lambda: int = 720
    freeze: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, minimum in (("restarts", 1), ("max_evals", 10), ("seed", 0),
                              ("n_lambda", 1)):
            object.__setattr__(self, name,
                               _check_integer(getattr(self, name), name, minimum))
        fam = self.family
        unknown = set(self.freeze) - set(fam.param_names)
        if unknown:
            raise ValidationError(
                f"cannot freeze unknown parameters {sorted(unknown)}")
        for name, v in self.freeze.items():
            i = fam.param_names.index(name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not math.isfinite(v):
                raise ValidationError(
                    f"frozen parameter {name!r} must be a finite number, got {v!r}")
            if not fam.lower[i] - _BOX_TOL <= v <= fam.upper[i] + _BOX_TOL:
                raise ValidationError(
                    f"frozen parameter {name!r} = {v!r} is outside the box "
                    f"[{fam.lower[i]}, {fam.upper[i]}] of family {fam.name!r}")
        if len(self.freeze) == len(self.family.param_names):
            raise ValidationError("at least one parameter must remain free")


@dataclass(frozen=True)
class RestartSummary:
    restart_index: int
    start: tuple[float, ...]
    best_params: tuple[float, ...]
    best_value: float
    evaluations: int
    converged: bool
    # Best-so-far |U_eff| recorded at each improvement; nondecreasing.
    trajectory: tuple[float, ...] = ()


@dataclass(frozen=True)
class SearchResult:
    best_parameters: dict[str, float]
    best_u_eff: float
    best_u_eff_signed: float
    assumption_solution1: bool
    assumption_solution2: bool
    evaluation_count: int
    restarts: tuple[RestartSummary, ...]
    budget_exhausted: bool
    degenerate_best: bool
    # The optimum model's meta flag: the family's clip into [0, 1] binds there.
    projection_active_at_optimum: bool
    config_summary: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "best_parameters": dict(self.best_parameters),
            "best_u_eff": self.best_u_eff,
            "best_u_eff_signed": self.best_u_eff_signed,
            "assumptions_at_optimum": {
                "solution1_passed": self.assumption_solution1,
                "solution2_passed": self.assumption_solution2,
            },
            "evaluation_count": self.evaluation_count,
            "budget_exhausted": self.budget_exhausted,
            "degenerate_best": self.degenerate_best,
            "projection_active_at_optimum": self.projection_active_at_optimum,
            "restarts": [
                {
                    "restart": r.restart_index,
                    "start": list(r.start),
                    "best_params": list(r.best_params),
                    "best_value": r.best_value,
                    "evaluations": r.evaluations,
                    "converged": r.converged,
                    "trajectory": list(r.trajectory),
                }
                for r in self.restarts
            ],
            "config": dict(self.config_summary),
        }


def objective(family: ParametricFamily, params, quad: SettingsQuad,
              mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1,
              n_lambda: int = 720) -> float:
    """|U_eff| of the instantiated model, exactly; 0 for degenerate points.

    A value above the cap its premise proves for the same tables (the
    check behind ``effective_chsh``'s ``theorem_breach``) raises
    TheoremViolationError.  This is ``search``'s evaluation of a batch of
    one (see ``_abs_u_eff``): a search evaluates its points in batches
    instead, with bit-identical values, and checks every distinct model a
    restart visits once, a live test of the bound against an active
    adversary.
    """
    q = _QuadTables(family.instantiate(params, n_lambda=n_lambda), quad, validate=False)
    return float(_abs_u_eff(q, mode, family, np.asarray(params, dtype=float)[None])[0])


def _abs_u_eff(q: _QuadTables, mode: EffectiveCorrelationMode, family: ParametricFamily,
               params: np.ndarray) -> np.ndarray:
    """|U_eff| of each source of the batch ``q``, the family's models at the
    (B, p) ``params``; 0 where a pair is degenerate.  A value above the cap
    its premise proves raises TheoremViolationError, naming the first such
    point."""
    value, dead = q.e_eff(mode)
    u = np.abs(chsh_sum(value))
    u[dead.any(axis=1)] = 0.0
    breach = _breach(q, mode, u - 2.0)
    if breach.any():
        b = int(np.argmax(breach))
        raise TheoremViolationError(
            f"|U_eff| = {float(u[b])!r} exceeds the cap the {mode.value} assumption "
            f"proves (family {family.name!r}, params {params[b].tolist()})")
    return u


def _batch_rows(config: SearchConfig) -> int:
    """The most points a batch evaluates: BATCH_TABLE_BYTES of tables at
    ``config.n_lambda`` hidden points, and at least one."""
    return max(1, BATCH_TABLE_BYTES // (_POINT_TABLE_BYTES * config.n_lambda))


def _evaluate(config: SearchConfig, points: list[list[float]],
              workspace: np.ndarray | None) -> list[float]:
    """``objective`` at each full parameter vector of ``points``, in
    batches of at most ``_batch_rows(config)`` points.

    A family with ``response`` fills the first rows of ``workspace``, a
    (rows, party, angle, n_lambda, 3) array with a row per point of a batch
    that its caller reuses, with each batch's tables in one call per
    party: a fresh array per batch would make the allocator return and
    refetch its pages at every step.  Any other family has each point
    instantiated and its tables stacked, and needs no workspace.
    """
    fam = config.family
    angles = (config.quad.party1_angles(), config.quad.party2_angles())
    rows = _batch_rows(config)
    values = []
    for start in range(0, len(points), rows):
        params = np.array(points[start:start + rows])
        if fam.response is not None:
            w = _grid(config.n_lambda).weights[None]
            t = workspace[:len(params)]
            for party, angs in enumerate(angles, start=1):
                fam.response(params, party, angs, config.n_lambda, t[:, party - 1])
        else:
            models = [fam.instantiate(p, n_lambda=config.n_lambda) for p in params]
            if len({m.space.size for m in models}) > 1:
                raise ValidationError(
                    f"family {fam.name!r} builds models of different sizes at "
                    f"n_lambda = {config.n_lambda}")
            w = np.stack([m.space.weights for m in models])
            t = np.stack([np.stack([m.tables(party, angs, validate=False) for m in models])
                          for party, angs in enumerate(angles, start=1)], axis=1)
        q = _QuadTables.from_tables(w, t, angles)
        values += _abs_u_eff(q, config.mode, fam, params).tolist()
    return values


def _memo_key(breakpoints: tuple[Sequence[float] | None, ...] | None,
              full: Sequence[float]) -> Hashable:
    """The restart memo's key for the clipped parameter vector ``full``.

    A parameter with breakpoints b is keyed on the count of breakpoints
    strictly below it, which fixes every comparison ``x >= value`` against
    them, a value equal to a breakpoint included; any other parameter is
    keyed on its exact bytes, so that 0.0 and -0.0 stay apart.
    """
    if breakpoints is None:
        return struct.pack(f"{len(full)}d", *full)
    return tuple(bisect_left(b, v) if b is not None else struct.pack("d", v)
                 for b, v in zip(breakpoints, full))


class _BudgetExhausted(Exception):
    """A call past ``maxfev``: it aborts the current Nelder-Mead step."""


def _clip(x: Sequence[float], lower: list[float], upper: list[float]) -> list[float]:
    # np.clip's order, which decides the sign of a zero on the box edge.
    clipped = []
    for v, lo, hi in zip(x, lower, upper):
        v = v if v > lo else lo
        clipped.append(v if v < hi else hi)
    return clipped


def _sort_by_value(sim: list[list[float]], fsim: list[float]
                   ) -> tuple[list[list[float]], list[float]]:
    # np.argsort, not sorted(): its order among equal values decides the
    # later steps on a plateau.
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(x0: Sequence[float], lower: list[float], upper: list[float],
                 maxfev: int):
    """Minimize over the box [lower, upper] by Nelder-Mead, as a generator.

    It yields each trial point and takes the point's value by ``send``;
    it returns the best vertex, its value and the number of points
    yielded.  Fewer than ``maxfev`` points means the simplex converged
    (``_XATOL``, ``_FATOL``).  Every point yielded lies in the box.  A
    caller drives it with ``x = steps.send(value)`` until StopIteration,
    so several restarts can run side by side and have their points
    evaluated together (``_lockstep``).

    The steps are scipy's bounded, non-adaptive Nelder-Mead
    (``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``, as of
    scipy 1.17) in every floating-point operation: the same initial simplex,
    reflection (1), expansion (2), contraction (0.5) and shrink (0.5)
    coefficients and arithmetic order, clipping of every trial point,
    ``np.argsort`` ordering of the vertices, and a point past ``maxfev``
    abandoning the step in progress.  So it visits the same points in the
    same order and returns the same bits (Nelder & Mead, Comput. J. 7, 308
    (1965)).
    """
    n = len(x0)
    calls = 0

    def f(x: list[float]):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetExhausted
        calls += 1
        return (yield x)

    x0 = _clip(x0, lower, upper)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # A vertex pushed past the top of the box is reflected back into it.
    sim = [_clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)], lower, upper)
           for y in sim]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetExhausted:
        pass
    sim, fsim = _sort_by_value(sim, fsim)
    sim, fsim = _sort_by_value(sim, fsim)

    def trial(a: float, xbar: list[float], b: float, w: list[float]) -> list[float]:
        # a*xbar + b*w, clipped.  With the a and b below this is bit-equal
        # to the usual (1 + rho)*xbar - rho*w forms, since x + (-y) == x - y.
        return _clip([a * c + b * v for c, v in zip(xbar, w)], lower, upper)

    while calls < maxfev:
        try:
            best = sim[0]
            if (all(abs(v - b) <= _XATOL for y in sim[1:] for v, b in zip(y, best))
                    and all(abs(fsim[0] - fv) <= _FATOL for fv in fsim[1:])):
                break
            # The centroid of the best n vertices, summed in vertex order.
            xbar = []
            for i in range(n):
                total = 0.0
                for y in sim[:-1]:
                    total += y[i]
                xbar.append(total / n)
            worst = sim[-1]
            xr = trial(2, xbar, -1, worst)
            fxr = yield from f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = trial(3, xbar, -2, worst)
                fxe = yield from f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = trial(1.5, xbar, -0.5, worst)
                fxc = yield from f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = trial(0.5, xbar, 0.5, worst)
                fxcc = yield from f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                # Each vertex moves before its point is yielded, so a point
                # past the budget leaves it moved but with its old value.
                for j in range(1, n + 1):
                    sim[j] = _clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])],
                                   lower, upper)
                    fsim[j] = yield from f(sim[j])
        except _BudgetExhausted:
            pass
        sim, fsim = _sort_by_value(sim, fsim)
    return sim[0], fsim[0], calls


class _Restart:
    """Restart ``k`` of a search in flight: one bounded Nelder-Mead descent
    (``_nelder_mead``) with its memo of values and its trajectory.

    Its start point is drawn from SeedSequence(entropy=config.seed,
    spawn_key=(k,)) and the descent is deterministic, so its summary
    depends on (config, k) alone and not on the process that runs it or
    on the restarts beside it.  Each point counts as an evaluation, but
    each memo key (see ``_memo_key``) is evaluated once: points of one
    threshold cell, or the exact repeats the box clipping produces, reuse
    the first point's value.
    """

    def __init__(self, config: SearchConfig, k: int, breakpoints):
        fam = config.family
        self.k, self.breakpoints, self.maxfev = k, breakpoints, config.max_evals
        self.free = [i for i, n in enumerate(fam.param_names) if n not in config.freeze]
        lower = [float(fam.lower[i]) for i in self.free]
        upper = [float(fam.upper[i]) for i in self.free]
        self.frozen_full = [float(config.freeze.get(n, lo))
                            for n, lo in zip(fam.param_names, fam.lower)]
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))))
        self.x0 = [lo + r * (hi - lo)
                   for lo, hi, r in zip(lower, upper, rng.random(len(self.free)).tolist())]
        self.steps = _nelder_mead(self.x0, lower, upper, config.max_evals)
        self.memo: dict[Hashable, float] = {}
        self.trajectory: list[float] = []
        self.full: list[float] = []
        self.key: Hashable = None
        self.summary: RestartSummary | None = None

    def expand(self, x: list[float]) -> list[float]:
        full = self.frozen_full.copy()
        for i, v in zip(self.free, x):
            full[i] = v
        return full

    def advance(self, value: float | None = None) -> bool:
        """Take ``value`` for the pending point (None to start) and run the
        descent on, answering memo hits, to its next new point (``full``,
        ``key``).  False once the descent has finished (``summary``)."""
        while True:
            try:
                if value is None:
                    x = next(self.steps)
                else:
                    if not self.trajectory or value > self.trajectory[-1]:
                        self.trajectory.append(value)
                    x = self.steps.send(-value)
            except StopIteration as stop:
                x_best, f_best, evals = stop.value
                self.summary = RestartSummary(
                    restart_index=self.k, start=tuple(self.x0),
                    best_params=tuple(self.expand(x_best)), best_value=float(-f_best),
                    evaluations=evals, converged=evals < self.maxfev,
                    trajectory=tuple(self.trajectory))
                return False
            full = self.expand(x)
            key = _memo_key(self.breakpoints, full)
            value = self.memo.get(key)
            if value is None:
                self.full, self.key = full, key
                return True


def _breakpoints(config: SearchConfig) -> tuple[list[float] | None, ...] | None:
    """The family's breakpoints at the config's quad and grid, as lists."""
    fam = config.family
    if fam.breakpoints is None:
        return None
    breakpoints = fam.breakpoints(config.quad, config.n_lambda)
    if len(breakpoints) != len(fam.param_names):
        raise ValidationError(
            f"family {fam.name!r} declares breakpoints for {len(breakpoints)} "
            f"parameters, not {len(fam.param_names)}")
    return tuple(None if b is None else np.asarray(b).tolist() for b in breakpoints)


def _lockstep(config: SearchConfig, claim: Callable[[], int | None],
              slots: int) -> dict[int, RestartSummary]:
    """Run the restarts ``claim`` hands out, up to ``slots`` of them at a
    time, and return their summaries by index.

    ``claim()`` returns the next restart index or None once there are no
    more; a finished restart's slot is refilled by another claim.  The
    restarts advance in lockstep: each step answers every restart's memo
    hits inline until it reaches a new point, evaluates the new points of
    all of them together (``_evaluate``), and sends each restart its
    value.
    """
    breakpoints = _breakpoints(config)
    workspace = None
    if config.family.response is not None:
        workspace = np.empty((min(slots, _batch_rows(config)), 2, 2, config.n_lambda, 3))
    done: dict[int, RestartSummary] = {}
    active: list[_Restart] = []
    while True:
        while len(active) < slots:
            k = claim()
            if k is None:
                break
            restart = _Restart(config, k, breakpoints)
            if restart.advance():
                active.append(restart)
            else:
                done[k] = restart.summary
        if not active:
            return done
        values = _evaluate(config, [r.full for r in active], workspace)
        running = []
        for restart, value in zip(active, values):
            restart.memo[restart.key] = value
            if restart.advance(value):
                running.append(restart)
            else:
                done[restart.k] = restart.summary
        active = running


def _run_restarts(config: SearchConfig, n_workers: int) -> list[RestartSummary]:
    """Every restart's summary, in index order, from this process and
    ``n_workers - 1`` forked children.

    All of them claim restart indices from one counter in shared memory
    and run up to ceil(restarts / n_workers) of them in lockstep
    (``_lockstep``), claiming another whenever one finishes.  A child sends
    the summaries it computed, or the exception that stopped it, over its
    own pipe once the counter runs out; an exception in any process also
    empties the counter, so the others stop claiming.  Children are
    forked, so they share ``config`` by memory and only summaries and
    exceptions are pickled.  No child outlives this call.
    """
    slots = -(-config.restarts // n_workers)
    if n_workers == 1:
        indices = iter(range(config.restarts))
        summaries = _lockstep(config, lambda: next(indices, None), slots)
        return [summaries[k] for k in range(config.restarts)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    next_index = ctx.Value("q", 0)

    def claim() -> int | None:
        with next_index.get_lock():
            k = next_index.value
            next_index.value = k + 1
        return k if k < config.restarts else None

    def claim_and_run() -> dict[int, RestartSummary]:
        try:
            return _lockstep(config, claim, slots)
        except BaseException:
            with next_index.get_lock():
                next_index.value = config.restarts
            raise

    children, readers = [], []
    try:
        for _ in range(n_workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            child = ctx.Process(target=_report, args=(claim_and_run, writer), daemon=True)
            try:
                child.start()
            finally:
                writer.close()  # the child's copy stays open until it reports
            children.append(child)
        summaries = claim_and_run()
        for child, reader in zip(children, readers):
            try:
                ok, payload = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"search worker {child.pid} exited with code {child.exitcode} "
                    "without reporting its restarts") from None
            if not ok:
                raise payload
            summaries.update(payload)
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.join()
        for reader in readers:
            reader.close()
    return [summaries[k] for k in range(config.restarts)]


def _report(work: Callable[[], dict], writer) -> None:
    """A search worker's body: send ``(True, work())``, or ``(False, exc)``
    for the exception that stopped it."""
    try:
        result = (True, work())
    except Exception as exc:  # the caller re-raises it
        result = (False, exc)
    writer.send(result)
    writer.close()


def search(config: SearchConfig, workers: int = 1) -> SearchResult:
    """Restarted Nelder-Mead maximization of |U_eff| over the family box.

    The simplex code is bellsim's own (``_nelder_mead``) and equals
    scipy's bounded, non-adaptive Nelder-Mead step for step.
    Deterministic given the seed: each restart depends only on the
    config and its index (see ``_Restart``), and the reduction takes
    the best value with ties broken by the lowest restart index, so the
    result is identical at any ``workers`` value >= 1.  Every distinct
    model a restart visits is evaluated once, with the value and the
    bound check of ``objective``; a point that repeats one (same memo
    key, see ``_memo_key``) counts as an evaluation and reuses its value.

    The restarts run in this process beside ``n - 1`` forked worker
    processes, ``n = min(workers, restarts, CPU count)``, which claim
    them from a shared counter (``_run_restarts``); with ``n = 1`` no
    process is started.  Each process keeps up to ceil(restarts / n)
    restarts in flight and evaluates their new points together, one
    batch per lockstep step (``_lockstep``).  An exception raised in any
    process reaches the caller, and no worker outlives the call.
    """
    summaries = _run_restarts(config, _pool_size(workers, config.restarts))
    fam = config.family
    best = max(summaries, key=lambda s: (s.best_value, -s.restart_index))
    best_full = np.asarray(best.best_params)

    # Re-derive everything at the reported optimum from validated tables
    # so the stored parameters alone reproduce the result.
    best_model = fam.instantiate(best_full, n_lambda=config.n_lambda)
    q = _QuadTables(best_model, config.quad)
    try:
        signed = _u_eff(q, config.mode)[0]
        degenerate = False
    except DegenerateModelError:
        signed = 0.0
        degenerate = True
    sol1 = _mode_report(q, EffectiveCorrelationMode.SOLUTION1).passed
    sol2 = _mode_report(q, EffectiveCorrelationMode.SOLUTION2).passed

    return SearchResult(
        best_parameters=fam.params_dict(best_full),
        best_u_eff=abs(float(signed)),
        best_u_eff_signed=float(signed),
        assumption_solution1=sol1,
        assumption_solution2=sol2,
        evaluation_count=sum(s.evaluations for s in summaries),
        restarts=tuple(summaries),
        budget_exhausted=any(not s.converged for s in summaries),
        degenerate_best=degenerate,
        projection_active_at_optimum=best_model.meta.get("projection_active", False),
        config_summary={
            "family": fam.name,
            "quad_degrees": list(config.quad.to_degrees()),
            "mode": config.mode.value,
            "restarts": config.restarts,
            "max_evals": config.max_evals,
            "seed": config.seed,
            "n_lambda": config.n_lambda,
            "freeze": dict(config.freeze),
        },
    )
