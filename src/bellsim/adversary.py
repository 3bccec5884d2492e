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

    ``search`` hands the family to its worker processes by fork, never by
    pickling, so ``builder`` and ``breakpoints`` may be any callables,
    lambdas and closures included.
    """

    name: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    builder: Callable[[np.ndarray, int], SLHVModel]
    description: str = ""
    breakpoints: Callable[[SettingsQuad, int], tuple[Sequence[float] | None, ...]] | None = None

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


def _threshold_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    theta1, theta2 = float(params[0]), float(params[1])

    def response(theta):
        def fn(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
            terms = _angle_terms(tuple(angles.tolist()), n_lambda)
            # Detected points answer +1 where cos 2d >= 0 and -1 elsewhere;
            # every probability is 0 or 1.
            detect = terms.abs_cos2d >= theta
            out = np.empty(detect.shape + (3,))
            np.logical_and(detect, terms.cos2d_nonneg, out=out[..., 0])
            np.logical_and(detect, terms.cos2d_neg, out=out[..., 1])
            np.logical_not(detect, out=out[..., 2])
            return out
        return fn

    model = SLHVModel(_grid(n_lambda),
                      ResponseFunction.from_function(1, response(theta1)),
                      ResponseFunction.from_function(2, response(theta2)))
    model.meta.update(family="threshold-detection", theta1=theta1, theta2=theta2,
                      n_lambda=n_lambda, projection_active=False)
    return model


def _modulated_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    c0, c1, sharpness = (float(v) for v in params)

    def fn(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
        key = tuple(angles.tolist())
        cos2d = _angle_terms(key, n_lambda).cos2d
        share, rest = _malus_shares(key, n_lambda, sharpness)
        # The ndarray method runs np.clip's ufunc without its wrapper.
        p0 = (c0 + c1 * cos2d).clip(0.0, 1.0)
        detect = 1.0 - p0
        out = np.empty(p0.shape + (3,))
        np.multiply(detect, share, out=out[..., 0])
        np.multiply(detect, rest, out=out[..., 1])
        out[..., 2] = p0
        return out

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
    ),
    "modulated-p0": ParametricFamily(
        name="modulated-p0",
        param_names=("c0", "c1", "sharpness"),
        lower=(0.0, -0.5, 0.25),
        upper=(0.9, 0.5, 4.0),
        builder=_modulated_builder,
        description="smoothed Malus-law responder with angle-modulated "
                    "non-detection probability",
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
    TheoremViolationError.  ``search`` calls this for each distinct model,
    so every distinct model a restart visits is checked once: a live test
    of the bound against an active adversary.
    """
    q = _QuadTables(family.instantiate(params, n_lambda=n_lambda), quad, validate=False)
    try:
        value = abs(_u_eff(q, mode))
    except DegenerateModelError:
        return 0.0
    if _breach(q, mode, value - 2.0):
        raise TheoremViolationError(
            f"|U_eff| = {value!r} exceeds the cap the {mode.value} assumption "
            f"proves (family {family.name!r}, params {list(params)})")
    return value


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


def _nelder_mead(func: Callable[[list[float]], float], x0: Sequence[float],
                 lower: list[float], upper: list[float], maxfev: int
                 ) -> tuple[list[float], float, int]:
    """Minimize ``func`` over the box [lower, upper] by Nelder-Mead.

    Returns the best vertex, its value and the number of calls made; fewer
    than ``maxfev`` calls means the simplex converged (``_XATOL``,
    ``_FATOL``).  Every point passed to ``func`` lies in the box.

    The steps are scipy's bounded, non-adaptive Nelder-Mead
    (``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``, as of
    scipy 1.17) in every floating-point operation: the same initial simplex,
    reflection (1), expansion (2), contraction (0.5) and shrink (0.5)
    coefficients and arithmetic order, clipping of every trial point,
    ``np.argsort`` ordering of the vertices, and a call past ``maxfev``
    abandoning the step in progress.  So it visits the same points in the
    same order and returns the same bits (Nelder & Mead, Comput. J. 7, 308
    (1965)).
    """
    n = len(x0)
    calls = 0

    def f(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetExhausted
        calls += 1
        return func(x)

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
            fsim[k] = f(sim[k])
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
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = trial(3, xbar, -2, worst)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = trial(1.5, xbar, -0.5, worst)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = trial(0.5, xbar, 0.5, worst)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                # Each vertex moves before its call, so a call past the
                # budget leaves it moved but with its old value.
                for j in range(1, n + 1):
                    sim[j] = _clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])],
                                   lower, upper)
                    fsim[j] = f(sim[j])
        except _BudgetExhausted:
            pass
        sim, fsim = _sort_by_value(sim, fsim)
    return sim[0], fsim[0], calls


def _run_restart(config: SearchConfig, k: int) -> RestartSummary:
    """Restart ``k`` of the search: one bounded Nelder-Mead descent.

    Its start point is drawn from SeedSequence(entropy=config.seed,
    spawn_key=(k,)) and the descent (``_nelder_mead``, which takes scipy's
    bounded Nelder-Mead steps bit for bit) is deterministic, so the summary
    depends on (config, k) alone and not on the process that computes it:
    ``search`` runs it in whichever process claims ``k``.

    Each evaluation is counted, but ``objective`` runs once per memo key
    (see ``_memo_key``): points of one threshold cell, or the exact
    repeats the box clipping produces, reuse the first point's value.
    """
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
    memo: dict[Hashable, float] = {}
    trajectory: list[float] = []

    def expand(x: list[float]) -> list[float]:
        full = frozen_full.copy()
        for i, v in zip(free, x):
            full[i] = v
        return full

    def neg_abs_ueff(x: list[float]) -> float:
        full = expand(x)
        key = _memo_key(breakpoints, full)
        value = memo.get(key)
        if value is None:
            value = memo[key] = objective(fam, full, config.quad, config.mode,
                                          n_lambda=config.n_lambda)
        if not trajectory or value > trajectory[-1]:
            trajectory.append(value)
        return -value

    x_best, f_best, evals = _nelder_mead(neg_abs_ueff, x0, lower, upper,
                                         config.max_evals)
    return RestartSummary(restart_index=k, start=tuple(x0),
                          best_params=tuple(expand(x_best)),
                          best_value=float(-f_best), evaluations=evals,
                          converged=evals < config.max_evals,
                          trajectory=tuple(trajectory))


def _run_restarts(config: SearchConfig, n_workers: int) -> list[RestartSummary]:
    """Every restart's summary, in index order, from this process and
    ``n_workers - 1`` forked children.

    All of them claim restart indices from one counter in shared memory
    and run each claimed restart to the end.  A child sends the summaries
    it computed, or the exception that stopped it, over its own pipe once
    the counter runs out; an exception in any process also empties the
    counter, so the others stop claiming.  Children are forked, so they
    share ``config`` by memory and only summaries and exceptions are
    pickled.  No child outlives this call.
    """
    if n_workers == 1:
        return [_run_restart(config, k) for k in range(config.restarts)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    next_index = ctx.Value("q", 0)

    def claim_and_run() -> dict[int, RestartSummary]:
        done = {}
        while True:
            with next_index.get_lock():
                k = next_index.value
                next_index.value = k + 1
            if k >= config.restarts:
                return done
            try:
                done[k] = _run_restart(config, k)
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
    config and its index (see ``_run_restart``), and the reduction takes
    the best value with ties broken by the lowest restart index, so the
    result is identical at any ``workers`` value >= 1.  Every distinct
    model a restart visits is checked once by ``objective``; a point that
    repeats one (same memo key, see ``_run_restart``) counts as an
    evaluation and reuses its value.

    The restarts run in this process beside ``n - 1`` forked worker
    processes, ``n = min(workers, restarts, CPU count)``, which claim
    them one at a time from a shared counter (``_run_restarts``); with
    ``n = 1`` no process is started.  An exception raised in any of them
    reaches the caller, and no worker outlives the call.
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
        signed = _u_eff(q, config.mode)
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
