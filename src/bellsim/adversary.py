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
the clipping.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .bounds import (
    EffectiveCorrelationMode,
    SettingsQuad,
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

SOUNDNESS_TOL = 1e-9
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

    ``breakpoints(quad, n_lambda)``, if given, returns one entry per
    parameter: the sorted values at which the tables instantiated at that
    quad and ``n_lambda`` change, or None for a parameter they depend on
    continuously.  A search keys each point on the count of breakpoints
    strictly below each such parameter (and on the exact value of every
    other one), and evaluates each key once per restart, so equal keys
    must mean bit-identical tables.  Like ``builder``, it must be a
    module-level callable, so that it pickles with the restarts.
    """

    name: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    builder: Callable[[np.ndarray, int], SLHVModel]
    description: str = ""
    breakpoints: Callable[[SettingsQuad, int], tuple[np.ndarray | None, ...]] | None = None

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
# grid and the response terms that depend only on the angles and the grid
# are computed once and shared read-only, so each evaluation runs only the
# operations that depend on the parameters.  The family responses read the
# grid through this cache: ``lam`` is always the model's own grid.
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


@lru_cache(maxsize=64)
def _abs_cos2d_breakpoints(angles: tuple[float, ...], n_lambda: int) -> np.ndarray:
    """The distinct values of |cos 2d| at ``angles`` over the grid, sorted."""
    b = np.unique(_angle_terms(angles, n_lambda).abs_cos2d)
    b.setflags(write=False)
    return b


def _threshold_breakpoints(quad: SettingsQuad, n_lambda: int) -> tuple[np.ndarray, ...]:
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
            return np.stack([detect & terms.cos2d_nonneg, detect & terms.cos2d_neg,
                             ~detect], axis=-1).astype(float)
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
        terms = _angle_terms(tuple(angles.tolist()), n_lambda)
        p0 = np.clip(c0 + c1 * terms.cos2d, 0.0, 1.0)
        w_plus, w_minus = terms.cos_sq, terms.sin_sq
        if sharpness != 1.0:
            w_plus = w_plus ** sharpness
            w_minus = w_minus ** sharpness
        share = w_plus / (w_plus + w_minus)
        detect = 1.0 - p0
        plus = detect * share
        minus = detect * (1.0 - share)
        return np.stack([plus, minus, p0], axis=-1)

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

    A value above 2 must fail the mode's own assumption validator (the
    one ``effective_chsh`` uses for ``bound_guaranteed``), read from the
    same tables; otherwise TheoremViolationError is raised.  ``search``
    calls this for each distinct model, so every distinct model a restart
    visits is checked once: a live test of the bound against an active
    adversary.
    """
    q = _QuadTables(family.instantiate(params, n_lambda=n_lambda), quad, validate=False)
    try:
        value = abs(_u_eff(q, mode))
    except DegenerateModelError:
        return 0.0
    if value > 2.0 + SOUNDNESS_TOL and _mode_report(q, mode).passed:
        raise TheoremViolationError(
            f"|U_eff| = {value!r} > 2 for a model satisfying the {mode.value} "
            f"assumption (family {family.name!r}, params {list(params)})")
    return value


def _expand(free_idx, frozen_full, x_free):
    full = frozen_full.copy()
    full[free_idx] = x_free
    return full


def _memo_key(breakpoints: tuple[np.ndarray | None, ...] | None,
              full: np.ndarray) -> Hashable:
    """The restart memo's key for the clipped parameter vector ``full``.

    A parameter with breakpoints b is keyed on the count of breakpoints
    strictly below it, which fixes every comparison ``x >= value`` against
    them, a value equal to a breakpoint included; any other parameter is
    keyed on its exact bytes.
    """
    if breakpoints is None:
        return full.tobytes()
    return tuple(int(np.searchsorted(b, v, side="left")) if b is not None else v.tobytes()
                 for b, v in zip(breakpoints, full))


def _run_restart(config: SearchConfig, k: int) -> RestartSummary:
    """Restart ``k`` of the search: one bounded Nelder-Mead descent.

    Its start point is drawn from SeedSequence(entropy=config.seed,
    spawn_key=(k,)) and the descent is deterministic, so the summary
    depends on (config, k) alone and not on the process that computes it.
    A module-level function so that a process pool can pickle it; the
    family's builder and breakpoints travel with ``config`` and must
    pickle too.

    Each evaluation is counted, but ``objective`` runs once per memo key
    (see ``_memo_key``): points of one threshold cell, or the exact
    repeats the box clipping produces, reuse the first point's value.
    """
    from scipy import optimize

    fam = config.family
    names = fam.param_names
    lower = np.asarray(fam.lower, dtype=float)
    upper = np.asarray(fam.upper, dtype=float)
    frozen_full = lower.copy()
    for name, v in config.freeze.items():
        frozen_full[names.index(name)] = float(v)
    free_idx = np.array([i for i, n in enumerate(names) if n not in config.freeze],
                        dtype=int)

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))))
    x0 = lower[free_idx] + rng.random(free_idx.size) * \
        (upper[free_idx] - lower[free_idx])
    breakpoints = (None if fam.breakpoints is None
                   else fam.breakpoints(config.quad, config.n_lambda))
    if breakpoints is not None and len(breakpoints) != len(names):
        raise ValidationError(
            f"family {fam.name!r} declares breakpoints for {len(breakpoints)} "
            f"parameters, not {len(names)}")
    memo: dict[Hashable, float] = {}
    evals = 0
    trajectory: list[float] = []

    def neg_abs_ueff(x_free):
        nonlocal evals
        evals += 1
        x = np.clip(x_free, lower[free_idx], upper[free_idx])
        full = _expand(free_idx, frozen_full, x)
        key = _memo_key(breakpoints, full)
        value = memo.get(key)
        if value is None:
            value = memo[key] = objective(fam, full, config.quad, config.mode,
                                          n_lambda=config.n_lambda)
        if not trajectory or value > trajectory[-1]:
            trajectory.append(value)
        return -value

    res = optimize.minimize(
        neg_abs_ueff, x0, method="Nelder-Mead",
        bounds=list(zip(lower[free_idx], upper[free_idx])),
        options={"maxfev": config.max_evals, "xatol": 1e-6,
                 "fatol": 1e-10, "adaptive": False})
    x_best = np.clip(res.x, lower[free_idx], upper[free_idx])
    full_best = _expand(free_idx, frozen_full, x_best)
    return RestartSummary(restart_index=k, start=tuple(x0.tolist()),
                          best_params=tuple(full_best.tolist()),
                          best_value=float(-res.fun), evaluations=evals,
                          converged=bool(res.success),
                          trajectory=tuple(trajectory))


def search(config: SearchConfig, workers: int = 1) -> SearchResult:
    """Restarted Nelder-Mead maximization of |U_eff| over the family box.

    Deterministic given the seed: each restart depends only on the
    config and its index (see ``_run_restart``), and the reduction takes
    the best value with ties broken by the lowest restart index, so the
    result is identical at any ``workers`` value >= 1.  Every distinct
    model a restart visits is checked once by ``objective``; a point that
    repeats one (same memo key, see ``_run_restart``) counts as an
    evaluation and reuses its value.

    With ``min(workers, restarts, CPU count) > 1`` the restarts run on a
    process pool of that many workers; otherwise they run serially in this
    process, which avoids the pool's start-up cost for small searches.
    The pool uses the ``fork`` start method, named explicitly because
    Python 3.14 changes the default on Linux.  Forked children inherit
    this process's modules, so scipy is imported here, before the pool
    starts, and no child imports it again (a spawned child would re-import
    bellsim and scipy, which costs a large share of a default search).
    With more than one worker each restart is pickled by reference, so
    the family's builder and breakpoints must be module-level callables.
    """
    n_workers = _pool_size(workers, config.restarts)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from scipy import optimize  # noqa: F401  loaded before the fork; see above

    fam = config.family
    run = partial(_run_restart, config)
    if n_workers > 1:
        with ProcessPoolExecutor(
                n_workers, mp_context=multiprocessing.get_context("fork")) as pool:
            summaries = list(pool.map(run, range(config.restarts)))
    else:
        summaries = list(map(run, range(config.restarts)))
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
