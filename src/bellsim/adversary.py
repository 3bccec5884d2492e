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

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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


@dataclass(frozen=True)
class ParametricFamily:
    """A named map from a small parameter box to SLHV models.

    ``builder(params, n_lambda)`` may set ``meta["projection_active"]`` on
    the model it returns: True when clipping moved a response into [0, 1].
    ``search`` reports it at the optimum, and a model without the key
    counts as unclipped (False).
    """

    name: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    builder: Callable[[np.ndarray, int], SLHVModel]
    description: str = ""

    def instantiate(self, params, n_lambda: int = 720) -> SLHVModel:
        p = np.asarray(params, dtype=float)
        if p.shape != (len(self.param_names),):
            raise ValidationError(
                f"family {self.name!r} takes {len(self.param_names)} parameters "
                f"{self.param_names}, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError(
                f"family {self.name!r} parameters must be finite, got {p.tolist()}")
        if int(n_lambda) < 1:
            raise ValidationError(f"n_lambda must be >= 1, got {n_lambda!r}")
        if np.any(p < np.asarray(self.lower) - 1e-12) or \
                np.any(p > np.asarray(self.upper) + 1e-12):
            raise ValidationError(
                f"parameters {p.tolist()} outside box "
                f"[{self.lower}, {self.upper}] for family {self.name!r}")
        return self.builder(p, int(n_lambda))

    def params_dict(self, params) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.param_names, params)}


def _threshold_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    theta1, theta2 = float(params[0]), float(params[1])
    space = uniform_lambda_grid(n_lambda)

    def response(theta):
        def fn(angle: float, lam: np.ndarray) -> np.ndarray:
            c = np.cos(2.0 * (angle - lam))
            detect = (np.abs(c) >= theta).astype(float)
            plus = detect * (c >= 0.0)
            minus = detect * (c < 0.0)
            return np.column_stack([plus, minus, 1.0 - detect])
        return fn

    model = SLHVModel(space,
                      ResponseFunction.from_function(1, response(theta1)),
                      ResponseFunction.from_function(2, response(theta2)))
    model.meta.update(family="threshold-detection", theta1=theta1, theta2=theta2,
                      n_lambda=n_lambda, projection_active=False)
    return model


def _modulated_builder(params: np.ndarray, n_lambda: int) -> SLHVModel:
    c0, c1, sharpness = (float(v) for v in params)
    space = uniform_lambda_grid(n_lambda)

    def fn(angle: float, lam: np.ndarray) -> np.ndarray:
        p0 = np.clip(c0 + c1 * np.cos(2.0 * (angle - lam)), 0.0, 1.0)
        w_plus = np.cos(angle - lam) ** 2
        w_minus = np.sin(angle - lam) ** 2
        if sharpness != 1.0:
            w_plus = w_plus ** sharpness
            w_minus = w_minus ** sharpness
        share = w_plus / (w_plus + w_minus)
        detect = 1.0 - p0
        plus = detect * share
        minus = detect * (1.0 - share)
        return np.column_stack([plus, minus, p0])

    model = SLHVModel(space,
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
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_evals < 10:
            raise ValidationError("max_evals must be >= 10")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        unknown = set(self.freeze) - set(self.family.param_names)
        if unknown:
            raise ValidationError(
                f"cannot freeze unknown parameters {sorted(unknown)}")
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
    same tables; otherwise TheoremViolationError is raised.  Every
    evaluation is thus a live test of the bound against an active
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


def _run_restart(config: SearchConfig, k: int) -> RestartSummary:
    """Restart ``k`` of the search: one bounded Nelder-Mead descent.

    Its start point is drawn from SeedSequence(entropy=config.seed,
    spawn_key=(k,)) and the descent is deterministic, so the summary
    depends on (config, k) alone and not on the process that computes it.
    A module-level function so that a process pool can pickle it; the
    family's builder travels with ``config`` and must pickle too.
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
    evals = 0
    trajectory: list[float] = []

    def neg_abs_ueff(x_free):
        nonlocal evals
        evals += 1
        x = np.clip(x_free, lower[free_idx], upper[free_idx])
        full = _expand(free_idx, frozen_full, x)
        value = objective(fam, full, config.quad, config.mode,
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
    result is identical at any ``workers`` value >= 1.

    With ``min(workers, restarts, CPU count) > 1`` the restarts run on a
    process pool of that many workers; otherwise they run serially in this
    process, which avoids the pool's start-up cost for small searches.
    The pool uses the ``fork`` start method, named explicitly because
    Python 3.14 changes the default on Linux.  Forked children inherit
    this process's modules, so scipy is imported here, before the pool
    starts, and no child imports it again (a spawned child would re-import
    bellsim and scipy, which costs a large share of a default search).
    With more than one worker each restart is pickled by reference, so
    the family's builder must be a module-level callable.
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
