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
Each restart is a generator (``_restart``) that yields the new points of
its descent, takes their values by ``send`` and returns its summary.
Each search process runs a fixed share of the restarts, every n-th
index, in lockstep (``_lockstep``): every restart's next new point goes
into one batched evaluation (``_evaluate``), whose tables carry the
batch axis of ``bounds._QuadTables``, and each restart is sent its
value.  Each restart still takes exactly the steps it would take alone,
so no result depends on which restarts share a batch.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

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
    _check_instance,
    _check_integer,
    _check_real,
    _pool_size,
    uniform_lambda_grid,
)

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
# The largest grid at which one point's tables fit in BATCH_TABLE_BYTES,
# 43690 points, fixed at import: a search or a model is refused past it.
_MAX_N_LAMBDA = BATCH_TABLE_BYTES // _POINT_TABLE_BYTES
# The grid of a family model, a search and --n-lambda when none is given.
_DEFAULT_N_LAMBDA = 720


@dataclass(frozen=True)
class ParametricFamily:
    """A named map from a small parameter box to SLHV models.

    ``response(params, party, angles, n_lambda, out)`` is the family's one
    table function.  ``params`` is a (B, p) array of points and ``angles``
    a tuple of k canonical angles; it fills ``out``, a (B, k, n_lambda, 3)
    float array that may be a strided view, with the party's tables on the
    grid ``uniform_lambda_grid(n_lambda)``.  Row b depends on ``params[b]``
    alone, so a point's tables are the same bits in any batch.  ``search``
    fills its batches through it (``_evaluate``), and the model
    ``instantiate`` builds answers each response call through it at B = 1.
    It may reuse read-only terms cached across calls, as the built-in
    families do, if equal inputs give bit-identical tables whatever the
    caches hold.

    ``projection_active(params)``, if given, says whether clipping moves a
    response of the model at the (p,) ``params`` into [0, 1]; without it
    none is clipped.  ``instantiate`` records it in the model's meta, after
    the family name, the parameters by name and ``n_lambda``, and
    ``search`` reports it at the optimum.

    ``breakpoints(quad, n_lambda)``, if given, returns one entry per
    parameter: the sorted values at which the tables at that quad and
    ``n_lambda`` change, or None for a parameter they depend on
    continuously.  A search keys each point on the count of breakpoints
    strictly below each such parameter (and on the exact value of every
    other one), and evaluates each key once per restart, so equal keys
    must mean bit-identical tables.

    ``search`` hands the family to its worker processes by fork, never by
    pickling, so ``response``, ``breakpoints`` and ``projection_active``
    may be any callables, lambdas and closures included.

    ``point`` checks every parameter vector or mapping that enters:
    ``instantiate``'s, a ``SearchConfig``'s ``freeze`` and a model file's.
    """

    name: str
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    response: Callable[[np.ndarray, int, tuple[float, ...], int, np.ndarray], None]
    breakpoints: Callable[[SettingsQuad, int], tuple[Sequence[float] | None, ...]] | None = None
    projection_active: Callable[[np.ndarray], bool] | None = None

    def point(self, params, subset: bool = False,
              what: str = "parameter") -> dict[str, float]:
        """The floats of a (p,) vector or a mapping by name, by name in
        ``param_names`` order: every name the family's, all given unless
        ``subset``, each a real number (``model._check_real``) inside the
        box within ``_BOX_TOL``.  Errors call a value ``what`` and its name."""
        names = self.param_names
        if not isinstance(params, Mapping):
            vector = np.asarray(params, dtype=object)
            if vector.shape != (len(names),):
                raise ValidationError(f"family {self.name!r} takes {len(names)} parameters "
                                      f"{names}, got shape {vector.shape}")
            params = dict(zip(names, vector.tolist()))
        unknown = [n for n in params if n not in names]
        if unknown:
            raise ValidationError(f"family {self.name!r} does not take parameters {unknown}")
        missing = [n for n in names if n not in params]
        if missing and not subset:
            raise ValidationError(f"family {self.name!r} is missing parameters {missing}")
        point = {}
        for name, lo, hi in zip(names, self.lower, self.upper):
            if name in params:
                v = point[name] = _check_real(params[name], f"{what} {name!r}")
                if not lo - _BOX_TOL <= v <= hi + _BOX_TOL:
                    raise ValidationError(f"{what} {name!r} = {v!r} is outside the box "
                                          f"[{lo}, {hi}] of family {self.name!r}")
        return point

    def instantiate(self, params, n_lambda: int = _DEFAULT_N_LAMBDA) -> SLHVModel:
        """The model at ``params``, a (p,) vector or a mapping by name that
        ``point`` checks, on the grid ``uniform_lambda_grid(n_lambda)``.  Its
        responses answer each call through ``response`` at B = 1, into a
        fresh (k, n, 3) table."""
        point = self.point(params)
        n_lambda = _check_integer(n_lambda, "n_lambda", 1, _MAX_N_LAMBDA)
        p = np.array([list(point.values())])

        def party_fn(party: int):
            def fn(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
                out = np.empty((len(angles), n_lambda, 3))
                self.response(p, party, tuple(angles.tolist()), n_lambda, out[None])
                return out
            return fn

        model = SLHVModel(_grid(n_lambda), ResponseFunction(1, party_fn(1)),
                          ResponseFunction(2, party_fn(2)))
        model.meta.update(family=self.name, **point, n_lambda=n_lambda, projection_active=(
            self.projection_active is not None and bool(self.projection_active(p[0]))))
        return model


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
# sharpness it has just used.  Each entry holds one (2, k, n_lambda) array.
_MALUS_CACHE_SIZE = 16


@lru_cache(maxsize=_MALUS_CACHE_SIZE)
def _malus_shares(angles: tuple[float, ...], n_lambda: int, sharpness: float) -> np.ndarray:
    """The Malus shares cos^2s d / (cos^2s d + sin^2s d) and one minus them,
    stacked in outcome order, (2, k, n_lambda)."""
    terms = _angle_terms(angles, n_lambda)
    w_plus, w_minus = terms.cos_sq, terms.sin_sq
    if sharpness != 1.0:
        w_plus = w_plus ** sharpness
        w_minus = w_minus ** sharpness
    shares = np.empty((2, *w_plus.shape))
    np.divide(w_plus, w_plus + w_minus, out=shares[0])
    np.subtract(1.0, shares[0], out=shares[1])
    shares.setflags(write=False)
    return shares


@lru_cache(maxsize=64)
def _threshold_breakpoints(quad: SettingsQuad, n_lambda: int) -> tuple[tuple[float, ...], ...]:
    """Each party's distinct values of |cos 2d| at its quad angles over the
    grid, sorted."""
    # A party's detection mask |cos 2d| >= theta changes only when theta
    # crosses one of its values.  The quad holds its angles reduced, as the
    # response call reduces them, so the values are those the response
    # compares.  Not np.unique, whose first call imports numpy.ma.
    return tuple(tuple(sorted(set(_angle_terms(angles, n_lambda).abs_cos2d.ravel().tolist())))
                 for angles in (quad.party1_angles(), quad.party2_angles()))


def _threshold_response(params: np.ndarray, party: int, angles: tuple[float, ...],
                        n_lambda: int, out: np.ndarray) -> None:
    terms = _angle_terms(angles, n_lambda)
    # Detected points answer +1 where cos 2d >= 0 and -1 elsewhere; every
    # probability is 0 or 1.
    detect = terms.abs_cos2d >= params[:, party - 1, None, None]
    np.logical_and(detect, terms.cos2d_nonneg, out=out[..., 0])
    np.logical_and(detect, terms.cos2d_neg, out=out[..., 1])
    np.logical_not(detect, out=out[..., 2])


def _modulated_response(params: np.ndarray, party: int, angles: tuple[float, ...],
                        n_lambda: int, out: np.ndarray) -> None:
    cos2d = _angle_terms(angles, n_lambda).cos2d
    # The ndarray method runs np.clip's ufunc without its wrapper.  Not
    # np.maximum and np.minimum: clip keeps a -0.0 that np.maximum(p0, 0.0)
    # turns into +0.0, which would change the tables' bytes.
    p0 = (params[:, 0, None, None] + params[:, 1, None, None] * cos2d).clip(0.0, 1.0)
    detect = 1.0 - p0
    # Each row's detection times its own sharpness's cached shares, in one
    # product straight into the row's two detected columns: a power with an
    # array of exponents need not round as the power with one exponent
    # does, and no batch-wide copy of the shares is made.
    detected = out[..., :2].transpose(0, 3, 1, 2)
    for b, sharpness in enumerate(params[:, 2].tolist()):
        np.multiply(detect[b], _malus_shares(angles, n_lambda, sharpness), out=detected[b])
    out[..., 2] = p0


def _modulated_projection(params: np.ndarray) -> bool:
    # c0 + c1*cos spans [c0 - |c1|, c0 + |c1|] over the angles, so the
    # clip into [0, 1] binds at some angle exactly when that range leaves it.
    c0, c1 = float(params[0]), abs(float(params[1]))
    return c0 - c1 < 0.0 or c0 + c1 > 1.0


FAMILIES: dict[str, ParametricFamily] = {
    # Sign-of-cosine responder, detects only above a per-party |cos| threshold.
    "threshold-detection": ParametricFamily(
        name="threshold-detection",
        param_names=("theta1", "theta2"),
        lower=(0.0, 0.0),
        upper=(0.999, 0.999),
        response=_threshold_response,
        breakpoints=_threshold_breakpoints,
    ),
    # Smoothed Malus-law responder with angle-modulated non-detection probability.
    "modulated-p0": ParametricFamily(
        name="modulated-p0",
        param_names=("c0", "c1", "sharpness"),
        lower=(0.0, -0.5, 0.25),
        upper=(0.9, 0.5, 4.0),
        response=_modulated_response,
        projection_active=_modulated_projection,
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
    """One search's family, quad, mode, budget and seed.  Each count is an
    integer with a minimum, and ``freeze`` holds the floats that
    ``ParametricFamily.point`` gives for it, leaving some parameter free."""

    family: ParametricFamily
    quad: SettingsQuad
    mode: EffectiveCorrelationMode = EffectiveCorrelationMode.SOLUTION1
    restarts: int = 20
    max_evals: int = 2000
    seed: int = 0
    n_lambda: int = _DEFAULT_N_LAMBDA
    freeze: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, cls in (("family", ParametricFamily), ("quad", SettingsQuad),
                          ("mode", EffectiveCorrelationMode)):
            _check_instance(getattr(self, name), cls, name)
        for name, minimum, maximum in (("restarts", 1, None), ("max_evals", 10, None),
                                       ("seed", 0, None), ("n_lambda", 1, _MAX_N_LAMBDA)):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name,
                                                          minimum, maximum))
        object.__setattr__(self, "freeze", self.family.point(
            self.freeze, subset=True, what="frozen parameter"))
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
              n_lambda: int = _DEFAULT_N_LAMBDA) -> float:
    """|U_eff| of the instantiated model, exactly; 0 for degenerate points.

    A value above the cap its premise proves for the same tables (the
    check behind ``effective_chsh``'s ``theorem_breach``) raises
    TheoremViolationError.  This is ``search``'s evaluation of a batch of
    one (see ``_abs_u_eff``): a search evaluates its points in batches
    instead, with bit-identical values, and checks every distinct model a
    restart visits once, a live test of the bound against an active
    adversary.
    """
    model = family.instantiate(params, n_lambda=n_lambda)
    q = _QuadTables(model, quad, validate=False)
    point = np.array([[model.meta[name] for name in family.param_names]])
    return float(_abs_u_eff(q, mode, family.name, point)[0])


def _abs_u_eff(q: _QuadTables, mode: EffectiveCorrelationMode, family: str,
               params: np.ndarray) -> np.ndarray:
    """|U_eff| of each source of the batch ``q``, the models of the family
    named ``family`` at the (B, p) ``params``; 0 where a pair is degenerate.
    A value above the cap its premise proves raises TheoremViolationError,
    naming the first such point."""
    value, dead = q.e_eff(mode)
    u = np.abs(chsh_sum(value))
    if dead.any():
        u[dead.any(axis=1)] = 0.0
    breach = _breach(q, mode, u - 2.0)
    if breach.any():
        b = int(np.argmax(breach))
        raise TheoremViolationError(
            f"|U_eff| = {float(u[b])!r} exceeds the cap the {mode.value} assumption "
            f"proves (family {family!r}, params {params[b].tolist()})")
    return u


def _batch_rows(config: SearchConfig) -> int:
    """The most points a batch evaluates: BATCH_TABLE_BYTES of tables at
    ``config.n_lambda`` hidden points, and at least one."""
    return max(1, BATCH_TABLE_BYTES // (_POINT_TABLE_BYTES * config.n_lambda))


def _evaluate(config: SearchConfig, points: list[list[float]],
              workspace: np.ndarray) -> list[float]:
    """``objective`` at each full parameter vector of ``points``, in
    batches of at most ``_batch_rows(config)`` points.

    Each batch's tables fill the first rows of ``workspace``, a
    (rows, party, angle, n_lambda, 3) array with a row per point of a batch
    that its caller reuses, in one ``response`` call per party: a fresh
    array per batch would make the allocator return and refetch its pages
    at every step.
    """
    fam = config.family
    angles = (config.quad.party1_angles(), config.quad.party2_angles())
    w = _grid(config.n_lambda).weights[None]
    rows = _batch_rows(config)
    values = []
    for start in range(0, len(points), rows):
        params = np.array(points[start:start + rows])
        t = workspace[:len(params)]
        for party, angs in enumerate(angles, start=1):
            fam.response(params, party, angs, config.n_lambda, t[:, party - 1])
        q = _QuadTables.from_tables(w, t)
        values += _abs_u_eff(q, config.mode, fam.name, params).tolist()
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
    # numpy's argsort, not sorted(): its order among equal values, which is
    # not a stable sort's, decides the later steps on a plateau.
    order = np.array(fsim).argsort().tolist()
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


def _restart(config: SearchConfig, k: int,
             breakpoints: tuple[list[float] | None, ...] | None):
    """Restart ``k`` of a search as a generator: one bounded Nelder-Mead
    descent (``_nelder_mead``) that yields each new full parameter vector,
    takes its value by ``send``, and returns its RestartSummary.

    Its start point is drawn from SeedSequence(entropy=config.seed,
    spawn_key=(k,)) and the descent is deterministic, so its summary
    depends on (config, k) alone and not on the process that runs it or
    on the restarts beside it.  Each point counts as an evaluation, but
    each memo key (see ``_memo_key``) is yielded once: points of one
    threshold cell, or the exact repeats the box clipping produces, reuse
    the first point's value.
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
    memo: dict[Hashable, float] = {}
    trajectory: list[float] = []

    def expand(x: list[float]) -> list[float]:
        full = frozen_full.copy()
        for i, v in zip(free, x):
            full[i] = v
        return full

    steps = _nelder_mead(x0, lower, upper, config.max_evals)
    try:
        x = next(steps)
        while True:
            full = expand(x)
            key = _memo_key(breakpoints, full)
            value = memo.get(key)
            if value is None:
                value = memo[key] = yield full
            if not trajectory or value > trajectory[-1]:
                trajectory.append(value)
            x = steps.send(-value)
    except StopIteration as stop:
        x_best, f_best, evals = stop.value
    return RestartSummary(restart_index=k, start=tuple(x0),
                          best_params=tuple(expand(x_best)),
                          best_value=float(-f_best), evaluations=evals,
                          converged=evals < config.max_evals,
                          trajectory=tuple(trajectory))


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


def _lockstep(config: SearchConfig, indices: Sequence[int]) -> dict[int, RestartSummary]:
    """Run the restarts ``indices`` (``_restart``) in lockstep and return
    their summaries by index.

    Each step sends every unfinished restart the value of its pending point
    (None to start it), which runs it on, past its memo hits, to its next
    new point or to its summary; then it evaluates the new points of all of
    them together, in the order of ``indices`` (``_evaluate``), until
    every restart has finished.
    """
    breakpoints = _breakpoints(config)
    restarts = {k: _restart(config, k, breakpoints) for k in indices}
    rows = min(len(restarts), _batch_rows(config))
    workspace = np.empty((rows, 2, 2, config.n_lambda, 3))
    summaries: dict[int, RestartSummary] = {}
    values = dict.fromkeys(restarts)  # None starts each restart
    while True:
        points = {}
        for k, value in values.items():
            try:
                points[k] = restarts[k].send(value)
            except StopIteration as stop:
                summaries[k] = stop.value
        if not points:
            return summaries
        values = dict(zip(points, _evaluate(config, list(points.values()), workspace)))


def _run_restarts(config: SearchConfig, n_workers: int) -> list[RestartSummary]:
    """Every restart's summary, in index order, from this process and
    ``n_workers - 1`` forked children.

    Process i runs the fixed share ``range(i, restarts, n_workers)`` in
    lockstep (``_lockstep``); this process is process 0.  A child sends
    the summaries of its share, or the exception that stopped it, over its
    own pipe.  Children are forked, so they share ``config`` by memory and
    only summaries and exceptions are pickled.  An exception in any
    process reaches the caller, and no child outlives this call.
    """
    shares = [range(i, config.restarts, n_workers) for i in range(n_workers)]
    children, readers = [], []
    try:
        for share in shares[1:]:
            import multiprocessing  # only a search that forks loads it

            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            child = ctx.Process(target=_report, daemon=True,
                                args=(partial(_lockstep, config, share), writer))
            try:
                child.start()
            finally:
                writer.close()  # the child's copy stays open until it reports
            children.append(child)
        summaries = _lockstep(config, shares[0])
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
    config and its index (see ``_restart``), and the reduction takes
    the best value with ties broken by the lowest restart index, so the
    result is identical at any ``workers`` value >= 1.  Every distinct
    model a restart visits is evaluated once, with the value and the
    bound check of ``objective``; a point that repeats one (same memo
    key, see ``_memo_key``) counts as an evaluation and reuses its value.

    The restarts run in this process beside ``n - 1`` forked worker
    processes, ``n = min(workers, restarts, CPU count)``: process i runs
    restarts i, i + n, i + 2n, ... (``_run_restarts``), and with
    ``n = 1`` no process is started.  Each process runs its share in
    lockstep and evaluates the new points of its restarts together, one
    batch per step (``_lockstep``).  An exception raised in any process reaches
    the caller, and no worker outlives the call.
    """
    _check_instance(config, SearchConfig, "config")
    summaries = _run_restarts(config, _pool_size(workers, config.restarts))
    fam = config.family
    best = max(summaries, key=lambda s: (s.best_value, -s.restart_index))

    # Re-derive everything at the reported optimum from validated tables
    # so the stored parameters alone reproduce the result.
    best_model = fam.instantiate(best.best_params, n_lambda=config.n_lambda)
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
        best_parameters={name: best_model.meta[name] for name in fam.param_names},
        best_u_eff=abs(float(signed)),
        best_u_eff_signed=float(signed),
        assumption_solution1=sol1,
        assumption_solution2=sol2,
        evaluation_count=sum(s.evaluations for s in summaries),
        restarts=tuple(summaries),
        budget_exhausted=any(not s.converged for s in summaries),
        degenerate_best=degenerate,
        projection_active_at_optimum=best_model.meta["projection_active"],
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
