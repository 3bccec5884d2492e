"""Stochastic local-hidden-variable (SLHV) models with non-detection.

A model consists of a discrete hidden-variable space (points ``lambda_i``
with weights ``rho_i`` summing to one) and one response function per
party.  A response function maps an analyzer angle and a hidden-variable
point to a probability triple over the three single-photon outcomes

    +1 (transmitted channel), -1 (reflected channel), 0 (not detected).

Response functions are evaluated by broadcast: ``fn(angles, values)``
takes a (k,) array of canonical angles and the (n,) hidden-point values
and returns a (k, n, 3) table, one (n, 3) block of triples per angle.
``SLHVModel.tables`` is that call and the model's only way of answering;
``SLHVModel.triples`` is its one-angle (n, 3) wrapper.

Locality is structural: there is no joint response function anywhere in
the type, so joint outcome probabilities can only ever be formed as
products of the two single-party triples.

Angles are polarizer transmission-axis angles in radians, canonical on
``[0, pi)`` (polarizer settings are pi-periodic, so all trigonometry in
this package uses ``cos 2(.)``).

Conventions used throughout, as functions of a table's columns
``t[..., 0] = p_plus``, ``t[..., 1] = p_minus``, ``t[..., 2] = p_zero``:

* ``alpha = p_plus + p_minus`` is the detection probability of party 1
  at the hidden level (``beta`` for party 2); it equals ``1 - p_zero``.
* ``local_average = p_plus - p_minus`` is the hidden-level single-party
  average of the +-1 outcomes (non-detections count as 0).
* ``effective_local_average = (p_plus - p_minus) / (p_plus + p_minus)``
  is the average over the detected subset only; it is bounded by 1 in
  magnitude whenever the photon is detectable at all.  The bounds module
  reads it with negative entries clamped at 0, so the rounding-level
  negatives a table may hold (down to -NORMALIZATION_TOL) keep it there.

The three premises that make the detection-robust CHSH bound provable
(solution1: non-detection independent of the angle; solution2:
independent of the hidden point; solution3: no dead hidden point) are
defined once, in ``_PREMISES``: each regime's score of the non-detection
rows, its tolerance, its pass rule and its worst-point locator.  The
validators' reports (``_premise_report``) and the bounds module's
trip-wire caps both read that table.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "OUTCOME_VALUES",
    "NORMALIZATION_TOL",
    "VALIDATOR_TOL",
    "BellSimError",
    "ValidationError",
    "DegenerateModelError",
    "AssumptionError",
    "TheoremViolationError",
    "NoDataError",
    "canonical_angle",
    "HiddenVariableSpace",
    "ResponseFunction",
    "SLHVModel",
    "AssumptionReport",
    "validate_solution1",
    "validate_solution2",
    "uniform_lambda_grid",
]

# Single-photon outcomes in canonical column order: detected +1, detected -1,
# not detected.  Every (n, 3) table in this package uses this order.
OUTCOME_VALUES = (1, -1, 0)
# Column index of each outcome value, for count tables read or written by value.
_OUTCOME_INDEX = {v: i for i, v in enumerate(OUTCOME_VALUES)}

# Pure-arithmetic tolerance (probability normalization, factorization).
NORMALIZATION_TOL = 1e-12
# Assumption validators allow formula-defined models benign rounding room.
VALIDATOR_TOL = 1e-10
# A tabulated response answers an angle within this distance (radians) of an entry.
_TABLE_ANGLE_TOL = 1e-9


class BellSimError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(BellSimError, ValueError):
    """Input data violates a contract (non-normalized triples, bad schema)."""


class DegenerateModelError(BellSimError):
    """A quantity is undefined because a detection probability vanishes."""


class AssumptionError(BellSimError):
    """A computation's assumption validator failed and strict mode is on."""


class TheoremViolationError(BellSimError):
    """A bound that is a theorem for the model class was numerically broken.

    This never fires for a correct implementation; it exists as a tripwire.
    """


class NoDataError(BellSimError):
    """A counts record contains no coincidences to estimate from."""


def _check_real(value, name: str) -> float:
    """``value`` as a float: a finite real number, not a bool or a string.
    The package's one number check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is out of range for a float") from None
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return x


def _parse_number(text, name: str, integer: bool = False):
    """``text`` read as an int, or as a float through ``_check_real``.
    The package's one text-to-number rule: ASCII decimal as ``int()`` or
    ``float()`` reads it, with no ``_`` separator, and a real is finite."""
    if isinstance(text, str) and text.isascii() and "_" not in text:
        try:
            x = int(text) if integer else float(text)
        except ValueError:
            pass
        else:
            return x if integer else _check_real(x, name)
    kind = "an integer" if integer else "a real number"
    raise ValidationError(f"{name} must be {kind}, got {text!r}")


def canonical_angle(angle: float) -> float:
    """Reduce a polarizer angle (radians) to the canonical range [0, pi)."""
    r = _check_real(angle, "angle") % math.pi
    # (-tiny) % pi can round up to exactly pi; fold it back to 0.
    return 0.0 if r >= math.pi else r


def _check_tables(t: np.ndarray, party: int, angles: Sequence[float]) -> np.ndarray:
    """Validate the (k, n, 3) probability tables of one party at ``angles``."""

    def where(j, i) -> str:
        return f"party {party}, angle {canonical_angle(angles[j]):.6g}, lambda index {i}"

    finite = np.isfinite(t)
    if not np.all(finite):
        j, i = np.argwhere(~finite.all(axis=2))[0]
        raise ValidationError(f"non-finite probabilities ({where(j, i)})")
    lo, hi = -NORMALIZATION_TOL, 1.0 + NORMALIZATION_TOL
    outside = (t < lo) | (t > hi)
    if np.any(outside):
        j, i = np.argwhere(outside.any(axis=2))[0]
        raise ValidationError(f"probability outside [0, 1] ({where(j, i)})")
    sums = t.sum(axis=2)
    dev = np.abs(sums - 1.0)
    if np.any(dev > NORMALIZATION_TOL):
        j, i = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValidationError(
            f"outcome probabilities do not sum to 1 ({where(j, i)}, "
            f"sum {float(sums[j, i])!r})")
    return t


def _distinct_angles(keys: Sequence, angles: Sequence[float], what: str) -> None:
    """Reject two ``keys`` whose canonical ``angles`` name one polarizer:
    within _TABLE_ANGLE_TOL of each other in the wraparound metric."""
    a = np.asarray(angles, dtype=float)
    raw = np.abs(a[:, None] - a[None, :])
    close = np.minimum(raw, math.pi - raw) <= _TABLE_ANGLE_TOL
    np.fill_diagonal(close, False)
    if np.any(close):
        i, j = np.argwhere(close)[0]
        raise ValidationError(
            f"{what} gives the same polarizer angle twice: keys {keys[i]!r} "
            f"and {keys[j]!r}")


@dataclass(frozen=True)
class HiddenVariableSpace:
    """Discrete hidden-variable space: points with a normalized weight each.

    Weights and labels are real numbers (``_check_real``).  ``values``
    carries a float label per point.  For grid-discretized models the label
    is the hidden angle itself; for tabulated models it is just the point
    index and response functions ignore it.
    """

    weights: np.ndarray
    values: np.ndarray

    def __init__(self, weights: Iterable[float], values: Iterable[float] | None = None):
        w = np.array([_check_real(x, "hidden-variable weight") for x in weights])
        if w.size == 0:
            raise ValidationError("hidden-variable space needs at least one point")
        if np.any(w < 0):
            raise ValidationError("hidden-variable weights must be >= 0")
        if abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(
                f"hidden-variable weights must sum to 1 (got {float(w.sum())!r})")
        v = (np.arange(w.size, dtype=float) if values is None
             else np.array([_check_real(x, "hidden-point value") for x in values]))
        if v.shape != w.shape:
            raise ValidationError("values must have the same length as weights")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def _check_integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int: an integer (not a bool) >= ``minimum`` and <= ``maximum``, if any."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be at most {maximum}, got {value!r}")
    return int(value)


def _check_instance(value, cls, name: str) -> None:
    """Reject a ``value`` that is not an instance of ``cls``, a class or a
    tuple of classes, before a later attribute lookup fails on it."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValidationError(f"{name} must be of type {names}, got {type(value).__name__}")


def _pool_size(workers: int, tasks: int) -> int:
    """Workers a pool gets for ``tasks`` tasks: at most ``workers``, the task
    count and the CPU count.  No output of this package depends on it."""
    return min(_check_integer(workers, "workers", 1), tasks, os.cpu_count() or 1)


def uniform_lambda_grid(n: int = 360) -> HiddenVariableSpace:
    """Equal-weight grid of n hidden angles covering [0, pi)."""
    n = _check_integer(n, "grid size", 1)
    values = np.arange(n) * (math.pi / n)
    return HiddenVariableSpace(np.full(n, 1.0 / n), values)


class ResponseFunction:
    """Per-party outcome law: (angles, hidden points) -> probability triples.

    It holds a party number, 1 or 2 (``_check_integer``; a bool or a
    float is rejected), and one ``fn(angles, values) -> (k, n, 3)``:
    ``angles`` is a (k,) float array of canonical angles, ``values`` the
    (n,) labels of the hidden points, and row ``[j, i]`` of the result is
    the triple (p_plus, p_minus, p_zero) at ``angles[j]`` and hidden
    point i.  ``SLHVModel.tables`` is the one caller of ``fn``: it
    reduces the angles, checks the shape and validates the triples.

    Construction routes:

    * the constructor, ``ResponseFunction(party, fn)``, wraps such an
      ``fn`` directly.
    * :meth:`from_table` holds explicit (n, 3) triples for a fixed set of
      angles and rejects any other angle.

    Every angle, a table key included, is a real number (``_check_real``)
    reduced by ``canonical_angle``.
    """

    def __init__(self, party: int, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        party = _check_integer(party, "party", 1, 2)
        if not callable(fn):
            raise ValidationError(
                f"response fn must be callable, got {type(fn).__name__}")
        self.party = party
        self._fn = fn

    @classmethod
    def from_table(cls, party: int, tables: dict[float, np.ndarray]) -> "ResponseFunction":
        """Triples tabulated per angle; two keys naming one polarizer are rejected."""
        keys = sorted(tables, key=canonical_angle)
        angles = np.array([canonical_angle(a) for a in keys])
        _distinct_angles(keys, angles, f"tabulated response for party {party}")
        stacked = np.stack([np.asarray(tables[a], dtype=float) for a in keys])

        def lookup(query: np.ndarray, values: np.ndarray) -> np.ndarray:
            # Wraparound metric: pi - eps and 0 are the same polarizer.
            raw = np.abs(angles[None, :] - query[:, None])
            dist = np.minimum(raw, math.pi - raw)
            nearest = np.argmin(dist, axis=1)
            far = dist[np.arange(query.size), nearest] > _TABLE_ANGLE_TOL
            if np.any(far):
                j = int(np.argmax(far))
                raise ValidationError(
                    f"tabulated response for party {party} has no entry for "
                    f"angle {query[j]:.9g} rad (nearest {angles[nearest[j]]:.9g})")
            return stacked[nearest]

        return cls(party, lookup)


@dataclass(frozen=True)
class SLHVModel:
    """A stochastic local-hidden-variable model of one photon pair.

    Immutable after construction; every operation is a pure function of
    the model, so instances are safe to share across workers.
    """

    space: HiddenVariableSpace
    response1: ResponseFunction
    response2: ResponseFunction
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.response1.party != 1 or self.response2.party != 2:
            raise ValidationError("response functions must be for parties 1 and 2")

    def tables(self, party: int, angles: Sequence[float],
               validate: bool = True) -> np.ndarray:
        """Outcome probability tables at k angles, each reduced to [0, pi)
        first, in one response call: shape (k, n, 3), columns (+1, -1, 0)."""
        party = _check_integer(party, "party", 1, 2)
        a = np.array([canonical_angle(x) for x in angles], dtype=float)
        values = self.space.values
        t = np.asarray((self.response1, self.response2)[party - 1]._fn(a, values), dtype=float)
        if t.shape != (a.size, values.size, 3):
            raise ValidationError(
                f"response for party {party} must have shape (k, n, 3) = "
                f"{(a.size, values.size, 3)}, got {t.shape}")
        return _check_tables(t, party, angles) if validate else t

    def triples(self, party: int, angle: float) -> np.ndarray:
        """Outcome probability table at one angle, shape (n, 3)."""
        return self.tables(party, (angle,))[0]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of a non-detection assumption check.

    ``worst`` names the offending (party, lambda index, angle pair) when
    the check fails.  ``implied_p0`` is filled by the hidden-level /
    experiment-level consistency check: the single experimental
    non-detection probability per (party, angle) that the model implies
    when the check passes.
    """

    passed: bool
    max_deviation: float
    tol: float
    worst: tuple[int, int, tuple[float, float]] | None = None
    implied_p0: dict[int, dict[float, float]] | None = None

    def __bool__(self) -> bool:
        return self.passed


def _nondetect_rows(model: SLHVModel, angles1: Sequence[float],
                    angles2: Sequence[float]
                    ) -> tuple[tuple[np.ndarray, ...], tuple[list[float], ...]]:
    """Each party's (k, n) non-detection rows at its canonical angles, from
    one response call per party, and those angles."""
    _check_instance(model, SLHVModel, "model")
    angles = tuple([canonical_angle(a) for a in angs] for angs in (angles1, angles2))
    if not all(angles):
        raise ValidationError("angle lists must be non-empty")
    p0 = tuple(model.tables(party, angs)[..., 2]
               for party, angs in enumerate(angles, start=1))
    return p0, angles


class _Premise(NamedTuple):
    """One regime's premise over a party's (..., k, n) non-detection rows.

    The deviation is the largest entry of ``score(rows)``, floored at 0;
    the premise holds when ``passes(deviation, tol)``.  ``locate(rows,
    flat)`` turns the flat index of a failing party's peak score into
    (lambda index, angle index, angle index).
    """

    score: Callable[[np.ndarray], np.ndarray]
    tol: float
    passes: Callable
    locate: Callable[[np.ndarray, int], tuple[int, int, int]]


# The three premises under which |U_eff| <= 2 is provable, by regime name:
# the one definition that the validators' reports and the trip-wires' caps read.
_PREMISES = {
    # Non-detection independent of the angle: each hidden point's range over
    # its party's angles, located at the point's first minimum and first
    # maximum, in index order.
    "solution1": _Premise(
        lambda rows: rows.max(axis=-2) - rows.min(axis=-2), VALIDATOR_TOL, operator.le,
        lambda rows, k: (k, *sorted((int(np.argmin(rows[:, k])),
                                     int(np.argmax(rows[:, k])))))),
    # Non-detection independent of lambda: each angle's range over the
    # hidden points, located at the first maximum of the widest row.
    "solution2": _Premise(
        lambda rows: rows.max(axis=-1) - rows.min(axis=-1), VALIDATOR_TOL, operator.le,
        lambda rows, j: (int(np.argmax(rows[j])), j, j)),
    # No dead hidden point: every p0 below 1, located at the first largest.
    "solution3": _Premise(lambda rows: rows, 1.0, operator.lt, lambda rows, flat: (
        flat % rows.shape[1], flat // rows.shape[1], flat // rows.shape[1])),
}


def _premise_report(regime: str, p0: Sequence[np.ndarray],
                    angles: Sequence[Sequence[float]], weights: np.ndarray
                    ) -> AssumptionReport:
    """The report of ``_PREMISES[regime]`` on each party's (k, n)
    non-detection rows ``p0[party - 1]`` at its canonical angles
    ``angles[party - 1]``.  A failing report names the first party and
    entry where the deviation peaks; a passing solution2 report carries
    the implied experimental non-detection probability per (party,
    angle), the ``weights``-mean of its row."""
    premise = _PREMISES[regime]
    scores = [premise.score(rows) for rows in p0]
    peaks = [float(s.max()) for s in scores]
    dev = max(0.0, *peaks)
    if not premise.passes(dev, premise.tol):
        party = peaks.index(dev)
        lam, i, j = premise.locate(p0[party], int(np.argmax(scores[party])))
        return AssumptionReport(passed=False, max_deviation=dev, tol=premise.tol,
                                worst=(party + 1, lam, (angles[party][i], angles[party][j])))
    implied = None
    if regime == "solution2":
        # The mean equals the common constant, since the check passed.
        implied = {party: dict(zip(angs, np.sum(weights * rows, axis=1).tolist()))
                   for party, (rows, angs) in enumerate(zip(p0, angles), start=1)}
    return AssumptionReport(passed=True, max_deviation=dev, tol=premise.tol,
                            implied_p0=implied)


def validate_solution1(model: SLHVModel, angles1: Sequence[float],
                       angles2: Sequence[float]) -> AssumptionReport:
    """Check that non-detection is independent of the analyzer angle.

    For each party and each hidden point, the non-detection probability
    must agree (within ``VALIDATOR_TOL``) across all supplied angles for that
    party.  This is the hidden-level assumption under which the
    coincidence rate is setting-independent and the detection-robust
    CHSH bound is provable.  Each party's response is called once, over
    all of its angles.  The deviation is the largest range of a point's
    non-detection probability over its party's angles; a failing report
    names the first (party, lambda index) where it peaks, with the angles
    of the first minimum and the first maximum there, in index order.
    """
    return _premise_report("solution1", *_nondetect_rows(model, angles1, angles2),
                           model.space.weights)


def validate_solution2(model: SLHVModel, angles1: Sequence[float],
                       angles2: Sequence[float]) -> AssumptionReport:
    """Check that non-detection is constant across the hidden variable.

    This is the necessary condition for the hidden-level non-detection
    probabilities to equal the experimental ones.  On success the report
    carries the implied experimental non-detection probability per
    (party, angle); it is reported, never asserted against external data.
    Each party's response is called once, over all of its angles.  A
    failing report names the first widest (party, angle) row and the
    first lambda index of its maximum.
    """
    return _premise_report("solution2", *_nondetect_rows(model, angles1, angles2),
                           model.space.weights)
