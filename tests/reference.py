"""The test suite's one independent second computation: joint-outcome
tables, the QM source's both-detected cell, per-pair E, C, D and E_eff,
the CHSH signed sum and the three premise reports.

It shares no code with what it checks.  A model is read only through
``SLHVModel.tables`` and ``space.weights``, a QM source only through its
five fields, and a quad only through its four angle attributes; from
``bellsim.model`` it takes only a record type and a tolerance constant
(``tests/test_public_surface.py`` checks its imports).  Pytest does not
collect it; the test modules import it by name.
"""

import math
from typing import NamedTuple

import numpy as np

from bellsim.model import VALIDATOR_TOL, AssumptionReport

# The CHSH signs of v(ab) - v(ab') + v(a'b) + v(a'b'), and the quad
# attributes that hold each of those pairs' two angles.
CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)
PAIRS = (("a", "b"), ("a", "b_prime"), ("a_prime", "b"), ("a_prime", "b_prime"))


def chsh(values):
    """The signed sum of four per-pair values, Python floats or arrays
    along the first axis, left to right from the integer 0."""
    return sum(sign * v for sign, v in zip(CHSH_SIGNS, values))


def joint(w, t1, t2):
    """The 3x3 joint-outcome table t1^T . diag(w) . t2 of one setting pair,
    from the weights and the parties' (n, 3) tables: float, or exact for
    object arrays of Fractions."""
    return (t1 * w[:, None]).T @ t2


def tables_at(model, quad):
    """Each pair's two (n, 3) tables, in pair order, one ``tables`` call
    per party and angle."""
    return [tuple(model.tables(party, (getattr(quad, name),))[0]
                  for party, name in enumerate(names, start=1)) for names in PAIRS]


def qm_joint(source, a, b, num=float):
    """The QM source's 3x3 joint law at angles (a, b), in ``num`` arithmetic
    from its five fields and the double cos 2(a - b): both detected
    d1 d2 (1 +- F cos)/4, + for equal signs, with d_k = eta_k f_k; one
    detected d_k (1 - d_j)/2 per sign; neither (1 - d1)(1 - d2)."""
    eta1, eta2, f1, f2, F = (num(getattr(source, k)) for k in ("eta1", "eta2", "f1", "f2", "F"))
    d1, d2 = eta1 * f1, eta2 * f2
    fc = F * num(math.cos(2.0 * (a - b)))
    same, diff = d1 * d2 * (1 + fc) / 4, d1 * d2 * (1 - fc) / 4
    only1, only2 = d1 * (1 - d2) / 2, d2 * (1 - d1) / 2
    return np.array([[same, diff, only1], [diff, same, only1],
                     [only2, only2, (1 - d1) * (1 - d2)]])


def qm_detected(source, a, b, r, q):
    """The QM source's both-detected cell (r, q), r and q each +1 or -1, at
    angles (a, b) with the rounding ``qm.joint_table`` uses: the float
    0.25 * eta1 eta2 f1 f2 * (1 + r q F cos 2(a - b)), the product taken
    left to right.  Scaling by 0.25 is exact, so this keeps the bits of
    eta1 eta2 f1 f2 times (1 +- F cos)/4, which ``qm_joint``'s order
    d1 d2 (1 +- F cos)/4 does not."""
    eta1, eta2, f1, f2, F = (getattr(source, k) for k in ("eta1", "eta2", "f1", "f2", "F"))
    return 0.25 * (eta1 * eta2 * f1 * f2) * (1.0 + r * q * F * math.cos(2.0 * (a - b)))


def joints(source, quad, num=float):
    """The four pairs' joint tables, in pair order, of a QM source (told by
    its F field) or a model, in ``num`` arithmetic: float, or Fraction for
    the exact tables of the float inputs."""
    if hasattr(source, "F"):
        return [qm_joint(source, getattr(quad, x), getattr(quad, y), num) for x, y in PAIRS]
    cast = np.asarray if num is float else np.vectorize(num, otypes=[object])
    w = cast(source.space.weights)
    return [joint(w, cast(t1), cast(t2)) for t1, t2 in tables_at(source, quad)]


class PerPair(NamedTuple):
    """Values at the four pairs of a quad, each a (4,) float array in pair
    order; ``e_eff`` maps each regime's name to its array."""

    e: np.ndarray
    coin: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    e_eff: dict


def per_pair(model, quad) -> PerPair:
    """E and the coincidence probability C from each pair's joint table, each
    party's detection probability D = 1 - sum(w p0) at its angle, and E_eff:
    E / C (solution1), E / (D1 D2) (solution2) and the weighted sum of the
    two detected-subset averages (p+ - p-) / (p+ + p-) (solution3)."""
    w = model.space.weights
    rows = []
    for t1, t2 in tables_at(model, quad):
        j = joint(w, t1, t2)
        e = j[0, 0] - j[0, 1] - j[1, 0] + j[1, 1]
        coin = j[0, 0] + j[0, 1] + j[1, 0] + j[1, 1]
        d1, d2 = 1.0 - t1[:, 2] @ w, 1.0 - t2[:, 2] @ w
        subset = [(t[:, 0] - t[:, 1]) / (t[:, 0] + t[:, 1]) for t in (t1, t2)]
        rows.append((e, coin, d1, d2, e / coin, e / (d1 * d2), w @ (subset[0] * subset[1])))
    e, coin, d1, d2, *e_eff = np.array(rows).T
    return PerPair(e, coin, d1, d2, dict(zip(("solution1", "solution2", "solution3"), e_eff)))


def premise_report(regime, model, angles1, angles2) -> AssumptionReport:
    """The report of ``regime``'s premise on the model's non-detection rows
    at each party's angles, reduced to [0, pi), as the validators gave it
    when they scanned each party's angle pairs (solution1) or angles in a
    Python loop: the deviation peaks first at the reported (party, angle
    pair), at the first lambda index of that peak."""
    angles = [[0.0 if r >= math.pi else r for r in (float(x) % math.pi for x in angs)]
              for angs in (angles1, angles2)]
    p0 = [model.tables(party, angs)[..., 2] for party, angs in enumerate(angles, start=1)]
    worst_dev, worst = 0.0, None
    for party, (rows, angs) in enumerate(zip(p0, angles), start=1):
        k = len(angs)
        pairs = ([(i, j) for i in range(k) for j in range(i + 1, k)]
                 if regime == "solution1" else [(i, i) for i in range(k)])
        for i, j in pairs:
            score = np.abs(rows[i] - rows[j]) if regime == "solution1" else rows[i]
            dev = np.ptp(score) if regime == "solution2" else score.max()
            if dev > worst_dev:
                worst_dev, worst = float(dev), (party, int(np.argmax(score)), (angs[i], angs[j]))
    tol = 1.0 if regime == "solution3" else VALIDATOR_TOL
    passed = worst_dev < tol if regime == "solution3" else worst_dev <= tol
    implied = None
    if passed and regime == "solution2":
        implied = {party: {a: float(np.sum(model.space.weights * p)) for a, p in zip(angs, rows)}
                   for party, (rows, angs) in enumerate(zip(p0, angles), start=1)}
    return AssumptionReport(passed=passed, max_deviation=worst_dev, tol=tol,
                            worst=None if passed else worst, implied_p0=implied)
