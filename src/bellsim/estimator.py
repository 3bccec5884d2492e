"""Coincidence-counting estimators and the full-sample/effective split.

From a 3x3 outcome count table per setting pair this module computes
the effective (coincidence-normalized) correlation, the effective CHSH
value with a plug-in standard error, and, when the number of emitted
pairs is known, the bookkeeping that connects the full-sample CHSH
value U to the effective one:

    E(k, l)      = sum_rq r*q*N_rq / N_emitted
    E_eff(k, l)  = sum_rq r*q*N_rq / N_coincidence
    eps(k, l)    = E * (1 - sum P) / sum P        (so E = E_eff - eps)

Combining the per-pair eps terms with the CHSH signs gives eps_total
with U = U_eff - eps_total as an exact identity, and the shifted
interval (-2 + eps_total, 2 + eps_total) that an unviolated full-sample
CHSH implies for U_eff.  Real coincidence experiments cannot observe
N_emitted, so the eps analysis reports "unavailable" when the emitted
totals are missing rather than guessing.

Standard errors assume independent trials with plug-in binomial
variances; there is no correlated-systematics model, and reports label
them as such.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bounds import PAIR_LABELS, chsh_sum, coincidence_sum, signed_sum
from .model import (_OUTCOME_INDEX, NoDataError, ValidationError, _check_instance,
                    _check_integer, _parse_number)

__all__ = [
    "COUNTS_COLUMNS",
    "CountsRecord",
    "coincidence_count",
    "e_eff_from_counts",
    "e_eff_stderr",
    "u_eff_from_counts",
    "EpsilonReport",
    "epsilon_decomposition",
    "read_counts_csv",
    "analysis_report",
]

_MAX_COUNT = int(np.iinfo(np.int64).max)  # the largest count a table cell holds
# The counts CSV columns, in the order the sampler writes them.
COUNTS_COLUMNS = ("pair_label", "r", "q", "count")


@dataclass(frozen=True)
class CountsRecord:
    """Outcome counts for one setting pair.

    ``table`` is 3x3 over outcomes (+1, -1, 0) x (+1, -1, 0).
    ``emitted_total`` is the number of emitted pairs when known (only in
    simulation or heralded data); when known it must equal the table
    sum.  ``nondetect_split_known`` is False when single-detection rows
    were not observed and the remainder was lumped into the (0, 0) cell
    for bookkeeping.
    """

    label: str
    table: np.ndarray
    emitted_total: int | None = None
    nondetect_split_known: bool = True

    def __post_init__(self):
        # Each cell as its own Python object, so that a bool, a float or a
        # string is rejected rather than cast to int64.
        cells = np.asarray(self.table, dtype=object)
        if cells.shape != (3, 3):
            raise ValidationError(
                f"counts table must be 3x3, got shape {cells.shape}")
        counts = [_check_integer(c, f"each count for pair {self.label!r}", 0)
                  for c in cells.flat]
        if sum(counts) > _MAX_COUNT:
            raise ValidationError(
                f"counts for pair {self.label!r} total more than int64 holds")
        t = np.array(counts, dtype=np.int64).reshape(3, 3)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        if self.emitted_total is not None:
            emitted = _check_integer(
                self.emitted_total, f"emitted_total for pair {self.label!r}", 0)
            total = int(t.sum())
            if total != emitted:
                raise ValidationError(
                    f"table sum {total} != emitted_total {emitted} "
                    f"for pair {self.label!r}")
            object.__setattr__(self, "emitted_total", emitted)


def coincidence_count(rec: CountsRecord) -> int:
    """Trials in which both photons were detected."""
    return int(coincidence_sum(rec.table))


def e_eff_from_counts(rec: CountsRecord) -> float:
    """Effective correlation: mean of r*q over coincidences only."""
    n_c = coincidence_count(rec)
    if n_c == 0:
        raise NoDataError(f"no coincidences recorded for pair {rec.label!r}")
    return int(signed_sum(rec.table)) / n_c


def e_eff_stderr(rec: CountsRecord) -> float:
    """Plug-in binomial standard error of the effective correlation."""
    e = e_eff_from_counts(rec)
    return math.sqrt(max(1.0 - e * e, 0.0) / coincidence_count(rec))


def _ordered(recs) -> list[CountsRecord]:
    _check_instance(recs, Iterable, "counts records")
    recs = list(recs)
    for r in recs:
        _check_instance(r, CountsRecord, "each counts record")
    by_label = {r.label: r for r in recs}
    if sorted(by_label) != sorted(PAIR_LABELS) or len(recs) != 4:
        raise ValidationError(
            f"need exactly the four pairs {PAIR_LABELS}, got "
            f"{[r.label for r in recs]}")
    return [by_label[lab] for lab in PAIR_LABELS]


def u_eff_from_counts(recs) -> tuple[float, float]:
    """Effective CHSH value and its standard error from four records.

    Per-pair errors are treated as independent and combined in
    quadrature.
    """
    ordered = _ordered(recs)
    return (float(chsh_sum([e_eff_from_counts(r) for r in ordered])),
            math.sqrt(sum(e_eff_stderr(r) ** 2 for r in ordered)))


@dataclass(frozen=True)
class EpsilonReport:
    """Per-pair and combined full-sample/effective discrepancies.

    ``eps_total`` carries the CHSH signs (minus on the ab' term), which
    is what makes ``u == u_eff - eps_total`` an exact identity.
    ``interval`` is (-2 + eps_total, 2 + eps_total): the range an
    unviolated full-sample CHSH leaves for the effective value.
    """

    eps: dict[str, float]
    eps_total: float
    e: dict[str, float]
    e_eff: dict[str, float]
    u: float
    u_eff: float
    interval: tuple[float, float]
    u_eff_in_interval: bool


def epsilon_decomposition(recs) -> EpsilonReport:
    """Full-sample vs effective bookkeeping; needs emitted totals.

    Raises when any record lacks ``emitted_total``: without the number
    of emitted pairs the full-sample correlations, and hence eps, cannot
    be determined from coincidence data.
    """
    ordered = _ordered(recs)
    for r in ordered:
        if r.emitted_total is None:
            raise NoDataError(
                f"eps cannot be determined for pair {r.label!r}: the number "
                "of emitted pairs is unknown (coincidence-only data)")
    e_eff = {r.label: e_eff_from_counts(r) for r in ordered}
    frac = {r.label: coincidence_count(r) / r.emitted_total for r in ordered}
    e = {r.label: int(signed_sum(r.table)) / r.emitted_total for r in ordered}
    eps = {lab: e[lab] * (1.0 - sp) / sp for lab, sp in frac.items()}
    u, u_eff, eps_total = (float(chsh_sum(list(d.values()))) for d in (e, e_eff, eps))
    interval = (-2.0 + eps_total, 2.0 + eps_total)
    return EpsilonReport(eps=eps, eps_total=eps_total, e=e, e_eff=e_eff,
                         u=u, u_eff=u_eff, interval=interval,
                         u_eff_in_interval=interval[0] <= u_eff <= interval[1])


def read_counts_csv(path, emitted_totals: dict[str, int] | None = None
                    ) -> list[CountsRecord]:
    """Read the sampler CSV schema, or a coincidence-only variant.

    Files with non-detection rows (r or q equal to 0) yield records with
    ``emitted_total`` set to the table sum.  Coincidence-only files get
    ``emitted_total=None`` unless ``emitted_totals`` supplies per-pair
    values (a dict of pair label to integer), in which case the
    unobserved remainder is lumped into the (0, 0) cell and
    ``nondetect_split_known`` is False.  Each ``r``,
    ``q`` and ``count`` cell is an integer read by ``model._parse_number``
    (ASCII decimal, no ``_`` separator).  A header that names a column
    twice, a row with more or fewer fields than the header, a repeated
    (pair_label, r, q) row, a non-integer emitted total, a count or total
    past int64, a total for a pair the file does not hold and a total that
    differs from the table sum of a pair with non-detection rows are
    rejected.
    """
    totals = {} if emitted_totals is None else emitted_totals
    if not isinstance(totals, dict):
        raise ValidationError(
            "emitted totals must map pair labels to integers (a JSON object), "
            f"got {type(totals).__name__}")
    for label, total in totals.items():
        _check_integer(total, f"emitted total for pair {label!r}", 0, _MAX_COUNT)
    tables: dict[str, np.ndarray] = {}
    saw_nondetect: dict[str, bool] = {}
    seen: set[tuple[str, int, int]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"counts CSV {path!r} is not UTF-8 text: {exc}") from exc
    rows = csv.reader(lines)
    header = next(rows, None)
    if header is None or not set(COUNTS_COLUMNS).issubset(header):
        raise ValidationError(
            f"counts CSV must have header columns {sorted(COUNTS_COLUMNS)}, got {header}")
    column: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in column:
            raise ValidationError(f"counts CSV header names column {name!r} twice")
        column[name] = i
    i_label, i_r, i_q, i_count = (column[k] for k in COUNTS_COLUMNS)
    for row in rows:
        if not row:
            continue  # a blank line
        if len(row) != len(header):
            raise ValidationError(
                f"counts row {row!r} has {len(row)} fields where the header has {len(header)}")
        label = row[i_label].strip()
        r = _parse_number(row[i_r], "counts column 'r'", integer=True)
        q = _parse_number(row[i_q], "counts column 'q'", integer=True)
        c = _parse_number(row[i_count], "counts column 'count'", integer=True)
        if r not in _OUTCOME_INDEX or q not in _OUTCOME_INDEX:
            raise ValidationError(
                f"outcomes must be in (+1, -1, 0), got {(r, q)}")
        if not 0 <= c <= _MAX_COUNT:
            raise ValidationError(f"count outside [0, int64 max] in row {row!r}")
        if (label, r, q) in seen:
            raise ValidationError(f"repeated counts row for {(label, r, q)}")
        seen.add((label, r, q))
        t = tables.setdefault(label, np.zeros((3, 3), dtype=np.int64))
        t[_OUTCOME_INDEX[r], _OUTCOME_INDEX[q]] = c
        if r == 0 or q == 0:
            saw_nondetect[label] = True
    if not tables:
        raise ValidationError(f"counts CSV {path!r} contains no data rows")
    unknown = sorted(set(totals) - set(tables))
    if unknown:
        raise ValidationError(
            f"emitted totals name pairs that counts CSV {path!r} does not hold: {unknown}")

    records = []
    for label, t in tables.items():
        if saw_nondetect.get(label, False):
            # The table counts every trial, so a supplied total must equal its sum.
            records.append(CountsRecord(label=label, table=t,
                                        emitted_total=totals.get(label, int(t.sum()))))
        elif label in totals:
            total = int(totals[label])
            n_obs = int(t.sum())
            if total < n_obs:
                raise ValidationError(
                    f"emitted total {total} for pair {label!r} is below the "
                    f"observed count {n_obs}")
            t = t.copy()
            t[2, 2] = total - n_obs
            records.append(CountsRecord(label=label, table=t,
                                        emitted_total=total,
                                        nondetect_split_known=False))
        else:
            records.append(CountsRecord(label=label, table=t))
    return records


def analysis_report(recs) -> dict:
    """JSON-ready analysis of four counts records.

    ``epsilon`` degrades to the string "unavailable" when emitted totals
    are missing.
    """
    ordered = _ordered(recs)
    per_pair = {
        rec.label: {
            "E_eff": e_eff_from_counts(rec),
            "stderr": e_eff_stderr(rec),
            "coincidences": coincidence_count(rec),
        }
        for rec in ordered
    }
    u_eff, stderr = u_eff_from_counts(ordered)
    report: dict = {
        "schema_version": 1,
        "per_pair": per_pair,
        "U_eff": u_eff,
        "stderr": stderr,
        "error_model": "independent trials, plug-in binomial variances",
    }
    try:
        eps = epsilon_decomposition(ordered)
        report["epsilon"] = {
            "per_pair": dict(eps.eps),
            "total": eps.eps_total,
            "U": eps.u,
            "interval": list(eps.interval),
            "U_eff_in_interval": eps.u_eff_in_interval,
            "nondetect_split_known": all(r.nondetect_split_known for r in ordered),
        }
        report["verdicts"] = {
            "abs_u_eff_le_2": abs(u_eff) <= 2.0,
            "abs_u_le_2": abs(eps.u) <= 2.0,
        }
    except NoDataError as exc:
        report["epsilon"] = "unavailable"
        report["epsilon_unavailable_reason"] = str(exc)
        report["verdicts"] = {"abs_u_eff_le_2": abs(u_eff) <= 2.0}
    return report
