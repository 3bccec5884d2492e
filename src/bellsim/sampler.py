"""Seeded Monte Carlo generation of trial-by-trial experiment records.

Reproducibility contract
------------------------
Trials are generated in fixed-size blocks.  The random stream of block
``j`` of setting pair ``i`` comes from a Philox counter-based bit
generator keyed by ``SeedSequence(entropy=seed, spawn_key=(i, j))``, so
the counts depend only on ``(seed, pair index, block index)`` and never
on how blocks are scheduled across workers.  Within a block the draw
order is fixed:

* SLHV source: one uniform per trial for the hidden variable (inverse
  CDF over the weights), then one for party 1's outcome, then one for
  party 2's.
* QM source: one uniform per trial for each photon's detection
  (probability ``eta_k * f_k``), then one resolving party 1's outcome
  (or the joint outcome cell when both photons were detected), then one
  resolving party 2's outcome when only photon 2 was detected.

Each of these is one ``Generator.random(n)`` call with an integer size,
in the order above; that draw order and those per-array calls are part
of the contract.  Only ``Generator.random`` is used, keeping the mapping
from bit stream to outcomes entirely in this module.

A block is tallied straight from its uniform arrays.  Each setting
pair's kernel arguments are computed once per run, not per block: the
SLHV kernel's cumulative outcome edges ``(p+, p+ + p-)`` come from the
model's response tables, once per (party, angle), and the QM kernel's
detection probabilities and joint-cell edges from ``qm._pair_law``.
The QM kernel counts each 3x3 cell from boolean masks over the
uniforms, with no per-trial index arrays; the SLHV kernel compares each
trial's outcome uniforms with the edges at its hidden point.

One path runs at every worker count: each setting pair's kernel is
chosen once, and the blocks run on a thread pool of ``workers`` threads,
capped at the block count and the CPU count (``model._pool_size``), in chunks
of at most ``_MAX_IN_FLIGHT``.  The integer count tables of a
chunk are added into the pair totals as soon as the chunk finishes, so
memory does not grow with the number of trials, and integer sums are
exact in any order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .bounds import PAIR_LABELS, SettingsQuad, _QuadTables
from .estimator import _MAX_COUNT, COUNTS_COLUMNS, CountsRecord
from .model import (
    OUTCOME_VALUES,
    SLHVModel,
    ValidationError,
    _check_instance,
    _check_integer,
    _pool_size,
)
from .modelio import csv_text, write_json, write_text
from .qm import QMModelParams, _pair_law

__all__ = [
    "BLOCK_SIZE",
    "ExperimentPlan",
    "ExperimentResult",
    "substream",
    "run_experiment",
    "write_counts_csv",
    "write_run_sidecar",
]

BLOCK_SIZE = 1 << 16
_MAX_IN_FLIGHT = 1024  # blocks handed to the pool at once


@dataclass(frozen=True)
class ExperimentPlan:
    """One CHSH run: four setting pairs, emitted pairs per setting, seed."""

    quad: SettingsQuad
    trials_per_pair: int
    seed: int

    def __post_init__(self):
        _check_instance(self.quad, SettingsQuad, "quad")
        for name, minimum in (("trials_per_pair", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               _check_integer(getattr(self, name), name, minimum))
        if self.trials_per_pair > _MAX_COUNT:
            raise ValidationError(
                f"trials_per_pair must lie in [1, {_MAX_COUNT}] (the count "
                f"tables are int64), got {self.trials_per_pair!r}")


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[CountsRecord, ...]
    plan: ExperimentPlan
    source_summary: dict


def substream(seed: int, pair_index: int, block_index: int) -> np.random.Generator:
    """The documented (seed, pair, block) -> bit stream derivation."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(pair_index), int(block_index)))
    return np.random.Generator(np.random.Philox(ss))


def _lambda_cdf(model: SLHVModel) -> np.ndarray:
    cdf = np.cumsum(model.space.weights)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top bin against rounding
    return cdf


def _outcome_edges(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative edges ``(p+, p+ + p-)`` of an (n, 3) response table."""
    c0 = np.ascontiguousarray(table[:, 0])
    return c0, c0 + table[:, 1]


def _categorical(edges: tuple[np.ndarray, np.ndarray], lam: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Outcome column index per trial from the edges at each trial's lambda."""
    # A where chain, not a sum of comparisons: with a tolerated p- just
    # below 0 the upper edge sits under the lower one and the forms differ.
    return np.where(u < edges[0][lam], 0, np.where(u < edges[1][lam], 1, 2))


def _slhv_block(e1: tuple[np.ndarray, np.ndarray], e2: tuple[np.ndarray, np.ndarray],
                cdf: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """3x3 outcome counts for n trials; e1/e2 are each party's outcome edges."""
    # _lambda_cdf makes cdf[-1] >= 1 > u, so no index reaches cdf.size.
    lam = np.searchsorted(cdf, rng.random(n), side="right")
    r_idx = _categorical(e1, lam, rng.random(n))
    q_idx = _categorical(e2, lam, rng.random(n))
    counts = np.bincount(r_idx * 3 + q_idx, minlength=9)
    return counts.reshape(3, 3)


def _qm_block(detect: tuple[float, float], edges: np.ndarray,
              rng: np.random.Generator, n: int) -> np.ndarray:
    """3x3 outcome counts for n trials; ``detect`` holds each photon's
    detection probability and ``edges`` the cumulative joint cells."""
    d1 = rng.random(n) < detect[0]
    d2 = rng.random(n) < detect[1]
    u1 = rng.random(n)
    u2 = rng.random(n)

    # A both-detected trial lands in the cell of the first edge above u1.
    both = d1 & d2
    n_both = np.count_nonzero(both)
    ge0, ge1, ge2 = (np.count_nonzero(both & (u1 >= e)) for e in edges)
    only1 = d1 ^ both
    n1 = np.count_nonzero(only1)
    n1_minus = np.count_nonzero(only1 & (u1 >= 0.5))
    only2 = d2 ^ both
    n2 = np.count_nonzero(only2)
    n2_minus = np.count_nonzero(only2 & (u2 >= 0.5))

    return np.array([[n_both - ge0, ge0 - ge1, n1 - n1_minus],
                     [ge1 - ge2, ge2, n1_minus],
                     [n2 - n2_minus, n2_minus, n - n_both - n1 - n2]],
                    dtype=np.int64)


def run_experiment(source: SLHVModel | QMModelParams, plan: ExperimentPlan,
                   workers: int = 1) -> ExperimentResult:
    """Tally 3x3 outcome counts for each of the four setting pairs.

    The result is bit-identical for any ``workers`` value >= 1; see the
    module docstring for the substream derivation.
    """
    _check_instance(source, (SLHVModel, QMModelParams), "source")
    _check_instance(plan, ExperimentPlan, "plan")
    n = plan.trials_per_pair
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_tasks = 4 * n_blocks
    n_workers = _pool_size(workers, n_tasks)

    if isinstance(source, SLHVModel):
        q = _QuadTables(source, plan.quad)
        edges1, edges2 = ([_outcome_edges(t) for t in ts] for ts in q.t[0])
        cdf = _lambda_cdf(source)
        # PAIR_LABELS order is the (a, a') x (b, b') grid, row by row.
        kernels = [partial(_slhv_block, e1, e2, cdf) for e1 in edges1 for e2 in edges2]
        summary = {"kind": "slhv", "n_lambda": source.space.size,
                   **{k: v for k, v in source.meta.items()
                      if isinstance(v, (str, int, float, bool))}}
    else:
        # Joint cells in order (+,+), (+,-), (-,+), (-,-).
        laws = [_pair_law(source, a, b) for _label, a, b in plan.quad.pairs()]
        kernels = [partial(_qm_block, detect, np.cumsum([same, diff, diff]))
                   for detect, (same, diff) in laws]
        summary = {"kind": "qm", **asdict(source)}

    def block_counts(task: int) -> tuple[int, np.ndarray]:
        pair_index, block_index = divmod(task, n_blocks)
        size = min(BLOCK_SIZE, n - block_index * BLOCK_SIZE)
        rng = substream(plan.seed, pair_index, block_index)
        return pair_index, kernels[pair_index](rng, size)

    counts = np.zeros((4, 3, 3), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for start in range(0, n_tasks, _MAX_IN_FLIGHT):
            chunk = range(start, min(start + _MAX_IN_FLIGHT, n_tasks))
            # The chunk's tables are held until it is done: freeing each one
            # as it arrives lets malloc trim a worker's heap after every
            # block, and the next block faults its pages back in.
            for pair_index, table in list(pool.map(block_counts, chunk)):
                counts[pair_index] += table

    records = tuple(CountsRecord(label=label, table=counts[i], emitted_total=n)
                    for i, label in enumerate(PAIR_LABELS))
    return ExperimentResult(records=records, plan=plan, source_summary=summary)


def write_counts_csv(records, path) -> None:
    """Fixed-order CSV: a ``COUNTS_COLUMNS`` header, then nine cells per pair."""
    # A table's rows and columns run over OUTCOME_VALUES in order.
    signs = [f"{v:+d}" if v else "0" for v in OUTCOME_VALUES]
    rows = [(rec.label, signs[i], signs[j], count) for rec in records
            for i, counts in enumerate(rec.table.tolist()) for j, count in enumerate(counts)]
    write_text(path, csv_text([COUNTS_COLUMNS, *rows]))


def write_run_sidecar(result: ExperimentResult, path) -> None:
    """JSON sidecar documenting the plan, seed and substream scheme."""
    write_json(path, {
        "schema_version": 1,
        "quad_degrees": list(result.plan.quad.to_degrees()),
        "pair_labels": list(PAIR_LABELS),
        "trials_per_pair": result.plan.trials_per_pair,
        "seed": result.plan.seed,
        "source": result.source_summary,
        "rng": {
            "bit_generator": "Philox",
            "block_size": BLOCK_SIZE,
            "substream": "SeedSequence(entropy=seed, spawn_key=(pair_index, block_index))",
        },
    })
