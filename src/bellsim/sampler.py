"""Seeded Monte Carlo generation of trial-by-trial experiment records.

Reproducibility contract
------------------------
Trials are generated in fixed-size blocks.  The random stream of block
``j`` of setting pair ``i`` comes from numpy's ``BIT_GENERATOR``
(PCG64DXSM) seeded by ``SeedSequence(entropy=seed, spawn_key=(i, j))``,
so the counts depend only on ``(seed, pair index, block index)`` and
never on how blocks are scheduled across workers.  Every block's state
comes from its own SeedSequence and no stream is advanced or jumped, so
the generator needs independent seeding, not a counter.  The run
sidecar names the generator from the same ``BIT_GENERATOR``.

Each setting pair's law is its 3x3 joint-outcome table, formed once per
run: ``qm.joint_table`` for the QM source, and for an SLHV model
``bounds._QuadTables.joints``, whose cells ``sum_i w_i t1[i, r] t2[i, q]``
over the hidden points are each one ``math.fsum`` of the products
``(w * t1) * t2`` of the validated response tables.  fsum rounds each
cell once, so a cell does not depend on the order of the hidden points,
and no BLAS kernel, whose bits depend on the host's dispatch, is
involved.  The nine cells are laid out row-major over
``OUTCOME_VALUES`` x ``OUTCOME_VALUES``, that is (+, -, 0)^2, each
clamped at 0 (a response table may hold a p- of -nu, which the
validator tolerates), and summed cumulatively in that order into eight
edges.  The top edge is guarded as an inverse CDF's is: every edge from
the last cell of positive probability on is raised to at least 1.

A block of n trials makes exactly one draw, ``Generator.random(n)``
with an integer size; that call is part of the contract, and only
``Generator.random`` is used, keeping the mapping from bit stream to
outcomes entirely in this module.  A trial lands in the first cell
whose edge lies above its uniform: the block counts the uniforms below
each of the eight edges, each cell takes the difference of two
consecutive counts, and the neither-detected cell (0, 0) takes the
remainder.  So a cell of probability 0 never gets a count, and since
the counts are the sufficient statistics of the run, nothing else of
the trials is kept.

One path runs at every worker count: each setting pair's edges are
formed once, and the blocks run on ``n`` threads, ``workers`` capped at
the block count and the CPU count (``model._pool_size``).  Each thread
counts a fixed share, the rule ``adversary`` applies to restarts: the
blocks are numbered pair by pair, and thread i counts blocks i, i + n,
i + 2n, ... into its own (4, 3, 3) int64 table.  The n tables are
summed, so memory is O(workers), and integer sums are exact in any
order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

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
from .qm import QMModelParams, joint_table

__all__ = [
    "BIT_GENERATOR",
    "BLOCK_SIZE",
    "ExperimentPlan",
    "ExperimentResult",
    "substream",
    "run_experiment",
    "write_counts_csv",
    "write_run_sidecar",
]

BLOCK_SIZE = 1 << 16
# The numpy.random class every block draws from, held by name: the sidecar
# writes it, and looking the class up per block keeps ``import bellsim``
# from importing numpy.random, which numpy loads lazily.
BIT_GENERATOR = "PCG64DXSM"


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
    """The documented (seed, pair, block) -> bit stream derivation: a
    ``BIT_GENERATOR`` seeded by ``SeedSequence(entropy=seed,
    spawn_key=(pair_index, block_index))``."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(pair_index), int(block_index)))
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(ss))


def _edges(table: np.ndarray) -> np.ndarray:
    """The eight cumulative edges of a 3x3 joint table's cells, row-major,
    each cell clamped at 0; the edges from the last positive cell on are
    raised to at least 1, so no draw lands past it."""
    cells = np.maximum(np.ravel(table), 0.0)
    cdf = np.cumsum(cells)
    cdf[np.flatnonzero(cells)[-1]:] = max(cdf[-1], 1.0)
    return cdf[:8]


def _block(edges: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """3x3 outcome counts for n trials from one uniform each: a cell counts
    the uniforms between its edge and the one before, and the last cell
    takes the remainder."""
    u = rng.random(n)
    below = [np.count_nonzero(u < e) for e in edges.tolist()]
    return np.diff(np.array([0, *below, n], dtype=np.int64)).reshape(3, 3)


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
        tables = _QuadTables(source, plan.quad).joints[0]
        summary = {"kind": "slhv", "n_lambda": source.space.size,
                   **{k: v for k, v in source.meta.items()
                      if isinstance(v, (str, int, float, bool))}}
    else:
        tables = [joint_table(source, a, b) for _label, a, b in plan.quad.pairs()]
        summary = {"kind": "qm", **asdict(source)}
    edges = [_edges(table) for table in tables]

    def share_counts(share: range) -> np.ndarray:
        counts = np.zeros((4, 3, 3), dtype=np.int64)
        for task in share:
            pair_index, block_index = divmod(task, n_blocks)
            size = min(BLOCK_SIZE, n - block_index * BLOCK_SIZE)
            rng = substream(plan.seed, pair_index, block_index)
            counts[pair_index] += _block(edges[pair_index], rng, size)
        return counts

    shares = [range(i, n_tasks, n_workers) for i in range(n_workers)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        counts = sum(pool.map(share_counts, shares))

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
            "bit_generator": BIT_GENERATOR,
            "block_size": BLOCK_SIZE,
            "substream": "SeedSequence(entropy=seed, spawn_key=(pair_index, block_index))",
        },
    })
