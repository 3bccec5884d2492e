"""Metamorphic relations: the same code run on a transformed input gives
the same output, with no reference formula to share a mistake with.

Sampled counts.  A tabulated model's hidden points are a weighted set,
so neither their order nor splitting one point into two of half its
weight changes the model.  Each cell of a pair's joint table is one
correctly rounded fsum of the products w * t1 * t2: a permutation only
reorders the terms, and halving a weight halves its products exactly,
so the two halves add back to the whole.  The joint tables, and so the
counts of every seeded run, must then be byte-identical.  A one-ulp
change of an edge would move a count only if a draw landed on it, so
the tables are compared as well as the counts.
"""

import numpy as np
import pytest

from bellsim.bounds import _QuadTables, optimal_quad
from bellsim.modelio import model_from_dict
from bellsim.random_models import (
    random_angle_independent_model,
    random_lambda_independent_model,
    random_nondegenerate_model,
)
from bellsim.sampler import BLOCK_SIZE, ExperimentPlan, run_experiment

QUAD = optimal_quad()
# The quad's angles in degrees, as a tabulated document keys them.
KEYS = {1: ("0", "45"), 2: ("22.5", "67.5")}


def tabulated(weights, tables):
    """A tabulated model document: ``tables[party][k]`` is the (n, 3) table
    at that party's k-th angle of QUAD."""
    return model_from_dict({
        "type": "tabulated",
        "lambda_weights": list(weights),
        "responses": {str(party): {key: tables[party][k].tolist()
                                   for k, key in enumerate(KEYS[party])}
                      for party in (1, 2)}})


def tables_of(model):
    angles = {1: QUAD.party1_angles(), 2: QUAD.party2_angles()}
    return {party: list(model.tables(party, list(angles[party]))) for party in (1, 2)}


def run_bytes(model, seed):
    """The sampler's four joint tables, and the counts of a seeded run of
    two blocks per pair, the second one short."""
    joints = _QuadTables(model, QUAD).joints[0]
    plan = ExperimentPlan(QUAD, BLOCK_SIZE + 12_345, seed=seed)
    return joints.tobytes() + b"".join(rec.table.tobytes()
                                       for rec in run_experiment(model, plan).records)


MODELS = [(builder, n_lambda)
          for builder in (random_nondegenerate_model, random_angle_independent_model,
                          random_lambda_independent_model)
          for n_lambda in (2, 9, 40)]


@pytest.mark.parametrize("builder, n_lambda", MODELS,
                         ids=[f"{b.__name__}-{n}" for b, n in MODELS])
def test_hidden_point_order_and_splits_leave_tables_and_counts(builder, n_lambda):
    rng = np.random.default_rng(1400 + n_lambda)
    source = builder(rng, n_lambda)
    weights, tables = source.space.weights, tables_of(source)
    base = tabulated(weights, tables)
    want = run_bytes(base, seed=n_lambda)
    assert run_bytes(source, seed=n_lambda) == want

    perm = rng.permutation(n_lambda)
    permuted = tabulated(weights[perm], {p: [t[perm] for t in ts] for p, ts in tables.items()})
    assert run_bytes(permuted, seed=n_lambda) == want

    i = int(rng.integers(n_lambda))
    idx = np.insert(np.arange(n_lambda), i, i)  # point i twice, side by side
    halved = weights[idx]
    halved[i:i + 2] = weights[i] / 2
    split = tabulated(halved, {p: [t[idx] for t in ts] for p, ts in tables.items()})
    assert run_bytes(split, seed=n_lambda) == want
