"""Trip-wire caps: a valid model never reads as a theorem breach.

The validators admit tables within ``VALIDATOR_TOL`` of their premise and
within ``NORMALIZATION_TOL`` of normalization, so |U_eff| may lie a little
above 2 on a model whose premise passes.  The trip-wires compare against
the cap that premise proves for such tables (``bounds._slack``); these
tests check the caps from both sides: valid models never trip them, and a
real breach still does.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import bounds
from bellsim.adversary import ParametricFamily, _abs_u_eff, _threshold_response, objective
from bellsim.bounds import (
    BOUND_TOL,
    EffectiveCorrelationMode,
    _QuadTables,
    chsh_value,
    effective_chsh,
    optimal_quad,
    signed_sum,
)
from bellsim.cli import main
from bellsim.model import (
    NORMALIZATION_TOL,
    VALIDATOR_TOL,
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    TheoremViolationError,
)
from bellsim.modelio import model_from_dict

QUAD = optimal_quad()
NU = NORMALIZATION_TOL
PLUS, MINUS = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]


def _tabulated(weights, rows1, rows2) -> dict:
    """A tabulated model document; rows are keyed by the quad's angles."""
    return {"schema_version": 1, "type": "tabulated", "lambda_weights": weights,
            "responses": {"1": dict(zip(("0", "45"), rows1)),
                          "2": dict(zip(("22.5", "67.5"), rows2))}}


def _as_document(model: SLHVModel) -> dict:
    """``model`` tabulated at the quad's four angles."""
    tables = [model.tables(party, angles).tolist()
              for party, angles in ((1, QUAD.party1_angles()), (2, QUAD.party2_angles()))]
    return _tabulated(model.space.weights.tolist(), *tables)


def _family_case(family: ParametricFamily, params, n_lambda: int):
    """The family's model at ``params`` and ``objective`` on it."""
    return (family.instantiate(params, n_lambda=n_lambda),
            lambda mode: objective(family, params, QUAD, mode, n_lambda=n_lambda))


def _tabulated_case(doc: dict):
    """The tabulated model and the check ``objective`` runs on it: |U_eff|
    from its tables, raising TheoremViolationError above the proven cap."""
    model = model_from_dict(doc)
    return model, lambda mode: float(_abs_u_eff(
        _QuadTables(model, QUAD, validate=False), mode, "tabulated", np.empty((1, 0)))[0])


def _scaled_threshold(scale: float) -> ParametricFamily:
    """threshold-detection with every detection probability times ``scale``;
    U_eff does not change, but the validators' absolute tolerance admits
    its angle-dependent non-detection."""

    def response(params, party, angles, n_lambda, out):
        _threshold_response(params, party, angles, n_lambda, out)
        out[..., :2] *= scale
        out[..., 2] = 1.0 - out[..., 0] - out[..., 1]

    return ParametricFamily("scaled-threshold", ("theta1", "theta2"),
                            (0.0, 0.0), (0.999, 0.999), response)


def _five_point(w5: float):
    """Party 2 always detects, deterministically.  At four points party 1
    detects with probability 9e-11 at one angle and never at the other,
    within VALIDATOR_TOL of angle-independent; the fifth point, of weight
    w5, always detects.  U_eff = 2 + 9e-11 at w5 = 0.5, 2 + 8.9e-9 at 0.01."""
    d = 9e-11
    up, down, never = [d, 0.0, 1.0 - d], [0.0, d, 1.0 - d], [0.0, 0.0, 1.0]
    w = (1.0 - w5) / 4
    return _tabulated_case(_tabulated(
        [w] * 4 + [w5],
        ([up, down, never, never, PLUS], [never, never, up, down, PLUS]),
        ([PLUS, MINUS, PLUS, MINUS, PLUS], [MINUS, PLUS, PLUS, MINUS, PLUS])))


def _row(p: float, sign: int) -> list[list[float]]:
    return [[p, 0.0, 1.0 - p] if sign > 0 else [0.0, p, 1.0 - p]]


UP = [1.0 + 1e-12, -1e-12, 0.0]
DOWN = [-1e-12, 1.0 + 1e-12, 0.0]
HALF_UP = 0.5 + 4.5e-13

# (model, the objective's check on it), with the values each case reached
# before the trip-wires compared against the caps (all with a passing premise).
CASES = {
    # verify-bounds exited 2 on U_eff = 2.00000000009; |U| - M = 4.5e-11.
    "five-point-w0.5": _five_point(0.5),
    # U_eff - 2 = 8.9e-9, past the search's old 1e-9 tolerance too.
    "five-point-w0.01": _five_point(0.01),
    # U_eff = 4.0 (solution1) and 3.9963 (solution2).
    "scaled-threshold-0.9": _family_case(_scaled_threshold(5e-11), (0.9, 0.9), 720),
    "scaled-threshold-0.69": _family_case(_scaled_threshold(5e-11), (0.69, 0.69), 180),
    # One point, deterministic signs, detection probabilities 4.8e-8 to
    # 0.028: 1 - sum(w p0) cancels, and solution2 gave U_eff = 2.0000000010.
    "cancelling-denominator": _tabulated_case(_tabulated(
        [1.0], (_row(4.78429e-8, 1), _row(8.95643e-7, 1)),
        (_row(0.0282110, 1), _row(0.0189492, -1)))),
    # Entries at -NORMALIZATION_TOL: U = 2.000000000008.
    "negative-entries": _tabulated_case(_tabulated(
        [1.0], ([UP], [UP]), ([UP], [DOWN]))),
    # solution3's detected-subset average read 3.0, and U_eff 6.0.
    "subset-average-above-one": _tabulated_case(_tabulated(
        [1.0], ([[2e-12, -1e-12, 1.0 - 1e-12]], [PLUS]), ([PLUS], [MINUS]))),
    # Weights summing to 1 + 9e-13: U and U_eff = 2.0000000000018.
    "weights-above-one": _tabulated_case(_tabulated(
        [HALF_UP, HALF_UP], ([PLUS, MINUS], [PLUS, MINUS]),
        ([PLUS, MINUS], [MINUS, PLUS]))),
}

CASE_MODES = [
    ("five-point-w0.5", "solution1"),
    ("five-point-w0.01", "solution1"),
    ("scaled-threshold-0.9", "solution1"),
    ("scaled-threshold-0.69", "solution2"),
    ("cancelling-denominator", "solution2"),
    ("negative-entries", "solution1"),
    ("negative-entries", "solution2"),
    ("negative-entries", "solution3"),
    ("subset-average-above-one", "solution3"),
    ("weights-above-one", "solution2"),
    ("weights-above-one", "solution3"),
]


@pytest.mark.parametrize("case, mode", CASE_MODES, ids=[f"{c}-{m}" for c, m in CASE_MODES])
def test_valid_model_is_no_breach(case, mode, tmp_path, capsys):
    model, objective_check = CASES[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_as_document(model)), encoding="utf-8")

    code = main(["verify-bounds", "--model", str(path), "--mode", mode])
    out = json.loads(capsys.readouterr().out)
    assert out["bound_guaranteed"]
    assert not out["theorem_breach"]
    assert code == 0
    chsh_value(model, QUAD)
    objective_check(EffectiveCorrelationMode(mode))


@pytest.mark.parametrize("mode", ["solution1", "solution2"])
def test_real_breach_still_trips(mode, monkeypatch, tmp_path, capsys):
    # One deterministic point detected with probability 0.5 by each party:
    # no deviation, every coincidence probability 0.25 and U_eff = 2.
    half_up, half_down = [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]
    doc = _tabulated([1.0], ([half_up], [half_up]), ([half_up], [half_down]))
    _, objective_check = _tabulated_case(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    m = EffectiveCorrelationMode(mode)
    assert objective_check(m) == 2.0

    # Every E_eff 5e-9 relatively too large puts U_eff 1e-8 above 2, with
    # U and M as they are: the report flags the breach.
    e_eff = bounds._QuadTables.e_eff

    def inflated(q, mode):
        value, dead = e_eff(q, mode)
        return value * (1.0 + 5e-9), dead

    monkeypatch.setattr(bounds._QuadTables, "e_eff", inflated)
    assert main(["verify-bounds", "--model", str(path), "--mode", mode]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["theorem_breach"] and out["U_eff"] == pytest.approx(2.0 + 1e-8, abs=1e-15)
    with pytest.raises(TheoremViolationError):
        objective_check(m)

    # Every E 5e-9 relatively too large also puts |U| = M = 0.5 past M's
    # cap, whose trip-wire raises before any report is written.
    monkeypatch.setattr(bounds._QuadTables, "e",
                        property(lambda q: signed_sum(q.joints) * (1.0 + 5e-9)))
    assert main(["verify-bounds", "--model", str(path), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds M = 0.5" in captured.err


@pytest.mark.parametrize("bound", ["U", "M"])
def test_u_and_m_trip_wires_reach_verify_bounds(bound, monkeypatch, tmp_path, capsys):
    # effective_chsh, behind verify-bounds, runs chsh_value's trip-wires on
    # U and M: a breach of either raises, and the CLI exits 2 on it.
    doc = _tabulated([1.0], ([PLUS], [PLUS]), ([PLUS], [MINUS]))
    model = model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    breach = bounds._breach
    monkeypatch.setattr(bounds, "_breach", lambda q, b, excess: (
        np.ones(len(q), dtype=bool) if b == bound else breach(q, b, excess)))
    for check in (chsh_value, effective_chsh):
        with pytest.raises(TheoremViolationError, match=r"^\|U\| = "):
            check(model, QUAD)
    assert main(["verify-bounds", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: |U| = ")


def _premise_deviation(p0, mode) -> float:
    """The validator's deviation, from each party's (2, n) p0 rows: the
    range over the angles (solution1) or over the points (solution2)."""
    axis = 0 if mode == "solution1" else 1
    return max(float(np.max(np.ptp(rows, axis=axis))) for rows in p0)


@st.composite
def near_premise_models(draw, mode):
    """1-8 point models whose ``mode`` premise holds up to a deviation in
    (0, VALIDATOR_TOL]: detection scaled down as far as 1e-9, signs often
    deterministic, entries and weights jittered within NORMALIZATION_TOL."""
    # solution2's deviation is a range over the points, so it needs two.
    n = draw(st.integers(1 if mode == "solution1" else 2, 8))
    scale = 10.0 ** -draw(st.integers(0, 9))
    dev = draw(st.floats(0.0, 1.0, exclude_min=True)) * (VALIDATOR_TOL - NU)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(n)) * (1.0 + rng.uniform(-0.9, 0.9) * NU)
    # The base detection probability is shared across the angles
    # (solution1) or across the points (solution2); dev spreads it.
    base_shape = (2, 1, n) if mode == "solution1" else (2, 2, 1)
    detect = scale * rng.uniform(0.01, 1.0 - 1e-9, size=base_shape) \
        + dev * rng.uniform(0.0, 1.0, size=(2, 2, n))
    share = np.where(rng.uniform(size=(2, 2, n)) < 0.6,
                     rng.integers(0, 2, size=(2, 2, n)), rng.uniform(size=(2, 2, n)))
    t = np.stack([detect * share, detect * (1.0 - share), 1.0 - detect], axis=-1)
    t += rng.uniform(-0.3, 0.3, size=t.shape) * NU
    responses = [ResponseFunction.from_table(party, dict(zip(angles, t[party - 1])))
                 for party, angles in ((1, QUAD.party1_angles()), (2, QUAD.party2_angles()))]
    return SLHVModel(HiddenVariableSpace(w), *responses), t, w


@pytest.mark.parametrize("mode", ["solution1", "solution2"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_caps_hold_near_the_premise(mode, data):
    model, t, w = data.draw(near_premise_models(mode))
    # Every value and cap from the raw tables, sharing no code with bounds.
    t1, t2 = t
    x, y = t1[..., 0] - t1[..., 1], t2[..., 0] - t2[..., 1]
    a, b = t1[..., 0] + t1[..., 1], t2[..., 0] + t2[..., 1]
    e = np.einsum("i,ji,li->jl", w, x, y).ravel()
    coin = np.einsum("i,ji,li->jl", w, a, b).ravel()
    signs = np.array([1.0, -1.0, 1.0, 1.0])
    dev = _premise_deviation((t1[..., 2], t2[..., 2]), mode)
    assert 0.0 < dev <= VALIDATOR_TOL
    delta = dev + 5 * NU
    u_total, m = float(signs @ e), 2.0 * coin[0]
    assert abs(u_total) <= 2.0 * (1.0 + 4.0 * NU) ** 2 + BOUND_TOL
    if mode == "solution1":
        u_eff = float(signs @ (e / coin))
        cap = 2.0 + 6.0 * (2 * delta + delta**2) / coin.min()
        assert abs(u_total) <= m + 2.0 * (2 * delta + delta**2) + BOUND_TOL
        u = x[0] * (y[0] - y[1]) + x[1] * (y[0] + y[1])
        pointwise = 2.0 * a[0] * b[0] + 2.0 * (delta * (a[0] + b[0]) + delta**2)
        assert np.all(np.abs(u) <= pointwise + BOUND_TOL)
    else:
        d1, d2 = 1.0 - t1[..., 2] @ w, 1.0 - t2[..., 2] @ w
        u_eff = float(signs @ (e / np.outer(d1, d2).ravel()))
        cap = 2.0 * (1 + delta / d1.min()) * (1 + delta / d2.min())
    assert abs(u_eff) <= cap + BOUND_TOL

    # And bellsim's own trip-wires stay quiet.  1 - sum(w p0) cancels at
    # small detection, so its U_eff may differ from the one above in more
    # than the last place, but the 5nu in delta covers that rounding.
    report = effective_chsh(model, QUAD, EffectiveCorrelationMode(mode))
    assert report.bound_guaranteed and not report.theorem_breach
    assert abs(report.u_eff) <= cap + BOUND_TOL
    assert report.u_eff_cap == pytest.approx(cap, rel=1e-3)
    assert report.pointwise is None or report.pointwise.passed
    chsh_value(model, QUAD)


# The rounding room of every trip-wire, written out here rather than read
# from bounds.BOUND_TOL, so that a change to that constant fails a test.
ROOM = 1e-12
# The M cap's premise deviation is 0 on the batch below, so delta = 5nu.
_DELTA = 5 * NU


def _solution1_batch(shift: float = 0.0):
    """A ``from_tables`` batch of two equal sources on two equally weighted
    points.  Each point's non-detection probability is the same at both
    angles of each party, so solution1 holds with deviation 0, unless
    ``shift`` moves it at party 1's second angle."""
    p0 = np.array([0.2, 0.4])
    t = np.zeros((2, 2, 2, 2, 3))  # (B, party, angle, n, outcome)
    t[..., 0], t[..., 2] = 1.0 - p0, p0
    t[:, 0, 1, :, 0] -= shift
    t[:, 0, 1, :, 2] += shift
    return _QuadTables.from_tables(np.array([[0.5, 0.5]]), t)


@pytest.mark.parametrize("bound, cap", [
    ("U", 2.0 * ((1.0 + 4.0 * NU) ** 2 - 1.0)),
    ("M", 2.0 * (2.0 * _DELTA + _DELTA ** 2)),
    (EffectiveCorrelationMode.SOLUTION3, 2.0 * NU),
], ids=["U", "M", "solution3"])
def test_breach_fires_just_past_each_cap(bound, cap):
    # Each excess above the ideal bound is its proven slack (the cap of
    # ``bounds._slack``'s docstring, from nu and delta alone) plus half the
    # rounding room, which is no breach, or plus one and a half, which is.
    q = _solution1_batch()
    excess = np.array([cap + 0.5 * ROOM, cap + 1.5 * ROOM])
    assert bounds._breach(q, bound, excess).tolist() == [False, True]


def test_failed_premise_proves_no_m_cap():
    # A solution1 deviation of 5e-9 is above VALIDATOR_TOL (1e-10): the
    # premise fails, so no M cap holds and no excess is a breach.
    q = _solution1_batch(shift=5e-9)
    assert bounds._breach(q, "M", np.array([1e-6, 1.0])).tolist() == [False, False]
