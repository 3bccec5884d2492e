"""Property test of the CLI contract: no input ends in a traceback.

Hypothesis builds argument vectors and the model, family, counts and
emitted-totals files they name, for all six commands.  Every run must
exit 0 or 1 (2 is a theorem breach, which no input may reach), and a
failing run prints exactly one ``error:`` line.
Sizes that drive the amount of work (trials, coincidences, n_lambda,
restarts, evaluations) are capped small, so each example runs in
milliseconds; sizes past what a count table holds are among the bad
texts.  The examples are derandomized, so the suite is the same on every
run.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bellsim.adversary import FAMILIES
from bellsim.bounds import PAIR_LABELS
from bellsim.cli import main

MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"


class _File(NamedTuple):
    """An argv slot filled with the path of a file written before the run;
    ``content=None`` names a path that is not created (an output)."""

    name: str
    content: bytes | None


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
_number_text = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-1", "nan", "inf", "1e3", "x", ""]),
    st.floats(-2, 2).map(repr))


def _number(*valid):
    """Mostly one of the valid values, otherwise any number text."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), _number_text)


def _int(lo, hi, *bad):
    """Mostly an integer in [lo, hi], otherwise one of the ``bad`` texts."""
    good = st.integers(lo, hi).map(str)
    return st.one_of(good, good, st.sampled_from(bad))


def _flag(name, values):
    """An optional ``name value`` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _given(name, values):
    """A ``name value`` pair that is always present."""
    return values.map(lambda v: [name, v])


def _argv(*parts):
    """The concatenation of the drawn argv pieces."""
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


_quad = st.one_of(
    st.sampled_from(["0,45,22.5,67.5", "0,0,0,0", "0,45,22.5", "a,b,c,d",
                     "nan,0,0,0", "inf,1,2,3", ""]),
    st.lists(st.floats(-400, 400), min_size=3, max_size=5).map(
        lambda xs: ",".join(map(repr, xs))))
_modes = st.sampled_from(["solution1", "solution2", "solution3", "bogus"])

_family_doc = st.fixed_dictionaries(
    {"type": st.just("family"),
     "family": st.one_of(st.sampled_from(sorted(FAMILIES)), _junk),
     "parameters": st.one_of(
         st.dictionaries(
             st.sampled_from(["theta1", "theta2", "c0", "c1", "sharpness", "x"]),
             st.one_of(st.floats(-0.5, 4), _junk), max_size=4),
         _junk)},
    optional={"n_lambda": st.one_of(st.integers(-2, 24), _junk)})
_rows = st.one_of(
    st.lists(st.one_of(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), _junk), max_size=4),
        _junk), max_size=3),
    _junk)
_tables = st.dictionaries(
    st.sampled_from(["0", "45", "22.5", "67.5", "90", "x", "nan"]), _rows, max_size=4)
_tabulated_doc = st.fixed_dictionaries(
    {"type": st.sampled_from(["tabulated", "bogus"]),
     "lambda_weights": st.one_of(
         st.lists(st.one_of(st.sampled_from([0.5, 1.0]), _junk), max_size=3), _junk),
     "responses": st.one_of(
         st.fixed_dictionaries({"1": _tables, "2": _tables}),
         st.dictionaries(st.sampled_from(["1", "2", "3"]),
                         st.one_of(_tables, _junk), max_size=3),
         _junk)})
_valid_family_doc = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda name: st.fixed_dictionaries({
        "type": st.just("family"), "family": st.just(name),
        "parameters": st.fixed_dictionaries({
            p: st.floats(lo, hi) for p, lo, hi in zip(
                FAMILIES[name].param_names, FAMILIES[name].lower,
                FAMILIES[name].upper)}),
        "n_lambda": st.integers(1, 24)}))
_model = st.one_of(
    st.sampled_from([str(MODELS / "solution1_tabulated.json"),
                     str(MODELS / "threshold_adversary.json"),
                     "/nonexistent/model.json"]),
    st.one_of(_valid_family_doc, _valid_family_doc, _family_doc, _tabulated_doc,
              _junk).map(lambda doc: _File("model.json", _json(doc))),
    st.binary(max_size=16).map(lambda b: _File("model.json", b)))

_count_cell = st.one_of(st.sampled_from(["+1", "-1", "0"]), _number_text)
_counts_row = st.tuples(
    st.sampled_from([*PAIR_LABELS, "zz"]), _count_cell, _count_cell,
    st.one_of(st.integers(-3, 60).map(str), _number_text)).map(",".join)
_full_counts = st.lists(st.integers(0, 50), min_size=36, max_size=36).map(
    lambda cs: "\n".join(["pair_label,r,q,count"] + [
        f"{lab},{r:+d},{q:+d},{c}" for (lab, r, q), c in zip(
            ((lab, r, q) for lab in PAIR_LABELS for r in (1, -1, 0)
             for q in (1, -1, 0)), cs)]).encode())
_counts = st.one_of(
    _full_counts,
    st.tuples(st.sampled_from(["pair_label,r,q,count", "label,r,q", ""]),
              st.lists(_counts_row, max_size=40)).map(
        lambda hr: "\n".join([hr[0], *hr[1]]).encode()),
    st.binary(max_size=16)).map(lambda b: _File("counts.csv", b))
_totals = st.one_of(
    st.dictionaries(st.sampled_from([*PAIR_LABELS, "zz"]),
                    st.one_of(st.integers(0, 500), _junk), max_size=5).map(_json),
    _junk.map(_json),
    st.binary(max_size=16)).map(lambda b: _File("totals.json", b))
_out = st.sampled_from([_File("out.txt", None)] * 3 + ["/nonexistent/dir/out.txt"])

_qm_flags = _argv(
    _given("--eta", _number("0.5", "0.9", "1")), _given("--f", _number("0.5", "1")),
    _given("--F", _number("0", "0.95", "1")),
    _flag("--eta2", _number("0.7")), _flag("--f2", _number("0.8")))
_sweep_values = st.one_of(
    st.lists(st.sampled_from(["0.5", "0.8", "1"]), min_size=1, max_size=2),
    st.lists(st.sampled_from(["0.5", "1", "0", "-0.5", "1.5", "nan", "x", ""]),
             max_size=2)).map(",".join)

COMMANDS = {
    "verify-bounds": _argv(
        st.just(["verify-bounds"]), _given("--model", _model),
        _flag("--quad", _quad), _flag("--mode", _modes),
        st.integers(0, 2).map(lambda k: ["-v"] * k), _flag("--out", _out)),
    "simulate": _argv(
        st.just(["simulate"]), st.one_of(_given("--model", _model), _qm_flags),
        _given("--trials", _number("1", "50", "300", "2.5", str(2**63))),
        _flag("--seed", _int(0, 5, "-1", "x")), _flag("--workers", _int(1, 1, "0", "-1")),
        _flag("--quad", _quad), _given("--out", _out)),
    "analyze": _argv(
        st.just(["analyze"]), _given("--counts", _counts),
        _flag("--emitted-totals", _totals),
        _flag("--format", st.sampled_from(["json", "csv", "xml"])), _flag("--out", _out)),
    "qm-predict": _argv(
        st.just(["qm-predict"]), _qm_flags, _flag("--quad", _quad),
        _flag("--format", st.sampled_from(["json", "csv", "xml"])), _flag("--out", _out)),
    "adversary-search": _argv(
        st.just(["adversary-search"]),
        _given("--family", st.sampled_from([*sorted(FAMILIES)] * 2 + ["bogus"])),
        _given("--restarts", _int(1, 2, "0", "-1")),
        _given("--max-evals", _int(10, 30, "0", "9")),
        _given("--n-lambda", _int(1, 12, "0", "-1", "x")),
        _flag("--seed", _int(0, 3, "-1")), _flag("--mode", _modes), _flag("--quad", _quad),
        _flag("--freeze", st.tuples(
            st.sampled_from(["theta1", "c1", "x", ""]), st.sampled_from(["=", ""]),
            _number("0", "0.3")).map("".join)),
        _flag("--workers", _int(1, 2, "0")), _flag("--out", _out)),
    "sweep": _argv(
        st.just(["sweep"]), _given("--eta-values", _sweep_values),
        _given("--f12-values", _sweep_values), _given("--F", _number("0.9", "1")),
        _given("--min-coincidences", _number("1", "20", "50", "1e30")),
        _flag("--seed", _int(0, 3, "-1")), _flag("--workers", _int(1, 1, "0", "-1")),
        _given("--out", _out)),
}


def _run(argv, tmp: Path):
    """Write the argv's files into tmp and run the CLI in-process."""
    args = []
    for a in argv:
        if isinstance(a, _File):
            path = tmp / a.name
            if a.content is not None:
                path.write_bytes(a.content)
            a = str(path)
        args.append(a)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # --help and --version exit through argparse
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_input_exits_cleanly(command, data):
    argv = data.draw(COMMANDS[command], label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run(argv, Path(tmp))
    event(f"exit {code}")
    assert code in (0, 1)
    assert "Traceback" not in err
    if code != 0:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
