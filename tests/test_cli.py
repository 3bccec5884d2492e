"""CLI contract: subcommands, exit codes, golden outputs, manifests."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bellsim.cli import main
from bellsim.modelio import json_text, load_model, model_from_dict, write_json
from bellsim.model import ValidationError

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
MODELS = REPO / "demos" / "models"


def run(argv):
    return main(argv)


class TestVerifyBounds:
    def test_compliant_model_exits_zero(self, capsys):
        code = run(["verify-bounds", "--model",
                    str(MODELS / "solution1_tabulated.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["bound_guaranteed"]
        assert abs(out["U_eff"]) <= 2.0

    def test_cap_reported_under_verbose_only(self, capsys):
        compliant = str(MODELS / "solution1_tabulated.json")
        run(["verify-bounds", "--model", compliant])
        assert "u_eff_cap" not in json.loads(capsys.readouterr().out)["assumptions"]
        run(["verify-bounds", "-v", "--model", compliant])
        assert 2.0 < json.loads(capsys.readouterr().out)["assumptions"]["u_eff_cap"] < 2.0 + 1e-8
        # A failing premise proves no cap.
        run(["verify-bounds", "-v", "--model", str(MODELS / "threshold_adversary.json")])
        assert json.loads(capsys.readouterr().out)["assumptions"]["u_eff_cap"] is None

    def test_adversary_model_flagged_not_breach(self, capsys):
        code = run(["verify-bounds", "--model",
                    str(MODELS / "threshold_adversary.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert not out["bound_guaranteed"]
        assert out["note"] == "assumptions violated; bound not guaranteed"
        assert abs(out["U_eff"]) > 2.0
        assert not out["theorem_breach"]

    def test_truncated_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "tabulated", "lambda_weights": [0.5')
        assert run(["verify-bounds", "--model", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self):
        assert run(["verify-bounds", "--model", "/nonexistent/x.json"]) == 1

    def test_mode_flag(self, capsys):
        code = run(["verify-bounds", "--model",
                    str(MODELS / "solution1_tabulated.json"),
                    "--mode", "solution3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["mode"] == "solution3"

    @pytest.mark.parametrize("mode", ["solution1", "solution2", "solution3"])
    @pytest.mark.parametrize("model", ["solution1_tabulated", "threshold_adversary"])
    def test_reproduces_golden_report(self, model, mode, capsys):
        # -vv pins every field: u_eff_cap, pointwise and per_lambda_extremes.
        assert run(["verify-bounds", "-vv", "--model", str(MODELS / f"{model}.json"),
                    "--mode", mode]) == 0
        want = (GOLDEN / f"verify_bounds_{model}_{mode}.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    def test_quad_spellings_keep_their_values(self, capsys):
        # Whitespace, a sign, an exponent and a trailing zero read as before.
        assert run(["verify-bounds", "-vv", "--model", str(MODELS / "threshold_adversary.json"),
                    "--quad", " 0,+45,22.5e0,67.50"]) == 0
        want = (GOLDEN / "verify_bounds_threshold_adversary_solution1.json").read_text(
            encoding="utf-8")
        assert capsys.readouterr().out == want

    def test_reproduces_golden_passing_solution2_report(self, capsys):
        # A model whose non-detection is constant over lambda passes
        # solution2, so its report carries implied_p0.
        assert run(["verify-bounds", "-vv", "--model",
                    str(GOLDEN / "modulated_p0_c1_zero.json"), "--mode", "solution2"]) == 0
        want = (GOLDEN / "verify_bounds_modulated_p0_c1_zero_solution2.json").read_text(
            encoding="utf-8")
        out = capsys.readouterr().out
        assert out == want
        assert "implied_p0" in json.loads(out)["assumptions"]


class TestSimulateGolden:
    ARGS = ["simulate", "--eta", "0.75", "--f", "0.9", "--F", "0.95",
            "--trials", "5000", "--seed", "314"]

    def test_reproduces_golden_csv_byte_for_byte(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "qm_run.csv").read_bytes()
        got = json.loads((tmp_path / "run.csv.run.json").read_text())
        want = json.loads((GOLDEN / "qm_run.csv.run.json").read_text())
        assert got == want

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reproduces_golden_slhv_run(self, workers, tmp_path):
        # Pins the threshold family's tables and its model meta in the sidecar.
        out = tmp_path / "threshold_run.csv"
        assert run(["simulate", "--model", str(MODELS / "threshold_adversary.json"),
                    "--trials", "200000", "--seed", "7", "--workers", workers,
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "threshold_run.csv").read_bytes()
        assert (tmp_path / "threshold_run.csv.run.json").read_bytes() == \
            (GOLDEN / "threshold_run.csv.run.json").read_bytes()

    def test_zero_trials_rejected(self, tmp_path):
        argv = ["simulate", "--eta", "0.75", "--f", "0.9", "--F", "0.95",
                "--trials", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 1

    def test_requires_some_source(self, tmp_path):
        argv = ["simulate", "--trials", "10", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 1

    def test_slhv_model_source(self, tmp_path):
        out = tmp_path / "m.csv"
        argv = ["simulate", "--model", str(MODELS / "solution1_tabulated.json"),
                "--trials", "2000", "--seed", "4", "--out", str(out)]
        assert run(argv) == 0
        assert out.exists()


class TestSearchGolden:
    """The README's two searches print the committed JSON byte for byte at
    1, 2 and 3 processes."""

    SEARCHES = {
        "adversary_threshold.json": ["--family", "threshold-detection", "--seed", "1"],
        "adversary_modulated_c1_frozen.json": ["--family", "modulated-p0",
                                               "--freeze", "c1=0", "--seed", "1"],
    }

    @pytest.mark.parametrize("golden", sorted(SEARCHES))
    def test_reproduces_golden_search(self, golden, monkeypatch, capsys):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        want = (GOLDEN / golden).read_text(encoding="utf-8")
        for workers in (1, 2, 3):
            assert run(["adversary-search", *self.SEARCHES[golden],
                        "--workers", str(workers)]) == 0
            assert capsys.readouterr().out == want, workers


class TestAnalyzeGolden:
    def test_reproduces_golden_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["analyze", "--counts", str(GOLDEN / "qm_run.csv"),
                    "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "qm_run_report.json").read_bytes()

    def test_coincidence_free_file_is_input_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        lines = ["pair_label,r,q,count"]
        for lab in ("ab", "ab'", "a'b", "a'b'"):
            lines.append(f"{lab},0,0,10")
        path.write_text("\n".join(lines) + "\n")
        assert run(["analyze", "--counts", str(path)]) == 1

    def test_emitted_totals_flag(self, tmp_path, capsys):
        csv = tmp_path / "bare.csv"
        lines = ["pair_label,r,q,count"]
        for lab in ("ab", "ab'", "a'b", "a'b'"):
            lines += [f"{lab},+1,+1,40", f"{lab},+1,-1,10",
                      f"{lab},-1,+1,10", f"{lab},-1,-1,40"]
        csv.write_text("\n".join(lines) + "\n")
        totals = tmp_path / "totals.json"
        totals.write_text(json.dumps({lab: 200 for lab in
                                      ("ab", "ab'", "a'b", "a'b'")}))
        code = run(["analyze", "--counts", str(csv),
                    "--emitted-totals", str(totals)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["epsilon"]["total"] != 0.0
        assert not out["epsilon"]["nondetect_split_known"]

    def test_missing_totals_reports_unavailable(self, tmp_path, capsys):
        csv = tmp_path / "bare.csv"
        lines = ["pair_label,r,q,count"]
        for lab in ("ab", "ab'", "a'b", "a'b'"):
            lines += [f"{lab},+1,+1,40", f"{lab},-1,-1,40"]
        csv.write_text("\n".join(lines) + "\n")
        code = run(["analyze", "--counts", str(csv)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["epsilon"] == "unavailable"

    def test_csv_format(self, capsys):
        code = run(["analyze", "--counts", str(GOLDEN / "qm_run.csv"),
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,E_eff,stderr,coincidences"
        assert len(lines) == 6  # four pairs + combined row

    def test_reproduces_golden_csv_report(self, capsys):
        assert run(["analyze", "--counts", str(GOLDEN / "qm_run.csv"),
                    "--format", "csv"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "qm_run_report.csv").read_text(
            encoding="utf-8")


class TestQmPredict:
    def test_downconversion_prediction(self, capsys):
        code = run(["qm-predict", "--eta", "0.75", "--f", "0.9", "--F", "0.95"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["U_eff"] == pytest.approx(2.68701, abs=1e-5)
        assert out["u_eff_cap"] == pytest.approx(2 / (0.75**2 * 0.81))

    def test_perfect_prediction(self, capsys):
        code = run(["qm-predict", "--eta", "1", "--f", "1", "--F", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["U_eff"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert out["u_eff_cap"] == 2.0

    def test_bad_params_exit_one(self):
        assert run(["qm-predict", "--eta", "0", "--f", "1", "--F", "1"]) == 1

    def test_csv_format(self, capsys):
        code = run(["qm-predict", "--eta", "1", "--f", "1", "--F", "0.95",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("label,E,E_eff")
        assert out.strip().splitlines()[-1].startswith("U_eff,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reproduces_golden_prediction(self, fmt, tmp_path, capsys):
        out = tmp_path / f"predict.{fmt}"
        assert run(["qm-predict", "--eta", "0.75", "--f", "0.9", "--F", "0.95",
                    "--format", fmt, "--out", str(out)]) == 0
        want = (GOLDEN / f"qm_predict.{fmt}").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == want
        assert out.read_bytes() == want


class TestSweep:
    def test_exact_column_constant_and_sampled_consistent(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--eta-values", "0.5,0.75,1.0",
                    "--f12-values", "0.5,1.0", "--F", "0.95",
                    "--seed", "6", "--min-coincidences", "5000",
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        data = [dict(zip(header, r.split(","))) for r in rows[1:]]
        assert len(data) == 6
        exact = {d["u_eff_exact"] for d in data}
        assert len(exact) == 1  # bitwise identical
        for d in data:
            pull = ((float(d["u_eff_sampled"]) - float(d["u_eff_exact"]))
                    / float(d["u_eff_stderr"]))
            assert abs(pull) <= 4.0

    def test_reproduces_golden_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--eta-values", "0.5,1", "--f12-values", "0.5,1",
                    "--F", "0.95", "--seed", "7", "--min-coincidences", "200",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()

    def test_empty_range_rejected(self, tmp_path):
        assert run(["sweep", "--eta-values", "", "--f12-values", "1",
                    "--F", "0.9", "--out", str(tmp_path / "s.csv")]) == 1


class TestWorkersFlag:
    def test_workers_below_one_rejected(self, tmp_path, capsys):
        simulate = ["simulate", "--eta", "0.75", "--f", "0.9", "--F", "0.95",
                    "--trials", "10", "--out", str(tmp_path / "x.csv")]
        sweep = ["sweep", "--eta-values", "1", "--f12-values", "1", "--F", "0.9",
                 "--min-coincidences", "10", "--out", str(tmp_path / "s.csv")]
        assert run(simulate + ["--workers", "0"]) == 1
        assert run(sweep + ["--workers", "-1"]) == 1
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "s.csv").exists()


def _json_file(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _coincidence_only_csv(path: Path) -> str:
    rows = [f"{lab},{r:+d},{q:+d},10" for lab in ("ab", "ab'", "a'b", "a'b'")
            for r in (1, -1) for q in (1, -1)]
    path.write_text("pair_label,r,q,count\n" + "\n".join(rows) + "\n")
    return str(path)


def _full_csv(path: Path, cells: dict) -> str:
    """All 36 rows, each count 10 unless ``cells`` maps its (label, r, q)."""
    rows = [f"{lab},{r:+d},{q:+d},{cells.get((lab, r, q), 10)}"
            for lab in ("ab", "ab'", "a'b", "a'b'") for r in (1, -1, 0) for q in (1, -1, 0)]
    path.write_text("pair_label,r,q,count\n" + "\n".join(rows) + "\n")
    return str(path)


def _family_doc(n_lambda=36, **params) -> dict:
    return {"schema_version": 1, "type": "family", "family": "threshold-detection",
            "parameters": {"theta1": 0.5, "theta2": 0.5, **params}, "n_lambda": n_lambda}


def _tabulated_doc(**keys) -> dict:
    return {"schema_version": 1, "type": "tabulated", "lambda_weights": [1.0],
            "responses": {"1": {"0": [[1, 0, 0]]}, "2": {"0": [[1, 0, 0]]}}, **keys}


def _demo_tabulated_doc(edit=lambda doc: None) -> dict:
    """The demo tabulated model, which verify-bounds passes, after ``edit``."""
    doc = json.loads((MODELS / "solution1_tabulated.json").read_text())
    edit(doc)
    return doc


def _raw_file(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


_NOT_UTF8 = b"\xff{}\n"
_LONG_INTEGER = b"1" * 5000  # past Python's digit limit for int parsing


_QM_FLAGS = ["--eta", "0.9", "--f", "1", "--F", "0.95"]
_SWEEP = ["sweep", "--eta-values", "1", "--f12-values", "1", "--F", "0.95"]
_SEARCH = ["adversary-search", "--family", "threshold-detection",
           "--restarts", "1", "--max-evals", "10"]
_FRACTIONAL_TOTALS = {lab: 100.5 for lab in ("ab", "ab'", "a'b", "a'b'")}

# Each argv used to end in a traceback, in exit 0 on a silently
# coerced value or in exit 2; each is an input error now.
BAD_ARGV = {
    "simulate-negative-seed": lambda tmp: [
        "simulate", *_QM_FLAGS, "--trials", "10", "--seed", "-1",
        "--out", str(tmp / "run.csv")],
    # A model file fixes the source, so the QM flags would be ignored.
    **{f"simulate-model-with-{flags[0]}": (lambda tmp, flags=flags: [
        "simulate", "--model", str(MODELS / "threshold_adversary.json"), *flags,
        "--trials", "10", "--out", str(tmp / "run.csv")])
       for flags in (_QM_FLAGS, ["--eta2", "0.5"], ["--f2", "0.5"])},
    "sweep-negative-seed": lambda tmp: [
        *_SWEEP, "--seed", "-2", "--min-coincidences", "1", "--out", str(tmp / "s.csv")],
    "search-negative-seed": lambda tmp: [*_SEARCH, "--n-lambda", "36", "--seed", "-3"],
    # Only verify-bounds reads -v; no other command takes it.
    "simulate-v": lambda tmp: [
        "simulate", *_QM_FLAGS, "--trials", "10", "-v", "--out", str(tmp / "run.csv")],
    **{f"sweep-min-coincidences-{v}": (lambda tmp, v=v: [
        *_SWEEP, "--min-coincidences", v, "--out", str(tmp / "s.csv")])
       for v in ("nan", "inf", "0", "-5")},
    "analyze-totals-list": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _json_file(tmp / "t.json", [1, 2])],
    "analyze-totals-string": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _json_file(tmp / "t.json", {"ab": "x"})],
    "analyze-totals-float": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _json_file(tmp / "t.json", _FRACTIONAL_TOTALS)],
    "analyze-totals-unknown-pair": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _json_file(tmp / "t.json", {
            **{lab: 100 for lab in ("ab", "ab'", "a'b", "a'b'")}, "zz": 100})],
    # Each pair of this file counts 90 trials, non-detections included.
    "analyze-totals-disagree-with-table": lambda tmp: [
        "analyze", "--counts", _full_csv(tmp / "c.csv", {}),
        "--emitted-totals", _json_file(tmp / "t.json", {"ab": 5})],
    "search-freeze-nan": lambda tmp: [
        *_SEARCH, "--n-lambda", "36", "--freeze", "theta1=nan"],
    "search-freeze-twice": lambda tmp: [
        "adversary-search", "--family", "modulated-p0", "--restarts", "1",
        "--max-evals", "10", "--n-lambda", "36", "--freeze", "c1=0", "--freeze", "c1=0.3"],
    "search-n-lambda-zero": lambda tmp: [*_SEARCH, "--n-lambda", "0"],
    "search-workers-zero": lambda tmp: [*_SEARCH, "--n-lambda", "36", "--workers", "0"],
    # A grid whose one point's tables would take 96 GB, far past the batch
    # budget: refused before the grid is built, not killed building it.
    "search-n-lambda-past-batch-budget": lambda tmp: [*_SEARCH, "--n-lambda", "1000000000"],
    "family-file-n-lambda-past-batch-budget": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(n_lambda=10**9))],
    "family-file-n-lambda-zero": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", {
            "schema_version": 1, "type": "family", "family": "threshold-detection",
            "parameters": {"theta1": 0.5, "theta2": 0.5}, "n_lambda": 0})],
    "family-file-nan-parameter": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", {
            "schema_version": 1, "type": "family", "family": "threshold-detection",
            "parameters": {"theta1": math.nan, "theta2": 0.5}, "n_lambda": 36})],
    **{f"family-file-parameter-{v!r}": (lambda tmp, v=v: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(theta1=v))])
       for v in ("x", None, False)},
    "family-file-parameter-overflow": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(theta1=10**400))],
    "family-file-parameter-outside-box": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(theta1=1.5))],
    "family-file-unknown-parameter": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(x=0.5))],
    **{f"family-file-n-lambda-{v!r}": (lambda tmp, v=v: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc(n_lambda=v))])
       for v in ("many", None, 36.7, True)},
    "tabulated-file-string-entry": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            responses={"1": {"0": [["a", 0, 0]]}, "2": {"0": [[1, 0, 0]]}}))],
    "tabulated-file-ragged-rows": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            lambda_weights=[0.5, 0.5],
            responses={"1": {"0": [[1, 0, 0], [1, 0]]}, "2": {"0": [[1, 0, 0]] * 2}}))],
    **{f"tabulated-file-weights-{v!r}": (lambda tmp, v=v: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            lambda_weights=v))])
       for v in ("ab", 5)},
    # 180 degrees is the polarizer at 0: the second table would replace the first.
    "tabulated-file-duplicate-angle": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            responses={"1": {"0": [[1, 0, 0]], "45": [[1, 0, 0]], "180.0": [[0, 1, 0]]},
                       "2": {"22.5": [[1, 0, 0]], "67.5": [[1, 0, 0]]}}))],
    "tabulated-file-party-list": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            responses={"1": [[1, 0, 0]], "2": {"0": [[1, 0, 0]]}}))],
    # Keys that would be ignored: another schema version, a third party,
    # a misspelt key beside the right one and a key no family file has.
    **{f"{kind}-file-schema-version-{v!r}": (lambda tmp, doc=doc, v=v: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", {**doc(), "schema_version": v})])
       for kind, doc in (("tabulated", _demo_tabulated_doc), ("family", _family_doc))
       for v in (2, 9, True, 1.0)},
    "tabulated-file-party-3": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _demo_tabulated_doc(
            lambda doc: doc["responses"].update({"3": doc["responses"]["1"]})))],
    "tabulated-file-misspelt-key": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _demo_tabulated_doc(
            lambda doc: doc.update(lambda_wieghts=doc["lambda_weights"])))],
    "family-file-unknown-key": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", {**_family_doc(), "bogus": 1})],
    "model-file-not-utf8": lambda tmp: [
        "verify-bounds", "--model", _raw_file(tmp / "m.json", _NOT_UTF8)],
    "model-file-5000-digit-integer": lambda tmp: [
        "verify-bounds", "--model", _raw_file(tmp / "m.json", _LONG_INTEGER)],
    "counts-file-not-utf8": lambda tmp: [
        "analyze", "--counts", _raw_file(tmp / "c.csv", _NOT_UTF8)],
    "totals-file-not-utf8": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _raw_file(tmp / "t.json", _NOT_UTF8)],
    "totals-file-5000-digit-integer": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _raw_file(tmp / "t.json", b'{"ab": ' + _LONG_INTEGER + b"}")],
    "qm-predict-detection-underflow": lambda tmp: [
        "qm-predict", "--eta", "0.5", "--f", "1e-300", "--F", "0"],
    "sweep-min-coincidences-1e30": lambda tmp: [
        *_SWEEP, "--min-coincidences", "1e30", "--out", str(tmp / "s.csv")],
    "sweep-subnormal-detection": lambda tmp: [
        "sweep", "--eta-values", "1e-100", "--f12-values", "1e-110", "--F", "0.9",
        "--out", str(tmp / "s.csv")],
    "simulate-trials-past-int64": lambda tmp: [
        "simulate", *_QM_FLAGS, "--trials", str(2**63), "--out", str(tmp / "run.csv")],
    "analyze-count-past-int64": lambda tmp: [
        "analyze", "--counts", _raw_file(
            tmp / "c.csv", b"pair_label,r,q,count\nab,+1,+1,100000000000000000000\n")],
    "analyze-totals-past-int64": lambda tmp: [
        "analyze", "--counts", _coincidence_only_csv(tmp / "c.csv"),
        "--emitted-totals", _json_file(tmp / "t.json", {"ab": 10**20})],
    # Usage errors, which argparse alone ends with exit 2, the breach code.
    "usage-bad-choice": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _family_doc()),
        "--mode", "foo"],
    "usage-non-integer": lambda tmp: [
        "simulate", *_QM_FLAGS, "--trials", "x", "--out", str(tmp / "run.csv")],
    "usage-missing-required": lambda tmp: ["simulate", *_QM_FLAGS, "--trials", "10"],
    "usage-unknown-flag": lambda tmp: ["qm-predict", *_QM_FLAGS, "--bogus"],
    "usage-unknown-subcommand": lambda tmp: ["no-such-command"],
    # Text numbers with a PEP 515 underscore or a non-ASCII digit, which
    # Python's int() and float() alone would read ("22_5" as 225 degrees).
    "verify-bounds-quad-underscore": lambda tmp: [
        "verify-bounds", "--model", str(MODELS / "threshold_adversary.json"),
        "--quad", "0,45,22_5,67.5"],
    **{f"simulate-trials-{v}": (lambda tmp, v=v: [
        "simulate", *_QM_FLAGS, "--trials", v, "--out", str(tmp / "run.csv")])
       for v in ("1_000", "\u0661\u0660")},
    "qm-predict-eta-underscore": lambda tmp: [
        "qm-predict", "--eta", "0.7_5", "--f", "1", "--F", "0.95"],
    "search-freeze-underscore": lambda tmp: [
        "adversary-search", "--family", "modulated-p0", "--restarts", "1",
        "--max-evals", "10", "--n-lambda", "36", "--freeze", "c1=0_0"],
    "sweep-eta-values-underscore": lambda tmp: [
        "sweep", "--eta-values", "0.5,0.7_5", "--f12-values", "1", "--F", "0.95",
        "--min-coincidences", "10", "--out", str(tmp / "s.csv")],
    "tabulated-file-angle-key-underscore": lambda tmp: [
        "verify-bounds", "--model", _json_file(tmp / "m.json", _tabulated_doc(
            responses={"1": {"0": [[1, 0, 0]], "4_5": [[1, 0, 0]]},
                       "2": {"22.5": [[1, 0, 0]], "67.5": [[1, 0, 0]]}}))],
    "analyze-count-underscore": lambda tmp: [
        "analyze", "--counts", _full_csv(tmp / "c.csv", {("ab", 1, 1): "1_0"})],
    # An empty entry of a sweep list, as a malformed --quad is rejected.
    **{f"sweep-eta-values-{name}": (lambda tmp, v=v: [
        "sweep", "--eta-values", v, "--f12-values", "1", "--F", "0.95",
        "--min-coincidences", "10", "--out", str(tmp / "s.csv")])
       for name, v in (("empty-entry", "0.5,,1"), ("trailing-comma", "0.5,1,"),
                       ("blank-entry", "0.5, ,1"))},
    # A header that names a column twice, here with two disagreeing counts.
    "analyze-counts-header-repeated-column": lambda tmp: [
        "analyze", "--counts", _raw_file(
            tmp / "c.csv", b"pair_label,r,q,count,count\nab,+1,+1,5,28\n")],
    # A row with fewer or more fields than the header.
    "analyze-counts-row-short": lambda tmp: [
        "analyze", "--counts", _raw_file(tmp / "c.csv", b"r,q,count,pair_label\n1,1,5\n")],
    "analyze-counts-row-long": lambda tmp: [
        "analyze", "--counts", _full_csv(tmp / "c.csv", {("ab", 1, 1): "10,7"})],
    "analyze-counts-total-past-int64": lambda tmp: [
        "analyze", "--counts", _full_csv(tmp / "c.csv", {
            ("ab", r, q): 2**62 for r, q in ((1, 0), (0, 1), (0, 0))})],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_input_is_an_input_error(case, tmp_path, capsys):
    assert run(BAD_ARGV[case](tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error:")


class TestAdversarySearchCli:
    def test_search_and_freeze(self, tmp_path, capsys):
        out = tmp_path / "adv.json"
        code = run(["adversary-search", "--family", "modulated-p0",
                    "--restarts", "2", "--max-evals", "60", "--seed", "8",
                    "--n-lambda", "180", "--freeze", "c1=0",
                    "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["best_parameters"]["c1"] == 0.0
        assert doc["best_u_eff"] <= 2.0 + 1e-9

    def test_unknown_family_exit_one(self):
        assert run(["adversary-search", "--family", "bogus"]) == 1


class TestExitCodeContract:
    def test_theorem_breach_maps_to_exit_two(self, monkeypatch, capsys):
        # Unreachable for a correct core, so fake a breach report to pin
        # the wiring down.
        import bellsim.cli as cli
        from bellsim.bounds import effective_chsh

        real = effective_chsh

        def breached(model, quad, mode):
            rep = real(model, quad, mode)
            object.__setattr__(rep, "theorem_breach", True)
            return rep

        monkeypatch.setattr(cli, "effective_chsh", breached)
        code = run(["verify-bounds", "--model",
                    str(MODELS / "solution1_tabulated.json")])
        assert code == 2

    def test_search_breach_maps_to_exit_two(self, monkeypatch, capsys):
        # A cap of exactly 2 under every premise makes the search's live
        # check raise on the first |U_eff| above 2.
        from bellsim import bounds

        monkeypatch.setattr(bounds, "_slack", lambda q, bound, rows=None: 0.0)
        assert run([*_SEARCH, "--n-lambda", "90", "--seed", "1"]) == 2
        assert "error: |U_eff|" in capsys.readouterr().err


class TestManifests:
    def test_manifest_written_and_replayable(self, tmp_path):
        out = tmp_path / "run.csv"
        argv = ["simulate", "--eta", "0.6", "--f", "0.8", "--F", "0.9",
                "--trials", "3000", "--seed", "99", "--out", str(out)]
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["argv"] == argv
        first = out.read_bytes()
        first_manifest = (tmp_path / "run.csv.manifest.json").read_bytes()
        # Replay from the manifest reproduces everything byte for byte.
        assert run(manifest["argv"]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "run.csv.manifest.json").read_bytes() == first_manifest


class TestModelIo:
    def test_json_layout(self, tmp_path):
        # Two-space indent, sorted keys at every depth, \uXXXX escapes and
        # one trailing newline: json.dumps(obj, indent=2, sort_keys=True) + "\n".
        doc = {"z": {"y": [1, 2.5], "b": None}, "a": "\u00e9t\u00e9 \u03b7", "m": True}
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert json_text(doc) == want
        assert want == ('{\n  "a": "\\u00e9t\\u00e9 \\u03b7",\n  "m": true,\n'
                        '  "z": {\n    "b": null,\n    "y": [\n      1,\n      2.5\n    ]\n'
                        '  }\n}\n')
        path = tmp_path / "doc.json"
        write_json(path, doc)
        assert path.read_bytes() == want.encode("ascii")

    def test_family_reference_file(self, tmp_path):
        doc = {"schema_version": 1, "type": "family",
               "family": "threshold-detection",
               "parameters": {"theta1": 0.5, "theta2": 0.5},
               "n_lambda": 90}
        path = tmp_path / "fam.json"
        write_json(path, doc)
        m = load_model(path)
        assert m.space.size == 90
        assert m.meta["family"] == "threshold-detection"

    def test_family_missing_parameter(self):
        with pytest.raises(ValidationError, match="missing parameters"):
            model_from_dict({"type": "family", "family": "modulated-p0",
                             "parameters": {"c0": 0.1}})

    @pytest.mark.parametrize("value, match", [
        ("0.5", "parameter 'theta1' must be a real number, got '0.5'"),
        (True, "parameter 'theta1' must be a real number, got True"),
        (1.5, "parameter 'theta1' = 1.5 is outside the box"),
    ], ids=["string", "bool", "outside-box"])
    def test_family_parameters_checked_as_search_points(self, value, match):
        # A family file's parameters pass the check a search point passes.
        with pytest.raises(ValidationError, match=match):
            model_from_dict(_family_doc(theta1=value))

    def test_tabulated_angles_in_degrees(self):
        doc = {
            "type": "tabulated",
            "lambda_weights": [1.0],
            "responses": {
                "1": {"0": [[1.0, 0.0, 0.0]], "90": [[0.0, 1.0, 0.0]]},
                "2": {"0": [[1.0, 0.0, 0.0]], "90": [[0.0, 1.0, 0.0]]},
            },
        }
        m = model_from_dict(doc)
        assert m.triples(1, 0.0)[0, 0] == 1.0
        assert m.triples(1, math.pi / 2)[0, 1] == 1.0
        with pytest.raises(ValidationError, match="no entry"):
            m.triples(1, math.pi / 4)

    def test_tabulated_lookup_wraps_around_pi(self):
        doc = {
            "type": "tabulated",
            "lambda_weights": [1.0],
            "responses": {
                "1": {"0": [[1.0, 0.0, 0.0]], "90": [[0.0, 1.0, 0.0]]},
                "2": {"0": [[1.0, 0.0, 0.0]], "90": [[0.0, 1.0, 0.0]]},
            },
        }
        m = model_from_dict(doc)
        # Just below pi is the same polarizer as 0, and closer to it in
        # the wraparound metric than to the 90-degree entry.
        assert m.triples(1, math.pi - 1e-12)[0, 0] == 1.0
        assert m.triples(1, math.pi + 1e-12)[0, 0] == 1.0

    @pytest.mark.parametrize("second", ["180.0", "-180", "1e-8"])
    def test_tabulated_angle_given_twice_rejected(self, second):
        # Each key names the polarizer at 0 degrees; the message names both.
        doc = {
            "type": "tabulated",
            "lambda_weights": [1.0],
            "responses": {
                "1": {"0": [[1.0, 0.0, 0.0]], second: [[0.0, 1.0, 0.0]]},
                "2": {"0": [[1.0, 0.0, 0.0]]},
            },
        }
        with pytest.raises(ValidationError, match=f"'0' and '{second}'"):
            model_from_dict(doc)

    def test_wrong_table_shape_named(self):
        doc = {
            "type": "tabulated",
            "lambda_weights": [0.5, 0.5],
            "responses": {
                "1": {"0": [[1.0, 0.0, 0.0]]},
                "2": {"0": [[1.0, 0.0, 0.0]]},
            },
        }
        with pytest.raises(ValidationError, match="shape"):
            model_from_dict(doc)


def test_numpy_version_pinned_in_manifest(tmp_path):
    out = tmp_path / "r.csv"
    run(["simulate", "--eta", "0.9", "--f", "1", "--F", "0.9",
         "--trials", "100", "--seed", "0", "--out", str(out)])
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert manifest["tool"] == "bellsim"
