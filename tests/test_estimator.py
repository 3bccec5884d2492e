"""Counts-based estimation and the full-sample/effective bookkeeping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.bounds import PAIR_LABELS, optimal_quad
from bellsim.estimator import (
    CountsRecord,
    analysis_report,
    e_eff_from_counts,
    e_eff_stderr,
    epsilon_decomposition,
    read_counts_csv,
    u_eff_from_counts,
)
from bellsim.model import NoDataError, ValidationError
from bellsim.qm import QMModelParams, qm_epsilon_identity
from bellsim import qm
from bellsim.sampler import ExperimentPlan, run_experiment, write_counts_csv
import reference


def record(label, pp, pm, mp, mm, p0=0, z0p=0, z0m=0, p0p=0, p0m=0, zz=0):
    t = np.array([[pp, pm, p0p], [mp, mm, p0m], [z0p, z0m, zz]])
    # Rows are r in (+1, -1, 0); columns q in (+1, -1, 0).
    total = int(t.sum())
    return CountsRecord(label=label, table=t, emitted_total=total if zz or p0p or
                        p0m or z0p or z0m else None)


def four_identical(pp, pm, mp, mm, **kw):
    return [record(lab, pp, pm, mp, mm, **kw) for lab in PAIR_LABELS]


class TestEffectiveCorrelationFromCounts:
    def test_basic_example(self):
        rec = record("ab", 40, 10, 10, 40)
        assert e_eff_from_counts(rec) == pytest.approx(0.6)

    def test_all_mass_in_one_cell(self):
        rec = record("ab", 100, 0, 0, 0)
        assert e_eff_from_counts(rec) == 1.0

    def test_no_coincidences_raises(self):
        rec = CountsRecord(label="ab", table=np.diag([0, 0, 5]))
        with pytest.raises(NoDataError):
            e_eff_from_counts(rec)

    @settings(derandomize=True, database=None)
    @given(st.integers(1, 20), st.tuples(st.integers(0, 50), st.integers(0, 50),
                                         st.integers(0, 50), st.integers(0, 50)))
    def test_invariant_under_uniform_scaling(self, k, cells):
        pp, pm, mp, mm = cells
        if pp + pm + mp + mm == 0:
            return
        r1 = record("ab", pp, pm, mp, mm)
        r2 = record("ab", k * pp, k * pm, k * mp, k * mm)
        assert e_eff_from_counts(r1) == pytest.approx(e_eff_from_counts(r2),
                                                      abs=1e-12)
        assert -1.0 <= e_eff_from_counts(r1) <= 1.0

    def test_stderr_matches_binomial_propagation(self):
        rec = record("ab", 40, 10, 10, 40)
        e = 0.6
        assert e_eff_stderr(rec) == pytest.approx(math.sqrt((1 - e * e) / 100))


def _table_with(cell):
    return [[cell, 0, 0], [0, 4, 0], [0, 0, 0]]


class TestCountsRecordInputs:
    """A record takes integer counts and an integer emitted total only;
    nothing is cast to int64 on the way in."""

    @pytest.mark.parametrize("table", [
        _table_with(0.5), _table_with(1.7), _table_with(True), _table_with("3"),
        _table_with(math.nan), _table_with(2**63), _table_with(-1),
        np.zeros((3, 3)), np.ones((3, 3), dtype=bool),
    ], ids=["half", "fraction", "bool", "string", "nan", "past-int64", "negative",
            "float-dtype", "bool-dtype"])
    def test_non_integer_cell_rejected(self, table):
        with pytest.raises(ValidationError, match="pair 'ab'"):
            CountsRecord(label="ab", table=table)

    @pytest.mark.parametrize("total", [5.0, 5.5, True, "5", -5],
                             ids=["whole-float", "fraction", "bool", "string", "negative"])
    def test_non_integer_emitted_total_rejected(self, total):
        with pytest.raises(ValidationError, match="emitted_total"):
            CountsRecord(label="ab", table=_table_with(1), emitted_total=total)

    def test_integer_inputs_accepted(self):
        for table in (_table_with(1), np.array(_table_with(1), dtype=np.uint8)):
            rec = CountsRecord(label="ab", table=table, emitted_total=np.int64(5))
            assert rec.table.dtype == np.int64 and rec.table.tolist() == _table_with(1)
            assert type(rec.emitted_total) is int and rec.emitted_total == 5

    def test_table_is_a_copy(self):
        # The caller's array stays writable, and a later write to it cannot
        # reach the record.
        counts = np.array([_table_with(1)] * 2)
        rec = CountsRecord(label="ab", table=counts[0], emitted_total=5)
        counts[0, 2, 2] = 7
        assert rec.table.tolist() == _table_with(1) and rec.emitted_total == 5


class TestUEffFromCounts:
    def test_identical_records_give_twice_single_value(self):
        recs = four_identical(40, 10, 10, 40)
        u_eff, stderr = u_eff_from_counts(recs)
        # Signs +, -, +, + over equal values e: e - e + e + e = 2e.
        assert u_eff == pytest.approx(1.2)
        assert stderr == pytest.approx(2 * e_eff_stderr(recs[0]))

    def test_missing_pair_rejected(self):
        recs = four_identical(5, 5, 5, 5)[:3]
        with pytest.raises(ValidationError):
            u_eff_from_counts(recs)

    def test_no_data_error_names_pair(self):
        recs = four_identical(5, 5, 5, 5)
        dead = CountsRecord(label="a'b", table=np.diag([0, 0, 7]))
        recs[2] = dead
        with pytest.raises(NoDataError, match="a'b"):
            u_eff_from_counts(recs)


class TestEpsilonDecomposition:
    def test_perfect_detection_degenerates_to_plain_interval(self):
        recs = four_identical(40, 10, 10, 40)
        recs = [CountsRecord(label=r.label, table=r.table, emitted_total=100)
                for r in recs]
        rep = epsilon_decomposition(recs)
        assert all(v == 0.0 for v in rep.eps.values())
        assert rep.interval == (-2.0, 2.0)
        assert rep.u == rep.u_eff

    def test_identity_u_equals_u_eff_minus_eps(self):
        params = QMModelParams(0.7, 0.8, 0.85, 0.95, 0.95)
        plan = ExperimentPlan(optimal_quad(), 50_000, seed=13)
        res = run_experiment(params, plan)
        rep = epsilon_decomposition(res.records)
        assert rep.u == pytest.approx(rep.u_eff - rep.eps_total, abs=1e-12)
        assert rep.u_eff_in_interval == (abs(rep.u) <= 2.0)
        assert all(type(x) is float for x in (rep.u, rep.u_eff, rep.eps_total, *rep.interval))
        assert type(rep.u_eff_in_interval) is bool

    def test_zero_effective_correlations_give_zero_eps(self):
        recs = four_identical(25, 25, 25, 25, zz=100)
        rep = epsilon_decomposition(recs)
        assert rep.eps_total == 0.0

    def test_missing_emitted_totals_is_explicit(self):
        recs = four_identical(40, 10, 10, 40)
        assert all(r.emitted_total is None for r in recs)
        with pytest.raises(NoDataError, match="cannot be determined"):
            epsilon_decomposition(recs)

    def test_sign_pattern_matches_chsh_combination(self):
        # Make the four pairs distinct so a sign slip cannot cancel.
        recs = [record("ab", 50, 10, 10, 50, zz=80),
                record("ab'", 30, 40, 40, 10, zz=130),
                record("a'b", 60, 5, 5, 20, zz=110),
                record("a'b'", 20, 20, 30, 30, zz=150)]
        rep = epsilon_decomposition(recs)
        manual = rep.eps["ab"] - rep.eps["ab'"] + rep.eps["a'b"] + rep.eps["a'b'"]
        assert rep.eps_total == pytest.approx(manual, abs=1e-15)
        assert rep.u == pytest.approx(rep.u_eff - rep.eps_total, abs=1e-12)


class TestQmEpsilonIdentity:
    def test_perfect_detection_gives_zero(self):
        assert qm_epsilon_identity(QMModelParams(1, 1, 1, 1, 0.95), 2.687) == 0.0

    def test_half_efficiency_value(self):
        p = QMModelParams(1, 1, 0.5, 1, 0.95)
        assert qm_epsilon_identity(p, 2.687) == pytest.approx(1.3435)

    def test_matches_exact_decomposition_of_qm_probabilities(self):
        # Build exact-probability "counts" and compare the data-path eps
        # against the closed-form prediction.
        quad = optimal_quad()
        scale = 10**9
        for eta, f in [(0.4, 0.9), (0.75, 0.5), (1.0, 1.0)]:
            params = QMModelParams(eta, eta, f, 1.0, 0.95)
            recs = []
            e1 = params.eta1 * params.f1
            e2 = params.eta2 * params.f2
            for label, a, b in quad.pairs():
                t = np.zeros((3, 3))
                for i, r in enumerate((1, -1)):
                    for j, q in enumerate((1, -1)):
                        t[i, j] = qm.joint_probability(params, a, b, r, q)
                t[0, 2] = t[1, 2] = e1 * (1 - e2) / 2
                t[2, 0] = t[2, 1] = (1 - e1) * e2 / 2
                t[2, 2] = (1 - e1) * (1 - e2)
                counts = np.rint(t * scale).astype(np.int64)
                recs.append(CountsRecord(label=label, table=counts,
                                         emitted_total=int(counts.sum())))
            rep = epsilon_decomposition(recs)
            predicted = qm_epsilon_identity(params, rep.u_eff)
            assert rep.eps_total == pytest.approx(predicted, rel=1e-6)

    def test_full_sample_chsh_safe_for_realistic_efficiencies(self):
        for eta in np.linspace(0.05, 1.0, 20):
            for f12 in np.linspace(0.05, 1.0, 20):
                for F in (0.8, 0.95, 1.0):
                    p = QMModelParams(eta, eta, f12, 1.0, F)
                    u = p.eta12f12 * 2 * math.sqrt(2) * F
                    if p.eta12f12 <= 1 / (math.sqrt(2) * F):
                        assert u <= 2.0 + 1e-12


class TestExactCountConvergence:
    def test_rounded_exact_probabilities_recover_exact_u_eff(self):
        # Counts built from probabilities * N converge to the exact
        # coincidence-normalized CHSH value as N grows.
        from bellsim.bounds import EffectiveCorrelationMode, effective_chsh_value
        from bellsim.random_models import random_nondegenerate_model

        rng = np.random.default_rng(55)
        model = random_nondegenerate_model(rng, 12)
        quad = optimal_quad()
        exact = effective_chsh_value(model, quad,
                                     EffectiveCorrelationMode.SOLUTION1)
        n = 10**6
        recs = [CountsRecord(label=label, table=np.rint(probs * n).astype(np.int64))
                for label, probs in zip(PAIR_LABELS, reference.joints(model, quad))]
        u_eff, stderr = u_eff_from_counts(recs)
        assert abs(u_eff - exact) <= 4 * max(stderr, 4 / n)


class TestCsvRoundTrip:
    def test_sampler_csv_reads_back_identically(self, tmp_path):
        params = QMModelParams(0.8, 0.7, 0.9, 0.95, 0.9)
        res = run_experiment(params, ExperimentPlan(optimal_quad(), 5000, seed=3))
        path = tmp_path / "counts.csv"
        write_counts_csv(res.records, path)
        back = {r.label: r for r in read_counts_csv(path)}
        for rec in res.records:
            assert (back[rec.label].table == rec.table).all()
            assert back[rec.label].emitted_total == rec.emitted_total

    def test_coincidence_only_variant(self, tmp_path):
        path = tmp_path / "bare.csv"
        lines = ["pair_label,r,q,count"]
        for lab in PAIR_LABELS:
            lines += [f"{lab},+1,+1,40", f"{lab},+1,-1,10",
                      f"{lab},-1,+1,10", f"{lab},-1,-1,40"]
        path.write_text("\n".join(lines) + "\n")
        recs = read_counts_csv(path)
        assert all(r.emitted_total is None for r in recs)
        report = analysis_report(recs)
        assert report["epsilon"] == "unavailable"
        assert "cannot be determined" in report["epsilon_unavailable_reason"]

    def test_coincidence_only_with_external_totals(self, tmp_path):
        path = tmp_path / "bare.csv"
        lines = ["pair_label,r,q,count"]
        for lab in PAIR_LABELS:
            lines += [f"{lab},+1,+1,40", f"{lab},+1,-1,10",
                      f"{lab},-1,+1,10", f"{lab},-1,-1,40"]
        path.write_text("\n".join(lines) + "\n")
        recs = read_counts_csv(path, emitted_totals={lab: 200 for lab in PAIR_LABELS})
        assert all(r.emitted_total == 200 for r in recs)
        assert all(not r.nondetect_split_known for r in recs)
        rep = epsilon_decomposition(recs)
        # Coincidence fraction 0.5 at e_eff = 0.6: eps = 0.3 per pair.
        assert rep.eps["ab"] == pytest.approx(0.3)

    def test_header_required(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("ab,+1,+1,40\n")
        with pytest.raises(ValidationError, match="header"):
            read_counts_csv(path)

    def test_repeated_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("pair_label,r,q,count\nab,+1,+1,40\nab,-1,+1,5\nab,+1,+1,3\n")
        with pytest.raises(ValidationError, match="repeated"):
            read_counts_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        # The file's two count columns disagree: neither is read.
        path = tmp_path / "twice.csv"
        path.write_text("pair_label,r,q,count,count\nab,+1,+1,5,28\n")
        with pytest.raises(ValidationError, match="column 'count' twice"):
            read_counts_csv(path)

    def test_bad_outcome_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("pair_label,r,q,count\nab,+2,+1,40\n")
        with pytest.raises(ValidationError):
            read_counts_csv(path)

    @pytest.mark.parametrize("totals", [[1, 2], [], "ab=10", 200], ids=repr)
    def test_totals_must_be_a_mapping(self, totals, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("pair_label,r,q,count\nab,+1,+1,40\n")
        with pytest.raises(ValidationError, match="emitted totals must map pair labels"):
            read_counts_csv(path, emitted_totals=totals)


class TestAnalysisReport:
    def test_full_report_structure(self):
        params = QMModelParams(0.75, 0.75, 0.9, 0.9, 0.95)
        res = run_experiment(params, ExperimentPlan(optimal_quad(), 40_000, seed=21))
        report = analysis_report(res.records)
        assert set(report["per_pair"]) == set(PAIR_LABELS)
        for entry in report["per_pair"].values():
            assert set(entry) == {"E_eff", "stderr", "coincidences"}
        assert report["epsilon"]["U"] == pytest.approx(
            report["U_eff"] - report["epsilon"]["total"], abs=1e-12)
        assert report["verdicts"]["abs_u_le_2"]
        json.dumps(report)  # serializable
