"""Command-line interface.

Subcommands: verify-bounds, simulate, analyze, qm-predict,
adversary-search, sweep.  Angles on the command line are degrees.
Every number on the command line (a numeric flag, a ``--quad`` angle, a
sweep list entry, a ``--freeze`` value) is read by
``model._parse_number``: ASCII decimal, no ``_`` separators, finite.
Every command that writes an output also writes a manifest JSON
(``<out>.manifest.json``) recording the exact argument vector, seeds
and tool version; re-running the stored argv reproduces all outputs
byte for byte at any worker count.

Exit codes: 0 success (bounds hold or are flagged not-guaranteed),
1 input error (usage errors included), 2 verified theorem breach (a
passing assumption validator together with a |U_eff| above the cap its
premise proves, which ``verify-bounds -v`` reports as ``u_eff_cap``, or
a model above that cap met by ``adversary-search``; never reachable for
a correct core).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adversary import _DEFAULT_N_LAMBDA, SearchConfig, get_family, search
from .bounds import (
    PAIR_LABELS,
    EffectiveCorrelationMode,
    SettingsQuad,
    effective_chsh,
)
from .estimator import analysis_report, read_counts_csv
from .model import BellSimError, TheoremViolationError, ValidationError, _parse_number
from .modelio import csv_text, json_text, load_model, read_json, write_json, write_text
from .qm import (
    QMModelParams,
    u_eff_cap,
    u_eff_cap_holds,
    violation_lhs,
)
from . import qm
from .sampler import ExperimentPlan, run_experiment, write_counts_csv, write_run_sidecar

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_THEOREM_BREACH = 2

_DEFAULT_QUAD = "0,45,22.5,67.5"


def real(text: str) -> float:
    """argparse type of a real-valued flag (``model._parse_number``)."""
    return _parse_number(text, "value")


def integer(text: str) -> int:
    """argparse type of an integer flag (``model._parse_number``)."""
    return _parse_number(text, "value", integer=True)


def _parse_quad(s: str) -> SettingsQuad:
    parts = s.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"--quad needs four comma-separated degrees \"a,a',b,b'\", got {s!r}")
    return SettingsQuad.from_degrees(*(_parse_number(p, "--quad angle") for p in parts))


def _parse_values(s: str, flag: str) -> list[float]:
    return [_parse_number(p, f"{flag} entry") for p in s.split(",")]


def _write_manifest(args, out_path: Path, outputs: list[str]) -> None:
    write_json(str(out_path) + ".manifest.json", {
        "schema_version": 1,
        "tool": "bellsim",
        "version": __version__,
        "numpy_version": np.__version__,
        "argv": args._argv,
        "outputs": outputs,
    })


def _emit(args, text: str) -> None:
    """Print a command's output; with --out, also write it and its manifest."""
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        write_text(out, text)
        _write_manifest(args, out, [out.name])


def _qm_params_from_args(args) -> QMModelParams:
    eta2 = args.eta2 if args.eta2 is not None else args.eta
    f2 = args.f2 if args.f2 is not None else args.f
    return QMModelParams(eta1=args.eta, eta2=eta2, f1=args.f, f2=f2, F=args.F)


def _add_qm_flags(p, required=True):
    p.add_argument("--eta", type=real, required=required,
                   help="detector efficiency (photon 1; photon 2 too unless --eta2)")
    p.add_argument("--eta2", type=real, default=None, help="detector efficiency of photon 2")
    p.add_argument("--f", type=real, required=required,
                   help="collimator factor (photon 1; photon 2 too unless --f2)")
    p.add_argument("--f2", type=real, default=None, help="collimator factor of photon 2")
    p.add_argument("--F", type=real, required=required, help="source correlation strength")


def cmd_verify_bounds(args) -> int:
    model = load_model(args.model)
    quad = _parse_quad(args.quad)
    report = effective_chsh(model, quad, EffectiveCorrelationMode(args.mode))
    doc = report.to_json_dict(verbosity=args.verbose)
    if not report.bound_guaranteed:
        doc["note"] = "assumptions violated; bound not guaranteed"
    _emit(args, json_text(doc))
    return EXIT_THEOREM_BREACH if report.theorem_breach else EXIT_OK


def cmd_simulate(args) -> int:
    if args.model:
        given = [f"--{flag}" for flag in ("eta", "eta2", "f", "f2", "F")
                 if getattr(args, flag) is not None]
        if given:
            raise ValidationError(
                f"simulate takes --model FILE or the QM flags, not both; "
                f"got --model with {' '.join(given)}")
        source = load_model(args.model)
    else:
        for flag in ("eta", "f", "F"):
            if getattr(args, flag) is None:
                raise ValidationError(
                    "simulate needs either --model FILE or all of --eta --f --F")
        source = _qm_params_from_args(args)
    quad = _parse_quad(args.quad)
    plan = ExperimentPlan(quad=quad, trials_per_pair=args.trials, seed=args.seed)
    result = run_experiment(source, plan, workers=args.workers)
    out = Path(args.out)
    write_counts_csv(result.records, out)
    sidecar = Path(str(out) + ".run.json")
    write_run_sidecar(result, sidecar)
    _write_manifest(args, out, [out.name, sidecar.name])
    return EXIT_OK


def _analysis_csv(report: dict) -> str:
    columns = ("E_eff", "stderr", "coincidences")
    per_pair = report["per_pair"]
    return csv_text([("label", *columns),
                     *((label, *(per_pair[label][c] for c in columns)) for label in PAIR_LABELS),
                     ("U_eff", report["U_eff"], report["stderr"], "")])


def cmd_analyze(args) -> int:
    totals = None
    if args.emitted_totals:
        totals = read_json(args.emitted_totals, "--emitted-totals file")
    recs = read_counts_csv(args.counts, emitted_totals=totals)
    report = analysis_report(recs)
    text = _analysis_csv(report) if args.format == "csv" else json_text(report)
    _emit(args, text)
    return EXIT_OK


def cmd_qm_predict(args) -> int:
    params = _qm_params_from_args(args)
    quad = _parse_quad(args.quad)
    per_pair = {}
    for label, x, y in quad.pairs():
        per_pair[label] = {
            "E": qm.correlation(params, x, y),
            "E_eff": qm.effective_correlation(params, x, y),
            "joint": {f"{r:+d},{q:+d}": qm.joint_probability(params, x, y, r, q)
                      for r in (1, -1) for q in (1, -1)},
        }
    doc = {
        "schema_version": 1,
        "params": dataclasses.asdict(params),
        "quad_degrees": list(quad.to_degrees()),
        "coincidence_probability": qm.coincidence_probability(params),
        "per_pair": per_pair,
        "U": qm.chsh_value(params, quad),
        "U_eff": qm.effective_chsh_value(params, quad),
        "violation_lhs_at_pi_over_4": violation_lhs(params.F, math.pi / 4),
        "u_eff_cap": u_eff_cap(params),
        "u_eff_cap_holds": u_eff_cap_holds(params),
    }
    if args.format == "csv":
        text = csv_text([("label", "E", "E_eff"),
                         *((label, per_pair[label]["E"], per_pair[label]["E_eff"])
                           for label in PAIR_LABELS),
                         ("U", doc["U"], ""), ("U_eff", "", doc["U_eff"])])
    else:
        text = json_text(doc)
    _emit(args, text)
    return EXIT_OK


def cmd_adversary_search(args) -> int:
    family = get_family(args.family)
    freeze = {}
    for item in args.freeze or []:
        if "=" not in item:
            raise ValidationError(f"--freeze takes name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name in freeze:
            raise ValidationError(f"--freeze names {name!r} more than once")
        freeze[name] = _parse_number(value, f"--freeze value of {name!r}")
    config = SearchConfig(
        family=family, quad=_parse_quad(args.quad),
        mode=EffectiveCorrelationMode(args.mode),
        restarts=args.restarts, max_evals=args.max_evals, seed=args.seed,
        n_lambda=args.n_lambda, freeze=freeze)
    result = search(config, workers=args.workers)
    _emit(args, json_text(result.to_json_dict()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    etas = _parse_values(args.eta_values, "--eta-values")
    f12s = _parse_values(args.f12_values, "--f12-values")
    quad = _parse_quad(args.quad)
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if not args.min_coincidences > 0:
        raise ValidationError(
            f"--min-coincidences must be > 0, got {args.min_coincidences!r}")

    rows = [("eta", "f12", "F", "n_pairs", "u_eff_exact", "u_eff_sampled", "u_eff_stderr",
             "u_sampled", "epsilon_qm", "u_eff_cap")]
    point_index = 0
    for eta in etas:
        for f12 in f12s:
            params = QMModelParams(eta1=eta, eta2=eta, f1=f12, f2=1.0, F=args.F)
            exact = qm.effective_chsh_value(params, quad)
            # Scale the emitted count so every point collects at least
            # --min-coincidences coincidences per setting pair.
            n_pairs = args.min_coincidences / params.eta12f12
            if not math.isfinite(n_pairs):
                raise ValidationError(
                    f"--min-coincidences {args.min_coincidences!r} at eta={eta!r}, "
                    f"f12={f12!r} needs more emitted pairs than a float holds")
            n_pairs = max(int(math.ceil(n_pairs)), 1)
            point_seed = int(np.random.SeedSequence(
                entropy=args.seed, spawn_key=(point_index,)).generate_state(1)[0])
            plan = ExperimentPlan(quad=quad, trials_per_pair=n_pairs,
                                  seed=point_seed)
            result = run_experiment(params, plan, workers=args.workers)
            report = analysis_report(result.records)
            rows.append((f"{eta:.10g}", f"{f12:.10g}", f"{args.F:.10g}", n_pairs, exact,
                         report["U_eff"], report["stderr"], report["epsilon"]["U"],
                         qm.qm_epsilon_identity(params, exact), u_eff_cap(params)))
            point_index += 1
    out = Path(args.out)
    write_text(out, csv_text(rows))
    _write_manifest(args, out, [out.name])
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 1 like any other
    input error and exit code 2 stays the theorem-breach trip-wire.
    Subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bellsim",
        description="Simulate and analyze double-channel Bell experiments "
                    "with imperfect detection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in EffectiveCorrelationMode]

    def common(p, needs_out=False, formats=False):
        if needs_out:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", default=None, help="optional output file path")
        if formats:
            p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("verify-bounds",
                       help="exact bound verification for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--quad", default=_DEFAULT_QUAD)
    p.add_argument("--mode", default="solution1", choices=modes)
    p.add_argument("-v", "--verbose", action="count", default=0)
    common(p)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo run producing a counts CSV")
    p.add_argument("--model", default=None,
                   help="SLHV model JSON file, in place of the QM flags")
    _add_qm_flags(p, required=False)
    p.add_argument("--quad", default=_DEFAULT_QUAD)
    p.add_argument("--trials", type=integer, required=True,
                   help="emitted pairs per setting pair")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--workers", type=integer, default=1)
    common(p, needs_out=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate U_eff (and eps) from a counts CSV")
    p.add_argument("--counts", required=True)
    p.add_argument("--emitted-totals", default=None,
                   help="JSON file mapping pair_label to emitted totals "
                        "(for coincidence-only CSVs)")
    common(p, formats=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("qm-predict", help="exact QM quantities for one quad")
    _add_qm_flags(p)
    p.add_argument("--quad", default=_DEFAULT_QUAD)
    common(p, formats=True)
    p.set_defaults(func=cmd_qm_predict)

    p = sub.add_parser("adversary-search",
                       help="derivative-free search for |U_eff| > 2 models")
    p.add_argument("--family", required=True)
    p.add_argument("--quad", default=_DEFAULT_QUAD)
    p.add_argument("--mode", default="solution1", choices=modes)
    p.add_argument("--restarts", type=integer, default=20)
    p.add_argument("--max-evals", type=integer, default=2000)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--n-lambda", type=integer, default=_DEFAULT_N_LAMBDA)
    p.add_argument("--freeze", action="append", default=None,
                   metavar="NAME=VALUE",
                   help="hold a parameter at VALUE; repeatable, once per name")
    p.add_argument("--workers", type=integer, default=1,
                   help="processes the restarts run on (>= 1): this one and "
                        "N - 1 forked workers; the output is the same at any value")
    common(p)
    p.set_defaults(func=cmd_adversary_search)

    p = sub.add_parser("sweep",
                       help="efficiency sweep: exact vs sampled U_eff per point")
    p.add_argument("--eta-values", required=True, help="comma-separated")
    p.add_argument("--f12-values", required=True,
                   help="comma-separated products f1*f2 (applied as f1=f12, f2=1)")
    p.add_argument("--F", type=real, required=True)
    p.add_argument("--quad", default=_DEFAULT_QUAD)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--min-coincidences", type=real, default=1e4)
    p.add_argument("--workers", type=integer, default=1)
    common(p, needs_out=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        return args.func(args)
    except TheoremViolationError as exc:
        # adversary-search's live check of every model it visits.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM_BREACH
    except (BellSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
