"""The package's public names resolve, and removed surfaces stay removed:
a model answers only in (k, n, 3) tables, the validators have no
worst-point scan, the breach check takes no report, every family is
its batched ``response``, each premise is defined once, a search
restart is one generator, each file format is spelled once, in modelio,
the QM source's law once, in qm, and the CHSH signs once, in chsh_sum.
A wrong-typed argument is rejected with a ValidationError at the entry
its calls share, and the tests' one reference imports nothing it checks."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim import adversary, bounds, cli, estimator, model, modelio, qm, sampler
from bellsim.model import ValidationError
from bellsim.random_models import random_nondegenerate_model

MODULES = sorted(info.name for info in pkgutil.iter_modules(bellsim.__path__))


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"bellsim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    # Every name bellsim/__init__.py imports is an attribute of the package
    # and the same object as in the module it comes from.
    tree = ast.parse(Path(bellsim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"bellsim.{node.module}")
        for alias in node.names:
            assert getattr(bellsim, alias.asname or alias.name) is getattr(source, alias.name)


def test_per_point_surface_removed():
    assert not hasattr(bellsim, "ProbTriple")
    assert not hasattr(model, "ProbTriple")
    assert "ProbTriple" not in model.__all__
    for name in ("response", "alpha", "nondetect_prob", "local_average",
                 "effective_local_average", "joint_prob", "_check_index",
                 "detection_probs", "nondetect_probs"):
        assert not hasattr(model.SLHVModel, name), name
    assert not hasattr(model.ResponseFunction, "from_split")
    assert not hasattr(model.ResponseFunction, "from_function")
    assert not hasattr(bounds._QuadTables, "p0")
    assert not hasattr(bounds, "_joint")


def test_single_pair_and_strict_entries_removed():
    # A model is answered by the effective_chsh report, the lean
    # effective_chsh_value(s) and chsh_value alone: no entry builds a quad
    # for one pair's value or raises for a failing premise, and model files
    # are written by write_json.  qm keeps its closed-form pair functions.
    removed = ("correlation", "coincidence_probability", "effective_correlation",
               "pointwise_bound_check")
    for name in removed:
        assert not hasattr(bounds, name) and name not in bounds.__all__, name
    for name in (*removed, "AssumptionError", "save_model"):
        assert not hasattr(bellsim, name), name
    assert not hasattr(model, "AssumptionError") and "AssumptionError" not in model.__all__
    assert not hasattr(modelio, "save_model") and "save_model" not in modelio.__all__
    for name in ("correlation", "coincidence_probability", "effective_correlation"):
        assert callable(getattr(qm, name)), name
    n = inspect.signature(model.uniform_lambda_grid).parameters["n"]
    assert n.default is inspect.Parameter.empty


def _imported_names(tree, lines):
    """(line, name) of each name a module's imports bind, except those of
    ``__future__`` imports and of import statements marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__" \
                and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    # Every name a module in src/, tests/ or demos/ imports is read there.
    root = Path(__file__).parent.parent
    paths = [*sorted((root / "src" / "bellsim").glob("*.py")),
             *sorted((root / "tests").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
    unused = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(root)}:{line} {name}"
                   for line, name in _imported_names(tree, text.splitlines())
                   if name not in read]
    assert unused == []


def test_validator_scan_removed():
    # The validators reduce each party's non-detection rows directly; the
    # angle-pair loop and its score callbacks are gone.
    for name in ("_worst_point", "_peak"):
        assert not hasattr(model, name), name


def test_batch_of_one_side_paths_removed():
    # Every breach check reads each source's premise from its tables, and a
    # built-in family's tables come from its batched response alone.
    for fn in (bounds._slack, bounds._breach, bounds._pointwise):
        assert "report" not in inspect.signature(fn).parameters, fn.__name__
    for name in ("_threshold_tables", "_modulated_tables"):
        assert not hasattr(adversary, name), name


def test_one_family_protocol():
    # A family's one table function is its batched response, which it must
    # give; no family builds its models itself.
    fields = {f.name: f for f in dataclasses.fields(adversary.ParametricFamily)}
    assert "builder" not in fields and "description" not in fields
    assert fields["response"].default is dataclasses.MISSING
    assert len(fields) == 7
    for name in ("_threshold_builder", "_modulated_builder"):
        assert not hasattr(adversary, name), name


def test_one_premise_table():
    # Each premise's score, tolerance and pass rule live in model._PREMISES
    # alone: one report function reads it, and so do the trip-wires.
    assert sorted(model._PREMISES) == ["solution1", "solution2", "solution3"]
    for name in ("_solution1_report", "_solution2_report", "_solution3_report",
                 "_first_peak"):
        assert not hasattr(model, name), name
    assert not hasattr(bounds, "_PREMISE_SCORES")
    assert not hasattr(estimator, "_chsh_with_stderr")
    assert "angles" not in inspect.signature(bounds._QuadTables.from_tables).parameters


def test_one_input_contract():
    # The number rules live in model.py (``_check_real``, ``_check_integer``)
    # and a family's names and box in ``ParametricFamily.point``: no other
    # module tests for numbers itself, and the helpers they replaced are gone.
    src = Path(bellsim.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "model.py":
            assert not re.search(r"\bnumbers\.[A-Z]", path.read_text(encoding="utf-8")), \
                path.name
    assert not hasattr(adversary.ParametricFamily, "params_dict")
    assert not hasattr(modelio, "_number")


def test_one_text_number_rule():
    # Every numeric flag is read by model._parse_number, through cli.real
    # or cli.integer, never by argparse's float or int.
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    types = {action.type for p in subparsers.choices.values() for action in p._actions}
    assert types == {None, cli.real, cli.integer}


def test_one_restart_generator():
    # A search restart is the generator ``_restart``, driven only by
    # ``_lockstep``; the stateful restart class and its advance protocol
    # are gone.
    assert not hasattr(adversary, "_Restart")
    assert inspect.isgeneratorfunction(adversary._restart)
    tree = ast.parse(Path(adversary.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "advance" not in {node.name for node in functions}
    callers = [node.name for node in functions
               if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_restart"
                      for call in ast.walk(node))]
    assert callers == ["_lockstep"]


def test_one_file_format():
    # The JSON layout is modelio.json_text alone, the CSV layout
    # modelio.csv_text alone and the file encoding modelio.write_text alone;
    # a QM parameter set is spelled by its dataclass, the counts-CSV columns
    # are estimator.COUNTS_COLUMNS alone, and the one share rule of both
    # worker pools, its range comprehension included, lives in model beside
    # the integer check it calls.
    src = Path(bellsim.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    for attr in ("dumps", "write_text"):
        sites = [name for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == attr]
        assert sites == ["modelio.py"], attr
    comma_joins = [name for name, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "join"
                   and isinstance(node.value, ast.Constant) and node.value.value == ","]
    assert comma_joins == ["modelio.py"]
    qm_dicts = [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Dict)
                and any(isinstance(k, ast.Constant) and k.value == "eta1" for k in node.keys)
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
                and any(k.arg == "eta1" for k in node.keywords)]
    assert qm_dicts == []
    assert not hasattr(bounds.EffectiveCorrelationMode, "from_string")
    assert not hasattr(cli, "_json_dump")
    assert estimator.COUNTS_COLUMNS == ("pair_label", "r", "q", "count")
    columns = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and (node.value == "pair_label" or "pair_label,r" in node.value)]
    assert columns == ["estimator.py"]
    share_rules = [name for name, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_shares"
                   or isinstance(node, ast.ListComp) and isinstance(node.elt, ast.Call)
                   and getattr(node.elt.func, "id", None) == "range"]
    assert share_rules == ["model.py", "model.py"]
    assert not hasattr(model, "_pool_size")
    imports = {node.module for node in ast.walk(trees["adversary.py"])
               if isinstance(node, ast.ImportFrom)}
    assert "sampler" not in imports


def test_unread_record_fields_removed():
    # Fields that nothing read or emitted: a counts record's angles, the
    # eps report's coincidence fractions and the pointwise report's tol.
    for cls, name in ((estimator.CountsRecord, "angles"),
                      (estimator.EpsilonReport, "coincidence_fraction"),
                      (bounds.PointwiseBoundReport, "tol")):
        assert name not in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)


def test_one_qm_law():
    # The QM source's law (its 3x3 joint table) and its predicted eps live
    # in qm alone: the sampler and the estimator compute no cosine and read
    # no QM parameter.  chsh_sum has one path, the float array.
    src = Path(bellsim.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    for name in ("sampler.py", "estimator.py"):
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert callee != "cos", name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("eta1", "eta2", "f1", "f2", "F"), (name, node.attr)
    imports = {node.module for node in ast.walk(trees["estimator.py"])
               if isinstance(node, ast.ImportFrom)}
    assert "qm" not in imports
    definitions = [name for name, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "qm_epsilon_identity"]
    assert definitions == ["qm.py"]
    assert bellsim.qm_epsilon_identity is qm.qm_epsilon_identity
    assert not hasattr(estimator, "qm_epsilon_identity")
    assert not hasattr(qm, "_pair_law")
    chsh_sum = next(node for node in ast.walk(trees["bounds.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "chsh_sum")
    assert not any(isinstance(node, ast.Name) and node.id == "isinstance"
                   for node in ast.walk(chsh_sum))


def test_reference_is_independent():
    # tests/reference.py, the tests' one second computation, imports none
    # of the modules it checks: from bellsim only model's record type and
    # tolerance constants, and no test-only dependency.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names = {(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules |= {module for module, _ in names}
    assert {m for m in modules if m.split(".")[0] == "bellsim"} == {"bellsim.model"}
    assert {name for module, name in names if module == "bellsim.model"} <= {
        "AssumptionReport", "NORMALIZATION_TOL", "VALIDATOR_TOL"}
    assert not {m.split(".")[0] for m in modules} & {"scipy", "sympy", "hypothesis"}


SLHV = random_nondegenerate_model(np.random.default_rng(0), 4)
QUAD = bounds.optimal_quad()
THRESHOLD = adversary.get_family("threshold-detection")
ANGLES = (0.0, 0.5, 0.25, 0.75)  # four angles, not a SettingsQuad
QM = qm.QMModelParams(0.8, 0.8, 0.9, 0.9, 0.95)


@pytest.mark.parametrize("call", [
    lambda: bounds.effective_chsh(SLHV, QUAD, "solution1"),
    lambda: bounds.effective_chsh_value(SLHV, QUAD, "solution3"),
    lambda: adversary.objective(THRESHOLD, [0.0, 0.0], QUAD, "solution1"),
], ids=["effective_chsh", "effective_chsh_value", "objective"])
def test_string_mode_rejected_by_type(call):
    # A mode's name is not a mode: the error asks for the enum instead of
    # calling a valid mode unknown.
    with pytest.raises(ValidationError,
                       match="^mode must be of type EffectiveCorrelationMode, got str$"):
        call()


WRONG_TYPES = {
    "effective_chsh-quad": (lambda: bounds.effective_chsh(SLHV, ANGLES), "quad must be of type"),
    "effective_chsh-model": (lambda: bounds.effective_chsh("m", QUAD), "model must be of type"),
    "chsh_value": (lambda: bounds.chsh_value(SLHV, ANGLES), "quad must be of type"),
    "effective_chsh_values": (lambda: bounds.effective_chsh_values(SLHV, [ANGLES]),
                              "quad must be of type"),
    "objective": (lambda: adversary.objective(THRESHOLD, [0.0, 0.0], ANGLES),
                  "quad must be of type"),
    "qm.chsh_value": (lambda: qm.chsh_value(QM, ANGLES), "quad must be of type"),
    "qm.effective_chsh_value": (lambda: qm.effective_chsh_value(QM, ANGLES),
                                "quad must be of type"),
    "analysis_report": (lambda: estimator.analysis_report("abcd"),
                        "each counts record must be of type"),
    "epsilon_decomposition": (lambda: estimator.epsilon_decomposition("abcd"),
                              "each counts record must be of type"),
    "u_eff_from_counts": (lambda: estimator.u_eff_from_counts([1, 2, 3, 4]),
                          "each counts record must be of type"),
    "search": (lambda: adversary.search("x"), "config must be of type"),
    "validate_solution1": (lambda: model.validate_solution1("m", [0], [0]),
                           "model must be of type"),
    # A bare value where a sequence belongs: a quad, an angle or a number.
    "effective_chsh_values-bare-quad": (lambda: bounds.effective_chsh_values(SLHV, QUAD),
                                        "quads must be of type Iterable"),
    "validate_solution1-angles": (lambda: model.validate_solution1(SLHV, 0.5, [0]),
                                  "angles1 must be of type Iterable"),
    "validate_solution2-angles": (lambda: model.validate_solution2(SLHV, [0], 0.5),
                                  "angles2 must be of type Iterable"),
    "tables-angles": (lambda: SLHV.tables(1, 0.3), "angles must be of type Iterable"),
    "HiddenVariableSpace-None": (lambda: model.HiddenVariableSpace(None),
                                 "weights must be of type Iterable"),
    "HiddenVariableSpace-int": (lambda: model.HiddenVariableSpace(5),
                                "weights must be of type Iterable"),
    "HiddenVariableSpace-values": (lambda: model.HiddenVariableSpace([1.0], 5),
                                   "values must be of type Iterable"),
    "analysis_report-int": (lambda: estimator.analysis_report(5),
                            "counts records must be of type"),
    # A 0-d array's class defines __iter__, but it cannot be iterated.
    "HiddenVariableSpace-0d": (lambda: model.HiddenVariableSpace(np.array(1.0)),
                               "weights must be of type Iterable"),
    "HiddenVariableSpace-values-0d": (
        lambda: model.HiddenVariableSpace([1.0], np.array(0.0)),
        "values must be of type Iterable"),
    "tables-angles-0d": (lambda: SLHV.tables(1, np.array(0.3)),
                         "angles must be of type Iterable"),
    "validate_solution1-angles-0d": (
        lambda: model.validate_solution1(SLHV, np.array(0.1), [0.0]),
        "angles1 must be of type Iterable"),
    "validate_solution2-angles-0d": (
        lambda: model.validate_solution2(SLHV, [0.0], np.array(0.1)),
        "angles2 must be of type Iterable"),
    "effective_chsh_values-0d": (
        lambda: bounds.effective_chsh_values(SLHV, np.array(QUAD, dtype=object)),
        "quads must be of type Iterable"),
    "analysis_report-0d": (lambda: estimator.analysis_report(np.array(3)),
                           "counts records must be of type Iterable"),
    "qm.effective_chsh_value-params": (lambda: qm.effective_chsh_value("p", QUAD),
                                       "params must be of type"),
    "qm.chsh_value-params": (lambda: qm.chsh_value("p", QUAD), "params must be of type"),
    "qm.u_eff_cap": (lambda: qm.u_eff_cap("x"), "params must be of type"),
    "qm.u_eff_cap_holds": (lambda: qm.u_eff_cap_holds("x"), "params must be of type"),
    "qm.coincidence_probability": (lambda: qm.coincidence_probability("x"),
                                   "params must be of type"),
    "qm.qm_epsilon_identity": (lambda: qm.qm_epsilon_identity("x", 2.0),
                               "params must be of type"),
    "qm.correlation-params": (lambda: qm.correlation("x", 0.0, 0.0), "params must be of type"),
    "qm.effective_correlation-params": (lambda: qm.effective_correlation("x", 0.0, 0.0),
                                        "params must be of type"),
    "qm.joint_probability-params": (lambda: qm.joint_probability("x", 0.0, 0.0, 1, 1),
                                    "params must be of type"),
    "qm.joint_table-params": (lambda: qm.joint_table("x", 0.0, 0.0), "params must be of type"),
    "qm.joint_table-angle": (lambda: qm.joint_table(QM, 0.0, "0"), "b must be a real number"),
    # Numbers are checked by value type: a real angle, an integer outcome.
    "qm.joint_probability-angle": (lambda: qm.joint_probability(QM, "0", 0, 1, 1),
                                   "a must be a real number"),
    "qm.correlation-angle": (lambda: qm.correlation(QM, "a", 0), "a must be a real number"),
    "qm.effective_correlation-angle": (lambda: qm.effective_correlation(QM, 0, None),
                                       "b must be a real number"),
    "qm.joint_probability-bool-r": (lambda: qm.joint_probability(QM, 0, 0, True, 1),
                                    "r must be an integer"),
    "qm.joint_probability-float-q": (lambda: qm.joint_probability(QM, 0, 0, 1, -1.0),
                                     "q must be an integer"),
    "qm.qm_epsilon_identity-bool-u_eff": (lambda: qm.qm_epsilon_identity(QM, True),
                                          "u_eff must be a real number"),
    "qm.qm_epsilon_identity-str-u_eff": (lambda: qm.qm_epsilon_identity(QM, "x"),
                                         "u_eff must be a real number"),
}


@pytest.mark.parametrize("call", sorted(WRONG_TYPES))
def test_wrong_type_rejected(call):
    # Each type is checked once, at the entry these calls share, before an
    # attribute lookup can fail on it.
    fn, message = WRONG_TYPES[call]
    with pytest.raises(ValidationError, match=f"^{message}"):
        fn()


def test_folded_layers_stay_folded():
    # Each decision lives with the caller that makes it: SLHVModel.tables
    # evaluates a response, run_experiment dispatches on the source once and
    # builds its summary there, one cache holds the threshold breakpoints,
    # the CHSH signs are written only in chsh_sum, one block kernel samples
    # every source from its pairs' joint tables, an SLHV model's joint
    # tables come only from _QuadTables.joints, and the blocks run in
    # fixed per-thread shares.
    assert not hasattr(model.ResponseFunction, "tables")
    assert not hasattr(model.SLHVModel, "_response")
    assert not hasattr(sampler, "_source_summary")
    for name in ("_qm_block", "_slhv_block", "_lambda_cdf", "_outcome_edges", "_categorical",
                 "_slhv_table", "_MAX_IN_FLIGHT"):
        assert not hasattr(sampler, name), name
    assert not hasattr(bounds._QuadTables, "_joint_block")
    assert Path(sampler.__file__).read_text(encoding="utf-8").count("isinstance(source") == 1
    assert not hasattr(adversary, "_abs_cos2d_breakpoints")
    assert hasattr(adversary._threshold_breakpoints, "cache_info")
    src = Path(bellsim.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "PAIR_SIGNS" not in path.read_text(encoding="utf-8"), path.name
    assert all(len(pair) == 3 for pair in bounds.optimal_quad().pairs())
    assert "optimal_quad" not in qm.__all__
