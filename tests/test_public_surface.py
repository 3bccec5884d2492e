"""The package's public names resolve, and removed surfaces stay removed:
a model answers only in (k, n, 3) tables, the validators have no
worst-point scan, the breach check takes no report, every family is
its batched ``response``, each premise is defined once, a search
restart is one generator and each file format is spelled once, in modelio."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import bellsim
from bellsim import adversary, bounds, cli, estimator, model, modelio

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
    # are estimator.COUNTS_COLUMNS alone, and the one pool-size rule lives in
    # model beside the integer check it calls.
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
    pool_sizes = [name for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_pool_size"]
    assert pool_sizes == ["model.py"]
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
