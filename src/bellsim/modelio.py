"""Model definition files (JSON).

Two forms:

* tabulated::

    {
      "schema_version": 1,
      "type": "tabulated",
      "lambda_weights": [0.5, 0.5],
      "responses": {
        "1": {"0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "45": ...},
        "2": {...}
      }
    }

  Angle keys are degrees written as text numbers (``model._parse_number``),
  converted to radians and reduced mod 180 on load; each angle maps to
  one (p_plus, p_minus, p_nondetect) triple per hidden point.  Two keys
  that name one polarizer (``"0"`` and ``"180"``) are rejected.

* parametric family::

    {
      "schema_version": 1,
      "type": "family",
      "family": "threshold-detection",
      "parameters": {"theta1": 0.9, "theta2": 0.9},
      "n_lambda": 720
    }

  The parameters are checked by ``ParametricFamily.point``: every one of
  the family's names, no other, each inside the family's box.

Every weight, table entry and parameter is a finite JSON number, not a
string, a boolean or null (``model._check_real``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .adversary import get_family
from .model import (
    HiddenVariableSpace,
    ResponseFunction,
    SLHVModel,
    ValidationError,
    _check_real,
    _distinct_angles,
    _parse_number,
    canonical_angle,
)

__all__ = ["json_text", "load_model", "model_from_dict", "read_json", "save_model",
           "write_json"]


def _table(rows, n: int, what: str) -> np.ndarray:
    """An (n, 3) table given as a JSON list of rows of numbers."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{what} must be a list of rows")
    lengths = sorted({len(r) for r in rows})
    if len(lengths) > 1:
        raise ValidationError(
            f"{what} must have shape ({n}, 3), got rows of lengths {lengths}")
    arr = np.array([[_check_real(x, f"{what} entry") for x in r] for r in rows], dtype=float)
    if arr.shape != (n, 3):
        raise ValidationError(f"{what} must have shape ({n}, 3), got {arr.shape}")
    return arr


def _tabulated_from_dict(doc: dict) -> SLHVModel:
    try:
        weights = doc["lambda_weights"]
        responses = doc["responses"]
    except KeyError as exc:
        raise ValidationError(f"tabulated model is missing key {exc}") from None
    if not isinstance(weights, list):
        raise ValidationError("'lambda_weights' must be a list of numbers")
    if not isinstance(responses, dict):
        raise ValidationError("'responses' must be an object keyed by party")
    space = HiddenVariableSpace(weights)
    parts = {}
    for party in (1, 2):
        key = str(party)
        if key not in responses:
            raise ValidationError(f"responses missing party {key!r}")
        if not isinstance(responses[key], dict):
            raise ValidationError(
                f"responses of party {key!r} must be an object keyed by angle")
        angles, tables = [], []
        for angle_deg, rows in responses[key].items():
            degrees = _parse_number(angle_deg, f"party {party} angle key (degrees)")
            angles.append(canonical_angle(math.radians(degrees)))
            tables.append(_table(rows, space.size,
                                 f"party {party} table at {angle_deg} deg"))
        if not tables:
            raise ValidationError(f"party {key!r} has no tabulated angles")
        # Checked on the degree keys, which a dict keyed by radians would merge.
        _distinct_angles(list(responses[key]), angles, f"responses of party {key!r}")
        parts[party] = ResponseFunction.from_table(party, dict(zip(angles, tables)))
    model = SLHVModel(space, parts[1], parts[2])
    model.meta["source"] = "tabulated"
    return model


def model_from_dict(doc: dict) -> SLHVModel:
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    kind = doc.get("type")
    if kind == "tabulated":
        return _tabulated_from_dict(doc)
    if kind == "family":
        name = doc.get("family")
        if not isinstance(name, str):
            raise ValidationError("family model needs a 'family' name")
        params = doc.get("parameters")
        if not isinstance(params, dict):
            raise ValidationError("family model needs a 'parameters' object")
        return get_family(name).instantiate(params, n_lambda=doc.get("n_lambda", 720))
    raise ValidationError(
        f"model 'type' must be 'tabulated' or 'family', got {kind!r}")


def read_json(path, what: str):
    """The JSON document in the UTF-8 file at ``path``; ``what`` names the
    file in the error raised for an unreadable, non-UTF-8 or non-JSON one."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {p} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's digit limit.
        raise ValidationError(f"{what} {p} is not valid JSON: {exc}") from exc


def json_text(obj) -> str:
    """``obj`` as the package's one JSON layout: two-space indent, sorted
    keys, non-ASCII characters as ``\\uXXXX`` escapes, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    """Write ``json_text(obj)`` to the file at ``path`` as UTF-8."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


def load_model(path) -> SLHVModel:
    return model_from_dict(read_json(path, "model file"))


def save_model(doc: dict, path) -> None:
    write_json(path, doc)
