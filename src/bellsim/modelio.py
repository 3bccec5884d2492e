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

  Angle keys are degrees (converted to radians and reduced mod 180 on
  load); each angle maps to one (p_plus, p_minus, p_nondetect) triple
  per hidden point.

* parametric family::

    {
      "schema_version": 1,
      "type": "family",
      "family": "threshold-detection",
      "parameters": {"theta1": 0.9, "theta2": 0.9},
      "n_lambda": 720
    }
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
    canonical_angle,
)

__all__ = ["load_model", "model_from_dict", "save_model"]


def _tabulated_from_dict(doc: dict) -> SLHVModel:
    try:
        weights = doc["lambda_weights"]
        responses = doc["responses"]
    except KeyError as exc:
        raise ValidationError(f"tabulated model is missing key {exc}") from None
    space = HiddenVariableSpace(weights)
    parts = {}
    for party in (1, 2):
        key = str(party)
        if key not in responses:
            raise ValidationError(f"responses missing party {key!r}")
        tables = {}
        for angle_deg, rows in responses[key].items():
            try:
                ang = canonical_angle(math.radians(float(angle_deg)))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"bad angle key {angle_deg!r} (expected degrees)") from None
            arr = np.asarray(rows, dtype=float)
            if arr.shape != (space.size, 3):
                raise ValidationError(
                    f"party {party} table at {angle_deg} deg must have shape "
                    f"({space.size}, 3), got {arr.shape}")
            tables[ang] = arr
        if not tables:
            raise ValidationError(f"party {key!r} has no tabulated angles")
        parts[party] = ResponseFunction.from_table(party, tables)
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
        family = get_family(name)
        params_by_name = doc.get("parameters")
        if not isinstance(params_by_name, dict):
            raise ValidationError("family model needs a 'parameters' object")
        missing = [n for n in family.param_names if n not in params_by_name]
        if missing:
            raise ValidationError(
                f"family {name!r} is missing parameters {missing}")
        extra = [n for n in params_by_name if n not in family.param_names]
        if extra:
            raise ValidationError(
                f"family {name!r} does not take parameters {extra}")
        vector = [float(params_by_name[n]) for n in family.param_names]
        n_lambda = int(doc.get("n_lambda", 720))
        return family.instantiate(vector, n_lambda=n_lambda)
    raise ValidationError(
        f"model 'type' must be 'tabulated' or 'family', got {kind!r}")


def load_model(path) -> SLHVModel:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read model file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {p} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def save_model(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
