"""Model persistence: save/load trained models as JSON documents.

Deployment needs trained models to survive process restarts without
pickle (which is a code-execution vector when models are shipped between
services).  Every estimator in :mod:`repro.ml` serialises to a plain JSON
document with an explicit schema version; loading validates the header
and reconstructs the exact predictor (bit-identical probabilities).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.ml._binning import BinMapper
from repro.ml._hist import HistTree
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import XGBClassifier
from repro.ml.lgbm import LGBMClassifier

FORMAT_NAME = "cordial-ml-model"
FORMAT_VERSION = 1


class ModelPersistenceError(ValueError):
    """Raised when a model document is malformed or unsupported."""


# -- low-level pieces ---------------------------------------------------------

def _tree_to_obj(tree: HistTree) -> dict:
    return {
        "feature": [int(v) for v in tree.feature],
        "bin_threshold": [int(v) for v in tree.bin_threshold],
        "left": [int(v) for v in tree.left],
        "right": [int(v) for v in tree.right],
        "value": [np.asarray(v, dtype=float).tolist() for v in tree.value],
        "value_shape": list(tree.value_shape),
    }


def _tree_from_obj(obj: dict) -> HistTree:
    tree = HistTree(value_shape=tuple(obj["value_shape"]))
    tree.feature = [int(v) for v in obj["feature"]]
    tree.bin_threshold = [int(v) for v in obj["bin_threshold"]]
    tree.left = [int(v) for v in obj["left"]]
    tree.right = [int(v) for v in obj["right"]]
    tree.value = [np.asarray(v, dtype=np.float64) for v in obj["value"]]
    return tree


def _mapper_to_obj(mapper: BinMapper) -> dict:
    if not mapper.is_fitted:
        raise ModelPersistenceError("cannot persist an unfitted BinMapper")
    return {
        "max_bins": mapper.max_bins,
        "edges": [np.asarray(e, dtype=float).tolist()
                  for e in mapper.edges_],
        "n_bins": mapper.n_bins_.tolist(),
        "missing_bin": mapper.missing_bin_.tolist(),
    }


def _mapper_from_obj(obj: dict) -> BinMapper:
    mapper = BinMapper(max_bins=int(obj["max_bins"]))
    mapper.edges_ = [np.asarray(e, dtype=np.float64) for e in obj["edges"]]
    mapper.n_bins_ = np.asarray(obj["n_bins"], dtype=np.int64)
    mapper.missing_bin_ = np.asarray(obj["missing_bin"], dtype=np.int64)
    return mapper


def _classes_to_obj(classes: np.ndarray) -> dict:
    kind = "int" if np.issubdtype(classes.dtype, np.integer) else "str"
    values = ([int(c) for c in classes] if kind == "int"
              else [str(c) for c in classes])
    return {"kind": kind, "values": values}


def _classes_from_obj(obj: dict) -> np.ndarray:
    if obj["kind"] == "int":
        return np.asarray(obj["values"], dtype=np.int64)
    return np.asarray(obj["values"])


# -- per-estimator serialisation -----------------------------------------------------

def _forest_to_obj(model: RandomForestClassifier) -> dict:
    return {
        "kind": "RandomForestClassifier",
        "classes": _classes_to_obj(model.classes_),
        "mapper": _mapper_to_obj(model._mapper),
        "trees": [_tree_to_obj(t) for t in model.trees_],
    }


def _forest_from_obj(obj: dict) -> RandomForestClassifier:
    model = RandomForestClassifier(n_estimators=max(1, len(obj["trees"])))
    model.classes_ = _classes_from_obj(obj["classes"])
    model._mapper = _mapper_from_obj(obj["mapper"])
    model.trees_ = [_tree_from_obj(t) for t in obj["trees"]]
    return model


def _boosted_to_obj(model, kind: str) -> dict:
    out = {
        "kind": kind,
        "classes": _classes_to_obj(model.classes_),
        "mapper": _mapper_to_obj(model._mapper),
        "learning_rate": float(model.learning_rate),
        "rounds": [[_tree_to_obj(t) for t in round_trees]
                   for round_trees in model.trees_],
    }
    if kind == "XGBClassifier":
        out["base_raw"] = float(model._base_raw)
    return out


def _xgb_from_obj(obj: dict) -> XGBClassifier:
    model = XGBClassifier(n_estimators=max(1, len(obj["rounds"])),
                          learning_rate=obj["learning_rate"])
    model.classes_ = _classes_from_obj(obj["classes"])
    model._mapper = _mapper_from_obj(obj["mapper"])
    model._base_raw = float(obj["base_raw"])
    model.trees_ = [[_tree_from_obj(t) for t in round_trees]
                    for round_trees in obj["rounds"]]
    return model


def _lgbm_from_obj(obj: dict) -> LGBMClassifier:
    model = LGBMClassifier(n_estimators=max(1, len(obj["rounds"])),
                           learning_rate=obj["learning_rate"])
    model.classes_ = _classes_from_obj(obj["classes"])
    model._mapper = _mapper_from_obj(obj["mapper"])
    model.trees_ = [[_tree_from_obj(t) for t in round_trees]
                    for round_trees in obj["rounds"]]
    return model


_SERIALIZERS = {
    RandomForestClassifier: lambda m: _forest_to_obj(m),
    XGBClassifier: lambda m: _boosted_to_obj(m, "XGBClassifier"),
    LGBMClassifier: lambda m: _boosted_to_obj(m, "LGBMClassifier"),
}

_DESERIALIZERS = {
    "RandomForestClassifier": _forest_from_obj,
    "XGBClassifier": _xgb_from_obj,
    "LGBMClassifier": _lgbm_from_obj,
}


# -- public API ---------------------------------------------------------------------

def dump_model(model, destination: Union[str, Path]) -> None:
    """Serialise a fitted model to a JSON file."""
    serializer = _SERIALIZERS.get(type(model))
    if serializer is None:
        raise ModelPersistenceError(
            f"unsupported model type: {type(model).__name__}")
    if getattr(model, "classes_", None) is None:
        raise ModelPersistenceError("cannot persist an unfitted model")
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "model": serializer(model),
    }
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load_model(source: Union[str, Path]):
    """Load a model saved by :func:`dump_model`."""
    try:
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelPersistenceError(f"invalid model file: {exc}") from exc
    if document.get("format") != FORMAT_NAME:
        raise ModelPersistenceError(
            f"unexpected format: {document.get('format')!r}")
    if document.get("version") != FORMAT_VERSION:
        raise ModelPersistenceError(
            f"unsupported version: {document.get('version')!r}")
    obj = document.get("model", {})
    loader = _DESERIALIZERS.get(obj.get("kind"))
    if loader is None:
        raise ModelPersistenceError(f"unknown model kind: {obj.get('kind')!r}")
    return loader(obj)
