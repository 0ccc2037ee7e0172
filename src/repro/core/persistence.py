"""Save/load fitted pipelines and live service state as JSON documents.

Two formats live here, both pickle-free:

* ``cordial-pipeline`` — a fitted :class:`~repro.core.pipeline.Cordial`
  (the two tree models plus configuration), so a model trained on
  historical logs can be shipped to the fleet controller and reloaded
  without retraining.
* ``cordial-service-checkpoint`` — a *running*
  :class:`~repro.core.online.CordialService`: the embedded pipeline
  document plus every piece of mutable serving state (collector bank
  buffers, the reorder buffer, dead letters, sparing ledgers, per-bank
  prediction state, stats, metrics).  A service restored from a
  checkpoint resumes mid-stream and emits byte-identical decisions
  versus an uninterrupted run — the property
  ``tests/test_serving_equivalence.py`` locks down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.features import CrossRowWindow
from repro.core.online import CordialService
from repro.core.pipeline import Cordial
from repro.ml.persist import (FORMAT_VERSION, ModelPersistenceError,
                              _DESERIALIZERS, _SERIALIZERS)

PIPELINE_FORMAT = "cordial-pipeline"
PIPELINE_VERSION = 1

CHECKPOINT_FORMAT = "cordial-service-checkpoint"
#: Version 2 adds the per-bank incremental feature state
#: (``state["feature_state"]``), which re-predictions read; version-1
#: documents lack it and are rejected as unsupported.  Version 3 adds
#: the *optional* observability slice (``state["obs"]``, the decision
#: audit trail) — optional because unobserved services omit it, so a
#: version-3 checkpoint without the key is legitimate, not truncated.
CHECKPOINT_VERSION = 3
SUPPORTED_CHECKPOINT_VERSIONS = (2, 3)


class CheckpointCorruptionError(ModelPersistenceError):
    """A service checkpoint is truncated, tampered with, or internally
    inconsistent.

    Raised instead of the raw ``json.JSONDecodeError`` / ``KeyError`` /
    ``ValueError`` the damage would otherwise surface as, so recovery
    code can catch one typed error and fall back to an older checkpoint.
    A failed restore is transactional: when
    :meth:`~repro.core.online.CordialService.load_state_dict` raises,
    the in-memory service is left exactly as it was.
    """


def _model_to_obj(model) -> dict:
    serializer = _SERIALIZERS.get(type(model))
    if serializer is None:
        raise ModelPersistenceError(
            f"unsupported inner model: {type(model).__name__}")
    return serializer(model)


def _model_from_obj(obj: dict):
    loader = _DESERIALIZERS.get(obj.get("kind"))
    if loader is None:
        raise ModelPersistenceError(f"unknown model kind: {obj.get('kind')!r}")
    return loader(obj)


# -- pipeline documents -----------------------------------------------------------

def pipeline_to_document(cordial: Cordial) -> dict:
    """Render a fitted Cordial pipeline as a JSON-ready document."""
    if not getattr(cordial, "_fitted", False):
        raise ModelPersistenceError("cannot persist an unfitted Cordial")
    window = cordial.predictor.window
    return {
        "format": PIPELINE_FORMAT,
        "version": PIPELINE_VERSION,
        "ml_version": FORMAT_VERSION,
        "config": {
            "model_name": cordial.model_name,
            "trigger_uer_rows": cordial.trigger_uer_rows,
            "spares_per_bank": cordial.spares_per_bank,
            "repredict_each_uer": cordial.repredict_each_uer,
            "half_window": window.half_window,
            "block_rows": window.block_rows,
            "total_rows": cordial.predictor.featurizer.total_rows,
            "threshold": cordial.predictor.threshold,
            "auto_threshold": cordial.predictor._auto_threshold,
        },
        "classifier": _model_to_obj(cordial.classifier.model),
        "predictor": _model_to_obj(cordial.predictor.model),
    }


def pipeline_from_document(document: dict) -> Cordial:
    """Rebuild a Cordial pipeline from :func:`pipeline_to_document` output."""
    if document.get("format") != PIPELINE_FORMAT:
        raise ModelPersistenceError(
            f"unexpected format: {document.get('format')!r}")
    if document.get("version") != PIPELINE_VERSION:
        raise ModelPersistenceError(
            f"unsupported version: {document.get('version')!r}")
    config = document["config"]
    cordial = Cordial(
        model_name=config["model_name"],
        window=CrossRowWindow(half_window=config["half_window"],
                              block_rows=config["block_rows"]),
        trigger_uer_rows=config["trigger_uer_rows"],
        threshold=config["threshold"],
        spares_per_bank=config["spares_per_bank"],
        repredict_each_uer=config["repredict_each_uer"],
    )
    cordial.classifier.model = _model_from_obj(document["classifier"])
    cordial.classifier._fitted = True
    cordial.predictor.model = _model_from_obj(document["predictor"])
    cordial.predictor.featurizer.total_rows = config["total_rows"]
    cordial.predictor._auto_threshold = config["auto_threshold"]
    cordial.predictor._fitted = True
    cordial._fitted = True
    return cordial


def save_cordial(cordial: Cordial, destination: Union[str, Path]) -> None:
    """Serialise a fitted Cordial pipeline to a JSON file."""
    document = pipeline_to_document(cordial)
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load_cordial(source: Union[str, Path]) -> Cordial:
    """Reload a pipeline saved by :func:`save_cordial`.

    The returned object predicts identically to the saved one; it can be
    evaluated or served but not re-``fit`` incrementally.
    """
    try:
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelPersistenceError(f"invalid pipeline file: {exc}") from exc
    return pipeline_from_document(document)


# -- service checkpoints ----------------------------------------------------------

def service_to_document(service: CordialService) -> dict:
    """Render a running service (pipeline + mutable state) as a document."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "pipeline": pipeline_to_document(service.cordial),
        "state": service.state_dict(),
    }


def service_from_document(document: dict) -> CordialService:
    """Rebuild a service from :func:`service_to_document` output.

    Raises :class:`CheckpointCorruptionError` when the document carries
    the right format/version header but a damaged payload (missing keys,
    wrong value shapes) — the signature of truncation or tampering.
    """
    if not isinstance(document, dict):
        raise CheckpointCorruptionError(
            f"checkpoint document is {type(document).__name__}, not an "
            "object")
    fmt = document.get("format")
    if fmt != CHECKPOINT_FORMAT:
        if fmt == PIPELINE_FORMAT:
            # A recognizable sibling document: wrong *kind* of file, not
            # a damaged one.
            raise ModelPersistenceError(
                f"unexpected checkpoint format: {fmt!r} "
                "(this is a pipeline file — use load_cordial)")
        # Anything else means the header itself is garbled — the classic
        # bit-rot signature — so recovery code should treat it as a
        # corrupt checkpoint and fall back.
        raise CheckpointCorruptionError(
            f"unrecognized checkpoint format: {fmt!r} (damaged header?)")
    version = document.get("version")
    if version not in SUPPORTED_CHECKPOINT_VERSIONS:
        if isinstance(version, int):
            raise ModelPersistenceError(
                f"unsupported checkpoint version: {version!r}")
        raise CheckpointCorruptionError(
            f"invalid checkpoint version: {version!r}")
    try:
        cordial = pipeline_from_document(document["pipeline"])
        state = document["state"]
        if "feature_state" not in state:
            raise CheckpointCorruptionError(
                "checkpoint is missing its feature_state "
                "(truncated or key-dropped document)")
        service = CordialService(cordial,
                                 spares_per_bank=int(state["spares_per_bank"]),
                                 max_skew=float(state["max_skew"]))
        return service.load_state_dict(state)
    except CheckpointCorruptionError:
        raise
    except (KeyError, IndexError, ValueError, TypeError,
            AttributeError) as exc:
        raise CheckpointCorruptionError(
            f"corrupt checkpoint payload: {type(exc).__name__}: "
            f"{exc}") from exc


def save_service_checkpoint(service: CordialService,
                            destination: Union[str, Path]) -> None:
    """Snapshot a running :class:`CordialService` to a JSON file.

    The checkpoint is self-contained: it embeds the fitted pipeline, so
    :func:`load_service_checkpoint` needs no separate model file.
    """
    document = service_to_document(service)
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load_service_checkpoint(source: Union[str, Path]) -> CordialService:
    """Restore a service snapshot written by :func:`save_service_checkpoint`.

    The restored service resumes exactly where the snapshot was taken:
    feeding it the remainder of the stream produces decisions and a
    final ICR byte-identical to a service that never restarted.

    A truncated or tampered file raises
    :class:`CheckpointCorruptionError` (a :class:`ModelPersistenceError`
    subclass, so existing handlers keep working).
    """
    try:
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptionError(
            f"unreadable checkpoint file: {exc}") from exc
    return service_from_document(document)
