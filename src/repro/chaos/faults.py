"""Process-level faults: kill/restore cycles and checkpoint tampering.

:func:`serve_engine_with_faults` drives a
:class:`~repro.serving.engine.ShardedCordialEngine` through a stream
while killing the whole fleet at scheduled ingest points: at each kill
the fleet is checkpointed into a directory, *every worker is torn down*,
and a successor engine restored from the directory serves on — the same
restart ``serve-replay --checkpoint`` exercises once, here repeated at
arbitrary depth.  Optionally every kill also load-tests deliberately
damaged copies of the checkpoint's shard file and manifest (truncated,
header-mangled, key-dropped) and records whether the persistence layer
rejected them with the typed
:class:`~repro.core.persistence.CheckpointCorruptionError` — the oracle
turns any undetected tamper into a violation.  Per-shard worker faults
(crash, hang, pipe garbage) ride the same loop for supervised engines.

Every choice (tamper bytes, truncation point) comes from the caller's
RNG, so fault schedules are as reproducible as the stream operators.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.online import CordialService, Decision
from repro.core.persistence import CheckpointCorruptionError

#: Supported checkpoint tampering modes.
TAMPER_MODES = ("truncate", "mangle_header", "drop_key")

#: Per-shard worker fault operators -> the engine's in-band chaos modes
#: (:data:`repro.serving.supervisor.FAULT_MODES`).
WORKER_FAULT_MODES = {
    "worker_crash": "crash",   # worker process dies mid-stream
    "worker_hang": "hang",     # worker stops replying (deadline trips)
    "pipe_garbage": "garbage",  # worker writes an undecodable reply
}


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled per-shard worker fault.

    Attributes:
        at_event: 1-based ingest count after which the fault is injected.
        shard: target shard id (the supervisor recovers that shard's
            worker slot).
        mode: operator name, a key of :data:`WORKER_FAULT_MODES`.
    """

    at_event: int
    shard: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in WORKER_FAULT_MODES:
            raise ValueError(
                f"unknown worker fault mode: {self.mode!r} "
                f"(known: {sorted(WORKER_FAULT_MODES)})")
        if self.at_event < 1:
            raise ValueError("at_event must be >= 1")

    def to_obj(self) -> dict:
        """JSON-ready rendering."""
        return {"at_event": self.at_event, "shard": self.shard,
                "mode": self.mode}


@dataclass(frozen=True)
class TamperTrial:
    """Outcome of one tampered-checkpoint load attempt.

    Attributes:
        mode: tamper mode applied (see :data:`TAMPER_MODES`).
        detected: True when loading raised the typed corruption error.
        error: the exception class name actually raised ("" when the
            load wrongly succeeded).
    """

    mode: str
    detected: bool
    error: str

    def to_obj(self) -> dict:
        """JSON-ready rendering."""
        return {"mode": self.mode, "detected": self.detected,
                "error": self.error}


@dataclass
class ServeOutcome:
    """Everything one faulted serve produced, for the oracle to judge.

    Attributes:
        service: a ``CordialService`` holding the merged final fleet
            state, so the oracle judges the fleet as one service.
        decisions: every decision in emission order.
        restore_count: kill/restore cycles actually performed.
        tamper_trials: tampered-checkpoint load attempts, in order.
        isolation_snapshots: ``IsolationReplay.state_dict()`` captured at
            each kill point plus at end of stream — the material for the
            isolation-monotonicity invariant.
    """

    service: CordialService
    decisions: List[Decision]
    restore_count: int
    tamper_trials: List[TamperTrial]
    isolation_snapshots: List[dict]


def tamper_checkpoint(path: str, mode: str, rng: np.random.Generator,
                      destination: Optional[str] = None) -> str:
    """Write a damaged copy of a checkpoint file; returns its path.

    ``truncate`` keeps a prefix of the bytes (a crash mid-write),
    ``mangle_header`` flips a byte inside the format header (bit rot in
    the one region whose damage is always structural), and ``drop_key``
    deletes one required top-level state entry (a partial or
    hand-edited document).
    """
    if mode not in TAMPER_MODES:
        raise ValueError(f"unknown tamper mode: {mode!r}")
    destination = destination or path + f".tampered-{mode}"
    with open(path, "rb") as handle:
        payload = handle.read()
    if mode == "truncate":
        cut = int(len(payload) * float(rng.uniform(0.05, 0.9)))
        damaged = payload[:cut]
    elif mode == "mangle_header":
        # The document starts {"format": "cordial-service-checkpoint" —
        # flipping a low bit of one of those bytes breaks either the JSON
        # structure or the format string, never silently a value.
        position = int(rng.integers(2, min(40, len(payload))))
        damaged = (payload[:position]
                   + bytes([payload[position] ^ 0x01])
                   + payload[position + 1:])
    else:  # drop_key
        document = json.loads(payload.decode("utf-8"))
        keys = sorted(document.get("state", {}))
        if keys:
            victim = keys[int(rng.integers(0, len(keys)))]
            del document["state"][victim]
        else:
            document.pop("state", None)
        damaged = json.dumps(document).encode("utf-8")
    with open(destination, "wb") as handle:
        handle.write(damaged)
    return destination


def run_fleet_tamper_trials(directory: str, modes: Sequence[str],
                            rng: np.random.Generator) -> List[TamperTrial]:
    """Load-test a *fleet* checkpoint directory against tampering.

    Each mode damages ``shard-00.ckpt.json`` **in place** (original bytes
    restored afterwards) and attempts a full fleet load — the manifest
    must not vouch for a shard file the service layer would reject.  A
    final pair of trials damages the manifest itself (``truncate`` and
    ``mangle_header`` only: the manifest has no ``"state"`` entry, so a
    ``drop_key`` trial would "pass" without removing anything).  Trial
    modes are prefixed ``shard:`` / ``manifest:`` in the report.
    """
    from repro.serving.checkpoint import (MANIFEST_FILE,
                                          load_fleet_checkpoint,
                                          shard_file_name)

    def attempt(label: str) -> TamperTrial:
        try:
            load_fleet_checkpoint(directory)
        except CheckpointCorruptionError as exc:
            return TamperTrial(mode=label, detected=True,
                               error=type(exc).__name__)
        except Exception as exc:  # wrong type: a miss, not a crash
            return TamperTrial(mode=label, detected=False,
                               error=type(exc).__name__)
        return TamperTrial(mode=label, detected=False, error="")

    trials: List[TamperTrial] = []
    shard_path = os.path.join(directory, shard_file_name(0))
    for mode in modes:
        with open(shard_path, "rb") as handle:
            original = handle.read()
        try:
            tamper_checkpoint(shard_path, mode, rng, destination=shard_path)
            trials.append(attempt(f"shard:{mode}"))
        finally:
            with open(shard_path, "wb") as handle:
                handle.write(original)
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    for mode in modes:
        if mode == "drop_key":
            continue
        with open(manifest_path, "rb") as handle:
            original = handle.read()
        try:
            tamper_checkpoint(manifest_path, mode, rng,
                              destination=manifest_path)
            trials.append(attempt(f"manifest:{mode}"))
        finally:
            with open(manifest_path, "wb") as handle:
                handle.write(original)
    return trials


def _fleet_replay_snapshot(directory: str) -> dict:
    """Merged ``IsolationReplay.state_dict()`` of a fleet checkpoint.

    Gives the oracle's isolation-monotonicity invariant the same
    single-ledger view it gets from a single-service checkpoint.
    """
    from repro.serving.checkpoint import load_fleet_checkpoint
    from repro.serving.merge import merge_service_states
    from repro.telemetry.metrics import EXPORT_VERSION

    manifest, services = load_fleet_checkpoint(directory)
    merged = merge_service_states(
        [service.state_dict() for service in services],
        manifest["router"], manifest["stats"],
        {"version": EXPORT_VERSION,
         "counters": dict(manifest["counters"]), "gauges": {}})
    return merged["replay"]


def serve_engine_with_faults(engine, stream: Sequence[Any],
                             kill_points: Sequence[int],
                             checkpoint_dir: str,
                             rng: np.random.Generator,
                             tamper_modes: Sequence[str] = (),
                             worker_faults: Sequence[WorkerFault] = ()
                             ) -> Tuple[Any, ServeOutcome]:
    """Serve ``stream`` through ``engine`` with kill/restore faults.

    ``kill_points`` are 1-based submit counts (points outside
    ``1..len(stream)`` are ignored): after the k-th event the *whole
    fleet* is checkpointed into ``checkpoint_dir``, optionally
    tamper-tested, every worker is torn down, and a successor engine
    restored from the directory serves on.  ``worker_faults``
    additionally injects per-shard worker faults (crash/hang/garbage) at
    their scheduled ingest points; the engine must be supervised for
    those to be survivable.  Returns
    ``(engine, outcome)``: the engine that finished the stream (close
    it!), and a :class:`ServeOutcome` whose ``service`` is the merged
    single-service view, so the invariant oracle judges the fleet with
    the battery it already has.
    """
    from repro.serving.merge import merge_decisions

    kills = sorted({int(k) for k in kill_points if 1 <= k <= len(stream)})
    pending_faults: dict = {}
    for fault in worker_faults:
        pending_faults.setdefault(int(fault.at_event), []).append(fault)
    segments: List[List[Decision]] = []
    trials: List[TamperTrial] = []
    snapshots: List[dict] = []
    restores = 0
    for index, item in enumerate(stream, start=1):
        engine.submit(item)
        for fault in pending_faults.pop(index, []):
            engine.inject_fault(fault.shard, WORKER_FAULT_MODES[fault.mode])
        if kills and index == kills[0]:
            kills.pop(0)
            engine.checkpoint(checkpoint_dir)
            segments.extend(engine.drain_segments())
            snapshots.append(_fleet_replay_snapshot(checkpoint_dir))
            if tamper_modes:
                trials.extend(run_fleet_tamper_trials(
                    checkpoint_dir, tamper_modes, rng))
            engine.close()
            engine = engine.restore_successor(checkpoint_dir)
            restores += 1
    outcome = engine.finish()
    decisions = outcome.decisions
    if segments:
        decisions = merge_decisions(segments + [decisions])
    snapshots.append(copy.deepcopy(outcome.service.replay.state_dict()))
    return engine, ServeOutcome(
        service=outcome.service, decisions=decisions,
        restore_count=restores, tamper_trials=trials,
        isolation_snapshots=snapshots)
