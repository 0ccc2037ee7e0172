"""Shard supervision: crash detection, deterministic restart, poison
quarantine, and degraded-mode failover for the fleet engine.

The sharded engine (:mod:`repro.serving.engine`) dies wholesale when a
single worker process crashes or hangs.  :class:`ShardSupervisor` sits
between the coordinator and its workers and turns individual worker
failure into a *recoverable* event while keeping the fleet's output bit
for bit identical to an undisturbed run:

* **typed failure surface** — every pipe interaction raises
  :class:`ShardFailureError` with a ``kind`` of ``"crash"`` (pipe
  closed, worker process gone, worker-side exception), ``"hang"``
  (no reply within ``batch_timeout`` — ``poll()`` deadline instead of a
  blocking ``recv()``), or ``"protocol"`` (unintelligible or unexpected
  reply).  ``ShardFailureError`` subclasses ``RuntimeError`` so callers
  written against the old surface keep working.
* **deterministic restart with replay** — the supervisor holds, per
  worker slot, the last-known-good state of every owned shard (a
  *baseline*: the empty start, the state handed to :meth:`load` on a
  restore, or the state of the last fleet checkpoint) plus the ordered
  log of batches dispatched since.  Recovery respawns the worker,
  reloads the baselines, and replays the log; shard state is a pure
  function of ``(baseline, batch sequence)``, so the rebuilt shard is
  byte-identical no matter *when* the failure was detected (OS pipe
  buffering may surface a crash at any later interaction — harmless,
  because the log always covers the gap).  Backoff is attempt-indexed
  (``min(base * 2**attempt, cap)``) with no wall-clock randomness.
* **poison-record quarantine** — a batch that kills its worker
  ``poison_threshold`` times is bisected (fresh worker per probe,
  smallest dying prefix) down to the offending record, which is removed
  from the replay log and handed to the coordinator's dead-letter
  ledger with reason ``"poison"``.
* **degraded-mode failover** — a slot that exhausts its
  ``max_restarts`` budget is adopted onto an in-process fallback
  worker: same baselines, same replay, no further process spawns.  The
  transition is counted in metrics and recorded in the run journal and
  audit trail.

A healthy supervised run is fire-and-forget between fleet checkpoints:
the supervisor takes no periodic state snapshot, because serialising a
shard's whole state costs more than replaying the records it was built
from.  The replay log therefore grows until the next baseline, and the
``supervisor.replay_log_records`` gauge shows its current and peak size
per slot.  Decision segments stay with the worker until ``checkpoint``
or ``finish`` drains them to the coordinator (they merge globally at
``finish``); everything after the last drain is regenerated by replay —
no decision is ever lost or duplicated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.telemetry.events import ErrorRecord
from repro.telemetry.metrics import MetricsRegistry

#: Failure taxonomy (``ShardFailureError.kind``).
FAILURE_CRASH = "crash"
FAILURE_HANG = "hang"
FAILURE_PROTOCOL = "protocol"
FAILURE_KINDS = (FAILURE_CRASH, FAILURE_HANG, FAILURE_PROTOCOL)

#: Injectable worker fault modes (chaos harness; ``engine.inject_fault``).
FAULT_CRASH = "crash"
FAULT_HANG = "hang"
FAULT_GARBAGE = "garbage"
FAULT_MODES = (FAULT_CRASH, FAULT_HANG, FAULT_GARBAGE)

#: Deadline for every coordinator-side receive (seconds).
DEFAULT_BATCH_TIMEOUT = 30.0

#: Batch-count buckets for the ``supervisor.recovery_batches`` histogram.
#: A recovery replays every batch since the slot's last checkpoint, so
#: the buckets reach well past a handful of batches.
RECOVERY_BATCH_BUCKETS = tuple(float(2 ** k) for k in range(15))


class ShardFailureError(RuntimeError):
    """One worker interaction failed, with a typed cause.

    Attributes:
        kind: ``"crash"`` | ``"hang"`` | ``"protocol"``.
        op: the protocol operation in flight (``"batch"``,
            ``"checkpoint"``, ...).
        worker_index: the worker slot, when known.
    """

    def __init__(self, kind: str, op: str, detail: str,
                 worker_index: Optional[int] = None) -> None:
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind: {kind!r}")
        self.kind = kind
        self.op = op
        self.detail = detail
        self.worker_index = worker_index
        where = ("shard worker" if worker_index is None
                 else f"shard worker {worker_index}")
        super().__init__(f"{where} {kind} during {op!r}: {detail}")


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Deterministic capped exponential backoff (attempt-indexed)."""
    if base <= 0.0:
        return 0.0
    return min(base * (2.0 ** attempt), cap)


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the shard supervision policy.

    Attributes:
        max_restarts: worker respawns allowed per slot before the slot
            fails over to an in-process fallback (degraded mode).
        batch_timeout: seconds a coordinator-side receive may wait
            before the worker is declared hung.
        poison_threshold: times the same logged batch may kill a worker
            before it is bisected for a poison record.
        backoff_base / backoff_cap: restart delay is
            ``min(base * 2**attempt, cap)`` seconds; base 0 disables
            sleeping entirely (the schedule stays deterministic either
            way — no wall-clock randomness).
    """

    max_restarts: int = 3
    batch_timeout: float = DEFAULT_BATCH_TIMEOUT
    poison_threshold: int = 2
    backoff_base: float = 0.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.batch_timeout <= 0.0:
            raise ValueError("batch_timeout must be > 0")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.backoff_base < 0.0 or self.backoff_cap < 0.0:
            raise ValueError("backoff must be >= 0")


@dataclass
class _LoggedBatch:
    """One dispatched batch, kept until the slot's next baseline."""

    serial: int
    shard_id: int
    records: List[ErrorRecord]


class _Slot:
    """Supervision state of one worker slot (one worker, >= 1 shards)."""

    def __init__(self, index: int, worker, shard_ids: Sequence[int],
                 log_gauge) -> None:
        self.index = index
        self.worker = worker
        self.shard_ids = list(shard_ids)
        #: last-known-good split service state per shard (None = fresh).
        self.baselines: Dict[int, Optional[dict]] = {
            shard_id: None for shard_id in self.shard_ids}
        #: ordered batches dispatched since the last baseline.
        self.log: List[_LoggedBatch] = []
        #: records in ``log`` (current value and high-water mark).
        self.log_gauge = log_gauge
        self.restarts_used = 0
        self.attempts = 0          # backoff index (monotonic per slot)
        self.spawns = 0            # restart-NN obs directory suffix
        self.degraded = False
        self.pending_fault: Optional[str] = None
        self.kill_counts: Dict[int, int] = {}
        self.next_serial = 0


class ShardSupervisor:
    """Restart policy + replay recovery over the engine's worker slots.

    The engine owns routing, buffering, and merging; the supervisor owns
    every *interaction* with a worker.  Construction is callback-based so
    this module never imports the engine:

    Args:
        config: the :class:`SupervisorConfig` policy.
        spawn: ``spawn(worker_index, shard_ids, restart) -> worker`` —
            a fresh worker of the engine's native kind (``restart`` > 0
            selects a ``restart-NN`` observability directory so a journal
            file is never re-opened by a second writer).
        spawn_fallback: same signature; an in-process fallback worker
            for degraded mode.
        on_poison: ``on_poison(record, shard_id, detail)`` — quarantines
            one poison record into the coordinator dead-letter ledger.
        metrics: coordinator-level registry for the ``supervisor.*``
            series (kept separate from the merged shard metrics so a
            recovered run's merged export stays byte-identical to an
            undisturbed one).
        journal / audit: optional run journal and audit trail for
            supervision events (restart, poison, degraded failover).
        sleep: injectable sleeper for the backoff schedule (tests pass a
            recorder; production uses ``time.sleep``).
    """

    def __init__(self, config: SupervisorConfig, *,
                 spawn: Callable[[int, Sequence[int], int], object],
                 spawn_fallback: Callable[[int, Sequence[int], int], object],
                 on_poison: Callable[[ErrorRecord, int, str], None],
                 metrics: MetricsRegistry,
                 journal=None, audit=None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.config = config
        self.metrics = metrics
        self.journal = journal
        self.audit = audit
        self._spawn = spawn
        self._spawn_fallback = spawn_fallback
        self._on_poison = on_poison
        self._sleep = sleep
        self.slots: List[_Slot] = []
        self._slot_of: Dict[int, _Slot] = {}
        # Pre-register the supervision series so a healthy run exports
        # them at zero — dashboards and tests never have to distinguish
        # "no failures" from "no supervisor".
        metrics.counter("supervisor.restarts_total")
        metrics.counter("supervisor.poison_records_total")
        metrics.counter("supervisor.degraded_shards")
        metrics.histogram("supervisor.recovery_batches",
                          buckets=RECOVERY_BATCH_BUCKETS)

    # -- registration --------------------------------------------------------
    def register(self, worker, shard_ids: Sequence[int]) -> _Slot:
        """Adopt one already-spawned worker as a supervised slot."""
        index = len(self.slots)
        gauge = self.metrics.gauge("supervisor.replay_log_records",
                                   labels={"slot": str(index)})
        slot = _Slot(index, worker, shard_ids, gauge)
        self.slots.append(slot)
        for shard_id in slot.shard_ids:
            self._slot_of[shard_id] = slot
        return slot

    # -- supervised worker interactions --------------------------------------
    def load(self, shard_id: int, state: dict) -> None:
        """Load one shard's state; the state becomes the slot baseline."""
        slot = self._slot_of[shard_id]
        slot.baselines[shard_id] = state
        try:
            slot.worker.load(shard_id, state)
        except ShardFailureError as failure:
            self._recover(slot, failure)

    def dispatch(self, shard_id: int, records: Sequence[ErrorRecord]) -> None:
        """Log one batch and hand it to the worker (no reply awaited)."""
        slot = self._slot_of[shard_id]
        batch = _LoggedBatch(slot.next_serial, shard_id, list(records))
        slot.next_serial += 1
        slot.log.append(batch)
        slot.log_gauge.inc(len(batch.records))
        if not self._fire_pending(slot, "batch"):
            # A fired fault already replayed the log (batch included);
            # sending it again would double-ingest.
            try:
                slot.worker.batch(shard_id, batch.records)
            except ShardFailureError as failure:
                self._recover(slot, failure)

    def checkpoint_worker(self, slot: _Slot) -> Dict[int, dict]:
        """Checkpoint one slot; the checkpoint doubles as its baseline."""
        payload = self._sync(slot, "checkpoint",
                             lambda: slot.worker.checkpoint())
        for shard_id, entry in payload.items():
            slot.baselines[shard_id] = entry["document"]["state"]
        self._reset_log(slot)
        return payload

    def finish_worker(self, slot: _Slot) -> Dict[int, dict]:
        """Flush one slot and return its final per-shard payload."""
        return self._sync(slot, "finish", lambda: slot.worker.finish())

    def close(self) -> None:
        """Stop every slot's current worker (idempotent)."""
        for slot in self.slots:
            slot.worker.close()

    # -- chaos hook ----------------------------------------------------------
    def inject_fault(self, shard_id: int, mode: str) -> None:
        """Schedule one worker fault on the slot owning ``shard_id``.

        Process workers get a real in-band chaos message (the worker
        crashes / hangs / emits pipe garbage when it reaches it);
        in-process workers simulate the same failure at their next
        interaction.  Either way recovery replays from the baseline, so
        the two paths converge on identical output.
        """
        if mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode: {mode!r} "
                             f"(expected one of {FAULT_MODES})")
        slot = self._slot_of[shard_id]
        if getattr(slot.worker, "supports_chaos", False):
            try:
                slot.worker.chaos(mode)
            except ShardFailureError as failure:
                self._recover(slot, failure)
        else:
            slot.pending_fault = mode

    # -- internals -----------------------------------------------------------
    def _sync(self, slot: _Slot, op: str, call) -> Dict[int, dict]:
        """One synchronous worker round-trip, recovering until it lands."""
        while True:
            self._fire_pending(slot, op)
            try:
                return call()
            except ShardFailureError as failure:
                self._recover(slot, failure)

    def _fire_pending(self, slot: _Slot, op: str) -> bool:
        """Simulated fault of an in-process worker (chaos parity).

        Returns True when a fault fired (recovery already replayed the
        slot's log on a fresh worker).
        """
        mode = slot.pending_fault
        if mode is None:
            return False
        slot.pending_fault = None
        kind = {FAULT_CRASH: FAILURE_CRASH, FAULT_HANG: FAILURE_HANG,
                FAULT_GARBAGE: FAILURE_PROTOCOL}[mode]
        self._recover(slot, ShardFailureError(
            kind, op, f"injected local {mode} fault",
            worker_index=slot.index))
        return True

    def _reset_log(self, slot: _Slot) -> None:
        slot.log.clear()
        slot.log_gauge.set(0.0)
        slot.kill_counts.clear()

    def _recover(self, slot: _Slot, failure: ShardFailureError) -> None:
        """Bring the slot back to a state consistent with its log.

        Loops rebuild attempts; a rebuild that keeps dying on the same
        logged batch crosses ``poison_threshold`` and triggers
        bisection.  Exhausting ``max_restarts`` fails the slot over to
        the in-process fallback (which then rebuilds the same way).
        """
        self._journal("failure", slot,
                      detail=f"{failure.kind} during {failure.op!r}")
        if not slot.degraded:
            if slot.restarts_used >= self.config.max_restarts:
                self._degrade(slot, failure)
            else:
                slot.restarts_used += 1
        while True:
            self._sleep(backoff_delay(slot.attempts,
                                      self.config.backoff_base,
                                      self.config.backoff_cap))
            slot.attempts += 1
            position = self._rebuild(slot)
            if position is None:
                self.metrics.counter("supervisor.restarts_total").inc()
                self.metrics.histogram(
                    "supervisor.recovery_batches",
                    buckets=RECOVERY_BATCH_BUCKETS).observe(
                        float(len(slot.log)))
                self._journal(
                    "restart", slot,
                    detail=f"replayed {len(slot.log)} batches "
                           f"(attempt {slot.attempts})")
                return
            batch = slot.log[position]
            kills = slot.kill_counts.get(batch.serial, 0) + 1
            slot.kill_counts[batch.serial] = kills
            if kills >= self.config.poison_threshold:
                self._bisect_poison(slot, position)

    def _rebuild(self, slot: _Slot) -> Optional[int]:
        """Fresh worker + baselines + full log replay.

        Returns ``None`` on success or the log position whose replay
        killed the worker (ping round-trips pin the failure to one
        batch — fire-and-forget dispatch cannot).
        """
        self._replace_worker(slot)
        for shard_id in slot.shard_ids:
            state = slot.baselines[shard_id]
            if state is not None:
                slot.worker.load(shard_id, state)
        slot.worker.ping()
        for position, batch in enumerate(slot.log):
            try:
                slot.worker.batch(batch.shard_id, batch.records)
                slot.worker.ping()
            except ShardFailureError:
                return position
        return None

    def _replace_worker(self, slot: _Slot) -> None:
        slot.worker.terminate()
        slot.spawns += 1
        factory = self._spawn_fallback if slot.degraded else self._spawn
        slot.worker = factory(slot.index, slot.shard_ids, slot.spawns)

    def _bisect_poison(self, slot: _Slot, position: int) -> None:
        """Quarantine the first poison record of the batch at ``position``.

        Binary search for the smallest dying prefix: each probe is a
        fresh worker replaying the clean prefix of the log plus the
        first ``k`` records of the suspect batch.  The record found is
        removed from the log and dead-lettered with reason ``"poison"``;
        the caller's rebuild loop then re-proves the remainder (a batch
        may carry more than one poison record).
        """
        batch = slot.log[position]
        lo, hi = 1, len(batch.records)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._probe_dies(slot, position, mid):
                hi = mid
            else:
                lo = mid + 1
        poison = batch.records.pop(lo - 1)
        slot.log_gauge.inc(-1.0)
        if not batch.records:
            del slot.log[position]
        slot.kill_counts.pop(batch.serial, None)
        detail = (f"poison record killed worker {slot.index} "
                  f"{self.config.poison_threshold} times "
                  f"(shard {batch.shard_id})")
        self.metrics.counter("supervisor.poison_records_total").inc()
        self._journal("poison", slot, detail=detail)
        self._on_poison(poison, batch.shard_id, detail)

    def _probe_dies(self, slot: _Slot, position: int, count: int) -> bool:
        """Whether baselines + clean prefix + ``count`` suspect records die."""
        self._replace_worker(slot)
        try:
            for shard_id in slot.shard_ids:
                state = slot.baselines[shard_id]
                if state is not None:
                    slot.worker.load(shard_id, state)
            for batch in slot.log[:position]:
                slot.worker.batch(batch.shard_id, batch.records)
            suspect = slot.log[position]
            slot.worker.batch(suspect.shard_id, suspect.records[:count])
            slot.worker.ping()
        except ShardFailureError:
            return True
        return False

    def _degrade(self, slot: _Slot, failure: ShardFailureError) -> None:
        """Adopt the slot's shards onto the in-process fallback."""
        slot.degraded = True
        self.metrics.counter("supervisor.degraded_shards").inc(
            len(slot.shard_ids))
        detail = (f"restart budget exhausted "
                  f"({self.config.max_restarts}) after {failure.kind}; "
                  f"adopting shards {slot.shard_ids} in-process")
        self._journal("degraded", slot, detail=detail)
        if self.audit is not None:
            self.audit.record_decision(
                kind="supervision", timestamp=-1.0,
                bank_key=(slot.index,), action="degraded-failover",
                pattern=None)

    def _journal(self, action: str, slot: _Slot, detail: str = "") -> None:
        if self.journal is not None:
            self.journal.supervision(action, slot.index,
                                     shards=tuple(slot.shard_ids),
                                     detail=detail)
