"""Streaming BMC collector: reordering ingestion with per-bank triggers.

Cordial acts when a bank reaches its *third* uncorrectable-action-required
error (Section IV-C: "We use the first three UER information for failure
pattern classification").  The collector consumes an event stream,
maintains the per-bank history visible *so far*, and yields a
:class:`BankTrigger` the moment a bank's k-th distinct UER row appears.

Field telemetry is messy: BMCs from different hosts drift apart, log
shippers batch and retry, and a restart replays a few seconds of history.
Both fleet studies the serving layer leans on (Yu et al., "Exploring
Error Bits for Memory Failure Prediction"; Wu et al., "DRAM Failure
Prediction in AIOps") call out clock skew and malformed records as
first-order operational problems.  The collector therefore tolerates
bounded disorder instead of crashing:

* events are staged in a **reorder buffer** keyed by ``(timestamp,
  sequence)`` and only *released* — applied to bank state, in order —
  once the **watermark** (``newest timestamp seen - max_skew``) passes
  them.  Any stream whose events are displaced by less than ``max_skew``
  produces exactly the decisions of the fully sorted stream;
* events older than the watermark, and malformed inputs, are quarantined
  into a bounded **dead-letter list** with a counted reason — the service
  keeps running and operators keep the evidence;
* with ``max_skew=0`` (the default) events are released immediately on
  ingestion, which preserves the historical strict-order behaviour,
  except that a timestamp regression is dead-lettered instead of raising.

The trigger carries a snapshot of the bank's history up to and including
the triggering event — exactly the information the featurizers are allowed
to see, which makes look-ahead bugs structurally impossible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.telemetry.events import ErrorRecord, ErrorType
from repro.telemetry.metrics import MetricsRegistry

#: A released event paired with the trigger (if any) it armed.
ReleasedEvent = Tuple[ErrorRecord, Optional["BankTrigger"]]

#: Dead-letter reasons used by the collector itself.
REASON_LATE = "late"
REASON_MALFORMED = "malformed"
#: Dead-letter reason reserved for *upstream parser* failures (lines that
#: never became records).  Kept distinct from ``REASON_MALFORMED`` so a
#: corrupted input is counted exactly once: parser failures never reach
#: :meth:`BMCCollector.ingest`, and ingest failures were parseable — the
#: two quarantine paths can never both claim the same input.
REASON_CORRUPT = "corrupt"
#: Dead-letter reason used by the shard supervisor for records that
#: reproducibly kill their worker (:mod:`repro.serving.supervisor`);
#: quarantined on the coordinator's router ledger, never by a shard
#: collector, so the counting disjointness above carries over.
REASON_POISON = "poison"


@dataclass(frozen=True)
class BankTrigger:
    """Fired when a bank accumulates ``trigger_uer_rows`` distinct UER rows.

    Attributes:
        bank_key: the bank that triggered.
        timestamp: time of the triggering event.
        history: every event of this bank up to and including the trigger,
            in time order.
        uer_rows: the distinct UER rows seen so far, in occurrence order.
    """

    bank_key: tuple
    timestamp: float
    history: Tuple[ErrorRecord, ...]
    uer_rows: Tuple[int, ...]


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined input.

    Attributes:
        reason: machine-readable class (``"late"``, ``"malformed"``, ...).
        detail: human-readable explanation.
        timestamp: the event's own timestamp, when it had one.
        record: the offending record, when it parsed at all.
    """

    reason: str
    detail: str
    timestamp: Optional[float] = None
    record: Optional[ErrorRecord] = None


@dataclass
class _BankBuffer:
    events: List[ErrorRecord] = field(default_factory=list)
    uer_rows: List[int] = field(default_factory=list)
    uer_row_set: Set[int] = field(default_factory=set)
    triggered: bool = False


class BMCCollector:
    """Reordering event ingestion that fires per-bank triggers.

    :meth:`ingest` returns the list of events *released* by this
    arrival — each paired with the :class:`BankTrigger` it armed (or
    ``None``).  With ``max_skew=0`` an in-order arrival is released
    immediately, so the list is just ``[(record, trigger_or_none)]``;
    with a positive skew one arrival can release zero or many buffered
    events.  Call :meth:`flush` at end of stream to release whatever the
    watermark still holds back.

    Args:
        trigger_uer_rows: number of distinct UER rows that arms the
            trigger (3 in the paper; ablation A1 varies it).
        max_skew: tolerated timestamp disorder, in stream-time seconds.
            Events within ``max_skew`` of the newest timestamp are
            re-sequenced; older arrivals are dead-lettered as ``"late"``.
        max_pending: hard bound on the reorder buffer; beyond it the
            oldest events are force-released (counted) so memory stays
            bounded even on pathological streams.
        max_dead_letters: how many quarantined inputs to *keep* (counts
            are always exact; the list is a bounded evidence window).
        metrics: optional shared :class:`MetricsRegistry`.
        obs: optional :class:`~repro.obs.Observability` bundle; when
            attached, every quarantine lands in the run journal (with
            its counted reason) and the journal's sampled
            ingest/release stream-progress markers are fed.  Strictly
            passive — release order, triggers and dead-letter ledgers
            are identical with or without it.
    """

    def __init__(self, trigger_uer_rows: int = 3, max_skew: float = 0.0,
                 max_pending: int = 100_000, max_dead_letters: int = 1_000,
                 metrics: Optional[MetricsRegistry] = None,
                 obs=None) -> None:
        if trigger_uer_rows < 1:
            raise ValueError("trigger_uer_rows must be >= 1")
        if max_skew < 0:
            raise ValueError("max_skew must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.trigger_uer_rows = trigger_uer_rows
        self.max_skew = max_skew
        self.max_pending = max_pending
        self.max_dead_letters = max_dead_letters
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = obs
        self._banks: Dict[tuple, _BankBuffer] = {}
        # Reorder buffer: heap of (timestamp, sequence, record).
        self._pending: List[Tuple[float, int, ErrorRecord]] = []
        self._max_timestamp = float("-inf")
        self.dead_letters: List[DeadLetter] = []
        self.dead_letter_counts: Dict[str, int] = {}

    # -- ingestion -----------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Events with timestamps below this are late (dead-lettered)."""
        return self._max_timestamp - self.max_skew

    @property
    def pending_count(self) -> int:
        """Events currently held in the reorder buffer."""
        return len(self._pending)

    def quarantine(self, reason: str, detail: str,
                   timestamp: Optional[float] = None,
                   record: Optional[ErrorRecord] = None) -> None:
        """Record one dead-lettered input (bounded list, exact counts).

        Exposed so upstream parsers (e.g. a lenient MCE-log reader) can
        route their failures into the same quarantine.
        """
        self.dead_letter_counts[reason] = (
            self.dead_letter_counts.get(reason, 0) + 1)
        if len(self.dead_letters) < self.max_dead_letters:
            self.dead_letters.append(DeadLetter(
                reason=reason, detail=detail, timestamp=timestamp,
                record=record))
        self.metrics.counter("collector.dead_letters",
                             labels={"reason": reason}).inc()
        if self.obs is not None:
            self.obs.journal.quarantine(
                reason, detail,
                timestamp=(timestamp
                           if timestamp is not None
                           and math.isfinite(timestamp) else None))

    def ingest(self, record: ErrorRecord) -> List[ReleasedEvent]:
        """Feed one event; returns the events it released, in order."""
        self.metrics.counter("collector.events_ingested").inc()
        if not isinstance(record, ErrorRecord):
            self.quarantine(REASON_MALFORMED,
                            f"not an ErrorRecord: {type(record).__name__}")
            return []
        if not math.isfinite(record.timestamp):
            # A NaN timestamp must never reach the reorder heap: NaN
            # compares false against everything, so one poisoned head
            # entry would silently block _drain from ever releasing
            # again — the exact conservation leak the chaos corruption
            # operator hunts for.  Quarantine it, counted exactly once.
            # The record itself stays out of the evidence list: a
            # non-finite timestamp cannot round-trip the checkpoint's
            # strict record codec.
            self.quarantine(
                REASON_MALFORMED,
                f"non-finite timestamp: {record.timestamp} "
                f"(sequence {record.sequence})")
            return []
        if record.timestamp < self.watermark:
            self.quarantine(
                REASON_LATE,
                f"timestamp {record.timestamp} behind watermark "
                f"{self.watermark}",
                timestamp=record.timestamp, record=record)
            return []
        heapq.heappush(self._pending,
                       (record.timestamp, record.sequence, record))
        if record.timestamp > self._max_timestamp:
            self._max_timestamp = record.timestamp
        if self.obs is not None:
            self.obs.journal.ingest(record.timestamp, record.sequence,
                                    len(self._pending))
        released = self._drain(self.watermark,
                               inclusive=(self.max_skew == 0))
        while len(self._pending) > self.max_pending:
            released.extend(self._release_oldest())
            self.metrics.counter("collector.forced_releases").inc()
        self.metrics.gauge("collector.reorder_depth").set(len(self._pending))
        return released

    def flush(self) -> List[ReleasedEvent]:
        """Release every buffered event (end of stream), in order."""
        released = self._drain(float("inf"), inclusive=True)
        self.metrics.gauge("collector.reorder_depth").set(0)
        return released

    def _drain(self, bound: float, inclusive: bool) -> List[ReleasedEvent]:
        released: List[ReleasedEvent] = []
        while self._pending:
            head_ts = self._pending[0][0]
            if not (head_ts < bound or (inclusive and head_ts <= bound)):
                break
            released.extend(self._release_oldest())
        return released

    def _release_oldest(self) -> List[ReleasedEvent]:
        _, _, record = heapq.heappop(self._pending)
        return [(record, self._apply(record))]

    def _apply(self, record: ErrorRecord) -> Optional[BankTrigger]:
        """Apply one released event to bank state; maybe arm a trigger."""
        self.metrics.counter("collector.events_released").inc()
        if self.obs is not None:
            self.obs.journal.release(record.timestamp, record.sequence)
        buffer = self._banks.setdefault(record.bank_key, _BankBuffer())
        buffer.events.append(record)
        if record.error_type is ErrorType.UER:
            if record.row not in buffer.uer_row_set:
                buffer.uer_row_set.add(record.row)
                buffer.uer_rows.append(record.row)
        if (not buffer.triggered
                and len(buffer.uer_rows) >= self.trigger_uer_rows):
            buffer.triggered = True
            self.metrics.counter("collector.triggers_fired").inc()
            return BankTrigger(
                bank_key=record.bank_key,
                timestamp=record.timestamp,
                history=tuple(buffer.events),
                uer_rows=tuple(buffer.uer_rows),
            )
        return None

    def replay(self, records: Iterable[ErrorRecord]) -> Iterator[BankTrigger]:
        """Feed a whole stream (then flush), yielding triggers as they fire."""
        for record in records:
            for _, trigger in self.ingest(record):
                if trigger is not None:
                    yield trigger
        for _, trigger in self.flush():
            if trigger is not None:
                yield trigger

    # -- queries -------------------------------------------------------------
    @property
    def triggered_banks(self) -> List[tuple]:
        """Banks whose trigger has fired, sorted for determinism."""
        return sorted(k for k, b in self._banks.items() if b.triggered)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete, JSON-ready collector state (deterministic layout)."""
        from repro.telemetry.mcelog import record_to_obj

        return {
            "trigger_uer_rows": self.trigger_uer_rows,
            "max_skew": self.max_skew,
            "max_pending": self.max_pending,
            "max_dead_letters": self.max_dead_letters,
            "max_timestamp": (None if self._max_timestamp == float("-inf")
                              else self._max_timestamp),
            "banks": [
                [[int(k) for k in key], {
                    "events": [record_to_obj(r) for r in buf.events],
                    "uer_rows": [int(row) for row in buf.uer_rows],
                    "triggered": buf.triggered,
                }]
                for key, buf in sorted(self._banks.items())
            ],
            "pending": [record_to_obj(r)
                        for _, _, r in sorted(self._pending)],
            "dead_letters": [
                {"reason": d.reason, "detail": d.detail,
                 "timestamp": d.timestamp,
                 "record": (None if d.record is None
                            else record_to_obj(d.record))}
                for d in self.dead_letters
            ],
            "dead_letter_counts": {k: self.dead_letter_counts[k]
                                   for k in sorted(self.dead_letter_counts)},
        }

    def load_state_dict(self, state: dict) -> "BMCCollector":
        """Restore state captured by :meth:`state_dict`."""
        from repro.telemetry.mcelog import record_from_obj

        self.trigger_uer_rows = int(state["trigger_uer_rows"])
        self.max_skew = float(state["max_skew"])
        self.max_pending = int(state["max_pending"])
        self.max_dead_letters = int(state["max_dead_letters"])
        self._max_timestamp = (float("-inf")
                               if state["max_timestamp"] is None
                               else float(state["max_timestamp"]))
        self._banks = {}
        for key, buf in state["banks"]:
            buffer = _BankBuffer(
                events=[record_from_obj(o) for o in buf["events"]],
                uer_rows=list(buf["uer_rows"]),
                uer_row_set=set(buf["uer_rows"]),
                triggered=bool(buf["triggered"]),
            )
            self._banks[tuple(key)] = buffer
        self._pending = [(r.timestamp, r.sequence, r)
                         for r in (record_from_obj(o)
                                   for o in state["pending"])]
        heapq.heapify(self._pending)
        self.dead_letters = [
            DeadLetter(reason=d["reason"], detail=d["detail"],
                       timestamp=d["timestamp"],
                       record=(None if d["record"] is None
                               else record_from_obj(d["record"])))
            for d in state["dead_letters"]
        ]
        self.dead_letter_counts = dict(state["dead_letter_counts"])
        return self
