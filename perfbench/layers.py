"""Layer tracing from outside the program.

The benchmark times each layer of the Cordial stack by wrapping the
program's own functions for the duration of a traced pass: every wrapped
call becomes a span of :class:`repro.obs.tracer.SpanTracer`, stamped with
the ``sequence`` of the record that caused it, and bumps the layer's work
counters.  Nothing inside the program changes; the wrappers are removed
again when the pass ends, so untraced passes run the unmodified code.

A layer's *busy* time is its self time: the span's duration minus the part
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import pipeline as pipeline_module
from repro.core.classifier import FailurePatternClassifier
from repro.core.features import BankPatternFeaturizer, CrossRowFeaturizer
from repro.core.incremental import IncrementalFeatureState
from repro.core.isolation import IsolationReplay
from repro.ml.lgbm import LGBMClassifier
from repro.obs.tracer import SpanTracer
from repro.serving import engine as engine_module
from repro.serving.engine import ShardedCordialEngine
from repro.serving.router import FleetRouter
from repro.serving.supervisor import ShardSupervisor
from repro.telemetry.collector import BMCCollector

#: Spans one pass may record; a pass that overflows it fails loudly
#: instead of reporting self times computed from a truncated trace.
MAX_SPANS = 1_000_000


class LayerTrace:
    """Spans and work counters of one traced stretch (a pass or a set-up)."""

    def __init__(self) -> None:
        self.tracer = SpanTracer(clock=time.perf_counter, max_spans=MAX_SPANS)
        self.counts: Counter = Counter()
        self._table: Optional[Dict[str, Tuple[int, float, float]]] = None
        #: Sequence of the record being served; nested spans inherit it.
        self.seq = -1

    def span(self, name: str, seq: Optional[int] = None):
        """A span named ``name`` stamped with ``seq`` (default: inherited)."""
        return self.tracer.span(name, seq=self.seq if seq is None else seq)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (spans, total seconds, self seconds)``.

        Spans are stored in completion order, which is post-order: the
        children of a span at depth ``d`` are the depth ``d + 1`` spans
        completed since the previous depth-``d`` span.  Computed once: call
        it after the traced stretch has ended.
        """
        if self._table is not None:
            return self._table
        if self.tracer.spans_dropped:
            raise RuntimeError(
                f"trace overflowed {MAX_SPANS} spans; self times would be "
                "computed from a truncated trace")
        child_time: Dict[int, float] = defaultdict(float)
        table: Dict[str, List] = {}
        for span in self.tracer.spans:
            duration = span.duration
            own = duration - child_time.pop(span.depth + 1, 0.0)
            child_time[span.depth] += duration
            entry = table.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        self._table = {name: tuple(entry)
                       for name, entry in sorted(table.items())}
        return self._table

    def busy(self, *names: str) -> float:
        """Summed self seconds of the named spans."""
        table = self.self_times()
        return sum(table[name][2] for name in names if name in table)


def _record_seq(record) -> Optional[int]:
    return getattr(record, "sequence", None)


def _history_seq(history) -> Optional[int]:
    return _record_seq(history[-1]) if history else None


def _count_collector(counts: Counter, args, result) -> None:
    counts["collector.calls"] += 1
    counts["collector.released"] += len(result)
    counts["collector.triggers"] += sum(
        1 for _, trigger in result if trigger is not None)


def _count_dispatch(counts: Counter, args, result) -> None:
    counts["dispatch.batches"] += 1
    counts["dispatch.records"] += len(args[2])


def _count_predict(counts: Counter, args, result) -> None:
    counts["predict.calls"] += 1
    counts["predict.rows"] += len(args[1])


def _count_isolate_rows(counts: Counter, args, result) -> None:
    counts["isolate.calls"] += 1
    counts["isolate.rows_requested"] += len(args[2])
    counts["isolate.rows_newly_spared"] += int(result)


def _calls(key: str) -> Callable[[Counter, tuple, object], None]:
    def count(counts: Counter, args, result) -> None:
        counts[key] += 1
    return count


#: ``(owner, attribute, span name, seq_of(args), count(counts, args, result))``
#: for every function the traced run wraps.
_TARGETS = (
    (FleetRouter, "route", "route",
     lambda args: _record_seq(args[1]), _calls("route.calls")),
    (ShardSupervisor, "dispatch", "dispatch",
     lambda args: _record_seq(args[2][0]) if args[2] else None,
     _count_dispatch),
    (ShardedCordialEngine, "finish", "finish", None, None),
    (engine_module, "merge_decisions", "merge", None, None),
    (engine_module, "merge_stats", "merge", None, None),
    (engine_module, "merge_metrics", "merge", None, None),
    (engine_module, "merge_service_states", "merge", None, None),
    (BMCCollector, "ingest", "collector",
     lambda args: _record_seq(args[1]), _count_collector),
    (BMCCollector, "flush", "collector", None, _count_collector),
    (FailurePatternClassifier, "predict_many", "classify",
     lambda args: _history_seq(args[1][0]) if len(args[1]) == 1 else None,
     _calls("classify.calls")),
    (BankPatternFeaturizer, "extract_many", "featurize.pattern", None, None),
    (CrossRowFeaturizer, "extract_blocks", "featurize.blocks",
     lambda args: _history_seq(args[1]), _calls("featurize.blocks.calls")),
    (CrossRowFeaturizer, "extract_from_aggregates", "featurize.agg", None,
     _calls("featurize.agg.calls")),
    (IncrementalFeatureState, "update", "featurize.fold",
     lambda args: _record_seq(args[1]), _calls("featurize.fold.calls")),
    (LGBMClassifier, "predict_proba", "predict", None, _count_predict),
    (LGBMClassifier, "fit", "grow", None, None),
    (IsolationReplay, "isolate_rows", "isolate", None, _count_isolate_rows),
    (IsolationReplay, "isolate_bank", "isolate", None,
     _calls("isolate.calls")),
    (pipeline_module, "collect_triggers", "evaluate.collect", None, None),
    (pipeline_module, "collect_snapshots", "evaluate.collect", None, None),
)


def _wrap(trace: LayerTrace, original, name: str, seq_of, count):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if original.__name__ == "isolate_rows":
            # ``rows`` may be any iterable; materialise it once so the
            # counter and the ledger see the same rows.
            args = args[:2] + (tuple(args[2]),) + args[3:]
        outer = trace.seq
        seq = seq_of(args) if seq_of is not None else None
        if seq is not None:
            trace.seq = seq
        try:
            with trace.span(name):
                result = original(*args, **kwargs)
        finally:
            trace.seq = outer
        if count is not None:
            count(trace.counts, args, result)
        return result
    return wrapper


@contextmanager
def traced(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Wrap every layer function so its calls record into ``trace``."""
    originals = []
    try:
        for owner, attribute, name, seq_of, count in _TARGETS:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute,
                    _wrap(trace, original, name, seq_of, count))
        yield trace
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


@contextmanager
def decision_clock(stamps: List[float]) -> Iterator[List[float]]:
    """Append ``perf_counter()`` after every isolation decision.

    The offline replay hands back its decisions in one call, so the
    benchmark reads the time each one took from the gaps between these
    stamps.  The wrappers only read the clock.
    """
    originals = []
    clock = time.perf_counter
    try:
        for attribute in ("isolate_rows", "isolate_bank"):
            original = IsolationReplay.__dict__[attribute]
            originals.append((attribute, original))

            def stamped(*args, __original=original, **kwargs):
                result = __original(*args, **kwargs)
                stamps.append(clock())
                return result
            setattr(IsolationReplay, attribute, stamped)
        yield stamps
    finally:
        for attribute, original in originals:
            setattr(IsolationReplay, attribute, original)
