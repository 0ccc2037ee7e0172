"""Deterministic span tracing for the serving and experiment stack.

Operators debugging a fleet incident ask *where the time went*: how long
did the hot ingest path take, which trigger burned the budget, did the
checkpoint stall the stream?  :class:`SpanTracer` answers with nested
spans behind a dependency-free API, under two hard constraints:

* **determinism on demand** — the clock is injectable.  With
  ``REPRO_FAKE_CLOCK`` set (or an explicit :class:`FakeClock`), every
  clock read returns a counter instead of wall time, so two identical
  runs produce *byte-identical* traces — the property
  ``tests/test_observability.py`` pins.  Without it the tracer reads
  ``time.perf_counter`` like any profiler.
* **bounded memory** — spans land in a ring buffer (``max_spans``);
  overflow drops the oldest spans and counts the loss instead of growing
  without bound over a week-long stream.

Exports: Chrome ``trace_event`` JSON (load it in ``chrome://tracing`` /
Perfetto) and span-duration histograms folded into the shared
:class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry

#: Environment variable that switches every default-constructed tracer to
#: the deterministic fake clock.  Its value is the per-read increment in
#: seconds ("1" accepts the bare flag too).
FAKE_CLOCK_ENV = "REPRO_FAKE_CLOCK"


class FakeClock:
    """A clock that advances a fixed step per read — determinism by fiat.

    Span durations become "number of clock reads inside the span" times
    ``step``, which is a stable property of the code path, not of the
    machine.  ``start`` offsets the first reading.
    """

    def __init__(self, step: float = 1e-6, start: float = 0.0) -> None:
        if step <= 0:
            raise ValueError("step must be > 0")
        self.step = float(step)
        self._now = float(start)

    def __call__(self) -> float:
        self._now += self.step
        return self._now


def resolve_clock(clock: Optional[Callable[[], float]] = None
                  ) -> Callable[[], float]:
    """The effective trace clock: explicit > ``REPRO_FAKE_CLOCK`` > wall.

    Passing a callable wins outright.  Otherwise, a set (non-empty)
    ``REPRO_FAKE_CLOCK`` yields a :class:`FakeClock` whose step is the
    variable's float value (non-numeric values mean the default step),
    and an unset variable yields ``time.perf_counter``.
    """
    if clock is not None:
        return clock
    raw = os.environ.get(FAKE_CLOCK_ENV, "")
    if raw:
        try:
            step = float(raw)
        except ValueError:
            step = 1e-6
        return FakeClock(step=step if step > 0 else 1e-6)
    return time.perf_counter


class Span:
    """One finished span: name, interval, nesting depth, and attributes."""

    __slots__ = ("name", "start", "end", "depth", "attrs")

    def __init__(self, name: str, start: float, end: float, depth: int,
                 attrs: Optional[Mapping] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.depth = depth
        self.attrs = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        """Elapsed clock seconds inside the span."""
        return self.end - self.start

    def to_obj(self) -> dict:
        """JSON-ready rendering (deterministic key layout)."""
        return {"name": self.name, "start": self.start, "end": self.end,
                "depth": self.depth, "attrs": self.attrs}


class SpanTracer:
    """Nested span recorder with bounded memory and a pluggable clock.

    Args:
        clock: trace clock (see :func:`resolve_clock` for the default).
        max_spans: ring-buffer capacity; the oldest spans are dropped
            (and counted in :attr:`spans_dropped`) beyond it.
        metrics: optional shared registry; when given, every finished
            span observes its duration into the histogram series
            ``trace.span_seconds{span=<name>}``.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_spans: int = 65_536,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.clock = resolve_clock(clock)
        self.max_spans = max_spans
        self.metrics = metrics
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._depth = 0
        self.spans_started = 0
        self.spans_dropped = 0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Record one span around the ``with`` body (exception-safe)."""
        self.spans_started += 1
        depth = self._depth
        self._depth += 1
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._depth = depth
            if len(self._spans) == self.max_spans:
                self.spans_dropped += 1
            self._spans.append(Span(name, start, end, depth, attrs))
            if self.metrics is not None:
                self.metrics.histogram(
                    "trace.span_seconds",
                    labels={"span": name}).observe(end - start)

    # -- queries / export ----------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """The retained spans, oldest first."""
        return list(self._spans)

    def summary(self) -> dict:
        """Per-name count and total duration (JSON-ready, sorted)."""
        by_name: Dict[str, List[float]] = {}
        for span in self._spans:
            entry = by_name.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            if span.duration > entry[2]:
                entry[2] = span.duration
        return {
            "spans_started": self.spans_started,
            "spans_retained": len(self._spans),
            "spans_dropped": self.spans_dropped,
            "by_name": {
                name: {"count": entry[0],
                       "total_seconds": entry[1],
                       "max_seconds": entry[2]}
                for name, entry in sorted(by_name.items())},
        }

    def export_chrome(self, pid: int = 0, tid: int = 0) -> List[dict]:
        """The retained spans as Chrome ``trace_event`` complete events.

        Timestamps are microseconds relative to the earliest retained
        span, so a trace is a pure function of the clock readings — under
        a fake clock, byte-identical across reruns.
        """
        if not self._spans:
            return []
        origin = min(span.start for span in self._spans)
        events = []
        for span in self._spans:
            event = {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
            }
            if span.attrs:
                event["args"] = dict(span.attrs)
            events.append(event)
        return events
