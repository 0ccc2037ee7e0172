"""A small dependency-free metrics registry for the serving path.

Production memory-failure predictors are judged as much by their
operational behaviour as by their model scores: how many events were
quarantined, how deep the reorder buffer runs, how close the sparing
budget is to exhaustion.  This module provides the three classic metric
kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — behind a
:class:`MetricsRegistry` that the collector, the online service and the
isolation ledger all share.

Design constraints, in order:

* **no dependencies** — plain dataclasses, no prometheus client;
* **deterministic export** — :meth:`MetricsRegistry.as_dict` sorts every
  key, so two runs that did the same work produce byte-identical JSON
  (modulo wall-clock histograms, which callers can exclude);
* **checkpointable** — the full registry state round-trips through
  :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.restore`, so a
  restarted service resumes its counters instead of zeroing them.

Labels are supported as ``metric(name, labels={...})``: each distinct
label set is its own child series under the family name, exported as
``name{key=value,...}``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 10 us .. 1 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                           1e-2, 3e-2, 1e-1, 3e-1, 1.0)

#: Export-document version: 2 adds per-histogram cumulative (``le``)
#: bucket counts.  Version-1 documents (no ``version`` key) restore
#: unchanged.
EXPORT_VERSION = 2


def _series_key(name: str, labels: Optional[Mapping[str, str]]) -> str:
    """Canonical series name: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down; tracks its high-water mark."""

    __slots__ = ("value", "max_value")

    def __init__(self, value: float = 0.0, max_value: float = 0.0) -> None:
        self.value = value
        self.max_value = max_value

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value by ``amount`` (may be negative)."""
        self.set(self.value + amount)


class Histogram:
    """Fixed-bucket histogram with cumulative-style export.

    ``buckets`` are upper bounds; an implicit +inf bucket catches the
    rest.  ``counts[i]`` is the number of observations <= ``buckets[i]``
    (non-cumulative per-bucket storage; export keeps it that way for
    simplicity).
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative (``le``) counts per bucket.

        ``cumulative_counts()[i]`` is the number of observations <=
        ``buckets[i]``; the final entry (the implicit +inf bucket)
        always equals :attr:`count`.
        """
        cumulative: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            cumulative.append(running)
        return cumulative


class MetricsRegistry:
    """Named metrics, created on first use and shared by name.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    the same (name, labels) twice returns the same object, so components
    can be wired together just by sharing the registry.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------
    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """The counter series for (name, labels)."""
        key = _series_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """The gauge series for (name, labels)."""
        key = _series_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        """The histogram series for (name, labels)."""
        key = _series_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        return metric

    # -- export / restore ----------------------------------------------------
    def as_dict(self, include_histograms: bool = True) -> dict:
        """Full registry state with sorted keys (JSON-ready).

        The document carries ``"version": EXPORT_VERSION`` so consumers
        can tell the formats apart: version 2 adds Prometheus-style
        cumulative (``le``) bucket counts to every histogram, so the
        exporter (:mod:`repro.obs.promexport`) reads them instead of
        re-deriving.  :meth:`restore` accepts both versions — the
        cumulative counts are redundant with ``counts`` and are
        recomputed on export, so old checkpoints stay loadable.

        Args:
            include_histograms: drop histogram series (typically
                wall-clock latency, the one nondeterministic part) when
                False.
        """
        document = {
            "version": EXPORT_VERSION,
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: {"value": g.value, "max": g.max_value}
                       for k, g in sorted(self._gauges.items())},
        }
        if include_histograms:
            document["histograms"] = {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "cumulative": h.cumulative_counts(),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            }
        return document

    def restore(self, document: Mapping) -> "MetricsRegistry":
        """Load state exported by :meth:`as_dict` (replaces current state).

        Atomic: the whole document is parsed before any of it is
        installed, so a malformed document raises and leaves the
        registry untouched (restores must never half-apply — see the
        transactional contract of ``CordialService.load_state_dict``).
        """
        counters = {k: Counter(v)
                    for k, v in document.get("counters", {}).items()}
        gauges = {k: Gauge(v["value"], v["max"])
                  for k, v in document.get("gauges", {}).items()}
        histograms = {}
        for key, state in document.get("histograms", {}).items():
            histogram = Histogram(state["buckets"])
            histogram.counts = list(state["counts"])
            histogram.sum = float(state["sum"])
            histogram.count = int(state["count"])
            histograms[key] = histogram
        self._counters = counters
        self._gauges = gauges
        self._histograms = histograms
        return self

    def counter_value(self, name: str,
                      labels: Optional[Mapping[str, str]] = None) -> float:
        """Current value of a counter series (0.0 when never touched)."""
        metric = self._counters.get(_series_key(name, labels))
        return metric.value if metric is not None else 0.0
