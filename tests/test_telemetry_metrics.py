"""Tests for the dependency-free metrics registry."""

import json

import pytest

from repro.telemetry.metrics import (EXPORT_VERSION, Counter, Gauge,
                                    Histogram, MetricsRegistry)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_tracks_high_water_mark(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 5.0
        gauge.inc(-1.0)
        assert gauge.value == 1.0
        gauge.inc(10.0)
        assert gauge.max_value == 11.0


class TestHistogram:
    def test_bucketing_and_mean(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]  # <=1, <=10, overflow
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_cumulative_counts_are_prefix_sums(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]
        assert histogram.cumulative_counts() == [2, 3, 4]
        # The +inf entry always equals the total count.
        assert histogram.cumulative_counts()[-1] == histogram.count

    def test_cumulative_counts_empty(self):
        assert Histogram(buckets=(1.0,)).cumulative_counts() == [0, 0]


class TestMetricsRegistry:
    def test_get_or_create_shares_series(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc()
        assert registry.counter_value("events") == 2.0
        assert registry.counter_value("never_touched") == 0.0

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("dead_letters", labels={"reason": "late"}).inc()
        registry.counter("dead_letters",
                         labels={"reason": "malformed"}).inc(3)
        assert registry.counter_value("dead_letters",
                                      labels={"reason": "late"}) == 1.0
        assert registry.counter_value("dead_letters",
                                      labels={"reason": "malformed"}) == 3.0
        # Label order never matters: keys are sorted into the series name.
        document = registry.as_dict()
        assert "dead_letters{reason=late}" in document["counters"]

    def test_as_dict_is_deterministic_json(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b").inc(2)
            registry.counter("a").inc(1)
            registry.gauge("depth").set(7)
            return registry

        a = json.dumps(build().as_dict(), sort_keys=True)
        b = json.dumps(build().as_dict(), sort_keys=True)
        assert a == b

    def test_exclude_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(0.25)
        assert "histograms" not in registry.as_dict(include_histograms=False)

    def test_restore_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(5)
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(1)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        document = json.loads(json.dumps(registry.as_dict()))

        restored = MetricsRegistry().restore(document)
        assert restored.as_dict() == registry.as_dict()
        # Restored metrics keep accumulating.
        restored.counter("events").inc()
        assert restored.counter_value("events") == 6.0
        assert restored.gauge("depth").max_value == 3

    def test_export_is_versioned_with_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        document = registry.as_dict()
        assert document["version"] == EXPORT_VERSION == 2
        exported = document["histograms"]["lat"]
        assert exported["counts"] == [1, 1, 0]
        assert exported["cumulative"] == [1, 2, 2]

    def test_version1_document_restores(self):
        # A pre-version export: no "version", no "cumulative".
        document = {
            "counters": {"events": 5.0},
            "gauges": {"depth": {"value": 1.0, "max": 3.0}},
            "histograms": {"lat": {"buckets": [1.0], "counts": [2, 1],
                                   "sum": 3.5, "count": 3}},
        }
        restored = MetricsRegistry().restore(document)
        assert restored.counter_value("events") == 5.0
        exported = restored.as_dict()
        assert exported["version"] == 2
        assert exported["histograms"]["lat"]["cumulative"] == [2, 3]

    def test_restore_replaces_in_place_keeping_references(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(2)
        same = registry.restore(registry.as_dict())
        assert same is registry
        assert registry.counter_value("events") == 2.0
