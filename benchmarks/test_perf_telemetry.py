"""Microbenchmarks — telemetry hot paths.

Unlike the experiment benches (one-shot regenerations), these measure
steady-state throughput with repeated rounds: MCE parsing, store
indexing and collector ingestion. Useful to size a deployment (a fleet
BMC aggregator sees ~10-100 events/s; these paths run orders of
magnitude faster).
"""

import io

import pytest

from repro.telemetry.collector import BMCCollector
from repro.telemetry.mcelog import read_mce_log, write_mce_log
from repro.telemetry.store import ErrorStore


@pytest.fixture(scope="module")
def records(context):
    return list(context.dataset.store)[:20_000]


def test_perf_store_indexing(benchmark, records):
    result = benchmark.pedantic(lambda: ErrorStore(records),
                                rounds=3, iterations=1)
    assert len(result) == len(records)


def test_perf_mce_roundtrip(benchmark, records):
    subset = records[:5_000]

    def roundtrip():
        buffer = io.StringIO()
        write_mce_log(subset, buffer)
        buffer.seek(0)
        return read_mce_log(buffer)

    loaded = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert len(loaded) == len(subset)


def test_perf_collector_ingestion(benchmark, records):
    def ingest_all():
        collector = BMCCollector()
        triggers = 0
        for record in records:
            for _, trigger in collector.ingest(record):
                if trigger is not None:
                    triggers += 1
        return triggers

    triggers = benchmark.pedantic(ingest_all, rounds=3, iterations=1)
    assert triggers > 0

