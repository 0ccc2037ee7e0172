"""Unit contracts of the observability layer (``repro.obs``).

Four pillars, four test groups:

* the span tracer is *byte-deterministic* under a fake clock and
  memory-bounded under a real one;
* the run journal carries a provenance header that round-trips, and its
  sampled markers never lose the exact counts;
* the audit trail answers "why was this row spared" and survives its
  own JSONL and state-dict round-trips;
* the Prometheus exposition is format-correct down to label escaping
  and non-finite values;

and the CLI round trip: ``serve-replay --obs`` prints the directories
holding its final artifacts, and ``obs-report`` reads them.
"""

import json
import math

import pytest

from repro.experiments import runner
from repro.obs import (AUDIT_FILE, JOURNAL_FILE, SUMMARY_FILE, TRACE_FILE,
                       AuditLog, FakeClock, Observability, RunJournal,
                       SpanTracer, build_provenance, read_journal,
                       render_prometheus, resolve_clock, snapshot_delta)
from repro.obs.promexport import (escape_label_value, format_value,
                                  parse_series_key, sanitize_name)
from repro.obs.tracer import FAKE_CLOCK_ENV
from repro.telemetry.metrics import MetricsRegistry


class TestFakeClock:
    def test_advances_fixed_step_per_read(self):
        clock = FakeClock(step=0.5, start=10.0)
        assert clock() == 10.5
        assert clock() == 11.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            FakeClock(step=0.0)

    def test_resolve_prefers_explicit_clock(self, monkeypatch):
        monkeypatch.setenv(FAKE_CLOCK_ENV, "1")
        explicit = FakeClock()
        assert resolve_clock(explicit) is explicit

    def test_resolve_env_sets_step(self, monkeypatch):
        monkeypatch.setenv(FAKE_CLOCK_ENV, "0.25")
        clock = resolve_clock(None)
        assert isinstance(clock, FakeClock)
        assert clock.step == 0.25

    def test_resolve_unset_is_wall_clock(self, monkeypatch):
        import time

        monkeypatch.delenv(FAKE_CLOCK_ENV, raising=False)
        assert resolve_clock(None) is time.perf_counter


class TestSpanTracer:
    def _run_workload(self, tracer):
        with tracer.span("outer", bank=3):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass

    def test_fake_clock_traces_are_byte_identical(self):
        exports = []
        for _ in range(2):
            tracer = SpanTracer(clock=FakeClock())
            self._run_workload(tracer)
            exports.append(json.dumps(tracer.export_chrome(),
                                      sort_keys=True))
        assert exports[0] == exports[1]

    def test_nesting_depth_recorded(self):
        tracer = SpanTracer(clock=FakeClock())
        self._run_workload(tracer)
        by_name = {(s.name, s.depth) for s in tracer.spans}
        assert by_name == {("outer", 0), ("inner", 1)}

    def test_exception_still_closes_span(self):
        tracer = SpanTracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.spans] == ["boom"]
        # Depth is restored: the next span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0

    def test_ring_buffer_bounds_memory_and_counts_drops(self):
        tracer = SpanTracer(clock=FakeClock(), max_spans=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 4
        assert tracer.spans_started == 10
        assert tracer.spans_dropped == 6
        assert [s.name for s in tracer.spans] == ["s6", "s7", "s8", "s9"]

    def test_durations_flow_into_metrics(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(clock=FakeClock(), metrics=registry)
        self._run_workload(tracer)
        inner = registry.histogram("trace.span_seconds",
                                   labels={"span": "inner"})
        assert inner.count == 2

    def test_chrome_export_is_relative_to_earliest_span(self):
        tracer = SpanTracer(clock=FakeClock(step=1.0, start=100.0))
        self._run_workload(tracer)
        events = tracer.export_chrome()
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["ph"] == "X" for e in events)
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"] == {"bank": 3}


class TestRunJournal:
    def test_provenance_header_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        provenance = build_provenance(seeds={"generator": 42},
                                      config={"scale": 0.1, "model": "LGB"})
        journal = RunJournal(path=path, clock=FakeClock(),
                             provenance=provenance)
        journal.trigger((0, 1), 5.0, "pitch-walking", (7, 8, 9))
        journal.close()
        header, events = read_journal(path)
        assert header["format"] == "cordial-run-journal"
        assert header["provenance"] == provenance
        assert header["provenance"]["seeds"] == {"generator": 42}
        assert len(header["provenance"]["config_digest"]) == 64
        assert [e["type"] for e in events] == ["trigger"]
        assert events[0]["uer_rows"] == [7, 8, 9]

    def test_config_digest_tracks_config(self):
        a = build_provenance(config={"scale": 0.1})
        b = build_provenance(config={"scale": 0.1})
        c = build_provenance(config={"scale": 0.2})
        assert a["config_digest"] == b["config_digest"]
        assert a["config_digest"] != c["config_digest"]

    def test_fake_clock_journal_is_byte_identical(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            journal = RunJournal(path=path, clock=FakeClock(),
                                 provenance={"git_sha": None},
                                 sample_every=2)
            for index in range(6):
                journal.ingest(float(index), index, pending=0)
            journal.quarantine("late", "displaced", timestamp=3.0)
            journal.close()
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_sampling_thins_markers_but_counts_stay_exact(self):
        journal = RunJournal(clock=FakeClock(), sample_every=100)
        for index in range(250):
            journal.ingest(float(index), index, pending=0)
            journal.release(float(index), index)
        summary = journal.summary()
        assert summary["ingests_seen"] == 250
        assert summary["releases_seen"] == 250
        assert summary["counts_by_type"] == {"ingest": 2, "release": 2}

    def test_sample_every_zero_disables_markers(self):
        journal = RunJournal(clock=FakeClock(), sample_every=0)
        journal.ingest(1.0, 0, pending=0)
        assert journal.summary()["counts_by_type"] == {}
        assert journal.summary()["ingests_seen"] == 1

    def test_quarantine_always_journalled(self):
        journal = RunJournal(clock=FakeClock(), sample_every=1000)
        for _ in range(3):
            journal.quarantine("malformed", "negative row")
        assert journal.summary()["counts_by_type"] == {"quarantine": 3}

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a run journal"):
            read_journal(path)
        (tmp_path / "empty.jsonl").write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_journal(tmp_path / "empty.jsonl")

    def test_in_memory_journal_needs_no_file(self):
        journal = RunJournal(clock=FakeClock())
        journal.checkpoint("save", at_event=10)
        assert journal.events[0]["kind"] == "save"
        journal.close()  # idempotent, no file behind it


class TestAuditLog:
    def _record(self, log, bank=(0, 1), rows=(5, 6), kind="trigger"):
        import numpy as np

        return log.record_decision(
            kind=kind, timestamp=1.0, bank_key=bank, action="row-spare",
            pattern="pitch-walking", threshold=0.5,
            probabilities=np.array([0.9, 0.1]),
            flagged=np.array([True, False]),
            block_ranges=((5, 7), (7, 9)),
            features=np.array([[1.0, 2.0], [3.0, 4.0]]),
            rows_requested=rows, newly_spared=len(rows),
            budget_before=64, budget_after=64 - len(rows))

    def test_explain_finds_row_and_bank_decisions(self):
        log = AuditLog(feature_names=("f0", "f1"))
        self._record(log, rows=(5, 6))
        log.record_decision(kind="trigger", timestamp=2.0, bank_key=(0, 1),
                            action="bank-spare", pattern="scattered")
        by_row = log.explain((0, 1), 5)
        assert [r["kind"] for r in by_row] == ["trigger", "trigger"]
        assert [r["action"] for r in by_row] == ["row-spare", "bank-spare"]
        assert log.explain((0, 1), 999) == [
            log.records[1]]  # bank-spare covers every row
        assert log.explain((9, 9), 5) == []

    def test_records_are_json_ready(self):
        log = AuditLog()
        record = self._record(log)
        reloaded = json.loads(json.dumps(record))
        assert reloaded["flagged_blocks"] == [0]
        assert reloaded["probabilities"] == [0.9, 0.1]
        assert reloaded["features"] == [[1.0, 2.0], [3.0, 4.0]]

    def test_state_dict_round_trip_preserves_queries(self):
        log = AuditLog(feature_names=("f0", "f1"))
        self._record(log)
        restored = AuditLog().load_state_dict(
            json.loads(json.dumps(log.state_dict())))
        assert restored.records == log.records
        assert ([r["index"] for r in restored.explain((0, 1), 5)]
                == [r["index"] for r in log.explain((0, 1), 5)])

    def test_jsonl_round_trip(self, tmp_path):
        log = AuditLog(feature_names=("f0", "f1"))
        self._record(log)
        self._record(log, bank=(2, 3), rows=(8,), kind="reprediction")
        path = tmp_path / "audit.jsonl"
        assert log.write_jsonl(path) == 2
        back = AuditLog.read_jsonl(path)
        assert back.feature_names == ["f0", "f1"]
        assert back.records == log.records

    def test_summary_counts(self):
        log = AuditLog()
        self._record(log)
        self._record(log, kind="reprediction")
        assert log.summary() == {
            "records": 2,
            "by_kind": {"reprediction": 1, "trigger": 1},
            "by_action": {"row-spare": 2}}


class TestPrometheusFormat:
    def test_name_sanitization(self):
        assert sanitize_name("service.ingest_seconds") == \
            "service_ingest_seconds"
        assert sanitize_name("9lives") == "_9lives"
        assert sanitize_name("a-b c") == "a_b_c"

    def test_label_value_escaping(self):
        assert escape_label_value('say "hi"\n\\end') == \
            'say \\"hi\\"\\n\\\\end'

    def test_nonfinite_values(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"

    def test_series_key_parsing(self):
        assert parse_series_key("plain") == ("plain", {})
        assert parse_series_key("d{reason=late,zone=a}") == \
            ("d", {"reason": "late", "zone": "a"})

    def test_full_render(self):
        registry = MetricsRegistry()
        registry.counter("collector.events_released").inc(7)
        registry.counter("collector.dead_letters",
                         labels={"reason": "late"}).inc(2)
        registry.gauge("collector.pending").set(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE cordial_collector_events_released counter" in lines
        assert "cordial_collector_events_released 7" in lines
        assert 'cordial_collector_dead_letters{reason="late"} 2' in lines
        assert "# TYPE cordial_collector_pending gauge" in lines
        assert "cordial_collector_pending_max 3" in lines
        assert 'cordial_lat_bucket{le="0.1"} 1' in lines
        assert 'cordial_lat_bucket{le="1"} 2' in lines
        assert 'cordial_lat_bucket{le="+Inf"} 2' in lines
        assert "cordial_lat_count 2" in lines
        assert text.endswith("\n")

    def test_gauge_with_nonfinite_value_renders(self):
        registry = MetricsRegistry()
        registry.gauge("weird").set(float("nan"))
        text = render_prometheus(registry)
        assert "cordial_weird NaN" in text

    def test_version1_document_derives_cumulative(self):
        document = {"counters": {}, "gauges": {},
                    "histograms": {"lat": {"buckets": [1.0],
                                           "counts": [2, 1],
                                           "sum": 3.5, "count": 3}}}
        text = render_prometheus(document)
        assert 'cordial_lat_bucket{le="1"} 2' in text
        assert 'cordial_lat_bucket{le="+Inf"} 3' in text

    def test_snapshot_delta_attributes_movement(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("quiet").inc()
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        before = registry.as_dict()
        registry.counter("a").inc(3)
        registry.gauge("depth").set(9)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        delta = snapshot_delta(before, registry.as_dict())
        assert delta["counters"] == {"a": 3.0}
        assert "quiet" not in delta["counters"]
        assert delta["gauges"]["depth"]["value"] == 9
        assert delta["histograms"]["lat"]["count"] == 1


class TestObservabilityBundle:
    def test_create_and_export_writes_every_artifact(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("events").inc(4)
        obs = Observability.create(tmp_path / "obs",
                                   provenance={"git_sha": None},
                                   clock=FakeClock())
        with obs.tracer.span("work"):
            obs.journal.trigger((0,), 1.0, "scattered", (1, 2, 3))
        paths = obs.export(tmp_path / "obs", metrics=registry)
        for name in (TRACE_FILE, JOURNAL_FILE, AUDIT_FILE, SUMMARY_FILE,
                     "metrics.json", "metrics.prom"):
            assert (tmp_path / "obs" / name).exists(), name
        assert set(paths) == {"trace", "journal", "audit", "summary",
                              "metrics", "prom"}
        summary = json.loads((tmp_path / "obs" / SUMMARY_FILE).read_text())
        assert summary["journal"]["counts_by_type"] == {"trigger": 1}
        assert summary["trace"]["by_name"]["work"]["count"] == 1

    def test_state_dict_is_audit_only(self):
        obs = Observability(tracer=SpanTracer(clock=FakeClock()))
        with obs.tracer.span("not-checkpointed"):
            pass
        obs.journal.checkpoint("save", at_event=1)
        assert set(obs.state_dict()) == {"audit"}

    def test_journal_shares_tracer_clock_by_default(self):
        obs = Observability(tracer=SpanTracer(clock=FakeClock()))
        assert obs.journal.clock is obs.tracer.clock


class TestCLI:
    def test_obs_report_reads_what_serve_replay_printed(self, tmp_path,
                                                        capsys):
        obs_dir = tmp_path / "obs_run"
        output = tmp_path / "serve_metrics.json"
        assert runner.main([
            "serve-replay", "--scale", "0.05", "--seed", "3",
            "--checkpoint", str(tmp_path / "service.ckpt"),
            "--obs", str(obs_dir), "--output", str(output)]) == 0
        prefix = "observability artifacts written to "
        printed = [line[len(prefix):]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith(prefix)]
        # The restart moved the final artifacts into the next epoch.
        assert printed == [str(obs_dir / "epoch-01" / "shard-00")]

        assert runner.main(["obs-report", printed[0], "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        report = json.loads(output.read_text())
        assert summary["audit"]["records"] == \
            report["summary"]["decisions_total"]
