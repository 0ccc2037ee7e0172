"""Equivalence guarantees of the hardened serving path.

Locks down the three acceptance properties of the online service:

(a) a stream shuffled within ``max_skew`` yields decisions identical to
    the sorted stream;
(b) checkpoint -> restart -> resume yields decisions and a final ICR
    byte-identical to an uninterrupted run;
(c) the serve-replay metrics report agrees with ``Cordial.evaluate`` on
    the same data.
"""

import json

import pytest

from repro.core.online import CordialService
from repro.core.persistence import (load_service_checkpoint,
                                    pipeline_to_document,
                                    save_service_checkpoint)
from repro.core.pipeline import Cordial
from repro.ml.persist import ModelPersistenceError
from repro.experiments import runner
from repro.experiments.serve import bounded_shuffle, build_report
from repro.hbm.address import DeviceAddress
from repro.telemetry.events import ErrorRecord, ErrorType
from tests.serve_helpers import serve_all


def rec(seq, t, row, error_type=ErrorType.UER):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=0,
                            row=row, column=0)
    return ErrorRecord(timestamp=t, sequence=seq, address=address,
                       error_type=error_type)


@pytest.fixture(scope="module")
def cordial(small_dataset, bank_split):
    train, _ = bank_split
    model = Cordial(model_name="LightGBM", random_state=0)
    model.fit(small_dataset, train)
    return model


@pytest.fixture(scope="module")
def test_stream(small_dataset, bank_split):
    _, test = bank_split
    test_set = set(test)
    return [r for r in small_dataset.store if r.bank_key in test_set]


@pytest.fixture(scope="module")
def truth(small_dataset, bank_split):
    _, test = bank_split
    return {bank: small_dataset.bank_truth[bank].uer_row_sequence
            for bank in test
            if small_dataset.bank_truth[bank].uer_row_sequence}


def decisions_json(decisions):
    return json.dumps([d.to_obj() for d in decisions], sort_keys=True)


class TestReorderEquivalence:
    def test_shuffled_stream_matches_sorted(self, cordial, test_stream,
                                            truth):
        """(a): bounded disorder is invisible to the decision stream."""
        max_skew = 3600.0  # one stream-hour of tolerated disorder
        baseline = CordialService(cordial)
        expect = serve_all(baseline, test_stream)

        shuffled = bounded_shuffle(test_stream, max_skew, seed=5)
        assert [r.sequence for r in shuffled] != \
               [r.sequence for r in test_stream]  # shuffle actually shuffled
        service = CordialService(cordial, max_skew=max_skew)
        got = serve_all(service, shuffled)

        assert decisions_json(got) == decisions_json(expect)
        assert service.collector.dead_letter_counts == {}
        assert service.stats.to_dict() == baseline.stats.to_dict()
        assert service.coverage(truth) == baseline.coverage(truth)

    def test_hopelessly_late_event_is_quarantined(self, cordial):
        service = CordialService(cordial, max_skew=10.0)
        service.ingest(rec(0, 1000.0, 1))
        assert service.ingest(rec(1, 1.0, 2)) == []  # far beyond the skew
        assert service.collector.dead_letter_counts == {"late": 1}
        # The service keeps serving after quarantining.
        service.ingest(rec(2, 1001.0, 3))
        service.flush()
        assert service.stats.events_ingested == 3

    def test_malformed_input_is_quarantined(self, cordial):
        service = CordialService(cordial)
        assert service.ingest(None) == []
        assert service.collector.dead_letter_counts == {"malformed": 1}


class TestCheckpointRestore:
    def test_resume_is_byte_identical(self, cordial, test_stream, truth,
                                      tmp_path):
        """(b): a restored service continues exactly where it left off."""
        baseline = CordialService(cordial, max_skew=120.0)
        expect = serve_all(baseline, test_stream)

        path = str(tmp_path / "service.ckpt.json")
        half = len(test_stream) // 2
        fresh = CordialService(cordial, max_skew=120.0)
        got = [d for record in test_stream[:half]
               for d in fresh.ingest(record)]
        save_service_checkpoint(fresh, path)
        restored = load_service_checkpoint(path)
        got += serve_all(restored, test_stream[half:])

        assert decisions_json(got) == decisions_json(expect)
        assert restored.replay.result(truth) == baseline.replay.result(truth)
        assert restored.stats.to_dict() == baseline.stats.to_dict()
        # Deterministic metrics agree too (histograms are wall-clock).
        assert restored.metrics.as_dict(include_histograms=False) == \
               baseline.metrics.as_dict(include_histograms=False)

    def test_checkpoint_preserves_full_state_dict(self, cordial, test_stream,
                                                  tmp_path):
        service = CordialService(cordial, max_skew=120.0)
        for record in test_stream[:len(test_stream) // 2]:
            service.ingest(record)
        path = str(tmp_path / "mid.ckpt.json")
        save_service_checkpoint(service, path)
        restored = load_service_checkpoint(path)
        assert restored.state_dict() == service.state_dict()

    def test_checkpoint_file_is_versioned_json(self, cordial, test_stream,
                                               tmp_path):
        service = CordialService(cordial)
        for record in test_stream[:50]:
            service.ingest(record)
        path = tmp_path / "ckpt.json"
        save_service_checkpoint(service, str(path))
        document = json.loads(path.read_text())
        assert document["format"] == "cordial-service-checkpoint"
        assert document["version"] == 3
        assert "pipeline" in document and "state" in document
        assert "feature_state" in document["state"]

    def test_version1_checkpoint_is_rejected(self, cordial, test_stream,
                                             tmp_path):
        """A v1 document carries no folded feature_state, which every
        re-prediction reads: it is refused as an unsupported version."""
        service = CordialService(cordial)
        for record in test_stream[:len(test_stream) // 2]:
            service.ingest(record)
        document = {
            "format": "cordial-service-checkpoint",
            "version": 1,
            "pipeline": pipeline_to_document(service.cordial),
            "state": {k: v for k, v in service.state_dict().items()
                      if k != "feature_state"},
        }
        path = tmp_path / "v1.ckpt.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ModelPersistenceError,
                           match="unsupported checkpoint version"):
            load_service_checkpoint(str(path))

    def test_identical_runs_write_identical_checkpoints(self, cordial,
                                                        test_stream,
                                                        tmp_path):
        """Checkpoints hold no wall-clock readings: two runs over the same
        stream write the same bytes."""
        contents = []
        for run in range(2):
            service = CordialService(cordial, max_skew=120.0)
            serve_all(service, test_stream)
            path = tmp_path / f"run{run}.ckpt.json"
            save_service_checkpoint(service, str(path))
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]


class TestServeReplayReport:
    def test_counts_match_batch_evaluate(self, cordial, small_dataset,
                                         bank_split, test_stream, truth):
        """(c): the streaming report agrees with ``Cordial.evaluate``."""
        _, test = bank_split
        service = CordialService(cordial,
                                 spares_per_bank=cordial.spares_per_bank)
        decisions = serve_all(service, test_stream)
        report = build_report(service, decisions, truth)

        batch = cordial.evaluate(small_dataset, test)
        summary = report["summary"]
        assert summary["triggers_fired"] == batch.n_test_triggers
        assert summary["row_spare_triggers"] == batch.n_crossrow_banks
        assert summary["bank_spares"] == (batch.n_test_triggers
                                          - batch.n_crossrow_banks)
        assert summary["icr"] == pytest.approx(batch.icr.icr, abs=0.02)
        assert summary["events_ingested"] == len(test_stream)
        assert summary["events_dead_lettered"] == {}
        # The report is JSON-serialisable as-is.
        json.dumps(report, sort_keys=True)

    def test_cli_smoke(self, tmp_path):
        output = tmp_path / "serve_metrics.json"
        checkpoint = tmp_path / "service.ckpt"
        code = runner.main([
            "serve-replay", "--scale", "0.08", "--seed", "11",
            "--max-skew", "600", "--shuffle",
            "--checkpoint", str(checkpoint),
            "--output", str(output),
        ])
        assert code == 0
        report = json.loads(output.read_text())
        summary = report["summary"]
        assert summary["events_ingested"] > 0
        assert summary["triggers_fired"] > 0
        assert summary["decisions_total"] >= summary["triggers_fired"]
        assert 0.0 <= summary["icr"] <= 1.0
        assert report["config"]["checkpointed_at"] > 0
        assert (checkpoint / "manifest.json").exists()
        assert "collector.events_ingested" in report["metrics"]["counters"]
