"""End-to-end tests of the operator workflow over MCE log files
(generate -> train -> serve-replay --pipeline --log -> evaluate ->
analyze), all through real files and the ``cordial-repro`` entry point."""

import json

import pytest

from repro.experiments.runner import main
from tests.serve_helpers import serve_all


@pytest.fixture(scope="module")
def fleet_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fleet.mce"
    assert main(["generate", "--scale", "0.08", "--seed", "11",
                 "--output", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def pipeline_file(fleet_log, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pipeline.json"
    assert main(["train", "--log", str(fleet_log), "--output", str(path),
                 "--model", "LightGBM"]) == 0
    return path


class TestGenerate:
    def test_writes_parseable_log(self, fleet_log):
        from repro.telemetry.mcelog import read_mce_log
        records = read_mce_log(fleet_log)
        assert len(records) > 1000

    def test_output_deterministic(self, tmp_path):
        a = tmp_path / "a.mce"
        b = tmp_path / "b.mce"
        main(["generate", "--scale", "0.03", "--seed", "3",
              "--output", str(a)])
        main(["generate", "--scale", "0.03", "--seed", "3",
              "--output", str(b)])
        assert a.read_text() == b.read_text()


class TestTrain:
    def test_pipeline_file_valid(self, pipeline_file):
        document = json.loads(pipeline_file.read_text())
        assert document["format"] == "cordial-pipeline"
        assert document["config"]["model_name"] == "LightGBM"

    def test_too_small_log_fails_cleanly(self, tmp_path, capsys):
        log = tmp_path / "tiny.mce"
        main(["generate", "--scale", "0.005", "--seed", "1",
              "--output", str(log)])
        code = main(["train", "--log", str(log),
                     "--output", str(tmp_path / "p.json")])
        if code != 0:
            assert "error" in capsys.readouterr().err

    def test_pipeline_file_deterministic(self, fleet_log, pipeline_file,
                                         tmp_path):
        again = tmp_path / "again.json"
        assert main(["train", "--log", str(fleet_log), "--output",
                     str(again), "--model", "LightGBM"]) == 0
        assert again.read_bytes() == pipeline_file.read_bytes()


class TestServeLog:
    def test_decisions_match_a_plain_service(self, fleet_log, pipeline_file,
                                             tmp_path):
        from repro.core.online import CordialService
        from repro.core.persistence import load_cordial
        from repro.telemetry.mcelog import read_mce_log

        output = tmp_path / "serve.json"
        assert main(["serve-replay", "--pipeline", str(pipeline_file),
                     "--log", str(fleet_log), "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["config"]["pipeline"] == str(pipeline_file)
        assert report["config"]["log"] == str(fleet_log)
        assert "scale" not in report["config"]

        service = CordialService(load_cordial(pipeline_file))
        expected = serve_all(service, read_mce_log(fleet_log))
        assert report["decisions"] == [d.to_obj() for d in expected]
        assert report["summary"]["triggers_fired"] == sum(
            1 for d in expected if not d.is_reprediction)
        assert expected


class TestEvaluate:
    def test_writes_report(self, fleet_log, tmp_path, capsys):
        report = tmp_path / "report.md"
        code = main(["evaluate", "--log", str(fleet_log), "--model",
                     "LightGBM", "--output", str(report)])
        assert code == 0
        text = report.read_text()
        assert "Failure-pattern classification" in text
        assert "vs Neighbor-Rows baseline" in text
        out = capsys.readouterr().out
        assert "ICR" in out


class TestAnalyze:
    def test_prints_study_tables(self, fleet_log, capsys):
        assert main(["analyze", "--log", str(fleet_log)]) == 0
        out = capsys.readouterr().out
        assert "Predictable Ratio" in out
        assert "With UEO" in out
        assert "Chi-Squared" in out
