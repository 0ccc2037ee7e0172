"""Smoke test of the benchmark: every workload at a tiny scale.

Runs ``perfbench/run.py`` as a separate process, the way
``BENCHMARK.json``'s command does, and checks that

* every metric ``BENCHMARK.json`` names is printed, with its unit, in
  the untraced (end-to-end) and the traced (per-layer) run;
* the traced run writes its Chrome trace and self-time table;
* the output check fails, with no result printed, when the served input
  is perturbed, and names an output value, not only a count.

Run it from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.4", "--seconds", "0.1"]
#: The check value a perturbed run must get wrong.  ce-background keeps
#: its event count when perturbed, so only the state hash can catch it.
PERTURBED_VALUE = {"uer-dense": "decisions_digest",
                   "ce-background": "state_sha256",
                   "offline-eval": "pattern_weighted_f1"}


def bench(tmp_path, workload, *extra):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--out", str(tmp_path), *TINY, *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = result["metrics"]
    assert set(printed) == {spec["name"] for spec in specs}
    for spec in specs:
        entry = printed[spec["name"]]
        assert entry["unit"] == spec["unit"], spec["name"]
        assert isinstance(entry["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(tmp_path, workload):
    result = result_of(bench(tmp_path, workload, "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace(tmp_path, workload):
    result = result_of(bench(tmp_path, workload, "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    trace = json.loads((tmp_path / workload / "trace.json").read_text())
    assert trace["traceEvents"]
    table = json.loads((tmp_path / workload / "self_time.json").read_text())
    assert set(table) == {"setup", "pass"}
    if workload == "ce-background":
        assert metrics["predict.calls"] == 0
        assert metrics["dispatch.records"] == metrics["parse.records"]
    else:
        assert metrics["predict.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_input_fails_the_check(tmp_path, workload):
    done = bench(tmp_path, workload, "--trace", "0", "--perturb")
    assert done.returncode == 1
    assert "output check failed" in done.stderr
    assert f"{PERTURBED_VALUE[workload]} is " in done.stderr, done.stderr
    if workload == "ce-background":
        assert "events is " not in done.stderr, done.stderr
    assert '"correct"' not in done.stdout


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
