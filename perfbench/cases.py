"""Set-up, timed passes and output checks of the benchmark workloads.

Set-up, repeated :data:`SETUPS` times per run and timed as ``setup_s``:

1. generate a training fleet from a fixed seed and fit one LightGBM
   :class:`~repro.core.pipeline.Cordial` pipeline on all its UER banks;
2. generate a serving pool from the workload seed and draw the served
   banks from it (see :func:`draw_banks`);
3. render the served events, in arrival order, to MCE-log text in
   memory, so that parsing happens inside the timed window;
4. for the fleet workload, build the engine and wait until every worker
   holds the pipeline.

A *pass* replays the drawn input once through the program's public entry
points and is timed on its own; a run makes passes until ``--seconds``
have gone by.  Every pass's output is checked against a twin computed by
a different configuration of the same public calls (see :func:`twin`)
and, for seeds recorded in ``reference.json``, against the values this
benchmark recorded.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import multiprocessing
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from layers import LayerTrace, decision_clock, traced
from repro.core.online import CordialService
from repro.core.persistence import (pipeline_from_document,
                                    pipeline_to_document,
                                    save_service_checkpoint)
from repro.core.pipeline import Cordial
from repro.datasets import FleetDataset, FleetGenConfig, generate_fleet_dataset
from repro.serving import ShardedCordialEngine, SupervisorConfig
from repro.telemetry.events import ErrorRecord, ErrorType
from repro.telemetry.mcelog import iter_mce_log, write_mce_log
from repro.telemetry.store import ErrorStore

#: The serve-replay default model family.
MODEL = "LightGBM"
TRAIN_SEED = 1
TRAIN_SCALE = 0.02
#: Seed of the template fleet that fixes how many banks of each kind a
#: UER workload serves, whatever the workload seed.
TEMPLATE_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run makes at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: The latency tail is this percentile of the per-call medians (see
#: :func:`per_call`).  A uer-dense pass times 112-156 decisions on seeds
#: 0-99, offline-eval about as many gaps, so p90 leaves at least ten
#: calls beyond it on every seed.
TAIL_PERCENTILE = 90.0
#: Seconds :func:`calibrate` reads on an idle 2-vCPU VM (Python 3.11,
#: NumPy 2.4): the speed every time is reported at.
KERNEL_REFERENCE_S = 0.013
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class BenchmarkFailure(Exception):
    """An output check failed: the run produced no valid numbers."""


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the entry point that serves it.

    Attributes:
        kind: ``"service"`` (one in-process ``CordialService``),
            ``"fleet"`` (supervised ``ShardedCordialEngine``) or
            ``"offline"`` (``Cordial.evaluate``).
        scale: UER workloads serve as many banks of each (pattern,
            distinct UER rows) class as the template fleet at this scale
            holds; the fleet workload serves CE-only banks until it
            holds ``ce_events`` events.
        pool_factor: the serving pool is generated at
            ``scale * pool_factor`` so every class has banks to draw.
    """

    name: str
    kind: str
    scale: float
    pool_factor: float
    max_skew: float = 0.0
    shards: int = 0
    workers: int = 0
    ce_events: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("uer-dense", "service", scale=0.06, pool_factor=4.0),
    Workload("ce-background", "fleet", scale=0.2, pool_factor=2.0,
             max_skew=3600.0, shards=2, workers=2, ce_events=20_000),
    Workload("offline-eval", "offline", scale=0.06, pool_factor=4.0),
)}


# -- inputs --------------------------------------------------------------------
def bounded_shuffle(records: List[ErrorRecord], max_skew: float,
                    seed: int) -> List[ErrorRecord]:
    """Arrival order displaced by less than ``max_skew`` stream seconds."""
    timestamps = np.asarray([r.timestamp for r in records], dtype=float)
    jitter = np.random.default_rng(seed).uniform(
        -0.49 * max_skew, 0.49 * max_skew, size=len(records))
    order = np.argsort(timestamps + jitter, kind="stable")
    return [records[i] for i in order]


def _uer_class(truth) -> tuple:
    return (truth.pattern.value,
            len({row for _, row in truth.uer_row_sequence}))


def _nearest_class(cells: Dict[tuple, List[tuple]], wanted: tuple) -> tuple:
    pattern, rows = wanted
    return min((key[0] != pattern, abs(key[1] - rows), key)
               for key, banks in cells.items() if banks)[2]


def draw_banks(workload: Workload, pool: FleetDataset,
               rng: np.random.Generator,
               template: Optional[FleetDataset]) -> List[tuple]:
    """The banks one workload serves, drawn from ``pool`` by ``rng``.

    A UER workload takes, for every UER bank of the template fleet, a
    random pool bank of the same failure pattern and number of distinct
    UER rows (the nearest row count when the pool has none left), so the
    amount of classify / predict work stays the same across seeds.  The
    fleet workload takes random CE-only banks until the stream holds
    ``ce_events`` events.
    """
    if template is not None:
        cells: Dict[tuple, List[tuple]] = defaultdict(list)
        for bank in pool.uer_banks:
            cells[_uer_class(pool.bank_truth[bank])].append(bank)
        for key in sorted(cells):
            rng.shuffle(cells[key])
        chosen = []
        for wanted in sorted(_uer_class(template.bank_truth[bank])
                             for bank in template.uer_banks):
            chosen.append(cells[_nearest_class(cells, wanted)].pop())
        return sorted(chosen)
    uer = set(pool.uer_banks) | {r.bank_key for r in pool.store
                                 if r.error_type is ErrorType.UER}
    events = Counter(r.bank_key for r in pool.store if r.bank_key not in uer)
    banks = sorted(events)
    rng.shuffle(banks)
    chosen, total = [], 0
    for bank in banks:
        if total >= workload.ce_events:
            break
        chosen.append(bank)
        total += events[bank]
    return sorted(chosen)


def _subset(pool: FleetDataset, banks: List[tuple],
            drop: Optional[ErrorRecord] = None) -> FleetDataset:
    keep = set(banks)
    return FleetDataset(
        config=pool.config, seed=pool.seed,
        store=ErrorStore(r for r in pool.store
                         if r.bank_key in keep and r is not drop),
        bank_truth={b: pool.bank_truth[b] for b in banks
                    if b in pool.bank_truth})


def perturbed(pool: FleetDataset, fleet: FleetDataset,
              stream: List[ErrorRecord]) -> tuple:
    """``(stream, evaluated fleet)`` of a perturbed run.

    A UER workload loses the first UER of a bank that triggers.  A stream
    without UERs keeps its event count: its middle event moves to the
    neighbouring row, so only the served state tells the runs apart.
    """
    for bank in fleet.uer_banks:
        if _uer_class(fleet.bank_truth[bank])[1] >= 3:
            victim = next(r for r in fleet.store.bank_events(bank)
                          if r.error_type is ErrorType.UER)
            return ([r for r in stream if r is not victim],
                    _subset(pool, sorted(fleet.bank_truth), drop=victim))
    index = len(stream) // 2
    record = stream[index]
    row = record.row - 1 if record.row > 0 else record.row + 1
    moved = replace(record, address=replace(record.address, row=row))
    return stream[:index] + [moved] + stream[index + 1:], fleet


def render(stream: List[ErrorRecord]) -> str:
    """MCE-log text of ``stream``, in memory."""
    buffer = io.StringIO()
    write_mce_log(stream, buffer)
    return buffer.getvalue()


@dataclass
class Inputs:
    """What one set-up hands to the passes.

    ``fleet`` holds the drawn banks untouched (the twin serves it);
    ``stream``/``text`` and ``evaluated`` are what the timed passes get,
    with one event dropped or moved when the run is perturbed.
    """

    workload: Workload
    cordial: Cordial
    fleet: FleetDataset
    stream: List[ErrorRecord]
    text: str
    evaluated: FleetDataset
    generated_events: int
    engine: Optional[ShardedCordialEngine] = None


def _no_span(name: str, seq: Optional[int] = None):
    return nullcontext()


def fit_pipeline(span=None) -> tuple:
    """``(pipeline, training events)``: the set-up's fitted pipeline."""
    span = span or _no_span
    with span("setup.generate"):
        train = generate_fleet_dataset(FleetGenConfig(scale=TRAIN_SCALE),
                                       seed=TRAIN_SEED)
    with span("setup.fit"):
        cordial = Cordial(model_name=MODEL, random_state=0)
        cordial.fit(train, train.uer_banks)
    return cordial, len(train.store)


def set_up(workload: Workload, seed: int, scale_factor: float,
           perturb: bool, out_dir: Path,
           layer: Optional[LayerTrace] = None,
           fitted: Optional[tuple] = None) -> Inputs:
    """Run the whole set-up once (see the module docstring).

    ``fitted`` reuses a :func:`fit_pipeline` result instead of fitting.
    """
    span = layer.span if layer is not None else _no_span
    cordial, train_events = fitted or fit_pipeline(span)
    scale = workload.scale * scale_factor
    template = None
    with span("setup.generate"):
        if workload.kind != "fleet":
            template = generate_fleet_dataset(FleetGenConfig(scale=scale),
                                              seed=TEMPLATE_SEED)
        pool = generate_fleet_dataset(
            FleetGenConfig(scale=scale * workload.pool_factor), seed=seed)
    generated = train_events + len(pool.store) + (
        len(template.store) if template is not None else 0)
    with span("setup.draw"):
        if workload.kind == "fleet":
            workload = replace(workload, ce_events=max(
                1, round(workload.ce_events * scale_factor)))
        fleet = _subset(pool, draw_banks(workload, pool,
                                         np.random.default_rng(seed),
                                         template))
        stream = list(fleet.store)
        if workload.max_skew > 0:
            stream = bounded_shuffle(stream, workload.max_skew, seed)
        evaluated = fleet
        if perturb:
            stream, evaluated = perturbed(pool, fleet, stream)
    inputs = Inputs(workload=workload, cordial=cordial, fleet=fleet,
                    stream=stream, text="", evaluated=evaluated,
                    generated_events=generated)
    if workload.kind != "offline":
        with span("setup.render"):
            inputs.text = render(stream)
    if workload.kind == "fleet":
        with span("setup.engine"):
            inputs.engine = build_engine(workload, cordial, out_dir)
    return inputs


def build_engine(workload: Workload, cordial: Cordial,
                 out_dir: Path) -> ShardedCordialEngine:
    """Spawn the supervised fleet and wait until every worker answered.

    A fleet checkpoint is the one public call that waits for every
    worker, so the engine is built once it has written one.
    """
    engine = ShardedCordialEngine(
        cordial, n_shards=workload.shards, n_jobs=workload.workers,
        max_skew=workload.max_skew, supervisor=SupervisorConfig())
    try:
        directory = out_dir / "ready-ckpt"
        shutil.rmtree(directory, ignore_errors=True)
        engine.checkpoint(str(directory))
    except BaseException:
        engine.close()
        raise
    return engine


# -- passes --------------------------------------------------------------------
@dataclass
class Pass:
    """One timed replay of the input and what it produced."""

    events: int
    seconds: float
    latencies: List[float]
    check: dict
    failures: Dict[str, int]
    state_bytes: int
    checkpoint_s: float = 0.0
    checkpoint_bytes: int = 0
    worker_rss_kb: int = 0
    #: :func:`calibrate` right before the pass and right after its
    #: checkpoint.
    kernel_s: tuple = ()
    output: object = field(default=None, repr=False)


def digest(decisions) -> str:
    """SHA-256 of the canonical JSON decision log.

    The same digest the chaos campaign computes; kept here so the
    benchmark does not depend on the chaos harness.
    """
    payload = json.dumps([d.to_obj() for d in decisions], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _truth(fleet: FleetDataset) -> dict:
    return {bank: fleet.bank_truth[bank].uer_row_sequence
            for bank in fleet.uer_banks}


def _service_check(fleet: FleetDataset, decisions, service,
                   events: int) -> dict:
    return {"events": events, "decisions": len(decisions),
            "decisions_digest": digest(decisions),
            "icr": service.replay.result(_truth(fleet)).icr}


def _fleet_check(state: dict, events: int, decisions: int) -> dict:
    blob = json.dumps(state, sort_keys=True).encode("utf-8")
    return {"events": events, "decisions": decisions,
            "triggers": state["stats"]["triggers_fired"],
            "state_sha256": hashlib.sha256(blob).hexdigest(),
            "state_bytes": len(blob)}


def _offline_check(result) -> dict:
    return {"triggers": result.n_test_triggers,
            "crossrow_banks": result.n_crossrow_banks,
            "icr": result.icr.icr,
            "pattern_weighted_f1": result.pattern_weighted.f1,
            "block_f1": result.block_scores.f1}


def _parse(text: str, sequences: List[int], span):
    """Yield the parsed records, each parse inside a ``parse`` span."""
    records = iter_mce_log(io.StringIO(text))
    for seq in sequences:
        with span("parse", seq):
            record = next(records)
        yield record
    if next(records, None) is not None:
        raise BenchmarkFailure("the MCE log holds more records than rendered")


def serve_service(inputs: Inputs, layer: Optional[LayerTrace]) -> Pass:
    """uer-dense: parse and ingest every event through one service."""
    span = layer.span if layer is not None else _no_span
    service = CordialService(inputs.cordial,
                             max_skew=inputs.workload.max_skew)
    sequences = [r.sequence for r in inputs.stream]
    clock = time.perf_counter
    decisions, latencies = [], []
    start = clock()
    for record in _parse(inputs.text, sequences, span):
        if layer is not None:
            layer.seq = record.sequence
        began = clock()
        with span("service.ingest"):
            out = service.ingest(record)
        if out:
            latencies.append(clock() - began)
            decisions.extend(out)
    with span("service.flush"):
        decisions.extend(service.flush())
    seconds = clock() - start
    dead = dict(service.collector.dead_letter_counts)
    state = service.state_dict()
    released = int(state["metrics"]["counters"].get(
        "collector.events_released", 0))
    if released + sum(dead.values()) != len(sequences):
        raise BenchmarkFailure(
            f"{len(sequences)} events parsed but {released} released and "
            f"{sum(dead.values())} dead-lettered")
    state.pop("metrics")  # wall-clock histograms; not part of the output
    return Pass(events=len(sequences), seconds=seconds, latencies=latencies,
                check=_service_check(inputs.fleet, decisions, service,
                                     service.stats.events_ingested),
                failures={f"dead_letter.{k}": v for k, v in dead.items()},
                state_bytes=len(json.dumps(state, sort_keys=True)),
                output=service)


def serve_fleet(inputs: Inputs, layer: Optional[LayerTrace],
                engine: ShardedCordialEngine) -> Pass:
    """ce-background: parse and submit every event, then finish."""
    span = layer.span if layer is not None else _no_span
    sequences = [r.sequence for r in inputs.stream]
    clock = time.perf_counter
    latencies = []
    start = clock()
    for record in _parse(inputs.text, sequences, span):
        began = clock()
        with span("engine.submit", record.sequence):
            engine.submit(record)
        latencies.append(clock() - began)
    outcome = engine.finish()
    seconds = clock() - start
    state = outcome.service.state_dict()
    counters = state["metrics"]["counters"]
    dead = dict(outcome.service.collector.dead_letter_counts)
    supervision = engine.supervisor_metrics.as_dict()["counters"]
    failures = {f"dead_letter.{k}": v for k, v in dead.items()}
    failures["supervisor.restarts"] = int(
        supervision.get("supervisor.restarts_total", 0))
    released = int(counters.get("collector.events_released", 0))
    if released + sum(dead.values()) != len(sequences):
        raise BenchmarkFailure(
            f"{len(sequences)} events submitted but {released} released "
            f"by the shards and {sum(dead.values())} dead-lettered")
    check = _fleet_check(state, outcome.stats["events_ingested"],
                         len(outcome.decisions))
    return Pass(events=len(sequences), seconds=seconds, latencies=latencies,
                check=check, failures=failures,
                state_bytes=check["state_bytes"], output=engine)


def evaluate(inputs: Inputs, layer: Optional[LayerTrace]) -> Pass:
    """offline-eval: ``Cordial.evaluate`` over the drawn UER banks."""
    span = layer.span if layer is not None else _no_span
    fleet = inputs.evaluated
    clock = time.perf_counter
    stamps: List[float] = []
    with decision_clock(stamps):
        start = clock()
        with span("evaluate"):
            result = inputs.cordial.evaluate(fleet, fleet.uer_banks)
        seconds = clock() - start
    # The gap before the first decision is the collect-and-classify
    # phase, not a decision; the rest are the time each decision took.
    latencies = np.diff(stamps).tolist()
    return Pass(events=len(fleet.store), seconds=seconds,
                latencies=latencies, check=_offline_check(result),
                failures={}, state_bytes=0, output=inputs.cordial)


def checkpoint(inputs: Inputs, result: Pass, out_dir: Path) -> None:
    """Time one checkpoint of the pass's end state through the public call.

    The fleet is checkpointed after ``finish``; the offline workload has
    no serving state, so it checkpoints a fresh service (the pipeline).
    """
    clock = time.perf_counter
    kind = inputs.workload.kind
    if kind == "fleet":
        directory = out_dir / "fleet-ckpt"
        shutil.rmtree(directory, ignore_errors=True)
        began = clock()
        result.output.checkpoint(str(directory))
        result.checkpoint_s = clock() - began
        result.checkpoint_bytes = sum(p.stat().st_size
                                      for p in directory.iterdir())
        return
    service = (result.output if kind == "service"
               else CordialService(result.output))
    path = out_dir / f"{kind}.ckpt.json"
    began = clock()
    save_service_checkpoint(service, path)
    result.checkpoint_s = clock() - began
    result.checkpoint_bytes = path.stat().st_size


def vm_hwm_kb(pid="self") -> int:
    """Peak resident set size of a process, in KiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_pass(inputs: Inputs, layer: Optional[LayerTrace], out_dir: Path,
             engine: Optional[ShardedCordialEngine]) -> Pass:
    """One pass: the timed window (traced when ``layer`` is given), then
    the checkpoint, untraced, between two kernel readings."""
    kind = inputs.workload.kind
    try:
        before = calibrate()
        with traced(layer) if layer is not None else nullcontext():
            if kind == "service":
                result = serve_service(inputs, layer)
            elif kind == "fleet":
                result = serve_fleet(inputs, layer, engine)
            else:
                result = evaluate(inputs, layer)
        checkpoint(inputs, result, out_dir)
        result.kernel_s = (before, calibrate())
        if engine is not None:
            result.worker_rss_kb = sum(
                vm_hwm_kb(child.pid)
                for child in multiprocessing.active_children())
    finally:
        if engine is not None:
            engine.close()
    result.output = None
    return result


# -- checks --------------------------------------------------------------------
def twin(inputs: Inputs) -> dict:
    """The check values of the same input served another way.

    The determinism contract makes the output independent of the shard
    count, the worker count, the arrival order within the skew and the
    pipeline's persistence round trip, so the twin serves the *unparsed,
    time-ordered, unperturbed* events: uer-dense through an in-process
    two-shard engine, ce-background through one unsupervised in-process
    shard, and offline-eval evaluates with a reloaded pipeline.
    """
    workload = inputs.workload
    if workload.kind == "offline":
        cordial = pipeline_from_document(pipeline_to_document(inputs.cordial))
        return _offline_check(cordial.evaluate(inputs.fleet,
                                               inputs.fleet.uer_banks))
    shards = 2 if workload.kind == "service" else 1
    with ShardedCordialEngine(inputs.cordial, n_shards=shards, n_jobs=1,
                              max_skew=workload.max_skew) as engine:
        for record in inputs.fleet.store:
            engine.submit(record)
        outcome = engine.finish()
    events = outcome.stats["events_ingested"]
    if workload.kind == "service":
        return _service_check(inputs.fleet, outcome.decisions,
                              outcome.service, events)
    return _fleet_check(outcome.service.state_dict(), events,
                        len(outcome.decisions))


def recorded_check(workload: Workload, seed: int) -> Optional[dict]:
    """The check values ``reference.json`` holds for this seed, if any.

    Fails when the file is missing or was recorded for another
    configuration: its values would no longer be the expected ones.
    """
    if not REFERENCE_FILE.is_file():
        raise BenchmarkFailure(f"{REFERENCE_FILE.name} is missing")
    document = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if document.get("config") != reference_config():
        raise BenchmarkFailure(
            f"{REFERENCE_FILE.name} was recorded for another configuration; "
            "record it again with perfbench/record_reference.py")
    return document["workloads"].get(workload.name, {}).get(str(seed))


def reference_config() -> dict:
    """Everything besides the seed that the recorded values depend on."""
    return {"model": MODEL, "train_seed": TRAIN_SEED,
            "train_scale": TRAIN_SCALE, "template_seed": TEMPLATE_SEED,
            "workloads": {w.name: asdict(w) for w in WORKLOADS.values()}}


def _compare(what: str, got: dict, want: dict) -> None:
    """Fail, naming every key whose value differs."""
    wrong = [f"{key} is {got.get(key)!r}, expected {want[key]!r}"
             for key in sorted(want) if got.get(key) != want[key]]
    if wrong:
        raise BenchmarkFailure(f"{what}: " + "; ".join(wrong))


def verify(inputs: Inputs, passes: List[Pass],
           recorded: Optional[dict]) -> str:
    """Fail unless every pass produced the expected output.

    ``recorded`` holds the values ``reference.json`` recorded for this
    input, if any.  Returns where the expected values came from.
    """
    workload = inputs.workload
    first = passes[0].check
    for index, result in enumerate(passes[1:], start=2):
        _compare(f"pass {index} vs pass 1", result.check, first)
    _compare("twin", first, twin(inputs))
    for result in passes:
        failed = {k: v for k, v in result.failures.items() if v}
        if failed:
            raise BenchmarkFailure(f"failed operations: {failed}")
    if workload.kind == "service" and first["decisions"] == 0:
        raise BenchmarkFailure("uer-dense made no decision")
    if workload.kind == "fleet" and (first["decisions"] or first["triggers"]):
        raise BenchmarkFailure("ce-background stream triggered a bank")
    if workload.kind == "offline" and first["triggers"] == 0:
        raise BenchmarkFailure("offline-eval saw no trigger")
    if recorded is not None:
        _compare("recorded reference", first, recorded)
        return "twin+recorded"
    return "twin"


# -- metrics -------------------------------------------------------------------
def per_call(passes: List[Pass]) -> np.ndarray:
    """Each timed call's median duration over the passes.

    Every pass replays the same input and makes the same calls in the
    same order (its output is checked), so call ``i`` of one pass is call
    ``i`` of every other.  The median over passes drops the moments the
    shared machine stalled one pass, which a percentile of the pooled
    samples would read as the program's tail.
    """
    counts = {len(p.latencies) for p in passes}
    if len(counts) != 1:
        raise BenchmarkFailure(f"passes timed different call counts: "
                               f"{sorted(counts)}")
    return np.median(np.array([p.latencies for p in passes]), axis=0)


def tail(samples: np.ndarray) -> tuple:
    """``(value, samples beyond)`` at :data:`TAIL_PERCENTILE`."""
    ordered = np.sort(samples)
    rank = math.ceil(TAIL_PERCENTILE * len(ordered) / 100.0 - 1e-9)
    return float(ordered[rank - 1]), len(ordered) - rank


def _pass_metrics(passes: List[Pass], run_speed: float) -> dict:
    samples = [s * run_speed for p in passes for s in p.latencies]
    tail_value, beyond = tail(per_call(passes) * run_speed)
    return {
        "events_per_s": statistics.median(p.events / (p.seconds * run_speed)
                                          for p in passes),
        "decision_latency_p50_ms": 1e3 * statistics.median(samples),
        "decision_latency_tail_ms": 1e3 * tail_value,
        "evaluate_s": statistics.median(p.seconds * run_speed
                                        for p in passes),
        "checkpoint_s": statistics.median(p.checkpoint_s * run_speed
                                          for p in passes),
        "tail_percentile": TAIL_PERCENTILE,
        "calls_per_pass": len(passes[0].latencies),
        "calls_beyond_tail": beyond,
    }


def end_to_end(setups: List[float], passes: List[Pass], rss_kb: int,
               run_speed: float) -> tuple:
    """The end-to-end metrics and the facts printed beside them.

    Every time is scaled by ``run_speed`` into reference seconds; the
    facts carry the figures as measured.
    """
    scaled = _pass_metrics(passes, run_speed)
    metrics = {
        "setup_s": (statistics.median(setups) * run_speed, "s"),
        "events_per_s": (scaled["events_per_s"], "1/s"),
        "decision_latency_p50_ms": (scaled["decision_latency_p50_ms"], "ms"),
        "decision_latency_tail_ms": (scaled["decision_latency_tail_ms"],
                                     "ms"),
        "evaluate_s": (scaled["evaluate_s"], "s"),
        "checkpoint_s": (scaled["checkpoint_s"], "s"),
        "checkpoint_bytes": (statistics.median(p.checkpoint_bytes
                                               for p in passes), "B"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    facts = {key: scaled[key] for key in ("tail_percentile",
                                          "calls_per_pass",
                                          "calls_beyond_tail")}
    facts["as_measured"] = _pass_metrics(passes, 1.0)
    facts["as_measured"]["setup_s"] = statistics.median(setups)
    return metrics, facts


#: Per-layer work counters: ``metric -> (counter or span name, unit)``.
COUNTERS = {
    "parse.records": "parse", "route.calls": "route.calls",
    "dispatch.batches": "dispatch.batches",
    "dispatch.records": "dispatch.records",
    "collector.calls": "collector.calls",
    "collector.released": "collector.released",
    "collector.triggers": "collector.triggers",
    "classify.calls": "classify.calls",
    "featurize.blocks.calls": "featurize.blocks.calls",
    "featurize.agg.calls": "featurize.agg.calls",
    "featurize.fold.calls": "featurize.fold.calls",
    "predict.calls": "predict.calls", "predict.rows": "predict.rows",
    "isolate.calls": "isolate.calls",
    "isolate.rows_requested": "isolate.rows_requested",
    "isolate.rows_newly_spared": "isolate.rows_newly_spared",
}

#: Per-layer busy (self) times: ``metric -> span names``.
BUSY = {
    "parse.busy_s": ("parse",), "route.busy_s": ("route",),
    "dispatch.busy_s": ("dispatch",), "finish.busy_s": ("finish",),
    "merge.busy_s": ("merge",), "collector.busy_s": ("collector",),
    "classify.busy_s": ("classify",),
    "featurize.pattern.busy_s": ("featurize.pattern",),
    "featurize.blocks.busy_s": ("featurize.blocks",),
    "featurize.agg.busy_s": ("featurize.agg",),
    "featurize.fold.busy_s": ("featurize.fold",),
    "predict.busy_s": ("predict",), "isolate.busy_s": ("isolate",),
    "evaluate.collect.busy_s": ("evaluate.collect",),
}


def pass_counts(layer: LayerTrace) -> Dict[str, int]:
    """Every count of one traced pass: work counters and span counts."""
    counts = {f"spans.{name}": entry[0]
              for name, entry in layer.self_times().items()}
    counts.update(layer.counts)
    return counts


def per_layer(setup_layers: List[LayerTrace], generated_events: int,
              traced_passes: List[tuple], untraced: List[Pass],
              failed_share: float, run_speed: float) -> dict:
    """The per-layer metrics of a traced run, in reference seconds.

    ``traced_passes`` pairs each traced pass with its trace.
    """
    layers = [layer for _, layer in traced_passes]
    counts = pass_counts(layers[0])
    metrics = {}
    for name, key in COUNTERS.items():
        value = counts.get(f"spans.{key}", 0) if key == "parse" \
            else counts.get(key, 0)
        metrics[name] = (value, "count")
    for name, spans in BUSY.items():
        metrics[name] = (statistics.median(
            run_speed * l.busy(*spans) for _, l in traced_passes), "s")
    requested = counts.get("isolate.rows_requested", 0)
    metrics["isolate.useful_ratio"] = (
        counts.get("isolate.rows_newly_spared", 0) / requested
        if requested else 0.0, "ratio")
    featurize = ("featurize.pattern", "featurize.blocks", "featurize.agg",
                 "featurize.fold")
    metrics["setup.generate.busy_s"] = (statistics.median(
        run_speed * l.busy("setup.generate") for l in setup_layers), "s")
    metrics["setup.generate.events"] = (generated_events, "count")
    metrics["setup.fit.featurize.busy_s"] = (statistics.median(
        run_speed * l.busy(*featurize) for l in setup_layers), "s")
    metrics["setup.fit.grow.busy_s"] = (statistics.median(
        run_speed * l.busy("grow") for l in setup_layers), "s")
    metrics["state.bytes"] = (traced_passes[0][0].state_bytes, "B")
    metrics["failed_share"] = (failed_share, "ratio")
    plain = statistics.median(p.events / (p.seconds * run_speed)
                              for p in untraced)
    with_trace = statistics.median(p.events / (p.seconds * run_speed)
                                   for p, _ in traced_passes)
    metrics["trace.untraced_events_per_s"] = (plain, "1/s")
    metrics["trace.traced_events_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead"] = (plain / with_trace - 1.0, "ratio")
    return metrics


# -- runs ----------------------------------------------------------------------
def _kernel() -> float:
    """Interpreter work plus small-array NumPy work, like one tree walk."""
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(30_000):
        key = i % 977
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    features = np.linspace(0.0, 1.0, 16 * 40).reshape(16, 40)
    thresholds = np.linspace(0.0, 1.0, 40)
    rows = np.arange(16)
    for step in range(1_500):
        column = step % 40
        left = features[rows, column] <= thresholds[column]
        total += float(np.take(thresholds, np.where(left, 1, 2)).sum())
    return total


def calibrate() -> float:
    """Seconds a fixed interpreter-and-NumPy kernel takes (best of 3)."""
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - began)
    return best


def speed(readings: List[float]) -> float:
    """Reference seconds per measured second over a whole run.

    The shared machine the benchmark runs on slows down by up to 2x for
    seconds to minutes at a time, independently of the program.  The
    kernel is timed right before and right after each set-up, and right
    before each pass and right after its checkpoint, while the fleet's
    workers are still up.  A time scaled by this speed is in reference
    seconds: the seconds it would have taken while the kernel ran in
    :data:`KERNEL_REFERENCE_S`.  One speed per run, from the mean of all
    its readings, follows the machine better than the two readings
    around one interval: the speed changes within a second, and a pass
    takes the mean of it.
    """
    return KERNEL_REFERENCE_S / statistics.fmean(readings)


def run(name: str, seed: int, seconds: float, trace: bool,
        scale_factor: float = 1.0, perturb: bool = False,
        out_dir: Optional[Path] = None) -> dict:
    """One benchmark run; returns the result object and the report."""
    workload = WORKLOADS[name]
    recorded = recorded_check(workload, seed) if scale_factor == 1.0 else None
    out_dir = (out_dir or Path(__file__).with_name("out")) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = time.perf_counter

    setup_seconds: List[float] = []
    readings: List[float] = []
    setup_layers: List[LayerTrace] = []
    inputs: Optional[Inputs] = None
    try:
        for _ in range(SETUPS):
            if inputs is not None and inputs.engine is not None:
                inputs.engine.close()
            layer = LayerTrace() if trace else None
            readings.append(calibrate())
            began = clock()
            with traced(layer) if layer is not None else nullcontext():
                inputs = set_up(workload, seed, scale_factor, perturb,
                                out_dir, layer)
            setup_seconds.append(clock() - began)
            readings.append(calibrate())
            if layer is not None:
                setup_layers.append(layer)

        # Untraced runs make plain passes; traced runs alternate a plain
        # pass (for the overhead figure) with traced ones.
        plan = [False] if not trace else [False, True, True]
        untraced: List[Pass] = []
        traced_passes: List[tuple] = []
        measure_start = clock()
        index = 0
        while (index < max(len(plan), MIN_PASSES)
               or clock() - measure_start < seconds):
            with_trace = (plan[index] if index < len(plan)
                          else trace and index % 2 == 0)
            engine = None
            if workload.kind == "fleet":
                engine = inputs.engine or build_engine(
                    inputs.workload, inputs.cordial, out_dir)
                inputs.engine = None  # run_pass closes it
            layer = LayerTrace() if with_trace else None
            result = run_pass(inputs, layer, out_dir, engine)
            if not result.latencies:
                raise BenchmarkFailure("a pass timed no latency sample")
            if layer is not None:
                traced_passes.append((result, layer))
            else:
                untraced.append(result)
            index += 1
    finally:
        if inputs is not None and inputs.engine is not None:
            inputs.engine.close()

    passes = untraced + [result for result, _ in traced_passes]
    source = verify(inputs, passes, recorded)
    if traced_passes:
        reference_counts = pass_counts(traced_passes[0][1])
        for number, (_, layer) in enumerate(traced_passes[1:], start=2):
            _compare(f"traced pass {number} counts", pass_counts(layer),
                     reference_counts)

    attempted = sum(p.events for p in passes)
    failures: Counter = Counter()
    for result in passes:
        failures.update(result.failures)
    failed = sum(failures.values())
    rss_kb = vm_hwm_kb() + max(p.worker_rss_kb for p in passes)
    readings += [reading for p in passes for reading in p.kernel_s]
    run_speed = speed(readings)
    report = {
        "workload": name, "seed": seed, "expected_from": source,
        "setups": len(setup_seconds), "passes": len(passes),
        "events_per_pass": passes[0].events,
        "setup_seconds": [round(s, 4) for s in setup_seconds],
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "kernel_s": [round(reading, 5) for reading in readings],
        "speed": run_speed,
        "attempted": attempted, "failed": failed,
        "failures": dict(failures), "failed_share": failed / attempted,
        "check": passes[0].check,
        "input": input_properties(inputs),
    }
    if trace:
        metrics = per_layer(setup_layers, inputs.generated_events,
                            traced_passes, untraced, failed / attempted,
                            run_speed)
        report["artifacts"] = write_trace(out_dir, setup_layers[-1],
                                          traced_passes[-1][1])
    else:
        metrics, facts = end_to_end(setup_seconds, passes, rss_kb, run_speed)
        report.update(facts)
    result = {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return {"result": result, "report": report}


def input_properties(inputs: Inputs) -> dict:
    """The served input, as recorded beside the numbers."""
    workload = inputs.workload
    fleet = inputs.fleet
    uer = set(fleet.uer_banks)
    banks = {r.bank_key for r in fleet.store}
    return {"events": len(inputs.stream) if workload.kind != "offline"
            else len(inputs.evaluated.store),
            "banks": len(banks),
            "uer_bank_share": len(uer & banks) / len(banks) if banks else 0.0,
            "max_skew_s": workload.max_skew, "shards": workload.shards,
            "workers": workload.workers}


def write_trace(out_dir: Path, setup_layer: LayerTrace,
                pass_layer: LayerTrace) -> dict:
    """Chrome trace (set-up as pid 0, last traced pass as pid 1) and the
    self-time table of both."""
    trace_path = out_dir / "trace.json"
    events = (setup_layer.tracer.export_chrome(pid=0)
              + pass_layer.tracer.export_chrome(pid=1))
    trace_path.write_text(json.dumps({"traceEvents": events,
                                      "displayTimeUnit": "ms"}),
                          encoding="utf-8")
    table = {
        stage: {name: {"spans": count, "total_s": total, "self_s": own}
                for name, (count, total, own) in layer.self_times().items()}
        for stage, layer in (("setup", setup_layer), ("pass", pass_layer))}
    table_path = out_dir / "self_time.json"
    table_path.write_text(json.dumps(table, indent=1, sort_keys=True),
                          encoding="utf-8")
    return {"chrome_trace": str(trace_path), "self_time": str(table_path)}
