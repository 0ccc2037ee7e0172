"""Shard supervision: the fleet survives its workers, byte for byte.

Locks down the supervision layer shipped with ``repro.serving.supervisor``:

(a) typed failure surface — every worker interaction raises
    :class:`ShardFailureError` (kind ``crash`` / ``hang`` / ``protocol``);
    raw ``EOFError`` / ``BrokenPipeError`` never escape, and a dead or
    hung worker fails *fast* (the ``batch_timeout`` deadline, never a
    blocking ``recv``);
(b) deterministic restart — for seeded crash/hang/garbage schedules over
    1/2/4 shards, decisions, ICR, stats, merged metrics, and merged
    service state are byte-identical to an undisturbed run;
(c) poison quarantine — a record that kills its worker is bisected out
    and dead-lettered under reason ``"poison"``, with everything else
    unchanged (``strip_poison_accounting`` normalises the ledger delta);
(d) degraded failover — an exhausted restart budget adopts the slot's
    shards in-process, recorded in metrics/journal/audit, output still
    byte-identical;
(e) supervisor metrics — the ``supervisor.*`` series export at zero on a
    healthy run, count faults when they happen, and render through the
    Prometheus exporter;
plus the chaos-plumbing that rides along: ``plant_poison`` twin
semantics, ``WorkerFault`` validation, plan round-trip of the new
fields, supervised campaign runs, and the CLI: validation, and
supervision on the default one-shard fleet.
"""

import dataclasses
import json
import pickle
import time

import numpy as np
import pytest

from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.chaos.operators import (PoisonDetonation, PoisonRecord,
                                   make_poison, plant_poison)
from repro.chaos.oracle import strip_poison_accounting
from repro.chaos.plan import ChaosPlan, OperatorSpec
from repro.core.online import CordialService
from repro.core.pipeline import Cordial
from repro.experiments import runner
from repro.experiments.serve import bounded_shuffle
from repro.hbm.address import DeviceAddress
from repro.obs.promexport import render_prometheus
from repro.serving import (FAILURE_CRASH, FAILURE_HANG, FAILURE_PROTOCOL,
                           ShardFailureError, ShardSupervisor,
                           ShardedCordialEngine, SupervisorConfig,
                           backoff_delay, shard_of_bank)
from repro.telemetry.collector import REASON_POISON
from repro.telemetry.events import ErrorRecord, ErrorType
from repro.telemetry.metrics import MetricsRegistry
from tests.serve_helpers import serve_all

MAX_SKEW = 600.0

#: Generous wall-clock ceiling for the "fails fast" assertions: the
#: engines below run with ``batch_timeout`` of 1-2 s, so detection far
#: under this bound proves the deadline (not a blocking recv) fired.
FAST = 20.0


def rec(seq, t, row, bank=0, error_type=ErrorType.CE):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=bank,
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
    stream = [r for r in small_dataset.store if r.bank_key in test_set]
    return bounded_shuffle(stream, MAX_SKEW, seed=5)


@pytest.fixture(scope="module")
def truth(small_dataset, bank_split):
    _, test = bank_split
    return {bank: small_dataset.bank_truth[bank].uer_row_sequence
            for bank in test
            if small_dataset.bank_truth[bank].uer_row_sequence}


@pytest.fixture(scope="module")
def baseline(cordial, test_stream):
    service = CordialService(cordial, max_skew=MAX_SKEW)
    decisions = serve_all(service, test_stream)
    return service, decisions


@pytest.fixture(scope="module")
def clean_fleet(cordial, test_stream):
    """Undisturbed fleet outcome per shard count (memoised)."""
    cache = {}

    def get(n_shards):
        if n_shards not in cache:
            cache[n_shards] = run_fleet(cordial, test_stream, n_shards)
        return cache[n_shards]

    return get


def decisions_json(decisions):
    return json.dumps([d.to_obj() for d in decisions], sort_keys=True)


def run_fleet(cordial, stream, n_shards, n_jobs=1, **kwargs):
    engine = ShardedCordialEngine(cordial, n_shards, n_jobs=n_jobs,
                                  max_skew=MAX_SKEW, **kwargs)
    try:
        for record in stream:
            engine.submit(record)
        return engine.finish()
    finally:
        engine.close()


def supervisor_config(**overrides):
    defaults = dict(max_restarts=8, batch_timeout=30.0, snapshot_every=4,
                    poison_threshold=2, backoff_base=0.0)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def run_supervised(cordial, stream, n_shards, schedule=(), n_jobs=1,
                   config=None, **kwargs):
    """Serve ``stream`` supervised, injecting ``(position, shard, mode)``
    faults after the given submissions; returns ``(engine, outcome)``."""
    engine = ShardedCordialEngine(cordial, n_shards, n_jobs=n_jobs,
                                  max_skew=MAX_SKEW,
                                  supervisor=config or supervisor_config(),
                                  **kwargs)
    pending = {}
    for position, shard, mode in schedule:
        pending.setdefault(int(position), []).append((int(shard), mode))
    try:
        for index, record in enumerate(stream):
            engine.submit(record)
            for shard, mode in pending.pop(index, []):
                engine.inject_fault(shard, mode)
        outcome = engine.finish()
        return engine, outcome
    finally:
        engine.close()


def crash_schedule(seed, n_shards, length):
    """A seeded 3-fault schedule mixing all modes over the stream."""
    rng = np.random.default_rng(1000 * n_shards + seed)
    positions = sorted(int(p) for p in rng.choice(
        np.arange(1, length - 1), size=3, replace=False))
    modes = ("crash", "hang", "garbage")
    return [(position, int(rng.integers(0, n_shards)),
             modes[int(rng.integers(0, len(modes)))])
            for position in positions]


def assert_equivalent(outcome, clean, expect_service, expect_decisions,
                      truth):
    """The supervised outcome is byte-identical to the undisturbed one."""
    assert decisions_json(outcome.decisions) == \
        decisions_json(expect_decisions)
    assert outcome.stats == expect_service.stats.to_dict()
    assert outcome.service.coverage(truth) == expect_service.coverage(truth)
    assert json.dumps(outcome.metrics, sort_keys=True) == \
        json.dumps(clean.metrics, sort_keys=True)
    assert json.dumps(outcome.service.state_dict(), sort_keys=True) == \
        json.dumps(clean.service.state_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# (a) typed failure surface
# ---------------------------------------------------------------------------

class TestFailureTaxonomy:
    def test_error_carries_kind_op_and_worker(self):
        error = ShardFailureError(FAILURE_HANG, "batch", "no reply",
                                  worker_index=3)
        assert isinstance(error, RuntimeError)
        assert (error.kind, error.op, error.worker_index) == \
            (FAILURE_HANG, "batch", 3)
        assert "shard worker 3" in str(error)
        assert "'batch'" in str(error)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            ShardFailureError("meltdown", "batch", "boom")

    def test_backoff_is_deterministic_and_capped(self):
        assert backoff_delay(0, 0.5, 8.0) == 0.5
        assert backoff_delay(3, 0.5, 8.0) == 4.0
        assert backoff_delay(10, 0.5, 8.0) == 8.0
        assert backoff_delay(7, 0.0, 8.0) == 0.0

    @pytest.mark.parametrize("bad", [
        {"max_restarts": -1},
        {"batch_timeout": 0.0},
        {"snapshot_every": 0},
        {"poison_threshold": 0},
        {"backoff_base": -0.1},
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            SupervisorConfig(**bad)


class TestTypedErrorsFromProcessWorkers:
    """Satellite regressions: raw pipe exceptions never escape, and a
    dead or hung worker is detected within the ``batch_timeout``
    deadline rather than blocking forever."""

    def make_engine(self, cordial, batch_timeout):
        return ShardedCordialEngine(cordial, 2, n_jobs=2, max_skew=MAX_SKEW,
                                    batch_timeout=batch_timeout)

    def test_killed_worker_surfaces_typed_crash_not_eof(self, cordial,
                                                       test_stream,
                                                       tmp_path):
        engine = self.make_engine(cordial, batch_timeout=2.0)
        try:
            worker = engine._workers[0]
            worker.ping()  # init round-trip completed; the worker is up
            worker._process.kill()
            worker._process.join()
            started = time.monotonic()
            with pytest.raises(ShardFailureError) as excinfo:
                engine.checkpoint(str(tmp_path / "dead.ckpt"))
            assert time.monotonic() - started < FAST
            assert excinfo.value.kind == FAILURE_CRASH
            assert not isinstance(excinfo.value, (EOFError, BrokenPipeError))
        finally:
            engine.close()

    def test_killed_worker_mid_batch_surfaces_typed_crash(self, cordial,
                                                          test_stream):
        engine = self.make_engine(cordial, batch_timeout=2.0)
        template = next(r for r in test_stream
                        if shard_of_bank(r.bank_key, 2) == 0)
        try:
            engine._workers[0].ping()
            engine._workers[0]._process.kill()
            engine._workers[0]._process.join()
            # Enough records for shard 0 to cross BATCH_SIZE and
            # dispatch into the dead worker's pipe; OS buffering may
            # defer detection to the finish sync, but the surfaced
            # error must be typed either way.
            with pytest.raises(ShardFailureError) as excinfo:
                for index in range(600):
                    engine.submit(dataclasses.replace(
                        template, sequence=template.sequence + index,
                        timestamp=template.timestamp + 0.001 * index))
                engine.finish()
            assert excinfo.value.kind == FAILURE_CRASH
        finally:
            engine.close()

    @pytest.mark.parametrize("mode,kind", [
        ("hang", FAILURE_HANG),
        ("garbage", FAILURE_PROTOCOL),
    ])
    def test_hung_or_garbling_worker_fails_fast_and_typed(self, cordial,
                                                          tmp_path, mode,
                                                          kind):
        engine = self.make_engine(cordial, batch_timeout=1.0)
        try:
            worker = engine._workers[0]
            worker.ping()
            worker.chaos(mode)
            started = time.monotonic()
            with pytest.raises(ShardFailureError) as excinfo:
                engine.checkpoint(str(tmp_path / "stuck.ckpt"))
            assert time.monotonic() - started < FAST
            assert excinfo.value.kind == kind
        finally:
            # A hanging worker ignores the polite stop; hard-kill it so
            # close() doesn't sit out its join timeout.
            engine._workers[0].terminate()
            engine.close()


# ---------------------------------------------------------------------------
# (b) deterministic restart: byte-identical output under fault schedules
# ---------------------------------------------------------------------------

class TestSupervisedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_crash_schedule_matrix(self, cordial, test_stream, truth,
                                   baseline, clean_fleet, seed, n_shards):
        """Seeded crash/hang/garbage schedules never show up in the
        output, for any shard count."""
        expect_service, expect = baseline
        schedule = crash_schedule(seed, n_shards, len(test_stream))
        engine, outcome = run_supervised(cordial, test_stream, n_shards,
                                         schedule)
        assert_equivalent(outcome, clean_fleet(n_shards), expect_service,
                          expect, truth)
        metrics = engine.supervisor_metrics
        assert metrics.counter_value("supervisor.restarts_total") >= 1.0
        assert metrics.counter_value("supervisor.degraded_shards") == 0.0
        assert metrics.counter_value("supervisor.poison_records_total") == 0.0

    @pytest.mark.parametrize("mode", ["crash", "hang", "garbage"])
    def test_process_worker_faults(self, cordial, test_stream, truth,
                                   baseline, clean_fleet, mode):
        """Real spawned workers: in-band chaos kills/hangs/garbles a
        worker process; recovery replays to the identical output."""
        expect_service, expect = baseline
        schedule = [(len(test_stream) // 3, 0, mode)]
        engine, outcome = run_supervised(
            cordial, test_stream, 2, schedule, n_jobs=2,
            config=supervisor_config(batch_timeout=2.0))
        assert_equivalent(outcome, clean_fleet(2), expect_service, expect,
                          truth)
        assert engine.supervisor_metrics.counter_value(
            "supervisor.restarts_total") >= 1.0

    def test_supervised_checkpoint_restart(self, cordial, test_stream,
                                           baseline, tmp_path):
        """A fleet checkpoint taken through the supervisor resumes
        bit-identically (the checkpoint doubles as the slot baseline)."""
        _, expect = baseline
        half = len(test_stream) // 2
        directory = str(tmp_path / "supervised.ckpt")

        engine = ShardedCordialEngine(cordial, 2, max_skew=MAX_SKEW,
                                      supervisor=supervisor_config())
        try:
            for index, record in enumerate(test_stream[:half]):
                engine.submit(record)
                if index == half // 2:
                    engine.inject_fault(0, "crash")
            engine.checkpoint(directory)
            segments = engine.drain_segments()
        finally:
            engine.close()

        successor = ShardedCordialEngine.restore(
            directory, supervisor=supervisor_config())
        try:
            for record in test_stream[half:]:
                successor.submit(record)
            outcome = successor.finish()
        finally:
            successor.close()
        from repro.serving import merge_decisions
        decisions = merge_decisions(segments + [outcome.decisions])
        assert decisions_json(decisions) == decisions_json(expect)


# ---------------------------------------------------------------------------
# (c) poison quarantine
# ---------------------------------------------------------------------------

class TestPoisonRecords:
    def test_detonates_on_sequence_read(self):
        poison = make_poison(rec(7, 100.0, 1), 42.0)
        assert isinstance(poison, ErrorRecord)
        assert poison.timestamp == 42.0
        with pytest.raises(PoisonDetonation):
            poison.sequence
        assert "PoisonRecord" in repr(poison)  # repr must NOT detonate

    def test_detonates_identically_after_pickling(self):
        poison = make_poison(rec(7, 100.0, 1), 42.0)
        clone = pickle.loads(pickle.dumps(poison))
        assert isinstance(clone, PoisonRecord)
        assert clone.timestamp == 42.0
        with pytest.raises(PoisonDetonation):
            clone.sequence

    def test_plant_poison_twin_semantics(self):
        garbage = {"not": "a record"}
        stream = [rec(0, 10.0, 1), rec(1, 5.0, 2), garbage, rec(2, 20.0, 3)]
        faulted, twin, planted = plant_poison(stream, [0, 1, 2, 3])
        # Position 0 has no record prefix and position 2 is garbage:
        # both are skipped in BOTH streams.
        assert planted == 2
        assert faulted[0] is stream[0] and faulted[2] is garbage
        assert twin == [stream[0], garbage]
        # Poison timestamps pin to the running max of the prefix, so
        # they sit exactly on the watermark: accepted, never "late".
        assert isinstance(faulted[1], PoisonRecord)
        assert faulted[1].timestamp == 10.0
        assert isinstance(faulted[3], PoisonRecord)
        assert faulted[3].timestamp == 10.0

    @pytest.mark.parametrize("n_jobs,batch_size,positions", [
        (1, 256, (60, 400)),   # in-process workers, default batching
        (2, 16, (120,)),       # spawned workers, small batches (fast bisect)
    ])
    def test_quarantined_byte_identically(self, cordial, test_stream, truth,
                                          n_jobs, batch_size, positions):
        """The poison ends in the coordinator dead-letter ledger under
        reason "poison"; everything else matches the twin run exactly."""
        faulted, twin, planted = plant_poison(test_stream, list(positions))
        assert planted == len(positions)

        engine, outcome = run_supervised(
            cordial, faulted, 2, n_jobs=n_jobs, batch_size=batch_size,
            config=supervisor_config(poison_threshold=1, batch_timeout=5.0))
        clean = run_fleet(cordial, twin, 2, batch_size=batch_size)

        assert decisions_json(outcome.decisions) == \
            decisions_json(clean.decisions)
        assert outcome.service.coverage(truth) == \
            clean.service.coverage(truth)
        ledger = outcome.service.collector.dead_letter_counts
        assert ledger.get(REASON_POISON) == planted
        assert engine.supervisor_metrics.counter_value(
            "supervisor.poison_records_total") == float(planted)
        stripped = strip_poison_accounting(outcome.service.state_dict())
        assert json.dumps(stripped, sort_keys=True) == \
            json.dumps(clean.service.state_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# supervisor policy unit tests (fake workers: fast, exact)
# ---------------------------------------------------------------------------

class Marker:
    """A poison stand-in the fake worker detonates on."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Marker({self.name})"


class FakeWorker:
    """In-memory worker honouring the supervised protocol.

    Ingests plain items per shard; a :class:`Marker` item detonates
    (typed crash), mirroring a poison record killing the service code.
    """

    supports_chaos = False

    def __init__(self, spawn_log, tag):
        self.ingested = {}
        self.dead = False
        self.spawn_log = spawn_log
        self.tag = tag
        spawn_log.append(("spawn", tag))

    def _check(self, op):
        if self.dead:
            raise ShardFailureError(FAILURE_CRASH, op, "fake worker dead")

    def load(self, shard_id, state):
        self._check("load")
        self.ingested[shard_id] = list(state)

    def batch(self, shard_id, records):
        self._check("batch")
        for record in records:
            if isinstance(record, Marker):
                self.dead = True
                raise ShardFailureError(FAILURE_CRASH, "batch",
                                        f"detonated {record!r}")
            self.ingested.setdefault(shard_id, []).append(record)

    def ping(self):
        self._check("ping")

    def snapshot(self):
        self._check("snapshot")
        return {shard_id: {"state": list(items), "decisions": []}
                for shard_id, items in self.ingested.items()}

    def checkpoint(self):
        self._check("checkpoint")
        return {shard_id: {"document": {"state": list(items)}}
                for shard_id, items in self.ingested.items()}

    def finish(self):
        self._check("finish")
        return {shard_id: {"state": list(items)}
                for shard_id, items in self.ingested.items()}

    def terminate(self):
        self.dead = True

    def close(self):
        self.spawn_log.append(("close", self.tag))


class RecordingJournal:
    def __init__(self):
        self.events = []

    def supervision(self, action, worker_index, shards=(), detail=""):
        self.events.append((action, worker_index, tuple(shards), detail))


class RecordingAudit:
    def __init__(self):
        self.decisions = []

    def record_decision(self, **kwargs):
        self.decisions.append(kwargs)


def make_supervisor(config, journal=None, audit=None):
    spawn_log, segments, poisons, sleeps = [], [], [], []

    def spawn(index, shard_ids, restart):
        return FakeWorker(spawn_log, ("primary", index, restart))

    def spawn_fallback(index, shard_ids, restart):
        return FakeWorker(spawn_log, ("fallback", index, restart))

    registry = MetricsRegistry()
    supervisor = ShardSupervisor(
        config, spawn=spawn, spawn_fallback=spawn_fallback,
        on_segment=segments.append,
        on_poison=lambda record, shard_id, detail: poisons.append(
            (record, shard_id)),
        metrics=registry, journal=journal, audit=audit,
        sleep=sleeps.append)
    slot = supervisor.register(spawn(0, [0], 0), [0])
    return supervisor, slot, registry, poisons, sleeps, spawn_log


class TestSupervisorPolicy:
    def test_restart_replays_the_log(self):
        supervisor, slot, registry, _, _, _ = make_supervisor(
            supervisor_config(snapshot_every=100))
        supervisor.dispatch(0, ["a", "b"])
        supervisor.inject_fault(0, "crash")  # pending: fires at next op
        supervisor.dispatch(0, ["c"])
        assert slot.worker.ingested[0] == ["a", "b", "c"]
        assert registry.counter_value("supervisor.restarts_total") == 1.0

    def test_backoff_schedule_is_attempt_indexed(self):
        supervisor, _, _, _, sleeps, _ = make_supervisor(
            supervisor_config(snapshot_every=100, backoff_base=0.5,
                              backoff_cap=2.0))
        supervisor.dispatch(0, ["a"])
        supervisor.inject_fault(0, "crash")
        supervisor.dispatch(0, ["b"])
        supervisor.inject_fault(0, "hang")
        supervisor.dispatch(0, ["c"])
        assert sleeps == [0.5, 1.0]

    def test_poison_is_bisected_out_and_quarantined(self):
        supervisor, slot, registry, poisons, _, _ = make_supervisor(
            supervisor_config(snapshot_every=100, poison_threshold=2))
        poison = Marker("p1")
        supervisor.dispatch(0, ["a", "b"])
        supervisor.dispatch(0, ["c", poison, "d"])
        assert poisons == [(poison, 0)]
        assert slot.worker.ingested[0] == ["a", "b", "c", "d"]
        assert registry.counter_value(
            "supervisor.poison_records_total") == 1.0

    def test_two_poison_records_in_one_batch(self):
        supervisor, slot, _, poisons, _, _ = make_supervisor(
            supervisor_config(max_restarts=20, snapshot_every=100,
                              poison_threshold=1))
        first, second = Marker("p1"), Marker("p2")
        supervisor.dispatch(0, ["a", first, "b", second, "c"])
        assert poisons == [(first, 0), (second, 0)]
        assert slot.worker.ingested[0] == ["a", "b", "c"]

    def test_degraded_failover_uses_the_fallback(self):
        journal, audit = RecordingJournal(), RecordingAudit()
        supervisor, slot, registry, _, _, spawn_log = make_supervisor(
            supervisor_config(max_restarts=0), journal=journal, audit=audit)
        supervisor.dispatch(0, ["a"])
        supervisor.inject_fault(0, "crash")
        supervisor.dispatch(0, ["b"])
        assert slot.degraded
        assert slot.worker.tag[0] == "fallback"
        assert slot.worker.ingested[0] == ["a", "b"]
        assert registry.counter_value("supervisor.degraded_shards") == 1.0
        assert [event[0] for event in journal.events] == \
            ["failure", "degraded", "restart"]
        assert audit.decisions == [dict(kind="supervision", timestamp=-1.0,
                                        bank_key=(0,),
                                        action="degraded-failover",
                                        pattern=None)]

    def test_checkpoint_resets_the_replay_log(self):
        supervisor, slot, _, _, _, _ = make_supervisor(
            supervisor_config(snapshot_every=100))
        supervisor.dispatch(0, ["a", "b"])
        supervisor.checkpoint_worker(slot)
        assert slot.baselines[0] == ["a", "b"]
        assert slot.log == []
        supervisor.inject_fault(0, "crash")
        supervisor.dispatch(0, ["c"])  # replay = baseline + ["c"] only
        assert slot.worker.ingested[0] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# (d) degraded-mode failover, end to end
# ---------------------------------------------------------------------------

class TestDegradedFailover:
    def test_exhausted_budget_is_byte_identical(self, cordial, test_stream,
                                                truth, baseline,
                                                clean_fleet):
        expect_service, expect = baseline
        length = len(test_stream)
        schedule = [(length // 4, 0, "crash"), (length // 2, 0, "crash")]
        engine, outcome = run_supervised(
            cordial, test_stream, 2, schedule,
            config=supervisor_config(max_restarts=0))
        assert_equivalent(outcome, clean_fleet(2), expect_service, expect,
                          truth)
        # One worker slot owns both shards at n_jobs=1: both degrade.
        assert engine.supervisor_metrics.counter_value(
            "supervisor.degraded_shards") == 2.0

    def test_degraded_process_fleet(self, cordial, test_stream, baseline):
        """A spawned worker whose budget is exhausted fails over to the
        in-process fallback; no further processes, same output."""
        _, expect = baseline
        schedule = [(len(test_stream) // 3, 0, "crash")]
        engine, outcome = run_supervised(
            cordial, test_stream, 2, schedule, n_jobs=2,
            config=supervisor_config(max_restarts=0, batch_timeout=2.0))
        assert decisions_json(outcome.decisions) == decisions_json(expect)
        assert engine.supervisor_metrics.counter_value(
            "supervisor.degraded_shards") == 1.0


# ---------------------------------------------------------------------------
# (e) supervisor metrics
# ---------------------------------------------------------------------------

class TestSupervisorMetrics:
    def test_healthy_run_exports_zeroes(self, cordial, test_stream):
        engine, _ = run_supervised(cordial, test_stream, 2)
        metrics = engine.supervisor_metrics
        assert metrics is not None
        for name in ("supervisor.restarts_total",
                     "supervisor.poison_records_total",
                     "supervisor.degraded_shards"):
            assert metrics.counter_value(name) == 0.0
        document = metrics.as_dict()
        assert "supervisor.recovery_batches" in document["histograms"]

    def test_unsupervised_engine_has_no_registry(self, cordial):
        engine = ShardedCordialEngine(cordial, 2, max_skew=MAX_SKEW)
        try:
            assert engine.supervisor_metrics is None
            with pytest.raises(RuntimeError, match="requires a supervised"):
                engine.inject_fault(0, "crash")
        finally:
            engine.close()

    def test_counters_render_through_prometheus(self, cordial, test_stream):
        schedule = [(len(test_stream) // 2, 0, "crash")]
        engine, _ = run_supervised(cordial, test_stream, 2, schedule)
        exposition = render_prometheus(engine.supervisor_metrics)
        assert "cordial_supervisor_restarts_total 1" in exposition
        assert "cordial_supervisor_degraded_shards 0" in exposition
        assert "cordial_supervisor_recovery_batches" in exposition


# ---------------------------------------------------------------------------
# chaos plumbing: plans, campaign, CLI
# ---------------------------------------------------------------------------

class TestChaosPlumbing:
    def test_worker_fault_validation_and_roundtrip(self):
        from repro.chaos.faults import WORKER_FAULT_MODES, WorkerFault
        fault = WorkerFault(at_event=5, shard=1, mode="worker_crash")
        assert fault.to_obj() == {"at_event": 5, "shard": 1,
                                  "mode": "worker_crash"}
        assert set(WORKER_FAULT_MODES) == \
            {"worker_crash", "worker_hang", "pipe_garbage"}
        with pytest.raises(ValueError, match="unknown worker fault"):
            WorkerFault(at_event=5, shard=1, mode="worker_meltdown")
        with pytest.raises(ValueError):
            WorkerFault(at_event=0, shard=1, mode="worker_crash")

    def test_plan_roundtrips_supervision_fields(self):
        plan = ChaosPlan(operators=(OperatorSpec("drop", {"rate": 0.01}),),
                         worker_faults_per_run=2, poison_per_run=1)
        clone = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.worker_faults_per_run == 2
        assert clone.poison_per_run == 1
        with pytest.raises(ValueError):
            ChaosPlan(operators=(), worker_faults_per_run=-1)
        with pytest.raises(ValueError):
            ChaosPlan(operators=(), poison_per_run=-1)

    def test_supervised_campaign_runs_clean_and_reruns_identically(
            self, cordial, test_stream, truth, tmp_path):
        plan = ChaosPlan(operators=(), max_skew=MAX_SKEW, kills_per_run=0,
                         worker_faults_per_run=1, poison_per_run=1)
        config = CampaignConfig(runs=2, seed=3)
        stream = test_stream[:600]

        def campaign(subdir):
            workdir = tmp_path / subdir
            workdir.mkdir()
            return run_campaign(cordial, stream, truth, plan, config,
                                str(workdir), shards=2)

        report = campaign("first")
        assert report["ok"] is True
        assert report["violations_total"] == 0
        for run in report["runs"]:
            assert run["supervised"] is True
            assert run["ok"] is True
            assert run["decisions_digest"] == run["twin_decisions_digest"]
            assert run["poison_planted"] >= 0
            assert all(f["mode"] in ("worker_crash", "worker_hang",
                                     "pipe_garbage")
                       for f in run["worker_faults"])
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(campaign("second"), sort_keys=True)


class TestCLI:
    def test_supervise_without_shards_serves_one_shard(self, tmp_path):
        """Supervision needs no --shards: the default one-shard fleet runs
        supervised, restarts nothing, and reports what an unsupervised
        run reports."""
        reports = {}
        for name, extra in (("plain", []), ("supervised", ["--supervise"])):
            output = tmp_path / f"{name}.json"
            assert runner.main(["serve-replay", "--scale", "0.05",
                                "--seed", "3", "--output", str(output),
                                *extra]) == 0
            reports[name] = json.loads(output.read_text())
        supervised = reports["supervised"]
        assert supervised["config"]["shards"] == 1
        assert supervised["supervision"]["counters"][
            "supervisor.restarts_total"] == 0
        assert supervised["summary"] == reports["plain"]["summary"]

    @pytest.mark.parametrize("argv", [
        ["serve-replay", "--poison-threshold", "0"],
        ["serve-replay", "--snapshot-every", "0"],
        ["chaos", "--engine-jobs", "0"],
    ])
    def test_bad_supervision_counts_are_rejected_by_the_parser(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["serve-replay", "--supervise"],
        ["chaos", "--worker-faults-per-run", "1"],
        ["chaos", "--poison-per-run", "1"],
    ])
    def test_supervision_flags_default_to_one_shard(self, argv):
        assert runner.build_parser().parse_args(argv).shards == 1
