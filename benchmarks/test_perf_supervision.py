"""Perf smoke test of the shard supervision layer.

Streams the benchmark fleet's test split through a 4-shard
``ShardedCordialEngine`` three times — unsupervised, supervised on a
clean stream, and supervised with one injected worker crash — and
records throughputs plus the supervision overhead to a
``BENCH_supervision.json`` artifact.  The claims under test:

* supervision on a healthy stream is near-free — between fleet
  checkpoints it only logs each dispatched batch for replay, and that
  must cost less than ``REPRO_PERF_SUPERVISION_MAX_OVERHEAD`` (default
  10 %) of the unsupervised run's wall clock;
* a worker crash mid-stream recovers to the *identical* decision log
  (the recovery price is reported, not bounded — it is dominated by the
  replay length: every batch since the last checkpoint, here the
  stream's start).

Engine construction happens outside the timed window on both sides:
the claim is steady-state serving throughput, not cold start.

Tunables: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` (shared with the
other benches via ``conftest``), ``REPRO_PERF_SUPERVISION_OUTPUT``
(default ``BENCH_supervision.json``),
``REPRO_PERF_SUPERVISION_MAX_OVERHEAD`` (default 0.10).
"""

import json
import os
import time

from repro.experiments.serve import bounded_shuffle
from repro.serving import ShardedCordialEngine, SupervisorConfig

PERF_OUTPUT = os.environ.get("REPRO_PERF_SUPERVISION_OUTPUT",
                             "BENCH_supervision.json")
MAX_OVERHEAD = float(os.environ.get("REPRO_PERF_SUPERVISION_MAX_OVERHEAD",
                                    "0.10"))

N_SHARDS = 4
MAX_SKEW = 3600.0


def serve(engine, stream, fault_at=None):
    start = time.perf_counter()
    for index, record in enumerate(stream):
        engine.submit(record)
        if index == fault_at:
            engine.inject_fault(0, "crash")
    outcome = engine.finish()
    return outcome, time.perf_counter() - start


def test_supervision_overhead(context):
    cordial = context.model("LightGBM")
    _, test_banks = context.split
    test_set = set(test_banks)
    stream = bounded_shuffle(
        [r for r in context.dataset.store if r.bank_key in test_set],
        MAX_SKEW, seed=1)
    config = SupervisorConfig(max_restarts=3, backoff_base=0.0)

    # Untimed warmup: pay one-time lazy-init costs (feature caches,
    # booster state) before the comparison, so the first timed engine
    # isn't handicapped.
    warmup = ShardedCordialEngine(cordial, N_SHARDS, max_skew=MAX_SKEW)
    try:
        serve(warmup, stream[:512])
    finally:
        warmup.close()

    plain_engine = ShardedCordialEngine(cordial, N_SHARDS, max_skew=MAX_SKEW)
    try:
        plain, t_plain = serve(plain_engine, stream)
    finally:
        plain_engine.close()

    clean_engine = ShardedCordialEngine(cordial, N_SHARDS, max_skew=MAX_SKEW,
                                        supervisor=config)
    try:
        clean, t_clean = serve(clean_engine, stream)
    finally:
        clean_engine.close()

    crash_engine = ShardedCordialEngine(cordial, N_SHARDS, max_skew=MAX_SKEW,
                                        supervisor=config)
    try:
        crashed, t_crash = serve(crash_engine, stream,
                                 fault_at=len(stream) // 2)
    finally:
        crash_engine.close()

    overhead = t_clean / t_plain - 1.0
    record = {
        "events": len(stream),
        "decisions": len(plain.decisions),
        "n_shards": N_SHARDS,
        "unsupervised_s": round(t_plain, 3),
        "supervised_clean_s": round(t_clean, 3),
        "supervised_crash_s": round(t_crash, 3),
        "events_per_s_unsupervised": round(len(stream) / t_plain, 1),
        "events_per_s_supervised": round(len(stream) / t_clean, 1),
        "clean_overhead": round(overhead, 4),
        "crash_restarts": crash_engine.supervisor_metrics.counter_value(
            "supervisor.restarts_total"),
    }
    with open(PERF_OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nshard supervision: {record}")

    # The perf claim never compromises the equivalence contract: the
    # supervised runs — crashed or not — match the unsupervised one.
    plain_decisions = [d.to_obj() for d in plain.decisions]
    assert [d.to_obj() for d in clean.decisions] == plain_decisions
    assert [d.to_obj() for d in crashed.decisions] == plain_decisions
    assert clean.stats == plain.stats
    assert crashed.stats == plain.stats
    assert record["crash_restarts"] >= 1.0
    assert overhead < MAX_OVERHEAD, (
        f"supervision cost {overhead:.1%} of the clean run's wall clock "
        f"(budget {MAX_OVERHEAD:.0%}; timings in {PERF_OUTPUT})")
