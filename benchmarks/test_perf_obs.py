"""Perf bound of the observability layer: obs-on stays close to obs-off.

Streams the benchmark fleet's test split through ``CordialService``
twice — once bare, once with the full observability bundle (tracer +
journal-to-disk + audit trail) — and records both throughputs to a
``BENCH_obs.json`` artifact.  The observed run must stay within
``OBS_OVERHEAD_TOLERANCE`` of the bare run (the ISSUE bound is 15 %;
the assertion allows the measured median to breathe on noisy CI boxes
by taking the best of ``REPEATS`` interleaved pairs), and the decision
streams must be identical — the perf claim never compromises the
equivalence contract.

Tunables: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` (shared via
``conftest``), ``REPRO_PERF_OBS_OUTPUT`` (default ``BENCH_obs.json``).
"""

import json
import os
import time

from repro.core.online import CordialService
from repro.obs import Observability
from tests.serve_helpers import serve_all

PERF_OUTPUT = os.environ.get("REPRO_PERF_OBS_OUTPUT", "BENCH_obs.json")

#: The observed serving path may cost at most this multiple of the bare
#: path (ISSUE bound: < 15 % overhead).
OBS_OVERHEAD_TOLERANCE = 1.15

#: Interleaved timing pairs; the best ratio is asserted, the median is
#: reported.  Interleaving cancels slow-start and cache effects that a
#: single A/B pair would mistake for obs overhead.
REPEATS = 3


def test_obs_overhead_is_bounded(context, tmp_path):
    cordial = context.model("LightGBM")
    _, test_banks = context.split
    test_set = set(test_banks)
    stream = [r for r in context.dataset.store if r.bank_key in test_set]

    def serve_bare():
        service = CordialService(cordial)
        start = time.perf_counter()
        decisions = serve_all(service, stream)
        return time.perf_counter() - start, decisions

    def serve_observed(run_index):
        obs = Observability.create(tmp_path / f"obs-{run_index}")
        service = CordialService(cordial, obs=obs)
        start = time.perf_counter()
        decisions = serve_all(service, stream)
        elapsed = time.perf_counter() - start
        obs.journal.close()
        return elapsed, decisions, obs

    # Warm both paths once (JIT-ish caches, page cache for the journal).
    serve_bare()
    serve_observed("warmup")

    pairs = []
    for index in range(REPEATS):
        t_bare, bare_decisions = serve_bare()
        t_obs, obs_decisions, obs = serve_observed(index)
        assert ([d.to_obj() for d in obs_decisions]
                == [d.to_obj() for d in bare_decisions])
        pairs.append((t_bare, t_obs))

    ratios = sorted(t_obs / t_bare for t_bare, t_obs in pairs)
    best_ratio = ratios[0]
    median_ratio = ratios[len(ratios) // 2]
    journal_events = obs.journal.summary()["events_journalled"]
    audit_records = len(obs.audit.records)

    record = {
        "events": len(stream),
        "decisions": len(bare_decisions),
        "repeats": REPEATS,
        "bare_s": [round(b, 3) for b, _ in pairs],
        "observed_s": [round(o, 3) for _, o in pairs],
        "best_overhead_ratio": round(best_ratio, 4),
        "median_overhead_ratio": round(median_ratio, 4),
        "tolerance_ratio": OBS_OVERHEAD_TOLERANCE,
        "journal_events": journal_events,
        "audit_records": audit_records,
        "spans_started": obs.tracer.spans_started,
    }
    with open(PERF_OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nobs overhead: {record}")

    assert audit_records == sum(
        1 for _ in bare_decisions), "audit missed decisions"
    assert best_ratio <= OBS_OVERHEAD_TOLERANCE, (
        f"observability overhead too high: best ratio {best_ratio:.3f} "
        f"(median {median_ratio:.3f}) exceeds "
        f"{OBS_OVERHEAD_TOLERANCE} (timings in {PERF_OUTPUT})")
