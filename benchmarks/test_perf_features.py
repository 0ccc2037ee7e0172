"""Perf smoke test of the vectorized and incremental feature paths.

Times the vectorized and incremental feature paths against their
references on the benchmark fleet and records the speedups to a
``BENCH_features.json`` artifact:

* batch — ``BankPatternFeaturizer.extract_many`` and
  ``CrossRowFeaturizer.extract_blocks`` versus the per-record scalar
  walks of ``tests/reference_features.py`` over the same trigger
  histories;
* incremental — the per-reprediction feature path across every
  serve-replay snapshot: O(1) ``IncrementalFeatureState`` folding versus
  re-packing the full bank history each time, plus end-to-end serve
  wall-clock for context.

Both rewrites are exact: the bitwise-equality assertions here mirror
``tests/test_feature_equivalence.py`` so a perf win can never mask a
semantic drift.  The speedup floors are asserted only at
``REPRO_BENCH_SCALE >= 0.5`` — below that the scalar baselines finish
too quickly for stable ratios — but the artifact records them at any
scale.

Tunables: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` (shared via
``conftest``), ``REPRO_PERF_FEATURES_OUTPUT`` (default
``BENCH_features.json`` in the working directory).
"""

import json
import os
import time

import numpy as np

from repro.core.features import BankPatternFeaturizer, CrossRowFeaturizer
from repro.core.incremental import IncrementalFeatureState
from repro.core.online import CordialService
from repro.core.pipeline import collect_snapshots, collect_triggers
from tests.reference_features import block_features, pattern_features
from tests.serve_helpers import serve_all

from conftest import BENCH_SCALE

PERF_OUTPUT = os.environ.get("REPRO_PERF_FEATURES_OUTPUT",
                             "BENCH_features.json")

#: The batch path must beat the scalar loop by at least this factor
#: (asserted at scale >= 0.5, where the measurement is stable).
MIN_BATCH_SPEEDUP = 3.0
ASSERT_SCALE = 0.5


def test_feature_extraction_speedups(context):
    dataset = context.dataset
    triggers = collect_triggers(dataset, dataset.uer_banks)
    histories = [t.history for t in triggers]

    # -- batch: bank-pattern features ------------------------------------
    bank = BankPatternFeaturizer()
    warmup = histories[:8]
    bank.extract_many(warmup)  # first-call numpy dispatch is not the story
    [pattern_features(h) for h in warmup]
    start = time.perf_counter()
    batch_matrix = bank.extract_many(histories)
    t_batch = time.perf_counter() - start
    start = time.perf_counter()
    scalar_matrix = np.vstack([pattern_features(h) for h in histories])
    t_scalar = time.perf_counter() - start
    assert np.array_equal(batch_matrix, scalar_matrix)

    # -- batch: cross-row block features ---------------------------------
    crossrow = CrossRowFeaturizer()
    anchors = [t.uer_rows[-1] for t in triggers]
    crossrow.extract_blocks(histories[0], anchors[0])
    block_features(crossrow, histories[0], anchors[0])
    start = time.perf_counter()
    fast_blocks = [crossrow.extract_blocks(h, a)
                   for h, a in zip(histories, anchors)]
    t_blocks = time.perf_counter() - start
    start = time.perf_counter()
    slow_blocks = [block_features(crossrow, h, a)
                   for h, a in zip(histories, anchors)]
    t_blocks_scalar = time.perf_counter() - start
    for fast, slow in zip(fast_blocks, slow_blocks):
        assert np.array_equal(fast, slow)

    # -- incremental: reprediction feature path, fold vs recompute -------
    # Times exactly what the online service computes per re-prediction:
    # the incremental path folds each event once and reads the features
    # from the running aggregates; the recompute path re-packs the full
    # bank history every time.  This is the right frame for the
    # comparison — end-to-end serve wall-clock (also recorded below) is
    # >90 % pure-Python tree inference, which neither path touches.
    t_fold = t_recompute_features = 0.0
    n_repredictions = 0
    for bank in dataset.uer_banks:
        snapshots = collect_snapshots(dataset, bank)
        if not snapshots:
            continue
        state = IncrementalFeatureState()
        full_history = snapshots[-1].history
        position = 0
        for snapshot in snapshots:
            anchor = snapshot.uer_rows[-1]
            start = time.perf_counter()
            while position < len(snapshot.history):
                state.update(full_history[position])
                position += 1
            folded = crossrow.extract_from_aggregates(state.aggregates(),
                                                      anchor)
            t_fold += time.perf_counter() - start
            start = time.perf_counter()
            recomputed = crossrow.extract_blocks(snapshot.history, anchor)
            t_recompute_features += time.perf_counter() - start
            assert np.array_equal(folded, recomputed)
            n_repredictions += 1

    # -- end-to-end serve-replay -----------------------------------------
    cordial = context.model("LightGBM")
    _, test_banks = context.split
    test_set = set(test_banks)
    stream = [r for r in dataset.store if r.bank_key in test_set]

    start = time.perf_counter()
    serve_all(CordialService(cordial), stream)
    t_serve = time.perf_counter() - start

    record = {
        "scale": BENCH_SCALE,
        "triggers": len(histories),
        "events": len(stream),
        "extract_many_s": round(t_batch, 4),
        "extract_scalar_s": round(t_scalar, 4),
        "extract_many_speedup": round(t_scalar / t_batch, 2),
        "extract_blocks_s": round(t_blocks, 4),
        "extract_blocks_scalar_s": round(t_blocks_scalar, 4),
        "extract_blocks_speedup": round(t_blocks_scalar / t_blocks, 2),
        "repredictions": n_repredictions,
        "repredict_fold_s": round(t_fold, 4),
        "repredict_recompute_s": round(t_recompute_features, 4),
        "repredict_speedup": round(t_recompute_features / t_fold, 2),
        "serve_s": round(t_serve, 3),
    }
    with open(PERF_OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nfeature paths: {record}")

    if BENCH_SCALE >= ASSERT_SCALE:
        assert t_scalar / t_batch >= MIN_BATCH_SPEEDUP, (
            f"extract_many only {t_scalar / t_batch:.1f}x faster than the "
            f"scalar loop (floor {MIN_BATCH_SPEEDUP}x; see {PERF_OUTPUT})")
        assert t_fold < t_recompute_features, (
            f"incremental reprediction features slower than recompute: "
            f"{t_fold:.3f}s vs {t_recompute_features:.3f}s over "
            f"{n_repredictions} repredictions")
