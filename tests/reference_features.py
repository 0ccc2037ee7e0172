"""Scalar reference implementations of the Cordial feature extractors.

These walk a bank history record by record (and the cross-row window
block by block) and define the exact feature semantics.  Production code
never calls them: it runs the vectorized
:meth:`~repro.core.features.BankPatternFeaturizer.extract_many` and
:meth:`~repro.core.features.CrossRowFeaturizer.extract_blocks` kernels,
and the online service folds events into
:class:`~repro.core.incremental.IncrementalFeatureState`.  The
equivalence tests (``tests/test_feature_equivalence.py``) and the
feature-path benchmark hold those kernels to bit-identical agreement
with the functions here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.features import (CE_CODE, MISSING, UEO_CODE, UER_CODE,
                                 CrossRowFeaturizer, _diff_stats)
from repro.telemetry.events import ErrorRecord, ErrorType


def _stats_min_max_avg(values: Sequence[float]) -> Tuple[float, float, float]:
    if not len(values):
        return MISSING, MISSING, MISSING
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.min()), float(arr.max()), float(arr.mean())


def _consecutive_diffs(values: Sequence[float]) -> List[float]:
    return [abs(b - a) for a, b in zip(values, values[1:])]


def pattern_features(history: Sequence[ErrorRecord]) -> np.ndarray:
    """Bank-pattern feature vector of one history (trigger included).

    Column order is ``BankPatternFeaturizer().feature_names()``.
    """
    if not history:
        raise ValueError("cannot featurize an empty history")
    rows = {kind: [] for kind in ErrorType}
    times = {kind: [] for kind in ErrorType}
    all_rows: List[float] = []
    for record in history:
        rows[record.error_type].append(float(record.row))
        times[record.error_type].append(record.timestamp)
        all_rows.append(float(record.row))

    features: List[float] = []
    # Spatial: row min/max/range/mean per type.
    for kind in (ErrorType.CE, ErrorType.UEO, ErrorType.UER):
        r = rows[kind]
        if r:
            lo, hi, mean = _stats_min_max_avg(r)
            features += [lo, hi, hi - lo, mean]
        else:
            features += [MISSING] * 4
    # Spatial: consecutive row differences (time order).
    for seq in (all_rows, rows[ErrorType.CE], rows[ErrorType.UEO],
                rows[ErrorType.UER]):
        features += list(_stats_min_max_avg(_consecutive_diffs(seq)))
    # Spatial: the three-UER-row geometry the paper leans on.
    uer_rows_sorted = sorted(set(rows[ErrorType.UER]))
    if len(uer_rows_sorted) >= 3:
        gaps = sorted(b - a for a, b in zip(uer_rows_sorted,
                                            uer_rows_sorted[1:]))
        small, large = gaps[0], gaps[-1]
        ratio = large / (small + 1.0)
        span = uer_rows_sorted[-1] - uer_rows_sorted[0]
        features += [small, large, ratio, span]
    elif len(uer_rows_sorted) == 2:
        gap = uer_rows_sorted[1] - uer_rows_sorted[0]
        features += [gap, gap, gap / (gap + 1.0), gap]
    else:
        features += [MISSING, MISSING, MISSING, MISSING]
    # Temporal: min/max time differences per type.
    for kind in (ErrorType.CE, ErrorType.UEO, ErrorType.UER):
        diffs = _consecutive_diffs(times[kind])
        lo, hi, _ = _stats_min_max_avg(diffs)
        features += [lo, hi]
    uer_times = times[ErrorType.UER]
    features.append(uer_times[-1] - uer_times[0] if len(uer_times) >= 2
                    else MISSING)
    trigger_time = history[-1].timestamp
    prior = [r.timestamp for r in history[:-1]]
    features.append(trigger_time - prior[-1] if prior else MISSING)
    # Counts.
    first_uer_time = uer_times[0] if uer_times else float("inf")
    ce_before = sum(1 for r in history
                    if r.error_type is ErrorType.CE
                    and r.timestamp < first_uer_time)
    ueo_before = sum(1 for r in history
                     if r.error_type is ErrorType.UEO
                     and r.timestamp < first_uer_time)
    features += [float(ce_before), float(ueo_before),
                 float(len(rows[ErrorType.CE])),
                 float(len(rows[ErrorType.UEO])),
                 float(len(rows[ErrorType.UER])),
                 float(len(history))]
    # CE proximity to UER rows (aggregation CEs hug the cluster).
    if rows[ErrorType.CE] and uer_rows_sorted:
        uer_arr = np.asarray(uer_rows_sorted)
        dists = [float(np.abs(uer_arr - ce_row).min())
                 for ce_row in rows[ErrorType.CE]]
        features += [min(dists), float(np.mean(dists))]
    else:
        features += [MISSING, MISSING]
    return np.asarray(features, dtype=np.float64)


def pattern_features_packed(rows: np.ndarray, times: np.ndarray,
                            codes: np.ndarray) -> np.ndarray:
    """:func:`pattern_features` of one packed history, per-history NumPy.

    Takes :func:`repro.core.features.pack_history` output.  A second,
    independently written reference: every reduction runs over the same
    float64 values in the same order the scalar walk sees them.
    """
    if rows.size == 0:
        raise ValueError("cannot featurize an empty history")
    type_masks = [codes == code for code in (CE_CODE, UEO_CODE, UER_CODE)]
    type_rows = [rows[mask] for mask in type_masks]
    type_times = [times[mask] for mask in type_masks]

    features: List[float] = []
    # Spatial: row min/max/range/mean per type.
    for r in type_rows:
        if r.size:
            lo, hi, mean = float(r.min()), float(r.max()), float(r.mean())
            features += [lo, hi, hi - lo, mean]
        else:
            features += [MISSING] * 4
    # Spatial: consecutive row differences (time order).
    for seq in (rows, type_rows[CE_CODE], type_rows[UEO_CODE],
                type_rows[UER_CODE]):
        features += list(_diff_stats(seq))
    # Spatial: the three-UER-row geometry the paper leans on.
    uer_unique = np.unique(type_rows[UER_CODE])
    if uer_unique.size >= 3:
        gaps = np.sort(np.diff(uer_unique))
        small, large = float(gaps[0]), float(gaps[-1])
        features += [small, large, large / (small + 1.0),
                     float(uer_unique[-1]) - float(uer_unique[0])]
    elif uer_unique.size == 2:
        gap = float(uer_unique[1]) - float(uer_unique[0])
        features += [gap, gap, gap / (gap + 1.0), gap]
    else:
        features += [MISSING, MISSING, MISSING, MISSING]
    # Temporal: min/max time differences per type.
    for t in type_times:
        lo, hi, _ = _diff_stats(t)
        features += [lo, hi]
    uer_times = type_times[UER_CODE]
    features.append(float(uer_times[-1]) - float(uer_times[0])
                    if uer_times.size >= 2 else MISSING)
    features.append(float(times[-1]) - float(times[-2])
                    if times.size >= 2 else MISSING)
    # Counts.
    first_uer_time = uer_times[0] if uer_times.size else np.inf
    before = times < first_uer_time
    features += [float(np.count_nonzero(type_masks[CE_CODE] & before)),
                 float(np.count_nonzero(type_masks[UEO_CODE] & before)),
                 float(type_rows[CE_CODE].size),
                 float(type_rows[UEO_CODE].size),
                 float(type_rows[UER_CODE].size),
                 float(rows.size)]
    # CE proximity to UER rows (aggregation CEs hug the cluster).
    ce_rows = type_rows[CE_CODE]
    if ce_rows.size and uer_unique.size:
        dists = np.abs(ce_rows[:, None] - uer_unique[None, :]).min(axis=1)
        features += [float(dists.min()), float(dists.mean())]
    else:
        features += [MISSING, MISSING]
    return np.asarray(features, dtype=np.float64)


def block_features(featurizer: CrossRowFeaturizer,
                   history: Sequence[ErrorRecord],
                   last_uer_row: int) -> np.ndarray:
    """Cross-row block feature matrix, one block at a time.

    Same shape and column order as ``featurizer.extract_blocks``; the
    window geometry and bank height come from ``featurizer``.
    """
    if not history:
        raise ValueError("cannot featurize an empty history")
    window = featurizer.window
    rows = {kind: [] for kind in ErrorType}
    for record in history:
        rows[record.error_type].append(record.row)
    uer_rows: List[int] = []
    seen = set()
    for record in history:
        if record.error_type is ErrorType.UER and record.row not in seen:
            seen.add(record.row)
            uer_rows.append(record.row)
    uer_arr = np.asarray(sorted(set(rows[ErrorType.UER])), dtype=float)
    ce_arr = np.asarray(sorted(rows[ErrorType.CE]), dtype=float)
    centroid = float(uer_arr.mean()) if uer_arr.size else MISSING
    uer_std = float(uer_arr.std()) if uer_arr.size else MISSING
    uer_span = (float(uer_arr.max() - uer_arr.min()) if uer_arr.size
                else MISSING)
    if uer_arr.size >= 2:
        gaps = np.sort(np.diff(np.sort(uer_arr)))
        gap_small, gap_large = float(gaps[0]), float(gaps[-1])
    else:
        gap_small = gap_large = MISSING
    if len(uer_rows) >= 2:
        last_step = float(uer_rows[-1] - uer_rows[-2])
    else:
        last_step = 0.0
    prev_step = (float(uer_rows[-2] - uer_rows[-3])
                 if len(uer_rows) >= 3 else last_step)
    step_regularity = (abs(abs(last_step) - abs(prev_step))
                       if len(uer_rows) >= 3 else MISSING)
    steps_same_direction = (float(np.sign(last_step)
                                  == np.sign(prev_step))
                            if len(uer_rows) >= 3 else MISSING)

    def lattice_residual(distance: float, step: float) -> float:
        """How far ``distance`` is from the nearest multiple of ``step``
        — small when a block sits on the error lattice."""
        step = abs(step)
        if step < 1:
            return MISSING
        best = min(abs(distance - k * step) for k in range(1, 7))
        return float(best)
    uer_times = [r.timestamp for r in history
                 if r.error_type is ErrorType.UER]
    tdiffs = _consecutive_diffs(uer_times)
    t_lo, t_hi, t_mean = _stats_min_max_avg(tdiffs)
    trigger_time = history[-1].timestamp
    prior_times = [r.timestamp for r in history[:-1]]
    since_last = (trigger_time - prior_times[-1]) if prior_times else MISSING
    totals = [float(len(rows[ErrorType.CE])),
              float(len(rows[ErrorType.UEO])),
              float(len(rows[ErrorType.UER])), float(len(history))]

    matrix = np.empty((window.n_blocks, featurizer.n_features),
                      dtype=np.float64)
    window_lo = last_uer_row - window.half_window
    window_hi = last_uer_row + window.half_window

    def count_in(kind: ErrorType, lo: float, hi: float) -> float:
        return float(sum(1 for r in rows[kind] if lo <= r < hi))

    window_counts = [count_in(k, window_lo, window_hi)
                     for k in (ErrorType.CE, ErrorType.UEO,
                               ErrorType.UER)]
    for block in range(window.n_blocks):
        start, end = window.block_range(last_uer_row, block,
                                        featurizer.total_rows)
        center = (start + end) / 2.0
        offset = center - last_uer_row
        below = center < last_uer_row
        side_lo, side_hi = ((window_lo, last_uer_row) if below
                            else (last_uer_row, window_hi))
        block_counts = [count_in(k, start, end)
                        for k in (ErrorType.CE, ErrorType.UEO,
                                  ErrorType.UER)]
        side_counts = [count_in(k, side_lo, side_hi)
                       for k in (ErrorType.CE, ErrorType.UEO,
                                 ErrorType.UER)]
        d_uer = (float(np.abs(uer_arr - center).min()) if uer_arr.size
                 else MISSING)
        d_ce = (float(np.abs(ce_arr - center).min()) if ce_arr.size
                else MISSING)
        d_centroid = (abs(center - centroid) if centroid != MISSING
                      else MISSING)
        d_forward = abs(center - (last_uer_row + last_step))
        d_backward = abs(center - (last_uer_row - last_step))
        matrix[block] = (
            [float(block), offset, abs(offset)]
            + block_counts + side_counts + window_counts
            + [d_uer, d_ce, d_centroid,
               uer_std, uer_span, gap_small, gap_large,
               last_step, abs(last_step),
               d_forward, d_backward,
               lattice_residual(abs(offset), last_step),
               lattice_residual(abs(offset), prev_step),
               step_regularity, steps_same_direction,
               t_lo, t_hi, t_mean, since_last]
            + totals)
    return matrix
