"""Feature extraction for both Cordial predictors (Sections IV-B and IV-D).

Both featurizers consume a bank's event history *up to the trigger* (the
third distinct UER row) — exactly the information available when the
decision is made; the :class:`~repro.telemetry.collector.BMCCollector`
hands over precisely this snapshot, making look-ahead structurally
impossible.

Undefined values (e.g. "min CE row" in a bank that has no CEs) are encoded
as ``MISSING = -1`` — tree models split on the sentinel naturally.

Both featurizers are vectorized: :meth:`BankPatternFeaturizer.extract_many`
and :meth:`CrossRowFeaturizer.extract_blocks` pack each history once into
``(rows, times, type codes)`` arrays (:func:`pack_history`) and compute
every feature with NumPy reductions.  The online service goes one step
further and folds events into a
:class:`~repro.core.incremental.IncrementalFeatureState`, whose
:class:`CrossRowAggregates` feed the same column kernels.  The scalar
record-by-record walks that define the feature semantics live with the
tests (``tests/reference_features.py``), which hold these kernels to
bit-identical agreement with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.telemetry.events import ErrorRecord, ErrorType

MISSING = -1.0

#: Packed type codes (index into per-type arrays).
CE_CODE, UEO_CODE, UER_CODE = 0, 1, 2
_TYPE_CODE = {ErrorType.CE: CE_CODE, ErrorType.UEO: UEO_CODE,
              ErrorType.UER: UER_CODE}

#: Lattice multiples probed by the cross-row lattice-residual feature.
_LATTICE_KS = np.arange(1, 7, dtype=np.float64)


def pack_history(history: Sequence[ErrorRecord]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over a history -> ``(rows, times, codes)`` arrays.

    ``rows`` and ``times`` are float64, ``codes`` maps each record's
    :class:`ErrorType` to ``CE_CODE``/``UEO_CODE``/``UER_CODE``.  This is
    the single per-record Python loop of the vectorized path; everything
    downstream is NumPy reductions over these arrays.
    """
    n = len(history)
    rows = np.empty(n, dtype=np.float64)
    times = np.empty(n, dtype=np.float64)
    codes = np.empty(n, dtype=np.int8)
    code_of = _TYPE_CODE
    for index, record in enumerate(history):
        rows[index] = record.address.row
        times[index] = record.timestamp
        codes[index] = code_of[record.error_type]
    return rows, times, codes


def _diff_stats(values: np.ndarray) -> Tuple[float, float, float]:
    """min/max/mean of ``|consecutive difference|``; ``MISSING`` below
    two values."""
    if values.size < 2:
        return MISSING, MISSING, MISSING
    diffs = np.abs(np.diff(values))
    return float(diffs.min()), float(diffs.max()), float(diffs.mean())


def _segment_min_max(data: np.ndarray, starts: np.ndarray,
                     counts: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment min and max; ``MISSING`` where a segment is empty.

    The segments must tile ``data`` contiguously in order.  min/max are
    order-independent, so ``reduceat`` is bit-exact here.
    """
    mins = np.full(counts.shape, MISSING)
    maxs = np.full(counts.shape, MISSING)
    nonempty = counts > 0
    if data.size and nonempty.any():
        first = starts[nonempty]
        mins[nonempty] = np.minimum.reduceat(data, first)
        maxs[nonempty] = np.maximum.reduceat(data, first)
    return mins, maxs


def _segment_means(data: np.ndarray, starts: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """Per-segment mean, bit-identical to ``data[s:s+c].mean()``.

    ``np.mean`` sums the pairwise way, which below 8 elements is plain
    left-to-right accumulation from 0.0 — reproduced for all short
    segments at once by row-summing a zero-padded 7-column gather
    (appending ``+0.0`` terms is exact for the non-negative values fed
    here).  Longer segments fall back to a real per-segment ``mean``;
    ``reduceat`` is NOT usable for the sum — its accumulation order
    diverges from ``np.mean`` from 3 elements up.
    """
    means = np.full(counts.shape, MISSING)
    short = (counts > 0) & (counts < 8)
    if short.any():
        first = starts[short]
        width = counts[short]
        index = first[:, None] + np.arange(7)
        np.minimum(index, data.size - 1, out=index)
        block = data[index]
        block[np.arange(7) >= width[:, None]] = 0.0
        means[short] = block.sum(axis=1) / width
    for i in np.nonzero(counts >= 8)[0]:
        s = starts[i]
        means[i] = data[s:s + counts[i]].mean()
    return means


class BankPatternFeaturizer:
    """Failure-pattern features (Section IV-B).

    Spatial features — min/max rows of CEs, UEOs and UERs and the
    min/max/average row difference between consecutive errors (overall and
    per type), plus the pairwise gaps of the first three UER rows;
    temporal features — min/max occurrence-time differences per type;
    count features — CE/UEO totals before the first UER and at trigger
    time.
    """

    def feature_names(self) -> List[str]:
        """Names aligned with the columns of :meth:`extract_many`."""
        names: List[str] = []
        for kind in ("ce", "ueo", "uer"):
            names += [f"{kind}_row_min", f"{kind}_row_max",
                      f"{kind}_row_range", f"{kind}_row_mean"]
        for kind in ("all", "ce", "ueo", "uer"):
            names += [f"{kind}_rowdiff_min", f"{kind}_rowdiff_max",
                      f"{kind}_rowdiff_avg"]
        names += ["uer_gap_small", "uer_gap_large", "uer_gap_ratio",
                  "uer_span"]
        for kind in ("ce", "ueo", "uer"):
            names += [f"{kind}_timediff_min", f"{kind}_timediff_max"]
        names += ["uer_time_span", "trigger_to_last_error"]
        names += ["ce_before_first_uer", "ueo_before_first_uer",
                  "ce_total", "ueo_total", "uer_events_total",
                  "events_total"]
        names += ["ce_near_uer_min", "ce_near_uer_mean"]
        return names

    @property
    def n_features(self) -> int:
        """Length of the feature vector."""
        return len(self.feature_names())

    def extract_many(self, histories: Sequence[Sequence[ErrorRecord]]
                     ) -> np.ndarray:
        """Stack feature vectors for many bank histories (columnar).

        All histories are packed into one concatenated ``(rows, times,
        codes)`` column set in a single pass, and every feature column is
        computed for the whole batch at once with segment reductions —
        no per-history NumPy dispatch.  Every row is bit-identical to the
        scalar reference walk (``tests/test_feature_equivalence.py``).
        """
        if not histories:
            raise ValueError("cannot featurize an empty batch")
        n_hist = len(histories)
        lengths = np.fromiter((len(h) for h in histories),
                              dtype=np.int64, count=n_hist)
        if not lengths.all():
            raise ValueError("cannot featurize an empty history")
        offsets = np.zeros(n_hist + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        rows = np.empty(total, dtype=np.float64)
        times = np.empty(total, dtype=np.float64)
        codes = np.empty(total, dtype=np.int8)
        code_of = _TYPE_CODE
        position = 0
        for history in histories:
            for record in history:
                rows[position] = record.address.row
                times[position] = record.timestamp
                codes[position] = code_of[record.error_type]
                position += 1
        hist_index = np.repeat(np.arange(n_hist, dtype=np.int64), lengths)

        def segment_starts(counts: np.ndarray) -> np.ndarray:
            starts = np.zeros(counts.shape, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            return starts

        # Group records by (history, type); the stable sort preserves
        # time order inside each group, so every per-group reduction sees
        # the exact value sequence the scalar path iterates.
        group = hist_index * 3 + codes
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        g_rows = rows[order]
        g_times = times[order]
        g_counts = np.bincount(group, minlength=3 * n_hist)
        g_starts = segment_starts(g_counts)

        columns: List[np.ndarray] = []
        # Spatial: row min/max/range/mean per type.
        row_min, row_max = _segment_min_max(g_rows, g_starts, g_counts)
        row_mean = _segment_means(g_rows, g_starts, g_counts)
        for code in (CE_CODE, UEO_CODE, UER_CODE):
            lo, hi = row_min[code::3], row_max[code::3]
            spread = np.where(g_counts[code::3] > 0, hi - lo, MISSING)
            columns += [lo, hi, spread, row_mean[code::3]]
        # Spatial: consecutive row differences (time order) — overall and
        # per type.  Adjacent-pair masks drop the history/group seams.
        d_all = np.abs(rows[1:] - rows[:-1])[hist_index[1:]
                                             == hist_index[:-1]]
        d_counts = lengths - 1
        d_starts = segment_starts(d_counts)
        g_adjacent = sorted_group[1:] == sorted_group[:-1]
        dg_rows = np.abs(g_rows[1:] - g_rows[:-1])[g_adjacent]
        dg_counts = np.maximum(g_counts - 1, 0)
        dg_starts = segment_starts(dg_counts)
        d_min, d_max = _segment_min_max(d_all, d_starts, d_counts)
        columns += [d_min, d_max, _segment_means(d_all, d_starts, d_counts)]
        gd_min, gd_max = _segment_min_max(dg_rows, dg_starts, dg_counts)
        gd_mean = _segment_means(dg_rows, dg_starts, dg_counts)
        for code in (CE_CODE, UEO_CODE, UER_CODE):
            columns += [gd_min[code::3], gd_max[code::3], gd_mean[code::3]]
        # Spatial: the three-UER-row geometry, from the per-history sorted
        # distinct UER rows (integer keys make np.unique segment-aware).
        uer_mask = codes == UER_CODE
        base = int(rows.max()) + 2 if total else 2
        distinct = np.unique(hist_index[uer_mask] * base
                             + rows[uer_mask].astype(np.int64))
        du_hist = distinct // base
        du_rows = (distinct - du_hist * base).astype(np.float64)
        du_counts = np.bincount(du_hist, minlength=n_hist)
        du_starts = segment_starts(du_counts)
        gap_d = (du_rows[1:] - du_rows[:-1])[du_hist[1:] == du_hist[:-1]]
        gap_counts = np.maximum(du_counts - 1, 0)
        gap_min, gap_max = _segment_min_max(gap_d,
                                            segment_starts(gap_counts),
                                            gap_counts)
        two_plus = du_counts >= 2
        ratio = np.full(n_hist, MISSING)
        ratio[two_plus] = gap_max[two_plus] / (gap_min[two_plus] + 1.0)
        span = np.full(n_hist, MISSING)
        span[two_plus] = (du_rows[du_starts[two_plus]
                                  + du_counts[two_plus] - 1]
                          - du_rows[du_starts[two_plus]])
        columns += [gap_min, gap_max, ratio, span]
        # Temporal: min/max time differences per type.
        dg_times = np.abs(g_times[1:] - g_times[:-1])[g_adjacent]
        t_min, t_max = _segment_min_max(dg_times, dg_starts, dg_counts)
        for code in (CE_CODE, UEO_CODE, UER_CODE):
            columns += [t_min[code::3], t_max[code::3]]
        uer_counts = g_counts[UER_CODE::3]
        uer_starts = g_starts[UER_CODE::3]
        t_span = np.full(n_hist, MISSING)
        multi = uer_counts >= 2
        t_span[multi] = (g_times[uer_starts[multi] + uer_counts[multi] - 1]
                         - g_times[uer_starts[multi]])
        columns.append(t_span)
        t_last = np.full(n_hist, MISSING)
        pair = lengths >= 2
        ends = offsets[1:]
        t_last[pair] = times[ends[pair] - 1] - times[ends[pair] - 2]
        columns.append(t_last)
        # Counts.
        first_uer = np.full(n_hist, np.inf)
        has_uer = uer_counts > 0
        first_uer[has_uer] = g_times[uer_starts[has_uer]]
        before = times < first_uer[hist_index]
        ce_mask = codes == CE_CODE
        ueo_mask = codes == UEO_CODE
        columns += [
            np.bincount(hist_index[before & ce_mask],
                        minlength=n_hist).astype(np.float64),
            np.bincount(hist_index[before & ueo_mask],
                        minlength=n_hist).astype(np.float64),
            g_counts[CE_CODE::3].astype(np.float64),
            g_counts[UEO_CODE::3].astype(np.float64),
            uer_counts.astype(np.float64),
            lengths.astype(np.float64),
        ]
        # CE proximity to distinct UER rows: each CE's nearest neighbour
        # is one of its two searchsorted neighbours in the same history.
        ce_counts = g_counts[CE_CODE::3]
        c_hist = hist_index[ce_mask]
        c_rows = rows[ce_mask]
        near = np.full(c_rows.shape, np.inf)
        if c_rows.size and distinct.size:
            pos = np.searchsorted(distinct,
                                  c_hist * base + c_rows.astype(np.int64))
            for candidate in (pos - 1, pos):
                valid = (candidate >= 0) & (candidate < distinct.size)
                safe = np.where(valid, candidate, 0)
                valid &= du_hist[safe] == c_hist
                np.minimum(near,
                           np.where(valid, np.abs(du_rows[safe] - c_rows),
                                    np.inf), out=near)
        c_starts = segment_starts(ce_counts)
        eligible = (ce_counts > 0) & (du_counts > 0)
        near_min, _ = _segment_min_max(near, c_starts, ce_counts)
        near_mean = _segment_means(near, c_starts, ce_counts)
        columns += [np.where(eligible, near_min, MISSING),
                    np.where(eligible, near_mean, MISSING)]
        return np.column_stack(columns)

    @staticmethod
    def family_of(name: str) -> str:
        """Feature family of one feature name (Section IV-B's taxonomy):
        ``"spatial"``, ``"temporal"`` or ``"count"``."""
        if ("timediff" in name or "time_span" in name
                or name == "trigger_to_last_error"):
            return "temporal"
        if name.endswith("_total") or name.endswith("before_first_uer"):
            return "count"
        return "spatial"


class FamilyMaskedFeaturizer:
    """A :class:`BankPatternFeaturizer` restricted to chosen families.

    Used by the feature-ablation study (which of the paper's three feature
    families carries the signal).
    """

    def __init__(self, families: Sequence[str],
                 base: "BankPatternFeaturizer" = None) -> None:
        valid = {"spatial", "temporal", "count"}
        self.families = set(families)
        if not self.families or not self.families <= valid:
            raise ValueError(f"families must be a non-empty subset of "
                             f"{sorted(valid)}")
        self.base = base or BankPatternFeaturizer()
        names = self.base.feature_names()
        self._keep = [i for i, name in enumerate(names)
                      if BankPatternFeaturizer.family_of(name)
                      in self.families]

    def feature_names(self) -> List[str]:
        """Names of the retained features."""
        names = self.base.feature_names()
        return [names[i] for i in self._keep]

    @property
    def n_features(self) -> int:
        """Number of retained features."""
        return len(self._keep)

    def extract_many(self, histories: Sequence[Sequence[ErrorRecord]]
                     ) -> np.ndarray:
        """Masked feature matrix."""
        return self.base.extract_many(histories)[:, self._keep]


@dataclass(frozen=True)
class CrossRowWindow:
    """Geometry of the cross-row prediction window (Section IV-D).

    The paper predicts within 128 rows — 64 above and 64 below the last
    UER row — split into 16 blocks of 8 rows.  Ablations vary both knobs.
    """

    half_window: int = 64
    block_rows: int = 8

    def __post_init__(self) -> None:
        if self.half_window < 1 or self.block_rows < 1:
            raise ValueError("window parameters must be positive")
        if (2 * self.half_window) % self.block_rows != 0:
            raise ValueError("window must divide evenly into blocks")

    @property
    def n_blocks(self) -> int:
        """Number of prediction blocks."""
        return (2 * self.half_window) // self.block_rows

    def block_range(self, last_uer_row: int, block: int,
                    total_rows: int = 32768) -> Tuple[int, int]:
        """Row interval ``[start, end)`` of ``block`` (clipped to the bank)."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range")
        start = last_uer_row - self.half_window + block * self.block_rows
        end = start + self.block_rows
        return max(0, start), min(total_rows, max(0, end))

    def block_of_row(self, last_uer_row: int, row: int) -> int:
        """Block index containing ``row``, or -1 when outside the window."""
        offset = row - (last_uer_row - self.half_window)
        if offset < 0 or offset >= 2 * self.half_window:
            return -1
        return offset // self.block_rows


@dataclass(frozen=True)
class CrossRowAggregates:
    """Everything :class:`CrossRowFeaturizer` needs from a bank history.

    Both extraction paths reduce a history to this record before the
    per-block column kernels run: the batch path builds it from a packed
    history in one pass (:meth:`CrossRowFeaturizer.aggregate_history`),
    the online path maintains it incrementally
    (:meth:`repro.core.incremental.IncrementalFeatureState.aggregates`).
    Equal aggregates produce bit-identical block matrices by construction.

    Attributes:
        rows_by_type: per type code, ``(distinct rows sorted ascending,
            event multiplicities)`` — both float64/int64 arrays.
        uer_occurrence: distinct UER rows in first-occurrence order.
        uer_times: every UER timestamp, in stream order.
        since_last: newest event timestamp minus the previous event's
            (``MISSING`` for a single-event history).
        totals: ``(ce, ueo, uer, all)`` event counts.
    """

    rows_by_type: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    uer_occurrence: np.ndarray
    uer_times: np.ndarray
    since_last: float
    totals: Tuple[float, float, float, float]


class CrossRowFeaturizer:
    """Per-block features for cross-row UER prediction (Section IV-D).

    Every (bank, block) sample combines block geometry (index, distance
    from the last UER row), block-local error history (CE/UEO/UER counts
    inside the block and its side of the window), and bank-level context
    (the spatial/temporal/count features of Section IV-D: error row
    numbers and differences, inter-arrival times, time since last event,
    per-type totals).
    """

    def __init__(self, window: CrossRowWindow | None = None,
                 total_rows: int = 32768) -> None:
        self.window = window or CrossRowWindow()
        self.total_rows = total_rows

    def feature_names(self) -> List[str]:
        """Names aligned with the columns of :meth:`extract_blocks`."""
        names = [
            "block_index", "block_center_offset", "block_center_distance",
            "block_ce_count", "block_ueo_count", "block_uer_count",
            "side_ce_count", "side_ueo_count", "side_uer_count",
            "window_ce_count", "window_ueo_count", "window_uer_count",
            "dist_block_to_nearest_uer", "dist_block_to_nearest_ce",
            "dist_block_to_uer_centroid",
            "uer_row_std", "uer_row_span", "uer_gap_small", "uer_gap_large",
            "last_step_signed", "last_step_abs",
            "dist_to_forward_step", "dist_to_backward_step",
            "lattice_residual_last", "lattice_residual_prev",
            "step_regularity", "steps_same_direction",
            "uer_timediff_min", "uer_timediff_max", "uer_timediff_mean",
            "time_since_last_event", "ce_total", "ueo_total", "uer_total",
            "events_total",
        ]
        return names

    @property
    def n_features(self) -> int:
        """Length of one block's feature vector."""
        return len(self.feature_names())

    # -- aggregation ---------------------------------------------------------
    @staticmethod
    def aggregate_history(history: Sequence[ErrorRecord]
                          ) -> CrossRowAggregates:
        """Reduce one history to :class:`CrossRowAggregates` (one pass)."""
        if not history:
            raise ValueError("cannot featurize an empty history")
        rows, times, codes = pack_history(history)
        rows_by_type = []
        for code in (CE_CODE, UEO_CODE, UER_CODE):
            distinct, counts = np.unique(rows[codes == code],
                                         return_counts=True)
            rows_by_type.append((distinct, counts))
        uer_mask = codes == UER_CODE
        uer_sub = rows[uer_mask]
        distinct, first_index = np.unique(uer_sub, return_index=True)
        occurrence = distinct[np.argsort(first_index, kind="stable")]
        since_last = (float(times[-1]) - float(times[-2])
                      if times.size >= 2 else MISSING)
        totals = (float(np.count_nonzero(codes == CE_CODE)),
                  float(np.count_nonzero(codes == UEO_CODE)),
                  float(np.count_nonzero(uer_mask)),
                  float(rows.size))
        return CrossRowAggregates(
            rows_by_type=tuple(rows_by_type),
            uer_occurrence=occurrence,
            uer_times=times[uer_mask],
            since_last=since_last,
            totals=totals,
        )

    # -- extraction ----------------------------------------------------------
    def extract_blocks(self, history: Sequence[ErrorRecord],
                       last_uer_row: int) -> np.ndarray:
        """Feature matrix of shape ``(n_blocks, n_features)`` (vectorized).

        Packs the history once, reduces it to
        :class:`CrossRowAggregates`, then computes every block column
        with NumPy kernels.  Bit-identical to the scalar reference walk
        (``tests/test_feature_equivalence.py``).
        """
        return self.extract_from_aggregates(self.aggregate_history(history),
                                            last_uer_row)

    def extract_from_aggregates(self, agg: CrossRowAggregates,
                                last_uer_row: int) -> np.ndarray:
        """Block feature matrix from pre-reduced history aggregates.

        This is the kernel both the batch path and the incremental online
        path share — feeding it equal aggregates is what makes the two
        paths bit-identical by construction.
        """
        window = self.window
        n_blocks = window.n_blocks
        uer_arr = agg.rows_by_type[UER_CODE][0]
        ce_arr = agg.rows_by_type[CE_CODE][0]
        centroid = float(uer_arr.mean()) if uer_arr.size else MISSING
        uer_std = float(uer_arr.std()) if uer_arr.size else MISSING
        uer_span = (float(uer_arr.max() - uer_arr.min()) if uer_arr.size
                    else MISSING)
        if uer_arr.size >= 2:
            gaps = np.sort(np.diff(np.sort(uer_arr)))
            gap_small, gap_large = float(gaps[0]), float(gaps[-1])
        else:
            gap_small = gap_large = MISSING
        occurrence = agg.uer_occurrence
        if occurrence.size >= 2:
            last_step = float(occurrence[-1] - occurrence[-2])
        else:
            last_step = 0.0
        prev_step = (float(occurrence[-2] - occurrence[-3])
                     if occurrence.size >= 3 else last_step)
        step_regularity = (abs(abs(last_step) - abs(prev_step))
                           if occurrence.size >= 3 else MISSING)
        steps_same_direction = (float(np.sign(last_step)
                                      == np.sign(prev_step))
                                if occurrence.size >= 3 else MISSING)
        t_lo, t_hi, t_mean = _diff_stats(agg.uer_times)

        # Block geometry, clipped exactly like CrossRowWindow.block_range.
        block_index = np.arange(n_blocks, dtype=np.float64)
        raw_starts = (last_uer_row - window.half_window
                      + block_index * window.block_rows)
        starts = np.maximum(0.0, raw_starts)
        ends = np.minimum(float(self.total_rows),
                          np.maximum(0.0, raw_starts + window.block_rows))
        centers = (starts + ends) / 2.0
        offsets = centers - last_uer_row
        abs_offsets = np.abs(offsets)
        window_lo = float(last_uer_row - window.half_window)
        window_hi = float(last_uer_row + window.half_window)

        cumulative_by_type = [np.concatenate(([0], np.cumsum(counts)))
                              for _, counts in agg.rows_by_type]

        def range_counts(code: int, lo, hi) -> np.ndarray:
            distinct = agg.rows_by_type[code][0]
            cumulative = cumulative_by_type[code]
            i = np.searchsorted(distinct, lo, side="left")
            j = np.searchsorted(distinct, hi, side="left")
            return (cumulative[j] - cumulative[i]).astype(np.float64)

        block_counts = [range_counts(code, starts, ends)
                        for code in (CE_CODE, UEO_CODE, UER_CODE)]
        below = centers < last_uer_row
        side_counts = []
        for code in (CE_CODE, UEO_CODE, UER_CODE):
            low_side, high_side = range_counts(
                code,
                np.asarray([window_lo, float(last_uer_row)]),
                np.asarray([float(last_uer_row), window_hi]))
            side_counts.append(np.where(below, low_side, high_side))
        window_counts = [
            float(range_counts(code,
                               np.asarray([window_lo]),
                               np.asarray([window_hi]))[0])
            for code in (CE_CODE, UEO_CODE, UER_CODE)]

        if uer_arr.size:
            d_uer = np.abs(centers[:, None] - uer_arr[None, :]).min(axis=1)
        else:
            d_uer = np.full(n_blocks, MISSING)
        if ce_arr.size:
            d_ce = np.abs(centers[:, None] - ce_arr[None, :]).min(axis=1)
        else:
            d_ce = np.full(n_blocks, MISSING)
        if centroid != MISSING:
            d_centroid = np.abs(centers - centroid)
        else:
            d_centroid = np.full(n_blocks, MISSING)
        d_forward = np.abs(centers - (last_uer_row + last_step))
        d_backward = np.abs(centers - (last_uer_row - last_step))

        def lattice_residual(step: float) -> np.ndarray:
            """How far each block center is from the nearest multiple of
            ``step`` — small when a block sits on the error lattice."""
            step = abs(step)
            if step < 1:
                return np.full(n_blocks, MISSING)
            return np.abs(abs_offsets[:, None]
                          - step * _LATTICE_KS[None, :]).min(axis=1)

        def full(value: float) -> np.ndarray:
            return np.full(n_blocks, value)

        columns = (
            [block_index, offsets, abs_offsets]
            + block_counts + side_counts
            + [full(c) for c in window_counts]
            + [d_uer, d_ce, d_centroid,
               full(uer_std), full(uer_span),
               full(gap_small), full(gap_large),
               full(last_step), full(abs(last_step)),
               d_forward, d_backward,
               lattice_residual(last_step), lattice_residual(prev_step),
               full(step_regularity), full(steps_same_direction),
               full(t_lo), full(t_hi), full(t_mean), full(agg.since_last)]
            + [full(t) for t in agg.totals])
        return np.column_stack(columns)

    def block_labels(self, last_uer_row: int, trigger_time: float,
                     future_uer_rows: Sequence[Tuple[float, int]]
                     ) -> np.ndarray:
        """Ground-truth block labels: does a future UER land in each block?

        Args:
            future_uer_rows: ``(first_uer_time, row)`` pairs with
                ``first_uer_time > trigger_time``.
        """
        labels = np.zeros(self.window.n_blocks, dtype=bool)
        for when, row in future_uer_rows:
            if when <= trigger_time:
                continue
            block = self.window.block_of_row(last_uer_row, row)
            if block >= 0:
                labels[block] = True
        return labels
