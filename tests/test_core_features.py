"""Tests for both featurizers (pattern features and cross-row block features)."""

import numpy as np
import pytest

from repro.core.features import (MISSING, BankPatternFeaturizer,
                                 CrossRowFeaturizer, CrossRowWindow)
from repro.hbm.address import DeviceAddress
from repro.telemetry.events import ErrorRecord, ErrorType


def rec(seq, t, row, error_type):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=0,
                            row=row, column=0)
    return ErrorRecord(timestamp=t, sequence=seq, address=address,
                       error_type=error_type)


def history_with_three_uers():
    return [
        rec(0, 10.0, 100, ErrorType.CE),
        rec(1, 20.0, 140, ErrorType.UEO),
        rec(2, 30.0, 110, ErrorType.UER),
        rec(3, 40.0, 150, ErrorType.UER),
        rec(4, 50.0, 190, ErrorType.UER),
    ]


class TestBankPatternFeaturizer:
    def test_vector_length_matches_names(self):
        featurizer = BankPatternFeaturizer()
        vector = featurizer.extract_many([history_with_three_uers()])[0]
        assert vector.shape == (featurizer.n_features,)
        assert len(featurizer.feature_names()) == featurizer.n_features

    def test_named_values_hand_checked(self):
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        vector = featurizer.extract_many([history_with_three_uers()])[0]
        get = lambda n: vector[names.index(n)]
        assert get("uer_row_min") == 110
        assert get("uer_row_max") == 190
        assert get("uer_row_range") == 80
        assert get("uer_gap_small") == 40   # gaps 40, 40
        assert get("uer_gap_large") == 40
        assert get("uer_span") == 80
        assert get("ce_total") == 1
        assert get("ueo_total") == 1
        assert get("uer_events_total") == 3
        assert get("ce_before_first_uer") == 1
        assert get("ueo_before_first_uer") == 1
        assert get("uer_time_span") == 20.0
        assert get("trigger_to_last_error") == 10.0

    def test_missing_sentinels_without_ce(self):
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        history = [rec(i, 10.0 * (i + 1), 100 + i, ErrorType.UER)
                   for i in range(3)]
        vector = featurizer.extract_many([history])[0]
        assert vector[names.index("ce_row_min")] == MISSING
        assert vector[names.index("ce_near_uer_min")] == MISSING
        assert vector[names.index("ce_before_first_uer")] == 0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            BankPatternFeaturizer().extract_many([[]])

    def test_extract_many_stacks(self):
        featurizer = BankPatternFeaturizer()
        matrix = featurizer.extract_many([history_with_three_uers()] * 3)
        assert matrix.shape == (3, featurizer.n_features)

    def test_single_event_history_uses_missing_sentinels(self):
        """A one-record history has no pairs: every differential feature
        (time diffs, row diffs, trigger_to_last_error) must be MISSING,
        not a fabricated zero."""
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        vector = featurizer.extract_many(
            [[rec(0, 10.0, 100, ErrorType.UER)]])[0]
        get = lambda n: vector[names.index(n)]
        assert get("trigger_to_last_error") == MISSING
        for kind in ("ce", "ueo", "uer"):
            assert get(f"{kind}_timediff_min") == MISSING
            assert get(f"{kind}_timediff_max") == MISSING
        assert get("all_rowdiff_min") == MISSING
        assert get("uer_time_span") == MISSING
        assert get("uer_row_min") == 100
        assert get("events_total") == 1

    def test_uer_span_missing_below_two_distinct_rows(self):
        """uer_span falls back to MISSING — not 0.0 — when fewer than two
        distinct UER rows exist, so "no geometry" is distinguishable from
        a genuinely zero-width cluster of repeat UERs on one row."""
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        history = [rec(i, 10.0 * (i + 1), 100, ErrorType.UER)
                   for i in range(3)]  # three UERs, one distinct row
        vector = featurizer.extract_many([history])[0]
        get = lambda n: vector[names.index(n)]
        assert get("uer_span") == MISSING
        assert get("uer_gap_small") == MISSING
        assert get("uer_gap_large") == MISSING
        assert get("uer_gap_ratio") == MISSING
        assert get("uer_events_total") == 3

    def test_two_distinct_rows_gap_ratio_formula(self):
        """The two-row branch uses the same g / (g + 1) ratio formula as
        the three-row branch, not a hardcoded 1.0."""
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        history = [rec(0, 10.0, 100, ErrorType.UER),
                   rec(1, 20.0, 150, ErrorType.UER)]
        vector = featurizer.extract_many([history])[0]
        get = lambda n: vector[names.index(n)]
        assert get("uer_gap_small") == 50
        assert get("uer_gap_large") == 50
        assert get("uer_gap_ratio") == 50.0 / 51.0
        assert get("uer_span") == 50

    def test_duplicate_uer_rows_collapse_to_distinct(self):
        """Repeat UERs on already-seen rows do not fake a third distinct
        row: the geometry stays in the two-distinct-row branch."""
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        history = [rec(0, 10.0, 100, ErrorType.UER),
                   rec(1, 20.0, 150, ErrorType.UER),
                   rec(2, 30.0, 100, ErrorType.UER),
                   rec(3, 40.0, 150, ErrorType.UER)]
        vector = featurizer.extract_many([history])[0]
        get = lambda n: vector[names.index(n)]
        assert get("uer_gap_ratio") == 50.0 / 51.0  # two-row formula
        assert get("uer_span") == 50
        assert get("uer_events_total") == 4

    def test_all_uer_history_zero_other_counts(self):
        featurizer = BankPatternFeaturizer()
        names = featurizer.feature_names()
        history = [rec(i, 10.0 * (i + 1), 100 + 10 * i, ErrorType.UER)
                   for i in range(4)]
        vector = featurizer.extract_many([history])[0]
        get = lambda n: vector[names.index(n)]
        assert get("ce_total") == 0
        assert get("ueo_total") == 0
        assert get("ce_before_first_uer") == 0
        assert get("ueo_before_first_uer") == 0
        assert get("ce_row_min") == MISSING
        assert get("ce_near_uer_min") == MISSING
        assert get("uer_events_total") == 4


class TestCrossRowWindow:
    def test_paper_defaults(self):
        window = CrossRowWindow()
        assert window.half_window == 64
        assert window.block_rows == 8
        assert window.n_blocks == 16

    def test_block_ranges_tile_the_window(self):
        window = CrossRowWindow()
        last = 1000
        covered = []
        for block in range(window.n_blocks):
            start, end = window.block_range(last, block)
            covered.extend(range(start, end))
        assert covered == list(range(last - 64, last + 64))

    def test_block_of_row_roundtrip(self):
        window = CrossRowWindow()
        last = 5000
        for block in range(window.n_blocks):
            start, end = window.block_range(last, block)
            for row in (start, end - 1):
                assert window.block_of_row(last, row) == block

    def test_rows_outside_window(self):
        window = CrossRowWindow()
        assert window.block_of_row(1000, 1000 - 65) == -1
        assert window.block_of_row(1000, 1000 + 64) == -1

    def test_clipping_at_bank_edges(self):
        window = CrossRowWindow()
        start, end = window.block_range(10, 0, total_rows=32768)
        assert start == 0 and end == 0  # fully below the bank
        start, end = window.block_range(32760, 15, total_rows=32768)
        assert end == 32768

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CrossRowWindow(half_window=10, block_rows=3)
        with pytest.raises(ValueError):
            CrossRowWindow(half_window=0)


class TestCrossRowFeaturizer:
    def test_matrix_shape(self):
        featurizer = CrossRowFeaturizer()
        matrix = featurizer.extract_blocks(history_with_three_uers(), 190)
        assert matrix.shape == (16, featurizer.n_features)

    def test_block_counts_localised(self):
        featurizer = CrossRowFeaturizer()
        names = featurizer.feature_names()
        history = history_with_three_uers()
        matrix = featurizer.extract_blocks(history, 190)
        uer_col = names.index("block_uer_count")
        window = featurizer.window
        # UER at row 150 lies in the block containing 150
        block_150 = window.block_of_row(190, 150)
        assert matrix[block_150, uer_col] >= 1
        # blocks far below hold no UERs
        assert matrix[0, uer_col] == 0

    def test_forward_step_feature(self):
        featurizer = CrossRowFeaturizer()
        names = featurizer.feature_names()
        matrix = featurizer.extract_blocks(history_with_three_uers(), 190)
        fwd = matrix[:, names.index("dist_to_forward_step")]
        # last step = 190-150 = +40; forecast row = 230; its block center
        # is within 4 rows of 230
        window = featurizer.window
        block_230 = window.block_of_row(190, 230)
        assert fwd[block_230] == fwd.min()
        assert fwd[block_230] <= 4

    def test_step_regularity_zero_for_even_walk(self):
        featurizer = CrossRowFeaturizer()
        names = featurizer.feature_names()
        matrix = featurizer.extract_blocks(history_with_three_uers(), 190)
        assert (matrix[:, names.index("step_regularity")] == 0).all()
        assert (matrix[:, names.index("steps_same_direction")] == 1).all()

    def test_labels_from_future_rows(self):
        featurizer = CrossRowFeaturizer()
        future = [(60.0, 230), (70.0, 9999), (45.0, 130)]
        labels = featurizer.block_labels(190, trigger_time=50.0,
                                         future_uer_rows=future)
        window = featurizer.window
        assert labels[window.block_of_row(190, 230)]
        # row 9999 outside window, row 130 not after trigger
        assert labels.sum() == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            CrossRowFeaturizer().extract_blocks([], 100)
