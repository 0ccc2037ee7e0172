"""Tests for feature-family tagging and the masked featurizer."""

import numpy as np
import pytest

from repro.core.features import BankPatternFeaturizer, FamilyMaskedFeaturizer
from repro.hbm.address import DeviceAddress
from repro.telemetry.events import ErrorRecord, ErrorType


def history():
    def rec(seq, t, row, error_type):
        address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                                pseudo_channel=0, bank_group=0, bank=0,
                                row=row, column=0)
        return ErrorRecord(timestamp=t, sequence=seq, address=address,
                           error_type=error_type)
    return [rec(0, 10.0, 100, ErrorType.CE),
            rec(1, 30.0, 110, ErrorType.UER),
            rec(2, 40.0, 150, ErrorType.UER),
            rec(3, 50.0, 190, ErrorType.UER)]


class TestFamilyTagging:
    def test_every_feature_has_a_family(self):
        featurizer = BankPatternFeaturizer()
        for name in featurizer.feature_names():
            assert BankPatternFeaturizer.family_of(name) in (
                "spatial", "temporal", "count")

    def test_known_examples(self):
        tag = BankPatternFeaturizer.family_of
        assert tag("uer_row_min") == "spatial"
        assert tag("uer_gap_ratio") == "spatial"
        assert tag("ce_timediff_min") == "temporal"
        assert tag("trigger_to_last_error") == "temporal"
        assert tag("ce_total") == "count"
        assert tag("ueo_before_first_uer") == "count"

    def test_all_three_families_present(self):
        featurizer = BankPatternFeaturizer()
        families = {BankPatternFeaturizer.family_of(n)
                    for n in featurizer.feature_names()}
        assert families == {"spatial", "temporal", "count"}


class TestFamilyMaskedFeaturizer:
    def test_subset_columns_match_base(self):
        base = BankPatternFeaturizer()
        masked = FamilyMaskedFeaturizer(["spatial"], base=base)
        full = base.extract_many([history()])[0]
        subset = masked.extract_many([history()])[0]
        names = base.feature_names()
        expected = [full[i] for i, name in enumerate(names)
                    if BankPatternFeaturizer.family_of(name) == "spatial"]
        assert np.allclose(subset, expected)
        assert masked.n_features == len(expected)
        assert len(masked.feature_names()) == masked.n_features

    def test_union_of_families_is_everything(self):
        base = BankPatternFeaturizer()
        total = sum(FamilyMaskedFeaturizer([family]).n_features
                    for family in ("spatial", "temporal", "count"))
        assert total == base.n_features

    def test_extract_many_shape(self):
        masked = FamilyMaskedFeaturizer(["count"])
        matrix = masked.extract_many([history(), history()])
        assert matrix.shape == (2, masked.n_features)

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            FamilyMaskedFeaturizer(["astral"])
        with pytest.raises(ValueError):
            FamilyMaskedFeaturizer([])
