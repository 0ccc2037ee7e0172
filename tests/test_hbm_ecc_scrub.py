"""Tests for the ECC model."""

import math

import numpy as np
import pytest

from repro.hbm.ecc import ECCConfig, ECCModel, ECCOutcome


class TestECCModel:
    def test_single_bit_is_ce(self):
        model = ECCModel()
        rng = np.random.default_rng(0)
        assert model.classify_bits(1, rng) is ECCOutcome.CE

    def test_multi_bit_is_uncorrectable(self):
        model = ECCModel()
        rng = np.random.default_rng(0)
        outcome = model.classify_bits(3, rng)
        assert outcome.is_uncorrectable

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            ECCModel().classify_bits(0, np.random.default_rng(0))

    def test_ueo_probability_closed_form(self):
        config = ECCConfig(scrub_period_s=1000.0, access_rate_hz=0.001)
        model = ECCModel(config)
        x = 0.001 * 1000.0
        expected = (1 - math.exp(-x)) / x
        assert model.ueo_probability() == pytest.approx(expected)

    def test_ueo_probability_no_accesses(self):
        config = ECCConfig(access_rate_hz=0.0)
        assert ECCModel(config).ueo_probability() == 1.0

    def test_ueo_uer_split_matches_probability(self):
        model = ECCModel()
        rng = np.random.default_rng(7)
        outcomes = [model.classify_uncorrectable(rng) for _ in range(5000)]
        ueo_rate = sum(o is ECCOutcome.UEO for o in outcomes) / len(outcomes)
        assert abs(ueo_rate - model.ueo_probability()) < 0.03

    def test_default_split_matches_table2_row_ratio(self):
        # Table II: 4888 UEO rows vs 5209 UER rows -> p_ueo ~ 0.48.
        p = ECCModel().ueo_probability()
        assert 0.42 < p < 0.55

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ECCConfig(correctable_bits=-1)
        with pytest.raises(ValueError):
            ECCConfig(detectable_bits=0, correctable_bits=1)
        with pytest.raises(ValueError):
            ECCConfig(scrub_period_s=0)
