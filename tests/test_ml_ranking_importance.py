"""Tests for ranking metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.ranking import (best_f1_threshold, pr_auc,
                              precision_recall_curve, roc_auc)


class TestROCAUC:
    def test_perfect_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(5000)
        labels = rng.random(5000) < 0.3
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.03)

    def test_ties_count_half(self):
        assert roc_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_hand_example(self):
        # positives at ranks 3,4 of 4 -> U = (3+4) - 3 = 4 of 4 -> 1.0;
        # one swap: scores [0.1, 0.8, 0.4, 0.9], labels [0,1,0,1]
        value = roc_auc([0.1, 0.8, 0.4, 0.9], [0, 1, 0, 1])
        assert value == pytest.approx(1.0)  # both positives above 0.4? no:
        # positive 0.8 > negatives 0.1,0.4; positive 0.9 > both -> 4/4

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(50)
        labels = np.concatenate([np.ones(10), np.zeros(40)]).astype(bool)
        assert (roc_auc(scores, labels)
                == pytest.approx(1.0 - roc_auc(-scores, labels)))


class TestPRCurve:
    def test_perfect_model(self):
        assert pr_auc([0.1, 0.9], [0, 1]) == pytest.approx(1.0)

    def test_constant_scores_give_prevalence(self):
        labels = [1, 0, 0, 0]
        assert pr_auc([0.5] * 4, labels) == pytest.approx(0.25)

    def test_curve_properties(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        labels = rng.random(200) < scores
        precision, recall, thresholds = precision_recall_curve(scores,
                                                               labels)
        assert (np.diff(recall) >= 0).all()
        assert (precision >= 0).all() and (precision <= 1).all()
        assert recall[-1] == pytest.approx(1.0)
        assert (np.diff(thresholds) <= 0).all()

    def test_pr_auc_between_0_and_1(self):
        rng = np.random.default_rng(2)
        scores = rng.random(300)
        labels = rng.random(300) < 0.2
        assert 0.0 <= pr_auc(scores, labels) <= 1.0

    def test_best_f1_threshold(self):
        scores = [0.1, 0.4, 0.6, 0.9]
        labels = [0, 0, 1, 1]
        threshold, f1 = best_f1_threshold(scores, labels)
        assert f1 == pytest.approx(1.0)
        assert 0.4 < threshold <= 0.6

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_curve([0.5], [0])
