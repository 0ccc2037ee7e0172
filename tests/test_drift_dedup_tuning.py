"""Tests for grid search."""

import numpy as np
import pytest

from repro.ml.tuning import grid_search
from repro.ml.tree import DecisionTreeClassifier


class TestGridSearch:
    def test_finds_adequate_depth(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(int)  # needs depth 2
        result = grid_search(
            lambda max_depth: DecisionTreeClassifier(max_depth=max_depth),
            {"max_depth": [1, 2, 4]}, X, y, n_splits=3, seed=0)
        assert result.best_params["max_depth"] in (2, 4)
        assert result.best_score > 0.9
        assert len(result.results) == 3
        # refit model predicts on new data
        assert result.best_model.predict(X[:5]).shape == (5,)

    def test_ranked_order(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] > 0).astype(int)
        result = grid_search(
            lambda max_depth: DecisionTreeClassifier(max_depth=max_depth),
            {"max_depth": [1, 3]}, X, y)
        ranked = result.ranked()
        assert ranked[0][1] >= ranked[-1][1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(lambda: None, {}, np.zeros((4, 1)), [0, 1, 0, 1])
