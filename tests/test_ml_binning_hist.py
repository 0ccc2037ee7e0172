"""Tests for quantile binning and the histogram tree growers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml._binning import BinMapper
from repro.ml._hist import (TreeParams, _best_gini_split,
                            _best_newton_split, _class_node_histograms,
                            _newton_node_histograms,
                            grow_classification_tree, grow_regression_tree)
from repro.ml.tree import DecisionTreeClassifier


class TestBinMapper:
    def test_few_distinct_values_get_own_bins(self):
        X = np.array([[0.0], [1.0], [2.0], [1.0]])
        mapper = BinMapper(max_bins=255)
        binned = mapper.fit_transform(X)
        assert len(np.unique(binned)) == 3
        # order preserved
        assert binned[0, 0] < binned[1, 0] < binned[2, 0]

    def test_many_values_capped_at_max_bins(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10_000, 1))
        mapper = BinMapper(max_bins=64)
        binned = mapper.fit_transform(X)
        assert binned.max() < 64

    def test_transform_monotonic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 1))
        mapper = BinMapper(max_bins=32).fit(X)
        order = np.argsort(X[:, 0])
        codes = mapper.transform(X)[order, 0]
        assert (np.diff(codes.astype(int)) >= 0).all()

    def test_nan_goes_to_missing_bin(self):
        X = np.array([[0.0], [1.0], [np.nan]])
        mapper = BinMapper()
        binned = mapper.fit_transform(X)
        assert binned[2, 0] == mapper.missing_bin_[0]

    def test_out_of_range_values_clamp(self):
        mapper = BinMapper().fit(np.array([[0.0], [1.0], [2.0]]))
        binned = mapper.transform(np.array([[-100.0], [100.0]]))
        assert binned[0, 0] == 0
        assert binned[1, 0] >= binned[0, 0]

    def test_feature_count_mismatch_rejected(self):
        mapper = BinMapper().fit(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mapper.transform(np.zeros((4, 3)))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((1, 1)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_fit_transform_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(100, 3))
        a = BinMapper(max_bins=16).fit_transform(X)
        b = BinMapper(max_bins=16).fit_transform(X)
        assert (a == b).all()


class TestClassificationGrower:
    def _grow(self, X, y, w=None, **kw):
        mapper = BinMapper()
        binned = mapper.fit_transform(X)
        n_bins = int(mapper.n_bins_.max())
        params = TreeParams(**kw)
        rng = np.random.default_rng(0)
        weights = np.ones(len(y)) if w is None else np.asarray(w, float)
        tree = grow_classification_tree(
            binned, np.asarray(y, dtype=np.int64), weights,
            int(np.max(y)) + 1, n_bins, params, rng)
        return tree, mapper

    def test_separable_data_pure_leaves(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = [0, 0, 1, 1]
        tree, mapper = self._grow(X, y)
        proba = tree.predict_value(mapper.transform(X))
        assert (np.argmax(proba, axis=1) == y).all()

    def test_matches_exact_tree_on_clean_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 5))
        y = ((X[:, 0] > 0.2) & (X[:, 3] < 0.5)).astype(int)
        tree, mapper = self._grow(X, y, max_depth=4)
        hist_pred = np.argmax(tree.predict_value(mapper.transform(X)), axis=1)
        exact = DecisionTreeClassifier(max_depth=4).fit(X, y)
        exact_pred = exact.predict(X)
        agreement = (hist_pred == exact_pred).mean()
        assert agreement > 0.98

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 2))
        y = rng.integers(0, 2, size=64)
        tree, _ = self._grow(X, y, min_samples_leaf=32)
        assert tree.n_leaves <= 2

    def test_weighted_majority(self):
        X = np.zeros((3, 1))
        y = [0, 0, 1]
        tree, mapper = self._grow(X, y, w=[1.0, 1.0, 10.0])
        proba = tree.predict_value(mapper.transform(X))
        assert np.argmax(proba[0]) == 1


class TestRegressionGrower:
    def _grow(self, X, grad, hess, leafwise=False, **kw):
        mapper = BinMapper()
        binned = mapper.fit_transform(X)
        n_bins = int(mapper.n_bins_.max())
        params = TreeParams(**kw)
        rng = np.random.default_rng(0)
        tree = grow_regression_tree(binned, np.asarray(grad, float),
                                    np.asarray(hess, float), n_bins, params,
                                    rng, leafwise=leafwise)
        return tree, mapper

    def test_leaf_values_are_newton_steps(self):
        # one leaf only: value must be -G/(H + lambda)
        X = np.zeros((4, 1))
        grad = [1.0, 1.0, 1.0, 1.0]
        hess = [1.0, 1.0, 1.0, 1.0]
        tree, mapper = self._grow(X, grad, hess, reg_lambda=1.0)
        value = tree.predict_value(mapper.transform(X))[0, 0]
        assert value == pytest.approx(-4.0 / 5.0)

    def test_split_separates_gradient_signs(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        grad = np.array([1.0, 1.0, -1.0, -1.0])
        hess = np.ones(4)
        tree, mapper = self._grow(X, grad, hess, reg_lambda=0.0)
        values = tree.predict_value(mapper.transform(X))[:, 0]
        assert values[0] == pytest.approx(-1.0)
        assert values[2] == pytest.approx(1.0)

    def test_gamma_blocks_weak_splits(self):
        X = np.array([[0.0], [1.0]] * 10)
        grad = np.array([0.01, -0.01] * 10)
        hess = np.ones(20)
        tree, _ = self._grow(X, grad, hess, gamma=100.0)
        assert len(tree) == 1  # root only

    def test_leafwise_respects_max_leaves(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(500, 4))
        grad = rng.normal(size=500)
        hess = np.ones(500)
        tree, _ = self._grow(X, grad, hess, leafwise=True, max_leaves=8,
                             min_samples_leaf=5)
        assert tree.n_leaves <= 8

    def test_leafwise_greedy_order(self):
        # leaf-wise growth with 2 leaves must take the single best split,
        # identical to depth-wise with depth 1.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 3))
        grad = np.where(X[:, 1] > 0, 1.0, -1.0) + rng.normal(0, .1, 300)
        hess = np.ones(300)
        leafwise, mapper = self._grow(X, grad, hess, leafwise=True,
                                      max_leaves=2)
        depthwise, _ = self._grow(X, grad, hess, leafwise=False, max_depth=1)
        binned = mapper.transform(X)
        assert np.allclose(leafwise.predict_value(binned),
                           depthwise.predict_value(binned))

    def test_sample_idx_restricts_training_rows(self):
        X = np.vstack([np.zeros((10, 1)), np.ones((10, 1))])
        grad = np.concatenate([np.ones(10), -np.ones(10)])
        hess = np.ones(20)
        # train only on the first half: no split possible, leaf from subset
        tree, mapper = self._grow(X, grad, hess)
        sub_tree, _ = self._grow(X[:10], grad[:10], hess[:10])
        assert len(tree) > 1
        assert len(sub_tree) == 1


def _full_width_gini_split(weights, counts, features, min_samples_leaf):
    """Reference: score every threshold of every feature over all bins."""
    sub_w = weights[features]
    sub_c = counts[features]
    left_w = np.cumsum(sub_w, axis=1)[:, :-1, :]
    left_c = np.cumsum(sub_c, axis=1)[:, :-1]
    total_w = sub_w.sum(axis=1)
    total_c = sub_c.sum(axis=1)
    right_w = total_w[:, None, :] - left_w
    right_c = total_c[:, None] - left_c
    wl = left_w.sum(axis=2)
    wr = right_w.sum(axis=2)
    w_tot = total_w.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        score_left = np.square(left_w).sum(axis=2) / np.where(wl > 0, wl, 1.0)
        score_right = np.square(right_w).sum(axis=2) / np.where(wr > 0, wr, 1.0)
        score_parent = (np.square(total_w).sum(axis=1)
                        / np.where(w_tot > 0, w_tot, 1.0))
    gains = score_left + score_right - score_parent[:, None]
    valid = ((left_c >= min_samples_leaf) & (right_c >= min_samples_leaf)
             & (wl > 0) & (wr > 0))
    gains = np.where(valid, gains, -np.inf)
    if gains.size == 0 or not np.any(np.isfinite(gains)):
        return -1, -1, -np.inf
    f_local, threshold = divmod(int(np.argmax(gains)), gains.shape[1])
    return (int(features[f_local]), int(threshold),
            float(gains[f_local, threshold]))


def _full_width_newton_split(hist_g, hist_h, hist_c, features, params):
    """Reference: score every threshold of every feature over all bins."""
    g, h, c = hist_g[features], hist_h[features], hist_c[features]
    gl = np.cumsum(g, axis=1)[:, :-1]
    hl = np.cumsum(h, axis=1)[:, :-1]
    cl = np.cumsum(c, axis=1)[:, :-1]
    g_tot, h_tot, c_tot = g.sum(axis=1), h.sum(axis=1), c.sum(axis=1)
    gr = g_tot[:, None] - gl
    hr = h_tot[:, None] - hl
    cr = c_tot[:, None] - cl
    lam = params.reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = np.square(g_tot) / (h_tot + lam)
        gains = (np.square(gl) / (hl + lam) + np.square(gr) / (hr + lam)
                 - parent[:, None]) / 2.0 - params.gamma
    gains = np.where(np.isfinite(gains), gains, -np.inf)
    valid = ((cl >= params.min_samples_leaf) & (cr >= params.min_samples_leaf)
             & (hl >= params.min_child_weight)
             & (hr >= params.min_child_weight))
    gains = np.where(valid, gains, -np.inf)
    if gains.size == 0 or not np.any(np.isfinite(gains)):
        return -1, -1, -np.inf
    f_local, threshold = divmod(int(np.argmax(gains)), gains.shape[1])
    return (int(features[f_local]), int(threshold),
            float(gains[f_local, threshold]))


def _sparse_binned(rng, n, d, n_bins):
    """Rows whose features each occupy a few scattered bins of ``n_bins``."""
    columns = []
    for _ in range(d):
        occupied = rng.choice(n_bins, size=int(rng.integers(1, 6)),
                              replace=False)
        columns.append(rng.choice(occupied, size=n))
    return np.stack(columns, axis=1).astype(np.uint8)


class TestSplitScans:
    """The growers score only occupied thresholds; a scan over every bin
    of every feature must pick the same split with the same gain, bit for
    bit (small-integer weights make exact ties common)."""

    N_BINS = 40

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_gini_matches_full_width_scan(self, seed, min_samples_leaf):
        rng = np.random.default_rng(seed)
        binned = _sparse_binned(rng, int(rng.integers(2, 30)), 5, self.N_BINS)
        y = rng.integers(0, 3, size=binned.shape[0])
        w = rng.integers(1, 3, size=binned.shape[0]).astype(float)
        weights, counts = _class_node_histograms(binned, y, w, 3, self.N_BINS)
        features = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
        assert _best_gini_split(weights, counts, features,
                                min_samples_leaf) == \
            _full_width_gini_split(weights, counts, features, min_samples_leaf)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4),
           st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.5]))
    def test_newton_matches_full_width_scan(self, seed, min_samples_leaf,
                                            reg_lambda, min_child_weight):
        rng = np.random.default_rng(seed)
        binned = _sparse_binned(rng, int(rng.integers(2, 30)), 5, self.N_BINS)
        grad = rng.choice([-1.0, -0.5, 0.5, 1.0], size=binned.shape[0])
        hess = rng.choice([0.25, 1.0], size=binned.shape[0])
        hist_g, hist_h, hist_c = _newton_node_histograms(
            binned, grad, hess, self.N_BINS)
        features = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
        params = TreeParams(min_samples_leaf=min_samples_leaf,
                            reg_lambda=reg_lambda,
                            min_child_weight=min_child_weight)
        assert _best_newton_split(hist_g, hist_h, hist_c, features,
                                  params) == \
            _full_width_newton_split(hist_g, hist_h, hist_c, features, params)
