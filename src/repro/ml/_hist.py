"""Histogram-based tree growers.

Split search on pre-binned features: instead of sorting a node's samples
per feature (exact CART), accumulate per-(feature, bin) statistics with one
``bincount`` and scan bin boundaries.  This is the core trick of LightGBM
and of XGBoost's ``hist`` method, and it is what makes fitting hundreds of
trees on fleet-scale data tractable in pure Python.

Two growers live here:

* :func:`grow_classification_tree` — weighted-gini splits on class
  histograms, depth-wise growth (used by the Random Forest);
* :func:`grow_regression_tree` — Newton gain
  ``GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) - gamma`` on
  gradient/hessian histograms, with depth-wise (XGBoost-style) or
  leaf-wise best-first (LightGBM-style) growth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

_LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    """Growth limits shared by both growers.

    Attributes:
        max_depth: maximum split depth (``None`` = unlimited).
        max_leaves: maximum number of leaves (``None`` = unlimited); the
            binding constraint for leaf-wise growth.
        min_samples_leaf: minimum (unweighted) samples in each child.
        min_gain: minimum split gain (on top of any gamma penalty).
        reg_lambda: L2 regularisation on leaf values (regression gain).
        gamma: per-split penalty subtracted from the Newton gain.
        min_child_weight: minimum hessian sum per child (regression).
        feature_fraction: fraction of features examined per split.
    """

    max_depth: Optional[int] = None
    max_leaves: Optional[int] = None
    min_samples_leaf: int = 1
    min_gain: float = 0.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 0.0
    feature_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.max_leaves is not None and self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("regularisers must be non-negative")


class HistTree:
    """A fitted tree over binned features.

    Splits compare bin codes: a sample goes left when
    ``binned[:, feature] <= bin_threshold``.
    """

    def __init__(self, value_shape: tuple) -> None:
        self.feature: List[int] = []
        self.bin_threshold: List[int] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[np.ndarray] = []
        self.value_shape = value_shape
        self.split_gains: dict = {}

    def add_leaf(self, value: np.ndarray) -> int:
        """Append a leaf; returns its node id."""
        self.feature.append(_LEAF)
        self.bin_threshold.append(-1)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(np.asarray(value, dtype=np.float64))
        return len(self.feature) - 1

    def make_split(self, node: int, feature: int, bin_threshold: int,
                   left: int, right: int, gain: float) -> None:
        """Turn leaf ``node`` into an internal node."""
        self.feature[node] = feature
        self.bin_threshold[node] = bin_threshold
        self.left[node] = left
        self.right[node] = right
        self.split_gains[node] = (feature, gain)

    def __len__(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for f in self.feature if f == _LEAF)

    def predict_value(self, binned: np.ndarray) -> np.ndarray:
        """Route binned samples to leaves; returns stacked leaf values."""
        n = binned.shape[0]
        out = np.empty((n,) + self.value_shape, dtype=np.float64)
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] == _LEAF:
                out[idx] = self.value[node]
                continue
            mask = binned[idx, self.feature[node]] <= self.bin_threshold[node]
            stack.append((self.left[node], idx[mask]))
            stack.append((self.right[node], idx[~mask]))
        return out

    def accumulate_importance(self, importance: np.ndarray) -> None:
        """Add this tree's split gains into a per-feature accumulator."""
        for feature, gain in self.split_gains.values():
            importance[feature] += gain


def _feature_subset(n_features: int, fraction: float,
                    rng: np.random.Generator) -> np.ndarray:
    if fraction >= 1.0:
        return np.arange(n_features)
    k = max(1, int(round(fraction * n_features)))
    return np.sort(rng.choice(n_features, size=k, replace=False))


# --------------------------------------------------------------------------
# Classification (gini) grower — depth-wise
# --------------------------------------------------------------------------

def _class_node_histograms(binned_node: np.ndarray, y_node: np.ndarray,
                           w_node: np.ndarray, n_classes: int,
                           n_bins: int) -> tuple:
    """Per-(feature, bin) class-weight and sample-count histograms.

    Returns ``(weights, counts)`` with shapes ``(d, n_bins, K)`` and
    ``(d, n_bins)``.  Built with one ``bincount`` per class — the key
    vectorisation that keeps per-node Python overhead constant.
    """
    n, d = binned_node.shape
    offsets = np.arange(d, dtype=np.int64) * n_bins
    weights = np.zeros((d, n_bins, n_classes), dtype=np.float64)
    counts = np.zeros((d, n_bins), dtype=np.float64)
    flat_all = (binned_node.astype(np.int64) + offsets).ravel()
    counts += np.bincount(flat_all, minlength=d * n_bins).reshape(d, n_bins)
    for k in range(n_classes):
        mask = y_node == k
        if not np.any(mask):
            continue
        flat = (binned_node[mask].astype(np.int64) + offsets).ravel()
        wk = np.repeat(w_node[mask], d)
        weights[:, :, k] = np.bincount(
            flat, weights=wk, minlength=d * n_bins).reshape(d, n_bins)
    return weights, counts


def _occupied_thresholds(counts: np.ndarray) -> tuple:
    """``(rows, thresholds)`` of the split candidates worth scoring.

    A threshold ``t`` sends bins ``<= t`` left.  Only thresholds at a
    feature's occupied bins are scored: an empty bin adds exactly 0.0 to
    every prefix sum, so its gain repeats the previous threshold's bit
    for bit and ``argmax`` (first occurrence) never lands on it, while an
    empty bin 0 leaves the left child empty, which is never valid.  The
    pairs come in (feature order, bin) order, so the first best candidate
    is the one a scan over every bin would pick.
    """
    return np.nonzero(counts[:, :-1] > 0)


def _best_gini_split(weights: np.ndarray, counts: np.ndarray,
                     features: np.ndarray, min_samples_leaf: int) -> tuple:
    """Best (feature, bin_threshold, gain) over candidate features.

    ``gain`` is the weighted impurity decrease
    ``W * gini(parent) - WL * gini(left) - WR * gini(right)``; returns
    gain ``-inf`` when no valid split exists.
    """
    sub_w = weights[features]            # (f, B, K)
    sub_c = counts[features]             # (f, B)
    rows, thresholds = _occupied_thresholds(sub_c)
    left_w = np.cumsum(sub_w[:, :-1, :], axis=1)[rows, thresholds]  # (m, K)
    left_c = np.cumsum(sub_c[:, :-1], axis=1)[rows, thresholds]
    # Totals over the full-width rows: a narrower row would re-associate
    # the pairwise sum and change the last bits.
    total_w = sub_w.sum(axis=1)                       # (f, K)
    total_c = sub_c.sum(axis=1)                       # (f,)
    right_w = total_w[rows] - left_w
    right_c = total_c[rows] - left_c

    wl = left_w.sum(axis=1)
    wr = right_w.sum(axis=1)
    w_tot = total_w.sum(axis=1)                       # (f,)
    # sum of squared class weights; gini decrease in "sum sq / W" form.
    with np.errstate(divide="ignore", invalid="ignore"):
        score_left = np.square(left_w).sum(axis=1) / np.where(wl > 0, wl, 1.0)
        score_right = np.square(right_w).sum(axis=1) / np.where(wr > 0, wr, 1.0)
        score_parent = (np.square(total_w).sum(axis=1)
                        / np.where(w_tot > 0, w_tot, 1.0))
    gains = score_left + score_right - score_parent[rows]
    valid = ((left_c >= min_samples_leaf)
             & (right_c >= min_samples_leaf)
             & (wl > 0) & (wr > 0))
    gains = np.where(valid, gains, -np.inf)
    if gains.size == 0 or not np.any(np.isfinite(gains)):
        return -1, -1, -np.inf
    best = int(np.argmax(gains))
    return (int(features[rows[best]]), int(thresholds[best]),
            float(gains[best]))


def grow_classification_tree(binned: np.ndarray, y: np.ndarray,
                             w: np.ndarray, n_classes: int, n_bins: int,
                             params: TreeParams,
                             rng: np.random.Generator) -> HistTree:
    """Grow a depth-wise gini tree on binned features.

    Leaf values are weighted class-frequency vectors (probabilities).
    """
    tree = HistTree(value_shape=(n_classes,))

    def leaf_value(idx: np.ndarray) -> np.ndarray:
        counts = np.bincount(y[idx], weights=w[idx], minlength=n_classes)
        total = counts.sum()
        if total <= 0:
            return np.full(n_classes, 1.0 / n_classes)
        return counts / total

    def grow(idx: np.ndarray, depth: int) -> int:
        node = tree.add_leaf(leaf_value(idx))
        if idx.size < 2 * params.min_samples_leaf:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node
        if np.all(y[idx] == y[idx[0]]):
            return node
        features = _feature_subset(binned.shape[1], params.feature_fraction,
                                   rng)
        weights, counts = _class_node_histograms(
            binned[idx], y[idx], w[idx], n_classes, n_bins)
        feature, threshold, gain = _best_gini_split(
            weights, counts, features, params.min_samples_leaf)
        if feature < 0 or gain <= params.min_gain:
            return node
        mask = binned[idx, feature] <= threshold
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        tree.make_split(node, feature, threshold, left, right, gain)
        return node

    grow(np.arange(binned.shape[0]), depth=0)
    return tree


# --------------------------------------------------------------------------
# Regression (Newton) grower — depth-wise or leaf-wise
# --------------------------------------------------------------------------

def _newton_node_histograms(binned_node: np.ndarray, grad: np.ndarray,
                            hess: np.ndarray, n_bins: int) -> tuple:
    """Per-(feature, bin) gradient, hessian and count histograms."""
    n, d = binned_node.shape
    offsets = np.arange(d, dtype=np.int64) * n_bins
    flat = (binned_node.astype(np.int64) + offsets).ravel()
    size = d * n_bins
    hist_g = np.bincount(flat, weights=np.repeat(grad, d),
                         minlength=size).reshape(d, n_bins)
    hist_h = np.bincount(flat, weights=np.repeat(hess, d),
                         minlength=size).reshape(d, n_bins)
    hist_c = np.bincount(flat, minlength=size).reshape(d, n_bins)
    return hist_g, hist_h, hist_c


def _best_newton_split(hist_g: np.ndarray, hist_h: np.ndarray,
                       hist_c: np.ndarray, features: np.ndarray,
                       params: TreeParams) -> tuple:
    """Best (feature, bin_threshold, gain) under the Newton objective."""
    g = hist_g[features]
    h = hist_h[features]
    c = hist_c[features]
    rows, thresholds = _occupied_thresholds(c)
    gl = np.cumsum(g[:, :-1], axis=1)[rows, thresholds]
    hl = np.cumsum(h[:, :-1], axis=1)[rows, thresholds]
    cl = np.cumsum(c[:, :-1], axis=1)[rows, thresholds]
    # Totals over the full-width rows: a narrower row would re-associate
    # the pairwise sum and change the last bits.
    g_tot = g.sum(axis=1)
    h_tot = h.sum(axis=1)
    c_tot = c.sum(axis=1)
    gr = g_tot[rows] - gl
    hr = h_tot[rows] - hl
    cr = c_tot[rows] - cl

    lam = params.reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = np.square(g_tot) / (h_tot + lam)
        gains = (np.square(gl) / (hl + lam)
                 + np.square(gr) / (hr + lam)
                 - parent[rows]) / 2.0 - params.gamma
    gains = np.where(np.isfinite(gains), gains, -np.inf)
    valid = ((cl >= params.min_samples_leaf)
             & (cr >= params.min_samples_leaf)
             & (hl >= params.min_child_weight)
             & (hr >= params.min_child_weight))
    gains = np.where(valid, gains, -np.inf)
    if gains.size == 0 or not np.any(np.isfinite(gains)):
        return -1, -1, -np.inf
    best = int(np.argmax(gains))
    return (int(features[rows[best]]), int(thresholds[best]),
            float(gains[best]))


def _newton_leaf_value(grad_sum: float, hess_sum: float,
                       reg_lambda: float) -> float:
    """Optimal leaf weight ``-G / (H + lambda)``."""
    return -grad_sum / (hess_sum + reg_lambda)


def grow_regression_tree(binned: np.ndarray, grad: np.ndarray,
                         hess: np.ndarray, n_bins: int, params: TreeParams,
                         rng: np.random.Generator,
                         leafwise: bool = False,
                         sample_idx: Optional[np.ndarray] = None) -> HistTree:
    """Grow one boosting tree on (grad, hess) with the Newton objective.

    Args:
        leafwise: when True grow best-first by gain until ``max_leaves``
            (LightGBM); otherwise grow depth-first to ``max_depth``
            (XGBoost's level-wise policy — the resulting tree is identical
            to level-order growth because every admissible split is taken).
        sample_idx: optional row subset to train on (GOSS / subsampling).
    """
    tree = HistTree(value_shape=(1,))
    root_idx = (np.arange(binned.shape[0])
                if sample_idx is None else np.asarray(sample_idx))

    def leaf_value(idx: np.ndarray) -> np.ndarray:
        return np.asarray([_newton_leaf_value(
            float(grad[idx].sum()), float(hess[idx].sum()),
            params.reg_lambda)])

    def find_split(idx: np.ndarray):
        features = _feature_subset(binned.shape[1], params.feature_fraction,
                                   rng)
        hist_g, hist_h, hist_c = _newton_node_histograms(
            binned[idx], grad[idx], hess[idx], n_bins)
        return _best_newton_split(hist_g, hist_h, hist_c, features, params)

    if leafwise:
        max_leaves = params.max_leaves or 31
        counter = 0
        root = tree.add_leaf(leaf_value(root_idx))
        heap: list = []

        def push(node: int, idx: np.ndarray, depth: int) -> None:
            nonlocal counter
            if idx.size < 2 * params.min_samples_leaf:
                return
            if params.max_depth is not None and depth >= params.max_depth:
                return
            feature, threshold, gain = find_split(idx)
            if feature < 0 or gain <= params.min_gain:
                return
            heapq.heappush(heap, (-gain, counter,
                                  (node, idx, depth, feature, threshold)))
            counter += 1

        push(root, root_idx, 0)
        n_leaves = 1
        while heap and n_leaves < max_leaves:
            neg_gain, _, (node, idx, depth, feature, threshold) = (
                heapq.heappop(heap))
            mask = binned[idx, feature] <= threshold
            left_idx, right_idx = idx[mask], idx[~mask]
            left = tree.add_leaf(leaf_value(left_idx))
            right = tree.add_leaf(leaf_value(right_idx))
            tree.make_split(node, feature, threshold, left, right, -neg_gain)
            n_leaves += 1
            push(left, left_idx, depth + 1)
            push(right, right_idx, depth + 1)
        return tree

    def grow(idx: np.ndarray, depth: int) -> int:
        node = tree.add_leaf(leaf_value(idx))
        if idx.size < 2 * params.min_samples_leaf:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node
        feature, threshold, gain = find_split(idx)
        if feature < 0 or gain <= params.min_gain:
            return node
        mask = binned[idx, feature] <= threshold
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        tree.make_split(node, feature, threshold, left, right, gain)
        return node

    grow(root_idx, depth=0)
    return tree
