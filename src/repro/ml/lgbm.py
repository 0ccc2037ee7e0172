"""LightGBM-style gradient boosting: leaf-wise growth + GOSS.

Differs from :mod:`repro.ml.gbdt` in the two ways that define LightGBM:

* **leaf-wise (best-first) growth** bounded by ``num_leaves`` rather than
  level-wise growth bounded by depth — trees spend their leaf budget where
  the gain is;
* **GOSS** (Gradient-based One-Side Sampling): each round keeps the
  ``top_rate`` fraction of samples with the largest gradient magnitude,
  samples ``other_rate`` of the rest, and up-weights the sampled small
  gradients by ``(1 - top_rate) / other_rate`` to keep the split gains
  unbiased.

Both models share the quantile-binned histogram split search.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml._binning import BinMapper
from repro.ml._compiled import compiled_ensemble
from repro.ml._hist import HistTree, TreeParams
from repro.ml.gbdt import _sigmoid, _softmax
from repro.ml.parallel import (BoostingPool, RoundSpec, RoundTask,
                               resolve_n_jobs)


class LGBMClassifier:
    """Leaf-wise Newton-boosted classifier.

    Args:
        n_estimators: boosting rounds.
        learning_rate: shrinkage per round.
        num_leaves: leaf budget per tree (LightGBM default 31).
        max_depth: optional extra depth cap (``None`` = unlimited).
        min_child_samples: minimum samples per leaf.
        reg_lambda: L2 regularisation of leaf values.
        min_split_gain: minimum gain to accept a split.
        feature_fraction: features examined per split.
        goss: enable Gradient-based One-Side Sampling.
        top_rate / other_rate: GOSS retention fractions.
        max_bins: histogram resolution.
        random_state: seed for sampling.  Every boosting round draws from
            its own ``SeedSequence`` child (see :mod:`repro.ml.parallel`),
            so the fitted ensemble is bit-identical for every ``n_jobs``.
        n_jobs: worker processes growing a round's per-class trees
            (``None``/``1`` = serial, ``-1`` = all cores).  Rounds remain
            sequential, so parallelism only pays off in multiclass mode;
            the result never depends on it.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 num_leaves: int = 31, max_depth: Optional[int] = None,
                 min_child_samples: int = 20, reg_lambda: float = 1.0,
                 min_split_gain: float = 0.0, feature_fraction: float = 1.0,
                 goss: bool = False, top_rate: float = 0.2,
                 other_rate: float = 0.1, max_bins: int = 255,
                 random_state: Optional[int] = None,
                 n_jobs: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if goss and not (0.0 < top_rate < 1.0 and 0.0 < other_rate
                         and top_rate + other_rate <= 1.0):
            raise ValueError("invalid GOSS rates")
        resolve_n_jobs(n_jobs)  # validate eagerly
        self.n_jobs = n_jobs
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.num_leaves = num_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.min_split_gain = min_split_gain
        self.feature_fraction = feature_fraction
        self.goss = goss
        self.top_rate = top_rate
        self.other_rate = other_rate
        self.max_bins = max_bins
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.trees_: List[List[HistTree]] = []
        self._mapper: Optional[BinMapper] = None
        self._compiled = None
        self.feature_importances_: Optional[np.ndarray] = None

    @property
    def _is_binary(self) -> bool:
        return len(self.classes_) == 2

    def _goss_sample(self, grad_matrix: np.ndarray,
                     rng: np.random.Generator) -> tuple:
        """GOSS row selection.

        Args:
            grad_matrix: per-sample gradient magnitudes (summed over classes
                in multiclass mode).
        Returns ``(sample_idx, multiplier)`` where ``multiplier`` scales the
        gradients/hessians of the sampled small-gradient rows.
        """
        n = grad_matrix.shape[0]
        n_top = max(1, int(round(self.top_rate * n)))
        n_other = max(1, int(round(self.other_rate * n)))
        order = np.argsort(-grad_matrix)
        top_idx = order[:n_top]
        rest = order[n_top:]
        if rest.size <= n_other:
            other_idx = rest
            amplify = 1.0
        else:
            other_idx = rng.choice(rest, size=n_other, replace=False)
            amplify = (1.0 - self.top_rate) / self.other_rate
        multiplier = np.ones(n, dtype=np.float64)
        multiplier[other_idx] = amplify
        sample_idx = np.sort(np.concatenate([top_idx, other_idx]))
        return sample_idx, multiplier

    def fit(self, X, y, sample_weight=None) -> "LGBMClassifier":
        """Fit the boosted ensemble."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes to fit a classifier")
        encoded = encoded.astype(np.int64)
        n_samples, n_features = X.shape
        if sample_weight is None:
            weights = np.ones(n_samples, dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape != (n_samples,):
                raise ValueError("sample_weight shape mismatch")

        self._mapper = BinMapper(max_bins=self.max_bins)
        binned = self._mapper.fit_transform(X)
        n_bins = int(self._mapper.n_bins_.max())
        params = TreeParams(
            max_depth=self.max_depth,
            max_leaves=self.num_leaves,
            min_samples_leaf=self.min_child_samples,
            reg_lambda=self.reg_lambda,
            min_gain=self.min_split_gain,
            feature_fraction=self.feature_fraction,
        )
        round_seeds = np.random.SeedSequence(self.random_state).spawn(
            self.n_estimators)
        spec = RoundSpec(n_bins=n_bins, params=params, leafwise=True)
        importance = np.zeros(n_features, dtype=np.float64)
        self.trees_ = []

        n_classes = len(self.classes_)
        with BoostingPool(binned, n_jobs=resolve_n_jobs(self.n_jobs)) as pool:
            if self._is_binary:
                raw = np.zeros(n_samples, dtype=np.float64)
                target = encoded.astype(np.float64)
                for t in range(self.n_estimators):
                    prob = _sigmoid(raw)
                    grad = (prob - target) * weights
                    hess = np.maximum(prob * (1.0 - prob), 1e-16) * weights
                    goss_seed, tree_seed = round_seeds[t].spawn(2)
                    if self.goss:
                        sample_idx, mult = self._goss_sample(
                            np.abs(grad), np.random.default_rng(goss_seed))
                        grad_fit, hess_fit = grad * mult, hess * mult
                    else:
                        sample_idx, grad_fit, hess_fit = None, grad, hess
                    (tree, pred), = pool.grow_round(spec, [RoundTask(
                        class_index=0, seed=tree_seed, grad=grad_fit,
                        hess=hess_fit, sample_idx=sample_idx)])
                    tree.accumulate_importance(importance)
                    raw += self.learning_rate * pred
                    self.trees_.append([tree])
            else:
                raw = np.zeros((n_samples, n_classes), dtype=np.float64)
                onehot = np.zeros((n_samples, n_classes), dtype=np.float64)
                onehot[np.arange(n_samples), encoded] = 1.0
                for t in range(self.n_estimators):
                    prob = _softmax(raw)
                    grads = (prob - onehot) * weights[:, None]
                    hesses = np.maximum(
                        prob * (1.0 - prob), 1e-16) * weights[:, None]
                    children = round_seeds[t].spawn(1 + n_classes)
                    if self.goss:
                        sample_idx, mult = self._goss_sample(
                            np.abs(grads).sum(axis=1),
                            np.random.default_rng(children[0]))
                    else:
                        sample_idx, mult = None, None
                    tasks = []
                    for k in range(n_classes):
                        grad, hess = grads[:, k], hesses[:, k]
                        if mult is not None:
                            grad, hess = grad * mult, hess * mult
                        tasks.append(RoundTask(
                            class_index=k, seed=children[1 + k], grad=grad,
                            hess=hess, sample_idx=sample_idx))
                    round_trees: List[HistTree] = []
                    for k, (tree, pred) in enumerate(
                            pool.grow_round(spec, tasks)):
                        tree.accumulate_importance(importance)
                        raw[:, k] += self.learning_rate * pred
                        round_trees.append(tree)
                    self.trees_.append(round_trees)

        total = importance.sum()
        self.feature_importances_ = (
            importance / total if total > 0 else importance)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw boosted scores."""
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        raw = compiled_ensemble(self, self.learning_rate).accumulate(X)
        return raw[:, 0] if self._is_binary else raw

    def predict_proba(self, X) -> np.ndarray:
        """Class probability estimates."""
        raw = self.decision_function(X)
        if self._is_binary:
            p1 = _sigmoid(raw)
            return np.column_stack([1.0 - p1, p1])
        return _softmax(raw)

    def predict(self, X) -> np.ndarray:
        """Most probable class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
