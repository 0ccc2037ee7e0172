"""XGBoost-style gradient-boosted trees (Newton boosting).

Implements the defining pieces of XGBoost's tree booster:

* second-order (gradient + hessian) Taylor expansion of the loss,
* leaf weights ``-G/(H + lambda)`` with L2 regularisation,
* split gain ``1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma``,
* shrinkage (learning rate) per boosting round,
* level-wise growth to a fixed ``max_depth``,
* binary logistic and multiclass softmax objectives (one tree per class
  per round, as XGBoost does).

Split search runs on quantile-binned features (XGBoost's ``hist`` method).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml._binning import BinMapper
from repro.ml._compiled import compiled_ensemble
from repro.ml._hist import HistTree, TreeParams
from repro.ml.parallel import (BoostingPool, RoundSpec, RoundTask,
                               resolve_n_jobs)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class XGBClassifier:
    """Newton-boosted tree classifier with the XGBoost objective.

    Args:
        n_estimators: boosting rounds.
        learning_rate: shrinkage applied to every leaf value.
        max_depth: level-wise depth limit per tree (XGBoost default 6).
        min_child_weight: minimum hessian sum per child.
        reg_lambda: L2 regularisation of leaf values.
        gamma: minimum loss reduction required to split.
        subsample: per-round row subsampling fraction.
        colsample: per-split feature subsampling fraction.
        max_bins: histogram resolution.
        base_score: prior probability used to initialise raw scores
            (binary only; multiclass starts from zero logits).
        random_state: seed for row/feature subsampling.  Every boosting
            round draws from its own ``SeedSequence`` child (see
            :mod:`repro.ml.parallel`), so the fitted ensemble is
            bit-identical for every ``n_jobs``.
        n_jobs: worker processes growing a round's per-class trees
            (``None``/``1`` = serial, ``-1`` = all cores).  Rounds remain
            sequential, so parallelism only pays off in multiclass mode;
            the result never depends on it.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 6, min_child_weight: float = 1.0,
                 reg_lambda: float = 1.0, gamma: float = 0.0,
                 subsample: float = 1.0, colsample: float = 1.0,
                 min_samples_leaf: int = 1, max_bins: int = 255,
                 base_score: float = 0.5,
                 random_state: Optional[int] = None,
                 n_jobs: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < base_score < 1.0:
            raise ValueError("base_score must be in (0, 1)")
        resolve_n_jobs(n_jobs)  # validate eagerly
        self.n_jobs = n_jobs
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.colsample = colsample
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.base_score = base_score
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        # rounds x classes matrix of trees (1 column in binary mode)
        self.trees_: List[List[HistTree]] = []
        self._mapper: Optional[BinMapper] = None
        self._compiled = None
        self._base_raw: float = 0.0
        self.feature_importances_: Optional[np.ndarray] = None

    @property
    def _is_binary(self) -> bool:
        return len(self.classes_) == 2

    def fit(self, X, y, sample_weight=None) -> "XGBClassifier":
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
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            min_child_weight=self.min_child_weight,
            feature_fraction=self.colsample,
        )
        round_seeds = np.random.SeedSequence(self.random_state).spawn(
            self.n_estimators)
        spec = RoundSpec(n_bins=n_bins, params=params, leafwise=False)
        importance = np.zeros(n_features, dtype=np.float64)
        self.trees_ = []

        with BoostingPool(binned, n_jobs=resolve_n_jobs(self.n_jobs)) as pool:
            if self._is_binary:
                self._base_raw = float(
                    np.log(self.base_score / (1.0 - self.base_score)))
                raw = np.full(n_samples, self._base_raw, dtype=np.float64)
                target = encoded.astype(np.float64)
                for t in range(self.n_estimators):
                    prob = _sigmoid(raw)
                    grad = (prob - target) * weights
                    hess = np.maximum(prob * (1.0 - prob), 1e-16) * weights
                    row_seed, tree_seed = round_seeds[t].spawn(2)
                    sample_idx = self._draw_rows(
                        n_samples, np.random.default_rng(row_seed))
                    (tree, pred), = pool.grow_round(spec, [RoundTask(
                        class_index=0, seed=tree_seed, grad=grad, hess=hess,
                        sample_idx=sample_idx)])
                    tree.accumulate_importance(importance)
                    raw += self.learning_rate * pred
                    self.trees_.append([tree])
            else:
                n_classes = len(self.classes_)
                self._base_raw = 0.0
                raw = np.zeros((n_samples, n_classes), dtype=np.float64)
                onehot = np.zeros((n_samples, n_classes), dtype=np.float64)
                onehot[np.arange(n_samples), encoded] = 1.0
                for t in range(self.n_estimators):
                    prob = _softmax(raw)
                    children = round_seeds[t].spawn(1 + n_classes)
                    sample_idx = self._draw_rows(
                        n_samples, np.random.default_rng(children[0]))
                    tasks = []
                    for k in range(n_classes):
                        grad = (prob[:, k] - onehot[:, k]) * weights
                        hess = np.maximum(
                            prob[:, k] * (1.0 - prob[:, k]), 1e-16) * weights
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

    def _draw_rows(self, n_samples: int,
                   rng: np.random.Generator) -> Optional[np.ndarray]:
        if self.subsample >= 1.0:
            return None
        k = max(1, int(round(self.subsample * n_samples)))
        return np.sort(rng.choice(n_samples, size=k, replace=False))

    def decision_function(self, X) -> np.ndarray:
        """Raw boosted scores (logit in binary mode, logits per class
        otherwise)."""
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        raw = compiled_ensemble(self, self.learning_rate).accumulate(
            X, self._base_raw)
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
