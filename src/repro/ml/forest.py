"""Random Forest classifier (bagging + feature subsampling).

Breiman-style random forest on histogram trees: each tree is grown on a
bootstrap resample of the training set, examining a random subset of
features at every split, and the forest predicts by averaging the trees'
leaf class-frequency vectors.  The paper credits exactly this variance
reduction for Random Forest beating the boosting models on its ~1k-bank
dataset (Section V-B).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.ml._binning import BinMapper
from repro.ml._compiled import compiled_ensemble
from repro.ml._hist import HistTree, TreeParams
from repro.ml.parallel import ForestSpec, grow_forest, resolve_n_jobs
from repro.ml.tree import resolve_max_features


class RandomForestClassifier:
    """Bagged ensemble of gini histogram trees.

    Every tree draws its bootstrap resample and feature subsets from its
    own ``SeedSequence(random_state)`` child (see :mod:`repro.ml.parallel`),
    so tree growth is order-independent and the fitted forest is
    bit-identical for every ``n_jobs``.

    Args:
        n_estimators: number of trees.
        max_depth: per-tree depth limit.
        min_samples_leaf: minimum samples per leaf.
        max_features: features examined per split (default ``"sqrt"``).
        max_bins: histogram resolution for continuous features.
        bootstrap: draw a bootstrap resample per tree (True for a classic
            random forest; False degenerates to a randomised-tree ensemble).
        class_weight: ``None`` or ``"balanced"`` (reweight classes inversely
            to their frequency — useful for the heavily skewed pattern
            classes of Table III).
        random_state: seed for all resampling and feature subsampling.
        n_jobs: worker processes growing trees (``None``/``1`` = serial,
            ``-1`` = all cores); never changes the fitted model.
    """

    def __init__(self, n_estimators: int = 100,
                 max_depth: Optional[int] = None,
                 min_samples_leaf: int = 1,
                 max_features: Union[None, str, int, float] = "sqrt",
                 max_bins: int = 255,
                 bootstrap: bool = True,
                 class_weight: Optional[str] = None,
                 random_state: Optional[int] = None,
                 n_jobs: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        resolve_n_jobs(n_jobs)  # validate eagerly
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.classes_: Optional[np.ndarray] = None
        self.trees_: List[HistTree] = []
        self._mapper: Optional[BinMapper] = None
        self._compiled = None
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        """Fit the forest."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        encoded = encoded.astype(np.int64)
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)

        if sample_weight is None:
            weights = np.ones(n_samples, dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64).copy()
            if weights.shape != (n_samples,):
                raise ValueError("sample_weight shape mismatch")
        if self.class_weight == "balanced":
            counts = np.bincount(encoded, minlength=n_classes)
            factors = n_samples / (n_classes * np.maximum(counts, 1))
            weights = weights * factors[encoded]

        self._mapper = BinMapper(max_bins=self.max_bins)
        binned = self._mapper.fit_transform(X)
        n_bins = int(self._mapper.n_bins_.max())

        k = resolve_max_features(self.max_features, n_features)
        params = TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            feature_fraction=k / n_features,
        )
        seeds = np.random.SeedSequence(self.random_state).spawn(
            self.n_estimators)
        spec = ForestSpec(n_classes=n_classes, n_bins=n_bins, params=params,
                          bootstrap=self.bootstrap)
        self.trees_ = grow_forest(binned, encoded, weights, spec, seeds,
                                  n_jobs=resolve_n_jobs(self.n_jobs))
        importance = np.zeros(n_features, dtype=np.float64)
        for tree in self.trees_:
            tree.accumulate_importance(importance)
        total = importance.sum()
        self.feature_importances_ = (
            importance / total if total > 0 else importance)
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of per-tree leaf class frequencies."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        proba = compiled_ensemble(self).accumulate(X)
        proba /= len(self.trees_)
        return proba

    def predict(self, X) -> np.ndarray:
        """Most probable class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
