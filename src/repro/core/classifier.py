"""Failure-pattern classification (Section IV-C).

Wraps the three tree-based model families the paper evaluates — Random
Forest, XGBoost and LightGBM — behind one interface keyed by the names
used in Table III.  Hyperparameters follow the libraries' common defaults
scaled to the ~1k-bank dataset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.features import BankPatternFeaturizer
from repro.faults.types import FailurePattern
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import XGBClassifier
from repro.ml.lgbm import LGBMClassifier
from repro.telemetry.events import ErrorRecord

#: Table III model names -> constructor.
MODEL_NAMES = ("LightGBM", "XGBoost", "Random Forest")


def make_model(name: str, random_state: Optional[int] = 0,
               task: str = "pattern", n_jobs: Optional[int] = None):
    """Instantiate one of the paper's three model families by name.

    Args:
        task: ``"pattern"`` (bank classification, ~1k samples x 40
            features) or ``"blocks"`` (cross-row prediction, ~10k heavily
            imbalanced samples — deeper forests, more rounds).
        n_jobs: training worker processes (``None``/``1`` = serial,
            ``-1`` = all cores); never changes the fitted model — see
            :mod:`repro.ml.parallel`.
    """
    if task not in ("pattern", "blocks"):
        raise ValueError(f"unknown task: {task!r}")
    deep = task == "blocks"
    if name == "Random Forest":
        return RandomForestClassifier(
            n_estimators=160 if deep else 150,
            max_depth=None if deep else 12,
            min_samples_leaf=2,
            max_features="sqrt", class_weight="balanced",
            random_state=random_state, n_jobs=n_jobs)
    if name == "XGBoost":
        return XGBClassifier(
            n_estimators=150 if deep else 120, learning_rate=0.1,
            max_depth=6 if deep else 5,
            reg_lambda=1.0, min_samples_leaf=2, subsample=0.9,
            colsample=0.8, random_state=random_state, n_jobs=n_jobs)
    if name == "LightGBM":
        return LGBMClassifier(
            n_estimators=150 if deep else 120, learning_rate=0.1,
            num_leaves=63 if deep else 31,
            min_child_samples=5, feature_fraction=0.8,
            random_state=random_state, n_jobs=n_jobs)
    raise ValueError(f"unknown model name: {name!r}; "
                     f"expected one of {MODEL_NAMES}")


class FailurePatternClassifier:
    """Stage-2 of Cordial: classify a bank's failure pattern at trigger time.

    Args:
        model_name: ``"Random Forest"`` (best in the paper), ``"XGBoost"``
            or ``"LightGBM"``.
        featurizer: the Section IV-B featurizer (injected for ablations).
        random_state: seed forwarded to the model.
        n_jobs: training worker processes forwarded to the model; never
            changes the fit.
    """

    def __init__(self, model_name: str = "Random Forest",
                 featurizer: Optional[BankPatternFeaturizer] = None,
                 random_state: Optional[int] = 0,
                 n_jobs: Optional[int] = None) -> None:
        self.model_name = model_name
        self.featurizer = featurizer or BankPatternFeaturizer()
        self.model = make_model(model_name, random_state, n_jobs=n_jobs)
        self._fitted = False

    def fit(self, histories: Sequence[Sequence[ErrorRecord]],
            patterns: Sequence[FailurePattern]
            ) -> "FailurePatternClassifier":
        """Train on bank-history snapshots and their pattern labels."""
        if len(histories) != len(patterns):
            raise ValueError("histories and patterns must align")
        if not histories:
            raise ValueError("cannot fit on an empty training set")
        X = self.featurizer.extract_many(histories)
        y = np.asarray([p.value for p in patterns])
        self.model.fit(X, y)
        self._fitted = True
        return self

    def predict(self, history: Sequence[ErrorRecord]) -> FailurePattern:
        """Classify one bank-history snapshot."""
        return self.predict_many([history])[0]

    def predict_many(self, histories: Sequence[Sequence[ErrorRecord]]
                     ) -> List[FailurePattern]:
        """Classify many snapshots at once."""
        if not self._fitted:
            raise RuntimeError("classifier is not fitted")
        X = self.featurizer.extract_many(histories)
        return [FailurePattern(v) for v in self.model.predict(X)]

    def predict_proba_many(self, histories: Sequence[Sequence[ErrorRecord]]
                           ) -> Dict[FailurePattern, np.ndarray]:
        """Per-pattern probabilities, keyed by pattern."""
        if not self._fitted:
            raise RuntimeError("classifier is not fitted")
        X = self.featurizer.extract_many(histories)
        proba = self.model.predict_proba(X)
        return {FailurePattern(label): proba[:, i]
                for i, label in enumerate(self.model.classes_)}

    @property
    def feature_importances(self) -> Dict[str, float]:
        """Feature name -> normalised split-gain importance.

        Split gains are not persisted, so importances exist only on a
        model fitted in this process, not on one rebuilt from a pipeline
        document or checkpoint.
        """
        if not self._fitted:
            raise RuntimeError("classifier is not fitted")
        if self.model.feature_importances_ is None:
            raise RuntimeError(
                "feature importances exist only on a model fitted in this "
                "process; a loaded model carries no split gains")
        names = self.featurizer.feature_names()
        return dict(zip(names, self.model.feature_importances_.tolist()))
