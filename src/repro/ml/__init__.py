"""Tree-based machine learning, implemented from scratch on numpy.

The paper trains three model families — Random Forest, XGBoost and
LightGBM — none of which are available in this offline environment, so
this package reimplements the defining algorithm of each:

* :mod:`repro.ml.tree` — exact (sort-based) CART decision trees, the
  reference implementation everything else is validated against;
* :mod:`repro.ml.forest` — :class:`RandomForestClassifier`: bootstrap
  bagging with per-split feature subsampling and probability averaging;
* :mod:`repro.ml.gbdt` — :class:`XGBClassifier`: Newton (second-order)
  gradient boosting with L2 leaf regularisation, gamma split penalty and
  level-wise tree growth, as in XGBoost;
* :mod:`repro.ml.lgbm` — :class:`LGBMClassifier`: histogram-binned,
  leaf-wise (best-first) gradient boosting with optional GOSS sampling,
  as in LightGBM.

Shared infrastructure: :mod:`repro.ml._binning` (quantile bin mapping) and
:mod:`repro.ml._hist` (histogram tree growers).  Evaluation utilities live
in :mod:`repro.ml.metrics` and :mod:`repro.ml.selection`.
"""

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import XGBClassifier
from repro.ml.lgbm import LGBMClassifier
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    precision_recall_f1,
    classification_report,
)
from repro.ml.selection import train_test_split_groups
from repro.ml.linear import LogisticRegressionClassifier, StandardScaler
from repro.ml.calibration import (
    PlattCalibrator,
    IsotonicCalibrator,
    brier_score,
    expected_calibration_error,
)
from repro.ml.cv import GroupKFold, KFold, StratifiedKFold, cross_val_score
from repro.ml.scoring import Scorer, accuracy, auprc, auroc, make_scorer
from repro.ml.parallel import resolve_n_jobs
from repro.ml.persist import ModelPersistenceError, dump_model, load_model
from repro.ml.ranking import (best_f1_threshold, pr_auc,
                              precision_recall_curve, roc_auc)
from repro.ml.tuning import GridSearchResult, grid_search

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "XGBClassifier",
    "LGBMClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "classification_report",
    "train_test_split_groups",
    "LogisticRegressionClassifier",
    "StandardScaler",
    "PlattCalibrator",
    "IsotonicCalibrator",
    "brier_score",
    "expected_calibration_error",
    "KFold",
    "StratifiedKFold",
    "GroupKFold",
    "cross_val_score",
    "Scorer",
    "accuracy",
    "auprc",
    "auroc",
    "make_scorer",
    "resolve_n_jobs",
    "ModelPersistenceError",
    "dump_model",
    "load_model",
    "roc_auc",
    "pr_auc",
    "precision_recall_curve",
    "best_f1_threshold",
    "GridSearchResult",
    "grid_search",
]
