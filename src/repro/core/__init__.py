"""Cordial: cross-row failure prediction based on bank-level error locality.

The paper's method (Section IV) in three stages, plus its evaluation
machinery:

1. :mod:`repro.core.features` — spatial / temporal / count features from a
   bank's error log (all CEs/UEOs + the first three UERs);
2. :mod:`repro.core.classifier` — bank failure-pattern classification with
   tree-based models;
3. :mod:`repro.core.crossrow` — per-block UER prediction in the 128-row
   window around the last UER row (16 blocks x 8 rows);

plus :mod:`repro.core.isolation` (Isolation Coverage Rate replay),
:mod:`repro.core.baselines` (the industrial Neighbor-Rows baseline and the
classic in-row predictor) and :mod:`repro.core.pipeline` (the end-to-end
``Cordial`` object).
"""

from repro.faults.types import FailurePattern
from repro.core.patterns import label_bank_pattern
from repro.core.features import (
    BankPatternFeaturizer,
    CrossRowFeaturizer,
    CrossRowWindow,
)
from repro.core.classifier import FailurePatternClassifier, MODEL_NAMES
from repro.core.crossrow import CrossRowPredictor, BlockPrediction
from repro.core.isolation import IsolationReplay, ICRResult
from repro.core.baselines import NeighborRowsBaseline, InRowPredictor
from repro.core.pipeline import Cordial, CordialEvaluation
from repro.core.online import CordialService, Decision
from repro.core.costmodel import (CostParams, PolicyCost, price_result,
                                  recommend_mechanism)
from repro.core.inrow_ml import HierarchicalInRowPredictor, InRowEvaluation
from repro.core.persistence import load_cordial, save_cordial
from repro.core.report import render_markdown_report, write_markdown_report

__all__ = [
    "FailurePattern",
    "label_bank_pattern",
    "BankPatternFeaturizer",
    "CrossRowFeaturizer",
    "CrossRowWindow",
    "FailurePatternClassifier",
    "MODEL_NAMES",
    "CrossRowPredictor",
    "BlockPrediction",
    "IsolationReplay",
    "ICRResult",
    "NeighborRowsBaseline",
    "InRowPredictor",
    "Cordial",
    "CordialEvaluation",
    "CordialService",
    "Decision",
    "CostParams",
    "PolicyCost",
    "price_result",
    "recommend_mechanism",
    "HierarchicalInRowPredictor",
    "InRowEvaluation",
    "save_cordial",
    "load_cordial",
    "render_markdown_report",
    "write_markdown_report",
]
