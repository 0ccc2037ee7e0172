"""Compiled ensemble inference is bitwise identical to the per-tree walk.

``predict_proba`` and ``decision_function`` of every ensemble score raw
features through :mod:`repro.ml._compiled`.  The reference here is the
original definition: bin the input with the model's ``BinMapper`` and sum
``HistTree.predict_value`` in tree order.  Every comparison is
``np.array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.ml import LGBMClassifier, RandomForestClassifier, XGBClassifier
from repro.ml import _compiled
from repro.ml.gbdt import _sigmoid, _softmax
from repro.ml.persist import dump_model, load_model

FACTORIES = {
    "rf": lambda: RandomForestClassifier(n_estimators=25, random_state=0),
    # base_score != 0.5 gives the binary model a non-zero start value
    "xgb": lambda: XGBClassifier(n_estimators=30, max_depth=4,
                                 base_score=0.3, random_state=0),
    "lgbm": lambda: LGBMClassifier(n_estimators=30, num_leaves=15,
                                   min_child_samples=5, random_state=0),
}
CASES = [(family, n_classes) for family in FACTORIES for n_classes in (2, 3)]


def make_data(n_classes, seed=0, n=500):
    """Features with NaN-bearing, low-cardinality and constant columns.

    Column 0 is missing on a label-correlated subset, so the trees learn
    splits that route NaN; column 2 takes five values, so its bin edges
    are midpoints that inputs can hit exactly; column 4 is all NaN.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    X[:, 2] = rng.integers(0, 5, size=n)
    score = X[:, 0] + 0.5 * X[:, 1] + 0.3 * X[:, 2]
    y = (score > 0.5).astype(int)
    if n_classes == 3:
        y += (score > 1.5).astype(int)
    X[rng.random(n) < 0.15, 0] = np.nan
    X[(y == 0) & (rng.random(n) < 0.3), 0] = np.nan
    X[:, 4] = np.nan
    return X, y


def fuzz(model, X, seed=1):
    """Rows of ``X`` with NaN, ±inf and on-edge values mixed in."""
    rng = np.random.default_rng(seed)
    X = X.copy()
    for j, edges in enumerate(model._mapper.edges_):
        kinds = rng.integers(0, 6, size=X.shape[0])
        X[kinds == 0, j] = np.nan
        X[kinds == 1, j] = np.inf
        X[kinds == 2, j] = -np.inf
        if len(edges):
            picks = edges[rng.integers(0, len(edges), size=X.shape[0])]
            X[kinds == 3, j] = picks[kinds == 3]
            X[kinds == 4, j] = np.nextafter(picks, -np.inf)[kinds == 4]
    return X


def reference_scores(model, X):
    """The per-tree walk over binned features, summed in tree order."""
    binned = model._mapper.transform(X)
    if isinstance(model, RandomForestClassifier):
        proba = np.zeros((X.shape[0], len(model.classes_)))
        for tree in model.trees_:
            proba += tree.predict_value(binned)
        proba /= len(model.trees_)
        return proba
    raw = np.full((X.shape[0], len(model.trees_[0])),
                  getattr(model, "_base_raw", 0.0))
    for round_trees in model.trees_:
        for k, tree in enumerate(round_trees):
            raw[:, k] += model.learning_rate * tree.predict_value(binned)[:, 0]
    return raw[:, 0] if len(model.classes_) == 2 else raw


def reference_proba(model, X):
    scores = reference_scores(model, X)
    if isinstance(model, RandomForestClassifier):
        return scores
    if len(model.classes_) == 2:
        p1 = _sigmoid(scores)
        return np.column_stack([1.0 - p1, p1])
    return _softmax(scores)


@pytest.fixture(scope="module")
def fitted():
    models = {}
    for family, n_classes in CASES:
        X, y = make_data(n_classes)
        models[family, n_classes] = (FACTORIES[family]().fit(X, y), X)
    return models


def assert_matches_reference(model, X):
    assert np.array_equal(model.predict_proba(X), reference_proba(model, X))
    if not isinstance(model, RandomForestClassifier):
        assert np.array_equal(model.decision_function(X),
                              reference_scores(model, X))


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}class")
class TestBitwiseEquivalence:
    def test_training_rows(self, fitted, case):
        model, X = fitted[case]
        assert_matches_reference(model, X)

    def test_unseen_rows(self, fitted, case):
        model, _ = fitted[case]
        X, _ = make_data(case[1], seed=7)
        assert_matches_reference(model, X)

    def test_fuzzed_nonfinite_and_on_edge(self, fitted, case):
        model, X = fitted[case]
        assert_matches_reference(model, fuzz(model, X))

    def test_zero_and_one_row(self, fitted, case):
        model, X = fitted[case]
        for rows in (X[:0], X[:1], fuzz(model, X)[:1]):
            assert_matches_reference(model, rows)
        width = len(model.classes_)
        assert model.predict_proba(X[:0]).shape == (0, width)

    def test_row_chunks(self, fitted, case, monkeypatch):
        model, X = fitted[case]
        monkeypatch.setattr(_compiled, "_CHUNK_ELEMENTS", 100)
        assert_matches_reference(model, fuzz(model, X))

    def test_bad_input_shape_raises(self, fitted, case):
        model, X = fitted[case]
        with pytest.raises(ValueError):
            model.predict_proba(X[0])
        with pytest.raises(ValueError):
            model.predict_proba(X[:, :-1])
        with pytest.raises(ValueError):
            model.predict_proba(np.hstack([X, X[:, :1]]))


def test_missing_value_splits_are_exercised(fitted):
    """Every fixture model holds an "is missing" split (a bin threshold
    past the feature's last edge: finite values left, NaN/±inf right),
    so the routing rule that replaces binning is actually tested."""
    for model, _ in fitted.values():
        kernel = _compiled.compiled_ensemble(
            model, getattr(model, "learning_rate", None))
        assert np.isinf(kernel.threshold[~kernel.is_leaf]).any()


@pytest.mark.parametrize("family", FACTORIES)
def test_roundtrip_keeps_document_bytes(family, tmp_path):
    X, y = make_data(3)
    model = FACTORIES[family]().fit(X, y)
    before, after, reloaded = (tmp_path / name for name in ("a", "b", "c"))
    dump_model(model, before)
    expected = model.predict_proba(X)
    dump_model(model, after)
    assert before.read_bytes() == after.read_bytes()
    loaded = load_model(before)
    assert np.array_equal(loaded.predict_proba(X), expected)
    assert_matches_reference(loaded, fuzz(loaded, X))
    dump_model(loaded, reloaded)
    assert reloaded.read_bytes() == before.read_bytes()


@pytest.mark.parametrize("family", FACTORIES)
def test_refit_recompiles(family):
    model = FACTORIES[family]()
    X, y = make_data(2)
    model.fit(X, y).predict_proba(X)
    X2, y2 = make_data(3, seed=5)
    model.fit(X2, y2)
    assert_matches_reference(model, X2)
