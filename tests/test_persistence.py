"""Tests for model and pipeline persistence (JSON, no pickle)."""

import json

import numpy as np
import pytest

from repro.core.persistence import load_cordial, save_cordial
from repro.core.pipeline import Cordial, collect_triggers
from repro.ml import (LGBMClassifier, RandomForestClassifier, XGBClassifier)
from repro.ml.persist import ModelPersistenceError, dump_model, load_model


def small_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(250, 4))
    y = (X[:, 0] - X[:, 2] > 0).astype(int)
    return X, y


@pytest.mark.parametrize("factory", [
    lambda: RandomForestClassifier(n_estimators=8, random_state=0),
    lambda: XGBClassifier(n_estimators=8, random_state=0),
    lambda: LGBMClassifier(n_estimators=8, random_state=0),
])
class TestModelRoundtrip:
    def test_probabilities_identical(self, factory, tmp_path):
        X, y = small_data()
        model = factory().fit(X, y)
        path = tmp_path / "model.json"
        dump_model(model, path)
        loaded = load_model(path)
        Xt, _ = small_data(seed=1)
        assert np.allclose(model.predict_proba(Xt),
                           loaded.predict_proba(Xt))
        assert (model.predict(Xt) == loaded.predict(Xt)).all()

    def test_string_classes_roundtrip(self, factory, tmp_path):
        X, y = small_data()
        labels = np.where(y == 1, "bad", "good")
        model = factory().fit(X, labels)
        path = tmp_path / "model.json"
        dump_model(model, path)
        loaded = load_model(path)
        assert set(loaded.classes_) == {"bad", "good"}

    def test_document_is_plain_json(self, factory, tmp_path):
        X, y = small_data()
        path = tmp_path / "model.json"
        dump_model(factory().fit(X, y), path)
        document = json.loads(path.read_text())
        assert document["format"] == "cordial-ml-model"

    def test_unfitted_rejected(self, factory, tmp_path):
        with pytest.raises(ModelPersistenceError):
            dump_model(factory(), tmp_path / "model.json")


class TestModelErrors:
    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(ModelPersistenceError):
            dump_model(object(), tmp_path / "m.json")

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all")
        with pytest.raises(ModelPersistenceError):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "something"}))
        with pytest.raises(ModelPersistenceError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "cordial-ml-model",
                                    "version": 999}))
        with pytest.raises(ModelPersistenceError):
            load_model(path)


class TestCordialRoundtrip:
    @pytest.fixture(scope="class")
    def fitted(self, small_dataset, bank_split):
        train, _ = bank_split
        model = Cordial(model_name="LightGBM", random_state=0)
        model.fit(small_dataset, train)
        return model

    def test_evaluation_identical(self, fitted, small_dataset, bank_split,
                                  tmp_path):
        _, test = bank_split
        path = tmp_path / "pipeline.json"
        save_cordial(fitted, path)
        loaded = load_cordial(path)
        original = fitted.evaluate(small_dataset, test)
        reloaded = loaded.evaluate(small_dataset, test)
        assert reloaded.pattern_weighted.f1 == pytest.approx(
            original.pattern_weighted.f1)
        assert reloaded.block_scores.f1 == pytest.approx(
            original.block_scores.f1)
        assert reloaded.icr.icr == pytest.approx(original.icr.icr)

    def test_config_preserved(self, fitted, tmp_path):
        path = tmp_path / "pipeline.json"
        save_cordial(fitted, path)
        loaded = load_cordial(path)
        assert loaded.model_name == fitted.model_name
        assert loaded.trigger_uer_rows == fitted.trigger_uer_rows
        assert (loaded.predictor.effective_threshold
                == fitted.predictor.effective_threshold)
        assert loaded.predictor.window == fitted.predictor.window

    def test_predictions_identical(self, fitted, small_dataset, bank_split,
                                   tmp_path):
        _, test = bank_split
        path = tmp_path / "pipeline.json"
        save_cordial(fitted, path)
        loaded = load_cordial(path)
        trigger = collect_triggers(small_dataset, test)[0]
        a = fitted.predictor.predict(trigger.history, trigger.uer_rows[-1])
        b = loaded.predictor.predict(trigger.history, trigger.uer_rows[-1])
        assert np.allclose(a.probabilities, b.probabilities)
        assert (a.flagged == b.flagged).all()

    def test_importances_need_in_process_fit(self, fitted, tmp_path):
        path = tmp_path / "pipeline.json"
        save_cordial(fitted, path)
        assert len(fitted.classifier.feature_importances) > 0
        loaded = load_cordial(path)
        with pytest.raises(RuntimeError, match="fitted in this process"):
            loaded.classifier.feature_importances
        # asking did not change what the pipeline serialises to
        save_cordial(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ModelPersistenceError):
            save_cordial(Cordial(), tmp_path / "p.json")
