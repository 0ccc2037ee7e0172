"""Exact equivalence of the fast feature paths against the scalar extractor.

The vectorized batch path (``extract_many`` / ``extract_blocks``) and the
incremental online path (:class:`IncrementalFeatureState`) are performance
rewrites; they must be *bit-identical* to the scalar reference walks in
``tests/reference_features.py``, not merely close.  Every assertion here
is exact equality on float64 arrays — no tolerances — over real
generated-fleet histories, including the degenerate ones (single event,
all-UER, duplicate UER rows).
"""

import numpy as np
import pytest

from repro.core.features import (BankPatternFeaturizer, CrossRowFeaturizer,
                                 pack_history)
from repro.core.incremental import IncrementalFeatureState
from repro.core.online import CordialService
from repro.core.pipeline import Cordial, collect_snapshots, collect_triggers
from repro.experiments.serve import bounded_shuffle
from repro.obs import Observability
from tests.reference_features import (block_features, pattern_features,
                                      pattern_features_packed)
from tests.serve_helpers import serve_all


@pytest.fixture(scope="module")
def triggers(small_dataset):
    return collect_triggers(small_dataset, small_dataset.uer_banks)


class TestBatchEquivalence:
    def test_extract_many_matches_scalar_loop(self, triggers):
        featurizer = BankPatternFeaturizer()
        histories = [t.history for t in triggers]
        batch = featurizer.extract_many(histories)
        scalar = np.vstack([pattern_features(h) for h in histories])
        assert batch.dtype == scalar.dtype == np.float64
        assert np.array_equal(batch, scalar)  # bitwise, no tolerance

    def test_extract_packed_matches_scalar_per_history(self, triggers):
        """The two references agree, and so does a one-history batch."""
        featurizer = BankPatternFeaturizer()
        for trigger in triggers:
            scalar = pattern_features(trigger.history)
            packed = pattern_features_packed(*pack_history(trigger.history))
            assert np.array_equal(packed, scalar)
            assert np.array_equal(
                featurizer.extract_many([trigger.history])[0], scalar)

    def test_extract_blocks_matches_scalar(self, triggers):
        featurizer = CrossRowFeaturizer()
        for trigger in triggers:
            last = trigger.uer_rows[-1]
            fast = featurizer.extract_blocks(trigger.history, last)
            slow = block_features(featurizer, trigger.history, last)
            assert np.array_equal(fast, slow)

    def test_extract_many_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BankPatternFeaturizer().extract_many([])


class TestIncrementalEquivalence:
    def test_prefix_fold_matches_scalar_at_every_snapshot(self,
                                                          small_dataset):
        """Folding events one at a time reproduces every re-prediction's
        features exactly — the invariant the online service relies on."""
        featurizer = CrossRowFeaturizer()
        checked = 0
        for bank in small_dataset.uer_banks[:40]:
            snapshots = collect_snapshots(small_dataset, bank)
            if not snapshots:
                continue
            state = IncrementalFeatureState()
            history = snapshots[-1].history  # longest prefix
            position = 0
            for snapshot in snapshots:
                while position < len(snapshot.history):
                    assert history[position] is snapshot.history[position]
                    state.update(history[position])
                    position += 1
                last = snapshot.uer_rows[-1]
                fast = featurizer.extract_from_aggregates(
                    state.aggregates(), last)
                slow = block_features(featurizer, snapshot.history, last)
                assert np.array_equal(fast, slow)
                checked += 1
        assert checked > 50  # the fleet really exercised the path

    def test_from_history_matches_incremental_updates(self, triggers):
        for trigger in triggers[:50]:
            folded = IncrementalFeatureState()
            for record in trigger.history:
                folded.update(record)
            built = IncrementalFeatureState.from_history(trigger.history)
            assert built.to_dict() == folded.to_dict()

    def test_state_dict_round_trip(self, triggers):
        featurizer = CrossRowFeaturizer()
        for trigger in triggers[:50]:
            state = IncrementalFeatureState.from_history(trigger.history)
            restored = IncrementalFeatureState.from_dict(state.to_dict())
            last = trigger.uer_rows[-1]
            assert np.array_equal(
                featurizer.extract_from_aggregates(state.aggregates(), last),
                featurizer.extract_from_aggregates(restored.aggregates(),
                                                   last))


class TestServiceEquivalence:
    @pytest.fixture(scope="class")
    def cordial(self, small_dataset, bank_split):
        train, _ = bank_split
        model = Cordial(model_name="LightGBM", random_state=0)
        model.fit(small_dataset, train)
        return model

    def test_incremental_service_matches_recompute(self, cordial,
                                                   small_dataset,
                                                   bank_split):
        """Every re-prediction scores exactly the block features a full
        recompute over the bank's time-sorted history through the causing
        UER yields — including when one ingest releases a batch of
        reordered events, whose later members the fold must not see."""
        _, test = bank_split
        test_set = set(test)
        stream = [r for r in small_dataset.store if r.bank_key in test_set]
        obs = Observability()
        service = CordialService(cordial, max_skew=600.0, obs=obs)
        decisions = serve_all(service,
                              bounded_shuffle(stream, 600.0, seed=0))

        by_bank = {}
        for record in sorted(stream,
                             key=lambda r: (r.timestamp, r.sequence)):
            by_bank.setdefault(record.bank_key, []).append(record)
        featurizer = cordial.predictor.featurizer
        records = obs.audit.records
        assert len(records) == len(decisions)
        checked = 0
        for audit, decision in zip(records, decisions):
            assert tuple(audit["bank_key"]) == decision.bank_key
            if audit["kind"] != "reprediction":
                continue
            history = by_bank[decision.bank_key]
            end = next(i for i, r in enumerate(history)
                       if r.sequence == decision.sequence)
            cause = history[end]
            expect = featurizer.extract_blocks(history[:end + 1], cause.row)
            assert np.array_equal(np.asarray(audit["features"]), expect)
            checked += 1
        assert checked > 0  # the stream really exercised re-predictions
