"""Guard: feature_names() must always match the extracted vector width.

The vectorized extractors assemble their outputs column by column; a
drifting name list would silently misalign every downstream consumer
(model feature importances, the ablation study, docs).  This tier-1
guard pins names-to-width agreement for every featurizer.
"""

from repro.core.features import (BankPatternFeaturizer, CrossRowFeaturizer,
                                 FamilyMaskedFeaturizer)
from repro.hbm.address import DeviceAddress
from repro.telemetry.events import ErrorRecord, ErrorType
from tests.reference_features import block_features, pattern_features


def rec(seq, t, row, error_type):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=0,
                            row=row, column=0)
    return ErrorRecord(timestamp=t, sequence=seq, address=address,
                       error_type=error_type)


HISTORY = [
    rec(0, 10.0, 100, ErrorType.CE),
    rec(1, 20.0, 140, ErrorType.UEO),
    rec(2, 30.0, 110, ErrorType.UER),
    rec(3, 40.0, 150, ErrorType.UER),
    rec(4, 50.0, 190, ErrorType.UER),
]


def test_bank_pattern_names_match_width():
    featurizer = BankPatternFeaturizer()
    names = featurizer.feature_names()
    assert len(names) == featurizer.n_features
    assert len(set(names)) == len(names)  # no duplicate names
    assert pattern_features(HISTORY).shape == (len(names),)
    assert featurizer.extract_many([HISTORY, HISTORY]).shape == \
        (2, len(names))


def test_cross_row_names_match_width():
    featurizer = CrossRowFeaturizer()
    names = featurizer.feature_names()
    assert len(names) == featurizer.n_features
    assert len(set(names)) == len(names)
    matrix = featurizer.extract_blocks(HISTORY, 190)
    assert matrix.shape == (featurizer.window.n_blocks, len(names))
    scalar = block_features(featurizer, HISTORY, 190)
    assert scalar.shape == matrix.shape


def test_family_masked_names_match_width():
    for families in (["spatial"], ["temporal"], ["count"],
                     ["spatial", "temporal", "count"]):
        featurizer = FamilyMaskedFeaturizer(families)
        names = featurizer.feature_names()
        assert len(names) == featurizer.n_features
        assert featurizer.extract_many([HISTORY]).shape == (1, len(names))
