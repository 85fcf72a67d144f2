"""The six value types: frozen records that print, compare, hash, pickle and
copy as frozen dataclasses do, and check their fields as before."""

import copy
import pickle
import numpy as np
import pytest

from gyrokit import (
    DensityMatrix2,
    GyroVector,
    Hermitian2,
    MapClassification,
    PosDef2Det1,
    PropertyReport,
    ToleranceConfig,
)

_RECORDS = {
    "ToleranceConfig(abs_tol=1e-09, rel_tol=1e-09, sample_rmax=0.999)": ToleranceConfig(),
    "ToleranceConfig(abs_tol=1e-06, rel_tol=1e-09, sample_rmax=0.5)": ToleranceConfig(
        1e-6, sample_rmax=0.5
    ),
    "Hermitian2(a=2.0, d=1.5, re_b=0.3, im_b=0.0)": Hermitian2(2, 1.5, 0.3, -0.0),
    "DensityMatrix2(a=0.6, d=0.4, re_b=0.1, im_b=0.05)": DensityMatrix2(0.6, 0.4, 0.1, 0.05),
    "PosDef2Det1(a=2.0, d=0.5, re_b=0.0, im_b=0.0)": PosDef2Det1(2.0, 0.5, 0.0, 0.0),
    "MapClassification(verdict='zero', matrix=None, witness_u=None, witness_v=None, "
    "residual=None)": MapClassification.zero(),
    "PropertyReport(name='closure', samples_run=10, passed=False, max_residual=0.25, "
    "first_counterexample={'u': [0.5], 'residual': 0.25}, seed=7)": PropertyReport(
        "closure", 10, False, 0.25, {"u": [0.5], "residual": 0.25}, 7
    ),
}
_IDS = [text.partition("(")[0] for text in _RECORDS]
_EACH = pytest.mark.parametrize("text, record", _RECORDS.items(), ids=_IDS)


@_EACH
def test_repr_is_the_dataclass_repr(text, record):
    assert repr(record) == text


@_EACH
def test_fields_cannot_be_assigned_or_deleted(text, record):
    field = record.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@_EACH
def test_no_other_attribute_can_be_set(text, record):
    # a record has slots and no __dict__, a subclass's included
    with pytest.raises(AttributeError):
        record.no_such_field = 1.0


@_EACH
@pytest.mark.parametrize(
    "copier",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_are_equal_records_of_the_same_type(text, record, copier):
    twin = copier(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == text


def test_match_args_are_the_fields_in_order():
    assert Hermitian2.__match_args__ == ("a", "d", "re_b", "im_b")
    assert DensityMatrix2.__match_args__ == PosDef2Det1.__match_args__ == ("a", "d", "re_b", "im_b")
    assert ToleranceConfig.__match_args__ == ("abs_tol", "rel_tol", "sample_rmax")
    assert MapClassification.__match_args__ == (
        "verdict", "matrix", "witness_u", "witness_v", "residual"
    )
    assert PropertyReport.__match_args__ == (
        "name", "samples_run", "passed", "max_residual", "first_counterexample", "seed"
    )
    match DensityMatrix2(0.6, 0.4, 0.1, 0.05):
        case Hermitian2(a, d, re_b, im_b):
            fields = (a, d, re_b, im_b)
        case _:
            fields = None
    assert fields == (0.6, 0.4, 0.1, 0.05)


class TestEquality:
    def test_a_record_equals_one_of_its_class_with_equal_fields(self):
        assert Hermitian2(1, 2, 0, 0) == Hermitian2(1.0, 2.0, 0.0, -0.0)
        assert Hermitian2(1, 2, 0, 0) != Hermitian2(1, 2, 0, 0.5)
        assert ToleranceConfig(1e-9) == ToleranceConfig()

    def test_a_density_never_equals_a_hermitian_with_its_fields(self):
        rho = DensityMatrix2(0.5, 0.5, 0.0, 0.0)
        h = Hermitian2(0.5, 0.5, 0.0, 0.0)
        assert rho != h and h != rho
        assert PosDef2Det1(1.0, 1.0, 0.0, 0.0) != Hermitian2(1.0, 1.0, 0.0, 0.0)

    def test_a_record_never_equals_the_tuple_of_its_fields(self):
        assert ToleranceConfig() != (1e-9, 1e-9, 0.999)
        assert Hermitian2(1, 2, 0, 0).__eq__((1.0, 2.0, 0.0, 0.0)) is NotImplemented

    def test_the_hash_is_that_of_the_fields_tuple(self):
        assert hash(ToleranceConfig()) == hash((1e-9, 1e-9, 0.999))
        assert hash(Hermitian2(1, 2, 0, -0.0)) == hash((1.0, 2.0, 0.0, 0.0))
        assert len({DensityMatrix2(0.5, 0.5, 0, 0), DensityMatrix2(0.5, 0.5, 0.0, 0.0)}) == 1

    def test_a_report_holding_a_dict_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(PropertyReport("closure", 10, False, 0.25, {"residual": 0.25}, 7))


class TestConstruction:
    def test_positional_and_keyword_arguments_agree(self):
        assert Hermitian2(a=1, d=2, re_b=0.5, im_b=0) == Hermitian2(1, 2, 0.5, 0)
        assert ToleranceConfig(sample_rmax=0.5, abs_tol=1e-6) == ToleranceConfig(1e-6, 1e-9, 0.5)
        report = PropertyReport(
            name="identity", samples_run=3, passed=True, max_residual=0.0,
            first_counterexample=None, seed=1,
        )
        assert report == PropertyReport("identity", 3, True, 0.0, None, 1)

    def test_map_classification_defaults_to_no_payload(self):
        verdict = MapClassification("zero")
        assert (verdict.matrix, verdict.witness_u, verdict.witness_v, verdict.residual) == (
            None, None, None, None,
        )
        assert verdict == MapClassification.zero() == MapClassification(verdict="zero")

    def test_a_verdict_with_witnesses_survives_a_pickle(self):
        u, v = GyroVector([0.5, 0.0]), GyroVector([0.0, 0.25])
        verdict = MapClassification.not_endomorphism(u, v, 0.125)
        twin = pickle.loads(pickle.dumps(verdict))
        assert twin.to_json_dict() == verdict.to_json_dict()

    @pytest.mark.parametrize(
        "args",
        [(1, 2, 3), (1, 2, 3, 4, 5)],
        ids=["too few", "too many"],
    )
    def test_hermitian_takes_four_fields(self, args):
        with pytest.raises(TypeError):
            Hermitian2(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((np.inf, 1.0, 0.0, 0.0), "a must be finite, got inf"),
            ((1.0, 1.0, 0.0, np.nan), "im_b must be finite, got nan"),
            ((0.8, 0.3, 0.0, 0.0), "trace must be 1, got 1.1"),
            ((1.2, -0.2, 0.0, 0.0), "matrix is not positive definite (a=1.2, det=-0.24)"),
        ],
    )
    def test_density_refusals_keep_their_messages(self, args, message):
        with pytest.raises(ValueError) as exc:
            DensityMatrix2(*args)
        assert str(exc.value) == message
