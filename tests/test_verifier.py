"""Tests for the property verifier: sampling, the registry, and report behavior."""

import json
import math

import numpy as np
import pytest

from gyrokit import (
    BallMap,
    BallSampler,
    GyroVector,
    Hermitian2,
    PropertyReport,
    ToleranceConfig,
    UnknownPropertyError,
    check_endomorphism,
    classify_endomorphism,
    derive_seed,
    registered_names,
    run_suite,
    zero_propagation_check,
)
from gyrokit.sampling import json_ready, seeded_scan
from gyrokit.verifier import _sampled_check

ALL_NAMES = (
    "closure",
    "identity",
    "left_inverse",
    "left_cancellation",
    "gamma_identity",
    "gyration_orthogonality",
    "gyrocommutativity",
    "one_parameter_subgroup",
    "commutes_iff_dependent",
    "collinearity_equivalence",
    "left_translation_isometry",
    "klein_distance_metric",
    "line_translation_distance",
    "endomorphism_fixes_zero",
    "orthogonal_endomorphism",
    "orthogonal_residual_bound",
    "classifier_soundness",
    "classifier_reconstruction",
    "bloch_homomorphism",
    "det_normalization_homomorphism",
    "sqrt_squares_back",
    "boxdot_det_multiplicative",
    "transported_automorphism",
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_labels_separate_streams(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_masters_separate_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_a_generator_seed(self):
        s = derive_seed(2**62, "anything")
        assert 0 <= s < 2**63
        np.random.default_rng(s)


class TestBallSampler:
    def test_draws_stay_inside_the_radius(self):
        s = BallSampler(seed=1, dim=3, rmax=0.999)
        norms = [s.sample().norm for _ in range(10_000)]
        assert max(norms) <= 0.999
        # draws should actually use the available radius
        assert max(norms) > 0.99

    def test_same_seed_same_stream(self):
        a = BallSampler(seed=5, dim=4, rmax=0.9)
        b = BallSampler(seed=5, dim=4, rmax=0.9)
        for _ in range(50):
            np.testing.assert_array_equal(a.sample().coords, b.sample().coords)

    def test_different_seeds_differ(self):
        a = BallSampler(seed=5, dim=2, rmax=0.9).sample()
        b = BallSampler(seed=6, dim=2, rmax=0.9).sample()
        assert not np.array_equal(a.coords, b.coords)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=0, rmax=0.9)

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=1.0)
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=0.0)
        # inside the unit ball but past the guard, so draws could be refused
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=1 - 1e-10)


class TestPropertyReport:
    def test_json_line_round_trips(self):
        rep = PropertyReport(
            name="demo",
            samples_run=10,
            passed=True,
            max_residual=1.25e-13,
            first_counterexample=None,
            seed=7,
        )
        d = json.loads(rep.to_json_line())
        assert list(d) == [
            "name",
            "samples_run",
            "passed",
            "max_residual",
            "first_counterexample",
            "seed",
        ]
        assert d["passed"] is True
        assert d["max_residual"] == pytest.approx(1.25e-13, rel=1e-14)

    def test_counterexample_vectors_become_lists(self):
        rep = PropertyReport(
            name="demo",
            samples_run=1,
            passed=False,
            max_residual=0.5,
            first_counterexample={"u": GyroVector([0.5, 0.0]), "residual": 0.5},
            seed=1,
        )
        d = json.loads(rep.to_json_line())
        assert d["first_counterexample"]["u"] == [0.5, 0.0]


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "0.0"),
        (0.12345678901234567, "0.123456789012346"),
        (float("inf"), '"inf"'),
        (float("nan"), '"nan"'),
        (GyroVector([0.5, -0.25]), "[0.5, -0.25]"),
        (np.float64(1.0 / 3.0), "0.333333333333333"),
        (np.int64(3), "3"),
        (Hermitian2(1.0, 2.0, 0.5, -0.0), '{"a": 1.0, "d": 2.0, "re_b": 0.5, "im_b": 0.0}'),
        (
            {"u": [1.0, (np.float64(2.5), -0.0)], "flag": True, "none": None},
            '{"u": [1.0, [2.5, 0.0]], "flag": true, "none": null}',
        ),
    ],
)
def test_json_ready_formats_every_value_kind(value, text):
    assert json.dumps(json_ready(value), allow_nan=False) == text


class TestRegistry:
    def test_exactly_the_expected_names_in_order(self):
        assert registered_names() == ALL_NAMES

    def test_unknown_name_is_rejected_with_the_catalog(self):
        with pytest.raises(UnknownPropertyError) as exc:
            run_suite(["no_such_property"], n_samples=10, seed=1)
        msg = str(exc.value)
        assert "no_such_property" in msg
        assert "closure" in msg


class TestRunSuite:
    def test_reports_come_back_in_request_order(self):
        names = ["identity", "closure", "gamma_identity"]
        reports = run_suite(names, n_samples=20, seed=3)
        assert [r.name for r in reports] == names

    def test_deterministic_output(self):
        names = ["closure", "left_cancellation", "bloch_homomorphism"]
        a = run_suite(names, n_samples=50, seed=11)
        b = run_suite(names, n_samples=50, seed=11)
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]

    def test_seed_changes_the_stream(self):
        a = run_suite(["closure"], n_samples=50, seed=1)[0]
        b = run_suite(["closure"], n_samples=50, seed=2)[0]
        assert a.max_residual != b.max_residual

    def test_core_laws_pass_at_small_budget(self):
        names = [
            "closure",
            "identity",
            "left_inverse",
            "left_cancellation",
            "gamma_identity",
            "gyration_orthogonality",
            "gyrocommutativity",
            "one_parameter_subgroup",
        ]
        for rep in run_suite(names, n_samples=100, seed=3):
            assert rep.passed, rep.to_json_line()
            assert rep.seed == 3

    def test_indicator_checks_report_zero_residual(self):
        for name in ("commutes_iff_dependent", "collinearity_equivalence"):
            rep = run_suite([name], n_samples=100, seed=5)[0]
            assert rep.passed
            assert rep.max_residual == 0.0

    @pytest.mark.parametrize("seed", [1, 14, 16, 18])
    def test_collinearity_draws_stay_evaluable(self, seed):
        # at these seeds some translated off-line pair once summed past the
        # construction guard, so commutes raised and the property read inf
        rep = run_suite(["collinearity_equivalence"], n_samples=1000, seed=seed)[0]
        assert rep.passed, rep.to_json_line()

    def test_closure_residual_is_a_norm_bound(self):
        rep = run_suite(["closure"], n_samples=100, seed=7)[0]
        assert rep.passed
        assert rep.max_residual < 1.0

    def test_matrix_model_checks_pass(self):
        names = [
            "bloch_homomorphism",
            "det_normalization_homomorphism",
            "sqrt_squares_back",
            "boxdot_det_multiplicative",
            "transported_automorphism",
        ]
        for rep in run_suite(names, n_samples=100, seed=3):
            assert rep.passed, rep.to_json_line()

    def test_classifier_checks_pass(self):
        names = ["classifier_soundness", "classifier_reconstruction"]
        for rep in run_suite(names, n_samples=50, seed=3):
            assert rep.passed, rep.to_json_line()

    def test_classifier_failure_reports(self):
        # below any rounding noise no probed matrix counts as orthogonal, so
        # the first instance of each check fails with the verdict it got
        tol = ToleranceConfig(abs_tol=1e-30)
        names = ["classifier_soundness", "classifier_reconstruction"]
        lines = [r.to_json_line() for r in run_suite(names, 40, 7, tol)]
        assert lines == [
            '{"name": "classifier_soundness", "samples_run": 12, "passed": false, '
            '"max_residual": 1.0, "first_counterexample": {"family": "orthogonal", '
            '"dim": 2, "expected": "orthogonal", "got": "not_endomorphism", '
            '"residual": 1.0}, "seed": 7}',
            '{"name": "classifier_reconstruction", "samples_run": 4, "passed": false, '
            '"max_residual": "inf", "first_counterexample": {"dim": 2, '
            '"expected": "orthogonal", "got": "not_endomorphism", "residual": "inf"}, '
            '"seed": 7}',
        ]

    def test_samples_run_scales_with_dimension_coverage(self):
        rep = run_suite(["left_cancellation"], n_samples=40, seed=1)[0]
        # core laws run the budget once per ambient dimension
        assert rep.samples_run == 40 * 3


@pytest.mark.parametrize("n_samples", [0, -1])
@pytest.mark.parametrize(
    "run",
    [
        lambda n: run_suite(["closure"], n, 1),
        lambda n: run_suite(["classifier_soundness"], n, 1),
        lambda n: run_suite(["classifier_reconstruction"], n, 1),
        lambda n: check_endomorphism(BallMap.zero(2), n, 1),
        lambda n: classify_endomorphism(BallMap.zero(2), n, 1),
        lambda n: zero_propagation_check(BallMap.zero(2), GyroVector([0.5, 0.0]), n, 1),
    ],
    ids=[
        "closure",
        "classifier_soundness",
        "classifier_reconstruction",
        "check_endomorphism",
        "classify_endomorphism",
        "zero_propagation_check",
    ],
)
def test_sample_budget_below_one_is_rejected(run, n_samples):
    with pytest.raises(ValueError):
        run(n_samples)


@pytest.mark.parametrize(
    "residuals, worst, first",
    [
        ([math.nan, math.nan], 0, 0),
        ([0.1, math.nan, 3.0, math.nan, math.inf], 1, 1),
        ([0.1, 3.0, math.nan], 2, 1),
    ],
)
def test_nan_residual_fails_the_scan(residuals, worst, first):
    # a NaN compares false with everything, so it must not pass as "not over"
    max_residual, worst_item, first_failure = seeded_scan(
        range(len(residuals)), residuals.__getitem__, 0.5
    )
    assert math.isnan(max_residual)
    assert worst_item == worst
    assert first_failure[0] == first


def test_nan_residual_fails_the_report():
    check = _sampled_check(
        "nan_probe", (2,), lambda s, tol: {"u": s.sample()}, lambda inputs, tol: math.nan,
        lambda tol: 1.0,
    )
    report = json.loads(check.run(5, 7, ToleranceConfig()).to_json_line())
    assert report["passed"] is False
    assert report["max_residual"] == "nan"
    assert report["first_counterexample"]["residual"] == "nan"


class TestShrinking:
    def test_counterexample_is_shrunk_toward_the_origin(self):
        # impossible tolerance forces a failure on the first draw, then the
        # shrinker halves the inputs while they keep failing
        tol = ToleranceConfig(abs_tol=1e-30)
        rep = run_suite(["left_cancellation"], n_samples=5, seed=1, tol=tol)[0]
        assert not rep.passed
        ce = rep.first_counterexample
        assert ce is not None
        assert ce["residual"] > 1e-30
        for key in ("u", "v"):
            assert float(np.linalg.norm(np.asarray(ce[key]))) < 0.5

    def test_passing_run_has_no_counterexample(self):
        rep = run_suite(["left_cancellation"], n_samples=20, seed=1)[0]
        assert rep.passed
        assert rep.first_counterexample is None
