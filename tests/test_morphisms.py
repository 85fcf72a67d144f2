"""Tests for linear maps on the ball, the endomorphism check, and the classifier."""

import math

import numpy as np
import pytest

import gyrokit
from gyrokit import (
    BallDomainError,
    BallMap,
    DimensionMismatchError,
    GyroVector,
    LinearMap,
    MapClassification,
    PreconditionError,
    UnsupportedDimensionError,
    check_endomorphism,
    classify_endomorphism,
    decision_threshold,
    einstein_add,
    endomorphism_residual,
    is_orthogonal,
    random_orthogonal,
    zero_propagation_check,
)
from gyrokit.ball import ToleranceConfig


def add_1d(a, b):
    return (a + b) / (1.0 + a * b)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
HALVING = np.array([[0.5, 0.0], [0.0, 0.5]])


def test_no_public_name_is_collected_as_a_test():
    assert [name for name in gyrokit.__all__ if name.startswith("test_")] == []


class TestLinearMap:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LinearMap(np.ones((2, 3)))

    def test_rejects_dim_one(self):
        with pytest.raises(UnsupportedDimensionError):
            LinearMap(np.array([[1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearMap(np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_matrix_is_frozen(self):
        m = LinearMap(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(np.eye(3))

    def test_rotation(self):
        assert is_orthogonal(rotation(0.7))

    def test_reflection(self):
        assert is_orthogonal(np.diag([1.0, -1.0]))

    def test_scaling_is_not(self):
        assert not is_orthogonal(np.diag([1.0, 2.0]))

    def test_shear_is_not(self):
        assert not is_orthogonal(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestRandomOrthogonal:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_produces_orthogonal_matrices(self, dim):
        rng = np.random.default_rng(42)
        for _ in range(20):
            q = random_orthogonal(rng, dim)
            assert q.shape == (dim, dim)
            err = np.max(np.abs(q.T @ q - np.eye(dim)))
            assert err < 1e-12

    def test_hits_both_determinant_signs(self):
        rng = np.random.default_rng(0)
        dets = {round(float(np.linalg.det(random_orthogonal(rng, 3)))) for _ in range(40)}
        assert dets == {-1, 1}


class TestBallMap:
    def test_from_matrix_evaluates(self):
        f = BallMap.from_matrix(ROT90)
        u = GyroVector([0.3, 0.1])
        out = f(u)
        np.testing.assert_allclose(out.coords, [-0.1, 0.3])

    def test_zero_map(self):
        f = BallMap.zero(3)
        out = f(GyroVector([0.5, 0.1, -0.2]))
        assert out.norm == 0.0

    def test_rejects_dim_one(self):
        with pytest.raises(UnsupportedDimensionError):
            BallMap(lambda w: w.coords, dim=1)

    def test_rejects_input_of_wrong_dim(self):
        f = BallMap.from_matrix(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            f(GyroVector([0.1, 0.2, 0.3]))

    def test_escaping_output_reports_the_input(self):
        f = BallMap.from_matrix(2.0 * np.eye(2))
        with pytest.raises(BallDomainError) as exc:
            f(GyroVector([0.6, 0.0]))
        assert str(exc.value).startswith("map output is not a ball point at input [0.6, 0.0]: ")

    def test_unconvertible_output_reports_the_input(self):
        # an int too large for a float overflows during conversion
        f = BallMap(lambda u: [10**400, 0.0], 2)
        with pytest.raises(BallDomainError) as exc:
            f(GyroVector([0.1, 0.0]))
        assert str(exc.value).startswith("map output is not a ball point at input [0.1, 0.0]: ")


class TestEndomorphismResidual:
    def test_identity_map_is_exact(self):
        f = BallMap.from_matrix(np.eye(2))
        u = GyroVector([0.5, 0.1])
        v = GyroVector([-0.2, 0.4])
        assert endomorphism_residual(f, u, v) == 0.0

    def test_rotation_is_tiny(self):
        f = BallMap.from_matrix(ROT90)
        u = GyroVector([0.5, 0.1])
        v = GyroVector([-0.2, 0.4])
        assert endomorphism_residual(f, u, v) < 1e-15

    def test_halving_golden_value(self):
        # u = v = (0.5, 0): image of u+u is 0.4, sum of images is 0.25+0.25
        f = BallMap.from_matrix(HALVING)
        u = GyroVector([0.5, 0.0])
        oracle = abs(add_1d(0.25, 0.25) - 0.5 * add_1d(0.5, 0.5))
        r = endomorphism_residual(f, u, u)
        assert r == pytest.approx(oracle, rel=1e-14)
        assert r == pytest.approx(0.070588235294118, rel=1e-12)


class TestTestEndomorphism:
    def test_zero_map_passes_exactly(self):
        rep = check_endomorphism(BallMap.zero(2), n_samples=200, seed=7)
        assert rep.name == "endomorphism"
        assert rep.passed
        assert rep.max_residual == 0.0
        assert rep.first_counterexample is None
        assert rep.samples_run == 200

    def test_rotation_passes(self):
        rep = check_endomorphism(BallMap.from_matrix(rotation(1.1)), n_samples=500, seed=3)
        assert rep.passed
        assert rep.max_residual < 1e-9

    def test_halving_fails_with_counterexample(self):
        rep = check_endomorphism(BallMap.from_matrix(HALVING), n_samples=200, seed=7)
        assert not rep.passed
        assert rep.max_residual > 1e-6
        ce = rep.first_counterexample
        assert ce is not None
        u = GyroVector(ce["u"])
        v = GyroVector(ce["v"])
        f = BallMap.from_matrix(HALVING)
        # counterexample must reproduce independently
        assert endomorphism_residual(f, u, v) > 1e-6

    def test_deterministic_across_runs(self):
        f = BallMap.from_matrix(rotation(0.3))
        a = check_endomorphism(f, n_samples=100, seed=11)
        b = check_endomorphism(f, n_samples=100, seed=11)
        assert a.to_json_line() == b.to_json_line()


class TestClassifier:
    def test_nan_law_residual_is_not_an_endomorphism(self, monkeypatch):
        monkeypatch.setattr(gyrokit.morphisms, "endomorphism_residual", lambda f, u, v: math.nan)
        res = classify_endomorphism(BallMap.from_matrix(np.eye(2)), n_samples=20, seed=7)
        assert res.verdict == MapClassification.NOT_ENDOMORPHISM
        assert math.isnan(res.residual)

    def test_identity_is_orthogonal(self):
        res = classify_endomorphism(BallMap.from_matrix(np.eye(2)), n_samples=200, seed=7)
        assert res.verdict == MapClassification.ORTHOGONAL
        np.testing.assert_allclose(res.matrix.entries, np.eye(2), atol=1e-12)

    def test_rotation_matrix_is_recovered(self):
        res = classify_endomorphism(BallMap.from_matrix(ROT90), n_samples=200, seed=7)
        assert res.verdict == MapClassification.ORTHOGONAL
        np.testing.assert_allclose(res.matrix.entries, ROT90, atol=1e-12)

    def test_reflection_is_orthogonal(self):
        m = np.diag([1.0, -1.0])
        res = classify_endomorphism(BallMap.from_matrix(m), n_samples=200, seed=7)
        assert res.verdict == MapClassification.ORTHOGONAL
        np.testing.assert_allclose(res.matrix.entries, m, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_zero_map(self, dim):
        res = classify_endomorphism(BallMap.zero(dim), n_samples=200, seed=7)
        assert res.verdict == MapClassification.ZERO
        assert res.matrix is None
        assert res.witness_u is None

    def test_halving_is_rejected_with_witness(self):
        f = BallMap.from_matrix(HALVING)
        res = classify_endomorphism(f, n_samples=200, seed=7)
        assert res.verdict == MapClassification.NOT_ENDOMORPHISM
        assert res.residual > decision_threshold(ToleranceConfig())
        # witness must reproduce when recomputed from scratch
        r = endomorphism_residual(f, res.witness_u, res.witness_v)
        assert r == pytest.approx(res.residual, rel=1e-12)

    def test_nonlinear_map_is_rejected(self):
        def squash(w):
            return w.coords * (0.9 / (1.0 + w.norm))

        res = classify_endomorphism(BallMap(squash, dim=2), n_samples=300, seed=5)
        assert res.verdict == MapClassification.NOT_ENDOMORPHISM

    def test_deterministic(self):
        f = BallMap.from_matrix(rotation(0.4))
        a = classify_endomorphism(f, n_samples=150, seed=9)
        b = classify_endomorphism(f, n_samples=150, seed=9)
        assert a.verdict == b.verdict
        np.testing.assert_array_equal(a.matrix.entries, b.matrix.entries)

    def test_json_dict_shapes(self):
        zero = classify_endomorphism(BallMap.zero(2), n_samples=50, seed=1)
        assert zero.to_json_dict() == {"verdict": "zero"}
        orth = classify_endomorphism(BallMap.from_matrix(ROT90), n_samples=50, seed=1)
        d = orth.to_json_dict()
        assert d["verdict"] == "orthogonal"
        assert len(d["matrix"]) == 2
        bad = classify_endomorphism(BallMap.from_matrix(HALVING), n_samples=100, seed=1)
        d = bad.to_json_dict()
        assert set(d) == {"verdict", "witness_u", "witness_v", "residual"}

    def test_map_that_escapes_the_ball_raises(self):
        f = BallMap.from_matrix(2.0 * np.eye(2))
        with pytest.raises(BallDomainError):
            classify_endomorphism(f, n_samples=50, seed=1)


class TestZeroPropagation:
    def test_zero_map_passes_with_zero_deviation(self):
        rep = zero_propagation_check(
            BallMap.zero(2), GyroVector([0.5, 0.0]), n_samples=200, seed=7
        )
        assert rep.name == "zero_propagation"
        assert rep.passed
        assert rep.max_residual <= 1e-12
        assert rep.samples_run > 0

    def test_near_boundary_base_point_is_handled(self):
        # line parameters are capped so line points stay inside the ball
        rep = zero_propagation_check(
            BallMap.zero(2), GyroVector([0.9, 0.0]), n_samples=100, seed=3
        )
        assert rep.passed

    def test_negative_control_fails(self):
        # identity outside radius 0.9, zero inside: kills x but not its line
        def broken(w):
            if w.norm > 0.9:
                return np.asarray(w.coords)
            return np.zeros(w.dim)

        rep = zero_propagation_check(
            BallMap(broken, dim=2), GyroVector([0.5, 0.0]), n_samples=200, seed=7
        )
        assert not rep.passed
        assert rep.max_residual > 1e-6
        ce = rep.first_counterexample
        assert ce is not None
        assert ce["part"] in ("diameter", "chord", "half_ellipse")

    def test_rejects_zero_base_point(self):
        with pytest.raises(PreconditionError):
            zero_propagation_check(BallMap.zero(2), GyroVector.zero(2), n_samples=50, seed=1)

    def test_rejects_base_point_not_sent_to_zero(self):
        f = BallMap.from_matrix(np.eye(2))
        with pytest.raises(PreconditionError):
            zero_propagation_check(f, GyroVector([0.5, 0.0]), n_samples=50, seed=1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            zero_propagation_check(BallMap.zero(3), GyroVector([0.5, 0.0]), n_samples=50, seed=1)

    def test_deterministic(self):
        a = zero_propagation_check(BallMap.zero(2), GyroVector([0.4, 0.1]), n_samples=100, seed=2)
        b = zero_propagation_check(BallMap.zero(2), GyroVector([0.4, 0.1]), n_samples=100, seed=2)
        assert a.to_json_line() == b.to_json_line()
