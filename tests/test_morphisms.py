"""Tests for linear maps on the ball, the endomorphism check, and the classifier."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import gyrokit
from gyrokit import (
    BallDomainError,
    BallMap,
    BallSampler,
    DimensionMismatchError,
    GyroVector,
    LinearMap,
    MapClassification,
    PreconditionError,
    UnsupportedDimensionError,
    check_endomorphism,
    classify_endomorphism,
    decision_threshold,
    derive_seed,
    einstein_add,
    endomorphism_residual,
    is_orthogonal,
    line_param,
    random_orthogonal,
    zero_propagation_check,
)
from gyrokit import morphisms
from gyrokit.ball import ToleranceConfig


def add_1d(a, b):
    return (a + b) / (1.0 + a * b)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
HALVING = np.array([[0.5, 0.0], [0.0, 0.5]])
COPIERS = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]


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

    @pytest.mark.parametrize("copier", COPIERS, ids=["pickle", "copy", "deepcopy"])
    def test_copies_keep_entries_frozen(self, copier):
        m = LinearMap(np.eye(3))
        c = copier(m)
        assert not c.entries.flags.writeable
        with pytest.raises(ValueError):
            c.entries[0, 0] = 5.0
        assert np.array_equal(c.entries, m.entries)

    @pytest.mark.parametrize("copier", COPIERS, ids=["pickle", "copy", "deepcopy"])
    def test_copied_orthogonal_verdict_keeps_its_matrix_frozen(self, copier):
        verdict = copier(MapClassification.orthogonal(LinearMap(ROT90)))
        assert verdict.verdict == MapClassification.ORTHOGONAL
        assert not verdict.matrix.entries.flags.writeable
        assert np.array_equal(verdict.matrix.entries, ROT90)


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

    def test_one_by_one(self):
        assert is_orthogonal([[1.0]])
        assert not is_orthogonal([[2.0]])

    @pytest.mark.parametrize(
        "entries",
        [[[1.0, 0.0, 0.0]], np.ones(3), [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], [],
         np.zeros((0, 0)), np.ones((2, 2, 2)), 1.0],
        ids=["row", "vector", "tall", "empty", "empty_square", "stack", "scalar"],
    )
    def test_refuses_all_but_a_non_empty_square_matrix(self, entries):
        with pytest.raises(ValueError) as exc:
            is_orthogonal(entries)
        assert str(exc.value) == f"entries must be a square matrix, got shape {np.shape(entries)}"


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

    def test_image_overflowing_to_inf_is_inf_without_warning(self):
        # the suite turns RuntimeWarning into an error
        f = BallMap.from_matrix([[1e308, 1e308], [0.0, 1.0]])
        u = GyroVector([0.9, 0.3])
        v = GyroVector([-0.6, 0.2])
        assert endomorphism_residual(f, u, v) == math.inf
        with pytest.raises(BallDomainError, match="map output is not a ball point"):
            f(u)

    def test_long_row_overflowing_in_every_order_is_inf_without_warning(self):
        # a row of eight like-signed 1.7e308: the exact image coordinate,
        # 4.76e308, is past the float range, so it overflows in whatever
        # order a matrix-vector kernel sums the row
        m = np.eye(8)
        m[0] = 1.7e308
        f = BallMap.from_matrix(m)
        u = GyroVector(np.full(8, 0.35))
        assert endomorphism_residual(f, u, GyroVector.zero(8)) == math.inf
        with pytest.raises(BallDomainError, match="map output is not a ball point"):
            f(u)

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

    def test_failure_is_shrunk_toward_the_origin(self):
        rep = check_endomorphism(BallMap.from_matrix(HALVING), n_samples=200, seed=7)
        ce = rep.first_counterexample
        assert ce["residual"] > decision_threshold()
        assert all(GyroVector(ce[key]).norm < 0.05 for key in ("u", "v"))

    def test_output_leaving_the_ball_fails_instead_of_raising(self):
        rep = check_endomorphism(BallMap.from_matrix(2.0 * np.eye(2)), n_samples=50, seed=1)
        assert not rep.passed
        assert rep.max_residual == math.inf
        assert rep.first_counterexample["residual"] > decision_threshold()

    def test_overflowing_map_fails_without_warning(self):
        rep = check_endomorphism(BallMap.from_matrix([[1e308, 1e308], [0.0, 1.0]]), 10, 7)
        assert not rep.passed
        assert rep.max_residual == math.inf

    def test_deterministic_across_runs(self):
        f = BallMap.from_matrix(rotation(0.3))
        a = check_endomorphism(f, n_samples=100, seed=11)
        b = check_endomorphism(f, n_samples=100, seed=11)
        assert a.to_json_line() == b.to_json_line()


class TestClassifier:
    def test_nan_law_residual_is_not_an_endomorphism(self, monkeypatch):
        # the law scan scores its pairs with the row kernel
        monkeypatch.setattr(
            gyrokit.morphisms, "_law_rows", lambda image, u, v: np.full(u.shape[:-1], math.nan)
        )
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

    @pytest.mark.parametrize("family", ["doubling", "radial"])
    def test_map_that_escapes_the_ball_is_not_an_endomorphism(self, family):
        # an output that leaves the ball scores inf, as in the verifier
        def radial(u):
            # |u| -> tanh(4 artanh|u|) leaves the guarded ball once |u| >
            # tanh(artanh(1 - 1e-9) / 4) ~ 0.9906, as 2.5 % of the points
            # sampled up to 0.999 in d = 3 do, and more of their sums
            if u.norm == 0.0:
                return np.zeros(3)
            return math.tanh(4.0 * math.atanh(u.norm)) * u.coords / u.norm

        doubling = BallMap.from_matrix(2.0 * np.eye(3))
        f = doubling if family == "doubling" else BallMap(radial, dim=3)
        res = classify_endomorphism(f, n_samples=200, seed=1)
        assert res.verdict == MapClassification.NOT_ENDOMORPHISM
        assert res.residual == math.inf

    def test_each_scan_chunk_is_one_generator_call(self, monkeypatch, scan_chunk):
        # the law scan and the agreement scan draw three chunks each
        calls, default_rng = [], np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        q = random_orthogonal(default_rng(4), 3)
        res = classify_endomorphism(BallMap.from_matrix(q), 2 * scan_chunk(256) + 1, seed=5)
        assert res.verdict == MapClassification.ORTHOGONAL
        assert calls == ["standard_normal"] * 6

    def test_a_stack_holds_one_chunk_at_a_time(self, scan_chunk):
        # each scan reduces the stack's chunk c before it draws chunk c + 1,
        # so the peak does not grow with n: 16 chunks held at once would
        # take about four times the memory of one
        rng = np.random.default_rng(8)
        maps = [BallMap.from_matrix(random_orthogonal(rng, 3)) for _ in range(8)]
        peaks, chunk = {}, scan_chunk(256)
        for n in (chunk, 16 * chunk):
            tracemalloc.start()
            try:
                verdicts = morphisms._classify_stack(maps, 3, n, ToleranceConfig())
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert {v.verdict for v in verdicts} == {MapClassification.ORTHOGONAL}
        assert peaks[16 * chunk] < 1.5 * peaks[chunk]

    def test_probe_that_escapes_the_ball_is_not_an_endomorphism(self):
        # the identity except at radius 0.5, where the probes sit: the law
        # scan never meets that sphere, the first probe leaves the ball
        f = BallMap(lambda w: 3 * w.coords if abs(w.norm - 0.5) < 1e-12 else w.coords, 2)
        res = classify_endomorphism(f, n_samples=200, seed=7)
        assert res.verdict == MapClassification.NOT_ENDOMORPHISM
        assert res.witness_u.tolist() == res.witness_v.tolist() == [0.5, 0.0]
        assert res.residual == math.inf


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

    def test_reports_first_failing_evaluation_and_counts_evaluations(self):
        calls = []

        def broken(w):
            out = np.asarray(w.coords) if w.norm > 0.9 else np.zeros(w.dim)
            calls.append((w, out))
            return out

        x = GyroVector([0.5, 0.0])
        rep = zero_propagation_check(BallMap(broken, dim=2), x, n_samples=200, seed=7)
        n_translates = 200 // 20
        # calls: f(x), the diameter, then per translate pair two references
        # and 20 line points each; the references are not scanned
        n_params = len(calls) - 1 - 42 * n_translates
        assert rep.samples_run == n_params + 40 * n_translates
        # the diameter is scanned first, and its residual is |f(w)|
        diameter = calls[1 : 1 + n_params]
        first = next(i for i, (_, out) in enumerate(diameter) if np.linalg.norm(out) > 1e-6)
        ce = rep.first_counterexample
        assert ce["part"] == "diameter"
        assert ce["residual"] == pytest.approx(np.linalg.norm(diameter[first][1]), rel=1e-14)
        assert ce["residual"] < rep.max_residual
        np.testing.assert_allclose(
            line_param(x, ce["t"]).coords, diameter[first][0].coords, rtol=1e-13
        )

    def test_output_leaving_the_ball_fails_instead_of_raising(self):
        # zero inside radius 0.9 and 1.5 w outside: the diameter's far end
        # and many translates map out of the ball
        f = BallMap(lambda w: np.zeros(2) if w.norm < 0.9 else 1.5 * w.coords, 2)
        rep = zero_propagation_check(f, GyroVector([0.5, 0.0]), n_samples=200, seed=7)
        assert not rep.passed
        assert rep.max_residual == math.inf
        assert list(rep.first_counterexample) == ["part", "t", "base", "residual"]

    def test_evaluates_each_base_once_when_its_image_escapes(self):
        bases = []

        def escaping(w):
            # the two reference points of each translate pair leave the ball
            if w.tolist() in bases:
                return 2.0 * w.coords / w.norm
            return np.zeros(2)

        seed, x = 7, GyroVector([0.5, 0.0])
        sampler = BallSampler(derive_seed(seed, "zero_prop_base"), 2)
        bases += [sampler.sample().tolist() for _ in range(2 * 4)]
        calls = []

        def counted(w):
            calls.append(w.tolist())
            return escaping(w)

        rep = zero_propagation_check(BallMap(counted, 2), x, n_samples=80, seed=seed)
        assert not rep.passed
        assert rep.max_residual == math.inf
        # every reference is evaluated once; no line point of a failed translate is
        assert [c for c in calls if c in bases] == bases
        assert rep.samples_run == len(calls) - 1 + len(bases) * (20 - 1)

    def test_refuses_a_float_sample_count(self):
        # 2.5 samples once ran the 617 evaluations of one translate pair
        with pytest.raises(TypeError):
            zero_propagation_check(BallMap.zero(2), GyroVector([0.5, 0.0]), 2.5, 1)

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
