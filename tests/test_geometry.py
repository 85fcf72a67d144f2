import math

import numpy as np
import pytest

from gyrokit import (
    GyroVector,
    collinear_direct,
    collinear_gyro,
    commutes,
    einstein_add,
    gram_band,
    klein_distance,
    linearly_dependent,
    neg,
)


class TestKleinDistance:
    def test_zero_at_coincident_points(self):
        x = GyroVector([0.3, -0.2])
        assert klein_distance(x, x) < 1e-7
        assert klein_distance(GyroVector.zero(2), GyroVector.zero(2)) == 0.0

    def test_from_origin_is_artanh_golden(self):
        # oracle: d(0, u) = artanh(|u|)
        d = klein_distance(GyroVector.zero(2), GyroVector([0.5, 0.0]))
        assert d == pytest.approx(math.atanh(0.5), rel=1e-12)
        assert f"{d:.12g}" == "0.549306144334"

    def test_collinear_points_add_along_the_line(self):
        # 0.8 = 0.5 (+) 0.5, so d(0.5, 0.8) = artanh(0.8) - artanh(0.5)
        d = klein_distance(GyroVector([0.5, 0.0]), GyroVector([0.8, 0.0]))
        assert d == pytest.approx(math.atanh(0.8) - math.atanh(0.5), rel=1e-10)

    def test_symmetry(self):
        x = GyroVector([0.3, 0.1, -0.5])
        y = GyroVector([-0.2, 0.6, 0.1])
        assert klein_distance(x, y) == klein_distance(y, x)

    def test_left_translation_preserves_distance(self):
        u = GyroVector([0.4, -0.3])
        v = GyroVector([0.1, 0.6])
        w = GyroVector([-0.5, 0.2])
        before = klein_distance(v, w)
        after = klein_distance(einstein_add(u, v), einstein_add(u, w))
        assert after == pytest.approx(before, abs=1e-12)

    def test_no_nan_under_rounding(self):
        # a chained point equal to itself must clamp, not go NaN
        u = GyroVector([0.7, 0.1])
        v = einstein_add(u, GyroVector([0.1, -0.2]))
        assert math.isfinite(klein_distance(v, v))


class TestCommutes:
    def test_parallel_vectors_commute(self):
        assert commutes(GyroVector([0.2, 0.0]), GyroVector([0.6, 0.0]))
        assert commutes(GyroVector([0.3, 0.3]), GyroVector([-0.1, -0.1]))

    def test_zero_commutes_with_everything(self):
        assert commutes(GyroVector.zero(2), GyroVector([0.3, 0.4]))

    def test_independent_vectors_do_not(self):
        assert not commutes(GyroVector([0.5, 0.0]), GyroVector([0.0, 0.5]))

    def test_matches_linear_dependence(self):
        pairs = [
            (GyroVector([0.2, 0.1]), GyroVector([0.4, 0.2])),
            (GyroVector([0.2, 0.1]), GyroVector([-0.4, -0.2])),
            (GyroVector([0.5, 0.0]), GyroVector([0.0, 0.5])),
            (GyroVector([0.3, 0.4]), GyroVector([0.4, 0.3])),
        ]
        for u, v in pairs:
            assert commutes(u, v) == linearly_dependent(u, v)


class TestLinearlyDependent:
    def test_scalar_multiples(self):
        u = GyroVector([0.3, -0.1, 0.2])
        v = GyroVector(np.asarray(u.coords) * -1.5)
        assert linearly_dependent(u, v)

    def test_zero_is_dependent_with_anything(self):
        assert linearly_dependent(GyroVector.zero(2), GyroVector([0.5, 0.1]))

    def test_independent(self):
        assert not linearly_dependent(GyroVector([0.5, 0.0]), GyroVector([0.01, 0.1]))

    def test_gram_determinant_oracle(self):
        a = np.array([0.3, 0.0])
        b = np.array([0.0, 0.4])
        # 2-D oracle: gram det equals the squared cross product
        det, band = gram_band(a, b)
        assert det == pytest.approx((0.3 * 0.4) ** 2, rel=1e-15)
        assert band == pytest.approx(1e-9 * (1.0 + 0.09 * 0.16), rel=1e-15)
        assert gram_band(a, 2.0 * a)[0] == pytest.approx(0.0, abs=1e-18)


class TestCollinearity:
    def test_diagonal_points_golden(self):
        x = GyroVector([0.1, 0.1])
        y = GyroVector([0.2, 0.2])
        z = GyroVector([0.3, 0.3])
        assert collinear_gyro(x, y, z)
        assert collinear_direct(x, y, z)

    def test_axis_points_are_not_collinear(self):
        x = GyroVector.zero(2)
        y = GyroVector([0.3, 0.0])
        z = GyroVector([0.0, 0.3])
        assert not collinear_gyro(x, y, z)
        assert not collinear_direct(x, y, z)

    def test_degenerate_triples_are_collinear(self):
        x = GyroVector([0.4, 0.1])
        z = GyroVector([-0.2, 0.5])
        assert collinear_gyro(x, x, z)
        assert collinear_direct(x, x, z)
        assert collinear_gyro(x, z, z)

    def test_chord_not_through_origin(self):
        # same Euclidean chord sampled at three parameters
        p = np.array([0.5, -0.2])
        q = np.array([-0.1, 0.6])
        x, y, z = (GyroVector(p + s * (q - p)) for s in (0.1, 0.5, 0.9))
        assert collinear_direct(x, y, z)
        assert collinear_gyro(x, y, z)

    def test_routes_agree_off_the_line(self):
        x = GyroVector([0.2, 0.1, -0.3])
        y = GyroVector([-0.4, 0.2, 0.1])
        z = GyroVector([0.1, -0.5, 0.4])
        assert collinear_gyro(x, y, z) == collinear_direct(x, y, z) == False

    def test_translated_pair_really_commutes_on_chords(self):
        p = np.array([0.3, 0.3])
        q = np.array([0.3, -0.5])
        x, y, z = (GyroVector(p + s * (q - p)) for s in (0.0, 0.4, 1.0))
        a = einstein_add(neg(x), y)
        b = einstein_add(neg(x), z)
        assert commutes(a, b)
        assert linearly_dependent(a, b)
