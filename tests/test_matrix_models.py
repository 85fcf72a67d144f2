"""Tests for the 2x2 Hermitian matrix models and the Bloch correspondence."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gyrokit import (
    DensityMatrix2,
    DimensionMismatchError,
    GyroVector,
    Hermitian2,
    PosDef2Det1,
    PositivityError,
    bloch_to_density,
    boxdot,
    density_to_bloch,
    einstein_add,
    is_positive_definite,
    normalize_det,
    odot,
    sqrt_congruence,
    sqrt_posdef2,
)


def add_1d(a, b):
    return (a + b) / (1.0 + a * b)


def as_array(a, d, b):
    return np.array([[a, b], [np.conj(b), d]], dtype=complex)


def dense(h: Hermitian2) -> np.ndarray:
    return as_array(h.a, h.d, complex(h.re_b, h.im_b))


class TestHermitian2:
    def test_trace_and_det_match_numpy(self):
        h = Hermitian2(2.0, 1.5, 0.3, -0.4)
        m = dense(h)
        assert h.trace == pytest.approx(np.trace(m).real, rel=1e-15)
        assert h.det == pytest.approx(np.linalg.det(m).real, rel=1e-14)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            Hermitian2(np.inf, 1.0, 0.0, 0.0)

    def test_json_dict_field_order(self):
        d = Hermitian2(1.0, 2.0, 0.5, -0.5).to_json_dict()
        assert list(d) == ["a", "d", "re_b", "im_b"]

    def test_json_dict_has_no_negative_zero(self):
        d = Hermitian2(1.0, 1.0, 0.0, -0.0).to_json_dict()
        assert str(d["im_b"]) == "0.0"


class TestPositivity:
    def test_identity_is_positive(self):
        assert is_positive_definite(Hermitian2(1.0, 1.0, 0.0, 0.0))

    def test_negative_diagonal_is_not(self):
        assert not is_positive_definite(Hermitian2(-1.0, -1.0, 0.0, 0.0))

    def test_indefinite_is_not(self):
        # det = 1 - 4 < 0
        assert not is_positive_definite(Hermitian2(1.0, 1.0, 2.0, 0.0))

    def test_positive_semidefinite_boundary_is_not(self):
        assert not is_positive_definite(Hermitian2(1.0, 0.0, 0.0, 0.0))


class TestConstrainedTypes:
    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix2(0.8, 0.3, 0.0, 0.0)

    def test_density_requires_positive_definite(self):
        with pytest.raises(PositivityError):
            DensityMatrix2(1.2, -0.2, 0.0, 0.0)

    def test_density_accepts_maximally_mixed(self):
        rho = DensityMatrix2(0.5, 0.5, 0.0, 0.0)
        assert rho.trace == 1.0

    def test_det_one_requires_unit_determinant(self):
        with pytest.raises(ValueError):
            PosDef2Det1(2.0, 1.0, 0.0, 0.0)

    def test_det_one_requires_positive_definite(self):
        with pytest.raises(PositivityError):
            PosDef2Det1(-1.0, -1.0, 0.0, 0.0)

    def test_det_one_band_grows_with_the_entries(self):
        # normalize_det of a density with 1 - |u| = 2e-8 has entries near
        # 5000, and a d - |b|^2 cancels to det 0.9999999962747097
        rho = DensityMatrix2(0.5, 0.5, 0.49999999, 0.0)
        p = normalize_det(rho)
        assert abs(p.det - 1.0) > 1e-9
        assert p.a == pytest.approx(rho.a / math.sqrt(rho.det), rel=1e-15)

    def test_det_one_rejects_a_miss_of_1e6_at_unit_scale(self):
        with pytest.raises(PositivityError, match="determinant must be 1"):
            PosDef2Det1(1.0 + 1e-6, 1.0, 0.0, 0.0)
        with pytest.raises(PositivityError, match="determinant must be 1"):
            PosDef2Det1(2.0, 1.0, math.sqrt(1.0 - 1e-6), 0.0)

    def test_det_one_accepts_hyperbolic_diagonal(self):
        p = PosDef2Det1(2.0, 0.5, 0.0, 0.0)
        assert p.det == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "fields, det",
        [
            ((1e200, 1e200, 0.0, 0.0), math.inf),
            ((1.3e154, 1.3e154, 1e154, 0.0), 6.899999999999998e307),
        ],
        ids=["det", "band"],
    )
    def test_det_one_refuses_a_band_that_overflows(self, fields, det):
        # a d overflows, so that |det - 1| <= band = inf would hold; or a d
        # and |b|^2 are finite, and only their sum in the band overflows
        with pytest.raises(PositivityError) as exc:
            PosDef2Det1(*fields)
        assert str(exc.value) == f"determinant must be 1, got {det!r}"


class TestSqrt:
    def test_identity(self):
        r = sqrt_posdef2(Hermitian2(1.0, 1.0, 0.0, 0.0))
        assert (r.a, r.d, r.re_b, r.im_b) == (1.0, 1.0, 0.0, 0.0)

    def test_diagonal(self):
        r = sqrt_posdef2(Hermitian2(4.0, 1.0, 0.0, 0.0))
        assert r.a == pytest.approx(2.0, rel=1e-15)
        assert r.d == pytest.approx(1.0, rel=1e-15)

    def test_square_back_oracle_then_golden(self):
        h = Hermitian2(2.0, 1.0, 1.0, 0.0)
        r = sqrt_posdef2(h)
        # oracle: squaring the result in plain matrix arithmetic recovers h
        sq = dense(r) @ dense(r)
        np.testing.assert_allclose(sq, dense(h), rtol=1e-14, atol=1e-14)
        assert r.a == pytest.approx(1.34164078649988, rel=1e-12)
        assert r.d == pytest.approx(0.894427190999916, rel=1e-12)
        assert r.re_b == pytest.approx(0.447213595499958, rel=1e-12)
        assert r.im_b == 0.0

    def test_complex_off_diagonal(self):
        h = Hermitian2(2.0, 2.0, 0.0, 1.0)
        r = sqrt_posdef2(h)
        sq = dense(r) @ dense(r)
        np.testing.assert_allclose(sq, dense(h), rtol=1e-14, atol=1e-14)

    def test_result_is_positive_definite(self):
        r = sqrt_posdef2(Hermitian2(3.0, 2.0, 0.5, 0.7))
        assert is_positive_definite(r)

    def test_rejects_indefinite(self):
        with pytest.raises(PositivityError):
            sqrt_posdef2(Hermitian2(1.0, 1.0, 2.0, 0.0))

    def test_rejects_negative_definite(self):
        with pytest.raises(PositivityError):
            sqrt_posdef2(Hermitian2(-1.0, -1.0, 0.0, 0.0))

    def test_rejects_an_overflowing_determinant(self):
        # det = 1e400 is inf, where the closed form would take inf / inf
        h = Hermitian2(1e200, 1e200, 0.0, 0.0)
        for root in (lambda: sqrt_posdef2(h), lambda: sqrt_congruence(h, h)):
            with pytest.raises(PositivityError, match="finite determinant, got det=inf"):
                root()


class TestSqrtCongruence:
    def test_identity_left_factor_is_plain_product(self):
        eye = Hermitian2(1.0, 1.0, 0.0, 0.0)
        b = Hermitian2(1.5, 0.8, 0.2, -0.1)
        assert sqrt_congruence(eye, b) == b

    def test_matches_numpy_oracle(self):
        a = Hermitian2(2.0, 1.0, 0.3, 0.4)
        b = Hermitian2(1.5, 0.8, -0.2, 0.1)
        out = sqrt_congruence(a, b)
        ra = dense(sqrt_posdef2(a))
        expected = ra @ dense(b) @ ra
        np.testing.assert_allclose(dense(out), expected, rtol=1e-13, atol=1e-13)

    def test_determinant_is_multiplicative(self):
        a = Hermitian2(2.0, 1.0, 0.3, 0.4)
        b = Hermitian2(1.5, 0.8, -0.2, 0.1)
        out = sqrt_congruence(a, b)
        assert out.det == pytest.approx(a.det * b.det, rel=1e-13)


class TestBloch:
    def test_origin_is_maximally_mixed(self):
        rho = bloch_to_density(GyroVector.zero(3))
        assert (rho.a, rho.d, rho.re_b, rho.im_b) == (0.5, 0.5, 0.0, 0.0)

    def test_third_axis_sets_the_diagonal(self):
        rho = bloch_to_density(GyroVector([0.0, 0.0, 0.6]))
        assert (rho.a, rho.d, rho.re_b, rho.im_b) == (0.8, 0.2, 0.0, 0.0)

    def test_first_axis_sets_the_real_off_diagonal(self):
        rho = bloch_to_density(GyroVector([0.6, 0.0, 0.0]))
        assert (rho.re_b, rho.im_b) == (0.3, 0.0)

    def test_second_axis_sets_the_imaginary_off_diagonal(self):
        rho = bloch_to_density(GyroVector([0.0, 0.6, 0.0]))
        assert (rho.re_b, rho.im_b) == (0.0, -0.3)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            bloch_to_density(GyroVector([0.5, 0.0]))

    def test_rejects_unit_norm_vector(self):
        with pytest.raises(ValueError):
            bloch_to_density(GyroVector([0.999999999, 0.0, 0.0]))

    @given(
        st.lists(st.floats(-0.55, 0.55), min_size=3, max_size=3).filter(
            lambda c: float(np.linalg.norm(c)) < 0.95
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, coords):
        v = GyroVector(coords)
        back = density_to_bloch(bloch_to_density(v))
        np.testing.assert_allclose(back.coords, v.coords, rtol=1e-14, atol=1e-15)


class TestOdot:
    MIXED = DensityMatrix2(0.5, 0.5, 0.0, 0.0)

    def test_maximally_mixed_is_neutral_on_the_right(self):
        a = bloch_to_density(GyroVector([0.3, -0.2, 0.1]))
        out = odot(a, self.MIXED)
        np.testing.assert_allclose(dense(out), dense(a), rtol=1e-14, atol=1e-15)

    def test_maximally_mixed_is_neutral_on_the_left(self):
        b = bloch_to_density(GyroVector([0.3, -0.2, 0.1]))
        out = odot(self.MIXED, b)
        np.testing.assert_allclose(dense(out), dense(b), rtol=1e-14, atol=1e-15)

    def test_matches_collinear_velocity_sum(self):
        # on one axis the product must reproduce scalar relativistic addition
        u = GyroVector([0.0, 0.0, 0.5])
        v = GyroVector([0.0, 0.0, 0.3])
        out = odot(bloch_to_density(u), bloch_to_density(v))
        expected = bloch_to_density(GyroVector([0.0, 0.0, add_1d(0.5, 0.3)]))
        np.testing.assert_allclose(dense(out), dense(expected), rtol=1e-13, atol=1e-14)

    def test_matches_general_velocity_sum(self):
        u = GyroVector([0.35, -0.1, 0.2])
        v = GyroVector([-0.15, 0.4, 0.25])
        out = odot(bloch_to_density(u), bloch_to_density(v))
        expected = bloch_to_density(einstein_add(u, v))
        np.testing.assert_allclose(dense(out), dense(expected), rtol=1e-12, atol=1e-13)

    def test_is_noncommutative(self):
        a = bloch_to_density(GyroVector([0.5, 0.0, 0.0]))
        b = bloch_to_density(GyroVector([0.0, 0.5, 0.0]))
        ab = odot(a, b)
        ba = odot(b, a)
        assert np.max(np.abs(dense(ab) - dense(ba))) > 1e-3

    def test_result_is_a_density_matrix(self):
        a = bloch_to_density(GyroVector([0.4, 0.1, -0.3]))
        b = bloch_to_density(GyroVector([0.2, -0.5, 0.1]))
        out = odot(a, b)
        assert isinstance(out, DensityMatrix2)
        assert out.trace == pytest.approx(1.0, abs=1e-12)


class TestBoxdot:
    EYE = PosDef2Det1(1.0, 1.0, 0.0, 0.0)

    def test_identity_is_neutral(self):
        p = PosDef2Det1(2.0, 0.5, 0.0, 0.0)
        left = boxdot(self.EYE, p)
        right = boxdot(p, self.EYE)
        np.testing.assert_allclose(dense(left), dense(p), rtol=1e-14)
        np.testing.assert_allclose(dense(right), dense(p), rtol=1e-14)

    def test_diagonal_golden(self):
        a = PosDef2Det1(2.0, 0.5, 0.0, 0.0)
        b = PosDef2Det1(3.0, 1.0 / 3.0, 0.0, 0.0)
        out = boxdot(a, b)
        assert out.a == pytest.approx(6.0, rel=1e-14)
        assert out.d == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert out.re_b == 0.0 and out.im_b == 0.0

    def test_result_has_unit_determinant(self):
        a = normalize_det(bloch_to_density(GyroVector([0.3, -0.2, 0.4])))
        b = normalize_det(bloch_to_density(GyroVector([-0.1, 0.5, 0.2])))
        out = boxdot(a, b)
        assert isinstance(out, PosDef2Det1)
        assert out.det == pytest.approx(1.0, rel=1e-12)



def chain(product, a, b):
    """The product as built through Hermitian2 intermediates, sqrt_congruence's
    chain: its result, or the type and message of what it raises."""
    try:
        s = sqrt_congruence(a, b)
        if product is odot:
            t = s.trace
            if t <= 0.0:
                raise PositivityError(f"congruence trace must be positive, got {t!r}")
            return DensityMatrix2(s.a / t, s.d / t, s.re_b / t, s.im_b / t)
        return PosDef2Det1(s.a, s.d, s.re_b, s.im_b)
    except Exception as exc:
        return type(exc), str(exc)


def outcome(product, a, b):
    try:
        return product(a, b)
    except Exception as exc:
        return type(exc), str(exc)


def test_products_equal_their_hermitian_chain_to_the_guard():
    # pairs with 1 - |u| log-uniform from 1e-9 to 0.98, directions random;
    # repr tells -0.0 from 0.0
    rng = np.random.default_rng(27)
    for _ in range(400):
        g = rng.standard_normal((2, 3))
        radii = 1.0 - 10.0 ** rng.uniform(-9.0, math.log10(0.98), 2)
        a, b = (bloch_to_density(GyroVector(r * x / np.linalg.norm(x))) for x, r in zip(g, radii))
        assert repr(outcome(odot, a, b)) == repr(chain(odot, a, b))
        a, b = normalize_det(a), normalize_det(b)
        assert repr(outcome(boxdot, a, b)) == repr(chain(boxdot, a, b))


def test_boxdot_whose_congruence_overflows_raises_as_the_chain_did():
    p = PosDef2Det1(1e160, 1e-160, 0.0, 0.0)
    assert chain(boxdot, p, p) == (ValueError, "a must be finite, got inf")
    with pytest.raises(ValueError, match="^a must be finite, got inf$"):
        boxdot(p, p)

class TestNormalizeDet:
    def test_diagonal_golden(self):
        rho = DensityMatrix2(0.8, 0.2, 0.0, 0.0)
        out = normalize_det(rho)
        # oracle: sqrt(det) = sqrt(0.16) = 0.4, so entries scale by 1/0.4
        assert out.a == pytest.approx(2.0, rel=1e-14)
        assert out.d == pytest.approx(0.5, rel=1e-14)

    def test_maximally_mixed_goes_to_identity(self):
        out = normalize_det(DensityMatrix2(0.5, 0.5, 0.0, 0.0))
        assert (out.a, out.d, out.re_b, out.im_b) == (1.0, 1.0, 0.0, 0.0)

    def test_intertwines_the_two_products(self):
        a = bloch_to_density(GyroVector([0.3, -0.2, 0.4]))
        b = bloch_to_density(GyroVector([-0.1, 0.5, 0.2]))
        lhs = normalize_det(odot(a, b))
        rhs = boxdot(normalize_det(a), normalize_det(b))
        np.testing.assert_allclose(dense(lhs), dense(rhs), rtol=1e-12, atol=1e-13)

    def test_rejects_singular_input(self):
        bad = Hermitian2(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(PositivityError):
            normalize_det(bad)
