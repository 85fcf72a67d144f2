import copy
import math
import pickle
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrokit import (
    BallDomainError,
    BallSampler,
    DimensionMismatchError,
    GyroVector,
    ToleranceConfig,
    approx_eq,
    einstein_add,
    gamma,
    gyration,
    line_param,
    neg,
)
from gyrokit.ball import _dot


def add_1d(u: float, v: float) -> float:
    # collinear composition oracle, independent of the n-dimensional formula
    return (u + v) / (1.0 + u * v)


class TestGyroVector:
    def test_construction_and_cache(self):
        u = GyroVector([0.3, 0.4])
        assert u.dim == 2
        assert u.norm == pytest.approx(0.5, abs=1e-15)
        assert u.norm2 == pytest.approx(0.25, abs=1e-15)

    def test_zero(self):
        z = GyroVector.zero(4)
        assert z.norm == 0.0
        assert z.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_coords_are_frozen(self):
        u = GyroVector([0.1, 0.2])
        with pytest.raises(ValueError):
            u.coords[0] = 0.9

    @pytest.mark.parametrize("dim", [3, 20])
    @pytest.mark.parametrize(
        "copier",
        [lambda u: pickle.loads(pickle.dumps(u)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_keep_coords_frozen(self, dim, copier):
        u = GyroVector(np.linspace(-0.2, 0.2, dim))
        u.coords  # built, so that a slot copy would carry the array
        v = copier(u)
        assert not v.coords.flags.writeable
        with pytest.raises(ValueError):
            v.coords[0] = 5.0
        assert (v.dim, v.norm2, v.norm, v.tolist()) == (u.dim, u.norm2, u.norm, u.tolist())

    def test_does_not_alias_input_array(self):
        raw = np.array([0.1, 0.2])
        u = GyroVector(raw)
        raw[0] = 0.7
        assert u.coords[0] == 0.1

    @pytest.mark.parametrize(
        "bad",
        [[1.0, 0.0], [0.0, -1.0], [0.8, 0.8], [1.5], [1.0 - 1e-12, 0.0]],
    )
    def test_rejects_outside_or_near_boundary(self, bad):
        with pytest.raises(BallDomainError):
            GyroVector(bad)

    @pytest.mark.parametrize(
        "bad", [[], [float("nan"), 0.0], [float("inf")], ["x", "y"], [10**400]]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(BallDomainError):
            GyroVector(bad)

    def test_rejects_matrix_shaped_input(self):
        with pytest.raises(BallDomainError):
            GyroVector([[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize("bad", [[1e200, 0.0], [0.0, -1e300], [1.7e308, 1.7e308]])
    def test_finite_vector_too_long_to_square_is_outside_without_warning(self, bad):
        # the suite turns RuntimeWarning into an error, so an overflowing
        # v.dot(v) would surface here instead of the boundary message
        with pytest.raises(BallDomainError, match="not strictly inside the unit ball"):
            GyroVector(bad)

    @pytest.mark.parametrize("bad", [[float("nan"), 1e200], [float("inf"), -1e200]])
    def test_non_finite_beside_a_huge_coordinate_is_not_finite(self, bad):
        with pytest.raises(BallDomainError, match="^coords must be finite$"):
            GyroVector(bad)

    @pytest.mark.parametrize(
        "point, text",
        [
            (GyroVector([0.5, 0.0]), "GyroVector([0.5, 0.0])"),
            (neg(GyroVector([0.5, 0.0])), "GyroVector([-0.5, -0.0])"),
        ],
    )
    def test_repr_prints_plain_floats_that_evaluate_back(self, point, text):
        # numpy >= 2 would print each coordinate as np.float64(...)
        assert repr(point) == text
        assert eval(text, {"GyroVector": GyroVector}).coords.tobytes() == point.coords.tobytes()


def numpy_parse(coords):
    """What np.array(coords, dtype=float) makes of coords, the parse that
    decided what a coordinate is: the array, or the constructor's message
    for the error it raises."""
    try:
        return np.array(coords, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        return f"coords are not real numbers: {exc}"


def outcome(coords):
    """The coordinate bytes GyroVector(coords) holds, or the message it raises."""
    try:
        return GyroVector(coords).coords.tobytes()
    except BallDomainError as exc:
        return str(exc)


_INF, _NAN = float("inf"), float("nan")
PARSE_CASES = [
    # lists and tuples of ints and floats
    [0.5, -0.25], (0.1, 0.2, 0.3), [1, 0], (0, 0, 0), [0, 1e-300], (1, 0.5), [-1, 0],
    [2**53 + 1, 0], [2**64 + 1], [10**400], (0.5, -(10**400)), [0.999999999, 0.0],
    # ndarrays and numpy scalars
    np.array([0.1, 0.2]), np.array([0, 1]), np.array([0.25], dtype=np.float32),
    np.array(0.5), np.array([]), np.array([[0.1, 0.2]]), np.float64(0.5),
    [np.float64(0.1), np.float32(0.2)], [np.int64(0), 0.5], (np.float64(0.5),),
    # strings, bools, Fraction and Decimal
    ["0.5", "0.25"], ["x"], "0.5", ["1_0"], [" 0.5 "], ["inf"], ["nan"], [0.5, "0.5"],
    [True, False], [False, False], (False, True, False), [True],
    [Fraction(1, 3), Fraction(1, 4)], [Fraction(10**400, 3)], [Decimal("0.1"), Decimal("0.2")],
    [Decimal("1e400")], [0.5, Fraction(1, 8)],
    # nested, 0-d and empty
    [[0.1, 0.2], [0.3, 0.4]], [[0.1]], [[]], [0.1, [0.2]], ([0.1],), 0.5, 3, None, [None],
    [], (), "",
    # inf, nan, huge and complex
    [_INF, 0.0], [_NAN], [_NAN, 1e200], [_INF, -1e200], [1e200, 0.0], [1e200, 1e200],
    [1.7e308, 1.7e308], [-1e300], [1e150, 0.0], [1e149, 0.0], [1j], [0.5 + 0j], 0.5j,
]


PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.booleans(),
)


def padded(head, dim: int) -> list:
    return list(head) + [0.0] * (dim - len(head))


# a point given as a list, a tuple or an array
FORMS = pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "array"])
# the 1-D lists and tuples of PARSE_CASES, to pad to a long point
LONG_HEADS = [
    c for c in PARSE_CASES
    if type(c) in (list, tuple) and not any(isinstance(a, (list, tuple)) for a in c)
]
_OUTSIDE = "is not strictly inside the unit ball (boundary margin 1e-09)"
REFUSALS = [
    ([1e150, 0.0], f"|v| = 1e+150 {_OUTSIDE}"),
    ([1e149, 0.0], f"|v| = 1e+149 {_OUTSIDE}"),
    ([1e200, 1e200], f"|v| = 1.414213562373095e+200 {_OUTSIDE}"),
    ([1.7e308, 1.7e308], f"|v| = inf {_OUTSIDE}"),
    ([0.999999999, 0.0], f"|v| = 0.999999999 {_OUTSIDE}"),
    ([_NAN, 1e200], "coords must be finite"),
    ([_INF, -1e200], "coords must be finite"),
    ([_NAN, 0.5], "coords must be finite"),
]


class TestConstructorParity:
    """GyroVector accepts and refuses exactly what numpy's parse decided,
    with the same messages: a list or tuple of floats, ints and bools is
    read without numpy, and must agree with the array numpy makes of it."""

    @pytest.mark.parametrize("coords", PARSE_CASES, ids=repr)
    def test_agrees_with_the_numpy_parse(self, coords):
        parsed = numpy_parse(coords)
        if isinstance(parsed, str):
            assert outcome(coords) == parsed
        else:
            # the array is numpy's own path; a list or tuple must land where it does
            assert outcome(coords) == outcome(parsed)

    @settings(max_examples=300, deadline=None)
    @given(
        # short points hold floats; from 16 coordinates a point holds an array
        st.one_of(
            st.lists(PLAIN_NUMBERS, max_size=6), st.lists(PLAIN_NUMBERS, min_size=16, max_size=64)
        ),
        st.booleans(),
    )
    def test_agrees_on_random_plain_numbers(self, coords, as_tuple):
        coords = tuple(coords) if as_tuple else coords
        parsed = numpy_parse(coords)
        assert outcome(coords) == (parsed if isinstance(parsed, str) else outcome(parsed))

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("coords", LONG_HEADS, ids=repr)
    def test_long_points_agree_with_the_numpy_parse(self, coords, dim):
        # from 16 coordinates a point holds an array: a list, a tuple and
        # numpy's array of them must still land alike
        coords = padded(coords, dim)
        parsed = numpy_parse(coords)
        expected = parsed if isinstance(parsed, str) else outcome(parsed)
        assert outcome(coords) == outcome(tuple(coords)) == expected

    @pytest.mark.parametrize("dim", [2, 16, 64])
    @FORMS
    @pytest.mark.parametrize("head, message", REFUSALS, ids=repr)
    def test_refusals_keep_their_messages(self, head, message, form, dim):
        # fixed strings, not a comparison of two parses, which could drift together
        with pytest.raises(BallDomainError) as exc:
            GyroVector(form(padded(head, dim)))
        assert str(exc.value) == message

    @FORMS
    def test_a_long_point_on_the_guard_is_refused_and_one_just_inside_accepted(self, form):
        # 64 equal coordinates: the last accepted one and the next float up
        inside, on = 0.12499999987500005, 0.12499999987500006
        assert GyroVector(form([inside] * 64)).norm == 0.9999999989999999
        with pytest.raises(BallDomainError) as exc:
            GyroVector(form([on] * 64))
        assert str(exc.value) == f"|v| = 0.999999999 {_OUTSIDE}"

    def test_a_long_point_sums_outside_the_callers_numpy_error_state(self):
        # its dot runs in numpy's default error state, overflow aside, and
        # leaves the caller's as it was
        with np.errstate(all="raise"):
            assert GyroVector(np.full(64, 1e-200)).norm2 == 0.0  # squares underflow
            with pytest.raises(BallDomainError, match="^coords must be finite$"):
                GyroVector(np.array([_NAN] + [1e200] * 63))
            assert set(np.geterr().values()) == {"raise"}

    @pytest.mark.parametrize("dim", [1, 3, 15, 16, 64])
    @FORMS
    def test_norm2_is_the_ordered_dot(self, dim, form):
        x = np.random.default_rng(dim).uniform(-1.0, 1.0, dim)
        x *= 0.9 / math.sqrt(_dot(x, x))
        u = GyroVector(form(x.tolist()))
        assert u.norm2.hex() == _dot(x, x).hex()
        assert u.norm.hex() == math.sqrt(u.norm2).hex()

    def test_lists_and_tuples_are_read_without_numpy(self):
        script = textwrap.dedent(
            """
            import sys
            from gyrokit import BallDomainError, GyroVector, einstein_add
            einstein_add(GyroVector([0.5, 1e-3, False]), GyroVector((0, -0.25, 0)))
            for bad in ([], (1.0, 0.0), [float("nan")], [10**400], [1e200, 0.0]):
                try:
                    GyroVector(bad)
                except BallDomainError:
                    pass
            assert "numpy" not in sys.modules
            """
        )
        subprocess.run([sys.executable, "-c", script], check=True)


class TestEinsteinAdd:
    def test_collinear_golden(self):
        # oracle first: the 1-D law gives 0.8/1.15
        expected = add_1d(0.5, 0.3)
        assert expected == pytest.approx(0.8 / 1.15, rel=1e-15)
        w = einstein_add(GyroVector([0.5, 0.0]), GyroVector([0.3, 0.0]))
        assert w.coords[0] == pytest.approx(expected, rel=1e-13)
        assert w.coords[1] == 0.0
        assert f"{w.coords[0]:.12g}" == "0.695652173913"

    def test_orthogonal_golden(self):
        # oracle: with (u,v) = 0 the law collapses to u + sqrt(1-|u|^2) v
        expected_y = math.sqrt(1.0 - 0.25) * 0.5
        w = einstein_add(GyroVector([0.5, 0.0]), GyroVector([0.0, 0.5]))
        assert w.coords[0] == pytest.approx(0.5, abs=1e-15)
        assert w.coords[1] == pytest.approx(expected_y, rel=1e-14)
        assert f"{w.coords[1]:.12g}" == "0.433012701892"

    def test_identity_both_sides(self):
        u = GyroVector([0.2, -0.4, 0.1])
        z = GyroVector.zero(3)
        assert approx_eq(einstein_add(u, z), u)
        assert approx_eq(einstein_add(z, u), u)

    def test_inverse_both_sides(self):
        u = GyroVector([0.6, 0.3])
        assert einstein_add(u, neg(u)).norm < 1e-12
        assert einstein_add(neg(u), u).norm < 1e-12

    def test_left_cancellation(self):
        u = GyroVector([0.5, 0.2, -0.1])
        v = GyroVector([-0.3, 0.4, 0.6])
        recovered = einstein_add(neg(u), einstein_add(u, v))
        assert np.allclose(recovered.coords, v.coords, atol=1e-14)

    def test_noncommutative_in_general(self):
        u = GyroVector([0.5, 0.0])
        v = GyroVector([0.0, 0.5])
        uv = einstein_add(u, v)
        vu = einstein_add(v, u)
        assert not approx_eq(uv, vu)
        # but the norms agree
        assert uv.norm == pytest.approx(vu.norm, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            einstein_add(GyroVector([0.1, 0.2]), GyroVector([0.1, 0.2, 0.3]))

    @given(
        st.floats(min_value=-0.95, max_value=0.95),
        st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_1d_oracle(self, u, v):
        w = einstein_add(GyroVector([u]), GyroVector([v]))
        assert w.coords[0] == pytest.approx(add_1d(u, v), rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_gamma_identity_random(self, ux, uy, vx):
        if ux * ux + uy * uy > 0.9:
            return
        u = GyroVector([ux, uy])
        v = GyroVector([vx, 0.0])
        w = einstein_add(u, v)
        rhs = gamma(u) * gamma(v) * (1.0 + float(u.coords @ v.coords))
        assert gamma(w) == pytest.approx(rhs, rel=1e-10)


class TestGamma:
    def test_at_origin(self):
        assert gamma(GyroVector.zero(3)) == 1.0

    def test_golden_half(self):
        value = gamma(GyroVector([0.5, 0.0]))
        assert value == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-15)
        assert f"{value:.12g}" == "1.15470053838"

    def test_golden_point_eight(self):
        value = gamma(GyroVector([0.8, 0.0]))
        assert value == pytest.approx(1.0 / 0.6, rel=1e-14)

    def test_monotone_in_norm(self):
        values = [gamma(GyroVector([r, 0.0])) for r in (0.0, 0.3, 0.6, 0.9)]
        assert values == sorted(values)
        assert values[0] == 1.0


class TestGyration:
    def test_trivial_when_either_argument_zero(self):
        u = GyroVector([0.5, 0.1])
        z = GyroVector.zero(2)
        w = GyroVector([0.2, -0.3])
        assert approx_eq(gyration(u, z, w), w)
        assert approx_eq(gyration(z, u, w), w)

    def test_trivial_on_inverse_pair(self):
        u = GyroVector([0.4, -0.2, 0.3])
        w = GyroVector([0.1, 0.5, -0.2])
        assert approx_eq(gyration(u, neg(u), w), w)

    def test_preserves_norm_golden(self):
        # |gyr[u,v]w| = |w| = sqrt(0.1); the composition itself is the
        # implementation, so the oracle is the exactly known norm
        g = gyration(GyroVector([0.5, 0.0]), GyroVector([0.0, 0.5]), GyroVector([0.3, 0.1]))
        assert g.norm == pytest.approx(math.sqrt(0.1), rel=1e-12)

    def test_preserves_inner_products(self):
        u = GyroVector([0.3, 0.2, -0.4])
        v = GyroVector([-0.1, 0.5, 0.2])
        w1 = GyroVector([0.6, 0.0, 0.1])
        w2 = GyroVector([-0.2, -0.3, 0.5])
        g1 = gyration(u, v, w1)
        g2 = gyration(u, v, w2)
        lhs = float(g1.coords @ g2.coords)
        rhs = float(w1.coords @ w2.coords)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_accepts_inputs_whose_sums_leave_the_ball(self):
        # u (+) v and v (+) w round past the guard, so the definition
        # -(u (+) v) (+) (u (+) (v (+) w)) raises; gyr of collinear u, v is the
        # identity
        fast = GyroVector([0.99999, 0.0])
        with pytest.raises(BallDomainError):
            einstein_add(fast, fast)
        g = gyration(fast, fast, fast)
        assert isinstance(g, GyroVector)
        assert approx_eq(g, fast)

    def test_result_past_the_guard_raises_the_guard_error(self):
        # |w| is one ulp under the guard, and the rotated w rounds onto it
        u = GyroVector([-0.36, 0.53])
        v = GyroVector([-0.16, -0.47])
        w = GyroVector([0.7862063928173941, -0.6179640004830874])
        with pytest.raises(BallDomainError, match="is not strictly inside the unit ball"):
            gyration(u, v, w)


class TestGyrationAxioms:
    """The gyrogroup axioms about gyrations as maps (Ungar 2008, ch. 2),
    which bind the closed-form gyration to einstein_add.  Each residual is
    divided by (gamma(u) gamma(v))^2, times gamma(a) gamma(b) for the
    automorphism law, over 1000 seeded quadruples (u, v, a, b).  The worst
    measured, over d = 2, 3, 5, rmax 0.99 and 0.999 and seeds 11-13, was
    2.0e-16, so the bound of 10 machine epsilons leaves a margin of 11x."""

    BOUND = 10 * np.finfo(float).eps

    @staticmethod
    def quadruples(dim: int, rmax: float):
        rows = BallSampler(11, dim, rmax).sample_rows(4000).reshape(1000, 4, dim)
        for row in rows:
            u, v, a, b = map(GyroVector, row)
            yield u, v, a, b, (gamma(u) * gamma(v)) ** 2

    @staticmethod
    def gap(x: GyroVector, y: GyroVector) -> float:
        return float(np.linalg.norm(x.coords - y.coords))

    @pytest.mark.parametrize("rmax", [0.99, 0.999])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_left_loop_property(self, dim, rmax):
        # gyr[u (+) v, v] = gyr[u, v]
        for u, v, a, _, scale in self.quadruples(dim, rmax):
            got = gyration(einstein_add(u, v), v, a)
            assert self.gap(got, gyration(u, v, a)) <= self.BOUND * scale

    @pytest.mark.parametrize("rmax", [0.99, 0.999])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_gyroautomorphism(self, dim, rmax):
        # gyr[u, v](a (+) b) = gyr[u, v]a (+) gyr[u, v]b
        for u, v, a, b, scale in self.quadruples(dim, rmax):
            got = gyration(u, v, einstein_add(a, b))
            want = einstein_add(gyration(u, v, a), gyration(u, v, b))
            assert self.gap(got, want) <= self.BOUND * scale * gamma(a) * gamma(b)

    @pytest.mark.parametrize("rmax", [0.99, 0.999])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_gyration_inversion(self, dim, rmax):
        # gyr[v, u] = gyr[u, v]^-1
        for u, v, a, _, scale in self.quadruples(dim, rmax):
            assert self.gap(gyration(v, u, gyration(u, v, a)), a) <= self.BOUND * scale


class TestLineParam:
    def test_endpoints(self):
        x = GyroVector([0.5, 0.0])
        assert line_param(x, 0.0).norm == 0.0
        assert approx_eq(line_param(x, 1.0), x)

    def test_doubling_matches_1d_oracle(self):
        # t=2 walks the diameter twice: tanh(2 artanh 0.5) = 0.5 (+) 0.5
        p = line_param(GyroVector([0.5, 0.0]), 2.0)
        assert p.coords[0] == pytest.approx(add_1d(0.5, 0.5), rel=1e-14)
        assert p.coords[1] == 0.0

    def test_negative_parameter_reflects(self):
        x = GyroVector([0.0, 0.4])
        p = line_param(x, -1.0)
        assert approx_eq(p, neg(x))

    def test_parameter_additivity(self):
        x = GyroVector([0.3, -0.2])
        lhs = einstein_add(line_param(x, 0.7), line_param(x, 1.1))
        rhs = line_param(x, 1.8)
        assert np.allclose(lhs.coords, rhs.coords, atol=1e-13)

    def test_stays_on_the_ray(self):
        x = GyroVector([0.12, 0.35, -0.2])
        p = line_param(x, 2.5)
        cross = np.outer(p.coords, x.coords) - np.outer(x.coords, p.coords)
        assert float(np.max(np.abs(cross))) < 1e-15

    def test_requires_nonzero_direction(self):
        with pytest.raises(BallDomainError):
            line_param(GyroVector.zero(2), 1.0)

    def test_huge_parameter_hits_the_guard(self):
        # tanh saturates toward 1, which the strict constructor refuses
        with pytest.raises(BallDomainError):
            line_param(GyroVector([0.5, 0.0]), 50.0)

    @pytest.mark.parametrize(
        "t", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative", "fraction"]
    )
    def test_parameter_past_the_float_range_is_not_finite(self, t):
        # float(t) overflows; it is refused as an infinite parameter is
        with pytest.raises(BallDomainError, match="^parameter must be finite, got -?inf$"):
            line_param(GyroVector([0.5, 0.0]), t)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.abs_tol == 1e-9
        assert tol.rel_tol == 1e-9
        assert tol.sample_rmax == 0.999

    def test_boundary_margin_is_not_a_field(self):
        # the guard is fixed at DEFAULT_BOUNDARY_MARGIN, not configurable
        with pytest.raises(TypeError):
            ToleranceConfig(boundary_margin=1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-9},
            {"sample_rmax": 1.0},
            # inside the unit ball but past the guard
            {"sample_rmax": 1 - 1e-10},
            # a bool is an int to Python, but True is no tolerance of 1
            {"abs_tol": True},
            {"rel_tol": True},
            # positive, but not as a float
            {"abs_tol": Fraction(1, 10**400)},
            {"rel_tol": 10**400},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)

    def test_accepts_any_finite_positive_real_as_a_float(self):
        tol = ToleranceConfig(abs_tol=np.float32(1e-9), rel_tol=1, sample_rmax=np.float64(0.5))
        assert tol.abs_tol == float(np.float32(1e-9))
        assert (tol.rel_tol, tol.sample_rmax) == (1.0, 0.5)
        assert all(type(t) is float for t in (tol.abs_tol, tol.rel_tol, tol.sample_rmax))
        tol = ToleranceConfig(abs_tol=Fraction(1, 10), rel_tol=np.int64(2))
        assert (tol.abs_tol, tol.rel_tol) == (0.1, 2.0)
        assert type(tol.abs_tol) is float and type(tol.rel_tol) is float

    @pytest.mark.parametrize(
        "value, shown",
        [
            (Decimal("0.1"), "Decimal('0.1')"),
            (True, "True"),
            (10**400, repr(10**400)),
            (float("nan"), "nan"),
            ("0.1", "'0.1'"),
            (None, "None"),
            (-1, "-1"),
            (Fraction(1, 10**400), f"Fraction(1, {10**400!r})"),
        ],
        ids=["Decimal", "True", "10**400", "nan", "str", "None", "negative", "tiny Fraction"],
    )
    def test_a_refusal_names_the_field_and_the_value(self, value, shown):
        with pytest.raises(ValueError) as exc:
            ToleranceConfig(rel_tol=value)
        assert str(exc.value) == f"rel_tol must be a finite positive number, got {shown}"

    def test_a_sample_radius_past_the_guard_is_refused_as_a_float(self):
        with pytest.raises(ValueError) as exc:
            ToleranceConfig(sample_rmax=Fraction(1))
        assert str(exc.value) == "sample_rmax must be < 1 - 1e-09, got 1.0"

    def test_approx_eq_uses_config(self):
        a = GyroVector([0.1, 0.0])
        b = GyroVector([0.1 + 5e-7, 0.0])
        assert not approx_eq(a, b)
        assert approx_eq(a, b, ToleranceConfig(abs_tol=1e-6))
