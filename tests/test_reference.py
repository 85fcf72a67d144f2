"""Bit-for-bit checks of the lean internal paths against the plain forms.

Each reference below is the straightforward expression the package used
before its results skipped re-validation and numpy dispatch: the textbook
addition on one line, negation through the public constructor, the norm
as sqrt(x . x), and the sampler's one-point Gaussian draw.  Every inner
product sums its products left to right from +0.0, the package's one order,
written out here (ordered_dot) rather than taken from the package.  The arithmetic
is unchanged, so the results must agree exactly, bytes included, up to
points 1e-8 from the unit sphere.  A result outside the guarded ball must
fail with the public constructor's message, and every result is read-only.
Gyration alone changed its arithmetic: its closed form is bound to the
definition -(u (+) v) (+) (u (+) (v (+) w)), kept here, within tolerance.

The row kernels, and the column kernels of the matrix models, are bound
the same way: each must equal the scalar calls it replaced, row by row,
refusing a row exactly where the scalar call raises, and every batched
report must equal its replay one input at a time: the inputs of the
property's own row draw, scored by the scalar residuals kept here, and
scanned and shrunk by the one-input loop the Rows scan replaced.
"""

import itertools
import json
import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest

from gyrokit import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_SAMPLE_RMAX,
    DEFAULT_TOL,
    BallDomainError,
    BallMap,
    BallSampler,
    DensityMatrix2,
    GyroError,
    GyroVector,
    Hermitian2,
    PosDef2Det1,
    PropertyReport,
    ToleranceConfig,
    bloch_to_density,
    boxdot,
    check_endomorphism,
    classify_endomorphism,
    collinear_direct,
    collinear_gyro,
    commutes,
    decision_threshold,
    density_to_bloch,
    derive_seed,
    einstein_add,
    endomorphism_residual,
    gamma,
    gram_band,
    gyration,
    is_positive_definite,
    klein_distance,
    line_param,
    linearly_dependent,
    neg,
    normalize_det,
    odot,
    random_orthogonal,
    run_suite,
    sqrt_congruence,
    sqrt_posdef2,
    zero_propagation_check,
)
from gyrokit.ball import (
    _add_rows,
    _gamma_rows,
    _guard_rows,
    _gyration_rows,
    _line_param_rows,
    _norm_rows,
    _sum_rows,
)
from gyrokit.geometry import _commutes_rows, _klein_distance_rows
from gyrokit.matrix_models import (
    _bloch_to_density_rows,
    _boxdot_rows,
    _density_rows,
    _density_to_bloch_rows,
    _det1_rows,
    _normalize_det_rows,
    _odot_rows,
    _sqrt_congruence_rows,
    _sqrt_posdef_rows,
)
from gyrokit.morphisms import _haar, _image_norms, _law_rows, _linear_image
from gyrokit.sampling import SCAN_CHUNK, Rows, _blocks, json_ready, seeded_scan
from gyrokit import morphisms, sampling, verifier
from gyrokit.verifier import (
    _EVALUABILITY_BOUND,
    _collinearity_residual,
    _commutes_iff_dependent_residual,
    _gyration_orthogonality_residual,
    _gyrocommutativity_residual,
)

DIMS = (1, 2, 3, 5, 64)


def points(dim: int, seed: int) -> list[GyroVector]:
    """Seeded ball points: one at each 1 - |u| = 10^-k, k = 1..8, and 16
    spread over the ball of radius 0.999."""
    rng = np.random.default_rng(seed)
    radii = [1.0 - 10.0**-k for k in range(1, 9)]
    radii += [0.999 * rng.random() ** (1.0 / dim) for _ in range(16)]
    out = []
    for r in radii:
        g = rng.standard_normal(dim)
        out.append(GyroVector(r * (g / np.linalg.norm(g))))
    return out


def ordered_dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two real 1-D arrays: the rounded products summed left to
    right, starting from +0.0."""
    total = 0.0
    for p, q in zip(a.tolist(), b.tolist()):
        total += p * q
    return total


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: sqrt(x . x), the dot ordered."""
    return math.sqrt(ordered_dot(x, x))


def textbook_add(u: GyroVector, v: GyroVector) -> np.ndarray:
    duv = ordered_dot(u.coords, v.coords)
    s = math.sqrt(1.0 - u.norm2)
    return (u.coords + s * v.coords + (duv / (1.0 + s)) * u.coords) / (1.0 + duv)


def plain_sample(s: BallSampler) -> GyroVector:
    """One point as the plain form draws it: the first dim coordinates of a
    Gaussian (dim + 2)-vector over its norm, scaled by rmax, an all-zero
    vector drawn again."""
    g = s.rng.standard_normal(s.dim + 2)
    while (length := _norm(g)) == 0.0:
        g = s.rng.standard_normal(s.dim + 2)
    return GyroVector((s.rmax / length) * g[: s.dim])


def sq(x: float) -> float:
    """x squared by multiplication, as the row residuals square."""
    return x * x


def assert_same_point(got: GyroVector, want: GyroVector) -> None:
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.norm2 == want.norm2
    assert got.norm == want.norm


@pytest.mark.parametrize("dim", DIMS)
def test_einstein_add_matches_the_textbook_line(dim):
    pts = points(dim, seed=dim)
    refused = 0
    for u in pts:
        for v in pts:
            raw = textbook_add(u, v)
            try:
                want = GyroVector(raw)
            except BallDomainError as exc:
                # the sum of two near-boundary points can round onto the guard
                refused += 1
                with pytest.raises(BallDomainError) as got:
                    einstein_add(u, v)
                assert str(got.value) == str(exc)
                continue
            assert_same_point(einstein_add(u, v), want)
    assert refused < len(pts) ** 2 // 2


@pytest.mark.parametrize("dim", DIMS)
def test_neg_matches_the_constructor(dim):
    for u in points(dim, seed=100 + dim):
        assert_same_point(neg(u), GyroVector(-u.coords))


@pytest.mark.parametrize("dim", DIMS)
def test_norm_matches_numpy(dim):
    rng = np.random.default_rng(200 + dim)
    pts = points(dim, seed=200 + dim)
    arrays = [p.coords for p in pts] + [p.coords - q.coords for p in pts for q in pts[:4]]
    arrays += [rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 3) for _ in range(50)]
    for x in arrays:
        # numpy's norm sums in its BLAS's order, within a few ulp of the ordered one
        assert _norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=4e-16 * dim)
        assert type(_norm(x)) is float
        # numpy's cumulative sum runs in the same order as the ordered dot
        assert _norm(x) == math.sqrt(np.cumsum(x * x)[-1] + 0.0)
    # so does every inner product of two distinct points or differences
    for a, b in zip(arrays, arrays[1:]):
        assert ordered_dot(a, b) == np.cumsum(a * b)[-1] + 0.0


@pytest.mark.parametrize("dim", DIMS)
def test_sampler_matches_the_uniform_draw(dim):
    for seed in range(50):
        new, old = BallSampler(seed, dim), BallSampler(seed, dim)
        for _ in range(10):
            assert_same_point(new.sample(), plain_sample(old))
        assert new.rng.bit_generator.state == old.rng.bit_generator.state


FAST = GyroVector([0.99999, 0.0])
HALF = GyroVector([0.5, 0.0])


@pytest.mark.parametrize(
    "operation, raw",
    [
        # 2 * 0.99999 / (1 + 0.99999^2) is 5e-11 short of 1, past the guard
        (lambda: einstein_add(FAST, FAST), lambda: textbook_add(FAST, FAST)),
        # tanh(100 artanh 0.5) rounds to 1
        (lambda: line_param(HALF, 100.0), lambda: (1.0 / HALF.norm) * HALF.coords),
    ],
    ids=["einstein_add", "line_param"],
)
def test_out_of_ball_result_raises_the_constructor_message(operation, raw):
    with pytest.raises(BallDomainError) as expected:
        GyroVector(raw())
    with pytest.raises(BallDomainError) as got:
        operation()
    assert str(got.value) == str(expected.value)
    assert "is not strictly inside the unit ball" in str(got.value)


U = GyroVector([0.3, -0.2, 0.5])
V = GyroVector([-0.1, 0.6, 0.2])


@pytest.mark.parametrize(
    "make",
    [
        lambda: GyroVector([0.1, 0.2, 0.3]),
        lambda: GyroVector.zero(3),
        lambda: einstein_add(U, V),
        lambda: neg(U),
        lambda: gyration(U, V, U),
        lambda: line_param(U, 1.5),
        lambda: BallSampler(3, 3).sample(),
        lambda: BallMap.from_matrix(np.eye(3))(U),
    ],
    ids=["constructor", "zero", "add", "neg", "gyration", "line_param", "sample", "map"],
)
def test_every_result_is_read_only(make):
    point = make()
    assert not point.coords.flags.writeable
    with pytest.raises(ValueError):
        point.coords[0] = 0.0


# ------------------------------------------------------------ row kernels
#
# The row kernels evaluate the endomorphism layer over (n, d) arrays.  Each
# must equal its scalar path bit for bit, so every report stays the same.

MAP_DIMS = (2, 3, 5, 64)


def pair_rows(pts: list) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Every ordered pair of the points pts, as lists and as rows."""
    us = [u for u in pts for _ in pts]
    vs = [v for _ in pts for v in pts]
    return us, vs, np.array([u.coords for u in us]), np.array([v.coords for v in vs])


@pytest.mark.parametrize("dim", DIMS)
def test_add_rows_match_einstein_add(dim):
    us, vs, u_rows, v_rows = pair_rows(points(dim, seed=300 + dim))
    out = _add_rows(u_rows, v_rows)
    norm2, ok = _guard_rows(out)
    assert not ok.all()  # sums that round onto the guard are covered
    for u, v, row, row_norm2, row_ok in zip(us, vs, out, norm2, ok):
        try:
            want = einstein_add(u, v)
        except BallDomainError:
            assert not row_ok
            continue
        assert row_ok
        assert row.tobytes() == want.coords.tobytes()
        assert row_norm2 == want.norm2


@pytest.mark.parametrize("dim", DIMS)
def test_guard_rows_match_the_constructor(dim):
    rng = np.random.default_rng(400 + dim)
    rows = [p.coords for p in points(dim, seed=400 + dim)]
    rows += [p / (1.0 - 1e-9) for p in rows[:8]]  # pushed onto the guard
    on_guard = np.zeros(dim)
    on_guard[0] = 1.0 - 1e-9  # norm exactly the guard, which refuses it
    rows.append(on_guard)
    # squares stay finite: an overflowing one warns in both forms alike
    rows += [rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 150) for _ in range(20)]
    for bad in (math.nan, math.inf, -math.inf):
        row = np.zeros(dim)
        row[-1] = bad
        rows.append(row)
    norm2, ok = _guard_rows(np.array(rows))
    for row, row_norm2, row_ok in zip(rows, norm2, ok):
        try:
            want = GyroVector(row)
        except BallDomainError:
            assert not row_ok
            continue
        assert row_ok
        assert row_norm2 == want.norm2


@pytest.mark.parametrize("dim", DIMS)
def test_sample_rows_interleave_with_sample(dim):
    # a block of n points is one Gaussian (n, dim + 2) block, each row
    # scaled as the plain form scales one point, and sample() between
    # blocks draws as plain_sample does
    for seed in range(20):
        rows, plain = BallSampler(seed, dim), BallSampler(seed, dim)
        for n in (3, 0, 1, 17):
            block = rows.sample_rows(n)
            assert block.shape == (n, dim)
            for row, g in zip(block, plain.rng.standard_normal((n, dim + 2))):
                assert row.tobytes() == ((plain.rmax / _norm(g)) * g[:dim]).tobytes()
            assert_same_point(rows.sample(), plain_sample(plain))
        assert rows.rng.bit_generator.state == plain.rng.bit_generator.state


@pytest.mark.parametrize("dim", MAP_DIMS)
def test_stacked_haar_matches_random_orthogonal(dim):
    stacked, single = np.random.default_rng(dim), np.random.default_rng(dim)
    gaussians = np.array([stacked.standard_normal((dim, dim)) for _ in range(50)])
    for q in _haar(gaussians):
        assert q.tobytes() == random_orthogonal(single, dim).tobytes()
    assert stacked.bit_generator.state == single.bit_generator.state


def scalar_law(f: BallMap, u: GyroVector, v: GyroVector) -> float:
    """The law residual through scalar calls, inf where one leaves the ball."""
    try:
        return _norm(f(einstein_add(u, v)).coords - einstein_add(f(u), f(v)).coords)
    except GyroError:
        return math.inf


def matrix_map(q: np.ndarray) -> BallMap:
    """The restriction of q as the scalar path evaluated it, through @."""
    return BallMap(lambda w: q @ w.coords, len(q))


def maps(dim: int) -> dict[str, BallMap]:
    q = random_orthogonal(np.random.default_rng(dim), dim)
    return {
        "orthogonal": BallMap.from_matrix(q),
        "opaque": matrix_map(q),
        "half": BallMap.from_matrix(0.5 * np.eye(dim)),
        "double": BallMap.from_matrix(2.0 * np.eye(dim)),
        "zero": BallMap.zero(dim),
    }


@pytest.mark.parametrize("dim", MAP_DIMS)
def test_law_rows_match_the_scalar_composition(dim):
    us, vs, u_rows, v_rows = pair_rows(points(dim, seed=500 + dim))
    for f in maps(dim).values():
        rows = _law_rows(f._image_rows, u_rows, v_rows)
        for u, v, row in zip(us, vs, rows):
            want = scalar_law(f, u, v)
            assert float(row) == want
            assert endomorphism_residual(f, u, v) == want


@pytest.mark.parametrize("dim", MAP_DIMS)
def test_black_box_is_called_where_the_scalar_path_calls_it(dim):
    # a map that sends the outer ball out of it: no row that failed a sum or
    # an image is passed on, so the rows make the scalar path's calls
    calls = []

    def stretch(w):
        calls.append(w.coords.tobytes())
        return 1.4 * w.coords

    # the negated points make pairs whose sum maps into the ball but whose
    # first point does not
    pts = points(dim, seed=600 + dim)
    pts += [GyroVector(0.5 * p.coords) for p in pts] + [neg(p) for p in pts]
    us, vs, u_rows, v_rows = pair_rows(pts)
    f = BallMap(stretch, dim)
    rows = _law_rows(f._image_rows, u_rows, v_rows)
    row_calls, calls[:] = list(calls), []
    want, scalar_calls = [], []
    for u, v in zip(us, vs):
        want.append(scalar_law(f, u, v))
        scalar_calls.append(list(calls))  # f(u (+) v), f(u), f(v), up to a failure
        calls.clear()
    assert rows.tolist() == want
    # the rows evaluate every f(u (+) v), then every f(u), then every f(v)
    assert row_calls == [c[k] for k in range(3) for c in scalar_calls if len(c) > k]
    assert math.inf in want and min(want) < math.inf


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_row_kernels_score_a_stack_as_its_flat_rows(dim):
    # a (k, m, d) stack, as the classifier scores it with one map per slice,
    # gives the bits of the flat (m, d) call on each of its k slices
    _, _, u_rows, v_rows = pair_rows(points(dim, seed=700 + dim))
    matrices = [f._matrix for f in maps(dim).values() if f._matrix is not None]
    k = len(matrices)
    u, v = u_rows.reshape(k, -1, dim), v_rows.reshape(k, -1, dim)
    center = np.matvec(np.stack(matrices[::-1])[:, None], u)
    w, ok = _sum_rows(u, v)
    gyr, gyr_ok = _gyration_rows(u, v, u[::-1])
    law = _law_rows(_linear_image(np.stack(matrices)[:, None]), u, v)
    norms = _image_norms(_linear_image(np.stack(matrices)[:, None]), u, center)
    # sums that round onto the guard, and images that leave the ball, are covered
    assert not ok.all() and np.isinf(law).any() and np.isinf(norms).any()
    for j, m in enumerate(matrices):
        flat, flat_ok = _sum_rows(u[j], v[j])
        assert w[j].tobytes() == flat.tobytes() and ok[j].tolist() == flat_ok.tolist()
        flat, flat_ok = _gyration_rows(u[j], v[j], u[k - 1 - j])
        assert gyr[j].tobytes() == flat.tobytes() and gyr_ok[j].tolist() == flat_ok.tolist()
        assert law[j].tobytes() == _law_rows(_linear_image(m), u[j], v[j]).tobytes()
        assert norms[j].tobytes() == _image_norms(_linear_image(m), u[j], center[j]).tobytes()


@pytest.mark.parametrize("dim", MAP_DIMS)
@pytest.mark.parametrize("matrix", ["orthogonal", "half", "double", "zero"])
def test_classifier_sees_matrix_maps_as_black_boxes_do(dim, matrix):
    q = random_orthogonal(np.random.default_rng(dim), dim)
    m = {"orthogonal": q, "half": 0.5 * np.eye(dim), "double": 2.0 * np.eye(dim)}.get(
        matrix, np.zeros((dim, dim))
    )
    fast = BallMap.zero(dim) if matrix == "zero" else BallMap.from_matrix(m)
    opaque = matrix_map(m)
    for seed in (7, 3):
        want = classify_endomorphism(opaque, 100, seed).to_json_dict()
        assert classify_endomorphism(fast, 100, seed).to_json_dict() == want


# ------------------------------------------------- scalar replay references
#
# The residuals every batched property replaced, one input at a time
# through the scalar public functions, and the scalar forms of the rules
# by which the rejection draws refuse a candidate.  A residual that raises
# GyroError scores inf in the scan, as its row form scores a refused row.


def scalar_items(block: Rows) -> list[dict]:
    """The inputs of a Rows block as the scalar functions take them: a
    column of points gives GyroVectors, a record column Hermitian2s, a
    column of matrices (q) matrices, and a scalar column floats."""

    def values(column: np.ndarray) -> list:
        if column.dtype.names:
            return [Hermitian2(*record) for record in column.tolist()]
        if column.ndim == 2:
            return [GyroVector(row) for row in column]
        return list(column) if column.ndim == 3 else column.tolist()

    return [dict(zip(block, item)) for item in zip(*map(values, block.values()))]


def rapidity(u: GyroVector) -> float:
    return math.atanh(u.norm)


def evaluable_pair(d: dict, tol: ToleranceConfig) -> bool:
    # u (+) v and v (+) u reach rapidity |u| + |v|
    return rapidity(d["u"]) + rapidity(d["v"]) <= _EVALUABILITY_BOUND


def general_position(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> bool:
    det, band = gram_band(a, b, tol)
    return det > 1e3 * band


def translated_pair(x: GyroVector, y: GyroVector, z: GyroVector) -> tuple | None:
    # the sums collinear_gyro forms, or None where one leaves the guard or
    # a sum of the two could
    try:
        a, b = einstein_add(neg(x), y), einstein_add(neg(x), z)
    except BallDomainError:
        return None
    if rapidity(a) + rapidity(b) > _EVALUABILITY_BOUND:
        return None
    return a, b


def in_general_position(triple: tuple, tol: ToleranceConfig) -> bool:
    x, y, z = triple
    if not general_position(y.coords - x.coords, z.coords - x.coords, tol):
        return False
    translated = translated_pair(x, y, z)
    return translated is not None and general_position(*(t.coords for t in translated), tol)


# name -> whether the one-input rejection draw took an input, which every
# row of the property's staged draw must meet
ACCEPTANCE = {
    "gyrocommutativity": evaluable_pair,
    "commutes_iff_dependent": lambda d, tol: general_position(
        d["ind_u"].coords, d["ind_v"].coords, tol
    ),
    "collinearity_equivalence": lambda d, tol: (
        translated_pair(d["on_x"], d["on_y"], d["on_z"]) is not None
        and in_general_position((d["off_x"], d["off_y"], d["off_z"]), tol)
    ),
}


def closure(inputs: dict, tol: ToleranceConfig) -> float:
    return einstein_add(inputs["u"], inputs["v"]).norm


def identity(inputs: dict, tol: ToleranceConfig) -> float:
    u = inputs["u"]
    zero = GyroVector.zero(u.dim)
    left = _norm(einstein_add(zero, u).coords - u.coords)
    right = _norm(einstein_add(u, zero).coords - u.coords)
    return max(left, right)


def left_inverse(inputs: dict, tol: ToleranceConfig) -> float:
    u = inputs["u"]
    return max(einstein_add(neg(u), u).norm, einstein_add(u, neg(u)).norm)


def left_cancellation(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    recovered = einstein_add(neg(u), einstein_add(u, v))
    return _norm(recovered.coords - v.coords) / sq(gamma(u))


def gamma_identity(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    w = einstein_add(u, v)
    lhs = gamma(w)
    rhs = gamma(u) * gamma(v) * (1.0 + ordered_dot(u.coords, v.coords))
    return abs(lhs - rhs) / (rhs * sq(gamma(w)))


def gyration_orthogonality(inputs: dict, tol: ToleranceConfig) -> float:
    u, v, w1, w2 = inputs["u"], inputs["v"], inputs["w1"], inputs["w2"]
    g1 = gyration(u, v, w1)
    g2 = gyration(u, v, w2)
    scale = sq(gamma(u) * gamma(v))
    pairing = abs(ordered_dot(g1.coords, g2.coords) - ordered_dot(w1.coords, w2.coords))
    length = abs(g1.norm2 - w1.norm2)
    return max(pairing, length) / scale


def gyrocommutativity(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    lhs = einstein_add(u, v)
    rhs = gyration(u, v, einstein_add(v, u))
    scale = sq(gamma(u) * gamma(v))
    return _norm(lhs.coords - rhs.coords) / scale


def one_parameter(inputs: dict, tol: ToleranceConfig) -> float:
    x, s_par, t_par = inputs["x"], inputs["s"], inputs["t"]
    combined = einstein_add(line_param(x, s_par), line_param(x, t_par))
    direct = line_param(x, s_par + t_par)
    return _norm(combined.coords - direct.coords) / sq(gamma(combined))


def commutes_iff_dependent(inputs: dict, tol: ToleranceConfig) -> float:
    ok = (
        commutes(inputs["dep_u"], inputs["dep_v"], tol)
        and linearly_dependent(inputs["dep_u"], inputs["dep_v"], tol)
        and not commutes(inputs["ind_u"], inputs["ind_v"], tol)
        and not linearly_dependent(inputs["ind_u"], inputs["ind_v"], tol)
    )
    return 0.0 if ok else 1.0


def collinearity(inputs: dict, tol: ToleranceConfig) -> float:
    ok = (
        collinear_gyro(inputs["on_x"], inputs["on_y"], inputs["on_z"], tol)
        and collinear_direct(inputs["on_x"], inputs["on_y"], inputs["on_z"], tol)
        and not collinear_gyro(inputs["off_x"], inputs["off_y"], inputs["off_z"], tol)
        and not collinear_direct(inputs["off_x"], inputs["off_y"], inputs["off_z"], tol)
    )
    return 0.0 if ok else 1.0


def isometry(inputs: dict, tol: ToleranceConfig) -> float:
    u, v, w = inputs["u"], inputs["v"], inputs["w"]
    translated = klein_distance(einstein_add(u, v), einstein_add(u, w))
    return abs(translated - klein_distance(v, w)) / (1.0 + gamma(u))


def metric(inputs: dict, tol: ToleranceConfig) -> float:
    x, y = inputs["u"], inputs["v"]
    d_xy = klein_distance(x, y)
    symmetry = abs(d_xy - klein_distance(y, x))
    coincidence = sq(klein_distance(x, x))
    positivity = 0.0 if d_xy > 0.0 else 1.0
    return max(symmetry, coincidence, positivity)


def line_distance(inputs: dict, tol: ToleranceConfig) -> float:
    x, t = inputs["x"], inputs["t"]
    point = line_param(x, t)
    expected = abs(t) * math.atanh(x.norm)
    measured = klein_distance(GyroVector.zero(x.dim), point)
    return abs(measured - expected) / max(1.0, expected)


def fixes_zero(inputs: dict, tol: ToleranceConfig) -> float:
    q, zero = inputs["q"], GyroVector.zero(inputs["u"].dim)
    return max(matrix_map(q)(zero).norm, matrix_map(np.zeros_like(q))(zero).norm)


def orthogonal_law(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]
    return scalar_law(matrix_map(q), u, v) / sq(gamma(u) * gamma(v))


def orthogonal_bound(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]
    return scalar_law(matrix_map(q), u, v) / (10.0 * np.finfo(float).eps * gamma(u) * gamma(v))


def hermitian_maxdiff(a: Hermitian2, b: Hermitian2) -> float:
    return max(abs(a.a - b.a), abs(a.d - b.d), abs(a.re_b - b.re_b), abs(a.im_b - b.im_b))


def bloch_homomorphism(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    lhs = bloch_to_density(einstein_add(u, v))
    rhs = odot(bloch_to_density(u), bloch_to_density(v))
    return hermitian_maxdiff(lhs, rhs) / sq(gamma(u) * gamma(v))


def det_normalization(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    da, db = bloch_to_density(u), bloch_to_density(v)
    lhs = normalize_det(odot(da, db))
    rhs = boxdot(normalize_det(da), normalize_det(db))
    scale = 1.0 + max(abs(lhs.a), abs(lhs.d), abs(lhs.re_b), abs(lhs.im_b))
    return hermitian_maxdiff(lhs, rhs) / (scale * sq(gamma(u) * gamma(v)))


def transported_automorphism(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]

    def transported(m):
        return bloch_to_density(GyroVector(q @ density_to_bloch(m).coords))

    da, db = bloch_to_density(u), bloch_to_density(v)
    lhs = transported(odot(da, db))
    rhs = odot(transported(da), transported(db))
    return hermitian_maxdiff(lhs, rhs) / sq(gamma(u) * gamma(v))


def sqrt_squares_back(inputs: dict, tol: ToleranceConfig) -> float:
    h = inputs["h"]
    root = sqrt_posdef2(h)
    if not is_positive_definite(root):
        return math.inf
    squared = sqrt_congruence(h, Hermitian2(1.0, 1.0, 0.0, 0.0))
    scale = 1.0 + max(abs(h.a), abs(h.d), abs(h.re_b), abs(h.im_b))
    return hermitian_maxdiff(squared, h) / scale


def boxdot_det(inputs: dict, tol: ToleranceConfig) -> float:
    h1, h2 = inputs["h1"], inputs["h2"]
    product = sqrt_congruence(h1, h2)
    expected = h1.det * h2.det
    return abs(product.det - expected) / expected


def abs_tol(tol: ToleranceConfig) -> float:
    return tol.abs_tol


def rel_tol(tol: ToleranceConfig) -> float:
    return tol.rel_tol


def indicator(tol: ToleranceConfig) -> float:
    return 0.5


# name -> (scalar residual, cutoff) of each property scored in rows
SCALAR_ROW_PROPERTIES = {
    "closure": (closure, lambda tol: 1.0 - DEFAULT_BOUNDARY_MARGIN),
    "identity": (identity, abs_tol),
    "left_inverse": (left_inverse, abs_tol),
    "left_cancellation": (left_cancellation, abs_tol),
    "gamma_identity": (gamma_identity, rel_tol),
    "gyration_orthogonality": (gyration_orthogonality, rel_tol),
    "gyrocommutativity": (gyrocommutativity, abs_tol),
    "one_parameter_subgroup": (one_parameter, abs_tol),
    "commutes_iff_dependent": (commutes_iff_dependent, indicator),
    "collinearity_equivalence": (collinearity, indicator),
    "left_translation_isometry": (isometry, lambda tol: 10.0 * tol.rel_tol),
    "klein_distance_metric": (metric, abs_tol),
    "line_translation_distance": (line_distance, rel_tol),
    "endomorphism_fixes_zero": (fixes_zero, abs_tol),
    "orthogonal_endomorphism": (orthogonal_law, abs_tol),
    "orthogonal_residual_bound": (orthogonal_bound, lambda tol: 1.0),
    "bloch_homomorphism": (bloch_homomorphism, rel_tol),
    "det_normalization_homomorphism": (det_normalization, rel_tol),
    "sqrt_squares_back": (sqrt_squares_back, rel_tol),
    "boxdot_det_multiplicative": (boxdot_det, rel_tol),
    "transported_automorphism": (transported_automorphism, rel_tol),
}


def row_draw(name: str, n_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL):
    """The Rows blocks the property scans: its own row draw."""
    return verifier._REGISTRY[name][0](name, n_samples, seed, tol)


def scan_score(residual, item: dict, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """residual(item, tol) as the scan scores it: inf where it raises GyroError."""
    try:
        return float(residual(item, tol))
    except GyroError:
        return math.inf


def loop_scan(residuals: np.ndarray, cutoff: float) -> tuple:
    """seeded_scan's rule as the one-input-at-a-time loop it replaced."""
    max_residual, worst, first = -math.inf, None, None
    for i, r in enumerate(residuals.tolist()):
        if r > max_residual or (math.isnan(r) and not math.isnan(max_residual)):
            max_residual, worst = r, i
        if first is None and not r <= cutoff:
            first = (i, r)
    return max_residual, worst, first, len(residuals)


def reference_report(name: str, items, score, cutoff: float, seed: int) -> str:
    """The report line of a scan of items one at a time, score(item) each:
    the loop above, and the first failing item's ball points halved while
    the item keeps failing, as scan_report shrinks a one-row block."""
    items = list(items)
    max_residual, _, first, scanned = loop_scan(np.array([score(x) for x in items]), cutoff)
    counterexample = None
    if first is not None:
        best, best_r = items[first[0]], first[1]
        if any(isinstance(value, GyroVector) for value in best.values()):
            for _ in range(60):
                halved = {
                    key: GyroVector(0.5 * value.coords) if isinstance(value, GyroVector) else value
                    for key, value in best.items()
                }
                r = score(halved)
                if r <= cutoff:
                    break
                best, best_r = halved, r
        counterexample = json_ready({**best, "residual": best_r})
    report = PropertyReport(name, scanned, first is None, max_residual, counterexample, seed)
    return report.to_json_line()


def scalar_replay(name: str, n_samples: int, seed: int, tol: ToleranceConfig) -> str:
    """The report of a batched property replayed one input at a time."""
    residual, cutoff = SCALAR_ROW_PROPERTIES[name]
    items = (item for block in row_draw(name, n_samples, seed, tol) for item in scalar_items(block))
    return reference_report(
        name, items, lambda item: scan_score(residual, item, tol), cutoff(tol), seed
    )


FAILING = ToleranceConfig(abs_tol=1e-30, rel_tol=1e-30)


@pytest.mark.parametrize("name", SCALAR_ROW_PROPERTIES)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_batched_property_equals_its_scalar_replay(name, tol, seed):
    assert run_suite([name], 40, seed, tol)[0].to_json_line() == scalar_replay(name, 40, seed, tol)


@pytest.mark.parametrize("name", SCALAR_ROW_PROPERTIES)
def test_batched_property_equals_its_scalar_replay_over_chunks(name, scan_chunk):
    n = 3 * scan_chunk(256) + 1
    assert run_suite([name], n, 7)[0].to_json_line() == scalar_replay(name, n, 7, DEFAULT_TOL)


# the properties whose draw is ball points alone: a block of k n points is
# the Gaussian stream of its sub-blocks, so their reports do not depend on
# where the blocks split.  The others draw matrices, line parameters, scales
# or chord weights per block, after its points
POINT_ONLY = (
    "closure", "identity", "left_inverse", "left_cancellation", "gamma_identity",
    "gyration_orthogonality", "gyrocommutativity", "left_translation_isometry",
    "klein_distance_metric", "bloch_homomorphism", "det_normalization_homomorphism",
)


@pytest.mark.parametrize("name", POINT_ONLY)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_a_point_only_property_ignores_the_block_size(name, tol, scan_chunk):
    n, lines = 3 * 256 + 1, []
    for size in (256, 1024):
        scan_chunk(size)
        assert max(len(block["u"]) for block in row_draw(name, n, 7, tol)) == min(size, n)
        lines.append(run_suite([name], n, 7, tol)[0].to_json_line())
    assert lines[0] == lines[1]


@pytest.mark.parametrize("name", SCALAR_ROW_PROPERTIES)
def test_row_residuals_equal_the_scalar_residuals_row_by_row(name, scan_chunk):
    # every row, not only the maximum and the first failure a report shows
    residual, row_residual = SCALAR_ROW_PROPERTIES[name][0], verifier._REGISTRY[name][1]
    for block in row_draw(name, scan_chunk(256), 5):
        want = [scan_score(residual, item) for item in scalar_items(block)]
        assert row_residual(block, DEFAULT_TOL).tolist() == want


@pytest.mark.parametrize("name", ACCEPTANCE)
@pytest.mark.parametrize("rmax", [DEFAULT_SAMPLE_RMAX, 1 - 2e-9], ids=["default", "guard"])
def test_every_staged_row_meets_the_one_input_acceptance_rule(name, rmax, scan_chunk):
    # at 1 - 2e-9 the translated sums of the collinearity draw can leave the guard
    tol = ToleranceConfig(sample_rmax=rmax)
    for block in row_draw(name, 3 * scan_chunk(256) + 1, 7, tol):
        assert all(ACCEPTANCE[name](item, tol) for item in scalar_items(block))


# ------------------------------------------------------------ staged draws
#
# A staged draw filters each block of candidates by a mask and draws only
# the shortfall again, and gives up at the 10 000th refusal in a row.


def counting_stage(refused: range) -> tuple:
    """A stage whose candidates are 0, 1, 2, ... in draw order, refusing
    those in `refused`, and the counter that numbers them."""
    count = itertools.count()
    stage = sampling._Stage(
        lambda s, n, tol: Rows(
            i=np.array([next(count) for _ in range(n)]), point=np.zeros((n, 2))
        ),
        lambda rows, tol: ~np.isin(rows["i"], np.arange(refused.start, refused.stop)),
        "a counted input",
    )
    return stage, count


def test_ten_thousand_refusals_in_a_row_give_up_across_rounds():
    # 6000 inputs wanted: the first block takes 1000 and refuses 5000, and
    # the second draws the 5000 still missing
    s = BallSampler(0, 2)
    stage, count = counting_stage(range(1000, 11_000))
    with pytest.raises(RuntimeError) as exc:
        sampling._staged((stage,), s, 6000, DEFAULT_TOL)
    assert str(exc.value) == "failed to draw a counted input"
    assert next(count) == 11_000
    # one refusal fewer: the second block takes its last candidate, and the
    # third draws the 4999 still missing, and nothing past the last taken
    stage, count = counting_stage(range(1000, 10_999))
    rows = sampling._staged((stage,), s, 6000, DEFAULT_TOL)
    assert rows["i"].tolist() == [*range(1000), *range(10_999, 15_999)]
    assert next(count) == 15_999


def test_a_staged_draw_restarts_after_a_refusal_and_counts_its_streak(monkeypatch):
    # two stages of one random() per candidate: the first takes every
    # candidate, the second refuses those at the stream positions in
    # `refused`.  Each stage draws all its candidates before the next, and
    # after a refusal only the shortfall, from where the stream stands
    monkeypatch.setattr(sampling, "_TRIES", 4)
    position = {x: j for j, x in enumerate(np.random.default_rng(0).random(100).tolist())}

    def stage(key: str, refused: set) -> sampling._Stage:
        return sampling._Stage(
            lambda s, n, tol: Rows({key: s.rng.random(n), key + "_point": np.zeros((n, 2))}),
            lambda rows, tol: np.array([position[x] not in refused for x in rows[key].tolist()]),
            f"a {key}",
        )

    draws = (stage("a", set()), stage("b", {3, 6, 7, 8}))
    rows = sampling._staged(draws, BallSampler(0, 2), 3, None)
    assert [position[x] for x in rows["a"].tolist()] == [0, 1, 2]
    assert [position[x] for x in rows["b"].tolist()] == [4, 5, 9]
    with pytest.raises(RuntimeError, match="^failed to draw a b$"):
        draws = (stage("a", set()), stage("b", {3, 6, 7, 8, 9}))
        sampling._staged(draws, BallSampler(0, 2), 3, None)


def test_a_translated_sum_the_guard_refuses_is_refused_and_redrawn():
    # off-line triples in draw order: one taken; one on a line, refused
    # before its sums are formed although (-x) (+) y leaves the ball; one
    # in general position whose (-x) (+) y leaves the ball, refused as the
    # evaluability rule refuses it; and the next in general position, taken
    near = [R * math.cos(0.01), R * math.sin(0.01)]
    triples = [
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
        ESCAPING,
        [[-R, 0.0], near, [0.0, 0.5]],
        [[0.1, 0.0], [0.0, 0.4], [-0.3, -0.3]],
    ]
    with pytest.raises(BallDomainError):
        einstein_add(neg(GyroVector([-R, 0.0])), GyroVector(near))
    points = [tuple(GyroVector(p) for p in triple) for triple in triples]
    assert [in_general_position(t, DEFAULT_TOL) for t in points] == [True, False, False, True]
    drawn = iter(triples)

    def draw(s: BallSampler, n: int, tol) -> Rows:
        block = np.array([next(drawn) for _ in range(n)], dtype=float)
        return Rows({key: block[:, k] for k, key in enumerate(("off_x", "off_y", "off_z"))})

    stage = sampling._Stage(draw, verifier._off_line, "a general-position triple")
    rows = sampling._staged((stage,), BallSampler(0, 2), 2, DEFAULT_TOL)
    assert [rows[key].tolist() for key in ("off_x", "off_y", "off_z")] == [
        [triples[0][k], triples[3][k]] for k in range(3)
    ]


@pytest.mark.parametrize("matrix", [np.eye(3), 0.5 * np.eye(3)], ids=["identity", "half"])
def test_check_endomorphism_equals_its_scalar_replay_over_chunks(matrix, scan_chunk):
    n, f = 3 * scan_chunk(256) + 1, matrix_map(matrix)
    blocks = _blocks(sampling._point_rows("u", "v"), [BallSampler(5, 3)], n)
    pairs = (pair for block in blocks for pair in scalar_items(block))
    want = reference_report("endomorphism", pairs, lambda p: scalar_law(f, **p), 1e-6, 5)
    assert check_endomorphism(BallMap.from_matrix(matrix), n, 5).to_json_line() == want


# ------------------------------------------------------- classifier trials
#
# A stack of k maps draws each scan from one sampler, and map j takes slice
# j of each block.  The reference classifies each map alone, by the public
# classifier, on its slice: the law scan's blocks split among all k maps,
# the agreement scan's among the maps still pending after the probes, drawn
# from the stream of the first of them.


class SliceSampler(BallSampler):
    """Slice j of k of every block a sampler of its seed draws."""

    def __init__(self, seed: int, dim: int, rmax: float, j: int, k: int):
        super().__init__(seed, dim, rmax)
        self.j, self.k = j, k

    def sample_rows(self, n: int) -> np.ndarray:
        return super().sample_rows(self.k * n)[self.j * n : (self.j + 1) * n]


class Pending(Exception):
    """A lone classification asked for its agreement sampler, of this seed."""


def classify_on_slices(maps: dict, seed: int, n: int, tol: ToleranceConfig, calls: dict) -> dict:
    """Each map of the stack (name -> map, in stack order) classified alone
    by classify_endomorphism on its slice of the stack's draws.  A map is
    classified twice if it is pending, first up to its agreement scan;
    calls[name], where its black box records, keeps the second run."""
    names, endo = list(maps), derive_seed(seed, "endo")

    def classify(name: str, agreement: tuple | None = None):
        def sampler(s: int, dim: int, rmax: float) -> BallSampler:
            if s == endo:
                return SliceSampler(s, dim, rmax, names.index(name), len(names))
            if agreement is None:
                raise Pending(s)
            stream, pending = agreement
            return SliceSampler(stream, dim, rmax, pending.index(name), len(pending))

        with mock.patch.object(morphisms, "BallSampler", sampler):
            return classify_endomorphism(maps[name], n, seed, tol)

    out, streams = {}, {}
    for name in names:
        try:
            out[name] = classify(name)
        except Pending as asked:
            streams[name] = asked.args[0]
    pending = list(streams)
    for name in pending:
        calls.pop(name, None)
        out[name] = classify(name, (streams[pending[0]], pending))
    return {name: out[name] for name in names}


def classifier_trial_items(reconstruct: bool, name: str, n_samples: int, seed: int, tol):
    """The scanned rows of a classifier property, one instance at a time:
    each batch of 64 instances drawn in order, each map an opaque matrix
    map, classified on its slice of its dimension's stack, whose seed is
    that of the stack's first map."""
    rng = np.random.default_rng(derive_seed(seed, name))
    count = max(1, n_samples // 10)
    for start in range(0, count, 64):
        instances = []  # (q, [(family, expected, matrix)], the seed of the first map)
        for k in range(start, min(count, start + 64)):
            dim = (2, 3, 4, 5)[k % 4]
            q = random_orthogonal(rng, dim)
            cases, child = [("orthogonal", "orthogonal", q)], int(rng.integers(2**62))
            if not reconstruct:
                m = rng.standard_normal((dim, dim))
                contraction = m * (float(rng.uniform(0.2, 0.95)) / float(np.linalg.norm(m, 2)))
                cases += [("zero", "zero", np.zeros((dim, dim)))]
                cases += [("contraction", "not_endomorphism", contraction)]
                child = [int(rng.integers(2**62)) for _ in cases][0]
            instances.append((q, cases, child))
        got = {}
        for dim in (2, 3, 4, 5):
            ours = [(k, x) for k, x in enumerate(instances) if len(x[0]) == dim]
            stack = {(k, i): matrix_map(case[2]) for k, x in ours for i, case in enumerate(x[1])}
            if stack:
                got.update(classify_on_slices(stack, ours[0][1][2], 64, tol, {}))
        for k, (q, cases, _) in enumerate(instances):
            if reconstruct:
                verdict = got[k, 0]
                if verdict.verdict != "orthogonal":
                    yield {"dim": len(q), "expected": "orthogonal", "got": verdict.verdict}
                else:
                    error = np.max(np.abs(verdict.matrix.entries - q))
                    yield {"dim": len(q), "matrix": q, "max_entry_error": error}
                continue
            for i, (family, expected, _) in enumerate(cases):
                verdict = got[k, i].verdict
                yield {"family": family, "dim": len(q), "expected": expected, "got": verdict}


def classifier_score(item: dict, tol: ToleranceConfig) -> float:
    if "family" in item:
        return float(item["got"] != item["expected"])
    return item.get("max_entry_error", math.inf) / (10.0 * tol.abs_tol)


@pytest.mark.parametrize("reconstruct", [False, True], ids=["soundness", "reconstruction"])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("n", [40, 650], ids=["one_batch", "batches"])
def test_classifier_property_equals_its_map_by_map_replay(reconstruct, tol, seed, n):
    # 650 samples are 65 instances, more than one batch of 64
    name = "classifier_reconstruction" if reconstruct else "classifier_soundness"
    items = classifier_trial_items(reconstruct, name, n, seed, tol)
    cutoff = 1.0 if reconstruct else 0.5
    want = reference_report(name, items, partial(classifier_score, tol=tol), cutoff, seed)
    assert run_suite([name], n, seed, tol)[0].to_json_line() == want


def stack_maps(dim: int, calls: dict) -> dict:
    """Maps of one dimension for every path of the classifier; each black
    box records in calls[name] the points it is called at."""
    q = random_orthogonal(np.random.default_rng(dim), dim)
    contraction = np.random.default_rng(dim + 1).standard_normal((dim, dim))

    def black_box(name: str, func) -> BallMap:
        def recorded(w):
            calls.setdefault(name, []).append(w.coords.tobytes())
            return func(w)

        return BallMap(recorded, dim)

    return {
        "orthogonal": BallMap.from_matrix(q),
        "zero": BallMap.zero(dim),
        "contraction": BallMap.from_matrix(0.3 * contraction / np.linalg.norm(contraction, 2)),
        "half": BallMap.from_matrix(0.5 * np.eye(dim)),  # a non-orthogonal candidate at 0.1
        "double": BallMap.from_matrix(2.0 * np.eye(dim)),  # leaves the ball
        "nan": BallMap.from_matrix(q),  # scored NaN on one pair below
        "squash": black_box("squash", lambda w: w.coords * (0.9 / (1.0 + w.norm))),
        "probe_escapes": black_box(
            "probe_escapes", lambda w: 3 * w.coords if abs(w.norm - 0.5) < 1e-12 else w.coords
        ),
        "opaque": black_box("opaque", lambda w: q @ w.coords),
    }


@pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceConfig(abs_tol=0.1)], ids=["default", "0.1"])
def test_a_stack_classifies_each_map_on_its_slice(monkeypatch, tol, scan_chunk):
    chunk = scan_chunk(256)
    dim, n, seed, calls = 3, 3 * chunk + 1, 100, {}
    maps = stack_maps(dim, calls)
    law_rows, marked = morphisms._law_rows, [None]

    def with_nan(image, u, v):
        # the nan map's first law pair scores NaN, wherever it is scored
        residual = law_rows(image, u, v)
        residual[(u == marked[0]).all(axis=-1)] = math.nan
        return residual

    monkeypatch.setattr(morphisms, "_law_rows", with_nan)
    matrix_only = [name for name, f in maps.items() if f._matrix is not None]
    for names in (list(maps), list(maps)[::-1], matrix_only, matrix_only[::-1]):
        law = BallSampler(derive_seed(seed, "endo"), dim, tol.sample_rmax)
        first_chunk = law.sample_rows(2 * chunk * len(names))
        marked[0] = first_chunk[2 * chunk * names.index("nan")]
        calls.clear()
        # json.dumps tells NaN from NaN and -0.0 from 0.0
        alone = {
            name: json.dumps(verdict.to_json_dict())
            for name, verdict in classify_on_slices(
                {name: maps[name] for name in names}, seed, n, tol, calls
            ).items()
        }
        alone_calls = {name: list(points) for name, points in calls.items()}
        assert '"residual": NaN' in alone["nan"] and '"residual": Infinity' in alone["double"]
        assert {json.loads(v)["verdict"] for v in alone.values()} == {
            "orthogonal", "zero", "not_endomorphism"
        }
        if "opaque" in names:
            # the opaque map's phases: f(u (+) v), f(u), f(v) per law pair,
            # the probes at half the basis vectors, then f(w) per agreement point
            assert len(alone_calls["opaque"]) == 4 * n + dim
            probes = [(0.5 * e).tobytes() for e in np.eye(dim)]
            assert alone_calls["opaque"][3 * n : 3 * n + dim] == probes
            assert alone_calls["probe_escapes"][-1] == probes[0]  # no call after it escapes
            assert json.loads(alone["probe_escapes"])["witness_u"] == [0.5, 0.0, 0.0]
        if tol.abs_tol == 0.1:  # half passes the law scan, and its candidate is refused
            assert json.loads(alone["half"])["residual"] < decision_threshold(tol)
        calls.clear()
        stacked = morphisms._classify_stack([maps[k] for k in names], seed, n, tol)
        assert [json.dumps(r.to_json_dict()) for r in stacked] == [alone[k] for k in names]
        # each black box is called at the same points, in the same order
        assert calls == alone_calls


def test_a_lone_map_draws_as_check_endomorphism_draws():
    # a one-map stack is classify_endomorphism: its law scan draws the pairs
    # check_endomorphism draws from the "endo" child seed
    f, n, seed = matrix_map(random_orthogonal(np.random.default_rng(3), 3)), 300, 21
    law = check_endomorphism(f, n, derive_seed(seed, "endo"), FAILING)
    got = classify_endomorphism(f, n, seed, FAILING)
    assert got.verdict == "not_endomorphism"
    assert got.residual == law.max_residual
    # the pair reported is the law scan's worst, drawn as check_endomorphism drew it
    blocks = _blocks(sampling._point_rows("u", "v"), [BallSampler(derive_seed(seed, "endo"), 3)], n)
    pairs = [(p["u"].tolist(), p["v"].tolist()) for b in blocks for p in scalar_items(b)]
    assert (got.witness_u.tolist(), got.witness_v.tolist()) in pairs


# ------------------------------------------- gyro core and geometry kernels


def scalar_or_none(call):
    """call(), or None where it raises GyroError."""
    try:
        return call()
    except GyroError:
        return None


def assert_guarded_rows(rows: np.ndarray, ok: np.ndarray, wants: list) -> None:
    """A guarded kernel's rows against the scalar results, None where the
    scalar call raised: the same bytes where it returned, else a zero row
    out of ok."""
    assert any(want is None for want in wants) and any(want is not None for want in wants)
    for row, row_ok, want in zip(rows, ok, wants):
        if want is None:
            assert not row_ok and not row.any()
        else:
            assert row_ok
            assert row.tobytes() == want.coords.tobytes()


def refused_upstream(n: int) -> np.ndarray:
    # every seventh row comes in refused, and must stay refused
    return np.arange(n) % 7 != 0


@pytest.mark.parametrize("dim", DIMS)
def test_sum_rows_match_einstein_add(dim):
    us, vs, u_rows, v_rows = pair_rows(points(dim, seed=700 + dim))
    ok = refused_upstream(len(us))
    wants = [scalar_or_none(lambda: einstein_add(u, v)) for u, v in zip(us, vs)]
    # sums past the guard are covered, not only the rows refused upstream
    assert any(want is None for want, k in zip(wants, ok) if k)
    wants = [want if k else None for want, k in zip(wants, ok)]
    assert_guarded_rows(*_sum_rows(u_rows, v_rows, ok), wants)


@pytest.mark.parametrize("dim", DIMS)
def test_gyration_rows_match_gyration(dim):
    pts = points(dim, seed=800 + dim)
    us, vs, u_rows, v_rows = pair_rows(pts)
    ws = [pts[(5 * i) % len(pts)] for i in range(len(us))]
    ok = refused_upstream(len(us))
    wants = [
        scalar_or_none(lambda: gyration(u, v, w)) if k else None
        for u, v, w, k in zip(us, vs, ws, ok)
    ]
    rows = _gyration_rows(u_rows, v_rows, np.array([w.coords for w in ws]), ok)
    assert_guarded_rows(*rows, wants)


def definition_gyration(u: GyroVector, v: GyroVector, w: GyroVector) -> GyroVector:
    """gyr[u, v]w by its definition, -(u (+) v) (+) (u (+) (v (+) w))."""
    return einstein_add(neg(einstein_add(u, v)), einstein_add(u, einstein_add(v, w)))


@pytest.mark.parametrize("dim", DIMS)
def test_gyration_is_within_tolerance_of_its_definition(dim):
    # the closed form on both paths against the definition, where the
    # definition's sums stay in the ball, scaled by (gamma(u) gamma(v))^2 as
    # gyrocommutativity scales it; the worst was 2.5e-15, 40x under the bound
    pts = points(dim, seed=800 + dim)
    us, vs, u_rows, v_rows = pair_rows(pts)
    ws = [pts[(5 * i) % len(pts)] for i in range(len(us))]
    rows, ok = _gyration_rows(u_rows, v_rows, np.array([w.coords for w in ws]))
    assert ok.all()
    refused = 0
    for u, v, w, row in zip(us, vs, ws, rows):
        got = gyration(u, v, w)
        want = scalar_or_none(lambda: definition_gyration(u, v, w))
        if want is None:
            refused += 1
            continue
        scale = sq(gamma(u) * gamma(v))
        assert _norm(got.coords - want.coords) <= 1e-13 * scale
        assert _norm(row - want.coords) <= 1e-13 * scale
    assert refused  # inputs the definition refuses are covered


@pytest.mark.parametrize("dim", DIMS)
def test_line_param_rows_match_line_param(dim):
    pts = points(dim, seed=900 + dim) + [GyroVector.zero(dim)]
    params = [0.0, 1.0, -1.0, 0.37, -2.5, 7.0, 100.0]
    xs = [x for x in pts for _ in params]
    ts = [t for _ in pts for t in params]
    wants = [scalar_or_none(lambda: line_param(x, t)) for x, t in zip(xs, ts)]
    assert_guarded_rows(
        *_line_param_rows(np.array([x.coords for x in xs]), np.array(ts)), wants
    )


@pytest.mark.parametrize("dim", DIMS)
def test_klein_distance_rows_match_klein_distance(dim):
    us, vs, u_rows, v_rows = pair_rows(points(dim, seed=1000 + dim))
    want = [klein_distance(u, v) for u, v in zip(us, vs)]
    assert _klein_distance_rows(u_rows, v_rows).tolist() == want


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_commutes_rows_match_commutes(dim, tol):
    us, vs, u_rows, v_rows = pair_rows(points(dim, seed=1100 + dim))
    holds, ok = _commutes_rows(u_rows, v_rows, tol)
    wants = [scalar_or_none(lambda: commutes(u, v, tol)) for u, v in zip(us, vs)]
    assert None in wants
    assert ok.tolist() == [want is not None for want in wants]
    assert [h for h, want in zip(holds.tolist(), wants) if want is not None] == [
        want for want in wants if want is not None
    ]


@pytest.mark.parametrize("dim", DIMS)
def test_gram_band_rows_match_gram_band(dim):
    us, vs, _, _ = pair_rows(points(dim, seed=1200 + dim))
    a = [u.coords for u in us] + [u.coords - v.coords for u, v in zip(us, vs)]
    b = [v.coords for v in vs] + [v.coords - w.coords for v, w in zip(vs, us[3:] + us[:3])]
    det, band = gram_band(np.array(a), np.array(b), DEFAULT_TOL)
    want = [gram_band(x, y, DEFAULT_TOL) for x, y in zip(a, b)]
    assert list(zip(det.tolist(), band.tolist())) == want


@pytest.mark.parametrize("dim", DIMS)
def test_gamma_norm_and_rapidity_rows_match_the_scalar_calls(dim):
    pts = points(dim, seed=1300 + dim)
    rows = np.array([u.coords for u in pts])
    assert _gamma_rows(rows).tolist() == [gamma(u) for u in pts]
    assert verifier._rapidity_rows(rows).tolist() == [math.atanh(u.norm) for u in pts]
    # the norm of any array, not only of ball points
    rng = np.random.default_rng(1300 + dim)
    arrays = [u.coords for u in pts] + [u.coords - v.coords for u in pts for v in pts[:4]]
    arrays += [rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 3) for _ in range(50)]
    assert _norm_rows(np.array(arrays)).tolist() == [_norm(x) for x in arrays]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
def test_collinear_gyro_rows_match_collinear_gyro(dim, tol):
    pts = points(dim, seed=1400 + dim)
    triples = [(x, y, z) for x in pts for y in pts for z in pts[::4]]
    # and three points on the diameter through each point
    triples += [(x, line_param(x, -0.5), line_param(x, 0.25)) for x in pts]
    columns = (np.array([p.coords for p in column]) for column in zip(*triples))
    holds, ok = verifier._collinear_gyro_rows(*columns, tol)
    wants = [scalar_or_none(lambda: collinear_gyro(*triple, tol)) for triple in triples]
    # rows where the scalar call raises come out refused; in one dimension
    # every triple is collinear, up to rounding
    assert None in wants and True in wants and (False in wants or dim == 1)
    assert ok.tolist() == [want is not None for want in wants]
    assert [h for h, want in zip(holds.tolist(), wants) if want is not None] == [
        want for want in wants if want is not None
    ]


# ------------------------------------------------------ matrix-model kernels
#
# Each column kernel must equal its scalar function field by field, bytes
# included, and refuse a row exactly where the scalar call raises GyroError.

FIELDS = ("a", "d", "re_b", "im_b")


def model_inputs(seed: int) -> dict:
    """Seeded scalar inputs: 3-D ball points, 40 spread over the ball of
    radius 0.99 and 40 near the guard (1 - |u| log-uniform on [1e-9, 1e-3],
    less any the guard refuses); their densities and det-1 scalings; drawn
    positive definite matrices; and field tuples on either side of each
    check, some with a negative zero."""
    rng = np.random.default_rng(seed)
    radii = [0.99 * x ** (1.0 / 3.0) for x in rng.random(40).tolist()]
    radii += [1.0 - 10.0**x for x in rng.uniform(-9.0, -3.0, 40).tolist()]
    directions = [g / _norm(g) for g in rng.standard_normal((80, 3))]
    points = [scalar_or_none(lambda: GyroVector(r * g)) for r, g in zip(radii, directions)]
    # and one whose density maps back past the guard, and two with zeros
    # that the density fields fold from -0.0
    points = [p for p in points if p is not None] + [GyroVector(ROUND_TRIP_ESCAPES)]
    points += [GyroVector([0.5, 0.0, 0.0]), GyroVector([0.0, 0.0, -0.25])]
    densities = [bloch_to_density(p) for p in points]
    posdef = verifier._posdef_rows(4.0, "h")(BallSampler(seed, 2), 40, None)["h"].tolist()
    det1 = [scalar_or_none(lambda: normalize_det(d)) for d in densities]
    det1 = [m for m in det1 if m is not None]
    fields = [tuple(getattr(m, f) for f in FIELDS) for m in densities + det1]
    fields += [
        (0.5, 0.5 + 0.5e-9, -0.0, -0.0),  # a density, its trace just inside the band
        (0.5, 0.5 + 1.5e-9, 0.1, 0.0),  # its trace just outside
        (0.6, 0.5, 0.1, -0.0),  # trace 1.1
        (-0.5, 1.5, -0.0, 0.0),  # trace 1, negative corner
        (0.5, 0.5, 0.5, 0.5),  # negative determinant
        (0.0, 1.0, -0.0, -0.0),  # singular
        (-1.0, -2.0, 0.0, -0.0),  # negative definite
        (2.0, 0.5, -0.0, 0.0),  # determinant 1, trace 2.5
        (1.0, 1.0 + 0.5e-9, 0.0, -0.0),  # determinant just inside the band
        (1.0, 1.0 + 1.5e-9, -0.0, 0.0),  # just outside
        (2.0, 0.5, 1e-3, -0.0),  # determinant 1 - 1e-6
    ]
    return {
        "points": points,
        "densities": densities,
        "det1": det1,
        "posdef": [Hermitian2(*h) for h in posdef],
        "fields": fields,
    }


def as_block(values: list):
    """Scalar arguments as the kernel takes them: points as rows, matrices
    and field tuples as a block of four field columns.  A matrix's zero
    fields come as -0.0, which a kernel must fold away where the scalar
    builds its result, as Hermitian2 folded them on the way in."""
    if isinstance(values[0], GyroVector):
        return np.array([p.coords for p in values])
    if isinstance(values[0], Hermitian2):
        fields = np.array([[getattr(m, f) for f in FIELDS] for m in values]).T
        return tuple(np.where(fields == 0.0, -0.0, fields))
    return tuple(np.array(values).T)


def kernel_cases(seed: int) -> dict:
    """kernel -> (column kernel, scalar function, argument lists, whether
    the arguments hold a row the scalar call refuses, and not only may)."""
    m = model_inputs(seed)
    densities, det1 = m["densities"], m["det1"]
    made = [Hermitian2(*f) for f in m["fields"]]
    pairs = list(itertools.product(made, repeat=2))
    matrices = made + m["posdef"]
    return {
        "bloch_to_density": (_bloch_to_density_rows, bloch_to_density, [m["points"]], False),
        # a density's fields as stored: the result keeps the sign of a zero
        "density_to_bloch": (
            lambda h, ok: _density_to_bloch_rows(tuple(x + 0.0 for x in h), ok),
            density_to_bloch, [densities], True,
        ),
        "DensityMatrix2": (_density_rows, lambda f: DensityMatrix2(*f), [m["fields"]], True),
        "PosDef2Det1": (_det1_rows, lambda f: PosDef2Det1(*f), [m["fields"]], True),
        "sqrt_posdef2": (_sqrt_posdef_rows, sqrt_posdef2, [matrices], True),
        # every pair of the hand-made matrices: a diagonal one and a negative
        # definite one give a product with -0.0 fields, which are folded
        "sqrt_congruence": (
            _sqrt_congruence_rows, sqrt_congruence,
            [[a for a, _ in pairs] + matrices, [b for _, b in pairs] + matrices[::-1]], True,
        ),
        "odot": (
            _odot_rows, odot,
            [densities + matrices, densities[1:] + densities[:1] + matrices[::-1]], True,
        ),
        "normalize_det": (_normalize_det_rows, normalize_det, [matrices], True),
        "boxdot": (_boxdot_rows, boxdot, [det1, det1[1:] + det1[:1]], True),
    }


def test_det1_kernel_refuses_an_overflowing_band_without_a_warning():
    # det inf, then det finite with the band's sum inf, then a valid matrix
    # with entries 1e200 and 1e-200, which the kernel takes as the scalar does
    fields = [(1e200, 1e200, 0.0, 0.0), (1.3e154, 1.3e154, 1e154, 0.0), (1e200, 1e-200, 0.0, 0.0)]
    wants = [scalar_or_none(lambda: PosDef2Det1(*f)) is not None for f in fields]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok = _det1_rows(tuple(np.array(column) for column in zip(*fields)))
    assert ok.tolist() == wants == [False, False, True]


def test_root_kernel_refuses_an_overflowing_determinant_without_a_warning():
    # det inf, det NaN from inf - inf, then a valid matrix with entries 1e200
    # and 1e-200, whose root the kernel takes as the scalar does
    fields = [(1e200, 1e200, 0.0, 0.0), (1e200, 1e200, 1e200, 0.0), (1e200, 1e-200, 0.0, 0.0)]
    wants = [scalar_or_none(lambda: sqrt_posdef2(Hermitian2(*f))) for f in fields]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root, ok = _sqrt_posdef_rows(tuple(np.array(column) for column in zip(*fields)))
    assert ok.tolist() == [want is not None for want in wants] == [False, False, True]
    assert [column[2] for column in root] == [getattr(wants[2], field) for field in FIELDS]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name",
    [
        "bloch_to_density", "density_to_bloch", "DensityMatrix2", "PosDef2Det1",
        "sqrt_posdef2", "sqrt_congruence", "odot", "normalize_det", "boxdot",
    ],
)
def test_matrix_kernels_match_the_scalar_functions(name, seed):
    kernel, scalar, arguments, refuses = kernel_cases(seed)[name]
    ok = refused_upstream(len(arguments[0]))
    wants = [
        scalar_or_none(lambda: scalar(*args)) if k else None
        for args, k in zip(zip(*arguments), ok)
    ]
    # a row the scalar call refuses is covered, not only those refused upstream
    assert any(want is None for want, k in zip(wants, ok) if k) or not refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_ok = kernel(*map(as_block, arguments), ok)
    assert got_ok.tolist() == [want is not None for want in wants]
    taken = [want for want in wants if want is not None]
    if isinstance(taken[0], GyroVector):
        assert got[got_ok].tobytes() == np.array([w.coords for w in taken]).tobytes()
        assert not got[~got_ok].any()
        return
    for column, field in zip(got, FIELDS):
        want = np.array([getattr(w, field) for w in taken])
        assert column[got_ok].tobytes() == want.tobytes(), field


# Hand-built rows for the and-chains and the gyration inputs whose sums
# leave the ball.  R is a radius whose sum with itself rounds past the
# guard.  The seed sweeps cannot tell these rules apart: a chain that
# scored inf wherever any clause raised matches every seeded report.

R = 0.99999
ON_LINE = {"on_x": [0.0, 0.0], "on_y": [0.5, 0.0], "on_z": [0.25, 0.0]}
OFF_LINE = {"off_x": [0.0, 0.0], "off_y": [0.5, 0.0], "off_z": [0.0, 0.5]}


def on_off(on: list, off: list) -> dict:
    return {**dict(zip(ON_LINE, on)), **dict(zip(OFF_LINE, off))}


ESCAPING = [[-R, 0.0], [R, 0.0], [R, 0.0]]  # (-x) (+) y leaves the ball
D2_PAIR = {
    "u": [0.36353656713600624, 0.864299485461057, 0.3476025903049632],
    "v": [-0.7905711243880296, 0.5492416326507922, 0.27079683020105444],
}
# an on-line triple of collinearity_equivalence at sample_rmax = 1 - 2e-9,
# seed 15, d = 2, with 1 - |x| = 2.2e-9: collinear_direct accepts it, but a
# coordinate of the commutator of its translated pair, 1.4e-9, exceeds
# abs_tol + rel_tol * max|.| = 1.0e-9, so the true law scores 1 (defect D5,
# pinned as it stands)
D5_ON_LINE = [
    [0.8028862696349761, 0.5961322283906267],
    [0.8027882226758744, 0.5962642573590381],
    [0.802799325184704, 0.5962493068414392],
]
# density_to_bloch(bloch_to_density(u)) rounds onto the guard
ROUND_TRIP_ESCAPES = [-0.14367596966885057, 0.8146261791230032, -0.5619087132508022]

# (row residual, scalar residual, [(inputs, the scalar's score or None if finite)])
HAND_BUILT = {
    "commutes_iff_dependent": (
        _commutes_iff_dependent_residual,
        commutes_iff_dependent,
        [
            # clause 1 fails, so the scalar `and` never reaches clause 3, which raises
            ({"dep_u": [0.5, 0.0], "dep_v": [0.0, 0.5], "ind_u": [R, 0.0], "ind_v": [R, 0.0]}, 1.0),
            # clause 1 raises before any clause failed
            ({"dep_u": [R, 0.0], "dep_v": [R, 0.0], "ind_u": [0.5, 0.0], "ind_v": [0.0, 0.5]},
             math.inf),
            # clauses 1 and 2 hold, then clause 3 raises
            ({"dep_u": [0.5, 0.0], "dep_v": [0.25, 0.0], "ind_u": [R, 0.0], "ind_v": [R, 0.0]},
             math.inf),
            ({"dep_u": [0.5, 0.0], "dep_v": [0.25, 0.0], "ind_u": [0.5, 0.0], "ind_v": [0.0, 0.5]},
             0.0),
        ],
    ),
    "collinearity_equivalence": (
        _collinearity_residual,
        collinearity,
        [
            (on_off(list(OFF_LINE.values()), ESCAPING), 1.0),
            (on_off(ESCAPING, list(OFF_LINE.values())), math.inf),
            (on_off(list(ON_LINE.values()), ESCAPING), math.inf),
            (on_off(list(ON_LINE.values()), list(OFF_LINE.values())), 0.0),
            (on_off(D5_ON_LINE, list(OFF_LINE.values())), 1.0),
        ],
    ),
    "gyration_orthogonality": (
        _gyration_orthogonality_residual,
        gyration_orthogonality,
        [
            # u (+) v, and v (+) w2, leave the ball, but the closed form
            # forms neither; u and v are collinear, so it returns w exactly
            ({"u": [R, 0.0], "v": [R, 0.0], "w1": [0.1, 0.0], "w2": [0.0, 0.1]}, 0.0),
            ({"u": [0.1, 0.0], "v": [R, 0.0], "w1": [0.0, 0.1], "w2": [R, 0.0]}, 0.0),
            ({"u": [0.3, 0.1], "v": [0.2, -0.4], "w1": [0.1, 0.1], "w2": [-0.3, 0.2]}, None),
        ],
    ),
    "gyrocommutativity": (
        _gyrocommutativity_residual,
        gyrocommutativity,
        [
            ({"u": [R, 0.0], "v": [R, 0.0]}, math.inf),
            ({"u": [0.3, 0.1], "v": [0.2, -0.4]}, None),
        ],
    ),
    "det_normalization_homomorphism": (
        verifier._det_normalization_residual,
        det_normalization,
        [
            # two points 1.5e-9 from the sphere: every density and
            # normalization is built, then boxdot refuses the product of the
            # two det-1 matrices (defect D2, pinned as it stands)
            (D2_PAIR, math.inf),
            ({"u": [0.3, 0.1, -0.2], "v": [0.2, -0.4, 0.5]}, None),
        ],
    ),
    "transported_automorphism": (
        verifier._transported_automorphism_residual,
        transported_automorphism,
        [
            # the left side is built, then the density of u maps back past the guard
            ({"q": np.eye(3).tolist(), "u": ROUND_TRIP_ESCAPES, "v": [0.3, -0.2, 0.1]}, math.inf),
            ({"q": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
              "u": [0.3, 0.1, -0.2], "v": [0.2, -0.4, 0.5]}, None),
        ],
    ),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_rows_score_as_the_scalar_path(name):
    row_residual, residual, cases = HAND_BUILT[name]
    want = []
    for inputs, score in cases:
        # points reach the scalar residual as GyroVectors, a matrix q as an array
        item = {
            key: GyroVector(value) if np.ndim(value) == 1 else np.array(value)
            for key, value in inputs.items()
        }
        got = scan_score(residual, item)
        assert (got == score) if score is not None else math.isfinite(got)
        want.append(got)
    blocks = [Rows({key: np.array([v]) for key, v in inputs.items()}) for inputs, _ in cases]
    stacked = Rows({key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert row_residual(stacked, DEFAULT_TOL).tolist() == want
        assert [float(row_residual(b, DEFAULT_TOL)[0]) for b in blocks] == want


@pytest.mark.parametrize(
    "special",
    [
        {},
        {5: math.nan},
        {SCAN_CHUNK + 5: math.nan, 2 * SCAN_CHUNK + 7: math.nan},
        {3: 9.0, 8: 9.0, SCAN_CHUNK: 9.0, 3 * SCAN_CHUNK - 1: 9.0},
        {3: math.nan, 8: math.nan},
        {3 * SCAN_CHUNK: math.inf},
    ],
    ids=["plain", "nan", "nans", "ties", "nans_in_a_chunk", "last"],
)
def test_scan_of_rows_and_of_items_equals_the_loop(special):
    # worst (first NaN, else first maximum), first over the cutoff and the
    # count agree whether the residuals come in full blocks, in blocks of
    # one input each, or one by one
    rng = np.random.default_rng(len(special))
    residuals = rng.random(3 * SCAN_CHUNK + 1) * 2.0
    for i, r in special.items():
        residuals[i] = r
    index = np.arange(len(residuals))
    rows = seeded_scan(
        (Rows(i=index[start : start + SCAN_CHUNK]) for start in range(0, len(index), SCAN_CHUNK)),
        lambda rows: residuals[rows["i"]], 1.5,
    )
    items = seeded_scan(
        (Rows(i=index[k : k + 1]) for k in index), lambda rows: residuals[rows["i"]], 1.5
    )
    want = loop_scan(residuals, 1.5)
    for got in (rows, items):
        worst, first = got[1]["i"].tolist(), got[2][0]["i"].tolist()
        assert got[0] == want[0] or math.isnan(got[0]) and math.isnan(want[0])
        assert worst == [want[1]]
        assert first == [want[2][0]]
        assert got[2][1] == want[2][1] or math.isnan(got[2][1]) and math.isnan(want[2][1])
        assert got[3] == want[3]



def stacked_residuals() -> tuple:
    """Residuals of five maps over 3 * SCAN_CHUNK + 1 inputs, and a cutoff
    per map, as the agreement scan mixes them: map 0 has a NaN in its
    last chunk after a finite maximum, map 1 equal maxima in three chunks,
    map 2 an inf, map 3 its first residual over the cutoff in chunk 2, and
    map 4 none over its cutoff."""
    n = 3 * SCAN_CHUNK + 1
    residuals = np.random.default_rng(9).random((5, n))
    residuals[0, [7, 2 * SCAN_CHUNK + 3]] = 1.9, math.nan
    residuals[1, [3, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 5]] = 1.7
    residuals[2, SCAN_CHUNK + 9] = math.inf
    residuals[3, : 2 * SCAN_CHUNK] *= 0.5
    residuals[3, 2 * SCAN_CHUNK + 11] = 0.75
    return residuals, np.array([1.5, 1.5, 1.5, 0.6, 1.0])


@pytest.mark.parametrize("k", [1, 5])
def test_stacked_scan_equals_a_loop_per_map(k):
    # each row of a (k, m) scan reduces as the one-input loop reduces that
    # map alone: worst (first NaN, else first maximum), first over its own
    # cutoff, and the count; k = 1 scans each map as a stack of one
    residuals, cutoffs = stacked_residuals()
    index = np.arange(residuals.shape[1])
    for maps in np.arange(5).reshape(-1, k):
        blocks = (
            Rows(i=np.tile(index[start : start + SCAN_CHUNK], (k, 1)))
            for start in range(0, len(index), SCAN_CHUNK)
        )
        top, worst, (first, first_residual), scanned = seeded_scan(
            blocks, lambda rows: residuals[maps[:, None], rows["i"]], cutoffs[maps]
        )
        assert len(top) == len(first_residual) == k
        for j, map_j in enumerate(maps):
            want = loop_scan(residuals[map_j], cutoffs[map_j])
            assert top[j] == want[0] or math.isnan(top[j]) and math.isnan(want[0])
            assert worst["i"][j].tolist() == [want[1]]
            if want[2] is None:
                assert first_residual[j] is None
            else:
                assert first["i"][j].tolist() == [want[2][0]]
                r = first_residual[j]
                assert r == want[2][1] or math.isnan(r) and math.isnan(want[2][1])
            assert scanned == want[3]

# ------------------------------------------------- zero propagation replay


def reference_zero_propagation(
    f: BallMap, x: GyroVector, n_samples: int, seed: int, tol: ToleranceConfig
) -> str:
    """zero_propagation_check's report as it was built one evaluation of f
    at a time, the image of each translate's base memoised over its items."""
    f(x)  # the precondition's evaluation comes first
    t_max = math.atanh(tol.sample_rmax) / math.atanh(x.norm)
    rationals = sorted(
        {
            sign * p / q
            for p in range(1, 21)
            for q in range(1, 21)
            for sign in (1.0, -1.0)
            if p / q <= t_max
        }
    )
    rng = np.random.default_rng(derive_seed(seed, "zero_prop"))
    params = [0.0] + rationals + list(rng.uniform(-t_max, t_max, size=100))

    def evaluations():
        for t in params:
            yield {"part": "diameter", "t": float(t), "base": None}
        point_sampler = BallSampler(derive_seed(seed, "zero_prop_base"), x.dim, tol.sample_rmax)
        for _ in range(max(1, n_samples // 20)):
            for part in ("chord", "half_ellipse"):
                base = plain_sample(point_sampler).tolist()
                for t in rng.uniform(-t_max, t_max, size=20):
                    yield {"part": part, "t": float(t), "base": base}

    # the last base seen, and its image or None if that left the ball
    reference = [None, None]

    def residual(item: dict) -> float:
        p = line_param(x, item["t"])
        if item["base"] is None:
            return f(p).norm
        base = GyroVector(item["base"])
        if reference[0] is not item["base"]:
            try:
                reference[:] = item["base"], f(base).coords
            except GyroError:
                reference[:] = item["base"], None
        if reference[1] is None:
            return math.inf
        value = f(einstein_add(base, p) if item["part"] == "chord" else einstein_add(p, base))
        return _norm(value.coords - reference[1])

    def score(item: dict) -> float:
        try:
            return residual(item)
        except GyroError:
            return math.inf

    return reference_report(
        "zero_propagation", evaluations(), score, decision_threshold(tol), seed
    )


def vanishing_maps(x: GyroVector) -> tuple[list, dict[str, BallMap]]:
    """Maps that vanish at x, and the list of the inputs the black boxes
    among them are called on."""
    d = x.dim
    # kills the diameter, exactly where x lies on an axis
    p = np.eye(d) - np.outer(x.coords, x.coords) / x.norm2
    calls = []

    def recorded(image):
        def func(w: GyroVector) -> np.ndarray:
            calls.append(w.coords.tobytes())
            return image(w.coords)

        return BallMap(func, d)

    return calls, {
        "zero": BallMap.zero(d),
        "matrix": BallMap.from_matrix(p),
        "opaque": recorded(lambda w: p @ w),
        # sends part of the ball, and some bases, out of it
        "escaping": recorded(lambda w: 1.4 * (p @ w)),
        "escaping_matrix": BallMap.from_matrix(1.4 * p),
        # nonzero on the diameter away from x
        "off_diameter": recorded(lambda w: 0.3 * w * (w @ x.coords - x.norm2)),
    }


@pytest.mark.parametrize(
    "name", ["zero", "matrix", "opaque", "escaping", "escaping_matrix", "off_diameter"]
)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
@pytest.mark.parametrize(
    "x", [[0.5, 0.0], [0.0, 0.0, 0.999], [0.0, 0.3, 0.0, 0.0, 0.0]], ids=["2", "3", "5"]
)
def test_zero_propagation_equals_its_replay(name, tol, x):
    x = GyroVector(x)
    for n_samples in (1, 100):
        calls, maps = vanishing_maps(x)
        got = zero_propagation_check(maps[name], x, n_samples, 7, tol).to_json_line()
        row_calls, calls[:] = list(calls), []
        assert got == reference_zero_propagation(maps[name], x, n_samples, 7, tol)
        # a black box is called on the same points, in the same order
        assert row_calls == calls
