"""Bit-for-bit checks of the lean internal paths against the plain forms.

Each reference below is the straightforward expression the package used
before its results skipped re-validation and numpy dispatch: the textbook
addition on one line, negation through the public constructor, the norm
through np.linalg.norm, and the sampler's uniform() draw.  The arithmetic
is unchanged, so the results must agree exactly, bytes included, up to
points 1e-8 from the unit sphere.  A result outside the guarded ball must
fail with the public constructor's message, and every result is read-only.

The row kernels of the endomorphism layer are bound the same way: each
must equal the scalar calls it replaced, row by row, and every batched
report must equal its replay one input at a time.
"""

import math

import numpy as np
import pytest

from gyrokit import (
    DEFAULT_TOL,
    BallDomainError,
    BallMap,
    BallSampler,
    GyroError,
    GyroVector,
    ToleranceConfig,
    check_endomorphism,
    classify_endomorphism,
    derive_seed,
    einstein_add,
    endomorphism_residual,
    gamma,
    gyration,
    line_param,
    neg,
    random_orthogonal,
    run_suite,
)
from gyrokit.ball import _add_rows, _guard_rows, _norm
from gyrokit.morphisms import _haar, _law_rows
from gyrokit.sampling import SCAN_CHUNK, Rows, _scaled, scan_report, seeded_scan

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


def textbook_add(u: GyroVector, v: GyroVector) -> np.ndarray:
    duv = float(u.coords @ v.coords)
    s = math.sqrt(1.0 - u.norm2)
    return (u.coords + s * v.coords + (duv / (1.0 + s)) * u.coords) / (1.0 + duv)


def old_sample(s: BallSampler) -> GyroVector:
    direction = s.rng.standard_normal(s.dim)
    length = float(np.linalg.norm(direction))
    while length == 0.0:
        direction = s.rng.standard_normal(s.dim)
        length = float(np.linalg.norm(direction))
    radius = s.rmax * float(s.rng.uniform()) ** (1.0 / s.dim)
    return GyroVector((radius / length) * direction)


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
        assert _norm(x) == float(np.linalg.norm(x))
        assert type(_norm(x)) is float
        # the guard's dot is the same ddot as the matmul form
        assert float(x.dot(x)) == float(x @ x)
    # so is every inner product of two distinct points or differences
    for a, b in zip(arrays, arrays[1:]):
        assert float(a.dot(b)) == float(a @ b)


@pytest.mark.parametrize("dim", DIMS)
def test_sampler_matches_the_uniform_draw(dim):
    for seed in range(50):
        new, old = BallSampler(seed, dim), BallSampler(seed, dim)
        for _ in range(10):
            assert_same_point(new.sample(), old_sample(old))
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
        lambda: _scaled({"u": U}, 0.5)["u"],
    ],
    ids=["constructor", "zero", "add", "neg", "gyration", "line_param", "sample", "map", "scaled"],
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
    for seed in range(20):
        rows, scalar = BallSampler(seed, dim), BallSampler(seed, dim)
        for n in (3, 0, 1, 17):
            block = rows.sample_rows(n)
            assert block.shape == (n, dim)
            for row in block:
                assert row.tobytes() == scalar.sample().coords.tobytes()
            assert_same_point(rows.sample(), scalar.sample())
        assert rows.rng.bit_generator.state == scalar.rng.bit_generator.state


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
    pts += [_scaled({"u": p}, 0.5)["u"] for p in pts] + [neg(p) for p in pts]
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


# name -> (scalar residual of q, u, v; cutoff; sampling radius if not the default)
SCALAR_ROW_PROPERTIES = {
    "endomorphism_fixes_zero": (
        lambda q, u, v: max(
            matrix_map(q)(GyroVector.zero(u.dim)).norm,
            matrix_map(np.zeros_like(q))(GyroVector.zero(u.dim)).norm,
        ),
        lambda tol: tol.abs_tol,
        None,
    ),
    "orthogonal_endomorphism": (
        lambda q, u, v: scalar_law(matrix_map(q), u, v) / (gamma(u) * gamma(v)) ** 2,
        lambda tol: tol.abs_tol,
        None,
    ),
    "orthogonal_residual_bound": (
        lambda q, u, v: scalar_law(matrix_map(q), u, v)
        / (10.0 * np.finfo(float).eps * gamma(u) * gamma(v)),
        lambda tol: 1.0,
        0.9,
    ),
}


def scalar_replay(name: str, n_samples: int, seed: int, tol: ToleranceConfig) -> str:
    """The report of a batched property replayed one input at a time."""
    residual, cutoff, rmax = SCALAR_ROW_PROPERTIES[name]

    def inputs():
        for dim in (2, 3, 5):
            s = BallSampler(derive_seed(seed, f"{name}/{dim}"), dim, rmax or tol.sample_rmax)
            for _ in range(n_samples):
                yield {"q": random_orthogonal(s.rng, dim), "u": s.sample(), "v": s.sample()}

    return scan_report(
        name, inputs(), lambda item: residual(**item), cutoff(tol), seed
    ).to_json_line()


FAILING = ToleranceConfig(abs_tol=1e-30, rel_tol=1e-30)


@pytest.mark.parametrize("name", SCALAR_ROW_PROPERTIES)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, FAILING], ids=["default", "failing"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_batched_property_equals_its_scalar_replay(name, tol, seed):
    assert run_suite([name], 40, seed, tol)[0].to_json_line() == scalar_replay(name, 40, seed, tol)


@pytest.mark.parametrize("name", SCALAR_ROW_PROPERTIES)
def test_batched_property_equals_its_scalar_replay_over_chunks(name):
    n = 3 * SCAN_CHUNK + 1
    assert run_suite([name], n, 7)[0].to_json_line() == scalar_replay(name, n, 7, DEFAULT_TOL)


@pytest.mark.parametrize("matrix", [np.eye(3), 0.5 * np.eye(3)], ids=["identity", "half"])
def test_check_endomorphism_equals_its_scalar_replay_over_chunks(matrix):
    n, s, f = 3 * SCAN_CHUNK + 1, BallSampler(5, 3), matrix_map(matrix)
    pairs = ({"u": s.sample(), "v": s.sample()} for _ in range(n))
    want = scan_report("endomorphism", pairs, lambda p: scalar_law(f, **p), 1e-6, 5)
    got = check_endomorphism(BallMap.from_matrix(matrix), n, 5)
    assert got.to_json_line() == want.to_json_line()


def loop_scan(residuals: np.ndarray, cutoff: float) -> tuple:
    """seeded_scan's rule as the one-input-at-a-time loop it replaced."""
    max_residual, worst, first = -math.inf, None, None
    for i, r in enumerate(residuals.tolist()):
        if r > max_residual or (math.isnan(r) and not math.isnan(max_residual)):
            max_residual, worst = r, i
        if first is None and not r <= cutoff:
            first = (i, r)
    return max_residual, worst, first, len(residuals)


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
    # count agree whether the residuals come in blocks, in chunks of items
    # or one by one
    rng = np.random.default_rng(len(special))
    residuals = rng.random(3 * SCAN_CHUNK + 1) * 2.0
    for i, r in special.items():
        residuals[i] = r
    blocks = (
        Rows(i=np.arange(start, min(start + SCAN_CHUNK, len(residuals))))
        for start in range(0, len(residuals), SCAN_CHUNK)
    )
    rows = seeded_scan(blocks, lambda rows: residuals[rows["i"]], 1.5)
    items = seeded_scan(range(len(residuals)), lambda i: float(residuals[i]), 1.5)
    want = loop_scan(residuals, 1.5)
    for got, worst, first in [
        (rows, rows[1]["i"].tolist(), rows[2][0]["i"].tolist()),
        (items, [items[1]], [items[2][0]]),
    ]:
        assert got[0] == want[0] or math.isnan(got[0]) and math.isnan(want[0])
        assert worst == [want[1]]
        assert first == [want[2][0]]
        assert got[2][1] == want[2][1] or math.isnan(got[2][1]) and math.isnan(want[2][1])
        assert got[3] == want[3]
