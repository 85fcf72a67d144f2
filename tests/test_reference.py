"""Bit-for-bit checks of the lean internal paths against the plain forms.

Each reference below is the straightforward expression the package used
before its results skipped re-validation and numpy dispatch: the textbook
addition on one line, negation through the public constructor, the norm
through np.linalg.norm, and the sampler's uniform() draw.  The arithmetic
is unchanged, so the results must agree exactly, bytes included, up to
points 1e-8 from the unit sphere.  A result outside the guarded ball must
fail with the public constructor's message, and every result is read-only.
"""

import math

import numpy as np
import pytest

from gyrokit import (
    BallDomainError,
    BallMap,
    BallSampler,
    GyroVector,
    einstein_add,
    gyration,
    line_param,
    neg,
)
from gyrokit.ball import _norm
from gyrokit.verifier import _scaled

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
