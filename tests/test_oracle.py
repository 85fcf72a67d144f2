"""Forward error of gyration against a 50-digit oracle, up to the guard.

The oracle evaluates the definition gyr[u, v]w = -(u (+) v) (+) (u (+) (v (+) w))
in mpmath at 50 digits, from the very doubles the library receives, so it
is the exact gyration of those doubles to far below double precision.
Both the closed form that `gyration` evaluates and the definition in
doubles are measured against it, over nearly opposite pairs: u at
1 - |u| = 1e-1 ... 1e-8 and 2e-9 (the guard sits at 1e-9), v of
comparable rapidity turned from -u by at most sqrt(2000 / (gamma(u) gamma(v))),
which keeps u (+) v inside the ball, and w in the ball of radius 0.5.  That
is the cancelling case of the benchmark's ops-stream near-boundary draws.

`python tests/test_oracle.py` prints the table: per level and dimension,
the worst relative error of the definition and of the closed form, and how
many pairs the definition refused because one of its sums left the guard.
In d >= 2 the closed form is at least 4e3x more accurate wherever
1 - |u| <= 1e-4.  In d = 1, where every gyration is the identity, it is
only 5x to 220x more accurate: both forms are limited there by the rounding
of 1 - |u|^2 inside gamma, which bounds the closed form's error by
eps / (1 - |u|) at every level.
"""

import functools
import math

import numpy as np
import pytest

from gyrokit import GyroError, GyroVector, gyration
from test_reference import definition_gyration

mp = pytest.importorskip("mpmath")

EPS = float(np.finfo(float).eps)
DIMS = (1, 2, 3, 5)
GAPS = tuple(10.0**-k for k in range(1, 9)) + (2e-9,)
PAIRS = 12  # per level and dimension


def _dot(a: list, b: list):
    return mp.fsum(p * q for p, q in zip(a, b))


def _add(u: list, v: list) -> list:
    uv = _dot(u, v)
    s = mp.sqrt(1 - _dot(u, u))
    return [(a + s * b + (uv / (1 + s)) * a) / (1 + uv) for a, b in zip(u, v)]


def exact_gyration(u: GyroVector, v: GyroVector, w: GyroVector) -> list:
    """The definition of gyr[u, v]w at 50 digits, from the doubles exactly."""
    with mp.workdps(50):
        x, y, z = ([mp.mpf(float(c)) for c in p.coords] for p in (u, v, w))
        return _add([-c for c in _add(x, y)], _add(x, _add(y, z)))


def relative_error(got: np.ndarray, want: list) -> float:
    with mp.workdps(50):
        err = mp.sqrt(mp.fsum((mp.mpf(float(g)) - x) ** 2 for g, x in zip(got, want)))
        return float(err / mp.sqrt(mp.fsum(x**2 for x in want)))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def opposite_pairs(gap: float, dim: int) -> list[tuple]:
    """PAIRS seeded (u, v, w) with 1 - |u| = gap and v nearly opposite u."""
    rng = np.random.default_rng([dim, round(-math.log10(gap) * 10)])
    out = []
    for _ in range(PAIRS):
        e = _unit(rng, dim)
        gap_v = max(gap * 10.0 ** rng.uniform(-0.5, 0.5), 1.5e-9)
        gamma_u = 1.0 / math.sqrt(gap * (2.0 - gap))
        gamma_v = 1.0 / math.sqrt(gap_v * (2.0 - gap_v))
        turn = rng.uniform() * min(1.0, math.sqrt(2000.0 / (gamma_u * gamma_v)))
        away = -e
        if dim > 1:
            side = _unit(rng, dim)
            side -= side.dot(e) * e
            away = -math.cos(turn) * e + math.sin(turn) * side / np.linalg.norm(side)
        u = GyroVector((1.0 - gap) * e)
        v = GyroVector((1.0 - gap_v) * away)
        out.append((u, v, GyroVector(0.5 * rng.uniform() * _unit(rng, dim))))
    return out


@functools.cache
def cell(gap: float, dim: int) -> dict:
    """Worst relative errors of one level and dimension, and the pairs the
    definition refused; per pair, the closed form's error over eps / slack,
    the slack being the smaller of 1 - |u| and 1 - |v|."""
    worst = {"definition": 0.0, "closed": 0.0, "refused": 0, "closed_per_slack": 0.0}
    for u, v, w in opposite_pairs(gap, dim):
        want = exact_gyration(u, v, w)
        closed = relative_error(gyration(u, v, w).coords, want)
        slack = min(1.0 - u.norm, 1.0 - v.norm)
        worst["closed"] = max(worst["closed"], closed)
        worst["closed_per_slack"] = max(worst["closed_per_slack"], closed * slack / EPS)
        try:
            got = definition_gyration(u, v, w).coords
        except GyroError:
            worst["refused"] += 1
            continue
        worst["definition"] = max(worst["definition"], relative_error(got, want))
    return worst


def table() -> str:
    lines = ["1-|u|  " + "".join(f"{f'd = {d}: definition / closed':>34}" for d in DIMS)]
    for gap in GAPS:
        cells = []
        for dim in DIMS:
            c = cell(gap, dim)
            refused = f" ({c['refused']} refused)" if c["refused"] else ""
            cells.append(f"{c['definition']:9.1e} / {c['closed']:7.1e}{refused}")
        lines.append(f"{gap:5.0e}  " + "".join(f"{c:>34}" for c in cells))
    return "\n".join(lines)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("gap", GAPS)
def test_closed_form_error_is_a_few_eps_over_the_slack(gap, dim):
    # gamma(u) carries relative error about eps / (1 - |u|) from the rounding of
    # 1 - |u|^2; the worst measured multiple was 0.66, so 5 leaves 7.5x
    assert cell(gap, dim)["closed_per_slack"] <= 5.0


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("gap", [g for g in GAPS if g <= 1e-4])
def test_closed_form_is_far_more_accurate_near_the_boundary(gap, dim):
    # at least 100x in d >= 2, where the least measured gain was 4.1e3x; in
    # d = 1 the gyration is the identity and both forms are limited by the
    # rounding of 1 - |u|^2, so the gain is smaller (the least measured was
    # 6.8x) and only "never less accurate" is asserted
    c = cell(gap, dim)
    assert c["closed"] * (100.0 if dim > 1 else 1.0) <= c["definition"]


def test_the_definition_refuses_pairs_the_closed_form_takes():
    # every pair above was evaluated by the closed form; next to the guard
    # the definition's sums leave the ball for some of them
    assert sum(cell(gap, dim)["refused"] for gap in GAPS for dim in DIMS) > 0


if __name__ == "__main__":
    print(table())
