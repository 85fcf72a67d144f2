"""The defect ledger: ROADMAP's known defects, each pinned on fixed inputs.

Each test states what the program should do on inputs written out here, and
is marked xfail(strict=True) while the defect stands: the day a change mends
it, the test passes, strict xfail fails the suite, and the mark comes off
with the ROADMAP entry.  Fixed inputs, not seeds, so that no change to a
sampling stream can hide a defect.
"""

import math

import pytest

from gyrokit import (
    GyroVector,
    PositivityError,
    bloch_to_density,
    boxdot,
    klein_distance,
    normalize_det,
)

mp = pytest.importorskip("mpmath")


@pytest.mark.xfail(
    strict=True, raises=PositivityError,
    reason="D2: boxdot's det-1 band ignores the forward error of sqrt_congruence",
)
def test_d2_boxdot_accepts_two_near_guard_det1_matrices():
    # 1 - |u| is 1.1e-7 and 2.0e-7; boxdot raises "determinant must be 1,
    # got 1.0000295639038086"
    u = [-0.24882116994288805, 0.5967160969927983, -0.7629008514415856]
    v = [0.4400849397923068, -0.4022565007559473, 0.8028166411068859]
    a, b = (normalize_det(bloch_to_density(GyroVector(p))) for p in (u, v))
    product = boxdot(a, b)
    assert math.isclose(product.a * product.d - product.re_b**2 - product.im_b**2, 1.0)


def exact_klein_distance(x: list, y: list):
    """acosh((1 - x.y) / sqrt((1 - |x|^2)(1 - |y|^2))) at 50 digits, from the doubles exactly."""
    with mp.workdps(50):
        a, b = [mp.mpf(c) for c in x], [mp.mpf(c) for c in y]

        def dot(p, q):
            return mp.fsum(s * t for s, t in zip(p, q))

        return mp.acosh((1 - dot(a, b)) / mp.sqrt((1 - dot(a, a)) * (1 - dot(b, b))))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="D6: acosh(1 + delta) amplifies the rounding of its argument between close points",
)
def test_d6_klein_distance_keeps_its_digits_between_close_points():
    # 1 - |x| = 1e-2 and y a relative 1e-7 from x: the relative error is 3.6e-4
    x = [0.1310142969999125, -0.7495025515219107, -0.6333886478646142]
    y = [0.13101428433900972, -0.7495024756823393, -0.6333885846484385]
    want = exact_klein_distance(x, y)
    got = klein_distance(GyroVector(x), GyroVector(y))
    with mp.workdps(50):
        assert abs((mp.mpf(got) - want) / want) <= 1e-12
