"""Hyperbolic predicates on the ball.

Distance uses the Klein chordal formula; commutation and the two
collinearity tests reduce geometric statements to numerically robust
algebraic ones (Gram determinants, translated commutation).
"""

from __future__ import annotations

import math
import operator

from .ball import (
    DEFAULT_TOL,
    GyroVector,
    ToleranceConfig,
    _check_same_dim,
    _close,
    _dot,
    _each,
    _sum_rows,
    approx_eq,
    einstein_add,
    neg,
)


def klein_distance(x: GyroVector, y: GyroVector) -> float:
    """Hyperbolic distance between ball points in the Klein model.

    d(x, y) = arcosh((1 - (x,y)) / sqrt((1-|x|^2)(1-|y|^2))), normalized so
    d(0, u) = artanh(|u|).  Rounding can push the arcosh argument a few ulp
    below 1 for nearly equal points, so it is clamped from below at 1.
    """
    _check_same_dim(x, y)
    arg = (1.0 - _dot(x._x, y._x)) / math.sqrt((1.0 - x.norm2) * (1.0 - y.norm2))
    return math.acosh(max(arg, 1.0))


def commutes(u: GyroVector, v: GyroVector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when u (+) v and v (+) u agree within tolerance."""
    return approx_eq(einstein_add(u, v), einstein_add(v, u), tol)


def gram_band(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, float]:
    """Gram determinant |a|^2 |b|^2 - (a, b)^2 of two coordinate vectors,
    the squared area they span, and the band abs_tol * (1 + |a|^2 |b|^2)
    at or below which it counts as zero.

    The band is scale-aware: exact dependence gives a determinant that is
    pure rounding noise relative to 1 + |a|^2 |b|^2.  a and b are 1-D
    float64 arrays, or tuples of floats.
    """
    return _gram_terms(_dot(a, a), _dot(b, b), _dot(a, b), tol)


def _gram_terms(a2, b2, ab, tol: ToleranceConfig) -> tuple:  # from floats or columns
    return a2 * b2 - ab * ab, tol.abs_tol * (1.0 + a2 * b2)


def linearly_dependent(u: GyroVector, v: GyroVector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Gram-determinant test for linear dependence of u and v.

    Commutation of the ball addition is equivalent to linear dependence of
    the operands, so this is the oracle side of the commutes check.
    """
    _check_same_dim(u, v)
    det, band = gram_band(u._x, v._x, tol)
    return det <= band


def collinear_gyro(
    x: GyroVector, y: GyroVector, z: GyroVector, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Collinearity of x, y, z decided inside the ball's own algebra.

    Translating by x (w -> (-x) (+) w) moves x to the origin; the three
    points are collinear exactly when the two translated points commute.
    """
    _check_same_dim(x, y)
    _check_same_dim(x, z)
    a = einstein_add(neg(x), y)
    b = einstein_add(neg(x), z)
    return commutes(a, b, tol)


def collinear_direct(
    x: GyroVector, y: GyroVector, z: GyroVector, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Euclidean chord test: y - x and z - x linearly dependent.

    Ball lines are straight chords in this model, so this is the
    independent route against which collinear_gyro is verified.
    """
    _check_same_dim(x, y)
    _check_same_dim(x, z)
    p, q, r = x._x, y._x, z._x
    if type(p) is tuple:
        q, r = tuple(map(operator.sub, q, p)), tuple(map(operator.sub, r, p))
    else:
        q, r = q - p, r - p
    det, band = gram_band(q, r, tol)
    return det <= band


# Row kernels (see ball): the functions above over the rows of (n, d) arrays.


def _klein_distance_rows(x, y):
    """klein_distance of the rows of x and y."""
    import numpy as np

    arg = (1.0 - _dot(x, y)) / np.sqrt((1.0 - _dot(x, x)) * (1.0 - _dot(y, y)))
    return _each(math.acosh, np.maximum(arg, 1.0))


def _commutes_rows(u, v, tol: ToleranceConfig, ok=True) -> tuple:
    """commutes of the rows of u and v, and ok narrowed to the rows whose
    two sums the guard accepts."""
    import numpy as np

    uv, ok = _sum_rows(u, v, ok)
    vu, ok = _sum_rows(v, u, ok)
    return _close(np.maximum, uv, vu, tol).all(axis=1), ok


def _gram_band_rows(a, b, tol: ToleranceConfig) -> tuple:
    """gram_band of the rows of a and b."""
    return _gram_terms(_dot(a, a), _dot(b, b), _dot(a, b), tol)
