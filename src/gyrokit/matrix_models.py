"""Two-by-two matrix models of the three-dimensional ball.

The Bloch correspondence identifies ball points with regular density
matrices.  Conjugating by the positive square root and renormalizing the
trace gives a product on densities that mirrors the ball addition; scaling
to determinant 1 carries the same product to the positive definite cone
with unit determinant, where the trace normalization drops away.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ball import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatchError,
    GyroError,
    GyroVector,
    _guarded,
)


class PositivityError(GyroError):
    """A matrix fails a positivity, trace, or determinant requirement."""


@dataclass(frozen=True)
class Hermitian2:
    """Hermitian 2x2 matrix [[a, b], [conj(b), d]] stored as four reals.

    The four-real layout keeps construction, JSON round-trips, and equality
    exact; products are written out over the fields, in real arithmetic.
    """

    a: float
    d: float
    re_b: float
    im_b: float

    def __post_init__(self) -> None:
        for field in ("a", "d", "re_b", "im_b"):
            value = float(getattr(self, field))
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value!r}")
            # + 0.0 folds negative zero so JSON and repr stay tidy
            object.__setattr__(self, field, value + 0.0)

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - (self.re_b * self.re_b + self.im_b * self.im_b)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "d": self.d, "re_b": self.re_b, "im_b": self.im_b}


def is_positive_definite(h: Hermitian2) -> bool:
    """Sylvester test for 2x2: positive corner and positive determinant."""
    return h.a > 0.0 and h.det > 0.0


class DensityMatrix2(Hermitian2):
    """Regular density matrix: Hermitian, positive definite, trace 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(self.trace - 1.0) > DEFAULT_ABS_TOL:
            raise PositivityError(f"trace must be 1, got {self.trace!r}")
        if not is_positive_definite(self):
            raise PositivityError(
                f"matrix is not positive definite (a={self.a!r}, det={self.det!r})"
            )


class PosDef2Det1(Hermitian2):
    """Positive definite Hermitian 2x2 with determinant 1, to within
    DEFAULT_REL_TOL plus 4 eps (|a d| + |b|^2), the forward error of a d - |b|^2:
    entries grow like 1/sqrt(1 - |u|) near the ball's boundary, and it cancels."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_positive_definite(self):
            raise PositivityError(
                f"matrix is not positive definite (a={self.a!r}, det={self.det!r})"
            )
        scale = abs(self.a * self.d) + self.re_b * self.re_b + self.im_b * self.im_b
        if abs(self.det - 1.0) > DEFAULT_REL_TOL + 4.0 * sys.float_info.epsilon * scale:
            raise PositivityError(f"determinant must be 1, got {self.det!r}")


def sqrt_posdef2(h: Hermitian2) -> Hermitian2:
    """Positive definite square root via the 2x2 closed form.

    sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)); no
    eigendecomposition, hence exactly Hermitian and cheap.
    """
    if not is_positive_definite(h):
        raise PositivityError(f"square root needs a positive definite matrix, got det={h.det!r}")
    s = math.sqrt(h.det)
    n = math.sqrt(h.trace + 2.0 * s)
    return Hermitian2((h.a + s) / n, (h.d + s) / n, h.re_b / n, h.im_b / n)


def sqrt_congruence(a: Hermitian2, b: Hermitian2) -> Hermitian2:
    """sqrt(a) b sqrt(a), the congruence underlying both matrix products.

    With sqrt(a) = [[p, w], [conj(w), q]] and b = [[x, z], [conj(z), y]],
    the product is [[p^2 x + 2p Re(w conj(z)) + |w|^2 y, w (px + qy) +
    pq z + w^2 conj(z)], [.., |w|^2 x + 2q Re(w conj(z)) + q^2 y]],
    evaluated here in real arithmetic.
    """
    r = sqrt_posdef2(a)
    p, q, wr, wi = r.a, r.d, r.re_b, r.im_b
    x, y, zr, zi = b.a, b.d, b.re_b, b.im_b
    cross = wr * zr + wi * zi  # Re(w conj(z))
    w_abs2 = wr * wr + wi * wi
    w_sq_re, w_sq_im = wr * wr - wi * wi, 2.0 * wr * wi  # w^2
    diag = p * x + q * y
    pq = p * q
    return Hermitian2(
        p * p * x + 2.0 * p * cross + w_abs2 * y,
        w_abs2 * x + 2.0 * q * cross + q * q * y,
        wr * diag + pq * zr + w_sq_re * zr + w_sq_im * zi,
        wi * diag + pq * zi + w_sq_im * zr - w_sq_re * zi,
    )


def odot(a: DensityMatrix2, b: DensityMatrix2) -> DensityMatrix2:
    """Density product: sqrt(a) b sqrt(a), renormalized to unit trace."""
    s = sqrt_congruence(a, b)
    t = s.trace
    if t <= 0.0:
        raise PositivityError(f"congruence trace must be positive, got {t!r}")
    return DensityMatrix2(s.a / t, s.d / t, s.re_b / t, s.im_b / t)


def boxdot(a: PosDef2Det1, b: PosDef2Det1) -> PosDef2Det1:
    """Congruence product sqrt(a) b sqrt(a) on the det-1 cone.

    Determinants multiply under the congruence, so no normalization is
    needed; closure is re-validated by construction.
    """
    s = sqrt_congruence(a, b)
    return PosDef2Det1(s.a, s.d, s.re_b, s.im_b)


def bloch_to_density(v: GyroVector) -> DensityMatrix2:
    """Ball point to density matrix: (I + v . sigma) / 2, dimension 3 only."""
    if v.dim != 3:
        raise DimensionMismatchError(f"Bloch correspondence needs dimension 3, got {v.dim}")
    x, y, z = v.coords
    return DensityMatrix2((1.0 + z) / 2.0, (1.0 - z) / 2.0, x / 2.0, -y / 2.0)


def density_to_bloch(m: DensityMatrix2) -> GyroVector:
    """Inverse Bloch correspondence.

    Regularity of the density keeps the result strictly inside the ball;
    densities within the boundary guard of singular are rejected by the
    ball type's strict construction.
    """
    return GyroVector([2.0 * m.re_b, -2.0 * m.im_b, m.a - m.d])


def normalize_det(m: DensityMatrix2) -> PosDef2Det1:
    """Scale a regular density matrix to determinant 1."""
    d = m.det
    if d <= 0.0:
        raise PositivityError(f"determinant must be positive, got {d!r}")
    s = math.sqrt(d)
    return PosDef2Det1(m.a / s, m.d / s, m.re_b / s, m.im_b / s)


# Column kernels.  A Hermitian block is the tuple of its four field columns
# (a, d, re_b, im_b).  Each kernel makes the operations of the scalar function
# it is named after, in their order, so it equals it bit for bit, and folds
# -0.0 by + 0.0 where the scalar builds a matrix.  A row where the scalar call
# raises GyroError leaves ok; a kernel that takes a root or divides first sets
# the rows out of ok to the identity, so that no arithmetic on them warns.

_IDENTITY = (1.0, 1.0, 0.0, 0.0)


def _blanked(h: tuple, ok) -> tuple:
    return tuple(np.where(ok, x, e) for x, e in zip(h, _IDENTITY)), ok


def _det_rows(h: tuple) -> np.ndarray:
    return h[0] * h[1] - (h[2] * h[2] + h[3] * h[3])


def _positive_rows(h: tuple) -> np.ndarray:
    return (h[0] > 0.0) & (_det_rows(h) > 0.0)


def _density_rows(h: tuple, ok=True) -> tuple:
    h = tuple(x + 0.0 for x in h)
    return h, ok & (abs(h[0] + h[1] - 1.0) <= DEFAULT_ABS_TOL) & _positive_rows(h)


def _det1_rows(h: tuple, ok=True) -> tuple:
    a, d, re_b, im_b = h = tuple(x + 0.0 for x in h)
    band = DEFAULT_REL_TOL + 4.0 * sys.float_info.epsilon * (abs(a * d) + re_b * re_b + im_b * im_b)
    return h, ok & _positive_rows(h) & (abs(_det_rows(h) - 1.0) <= band)


def _sqrt_posdef_rows(h: tuple, ok=True) -> tuple:
    h, ok = _blanked(h, ok & _positive_rows(h))
    s = np.sqrt(_det_rows(h))
    n = np.sqrt(h[0] + h[1] + 2.0 * s)
    return tuple(x + 0.0 for x in ((h[0] + s) / n, (h[1] + s) / n, h[2] / n, h[3] / n)), ok


def _sqrt_congruence_rows(a: tuple, b: tuple, ok=True) -> tuple:
    (p, q, wr, wi), ok = _sqrt_posdef_rows(a, ok)
    x, y, zr, zi = b
    cross, w_abs2 = wr * zr + wi * zi, wr * wr + wi * wi
    w_sq_re, w_sq_im = wr * wr - wi * wi, 2.0 * wr * wi
    diag, pq = p * x + q * y, p * q
    s = (
        p * p * x + 2.0 * p * cross + w_abs2 * y,
        w_abs2 * x + 2.0 * q * cross + q * q * y,
        wr * diag + pq * zr + w_sq_re * zr + w_sq_im * zi,
        wi * diag + pq * zi + w_sq_im * zr - w_sq_re * zi,
    )
    return tuple(t + 0.0 for t in s), ok


def _odot_rows(a: tuple, b: tuple, ok=True) -> tuple:
    s, ok = _sqrt_congruence_rows(a, b, ok)
    s, ok = _blanked(s, ok & (s[0] + s[1] > 0.0))
    t = s[0] + s[1]
    return _density_rows(tuple(x / t for x in s), ok)


def _boxdot_rows(a: tuple, b: tuple, ok=True) -> tuple:
    return _det1_rows(*_sqrt_congruence_rows(a, b, ok))


def _normalize_det_rows(m: tuple, ok=True) -> tuple:
    m, ok = _blanked(m, ok & (_det_rows(m) > 0.0))
    s = np.sqrt(_det_rows(m))
    return _det1_rows(tuple(x / s for x in m), ok)


def _bloch_to_density_rows(v: np.ndarray, ok=True) -> tuple:
    x, y, z = v.T
    return _density_rows(((1.0 + z) / 2.0, (1.0 - z) / 2.0, x / 2.0, -y / 2.0), ok)


def _density_to_bloch_rows(m: tuple, ok=True) -> tuple:
    return _guarded(np.stack([2.0 * m[2], -2.0 * m[3], m[0] - m[1]], axis=1), ok)
