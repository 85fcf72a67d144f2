"""Two-by-two matrix models of the three-dimensional ball.

The Bloch correspondence identifies ball points with regular density
matrices.  Conjugating by the positive square root and renormalizing the
trace gives a product on densities that mirrors the ball addition; scaling
to determinant 1 carries the same product to the positive definite cone
with unit determinant, where the trace normalization drops away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatchError,
    GyroError,
    GyroVector,
)


class PositivityError(GyroError):
    """A matrix fails a positivity, trace, or determinant requirement."""


@dataclass(frozen=True)
class Hermitian2:
    """Hermitian 2x2 matrix [[a, b], [conj(b), d]] stored as four reals.

    The four-real layout keeps construction, JSON round-trips, and equality
    exact; products are written out over the fields, so complex arrays
    appear only in to_array, for callers that want plain matrix arithmetic.
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

    def to_array(self) -> np.ndarray:
        b = complex(self.re_b, self.im_b)
        return np.array([[self.a, b], [b.conjugate(), self.d]], dtype=complex)

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
    """Positive definite Hermitian 2x2 with determinant 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_positive_definite(self):
            raise PositivityError(
                f"matrix is not positive definite (a={self.a!r}, det={self.det!r})"
            )
        if abs(self.det - 1.0) > DEFAULT_REL_TOL:
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
