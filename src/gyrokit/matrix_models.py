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


_HERMITIAN_FIELDS = ("a", "d", "re_b", "im_b")  # a Hermitian2's fields, in order


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
        for field in _HERMITIAN_FIELDS:
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
        return _det(self.a, self.d, self.re_b, self.im_b)

    def to_json_dict(self) -> dict:
        return {field: getattr(self, field) for field in _HERMITIAN_FIELDS}


def is_positive_definite(h: Hermitian2) -> bool:
    """Sylvester test for 2x2: positive corner and positive determinant."""
    return _positive(h.a, h.d, h.re_b, h.im_b)


def _require_positive(h: Hermitian2) -> None:
    if not is_positive_definite(h):
        raise PositivityError(f"matrix is not positive definite (a={h.a!r}, det={h.det!r})")


class DensityMatrix2(Hermitian2):
    """Regular density matrix: Hermitian, positive definite, trace 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(self.trace - 1.0) > DEFAULT_ABS_TOL:
            raise PositivityError(f"trace must be 1, got {self.trace!r}")
        _require_positive(self)


class PosDef2Det1(Hermitian2):
    """Positive definite Hermitian 2x2 with determinant 1, to within
    DEFAULT_REL_TOL plus 4 eps (|a d| + |b|^2), the forward error of a d - |b|^2:
    entries grow like 1/sqrt(1 - |u|) near the ball's boundary, and it cancels.
    A matrix whose band overflows is refused."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(self)
        if not _in_det1_band(self.a, self.d, self.re_b, self.im_b):
            raise PositivityError(f"determinant must be 1, got {self.det!r}")


def sqrt_posdef2(h: Hermitian2) -> Hermitian2:
    """Positive definite square root via the 2x2 closed form.

    sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)); no
    eigendecomposition, hence exactly Hermitian and cheap.
    """
    return Hermitian2(*_root_fields(h))


def sqrt_congruence(a: Hermitian2, b: Hermitian2) -> Hermitian2:
    """sqrt(a) b sqrt(a), the congruence underlying both matrix products.

    With sqrt(a) = [[p, w], [conj(w), q]] and b = [[x, z], [conj(z), y]],
    the product is [[p^2 x + 2p Re(w conj(z)) + |w|^2 y, w (px + qy) +
    pq z + w^2 conj(z)], [.., |w|^2 x + 2q Re(w conj(z)) + q^2 y]],
    evaluated here in real arithmetic.
    """
    return Hermitian2(*_congruence_fields(a, b))


def _root_fields(h: Hermitian2) -> tuple:
    # sqrt_posdef2's fields, -0.0 folded, its matrix not built
    if not _rootable(h.a, h.d, h.re_b, h.im_b):
        raise PositivityError(
            f"square root needs a positive definite matrix of finite determinant, got det={h.det!r}"
        )
    return tuple(x + 0.0 for x in _root(math.sqrt, h.a, h.d, h.re_b, h.im_b))


def _congruence_fields(a: Hermitian2, b: Hermitian2) -> tuple:
    # sqrt_congruence's fields, -0.0 folded, with neither its matrix nor the
    # root's built; they are finite for densities
    return tuple(x + 0.0 for x in _congruence(*_root_fields(a), b.a, b.d, b.re_b, b.im_b))


def odot(a: DensityMatrix2, b: DensityMatrix2) -> DensityMatrix2:
    """Density product: sqrt(a) b sqrt(a), renormalized to unit trace."""
    s = _congruence_fields(a, b)
    t = s[0] + s[1]
    if t <= 0.0:
        raise PositivityError(f"congruence trace must be positive, got {t!r}")
    return DensityMatrix2(s[0] / t, s[1] / t, s[2] / t, s[3] / t)


def boxdot(a: PosDef2Det1, b: PosDef2Det1) -> PosDef2Det1:
    """Congruence product sqrt(a) b sqrt(a) on the det-1 cone.

    Determinants multiply under the congruence, so no normalization is
    needed; closure is re-validated by construction.
    """
    return PosDef2Det1(*_congruence_fields(a, b))


def bloch_to_density(v: GyroVector) -> DensityMatrix2:
    """Ball point to density matrix: (I + v . sigma) / 2, dimension 3 only."""
    if v.dim != 3:
        raise DimensionMismatchError(f"Bloch correspondence needs dimension 3, got {v.dim}")
    x, y, z = v.coords.tolist()
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


# Each formula is written once, as a helper of the fields (_det to
# _congruence) that the functions above call with floats and the column
# kernels below with a Hermitian block's four field columns: + - * / and a
# correctly rounded sqrt round both alike.  A kernel folds -0.0 by + 0.0
# where the scalar builds a matrix.  A row where the scalar call raises
# GyroError leaves ok; a kernel that takes a root or divides first sets the
# rows out of ok to the identity, so that no arithmetic on them warns.


def _det(a, d, re_b, im_b):
    return a * d - (re_b * re_b + im_b * im_b)


def _positive(a, d, re_b, im_b):
    return (a > 0.0) & (_det(a, d, re_b, im_b) > 0.0)


def _rootable(a, d, re_b, im_b):
    # positive, of finite determinant: the closed form takes inf / inf at det inf
    det = _det(a, d, re_b, im_b)
    return (a > 0.0) & (det > 0.0) & (det < math.inf)


def _in_det1_band(a, d, re_b, im_b):
    # a band that overflowed to inf would hold any determinant, inf included
    band = DEFAULT_REL_TOL + 4.0 * sys.float_info.epsilon * (abs(a * d) + re_b * re_b + im_b * im_b)
    return (abs(_det(a, d, re_b, im_b) - 1.0) <= band) & (band < math.inf)


def _root(sqrt, a, d, re_b, im_b):
    """The fields of sqrt_posdef2's closed form."""
    s = sqrt(_det(a, d, re_b, im_b))
    n = sqrt(a + d + 2.0 * s)
    return (a + s) / n, (d + s) / n, re_b / n, im_b / n


def _congruence(p, q, wr, wi, x, y, zr, zi) -> tuple:
    """The fields of r b r, from those of r = sqrt(a) and of b: see sqrt_congruence."""
    cross, w_abs2 = wr * zr + wi * zi, wr * wr + wi * wi  # Re(w conj(z)), |w|^2
    w_sq_re, w_sq_im = wr * wr - wi * wi, 2.0 * wr * wi  # w^2
    diag, pq = p * x + q * y, p * q
    return (
        p * p * x + 2.0 * p * cross + w_abs2 * y,
        w_abs2 * x + 2.0 * q * cross + q * q * y,
        wr * diag + pq * zr + w_sq_re * zr + w_sq_im * zi,
        wi * diag + pq * zi + w_sq_im * zr - w_sq_re * zi,
    )


_IDENTITY = (1.0, 1.0, 0.0, 0.0)


def _blanked(h: tuple, ok) -> tuple:
    return tuple(np.where(ok, x, e) for x, e in zip(h, _IDENTITY)), ok


def _density_rows(h: tuple, ok=True) -> tuple:
    h = tuple(x + 0.0 for x in h)
    return h, ok & (abs(h[0] + h[1] - 1.0) <= DEFAULT_ABS_TOL) & _positive(*h)


def _det1_rows(h: tuple, ok=True) -> tuple:
    h = tuple(x + 0.0 for x in h)
    # a row whose products overflow is refused by the band, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        return h, ok & _positive(*h) & _in_det1_band(*h)


def _sqrt_posdef_rows(h: tuple, ok=True) -> tuple:
    # a row whose determinant overflows is refused, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        h, ok = _blanked(h, ok & _rootable(*h))
    return tuple(x + 0.0 for x in _root(np.sqrt, *h)), ok


def _sqrt_congruence_rows(a: tuple, b: tuple, ok=True) -> tuple:
    r, ok = _sqrt_posdef_rows(a, ok)
    return tuple(t + 0.0 for t in _congruence(*r, *b)), ok


def _odot_rows(a: tuple, b: tuple, ok=True) -> tuple:
    s, ok = _sqrt_congruence_rows(a, b, ok)
    s, ok = _blanked(s, ok & (s[0] + s[1] > 0.0))
    t = s[0] + s[1]
    return _density_rows(tuple(x / t for x in s), ok)


def _boxdot_rows(a: tuple, b: tuple, ok=True) -> tuple:
    return _det1_rows(*_sqrt_congruence_rows(a, b, ok))


def _normalize_det_rows(m: tuple, ok=True) -> tuple:
    m, ok = _blanked(m, ok & (_det(*m) > 0.0))
    s = np.sqrt(_det(*m))
    return _det1_rows(tuple(x / s for x in m), ok)


def _bloch_to_density_rows(v: np.ndarray, ok=True) -> tuple:
    x, y, z = v.T
    return _density_rows(((1.0 + z) / 2.0, (1.0 - z) / 2.0, x / 2.0, -y / 2.0), ok)


def _density_to_bloch_rows(m: tuple, ok=True) -> tuple:
    return _guarded(np.stack([2.0 * m[2], -2.0 * m[3], m[0] - m[1]], axis=1), ok)
