"""Relativistic velocity addition on the open unit ball of R^n.

The carrier is the set of vectors of Euclidean norm < 1 (speed of light
normalized to 1).  The addition law is noncommutative and nonassociative;
its failure of associativity is measured by the gyration operator, which
the verifier module checks is always a rotation.  Everything here is pure
and dimension-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-9
DEFAULT_BOUNDARY_MARGIN = 1e-9
DEFAULT_SAMPLE_RMAX = 0.999


class GyroError(ValueError):
    """Base class for domain violations raised by this package."""


class BallDomainError(GyroError):
    """A vector is not strictly inside the guarded unit ball."""


class DimensionMismatchError(GyroError):
    """Operands live in different dimensions."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric policy shared across the package.

    abs_tol and rel_tol drive approximate comparisons and sample_rmax caps
    the norm of randomly drawn vectors, which must lie inside the guard.
    The guard itself is fixed: construction, the verifier's closure cutoff
    and its evaluability bound on composed draws all read
    DEFAULT_BOUNDARY_MARGIN.
    """

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    sample_rmax: float = DEFAULT_SAMPLE_RMAX

    def __post_init__(self) -> None:
        for field in ("abs_tol", "rel_tol", "sample_rmax"):
            value = getattr(self, field)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{field} must be a finite positive number, got {value!r}")
        if not self.sample_rmax < 1.0 - DEFAULT_BOUNDARY_MARGIN:
            guard = f"1 - {DEFAULT_BOUNDARY_MARGIN:g}"
            raise ValueError(f"sample_rmax must be < {guard}, got {self.sample_rmax!r}")


DEFAULT_TOL = ToleranceConfig()


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: the sqrt(x . x) that
    np.linalg.norm evaluates for it, bit for bit, without its dispatch."""
    return math.sqrt(x.dot(x))


class GyroVector:
    """A point strictly inside the unit ball.

    Construction is strict: anything with norm >= 1 - DEFAULT_BOUNDARY_MARGIN
    is rejected rather than clamped, so no operation can silently leave the
    domain.  The squared norm and norm are computed once and cached since
    every operation needs them.
    """

    __slots__ = ("coords", "norm2", "norm")

    def __init__(self, coords):
        try:
            # always a fresh copy, so no caller can write to a guarded point
            v = np.array(coords, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BallDomainError(f"coords are not real numbers: {exc}") from exc
        if v.ndim != 1 or v.size == 0:
            raise BallDomainError("coords must be a non-empty 1-D sequence")
        self._guard(v)

    @classmethod
    def _owned(cls, v: np.ndarray) -> "GyroVector":
        """Point with coords v, a fresh 1-D float64 array that no caller
        holds: guarded like outside input, but neither parsed nor copied."""
        out = cls.__new__(cls)
        out._guard(v)
        return out

    def _guard(self, v: np.ndarray) -> None:
        # v.dot(v) is the same ddot as v @ v, without the matmul dispatch;
        # norm2 finite implies every component is finite, NaN/inf both fail
        norm2 = float(v.dot(v))
        if not math.isfinite(norm2):
            raise BallDomainError("coords must be finite")
        norm = math.sqrt(norm2)
        if norm >= 1.0 - DEFAULT_BOUNDARY_MARGIN:
            raise BallDomainError(
                f"|v| = {norm!r} is not strictly inside the unit ball "
                f"(boundary margin {DEFAULT_BOUNDARY_MARGIN:g})"
            )
        v.setflags(write=False)
        self.coords = v
        self.norm2 = norm2
        self.norm = norm

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "GyroVector":
        return cls(np.zeros(int(dim)))

    def tolist(self) -> list[float]:
        return self.coords.tolist()

    def __repr__(self) -> str:
        inside = ", ".join(repr(c) for c in self.coords)
        return f"GyroVector([{inside}])"


def _check_same_dim(u: GyroVector, v: GyroVector) -> None:
    if len(u.coords) != len(v.coords):
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} vs {v.dim}")


def einstein_add(u: GyroVector, v: GyroVector) -> GyroVector:
    """Relativistic composition of velocities u and v.

    Evaluates the addition law in its textbook form,

        (u + s*v + ((u,v) / (1 + s)) * u) / (1 + (u,v)),    s = sqrt(1 - |u|^2),

    rather than any algebraically rearranged variant; the verifier
    cross-checks the result through the independent Lorentz-factor
    identity, so implementation and check cannot share a bug.
    """
    _check_same_dim(u, v)
    duv = float(u.coords.dot(v.coords))
    s = math.sqrt(1.0 - u.norm2)
    # the textbook expression term by term in one buffer: IEEE addition is
    # commutative, so every step rounds as the one-line form does
    out = s * v.coords
    out += u.coords
    out += (duv / (1.0 + s)) * u.coords
    out /= 1.0 + duv
    return GyroVector._owned(out)


def gamma(u: GyroVector) -> float:
    """Lorentz factor 1 / sqrt(1 - |u|^2).

    Strict construction keeps |u| < 1 - DEFAULT_BOUNDARY_MARGIN, so the
    result is finite (at most ~22360).
    """
    return 1.0 / math.sqrt(1.0 - u.norm2)


def neg(u: GyroVector) -> GyroVector:
    """Additive inverse; plain componentwise negation.

    Negation is exact, so -u keeps the norms of u, and with them its place
    inside the guarded ball.
    """
    coords = -u.coords
    coords.setflags(write=False)
    out = GyroVector.__new__(GyroVector)
    out.coords, out.norm2, out.norm = coords, u.norm2, u.norm
    return out


def gyration(u: GyroVector, v: GyroVector, w: GyroVector) -> GyroVector:
    """Apply the gyration gyr[u, v] to w.

    Defined as the associativity defect -(u (+) v) (+) (u (+) (v (+) w)).
    That this acts on w as an orthogonal map is a verified property
    (see the gyration_orthogonality check), never an assumption.
    """
    _check_same_dim(u, v)
    _check_same_dim(u, w)
    return einstein_add(neg(einstein_add(u, v)), einstein_add(u, einstein_add(v, w)))


def line_param(x: GyroVector, t: float) -> GyroVector:
    """Point at parameter t on the diameter through x != 0.

    Returns tanh(t * artanh(|x|)) * x / |x|.  The map t -> line_param(x, t)
    sends 0 to the origin, 1 to x, and parameter sums to ball sums, making
    the open diameter a subgroup isomorphic to (R, +).
    """
    t = float(t)
    if not math.isfinite(t):
        raise BallDomainError(f"parameter must be finite, got {t!r}")
    if x.norm == 0.0:
        raise BallDomainError("line_param requires a nonzero direction")
    radius = math.tanh(t * math.atanh(x.norm))
    return GyroVector._owned((radius / x.norm) * x.coords)


def approx_eq(a: GyroVector, b: GyroVector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Componentwise |a_i - b_i| <= abs_tol + rel_tol * max(|a_i|, |b_i|)."""
    _check_same_dim(a, b)
    bound = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(a.coords), np.abs(b.coords))
    return bool(np.all(np.abs(a.coords - b.coords) <= bound))
