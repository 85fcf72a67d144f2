"""Relativistic velocity addition on the open unit ball of R^n.

The carrier is the set of vectors of Euclidean norm < 1 (speed of light
normalized to 1).  The addition law is noncommutative and nonassociative;
its failure of associativity is measured by the gyration operator,
evaluated in Ungar's closed form, which the verifier module checks is
always a rotation.  Everything here is pure and dimension-agnostic.
"""

from __future__ import annotations

import math
import numbers
import operator
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
    Each takes a finite positive real but a bool, stored as a float.
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
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)  # True is no 1
            try:
                number = float(value) if real else math.nan
            except OverflowError:  # an int or a fraction past the float range
                number = math.inf
            if not (math.isfinite(number) and number > 0.0):
                raise ValueError(f"{field} must be a finite positive number, got {value!r}")
            object.__setattr__(self, field, number)
        if not self.sample_rmax < 1.0 - DEFAULT_BOUNDARY_MARGIN:
            guard = f"1 - {DEFAULT_BOUNDARY_MARGIN:g}"
            raise ValueError(f"sample_rmax must be < {guard}, got {self.sample_rmax!r}")


DEFAULT_TOL = ToleranceConfig()


def _outside_ball(norm: float) -> BallDomainError:
    return BallDomainError(
        f"|v| = {norm!r} is not strictly inside the unit ball "
        f"(boundary margin {DEFAULT_BOUNDARY_MARGIN:g})"
    )


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
        # outside input may be finite yet too long to square: v.dot(v) would
        # overflow with a numpy warning, where hypot cannot; below 1e150 it is safe
        length = math.hypot(*v.tolist())
        if not length < 1e150:
            if not np.isfinite(v).all():
                raise BallDomainError("coords must be finite")
            raise _outside_ball(length)
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
            raise _outside_ball(norm)
        v.setflags(write=False)
        self.coords = v
        self.norm2 = norm2
        self.norm = norm

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "GyroVector":
        return cls(np.zeros(operator.index(dim)))

    def tolist(self) -> list[float]:
        return self.coords.tolist()

    def __repr__(self) -> str:
        return f"GyroVector({self.coords.tolist()!r})"


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
    x, y = u.coords, v.coords
    return GyroVector._owned(_add_terms(x, y, float(x.dot(y)), math.sqrt(1.0 - u.norm2)))


def _add_terms(u, v, duv, s):
    """einstein_add's textbook form from u.v and s = sqrt(1 - |u|^2), term by term in
    one buffer: IEEE addition is commutative, so each step rounds as the one-line form."""
    out = s * v
    out += u
    out += (duv / (1.0 + s)) * u
    out /= 1.0 + duv
    return out


def _close(a, b, tol: ToleranceConfig):
    """approx_eq componentwise, of 1-D coords or of (n, d) rows."""
    return np.abs(a - b) <= tol.abs_tol + tol.rel_tol * np.maximum(np.abs(a), np.abs(b))


# Row kernels.  Each takes points as the rows of a (..., d) array, such as
# an (n, d) block or a (k, m, d) stack, and passes a formula's helper the
# columns where its scalar twin passes floats, so the two agree bit for bit:
# np.vecdot is the same ddot as ndarray.dot, np.sqrt is correctly rounded
# like math.sqrt.  A guarded kernel passes on ok: a row where the scalar
# call raises GyroError leaves ok and is zeroed.  _checked_rows and
# _line_param_rows, whose _each walks a list, take (n, d) rows alone.


def _each(f, *columns: np.ndarray) -> np.ndarray:
    """f of the elements of the columns in turn, as Python floats: for math's
    transcendentals, which numpy's differ from in the last bit."""
    return np.array(list(map(f, *(c.tolist() for c in columns))), dtype=float)


def _guard_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms of the rows of w, and which rows the GyroVector guard
    accepts: finite, with norm below 1 - DEFAULT_BOUNDARY_MARGIN.  A row
    too long to square has norm2 inf and is refused without a warning."""
    with np.errstate(over="ignore"):
        norm2 = np.vecdot(w, w)
    return norm2, np.sqrt(norm2) < 1.0 - DEFAULT_BOUNDARY_MARGIN


def _checked_rows(w: np.ndarray) -> np.ndarray:
    """w, once the guard accepts every row; otherwise the constructor's
    error for the first row it refuses."""
    ok = _guard_rows(w)[1]
    if not ok.all():
        GyroVector._owned(w[np.argmin(ok)].copy())
    return w


def _add_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """einstein_add of the rows of u and v, unguarded."""
    return _add_terms(u, v, np.vecdot(u, v)[..., None], np.sqrt(1.0 - np.vecdot(u, u))[..., None])


def _gamma_rows(u: np.ndarray) -> np.ndarray:
    """gamma of each row of u."""
    return 1.0 / np.sqrt(1.0 - np.vecdot(u, u))


def _norm_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x: sqrt(x . x) row by row, as
    np.linalg.norm evaluates it for one row, bit for bit."""
    return np.sqrt(np.vecdot(x, x))


def _guarded(w: np.ndarray, ok) -> tuple[np.ndarray, np.ndarray]:
    """w with every row outside ok or refused by the guard zeroed, so that
    later arithmetic on it stays finite and warning-free; and ok narrowed."""
    ok = ok & _guard_rows(w)[1]
    w[~ok] = 0.0
    return w, ok


def _sum_rows(u: np.ndarray, v: np.ndarray, ok=True) -> tuple[np.ndarray, np.ndarray]:
    """einstein_add of the rows of u and v, guarded (see the row kernels)."""
    return _guarded(_add_rows(u, v), ok)


def _anchored_sum_rows(u: np.ndarray, v: np.ndarray, ok=True) -> tuple[np.ndarray, np.ndarray]:
    """_sum_rows, whose first formed row einstein_add also sums, refused unless
    the two agree: the one path by which a wrapper set on the public
    einstein_add (perfbench's --corrupt) reaches a verifier property."""
    w, ok = _sum_rows(u, v, ok)
    for i in np.flatnonzero(ok)[:1]:
        ok[i] = np.array_equal(einstein_add(GyroVector(u[i]), GyroVector(v[i])).coords, w[i])
    return w, ok


def _gyration_terms(gu, gv, uv, uw, vw):
    """(A / D, B / D) of gyration's closed form, from gamma(u), gamma(v), u.v,
    u.w and v.w by + - * / alone: floats and float64 arrays round alike."""
    gu1, gv1 = gu + 1.0, gv + 1.0
    big_a = (-gu * gu / gu1 * (gv - 1.0) * uw + gu * gv * vw
             + 2.0 * gu * gu * gv * gv / (gu1 * gv1) * uv * vw)
    big_b = -gv / gv1 * (gu * gv1 * uw + (gu - 1.0) * gv * vw)
    big_d = gu * gv * (1.0 + uv) + 1.0
    return big_a / big_d, big_b / big_d


def _gyration_rows(u: np.ndarray, v: np.ndarray, w: np.ndarray, ok=True) -> tuple:
    """gyration of the rows of u, v and w, guarded."""
    a, b = _gyration_terms(
        _gamma_rows(u), _gamma_rows(v), np.vecdot(u, v), np.vecdot(u, w), np.vecdot(v, w)
    )
    return _guarded(a[..., None] * u + b[..., None] * v + w, ok)


def _line_param_rows(x: np.ndarray, t: np.ndarray, ok=True) -> tuple[np.ndarray, np.ndarray]:
    """line_param of each row of x at its row's t, guarded; a zero row is refused."""
    norm = _norm_rows(x)
    ok = ok & (norm > 0.0)
    radius = _each(math.tanh, t * _each(math.atanh, norm))
    scale = np.divide(radius, norm, out=np.zeros_like(norm), where=ok)
    return _guarded(scale[:, None] * x, ok)


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

    The associativity defect -(u (+) v) (+) (u (+) (v (+) w)), evaluated in
    the closed form of A. A. Ungar (Analytic Hyperbolic Geometry, 2008)
    w + (A u + B v) / D, where D = gamma(u) gamma(v) (1 + u.v) + 1 >= 2.
    No sum is formed, so every input in the ball is accepted; only a
    result that rounds past the guard raises.  That it is orthogonal and
    equals the definition are verified properties (gyration_orthogonality,
    gyrocommutativity), never assumptions.
    """
    _check_same_dim(u, v)
    _check_same_dim(u, w)
    x, y, z = u.coords, v.coords, w.coords
    a, b = _gyration_terms(gamma(u), gamma(v), float(x.dot(y)), float(x.dot(z)), float(y.dot(z)))
    return GyroVector._owned(a * x + b * y + z)


def line_param(x: GyroVector, t: float) -> GyroVector:
    """Point at parameter t on the diameter through x != 0.

    Returns tanh(t * artanh(|x|)) * x / |x|.  The map t -> line_param(x, t)
    sends 0 to the origin, 1 to x, and parameter sums to ball sums, making
    the open diameter a subgroup isomorphic to (R, +).
    """
    try:
        t = float(t)
    except OverflowError:  # an int past the float range
        t = math.inf if t > 0 else -math.inf
    if not math.isfinite(t):
        raise BallDomainError(f"parameter must be finite, got {t!r}")
    if x.norm == 0.0:
        raise BallDomainError("line_param requires a nonzero direction")
    radius = math.tanh(t * math.atanh(x.norm))
    return GyroVector._owned((radius / x.norm) * x.coords)


def approx_eq(a: GyroVector, b: GyroVector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Componentwise |a_i - b_i| <= abs_tol + rel_tol * max(|a_i|, |b_i|)."""
    _check_same_dim(a, b)
    return bool(_close(a.coords, b.coords, tol).all())
