"""Relativistic velocity addition on the open unit ball of R^n.

The carrier is the set of vectors of Euclidean norm < 1 (speed of light
normalized to 1).  The addition law is noncommutative and nonassociative;
its failure of associativity is measured by the gyration operator,
evaluated in Ungar's closed form, which the verifier module checks is
always a rotation.  Everything here is pure and dimension-agnostic.
json_ready, the one JSON number formatter, lives here too, so that a
command printing JSON loads no other layer to format it.

A point of fewer than _FLOAT_DIM coordinates holds them as Python
floats, and the scalar functions run on those floats and load no numpy;
a longer point holds, and they run on, the float64 array of them.  Both
pass a formula's helper what the row kernels pass it, and every inner product,
on floats or on arrays, is _dot's: one summation order, so the scalar
paths and the kernels, on every machine, round alike.
"""

from __future__ import annotations

import math
import operator
import sys

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-9
DEFAULT_BOUNDARY_MARGIN = 1e-9
DEFAULT_SAMPLE_RMAX = 0.999

# scalar functions run on the Python floats of points of fewer coordinates,
# on the array of longer ones: past it a float loop costs more than numpy's
# per-call overhead
_FLOAT_DIM = 16
# _dot sums arrays of fewer columns column by column, across the rows at
# once, and longer ones row by row; both sum left to right, so they round alike
_COLUMN_DIM = 16
# products a longer _dot holds at once
_DOT_BLOCK = 1 << 15
# below this 1 - |x|^2, line_param takes atanh(|x|) from 1 - |x|^2 summed
# exactly (_slack): atanh of the rounded norm would lose about
# d eps / (1 - |x|^2) of its digits to the rounding of |x|^2 and of |x|
_SLACK_CUTOFF = 2.0**-26


class GyroError(ValueError):
    """Base class for domain violations raised by this package."""


class BallDomainError(GyroError):
    """A vector is not strictly inside the guarded unit ball."""


class DimensionMismatchError(GyroError):
    """Operands live in different dimensions."""


class _Record:
    """Base of the package's frozen value types, a frozen dataclass's
    behaviour without loading dataclasses: a subclass names its fields in
    _fields and __slots__ and sets them once in its __init__, by _set;
    assignment and deletion then raise AttributeError.
    Records of one class compare and hash by their fields' tuple, print as
    Name(field=value, ...), and pickle and copy through __init__, whose
    checks rerun."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def _set(self, *values) -> None:
        """Set the fields, in order, to values: once, from __init__."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _positive_real(field: str, value) -> float:
    """value as a float, if a finite positive real but a bool; else the
    ToleranceConfig error.  A float or an int is read without numbers."""
    if type(value) is float or type(value) is int:
        real = True
    else:
        import numbers

        real = isinstance(value, numbers.Real) and not isinstance(value, bool)  # True is no 1
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int or a fraction past the float range
        number = math.inf
    if not (math.isfinite(number) and number > 0.0):
        raise ValueError(f"{field} must be a finite positive number, got {value!r}")
    return number


class ToleranceConfig(_Record):
    """Numeric policy shared across the package.

    abs_tol and rel_tol drive approximate comparisons and sample_rmax caps
    the norm of randomly drawn vectors, which must lie inside the guard.
    Each takes a finite positive real but a bool, stored as a float.
    The guard itself is fixed: construction, the verifier's closure cutoff
    and its evaluability bound on composed draws all read
    DEFAULT_BOUNDARY_MARGIN.
    """

    __slots__ = _fields = ("abs_tol", "rel_tol", "sample_rmax")

    def __init__(
        self,
        abs_tol: float = DEFAULT_ABS_TOL,
        rel_tol: float = DEFAULT_REL_TOL,
        sample_rmax: float = DEFAULT_SAMPLE_RMAX,
    ) -> None:
        self._set(*map(_positive_real, self._fields, (abs_tol, rel_tol, sample_rmax)))
        if not self.sample_rmax < 1.0 - DEFAULT_BOUNDARY_MARGIN:
            guard = f"1 - {DEFAULT_BOUNDARY_MARGIN:g}"
            raise ValueError(f"sample_rmax must be < {guard}, got {self.sample_rmax!r}")


DEFAULT_TOL = ToleranceConfig()


def _dot(x, y):
    """x . y, the rounded products summed left to right from +0.0, as the
    reference BLAS ddot sums: of two tuples of floats or two 1-D arrays a
    float, of arrays over the last axis.  A sum of zeros is +0.0.  Floats
    run in a loop, not sum(), which compensates from Python 3.12.  Rows of
    fewer than _COLUMN_DIM columns are summed column by column, across the
    rows at once, from the first column's products plus 0.0: p + 0.0 is
    0.0 + p for every float, -0.0 included, and needs no shape of its own.
    A column at a time, as the rows are often a strided view, whose
    products numpy would form a short row at a time.  One row, or longer
    rows, are summed by np.add.accumulate."""
    if type(x) is tuple:
        total = 0.0
        for a, b in zip(x, y):
            total += a * b
        return total
    np = sys.modules["numpy"]  # loaded, as x is an array: a lookup, not an import

    if x.ndim == 1:
        return float(np.add.accumulate(x * y)[-1]) + 0.0
    d = x.shape[-1]
    if d < _COLUMN_DIM:
        if not d:  # rows of no columns: a sum of no products
            return np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1])
        total = x[..., 0] * y[..., 0] + 0.0
        for i in range(1, d):
            total += x[..., i] * y[..., i]
        return total
    # row blocks of about _DOT_BLOCK products, so that the one temporary
    # stays in cache and small, however many rows there are
    rows = np.broadcast_shapes(x.shape, y.shape)[:-1]
    x, y = (np.broadcast_to(a, rows + (d,)).reshape(-1, d) for a in (x, y))
    total, step = np.empty(len(x)), max(1, _DOT_BLOCK // d)
    products = np.empty((min(step, len(x)), d))
    for start in range(0, len(x), step):
        stop = min(start + step, len(x))
        block = np.multiply(x[start:stop], y[start:stop], out=products[: stop - start])
        total[start:stop] = np.add.accumulate(block, axis=-1, out=block)[:, -1]
    total += 0.0
    return total.reshape(rows)


def _slack(squares) -> float:
    """1 - x . x from the rounded squares of x's coordinates, correctly
    rounded: math.fsum adds them exactly and rounds once, so the floats and
    the arrays of one point give the same bits.  Only the rounding of the
    squares themselves, at most eps/2 of x . x in all, is left."""
    return -math.fsum([-1.0, *squares])


def _rapidity(norm: float, slack: float) -> float:
    """atanh(norm), of a point whose 1 - norm^2 is slack: below _SLACK_CUTOFF,
    by _log_rapidity, which reads 1 - norm from slack alone."""
    if slack >= _SLACK_CUTOFF:
        return math.atanh(norm)
    return _log_rapidity(math.log1p, math.log, norm, slack)


def _log_rapidity(log1p, log, norm, slack):
    """atanh(norm) as log1p(norm) - log(slack) / 2, slack being 1 - norm^2:
    of floats by math's log1p and log, or of arrays by the same two
    functions mapped over them."""
    return log1p(norm) - 0.5 * log(slack)


def _outside_ball(norm: float) -> BallDomainError:
    return BallDomainError(
        f"|v| = {norm!r} is not strictly inside the unit ball "
        f"(boundary margin {DEFAULT_BOUNDARY_MARGIN:g})"
    )


# the coordinate types read without numpy; any other input is numpy's to parse
_PLAIN = {float, int, bool}
# _quiet's context, built on first use, as ball loads without numpy
_QUIET = None


def _quiet(f, x, y, *rest):
    """f(x, y, *rest), on arrays, overflowing to inf and making NaN without
    numpy's warning: for sums, products and quotients whose inf or NaN a
    guard or a mask refuses.  The package's one way to silence numpy: it
    runs in a copy of a context whose numpy error state is the default but
    for overflow and invalid values, the same as np.errstate(over="ignore",
    invalid="ignore") unless the caller changed the defaults, at a tenth of
    its cost.  The caller's own error state neither reaches f nor changes.
    A copy per call, as one context cannot be entered by two threads at once.
    Two arguments are passed listed: a starred call costs 0.2 us more, a
    tenth of a 64-coordinate point's construction."""
    global _QUIET
    if _QUIET is None:
        import contextvars

        import numpy as np

        quiet = contextvars.Context()
        quiet.run(np.seterr, over="ignore", invalid="ignore")
        _QUIET = quiet
    context = _QUIET.copy()
    return context.run(f, x, y, *rest) if rest else context.run(f, x, y)


class GyroVector:
    """A point strictly inside the unit ball.

    Construction is strict: anything with norm >= 1 - DEFAULT_BOUNDARY_MARGIN
    is rejected rather than clamped, so no operation can silently leave the
    domain.  The squared norm and norm are computed once and cached since
    every operation needs them.

    What a coordinate is, np.array(coords, dtype=float) decides; a list or
    tuple of floats, ints and bools is read by float() alone, which agrees.
    A point of fewer than _FLOAT_DIM coordinates holds them as a tuple of
    Python floats, and coords, a read-only float64 array of them, is built
    on first use; a longer point holds that array.  The scalar functions
    run on what the point holds (_x).

    A point is accepted by one ordered dot of what it will hold, the norm2
    it keeps.  math.hypot, which cannot overflow where a square can, runs
    only on a refused point, to word the refusal.
    """

    __slots__ = ("_x", "_array", "dim", "norm2", "norm")

    def __init__(self, coords):
        if type(coords) in (list, tuple) and set(map(type, coords)) <= _PLAIN:
            try:
                x = tuple(map(float, coords))
            except OverflowError as exc:  # an int past the float range
                raise BallDomainError(f"coords are not real numbers: {exc}") from exc
            if len(x) >= _FLOAT_DIM:
                import numpy as np

                x = np.array(x)
        else:
            import numpy as np

            try:
                array = np.asarray(coords, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise BallDomainError(f"coords are not real numbers: {exc}") from exc
            if array.ndim != 1:
                x = ()
            elif len(array) < _FLOAT_DIM:
                x = tuple(array.tolist())
            else:
                x = array.copy()  # a fresh array, which no caller can write to
        if not len(x):
            raise BallDomainError("coords must be a non-empty 1-D sequence")
        try:
            self._guard(x, _dot(x, x) if type(x) is tuple else _quiet(_dot, x, x))
        except BallDomainError:
            # a point too long to square has norm2 inf: hypot, which cannot
            # overflow, words its refusal; below 1e150 norm2 is finite
            floats = x if type(x) is tuple else x.tolist()
            length = math.hypot(*floats)
            if length < 1e150:
                raise
            if not all(map(math.isfinite, floats)):
                raise BallDomainError("coords must be finite") from None
            raise _outside_ball(length) from None

    @classmethod
    def _owned(cls, coords) -> "GyroVector":
        """Point with coords, a tuple of floats or a fresh 1-D float64 array
        that no caller holds: guarded like outside input, but neither parsed
        nor copied.  Every derived point is built here; an array of fewer
        than _FLOAT_DIM coordinates is held as its tuple of floats."""
        out = cls.__new__(cls)
        if type(coords) is not tuple and len(coords) < _FLOAT_DIM:
            coords = tuple(coords.tolist())
        out._guard(coords, _dot(coords, coords))
        return out

    def _guard(self, x, norm2: float) -> None:
        # x as the point holds it, norm2 its _dot(x, x)
        # norm2 finite implies every component is finite, NaN/inf both fail
        if not math.isfinite(norm2):
            raise BallDomainError("coords must be finite")
        norm = math.sqrt(norm2)
        if norm >= 1.0 - DEFAULT_BOUNDARY_MARGIN:
            raise _outside_ball(norm)
        if type(x) is tuple:
            self._array = None
        else:
            x.setflags(write=False)
            self._array = x
        self._x, self.dim = x, len(x)
        self.norm2 = norm2
        self.norm = norm

    @property
    def coords(self):
        """The coordinates as a read-only float64 array."""
        if self._array is None:
            import numpy as np

            array = np.array(self._x)
            array.setflags(write=False)
            self._array = array
        return self._array

    @classmethod
    def zero(cls, dim: int) -> "GyroVector":
        return cls((0.0,) * operator.index(dim))

    def tolist(self) -> list[float]:
        return list(self._x) if type(self._x) is tuple else self._x.tolist()

    def __eq__(self, other):
        # equal coordinates, 0.0 equal to -0.0; one dim means one form
        if other.__class__ is not self.__class__:
            return NotImplemented
        x, y = self._x, other._x
        return self.dim == other.dim and (x == y if type(x) is tuple else bool((x == y).all()))

    def __hash__(self) -> int:
        # Python hashes -0.0 as 0.0, so equal points hash alike unfolded
        return hash(self._x if type(self._x) is tuple else tuple(self._x.tolist()))

    def __repr__(self) -> str:
        return f"GyroVector({self.tolist()!r})"

    def __reduce__(self) -> tuple:
        # a copy or an unpickled point is built again through the guard: a
        # slot copy would carry the coords array without its read-only flag
        return type(self), (self._x,)


def _check_same_dim(u: GyroVector, v: GyroVector) -> None:
    if u.dim != v.dim:
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
    x, y = u._x, v._x
    duv, s = _dot(x, y), math.sqrt(1.0 - u.norm2)
    if type(x) is tuple:
        return GyroVector._owned(tuple([_add_terms(a, b, duv, s) for a, b in zip(x, y)]))
    return GyroVector._owned(_add_terms(x, y, duv, s))


def _add_terms(u, v, duv, s):
    """einstein_add's textbook form from u.v and s = sqrt(1 - |u|^2), of
    floats or term by term in one buffer: IEEE addition is commutative, so
    each step rounds as the one-line form."""
    out = s * v
    out += u
    out += (duv / (1.0 + s)) * u
    out /= 1.0 + duv
    return out


def _close(maximum, a, b, tol: ToleranceConfig):
    """approx_eq of coordinates, compared by maximum: max of two floats,
    np.maximum componentwise of arrays."""
    return abs(a - b) <= tol.abs_tol + tol.rel_tol * maximum(abs(a), abs(b))


# Row kernels.  Each takes points as the rows of a (..., d) array, such as
# an (n, d) block or a (k, m, d) stack, and passes a formula's helper the
# columns where its scalar twin passes floats, so the two agree bit for bit:
# _dot sums in one order on both, and np.sqrt is correctly rounded like
# math.sqrt.  A guarded kernel passes on ok: a row where the scalar call
# raises GyroError leaves ok and is zeroed.  _checked_rows and
# _line_param_rows take (n, d) rows alone.


def _each(f, column):
    """f of each element of column, as Python floats, in an array of
    column's shape: for math's transcendentals, which numpy's differ from in
    the last bit.  f is a libm function, which map calls from C with no
    Python frame per element."""
    import numpy as np

    return np.fromiter(map(f, column.ravel().tolist()), float, column.size).reshape(column.shape)


def _guard_rows(w) -> tuple:
    """Squared norms of the rows of w, and which rows the GyroVector guard
    accepts: finite, with norm below 1 - DEFAULT_BOUNDARY_MARGIN.  A row
    too long to square has norm2 inf and is refused without a warning."""
    import numpy as np

    norm2 = _quiet(_dot, w, w)
    return norm2, np.sqrt(norm2) < 1.0 - DEFAULT_BOUNDARY_MARGIN


def _checked_rows(w):
    """w, once the guard accepts every row; otherwise the constructor's
    error for the first row it refuses."""
    import numpy as np

    ok = _guard_rows(w)[1]
    if not ok.all():
        GyroVector._owned(w[np.argmin(ok)].copy())
    return w


def _add_rows(u, v):
    """einstein_add of the rows of u and v, unguarded."""
    import numpy as np

    return _add_terms(u, v, _dot(u, v)[..., None], np.sqrt(1.0 - _dot(u, u))[..., None])


def _gamma_rows(u):
    """gamma of each row of u."""
    import numpy as np

    return 1.0 / np.sqrt(1.0 - _dot(u, u))


def _norm_rows(x):
    """Euclidean norm of each row of x: sqrt(x . x) row by row."""
    import numpy as np

    return np.sqrt(_dot(x, x))


def _guarded(w, ok) -> tuple:
    """w with every row outside ok or refused by the guard zeroed, so that
    later arithmetic on it stays finite and warning-free; and ok narrowed."""
    ok = ok & _guard_rows(w)[1]
    w[~ok] = 0.0
    return w, ok


def _sum_rows(u, v, ok=True) -> tuple:
    """einstein_add of the rows of u and v, guarded (see the row kernels)."""
    return _guarded(_add_rows(u, v), ok)


def _anchored_sum_rows(u, v, ok=True) -> tuple:
    """_sum_rows, whose first formed row einstein_add also sums, refused unless
    the two agree: the one path by which a wrapper set on the public
    einstein_add (perfbench's --corrupt) reaches a verifier property."""
    import numpy as np

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


def _gyrated(a, b, u, v, w):
    """w + (A u + B v) / D from _gyration_terms' (A / D, B / D)."""
    return a * u + b * v + w


def _gyration_rows(u, v, w, ok=True) -> tuple:
    """gyration of the rows of u, v and w, guarded."""
    a, b = _gyration_terms(_gamma_rows(u), _gamma_rows(v), _dot(u, v), _dot(u, w), _dot(v, w))
    return _guarded(_gyrated(a[..., None], b[..., None], u, v, w), ok)


def _line_param_rows(x, t, ok=True) -> tuple:
    """line_param of each row of x at its row's t, guarded; a zero row is refused.

    t holds one parameter per row, or k per row as a (k, n) array, whose
    points come as (k, n, d) from one rapidity per row: each point is the
    one-parameter call's, and a row leaves ok when the guard refuses any of
    them.  As in line_param, the rows whose 1 - |x|^2 is, summed exactly,
    at least _SLACK_CUTOFF take math.atanh of their norm, and only the
    others _log_rapidity, each by libm mapped over the rows."""
    from functools import partial

    import numpy as np

    norm2 = _dot(x, x)
    norm, slack = np.sqrt(norm2), 1.0 - norm2
    ok = ok & (norm > 0.0)
    near = slack < _SLACK_CUTOFF
    if near.any():
        rows = x[near]
        slack[near] = list(map(_slack, (rows * rows).tolist()))
    far = slack >= _SLACK_CUTOFF  # the exact slack decides, as in _rapidity
    near = ~far
    rapidity = np.empty_like(norm)
    rapidity[far] = _each(math.atanh, norm[far])
    rapidity[near] = _log_rapidity(
        partial(_each, math.log1p), partial(_each, math.log), norm[near], slack[near]
    )
    radius = _each(math.tanh, t * rapidity)
    scale = np.divide(radius, norm, out=np.zeros_like(radius), where=ok)
    points, accepted = _guarded(scale[..., None] * x, ok)
    return points, accepted if t.ndim == 1 else accepted.all(axis=0)


def gamma(u: GyroVector) -> float:
    """Lorentz factor 1 / sqrt(1 - |u|^2).

    Strict construction keeps |u| < 1 - DEFAULT_BOUNDARY_MARGIN, so the
    result is finite (at most ~22360).
    """
    return 1.0 / math.sqrt(1.0 - u.norm2)


def neg(u: GyroVector) -> GyroVector:
    """Additive inverse; plain componentwise negation.

    Negation is exact, so -u keeps the norms of u, bit for bit, and with
    them its place inside the guarded ball.
    """
    x = u._x
    return GyroVector._owned(tuple(map(operator.neg, x)) if type(x) is tuple else -x)


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
    x, y, z = u._x, v._x, w._x
    a, b = _gyration_terms(gamma(u), gamma(v), _dot(x, y), _dot(x, z), _dot(y, z))
    if type(x) is tuple:
        return GyroVector._owned(tuple([_gyrated(a, b, p, q, r) for p, q, r in zip(x, y, z)]))
    return GyroVector._owned(_gyrated(a, b, x, y, z))


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
    c = x._x
    slack = 1.0 - x.norm2
    if slack < _SLACK_CUTOFF:
        slack = _slack(map(operator.mul, c, c) if type(c) is tuple else (c * c).tolist())
    scale = math.tanh(t * _rapidity(x.norm, slack)) / x.norm
    return GyroVector._owned(tuple([scale * a for a in c]) if type(c) is tuple else scale * c)


def approx_eq(a: GyroVector, b: GyroVector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Componentwise |a_i - b_i| <= abs_tol + rel_tol * max(|a_i|, |b_i|)."""
    _check_same_dim(a, b)
    x, y = a._x, b._x
    if type(x) is tuple:
        return all(_close(max, p, q, tol) for p, q in zip(x, y))
    import numpy as np

    return bool(_close(np.maximum, x, y, tol).all())


def json_ready(value: object) -> object:
    """Copy of value that json.dumps accepts, with numbers fixed for output.

    Vectors and arrays become lists, objects with to_json_dict and records
    become dicts, and numpy scalars Python scalars.  Floats keep 15 significant digits
    with negative zero folded to 0.0; JSON has no inf/nan, so non-finite
    floats are spelled out by repr rather than crash the report.  A numpy
    value can only exist once numpy is loaded, so it is looked up, not loaded.
    """
    if type(value) is not float:  # a float, the commonest leaf, needs no lookup
        np = sys.modules.get("numpy")
        if isinstance(value, GyroVector) or np and isinstance(value, np.ndarray):
            value = value.tolist()
        elif hasattr(value, "to_json_dict"):
            value = value.to_json_dict()
        elif np and isinstance(value, np.void):
            value = dict(zip(value.dtype.names, value.item()))
        elif np and isinstance(value, np.generic):
            value = value.item()
    if isinstance(value, float):
        return float(f"{value:.15g}") + 0.0 if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value
