"""Self-maps of the ball that respect the addition, and their classifier.

In dimension >= 2 the only maps respecting the addition law are the
restrictions of orthogonal matrices and the zero map, so classification
reduces to probing a black-box map at a few points and corroborating the
candidate verdict on random samples.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .ball import (
    DEFAULT_TOL,
    BallDomainError,
    DimensionMismatchError,
    GyroError,
    GyroVector,
    ToleranceConfig,
    _check_same_dim,
    _guarded,
    _line_param_rows,
    _norm_rows,
    _Record,
    _sum_rows,
)
from .sampling import (
    BallSampler,
    PropertyReport,
    Rows,
    _blocks,
    _point_rows,
    derive_seed,
    scan_report,
    seeded_scan,
)


class UnsupportedDimensionError(GyroError):
    """Raised for dimensions where the classification theory is silent."""


class PreconditionError(GyroError):
    """A documented caller-side contract was violated."""


def decision_threshold(tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Residual size separating rounding noise from genuine violations.

    Set three orders of magnitude above abs_tol: accumulated rounding in a
    chain of additions stays well below it, while any structural failure of
    the addition law lands far above it.
    """
    return 1e3 * tol.abs_tol


class LinearMap:
    """Real square matrix acting on coordinate vectors, dimension >= 2."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
        if m.shape[0] < 2:
            raise UnsupportedDimensionError("linear maps are supported for dimension >= 2")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        self.entries = m

    @classmethod
    def _owned(cls, m: np.ndarray) -> "LinearMap":
        """Map of m, a finite square float64 array of dimension >= 2 that no
        caller writes to: neither checked nor copied."""
        out = cls.__new__(cls)
        m.flags.writeable = False
        out.entries = m
        return out

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def is_orthogonal(q, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Max-entry test of Q^T Q = I, for a non-empty square matrix."""
    m = q.entries if isinstance(q, LinearMap) else np.asarray(q, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
    return float(_deviation(m)) <= tol.abs_tol


def _deviation(m: np.ndarray) -> np.ndarray:
    # the largest |Q^T Q - I| entry of a matrix, or of each of a stack: a
    # stacked matmul runs the one-matrix product on every matrix
    return np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-random orthogonal matrices from Gaussian ones, one matrix or a
    stack: the Q factor of each with its columns scaled by the signs of
    diag(R) (Mezzadri, arXiv:math-ph/0609050), so both determinant signs
    occur.  A stacked QR equals the one-matrix call on every matrix."""
    q, r = np.linalg.qr(g)
    return q * np.copysign(1.0, np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random orthogonal matrix of a Gaussian draw (see _haar)."""
    return _haar(rng.standard_normal((dim, dim)))


def _matvec(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    # an image far outside the ball may overflow to inf, or to NaN from
    # inf - inf; the guard refuses both, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matvec(m, w)


def _linear_image(m: np.ndarray) -> Callable:
    """Row evaluation (see BallMap._image_rows) of the matrix m, or of a
    stack of matrices broadcast against the rows: (n, d, d) on (n, d)
    rows, one per row, or (k, 1, d, d) on a (k, m, d) stack, one per slice."""
    return lambda w, ok: _guarded(_matvec(m, w), ok)


class BallMap:
    """Black-box self-map of the ball, probed only by evaluation.

    Wraps a callable taking a GyroVector and returning coordinates (or a
    GyroVector).  Every evaluation validates that the output lies strictly
    inside the guarded ball and reports the offending input otherwise.
    """

    __slots__ = ("_func", "dim", "_rows", "_matrix")

    def __init__(self, func: Callable, dim: int):
        dim = operator.index(dim)
        if dim < 2:
            raise UnsupportedDimensionError("ball maps are supported for dimension >= 2")
        self._func = func
        self.dim = dim
        self._rows = self._matrix = None  # row evaluation and matrix of a matrix or zero map

    def __call__(self, u: GyroVector) -> GyroVector:
        if u.dim != self.dim:
            raise DimensionMismatchError(f"map expects dimension {self.dim}, got {u.dim}")
        out = self._func(u)
        if not isinstance(out, GyroVector):
            try:
                out = GyroVector(out)
            except BallDomainError as exc:
                raise BallDomainError(
                    f"map output is not a ball point at input {u.tolist()}: {exc}"
                ) from exc
        if out.dim != self.dim:
            raise DimensionMismatchError(
                f"map returned dimension {out.dim} at input {u.tolist()}, expected {self.dim}"
            )
        return out

    def _image_rows(self, w: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images of the rows of w that ok marks, and ok narrowed to the rows
        whose image is a ball point; every other image row holds zeros.

        Matrix and zero maps are evaluated on the whole array.  Any other
        map is called row by row, keeping its scalar contract, and never on
        a row that ok excludes; a GyroError fails that row only.
        """
        if self._rows is not None:
            return self._rows(w, ok)
        image, ok = np.zeros_like(w), ok.copy()
        for i in np.flatnonzero(ok):
            try:
                image[i] = self(GyroVector._owned(w[i].copy())).coords
            except GyroError:
                ok[i] = False
        return image, ok

    @classmethod
    def from_matrix(cls, m) -> "BallMap":
        """Restriction of a matrix to the ball; evaluation rejects outputs
        that escape it, so non-contractive matrices fail loudly."""
        lm = m if isinstance(m, LinearMap) else LinearMap(m)
        f = cls(lambda u: _matvec(lm.entries, u.coords), lm.dim)
        f._rows, f._matrix = _linear_image(lm.entries), lm.entries
        return f

    @classmethod
    def zero(cls, dim: int) -> "BallMap":
        f = cls(lambda u: np.zeros_like(u.coords), dim)
        f._rows = lambda w, ok: (np.zeros_like(w), ok)
        f._matrix = np.broadcast_to(0.0, (f.dim, f.dim))
        return f


def _law_rows(image: Callable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row form of endomorphism_residual for the map with row evaluation
    image (see BallMap._image_rows): inf where u (+) v, an image or
    f(u) (+) f(v) is not a ball point, and the map is not evaluated on a
    row once one of them has failed."""
    w, ok = _sum_rows(u, v)
    fw, ok = image(w, ok)
    fu, ok = image(u, ok)
    fv, ok = image(v, ok)
    rhs, ok = _sum_rows(fu, fv, ok)
    return np.where(ok, _norm_rows(fw - rhs), math.inf)


def _image_norms(image: Callable, w: np.ndarray, center, ok=None) -> np.ndarray:
    # |f(w) - center| per row of w that ok marks (all by default), inf where
    # f(w) is not a ball point or the row is not marked
    out, ok = image(w, np.ones(w.shape[:-1], dtype=bool) if ok is None else ok)
    return np.where(ok, _norm_rows(out - center), math.inf)


def endomorphism_residual(f: BallMap, u: GyroVector, v: GyroVector) -> float:
    """Euclidean norm of f(u (+) v) - (f(u) (+) f(v)), or inf when a sum or
    an image leaves the ball: the one-row call of the scans' kernel."""
    _check_same_dim(u, v)
    if u.dim != f.dim:
        raise DimensionMismatchError(f"map expects dimension {f.dim}, got {u.dim}")
    return float(_law_rows(f._image_rows, u.coords[None], v.coords[None])[0])


def check_endomorphism(
    f: BallMap, n_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> PropertyReport:
    """Check f(u (+) v) = f(u) (+) f(v) on seeded random pairs, u drawn first.

    Passes when every residual stays at or below the decision threshold; a
    pair whose output leaves the ball scores inf.
    """
    pairs = _blocks(_point_rows("u", "v"), [BallSampler(seed, f.dim, tol.sample_rmax)], n_samples)
    return scan_report(
        "endomorphism", pairs,
        lambda pairs: _law_rows(f._image_rows, pairs["u"], pairs["v"]), decision_threshold(tol),
        seed,
    )


class MapClassification(_Record):
    """Classifier verdict plus its payload.

    verdict is one of the class constants; `matrix` accompanies ORTHOGONAL,
    the witness pair and residual accompany NOT_ENDOMORPHISM.
    """

    ORTHOGONAL = "orthogonal"
    ZERO = "zero"
    NOT_ENDOMORPHISM = "not_endomorphism"

    __slots__ = _fields = ("verdict", "matrix", "witness_u", "witness_v", "residual")

    def __init__(
        self,
        verdict: str,
        matrix: LinearMap | None = None,
        witness_u: GyroVector | None = None,
        witness_v: GyroVector | None = None,
        residual: float | None = None,
    ) -> None:
        self._set(verdict, matrix, witness_u, witness_v, residual)

    @classmethod
    def orthogonal(cls, matrix: LinearMap) -> "MapClassification":
        return cls(verdict=cls.ORTHOGONAL, matrix=matrix)

    @classmethod
    def zero(cls) -> "MapClassification":
        return cls(verdict=cls.ZERO)

    @classmethod
    def not_endomorphism(
        cls, u: GyroVector, v: GyroVector, residual: float
    ) -> "MapClassification":
        return cls(verdict=cls.NOT_ENDOMORPHISM, witness_u=u, witness_v=v, residual=residual)

    def to_json_dict(self) -> dict:
        if self.verdict == self.ORTHOGONAL:
            return {"verdict": self.verdict, "matrix": self.matrix.entries.tolist()}
        if self.verdict == self.NOT_ENDOMORPHISM:
            return {
                "verdict": self.verdict,
                "witness_u": self.witness_u.tolist(),
                "witness_v": self.witness_v.tolist(),
                "residual": self.residual,
            }
        return {"verdict": self.verdict}


def classify_endomorphism(
    f: BallMap, n_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> MapClassification:
    """Decide whether f is an orthogonal restriction, the zero map, or
    neither, from evaluations alone.

    Scans the defining equation on random pairs first; a failure, an
    output leaving the ball included, yields NOT_ENDOMORPHISM with the
    worst pair before f is probed.  Otherwise f is probed at half the
    basis vectors to form a candidate matrix (zero when every probe
    vanishes) and corroborated by sampled agreement with it.  A failed
    corroboration yields NOT_ENDOMORPHISM with the same worst pair; a
    probe p whose image leaves the ball yields it with witnesses p, p and
    residual inf, since f(p) (+) f(p) cannot be evaluated.  Each scan
    draws its points as check_endomorphism does, from child seeds of its
    own: this is the one-map call of the stacked _classify_stack.

    The verdict is a decision at the configured sampling budget: a map
    agreeing with an orthogonal restriction on every sampled point is
    classified by that evidence, so a pathological map built to differ
    only off-sample (nothing continuous does) can still be reported as
    orthogonal or zero.
    """
    return _classify_stack([f], seed, n_samples, tol)[0]


def _stack_image(maps: list) -> Callable:
    """Row evaluation (see BallMap._image_rows) of k maps on a (k, m, d)
    stack, map j on slice j, with a (k, m) ok: several matrix or zero maps
    by one stacked matvec, else each map by its own rows (so a lone zero
    map is no d x d product) on its own slice."""
    if len(maps) > 1 and all(f._matrix is not None for f in maps):
        return _linear_image(np.stack([f._matrix for f in maps])[:, None])
    if len(maps) == 1:  # its one slice, with no stack built per call
        return lambda w, ok: tuple(x[None] for x in maps[0]._image_rows(w[0], ok[0]))
    return lambda w, ok: tuple(map(np.stack, zip(*map(BallMap._image_rows, maps, w, ok))))


def _classify_stack(maps: list, seed: int, n_samples: int, tol: ToleranceConfig) -> list:
    """classify_endomorphism of k maps of one dimension at seed, as one stack.

    Every map runs the phases in turn: law scan, probes, then agreement
    scan.  Each scan draws its _blocks from one sampler, of a child seed of
    seed: a block of m inputs for k maps is one _point_rows draw of k m
    rows, each column reshaped to a (k, m, d) stack, so that row j m + i
    is map j's input i.  The row kernels score the stack as one (k, m)
    array, and one stacked seeded_scan reduces it, map j's row against its
    own cutoff.  The agreement scan runs over the maps still pending,
    labelled by the first of them.  The probes run one basis vector at a
    time, as a (k, 1, d) stack, so no map is evaluated past its first
    escaping probe, and are judged for all maps at once.
    """
    k, dim, threshold = len(maps), maps[0].dim, decision_threshold(tol)

    def scan(js: list, stream: str, cutoffs, keys: tuple, residual: Callable) -> tuple:
        # the stacked seeded_scan of the maps js, map j on slice j of each block
        image, rows = _stack_image([maps[j] for j in js]), _point_rows(*keys)

        def draw(s: BallSampler, m: int, _) -> Rows:
            return Rows({key: v.reshape(-1, m, dim) for key, v in rows(s, len(js) * m).items()})

        sampler = BallSampler(derive_seed(seed, stream), dim, tol.sample_rmax)
        blocks = _blocks(draw, [sampler], n_samples)
        return seeded_scan(blocks, lambda block: residual(image, *block.values()), cutoffs)

    law, worst, (_, first), _ = scan(range(k), "endo", threshold, ("u", "v"), _law_rows)

    def refuted(j: int) -> MapClassification:
        u, v = (GyroVector._owned(worst[key][j, 0].copy()) for key in ("u", "v"))
        return MapClassification.not_endomorphism(u, v, law[j])

    out = [None if r is None else refuted(j) for j, r in enumerate(first)]
    live = [j for j in range(k) if out[j] is None]
    if not live:
        return out
    half, probes = 0.5 * np.eye(dim), np.empty((len(live), dim, dim))
    image, ok, passed = _stack_image([maps[j] for j in live]), np.ones((len(live), 1), bool), 0
    for i in range(dim):
        probes[:, i : i + 1], ok = image(np.tile(half[i], (len(live), 1, 1)), ok)
        passed += ok[:, 0]  # each map's probes up to its first escaping one
    candidates = np.ascontiguousarray(np.swapaxes(2.0 * probes, 1, 2))
    zero = (_norm_rows(probes) <= tol.abs_tol).all(axis=1).tolist()
    orthogonal = (_deviation(candidates) <= tol.abs_tol).tolist()
    pending = []  # (map, verdict, candidate, agreement stream, cutoff)
    for p, j in enumerate(live):
        if passed[p] < dim:
            # f(p) (+) f(p) cannot be evaluated: the law scan's escape rule
            point = GyroVector(half[passed[p]])
            out[j] = MapClassification.not_endomorphism(point, point, math.inf)
        elif zero[p]:
            pending.append((j, MapClassification.zero(), np.zeros((dim, dim)), "zero", threshold))
        elif orthogonal[p]:
            verdict = MapClassification.orthogonal(LinearMap._owned(candidates[p]))
            pending.append((j, verdict, candidates[p], "agree", 10.0 * tol.abs_tol))
        else:
            out[j] = refuted(j)
    if not pending:  # nothing to corroborate, so nothing is drawn
        return out
    js, verdicts, centers, streams, cutoffs = zip(*pending)
    # a zero verdict's centre is the zero matrix, whose product is 0: a stack
    # of zero verdicts alone forms no d x d product per row
    if all(verdict.matrix is None for verdict in verdicts):
        centers = None
    else:
        centers = np.array(centers)[:, None]
    _, _, (_, first), _ = scan(js, streams[0], cutoffs, ("w",), lambda image, w: _image_norms(
        image, w, 0.0 if centers is None else np.matvec(centers, w)
    ))
    for j, verdict, r in zip(js, verdicts, first):
        out[j] = verdict if r is None else refuted(j)
    return out


def zero_propagation_check(
    f: BallMap,
    x: GyroVector,
    n_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PropertyReport:
    """Verify the vanishing pattern a single zero forces on a map that
    respects the addition.

    Given f(x) = 0 with x != 0, such a map must vanish on the whole
    diameter through x, and must be constant both on each left translate
    a (+) L of that diameter (a chord of the ball) and on each right
    translate L (+) b (a half-ellipse).  The check samples all three
    families and reports, per evaluation of f, its distance from the
    forced value as the residual; samples_run counts these evaluations.
    An evaluation that leaves the ball scores inf, and so does every
    point of a translate whose base point's image leaves it.

    Preconditions enforced here: x != 0 and |f(x)| at most the decision
    threshold.  That f respects the addition on sampled pairs is the
    caller's contract (see check_endomorphism); it is deliberately not
    re-verified, so maps violating it simply fail with a large deviation.

    Diameter parameters mix every rational p/q with p, q <= 20 (both
    signs) and 100 uniform draws, all filtered to |t| <= t_max where
    t_max scales the diameter parametrization to the sampling radius.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if x.dim != f.dim:
        raise DimensionMismatchError(f"map expects dimension {f.dim}, got {x.dim}")
    if x.norm == 0.0:
        raise PreconditionError("x must be a nonzero ball point")
    fx = f(x)
    threshold = decision_threshold(tol)
    if fx.norm > threshold:
        raise PreconditionError(
            f"f must vanish at x within {threshold:g}; |f(x)| = {fx.norm!r}"
        )

    t_max = math.atanh(tol.sample_rmax) / math.atanh(x.norm)
    rationals = sorted(
        {
            sign * p / q
            for p in range(1, 21)
            for q in range(1, 21)
            for sign in (1.0, -1.0)
            if p / q <= t_max
        }
    )
    rng = np.random.default_rng(derive_seed(seed, "zero_prop"))
    params = [0.0] + rationals + list(rng.uniform(-t_max, t_max, size=100))
    n_translates = max(1, n_samples // 20)

    def block(part: str, t: np.ndarray, base: list | None) -> Rows:
        # one row per evaluation of f; the base is held as drawn, not as a point
        bases = np.empty(len(t), dtype=object)
        bases.fill(base)
        return Rows(part=np.full(len(t), part), t=t, base=bases)

    def evaluations():
        # one block: the diameter has at most 1 + 2 * 255 + 100 = 611 parameters
        # (255 distinct p/q with p, q <= 20), whatever n_samples is
        yield block("diameter", np.array(params), None)
        point_sampler = BallSampler(derive_seed(seed, "zero_prop_base"), x.dim, tol.sample_rmax)
        for _ in range(n_translates):
            for part in ("chord", "half_ellipse"):
                base = point_sampler.sample().tolist()
                yield block(part, rng.uniform(-t_max, t_max, size=20), base)

    def residual(rows: Rows) -> np.ndarray:
        # the distance of f's values from the ones the zero at x forces there
        t = rows["t"]
        p, ok = _line_param_rows(np.tile(x.coords, (len(t), 1)), t)
        base = rows["base"][0]
        if base is None:
            return _image_norms(f._image_rows, p, 0.0, ok)
        base = GyroVector(base)
        try:
            forced = f(base).coords  # once per translate, before any point of it
        except GyroError:
            return np.full(len(t), math.inf)  # no point of the translate can be compared
        bases = np.tile(base.coords, (len(t), 1))
        w, ok = _sum_rows(bases, p, ok) if rows["part"][0] == "chord" else _sum_rows(p, bases, ok)
        return _image_norms(f._image_rows, w, forced, ok)

    return scan_report("zero_propagation", evaluations(), residual, threshold, seed)
