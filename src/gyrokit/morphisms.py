"""Self-maps of the ball that respect the addition, and their classifier.

In dimension >= 2 the only maps respecting the addition law are the
restrictions of orthogonal matrices and the zero map, so classification
reduces to probing a black-box map at a few points and corroborating the
candidate verdict on random samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ball import (
    DEFAULT_TOL,
    BallDomainError,
    DimensionMismatchError,
    GyroError,
    GyroVector,
    ToleranceConfig,
    einstein_add,
    line_param,
)
from .sampling import BallSampler, PropertyReport, derive_seed, seeded_scan


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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(w, dtype=float)


def is_orthogonal(q, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Max-entry test of Q^T Q = I."""
    m = q.entries if isinstance(q, LinearMap) else np.asarray(q, dtype=float)
    deviation = m.T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(deviation))) <= tol.abs_tol


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random orthogonal matrix: the Q factor of a Gaussian matrix with
    its columns scaled by the signs of diag(R) (Mezzadri, arXiv:math-ph/0609050),
    so both determinant signs occur."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.copysign(1.0, np.diag(r))


class BallMap:
    """Black-box self-map of the ball, probed only by evaluation.

    Wraps a callable taking a GyroVector and returning coordinates (or a
    GyroVector).  Every evaluation validates that the output lies strictly
    inside the guarded ball and reports the offending input otherwise.
    """

    __slots__ = ("_func", "dim")

    def __init__(self, func: Callable, dim: int):
        dim = int(dim)
        if dim < 2:
            raise UnsupportedDimensionError("ball maps are supported for dimension >= 2")
        self._func = func
        self.dim = dim

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

    @classmethod
    def from_matrix(cls, m) -> "BallMap":
        """Restriction of a matrix to the ball; evaluation rejects outputs
        that escape it, so non-contractive matrices fail loudly."""
        lm = m if isinstance(m, LinearMap) else LinearMap(m)
        return cls(lambda u: lm.entries @ u.coords, lm.dim)

    @classmethod
    def zero(cls, dim: int) -> "BallMap":
        z = np.zeros(int(dim))
        return cls(lambda u: z, dim)


def endomorphism_residual(f: BallMap, u: GyroVector, v: GyroVector) -> float:
    """Euclidean norm of f(u (+) v) - (f(u) (+) f(v))."""
    lhs = f(einstein_add(u, v))
    rhs = einstein_add(f(u), f(v))
    return float(np.linalg.norm(lhs.coords - rhs.coords))


def _draw_pair(sampler: BallSampler) -> tuple[GyroVector, GyroVector]:
    return sampler.sample(), sampler.sample()


def _law_scan(f: BallMap, n_samples: int, seed: int, tol: ToleranceConfig) -> tuple:
    """Seeded scan of f(u (+) v) = f(u) (+) f(v) over random pairs."""
    return seeded_scan(
        BallSampler(seed, f.dim, tol.sample_rmax),
        n_samples,
        _draw_pair,
        lambda pair: endomorphism_residual(f, *pair),
        decision_threshold(tol),
    )


def check_endomorphism(
    f: BallMap, n_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> PropertyReport:
    """Check f(u (+) v) = f(u) (+) f(v) on seeded random pairs.

    Passes when every residual stays at or below the decision threshold.
    """
    max_residual, _, first = _law_scan(f, n_samples, seed, tol)
    if first is not None:
        (u, v), r = first
        first = {"u": u.tolist(), "v": v.tolist(), "residual": r}
    return PropertyReport(
        name="endomorphism",
        samples_run=n_samples,
        passed=first is None,
        max_residual=max_residual,
        first_counterexample=first,
        seed=seed,
    )


@dataclass(frozen=True)
class MapClassification:
    """Classifier verdict plus its payload.

    verdict is one of the class constants; `matrix` accompanies ORTHOGONAL,
    the witness pair and residual accompany NOT_ENDOMORPHISM.
    """

    ORTHOGONAL = "orthogonal"
    ZERO = "zero"
    NOT_ENDOMORPHISM = "not_endomorphism"

    verdict: str
    matrix: LinearMap | None = None
    witness_u: GyroVector | None = None
    witness_v: GyroVector | None = None
    residual: float | None = None

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

    Probes f at half the basis vectors to form a candidate, then
    corroborates it: a randomized residual scan of the defining equation,
    plus (zero candidate) fresh samples staying at zero, or (orthogonal
    candidate) sampled agreement with the probed matrix.  Any failed
    corroboration yields NOT_ENDOMORPHISM with the worst sampled pair.

    The verdict is a decision at the configured sampling budget: a map
    agreeing with an orthogonal restriction on every sampled point is
    classified by that evidence, so a pathological map built to differ
    only off-sample (nothing continuous does) can still be reported as
    orthogonal or zero.
    """
    threshold = decision_threshold(tol)
    max_residual, worst, _ = _law_scan(f, n_samples, derive_seed(seed, "endo"), tol)
    law_holds = max_residual <= threshold

    basis = np.eye(f.dim)
    probes = [f(GyroVector(0.5 * basis[i])) for i in range(f.dim)]

    if all(p.norm <= tol.abs_tol for p in probes):
        if law_holds:
            zero_sampler = BallSampler(derive_seed(seed, "zero"), f.dim, tol.sample_rmax)
            if all(f(zero_sampler.sample()).norm <= threshold for _ in range(n_samples)):
                return MapClassification.zero()
    else:
        candidate = np.column_stack([2.0 * p.coords for p in probes])
        if is_orthogonal(candidate, tol) and law_holds:
            agree_sampler = BallSampler(derive_seed(seed, "agree"), f.dim, tol.sample_rmax)
            agreement = 10.0 * tol.abs_tol
            if all(
                float(np.linalg.norm(f(w).coords - candidate @ w.coords)) <= agreement
                for w in (agree_sampler.sample() for _ in range(n_samples))
            ):
                return MapClassification.orthogonal(LinearMap(candidate))

    return MapClassification.not_endomorphism(*worst, max_residual)


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
    families and reports the largest deviation.

    Preconditions enforced here: x != 0 and |f(x)| at most the decision
    threshold.  That f respects the addition on sampled pairs is the
    caller's contract (see check_endomorphism); it is deliberately not
    re-verified, so maps violating it simply fail with a large deviation.

    Diameter parameters mix every rational p/q with p, q <= 20 (both
    signs) and 100 uniform draws, all filtered to |t| <= t_max where
    t_max scales the diameter parametrization to the sampling radius.
    """
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

    evaluations = 0
    worst = {"deviation": -1.0}

    def consider(deviation: float, part: str, t: float, base: GyroVector | None) -> None:
        if deviation > worst["deviation"]:
            worst.update(
                deviation=deviation,
                part=part,
                t=t,
                base=None if base is None else base.tolist(),
            )

    for t in params:
        value = f(line_param(x, t))
        evaluations += 1
        consider(value.norm, "diameter", float(t), None)

    point_sampler = BallSampler(derive_seed(seed, "zero_prop_base"), x.dim, tol.sample_rmax)
    n_translates = max(1, n_samples // 20)
    for _ in range(n_translates):
        a = point_sampler.sample()
        reference = f(a)
        evaluations += 1
        for t in rng.uniform(-t_max, t_max, size=20):
            value = f(einstein_add(a, line_param(x, t)))
            evaluations += 1
            consider(float(np.linalg.norm(value.coords - reference.coords)), "chord", float(t), a)

        b = point_sampler.sample()
        reference = f(b)
        evaluations += 1
        for t in rng.uniform(-t_max, t_max, size=20):
            value = f(einstein_add(line_param(x, t), b))
            evaluations += 1
            consider(
                float(np.linalg.norm(value.coords - reference.coords)), "half_ellipse", float(t), b
            )

    passed = worst["deviation"] <= threshold
    return PropertyReport(
        name="zero_propagation",
        samples_run=evaluations,
        passed=passed,
        max_residual=worst["deviation"],
        first_counterexample=None if passed else dict(worst),
        seed=seed,
    )
