"""Seeded randomized verification of every law the library relies on.

The properties form one table, _REGISTRY: per name, the inputs, the
residual and the cutoff.  Each property draws reproducible inputs (child
seed derived from the master seed, property name, and dimension),
evaluates a residual, and compares it against a threshold from the
tolerance config.  A failing sample is shrunk by halving all its ball
points while the failure persists, and the smallest still-failing
instance is reported; matrix and classifier inputs hold no ball point and
are reported as drawn.  Every property draws its inputs as Rows blocks
through the sampling module, each column one generator call on the
block, and positive matrices as record columns with the fields of
Hermitian2; a refused candidate is refused by mask and only the
shortfall is drawn again (sampling._staged, given the stages defined
here).  Each block is scored as one residual array by the row kernels of
ball, geometry and morphisms and the column kernels of matrix_models,
each sharing its formula with the scalar function.  bloch_homomorphism
also sums the first formed row of each block by the public einstein_add
and refuses it unless the two agree (ball._anchored_sum_rows), the one
path by which perfbench's --corrupt reaches a property.  The classifier
trials compare verdicts, each batch classified as one stack per dimension.

Residual normalization.  Raw floating-point residuals of ball operations
grow with the Lorentz factor of the operands (coordinate noise is
amplified by up to gamma^2 near the boundary), so residuals of smooth
identities are divided by a conditioning scale before the comparison.
The scale used by each property:

  closure                      none (reports the output norm itself)
  identity, left_inverse       none
  left_cancellation            gamma(u)^2
  gamma_identity               rhs * gamma(u (+) v)^2   (relative error)
  gyration_orthogonality       (gamma(u) gamma(v))^2
  gyrocommutativity            (gamma(u) gamma(v))^2
  one_parameter_subgroup       gamma(result)^2
  left_translation_isometry    1 + gamma(u)   (threshold 10 * rel_tol)
  klein_distance_metric        none (identity term enters squared: the
                               arcosh form loses half the digits at
                               coincident points)
  line_translation_distance    max(1, expected distance)
  orthogonal_endomorphism      (gamma(u) gamma(v))^2
  orthogonal_residual_bound    10 * machine_eps * gamma(u) * gamma(v)
  bloch_homomorphism           (gamma(u) gamma(v))^2
  det_normalization_homomorphism  (1 + max entry) * (gamma(u) gamma(v))^2
  transported_automorphism     (gamma(u) gamma(v))^2
  indicator properties         none (residual is 0 or 1)

Evaluability note: gyration is evaluated in closed form and composes no
sums, so gyration_orthogonality draws plain points.  gyrocommutativity
forms u (+) v and v (+) u, whose rapidity reaches |u| + |v|.  Pairs so
close to the boundary that a sum would leave the guarded ball are
rejected at draw time and redrawn: strict construction makes such inputs
non-evaluable, which is a domain condition of the composed expression,
not a weakening of the law.
The collinearity draws apply the same rule to the translated pair
(-x) (+) y, (-x) (+) z, whose commutation test adds the two: a triple is
redrawn where either sum leaves the guard or their sum could.

Matrix-model sampling note: Bloch points for the matrix properties are
drawn at rmax = 0.99 rather than sample_rmax.  Floating-point evaluation
of a 2x2 determinant after a congruence carries relative error of order
machine_eps * kappa(A) * kappa(B); at 0.999 the condition number of a
det-1 model matrix reaches ~2000 and the product error would swamp
rel_tol, rejecting mathematically exact identities.  At 0.99 (kappa <=
~200) every check keeps at least two orders of magnitude of margin.  The
same reasoning caps the random positive definite matrices used by the
determinant checks at condition 1e2 (1e4 for the square root check,
whose residual has no det cancellation).
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Any, Callable

import numpy as np

from .ball import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_TOL,
    GyroError,
    ToleranceConfig,
    _add_rows,
    _anchored_sum_rows,
    _dot,
    _each,
    _gamma_rows,
    _gyration_rows,
    _line_param_rows,
    _norm_rows,
    _quiet,
    _sum_rows,
)
from .geometry import _commutes_rows, _klein_distance_rows, gram_band
from .matrix_models import (
    _HERMITIAN_FIELDS,
    _IDENTITY,
    _bloch_to_density_rows,
    _boxdot_rows,
    _density_to_bloch_rows,
    _det,
    _normalize_det_rows,
    _odot_rows,
    _positive,
    _sqrt_congruence_rows,
    _sqrt_posdef_rows,
)
from .morphisms import (
    BallMap,
    LinearMap,
    MapClassification,
    _classify_stack,
    _haar,
    _image_norms,
    _law_rows,
    _linear_image,
)
from .sampling import (
    BallSampler,
    PropertyReport,
    Rows,
    _blocks,
    _point_rows,
    _Stage,
    _staged,
    derive_seed,
    scan_report,
)

_EPS = float(np.finfo(float).eps)
_CORE_DIMS = (2, 3, 5)
_PLANE_DIMS = (2, 3)
_MODEL_DIMS = (3,)
_MODEL_RMAX = 0.99


class UnknownPropertyError(GyroError):
    """A property name is not in the registry."""


def _sampled(
    draw: Callable, name: str, n_samples: int, seed: int, tol: ToleranceConfig,
    dims: tuple[int, ...] = _CORE_DIMS, rmax: float | None = None,
):
    # n_samples inputs in each dimension, from one child-seeded sampler each,
    # as the Rows blocks of draw(sampler, n, tol)
    radius = rmax or tol.sample_rmax
    samplers = [BallSampler(derive_seed(seed, f"{name}/{dim}"), dim, radius) for dim in dims]
    return _blocks(draw, samplers, n_samples, tol)


def _rapidity_rows(x: np.ndarray) -> np.ndarray:
    # artanh of the norm of each row of x
    return _each(math.atanh, _norm_rows(x))


# ---------------------------------------------------------------- gyro core


def _closure_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    w, ok = _sum_rows(rows["u"], rows["v"])
    return np.where(ok, _norm_rows(w), math.inf)


def _identity_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u = rows["u"]
    zero = np.zeros_like(u)
    return np.maximum(_norm_rows(_add_rows(zero, u) - u), _norm_rows(_add_rows(u, zero) - u))


def _left_inverse_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u = rows["u"]
    return np.maximum(_norm_rows(_add_rows(-u, u)), _norm_rows(_add_rows(u, -u)))


def _left_cancellation_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u, v = rows["u"], rows["v"]
    w, ok = _sum_rows(u, v)
    recovered, ok = _sum_rows(-u, w, ok)
    return np.where(ok, _norm_rows(recovered - v) / np.square(_gamma_rows(u)), math.inf)


def _gamma_identity_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u, v = rows["u"], rows["v"]
    w, ok = _sum_rows(u, v)
    lhs = _gamma_rows(w)
    rhs = _gamma_rows(u) * _gamma_rows(v) * (1.0 + _dot(u, v))
    return np.where(ok, np.abs(lhs - rhs) / (rhs * np.square(lhs)), math.inf)


# largest rapidity any intermediate of a composed expression may reach
# while staying 100 margins below the construction guard
_EVALUABILITY_BOUND = math.atanh(1.0 - 100.0 * DEFAULT_BOUNDARY_MARGIN)


def _pair_evaluable(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    # gyrocommutativity forms u (+) v and v (+) u, of rapidity at most |u| + |v|
    return _rapidity_rows(rows["u"]) + _rapidity_rows(rows["v"]) <= _EVALUABILITY_BOUND


_GYROCOMMUTATIVITY = _Stage(_point_rows("u", "v"), _pair_evaluable, "an evaluable pair")


def _gyration_orthogonality_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u, v, w1, w2 = rows["u"], rows["v"], rows["w1"], rows["w2"]
    g1, ok = _gyration_rows(u, v, w1)
    g2, ok = _gyration_rows(u, v, w2, ok)
    pairing = np.abs(_dot(g1, g2) - _dot(w1, w2))
    length = np.abs(_dot(g1, g1) - _dot(w1, w1))
    scale = np.square(_gamma_rows(u) * _gamma_rows(v))
    return np.where(ok, np.maximum(pairing, length) / scale, math.inf)


def _gyrocommutativity_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u, v = rows["u"], rows["v"]
    lhs, ok = _sum_rows(u, v)
    vu, ok = _sum_rows(v, u, ok)
    rhs, ok = _gyration_rows(u, v, vu, ok)
    scale = np.square(_gamma_rows(u) * _gamma_rows(v))
    return np.where(ok, _norm_rows(lhs - rhs) / scale, math.inf)


def _line_rows(low: float, high: float, *keys: str) -> Callable:
    # per row a point x and a uniform(low, high) per key, scaled by x's t_max
    def draw_rows(s: BallSampler, n: int, tol: ToleranceConfig) -> Rows:
        x = s.sample_rows(n)
        t_max = math.atanh(s.rmax) / _rapidity_rows(x)
        scaled = s.rng.uniform(low, high, (n, len(keys))) * t_max[:, None]
        return Rows(x=x, **{key: scaled[:, k] for k, key in enumerate(keys)})

    return draw_rows


def _one_parameter_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    # the points at s, t and s + t of each row, from one rapidity per row
    s_par, t_par = rows["s"], rows["t"]
    (xs, xt, direct), ok = _line_param_rows(rows["x"], np.stack([s_par, t_par, s_par + t_par]))
    combined, ok = _sum_rows(xs, xt, ok)
    residual = _norm_rows(combined - direct) / np.square(_gamma_rows(combined))
    return np.where(ok, residual, math.inf)


# ----------------------------------------------------------------- geometry


def _general_position_rows(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    # three orders of magnitude clear of the dependence band, row by row
    det, band = gram_band(a, b, tol)
    return det > 1e3 * band


def _dependent_rows(s: BallSampler, n: int, tol: ToleranceConfig) -> Rows:
    dep_u = s.sample_rows(n)
    # scalar multiple with |dep_v| <= rmax, allowing factors above 1
    factors = s.rng.uniform(-1.0, 1.0, n) * s.rmax / np.maximum(_norm_rows(dep_u), 1e-12)
    return Rows(dep_u=dep_u, dep_v=factors[:, None] * dep_u)


_COMMUTATION = (
    _Stage(_dependent_rows),
    _Stage(
        _point_rows("ind_u", "ind_v"),
        lambda rows, tol: _general_position_rows(rows["ind_u"], rows["ind_v"], tol),
        "an independent pair",
    ),
)


def _and_chain(*clauses: tuple[np.ndarray, Any]) -> np.ndarray:
    """Indicator residual over rows of the Python `and` of scalar clauses,
    each (holds, ok) with ok false where the clause raises GyroError: as
    `and` short-circuits, a row scores 0 when every clause holds, 1 when
    one fails before any raised, and inf when one raised first."""
    live = np.ones(len(clauses[0][0]), dtype=bool)
    residual = np.zeros(len(live))
    for holds, ok in clauses:
        residual[live & np.logical_not(ok)] = math.inf
        live &= ok
        residual[live & ~holds] = 1.0
        live &= holds
    return residual


def _commutes_iff_dependent_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    dep, ind = (rows["dep_u"], rows["dep_v"]), (rows["ind_u"], rows["ind_v"])
    dep_commutes, dep_ok = _commutes_rows(*dep, tol)
    ind_commutes, ind_ok = _commutes_rows(*ind, tol)
    return _and_chain(
        (dep_commutes, dep_ok),
        (np.less_equal(*gram_band(*dep, tol)), True),
        (~ind_commutes, ind_ok),
        (~np.less_equal(*gram_band(*ind, tol)), True),
    )


def _chord_rows(s: BallSampler, n: int, tol: ToleranceConfig) -> Rows:
    # three points p + w (q - p) on the chord between two points p, q of
    # the sphere of radius rmax; a zero normal gives NaN, which the guard
    # refuses, so that the candidate is drawn again
    g = s.rng.standard_normal((2, n, s.dim))
    w = s.rng.uniform(0.0, 1.0, (n, 3))
    p, q = s.rmax * _quiet(np.divide, g, _norm_rows(g)[..., None])
    chord = q - p
    return Rows({key: p + w[:, k, None] * chord for k, key in enumerate(("on_x", "on_y", "on_z"))})


def _translated(x, y, z, ok=True) -> tuple:
    """(-x) (+) y and (-x) (+) z, the pair collinear_gyro tests, in the
    rows where ok: whether both sums pass the guard and their rapidities
    add up to at most the evaluability bound, and the two sums (zeroed
    where refused)."""
    a, ok = _sum_rows(-x, y, ok)
    b, ok = _sum_rows(-x, z, ok)
    return ok & (_rapidity_rows(a) + _rapidity_rows(b) <= _EVALUABILITY_BOUND), a, b


def _on_line(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    return _translated(rows["on_x"], rows["on_y"], rows["on_z"])[0]


def _off_line(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    x, y, z = rows["off_x"], rows["off_y"], rows["off_z"]
    evaluable, a, b = _translated(x, y, z, _general_position_rows(y - x, z - x, tol))
    return evaluable & _general_position_rows(a, b, tol)


_COLLINEARITY = (
    _Stage(_chord_rows, _on_line, "an evaluable collinear triple"),
    _Stage(_point_rows("off_x", "off_y", "off_z"), _off_line, "a general-position triple"),
)


def _collinear_gyro_rows(x, y, z, tol: ToleranceConfig) -> tuple:
    a, ok = _sum_rows(-x, y)
    b, ok = _sum_rows(-x, z, ok)
    return _commutes_rows(a, b, tol, ok)


def _collinearity_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    on = rows["on_x"], rows["on_y"], rows["on_z"]
    off = rows["off_x"], rows["off_y"], rows["off_z"]
    off_gyro, off_ok = _collinear_gyro_rows(*off, tol)
    return _and_chain(
        _collinear_gyro_rows(*on, tol),
        (np.less_equal(*gram_band(on[1] - on[0], on[2] - on[0], tol)), True),
        (~off_gyro, off_ok),
        (~np.less_equal(*gram_band(off[1] - off[0], off[2] - off[0], tol)), True),
    )


def _isometry_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    u, v, w = rows["u"], rows["v"], rows["w"]
    uv, ok = _sum_rows(u, v)
    uw, ok = _sum_rows(u, w, ok)
    translated = _klein_distance_rows(uv, uw)
    residual = np.abs(translated - _klein_distance_rows(v, w)) / (1.0 + _gamma_rows(u))
    return np.where(ok, residual, math.inf)


def _metric_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    x, y = rows["u"], rows["v"]
    d_xy = _klein_distance_rows(x, y)
    symmetry = np.abs(d_xy - _klein_distance_rows(y, x))
    coincidence = np.square(_klein_distance_rows(x, x))
    positivity = np.where(d_xy > 0.0, 0.0, 1.0)
    return np.maximum(np.maximum(symmetry, coincidence), positivity)


def _line_distance_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    x, t = rows["x"], rows["t"]
    point, ok = _line_param_rows(x, t)
    expected = np.abs(t) * _rapidity_rows(x)
    measured = _klein_distance_rows(np.zeros_like(point), point)
    return np.where(ok, np.abs(measured - expected) / np.maximum(1.0, expected), math.inf)


# ---------------------------------------------------------------- morphisms


def _draw_orthogonal_rows(s: BallSampler, n: int, tol: ToleranceConfig) -> Rows:
    # per row a Haar-random orthogonal matrix (random_orthogonal's law) and u, v
    q = _haar(s.rng.standard_normal((n, s.dim, s.dim)))
    return Rows(q=q, **_point_rows("u", "v")(s, n))


def _fixes_zero_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    q = rows["q"]
    zero = np.zeros(q.shape[:2])
    return np.maximum(
        _image_norms(_linear_image(q), zero, zero),
        _image_norms(BallMap.zero(q.shape[1])._image_rows, zero, zero),
    )


def _orthogonal_endomorphism_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    q, u, v = rows["q"], rows["u"], rows["v"]
    raw = _law_rows(_linear_image(q), u, v)
    return raw / np.square(_gamma_rows(u) * _gamma_rows(v))


def _orthogonal_residual_bound_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    q, u, v = rows["q"], rows["u"], rows["v"]
    raw = _law_rows(_linear_image(q), u, v)
    return raw / (10.0 * _EPS * _gamma_rows(u) * _gamma_rows(v))


def _classifier_trials(
    reconstruct: bool, name: str, n_samples: int, seed: int, tol: ToleranceConfig
):
    # soundness classifies an orthogonal, the zero and a contraction map per
    # instance, reconstruction the orthogonal map, keeping its matrix error.
    # Batches of 64 instances (bounded memory at any n) are drawn in order,
    # each classified as one stack per dimension, at the seed of its first
    # map; soundness yields one Rows block per batch, reconstruction one
    # per instance
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(derive_seed(seed, name))
    dims, count = (2, 3, 4, 5), max(1, n_samples // 10)
    for start in range(0, count, 64):
        batch = [dims[k % len(dims)] for k in range(start, min(count, start + 64))]
        draws = []  # per instance: q's Gaussian, the contraction's and its target, a seed
        for dim in batch:
            g, child = rng.standard_normal((dim, dim)), int(rng.integers(2**62))
            if reconstruct:
                draws.append((g, None, None, child))
                continue
            # that seed goes unused: the instance's maps draw three, the first kept
            m, target = rng.standard_normal((dim, dim)), float(rng.uniform(0.2, 0.95))
            child, _, _ = (int(rng.integers(2**62)) for _ in range(3))
            draws.append((g, m, target, child))
        trials = [None] * len(batch)  # (q, verdicts) per instance
        for dim in set(batch):
            ks = [k for k, d in enumerate(batch) if d == dim]
            gs, ms, targets, children = zip(*(draws[k] for k in ks))
            qs = _haar(np.array(gs))
            # finite square matrices of this draw: their maps skip LinearMap's checks
            families = [[BallMap.from_matrix(LinearMap._owned(q)) for q in qs]]
            if not reconstruct:
                ms = np.array(ms)
                cs = ms * (np.array(targets) / np.linalg.norm(ms, 2, axis=(1, 2)))[:, None, None]
                families.append([BallMap.zero(dim)] * len(ks))
                families.append([BallMap.from_matrix(LinearMap._owned(c)) for c in cs])
            maps = list(zip(*families))  # per instance, its maps
            verdicts = iter(_classify_stack([f for fs in maps for f in fs], children[0], 64, tol))
            for k, q, fs in zip(ks, qs, maps):
                trials[k] = q, [next(verdicts) for _ in fs]
        if not reconstruct:
            yield Rows(
                family=np.tile(["orthogonal", "zero", "contraction"], len(batch)),
                dim=np.repeat(batch, 3),
                expected=np.tile(["orthogonal", "zero", "not_endomorphism"], len(batch)),
                got=np.array([outcome.verdict for _, got in trials for outcome in got]),
            )
            continue
        for q, (got,) in trials:
            trial = {"dim": len(q), "expected": "orthogonal", "got": got.verdict}
            if got.verdict == MapClassification.ORTHOGONAL:
                error = np.max(np.abs(got.matrix.entries - q))
                trial = {"dim": len(q), "matrix": q, "max_entry_error": error}
            yield Rows({key: np.array([value]) for key, value in trial.items()})


def _soundness_residual(trials: Rows, tol: ToleranceConfig) -> np.ndarray:
    # 1 for each wrong verdict
    return (trials["got"] != trials["expected"]).astype(float)


def _reconstruction_residual(trials: Rows, tol: ToleranceConfig) -> np.ndarray:
    # the matrix error in units of 10 * abs_tol, inf for a wrong verdict
    return trials.get("max_entry_error", np.array([math.inf])) / (10.0 * tol.abs_tol)


# ------------------------------------------------------------ matrix models


def _maxdiff(x: tuple, y: tuple = (0.0,) * 4) -> np.ndarray:
    # per row, the largest |x - y| over the four fields; |x| without y
    return np.maximum.reduce([np.abs(p - q) for p, q in zip(x, y)])


def _model_pair(rows: Rows) -> tuple:
    # the densities of u and v, where they are built, and (gamma(u) gamma(v))^2
    u, v = rows["u"], rows["v"]
    da, ok = _bloch_to_density_rows(u)
    db, ok = _bloch_to_density_rows(v, ok)
    return da, db, ok, np.square(_gamma_rows(u) * _gamma_rows(v))


def _bloch_homomorphism_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    da, db, ok, scale = _model_pair(rows)
    lhs, ok = _bloch_to_density_rows(*_anchored_sum_rows(rows["u"], rows["v"], ok))
    rhs, ok = _odot_rows(da, db, ok)
    return np.where(ok, _maxdiff(lhs, rhs) / scale, math.inf)


def _det_normalization_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    da, db, ok, scale = _model_pair(rows)
    lhs, ok = _normalize_det_rows(*_odot_rows(da, db, ok))
    na, ok = _normalize_det_rows(da, ok)
    nb, ok = _normalize_det_rows(db, ok)
    rhs, ok = _boxdot_rows(na, nb, ok)
    return np.where(ok, _maxdiff(lhs, rhs) / ((1.0 + _maxdiff(lhs)) * scale), math.inf)


def _transported_automorphism_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    rotated = _linear_image(rows["q"])

    def transported(m: tuple, ok) -> tuple:
        return _bloch_to_density_rows(*rotated(*_density_to_bloch_rows(m, ok)))

    da, db, ok, scale = _model_pair(rows)
    lhs, ok = transported(*_odot_rows(da, db, ok))
    ta, ok = transported(da, ok)
    tb, ok = transported(db, ok)
    rhs, ok = _odot_rows(ta, tb, ok)
    return np.where(ok, _maxdiff(lhs, rhs) / scale, math.inf)


# a column of 2x2 Hermitian matrices: one record per row, with the fields of
# Hermitian2; and a column's four field columns, as the kernels take them
_HERMITIAN = np.dtype([(field, float) for field in _HERMITIAN_FIELDS])
_fields = operator.itemgetter(*_HERMITIAN.names)


def _posdef_rows(max_log_cond: float, *keys: str) -> Callable:
    # per key a column of positive matrices: eigenvalues 10^U(-2, 2) and that
    # over 10^U(0, max_log_cond), the larger one's eigenvector a normalised
    # complex Gaussian 2-vector
    def draw_rows(s: BallSampler, n: int, tol: ToleranceConfig) -> Rows:
        rows = Rows()
        for key in keys:
            big = 10.0 ** s.rng.uniform(-2.0, 2.0, n)
            small = big / 10.0 ** s.rng.uniform(0.0, max_log_cond, n)
            g = s.rng.standard_normal((n, 4))
            v = g[:, 0::2] + 1j * g[:, 1::2]
            v /= np.linalg.norm(v, axis=1)[:, None]
            spread = big - small
            diag = small[:, None] + spread[:, None] * np.abs(v) ** 2
            b = spread * v[:, 0] * v[:, 1].conj()
            h = rows[key] = np.empty(n, _HERMITIAN)
            h["a"], h["d"], h["re_b"], h["im_b"] = diag[:, 0], diag[:, 1], b.real, b.imag
        return rows

    return draw_rows


def _sqrt_squares_back_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    h = _fields(rows["h"])
    root, ok = _sqrt_posdef_rows(h)
    squared, ok = _sqrt_congruence_rows(h, _IDENTITY, ok & _positive(*root))
    return np.where(ok, _maxdiff(squared, h) / (1.0 + _maxdiff(h)), math.inf)


def _boxdot_det_residual(rows: Rows, tol: ToleranceConfig) -> np.ndarray:
    h1, h2 = _fields(rows["h1"]), _fields(rows["h2"])
    product, ok = _sqrt_congruence_rows(h1, h2)
    expected = _det(*h1) * _det(*h2)
    return np.where(ok, np.abs(_det(*product) - expected) / expected, math.inf)


# ----------------------------------------------------------------- registry


_abs_tol, _rel_tol = operator.attrgetter("abs_tol"), operator.attrgetter("rel_tol")


def _indicator(tol: ToleranceConfig) -> float:
    return 0.5


def _one(tol: ToleranceConfig) -> float:
    return 1.0


_pairs = partial(_sampled, _point_rows("u", "v"))
_orthogonal = partial(_sampled, _draw_orthogonal_rows)
_model_pairs = partial(_pairs, dims=_MODEL_DIMS, rmax=_MODEL_RMAX)

# name -> (inputs(name, n_samples, seed, tol), the Rows blocks to scan;
# residual(rows, tol), a block's residuals; cutoff(tol)), in report order
_REGISTRY = {
    "closure": (_pairs, _closure_residual, lambda tol: 1.0 - DEFAULT_BOUNDARY_MARGIN),
    "identity": (partial(_sampled, _point_rows("u")), _identity_residual, _abs_tol),
    "left_inverse": (partial(_sampled, _point_rows("u")), _left_inverse_residual, _abs_tol),
    "left_cancellation": (_pairs, _left_cancellation_residual, _abs_tol),
    "gamma_identity": (_pairs, _gamma_identity_residual, _rel_tol),
    "gyration_orthogonality": (
        partial(_sampled, _point_rows("u", "v", "w1", "w2")), _gyration_orthogonality_residual,
        _rel_tol,
    ),
    "gyrocommutativity": (
        partial(_sampled, partial(_staged, (_GYROCOMMUTATIVITY,))), _gyrocommutativity_residual,
        _abs_tol,
    ),
    "one_parameter_subgroup": (
        partial(_sampled, _line_rows(-0.5, 0.5, "s", "t")), _one_parameter_residual, _abs_tol
    ),
    "commutes_iff_dependent": (
        partial(_sampled, partial(_staged, _COMMUTATION)), _commutes_iff_dependent_residual,
        _indicator,
    ),
    "collinearity_equivalence": (
        partial(_sampled, partial(_staged, _COLLINEARITY), dims=_PLANE_DIMS),
        _collinearity_residual, _indicator,
    ),
    "left_translation_isometry": (
        partial(_sampled, _point_rows("u", "v", "w")), _isometry_residual,
        lambda tol: 10.0 * tol.rel_tol,
    ),
    "klein_distance_metric": (_pairs, _metric_residual, _abs_tol),
    "line_translation_distance": (
        partial(_sampled, _line_rows(-1.0, 1.0, "t")), _line_distance_residual, _rel_tol
    ),
    "endomorphism_fixes_zero": (_orthogonal, _fixes_zero_residual, _abs_tol),
    "orthogonal_endomorphism": (_orthogonal, _orthogonal_endomorphism_residual, _abs_tol),
    "orthogonal_residual_bound": (
        partial(_orthogonal, rmax=0.9), _orthogonal_residual_bound_residual, _one
    ),
    "classifier_soundness": (partial(_classifier_trials, False), _soundness_residual, _indicator),
    "classifier_reconstruction": (
        partial(_classifier_trials, True), _reconstruction_residual, _one
    ),
    "bloch_homomorphism": (_model_pairs, _bloch_homomorphism_residual, _rel_tol),
    "det_normalization_homomorphism": (_model_pairs, _det_normalization_residual, _rel_tol),
    "sqrt_squares_back": (
        partial(_sampled, _posdef_rows(4.0, "h"), dims=(2,)), _sqrt_squares_back_residual, _rel_tol
    ),
    "boxdot_det_multiplicative": (
        partial(_sampled, _posdef_rows(2.0, "h1", "h2"), dims=(2,)), _boxdot_det_residual, _rel_tol
    ),
    "transported_automorphism": (
        partial(_orthogonal, dims=_MODEL_DIMS, rmax=_MODEL_RMAX),
        _transported_automorphism_residual, _rel_tol,
    ),
}


def registered_names() -> tuple[str, ...]:
    """Registered property names, in registry (module) order."""
    return tuple(_REGISTRY)


def run_suite(
    names, n_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[PropertyReport]:
    """Run the named properties and return one report each, in order.

    Reports are deterministic functions of (names, n_samples, seed, tol).
    """
    names = list(names)
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise UnknownPropertyError(
            f"unknown properties {unknown!r}; registered: {', '.join(_REGISTRY)}"
        )
    reports = []
    for name in names:
        inputs, residual, cutoff = _REGISTRY[name]
        blocks = inputs(name, n_samples, seed, tol)
        reports.append(scan_report(name, blocks, partial(residual, tol=tol), cutoff(tol), seed))
    return reports
