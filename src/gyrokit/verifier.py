"""Seeded randomized verification of every law the library relies on.

Each registered property draws reproducible inputs (child seed derived
from the master seed, property name, and dimension), evaluates a residual,
and compares it against a threshold from the tolerance config.  A failing
sample is shrunk by halving all ball points while the failure persists,
and the smallest still-failing instance is reported.

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

Evaluability note: the gyration properties evaluate compositions whose
intermediates reach rapidity |u| + |v| + |w| (and 2(|u| + |v|) for the
gyrocommutativity form).  Pairs so close to the boundary that an
intermediate would leave the guarded ball are rejected at draw time and
redrawn: strict construction makes such inputs non-evaluable, which is a
domain condition of the composed expression, not a weakening of the law.
The collinearity draws apply the same rule to the translated pair
(-x) (+) y, (-x) (+) z, whose commutation test adds the two.

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
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .ball import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_TOL,
    GyroError,
    GyroVector,
    ToleranceConfig,
    _norm,
    approx_eq,
    einstein_add,
    gamma,
    gyration,
    line_param,
    neg,
)
from .geometry import (
    collinear_direct,
    collinear_gyro,
    commutes,
    gram_band,
    klein_distance,
    linearly_dependent,
)
from .matrix_models import (
    Hermitian2,
    bloch_to_density,
    boxdot,
    density_to_bloch,
    is_positive_definite,
    normalize_det,
    odot,
    sqrt_congruence,
    sqrt_posdef2,
)
from .morphisms import (
    BallMap,
    MapClassification,
    classify_endomorphism,
    endomorphism_residual,
    random_orthogonal,
)
from .sampling import BallSampler, PropertyReport, derive_seed, json_ready, seeded_scan

_EPS = float(np.finfo(float).eps)
_CORE_DIMS = (2, 3, 5)
_PLANE_DIMS = (2, 3)
_MODEL_DIMS = (3,)
_MODEL_RMAX = 0.99
_IDENTITY2 = Hermitian2(1.0, 1.0, 0.0, 0.0)


class UnknownPropertyError(GyroError):
    """A property name is not in the registry."""


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[int, int, ToleranceConfig], PropertyReport]


def _describe(inputs: dict, residual: float) -> dict:
    return json_ready({**inputs, "residual": residual})


def _scaled(inputs: dict, factor: float) -> dict:
    return {
        key: GyroVector._owned(factor * value.coords) if isinstance(value, GyroVector) else value
        for key, value in inputs.items()
    }


def _safe_residual(residual, inputs, tol) -> float:
    try:
        return float(residual(inputs, tol))
    except GyroError:
        return math.inf


def _redraw(draw: Callable[[], Any], accept: Callable[[Any], bool], what: str) -> Any:
    """Return the first draw() that accept() takes, out of 10_000 tries.

    Draws are rejected for evaluability or general position, never for
    their residual.  Raises RuntimeError("failed to draw <what>")."""
    for _ in range(10_000):
        candidate = draw()
        if accept(candidate):
            return candidate
    raise RuntimeError(f"failed to draw {what}")


def _sampled_check(
    name: str,
    dims: tuple[int, ...],
    draw: Callable,
    residual: Callable,
    threshold: Callable[[ToleranceConfig], float],
    shrink: bool = True,
    rmax: float | None = None,
) -> Check:
    def run(n_samples: int, seed: int, tol: ToleranceConfig) -> PropertyReport:
        cutoff = threshold(tol)
        radius = rmax if rmax is not None else tol.sample_rmax
        samplers = [BallSampler(derive_seed(seed, f"{name}/{dim}"), dim, radius) for dim in dims]
        max_residual, _, first = seeded_scan(
            (draw(sampler, tol) for sampler in samplers for _ in range(n_samples)),
            lambda inputs: _safe_residual(residual, inputs, tol),
            cutoff,
        )
        if first is not None:
            best, best_r = first
            if shrink:
                current = best
                for _ in range(60):
                    current = _scaled(current, 0.5)
                    rr = _safe_residual(residual, current, tol)
                    if not rr <= cutoff:  # NaN fails, as in seeded_scan
                        best, best_r = current, rr
                    else:
                        break
            first = _describe(best, best_r)
        return PropertyReport(
            name=name,
            samples_run=n_samples * len(dims),
            passed=first is None,
            max_residual=max_residual,
            first_counterexample=first,
            seed=seed,
        )

    return Check(name=name, run=run)


# ---------------------------------------------------------------- gyro core


def _draw_pair(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"u": s.sample(), "v": s.sample()}


def _draw_single(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"u": s.sample()}


def _closure_residual(inputs: dict, tol: ToleranceConfig) -> float:
    return einstein_add(inputs["u"], inputs["v"]).norm


def _identity_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u = inputs["u"]
    zero = GyroVector.zero(u.dim)
    left = _norm(einstein_add(zero, u).coords - u.coords)
    right = _norm(einstein_add(u, zero).coords - u.coords)
    return max(left, right)


def _left_inverse_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u = inputs["u"]
    return max(einstein_add(neg(u), u).norm, einstein_add(u, neg(u)).norm)


def _left_cancellation_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    recovered = einstein_add(neg(u), einstein_add(u, v))
    return _norm(recovered.coords - v.coords) / gamma(u) ** 2


def _gamma_identity_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    w = einstein_add(u, v)
    lhs = gamma(w)
    rhs = gamma(u) * gamma(v) * (1.0 + float(u.coords.dot(v.coords)))
    return abs(lhs - rhs) / (rhs * gamma(w) ** 2)


def _rapidity(u: GyroVector) -> float:
    return math.atanh(u.norm)


# largest rapidity any intermediate of a composed expression may reach
# while staying 100 margins below the construction guard
_EVALUABILITY_BOUND = math.atanh(1.0 - 100.0 * DEFAULT_BOUNDARY_MARGIN)


def _draw_gyration_inputs(s: BallSampler, tol: ToleranceConfig) -> dict:
    # the gyration chain peaks at rapidity |u| + |v| + |w|; reject draws
    # whose intermediates could leave the guarded ball (evaluability of
    # the defining composition, not a weakening of the law)
    def evaluable(d: dict) -> bool:
        peak = _rapidity(d["u"]) + _rapidity(d["v"]) + max(_rapidity(d["w1"]), _rapidity(d["w2"]))
        return peak <= _EVALUABILITY_BOUND

    return _redraw(
        lambda: {"u": s.sample(), "v": s.sample(), "w1": s.sample(), "w2": s.sample()},
        evaluable,
        "an evaluable gyration input",
    )


def _draw_gyrocommutativity_inputs(s: BallSampler, tol: ToleranceConfig) -> dict:
    # the composition applies each operand twice, peaking at 2(|u| + |v|)
    # in rapidity; same evaluability rejection as the gyration draw
    return _redraw(
        lambda: _draw_pair(s, tol),
        lambda d: 2.0 * (_rapidity(d["u"]) + _rapidity(d["v"])) <= _EVALUABILITY_BOUND,
        "an evaluable pair",
    )


def _gyration_orthogonality_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v, w1, w2 = inputs["u"], inputs["v"], inputs["w1"], inputs["w2"]
    g1 = gyration(u, v, w1)
    g2 = gyration(u, v, w2)
    scale = (gamma(u) * gamma(v)) ** 2
    pairing = abs(float(g1.coords.dot(g2.coords)) - float(w1.coords.dot(w2.coords)))
    length = abs(g1.norm2 - w1.norm2)
    return max(pairing, length) / scale


def _gyrocommutativity_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    lhs = einstein_add(u, v)
    rhs = gyration(u, v, einstein_add(v, u))
    scale = (gamma(u) * gamma(v)) ** 2
    return _norm(lhs.coords - rhs.coords) / scale


def _draw_line_params(s: BallSampler, tol: ToleranceConfig) -> dict:
    x = s.sample()
    t_max = math.atanh(s.rmax) / math.atanh(x.norm)
    a, b = s.rng.uniform(-0.5, 0.5, size=2)
    return {"x": x, "s": float(a * t_max), "t": float(b * t_max)}


def _one_parameter_residual(inputs: dict, tol: ToleranceConfig) -> float:
    x, s_par, t_par = inputs["x"], inputs["s"], inputs["t"]
    combined = einstein_add(line_param(x, s_par), line_param(x, t_par))
    direct = line_param(x, s_par + t_par)
    return _norm(combined.coords - direct.coords) / gamma(combined) ** 2


# ----------------------------------------------------------------- geometry


def _general_position(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> bool:
    # three orders of magnitude clear of the dependence band
    det, band = gram_band(a, b, tol)
    return det > 1e3 * band


def _draw_commutation_inputs(s: BallSampler, tol: ToleranceConfig) -> dict:
    dep_u = s.sample()
    # scalar multiple with |dep_v| <= rmax, allowing factors above 1
    scale = float(s.rng.uniform(-1.0, 1.0))
    dep_v = GyroVector(scale * s.rmax / max(dep_u.norm, 1e-12) * dep_u.coords)
    ind = _redraw(
        lambda: _draw_pair(s, tol),
        lambda d: _general_position(d["u"].coords, d["v"].coords, tol),
        "an independent pair",
    )
    return {"dep_u": dep_u, "dep_v": dep_v, "ind_u": ind["u"], "ind_v": ind["v"]}


def _commutes_iff_dependent_residual(inputs: dict, tol: ToleranceConfig) -> float:
    ok = (
        commutes(inputs["dep_u"], inputs["dep_v"], tol)
        and linearly_dependent(inputs["dep_u"], inputs["dep_v"], tol)
        and not commutes(inputs["ind_u"], inputs["ind_v"], tol)
        and not linearly_dependent(inputs["ind_u"], inputs["ind_v"], tol)
    )
    return 0.0 if ok else 1.0


def _translated_pair(
    x: GyroVector, y: GyroVector, z: GyroVector
) -> tuple[GyroVector, GyroVector] | None:
    # collinear_gyro tests (-x) (+) y and (-x) (+) z for commutation, whose
    # sums reach the two rapidities added; None when that could leave the
    # guarded ball (same evaluability rule as the gyration draws)
    a = einstein_add(neg(x), y)
    b = einstein_add(neg(x), z)
    if _rapidity(a) + _rapidity(b) > _EVALUABILITY_BOUND:
        return None
    return a, b


def _draw_collinearity_inputs(s: BallSampler, tol: ToleranceConfig) -> dict:
    def unit() -> np.ndarray:
        g = s.rng.standard_normal(s.dim)
        return g / _norm(g)

    def on_line() -> tuple[GyroVector, ...]:
        p, q = s.rmax * unit(), s.rmax * unit()
        return tuple(GyroVector(p + w * (q - p)) for w in s.rng.uniform(0.0, 1.0, size=3))

    def in_general_position(triple: tuple[GyroVector, ...]) -> bool:
        x, y, z = triple
        if not _general_position(y.coords - x.coords, z.coords - x.coords, tol):
            return False
        translated = _translated_pair(x, y, z)
        return translated is not None and _general_position(*(t.coords for t in translated), tol)

    on_x, on_y, on_z = _redraw(
        on_line, lambda t: _translated_pair(*t) is not None, "an evaluable collinear triple"
    )
    off_x, off_y, off_z = _redraw(
        lambda: (s.sample(), s.sample(), s.sample()),
        in_general_position,
        "a general-position triple",
    )
    return {
        "on_x": on_x, "on_y": on_y, "on_z": on_z,
        "off_x": off_x, "off_y": off_y, "off_z": off_z,
    }


def _collinearity_residual(inputs: dict, tol: ToleranceConfig) -> float:
    ok = (
        collinear_gyro(inputs["on_x"], inputs["on_y"], inputs["on_z"], tol)
        and collinear_direct(inputs["on_x"], inputs["on_y"], inputs["on_z"], tol)
        and not collinear_gyro(inputs["off_x"], inputs["off_y"], inputs["off_z"], tol)
        and not collinear_direct(inputs["off_x"], inputs["off_y"], inputs["off_z"], tol)
    )
    return 0.0 if ok else 1.0


def _draw_triple(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"u": s.sample(), "v": s.sample(), "w": s.sample()}


def _isometry_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v, w = inputs["u"], inputs["v"], inputs["w"]
    translated = klein_distance(einstein_add(u, v), einstein_add(u, w))
    return abs(translated - klein_distance(v, w)) / (1.0 + gamma(u))


def _metric_residual(inputs: dict, tol: ToleranceConfig) -> float:
    x, y = inputs["u"], inputs["v"]
    d_xy = klein_distance(x, y)
    symmetry = abs(d_xy - klein_distance(y, x))
    coincidence = klein_distance(x, x) ** 2
    positivity = 0.0 if d_xy > 0.0 else 1.0
    return max(symmetry, coincidence, positivity)


def _draw_line_distance(s: BallSampler, tol: ToleranceConfig) -> dict:
    x = s.sample()
    t_max = math.atanh(s.rmax) / math.atanh(x.norm)
    t = float(s.rng.uniform(-1.0, 1.0) * t_max)
    return {"x": x, "t": t}


def _line_distance_residual(inputs: dict, tol: ToleranceConfig) -> float:
    x, t = inputs["x"], inputs["t"]
    point = line_param(x, t)
    expected = abs(t) * math.atanh(x.norm)
    measured = klein_distance(GyroVector.zero(x.dim), point)
    return abs(measured - expected) / max(1.0, expected)


# ---------------------------------------------------------------- morphisms


def _draw_orthogonal_pair(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"q": random_orthogonal(s.rng, s.dim), "u": s.sample(), "v": s.sample()}


def _fixes_zero_residual(inputs: dict, tol: ToleranceConfig) -> float:
    q = inputs["q"]
    dim = q.shape[0]
    zero = GyroVector.zero(dim)
    return max(
        BallMap.from_matrix(q)(zero).norm,
        BallMap.zero(dim)(zero).norm,
    )


def _orthogonal_endomorphism_residual(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]
    raw = endomorphism_residual(BallMap.from_matrix(q), u, v)
    return raw / (gamma(u) * gamma(v)) ** 2


def _orthogonal_residual_bound_residual(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]
    raw = endomorphism_residual(BallMap.from_matrix(q), u, v)
    return raw / (10.0 * _EPS * gamma(u) * gamma(v))


def _random_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    target = float(rng.uniform(0.2, 0.95))
    return m * (target / float(np.linalg.norm(m, 2)))


def _classifier_check(name: str, reconstruct: bool) -> Check:
    # soundness classifies an orthogonal, the zero and a contraction map per
    # instance and scores a wrong verdict 1; reconstruction classifies the
    # orthogonal map and scores its matrix error in units of 10 * abs_tol
    def trials(instances: int, seed: int, tol: ToleranceConfig):
        inner = 64
        rng = np.random.default_rng(derive_seed(seed, name))
        dims = (2, 3, 4, 5)
        for k in range(instances):
            dim = dims[k % len(dims)]
            q = random_orthogonal(rng, dim)
            child = int(rng.integers(2**62))
            if reconstruct:
                outcome = classify_endomorphism(BallMap.from_matrix(q), inner, child, tol)
                if outcome.verdict != MapClassification.ORTHOGONAL:
                    yield {"dim": dim, "expected": "orthogonal", "got": outcome.verdict}
                else:
                    error = float(np.max(np.abs(outcome.matrix.entries - q)))
                    yield {"dim": dim, "matrix": q, "max_entry_error": error}
                continue
            cases = (
                ("orthogonal", BallMap.from_matrix(q), MapClassification.ORTHOGONAL),
                ("zero", BallMap.zero(dim), MapClassification.ZERO),
                (
                    "contraction",
                    BallMap.from_matrix(_random_contraction(rng, dim)),
                    MapClassification.NOT_ENDOMORPHISM,
                ),
            )
            for family, ball_map, expected in cases:
                child = int(rng.integers(2**62))
                verdict = classify_endomorphism(ball_map, inner, child, tol).verdict
                yield {"family": family, "dim": dim, "expected": expected, "got": verdict}

    def residual(trial: dict, tol: ToleranceConfig) -> float:
        if reconstruct:
            return trial.get("max_entry_error", math.inf) / (10.0 * tol.abs_tol)
        return 0.0 if trial["got"] == trial["expected"] else 1.0

    def run(n_samples: int, seed: int, tol: ToleranceConfig) -> PropertyReport:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        instances = max(1, n_samples // 10)
        max_residual, _, first = seeded_scan(
            trials(instances, seed, tol),
            lambda trial: residual(trial, tol),
            1.0 if reconstruct else _indicator(tol),
        )
        return PropertyReport(
            name=name,
            samples_run=instances if reconstruct else 3 * instances,
            passed=first is None,
            max_residual=max_residual,
            first_counterexample=None if first is None else _describe(*first),
            seed=seed,
        )

    return Check(name=name, run=run)


# ------------------------------------------------------------ matrix models


def _hermitian_maxdiff(a: Hermitian2, b: Hermitian2) -> float:
    return max(
        abs(a.a - b.a), abs(a.d - b.d), abs(a.re_b - b.re_b), abs(a.im_b - b.im_b)
    )


def _bloch_homomorphism_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    lhs = bloch_to_density(einstein_add(u, v))
    rhs = odot(bloch_to_density(u), bloch_to_density(v))
    return _hermitian_maxdiff(lhs, rhs) / (gamma(u) * gamma(v)) ** 2


def _det_normalization_residual(inputs: dict, tol: ToleranceConfig) -> float:
    u, v = inputs["u"], inputs["v"]
    da, db = bloch_to_density(u), bloch_to_density(v)
    lhs = normalize_det(odot(da, db))
    rhs = boxdot(normalize_det(da), normalize_det(db))
    scale = 1.0 + max(abs(lhs.a), abs(lhs.d), abs(lhs.re_b), abs(lhs.im_b))
    return _hermitian_maxdiff(lhs, rhs) / (scale * (gamma(u) * gamma(v)) ** 2)


def _transported_automorphism_residual(inputs: dict, tol: ToleranceConfig) -> float:
    q, u, v = inputs["q"], inputs["u"], inputs["v"]

    def transported(m):
        return bloch_to_density(GyroVector(q @ density_to_bloch(m).coords))

    da, db = bloch_to_density(u), bloch_to_density(v)
    lhs = transported(odot(da, db))
    rhs = odot(transported(da), transported(db))
    return _hermitian_maxdiff(lhs, rhs) / (gamma(u) * gamma(v)) ** 2


def _random_posdef(rng: np.random.Generator, max_log_cond: float) -> Hermitian2:
    lam_big = 10.0 ** float(rng.uniform(-2.0, 2.0))
    lam_small = lam_big / 10.0 ** float(rng.uniform(0.0, max_log_cond))
    g = rng.standard_normal(4)
    v = np.array([complex(g[0], g[1]), complex(g[2], g[3])])
    v /= np.linalg.norm(v)
    spread = lam_big - lam_small
    b = spread * v[0] * v[1].conjugate()
    return Hermitian2(
        lam_small + spread * abs(v[0]) ** 2,
        lam_small + spread * abs(v[1]) ** 2,
        float(b.real),
        float(b.imag),
    )


def _draw_posdef(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"h": _random_posdef(s.rng, 4.0)}


def _sqrt_squares_back_residual(inputs: dict, tol: ToleranceConfig) -> float:
    h = inputs["h"]
    root = sqrt_posdef2(h)
    if not is_positive_definite(root):
        return math.inf
    squared = sqrt_congruence(h, _IDENTITY2)
    scale = 1.0 + max(abs(h.a), abs(h.d), abs(h.re_b), abs(h.im_b))
    return _hermitian_maxdiff(squared, h) / scale


def _draw_posdef_pair(s: BallSampler, tol: ToleranceConfig) -> dict:
    return {"h1": _random_posdef(s.rng, 2.0), "h2": _random_posdef(s.rng, 2.0)}


def _boxdot_det_residual(inputs: dict, tol: ToleranceConfig) -> float:
    h1, h2 = inputs["h1"], inputs["h2"]
    product = sqrt_congruence(h1, h2)
    expected = h1.det * h2.det
    return abs(product.det - expected) / expected


# ----------------------------------------------------------------- registry


def _abs_tol(tol: ToleranceConfig) -> float:
    return tol.abs_tol


def _rel_tol(tol: ToleranceConfig) -> float:
    return tol.rel_tol


def _indicator(tol: ToleranceConfig) -> float:
    return 0.5


def _build_registry() -> dict[str, Check]:
    checks = [
        _sampled_check(
            "closure", _CORE_DIMS, _draw_pair, _closure_residual,
            lambda tol: 1.0 - DEFAULT_BOUNDARY_MARGIN, shrink=False,
        ),
        _sampled_check("identity", _CORE_DIMS, _draw_single, _identity_residual, _abs_tol),
        _sampled_check("left_inverse", _CORE_DIMS, _draw_single, _left_inverse_residual, _abs_tol),
        _sampled_check(
            "left_cancellation", _CORE_DIMS, _draw_pair, _left_cancellation_residual, _abs_tol
        ),
        _sampled_check("gamma_identity", _CORE_DIMS, _draw_pair, _gamma_identity_residual, _rel_tol),
        _sampled_check(
            "gyration_orthogonality", _CORE_DIMS, _draw_gyration_inputs,
            _gyration_orthogonality_residual, _rel_tol,
        ),
        _sampled_check(
            "gyrocommutativity", _CORE_DIMS, _draw_gyrocommutativity_inputs,
            _gyrocommutativity_residual, _abs_tol,
        ),
        _sampled_check(
            "one_parameter_subgroup", _CORE_DIMS, _draw_line_params, _one_parameter_residual,
            _abs_tol,
        ),
        _sampled_check(
            "commutes_iff_dependent", _CORE_DIMS, _draw_commutation_inputs,
            _commutes_iff_dependent_residual, _indicator, shrink=False,
        ),
        _sampled_check(
            "collinearity_equivalence", _PLANE_DIMS, _draw_collinearity_inputs,
            _collinearity_residual, _indicator, shrink=False,
        ),
        _sampled_check(
            "left_translation_isometry", _CORE_DIMS, _draw_triple, _isometry_residual,
            lambda tol: 10.0 * tol.rel_tol,
        ),
        _sampled_check("klein_distance_metric", _CORE_DIMS, _draw_pair, _metric_residual, _abs_tol),
        _sampled_check(
            "line_translation_distance", _CORE_DIMS, _draw_line_distance,
            _line_distance_residual, _rel_tol,
        ),
        _sampled_check(
            "endomorphism_fixes_zero", _CORE_DIMS, _draw_orthogonal_pair, _fixes_zero_residual,
            _abs_tol, shrink=False,
        ),
        _sampled_check(
            "orthogonal_endomorphism", _CORE_DIMS, _draw_orthogonal_pair,
            _orthogonal_endomorphism_residual, _abs_tol,
        ),
        _sampled_check(
            "orthogonal_residual_bound", _CORE_DIMS, _draw_orthogonal_pair,
            _orthogonal_residual_bound_residual, lambda tol: 1.0, rmax=0.9,
        ),
        _classifier_check("classifier_soundness", reconstruct=False),
        _classifier_check("classifier_reconstruction", reconstruct=True),
        _sampled_check(
            "bloch_homomorphism", _MODEL_DIMS, _draw_pair, _bloch_homomorphism_residual,
            _rel_tol, rmax=_MODEL_RMAX,
        ),
        _sampled_check(
            "det_normalization_homomorphism", _MODEL_DIMS, _draw_pair,
            _det_normalization_residual, _rel_tol, rmax=_MODEL_RMAX,
        ),
        _sampled_check(
            "sqrt_squares_back", (2,), _draw_posdef, _sqrt_squares_back_residual, _rel_tol,
            shrink=False,
        ),
        _sampled_check(
            "boxdot_det_multiplicative", (2,), _draw_posdef_pair, _boxdot_det_residual, _rel_tol,
            shrink=False,
        ),
        _sampled_check(
            "transported_automorphism", _MODEL_DIMS, _draw_orthogonal_pair,
            _transported_automorphism_residual, _rel_tol, rmax=_MODEL_RMAX,
        ),
    ]
    registry = {}
    for check in checks:
        if check.name in registry:
            raise RuntimeError(f"duplicate property name {check.name!r}")
        registry[check.name] = check
    return registry


_REGISTRY = _build_registry()


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
    return [_REGISTRY[name].run(n_samples, seed, tol) for name in names]
