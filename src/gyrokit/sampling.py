"""Seeded sampling inside the ball, the one residual scan loop, the one
report builder, and the report type and JSON formatting for property runs.

Shared by the verifier harness, the morphism checks and the CLI; kept in
its own module so all of them can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .ball import DEFAULT_BOUNDARY_MARGIN, DEFAULT_SAMPLE_RMAX, GyroError, GyroVector, _norm


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit child seed for a named sub-stream of a master seed."""
    digest = hashlib.sha256(f"{int(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class BallSampler:
    """Reproducible source of points with norm <= rmax.

    Directions come from normalized Gaussians, radii from rmax * U^(1/dim),
    which together are uniform on the ball of radius rmax.  The underlying
    `rng` is public so callers can draw auxiliary values (angles, scalars)
    from the same deterministic stream.
    """

    def __init__(self, seed: int, dim: int, rmax: float = DEFAULT_SAMPLE_RMAX):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        # a radius at or past the guard would draw points that it refuses
        if not 0.0 < rmax < 1.0 - DEFAULT_BOUNDARY_MARGIN:
            raise ValueError(f"rmax must be in (0, 1 - {DEFAULT_BOUNDARY_MARGIN:g}), got {rmax!r}")
        self.seed = int(seed)
        self.dim = dim
        self.rmax = float(rmax)
        self.rng = np.random.default_rng(self.seed)

    def sample(self) -> GyroVector:
        direction = self.rng.standard_normal(self.dim)
        length = _norm(direction)
        while length == 0.0:  # probability zero, but never divide by it
            direction = self.rng.standard_normal(self.dim)
            length = _norm(direction)
        # random() is the draw uniform() would make, without its 0 + 1 * x
        radius = self.rmax * self.rng.random() ** (1.0 / self.dim)
        return GyroVector._owned((radius / length) * direction)


def _score(residual: Callable[[Any], float], item: Any) -> float:
    # an input whose residual leaves the ball fails: every scan's one error policy
    try:
        return float(residual(item))
    except GyroError:
        return math.inf


def seeded_scan(
    inputs: Iterable[Any],
    residual: Callable[[Any], float],
    cutoff: float,
) -> tuple[float, Any, tuple[Any, float] | None, int]:
    """Evaluate the residual of each input, in order.

    Returns the largest residual, the input that gave it, the first
    (input, residual) pair over the cutoff, or None when none exceeds it,
    and the number of inputs scanned.
    A residual that raises GyroError scores inf.  A NaN residual counts as
    over the cutoff and as the largest; the first one seen stays the
    maximum.  Other errors, and any raised while drawing an input,
    propagate.  An empty scan would pass vacuously, so it is rejected.
    """
    max_residual = -math.inf
    worst = first = None
    scanned = 0
    for item in inputs:
        scanned += 1
        r = _score(residual, item)
        if r > max_residual or (math.isnan(r) and not math.isnan(max_residual)):
            max_residual, worst = r, item
        if first is None and not r <= cutoff:
            first = (item, r)
    if not scanned:
        raise ValueError("n_samples must be >= 1: nothing to scan")
    return max_residual, worst, first, scanned


def _scaled(inputs: dict, factor: float) -> dict:
    return {
        key: GyroVector._owned(factor * value.coords) if isinstance(value, GyroVector) else value
        for key, value in inputs.items()
    }


def scan_report(
    name: str, inputs: Iterable[dict], residual: Callable[[dict], float], cutoff: float, seed: int
) -> PropertyReport:
    """Scan the input dicts against the cutoff and report the outcome.

    The one place a report is built.  The first failing input is halved
    while it keeps failing, if it holds ball points, and reported with its
    residual under the key "residual".
    """
    max_residual, _, first, scanned = seeded_scan(inputs, residual, cutoff)
    if first is not None:
        best, best_r = first
        if any(isinstance(value, GyroVector) for value in best.values()):
            for _ in range(60):
                halved = _scaled(best, 0.5)
                r = _score(residual, halved)
                if r <= cutoff:  # NaN fails, as in seeded_scan
                    break
                best, best_r = halved, r
        first = json_ready({**best, "residual": best_r})
    return PropertyReport(
        name=name,
        samples_run=scanned,
        passed=first is None,
        max_residual=max_residual,
        first_counterexample=first,
        seed=seed,
    )


def json_ready(value: Any) -> Any:
    """Copy of value that json.dumps accepts, with numbers fixed for output.

    Vectors and arrays become lists, objects with to_json_dict become dicts
    and numpy scalars Python numbers.  Floats keep 15 significant digits
    with negative zero folded to 0.0; JSON has no inf/nan, so non-finite
    floats are spelled out by repr rather than crash the report.
    """
    if isinstance(value, (GyroVector, np.ndarray)):
        value = value.tolist()
    elif hasattr(value, "to_json_dict"):
        value = value.to_json_dict()
    elif isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return float(f"{value:.15g}") + 0.0 if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one seeded randomized property run.

    `seed` is the master seed the caller passed in, i.e. what you need to
    reproduce the run; sub-streams are derived from it internally.
    `first_counterexample` is None on success, otherwise a JSON-ready dict
    of the (shrunk) failing inputs plus their residual.
    """

    name: str
    samples_run: int
    passed: bool
    max_residual: float
    first_counterexample: dict | None
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "samples_run": self.samples_run,
            "passed": self.passed,
            "max_residual": json_ready(self.max_residual),
            "first_counterexample": json_ready(self.first_counterexample),
            "seed": self.seed,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)
