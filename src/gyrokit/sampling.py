"""Seeded sampling inside the ball, the one residual scan loop, and the
report type and JSON formatting for property runs.

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

from .ball import DEFAULT_BOUNDARY_MARGIN, DEFAULT_SAMPLE_RMAX, GyroVector, _norm


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


def seeded_scan(
    inputs: Iterable[Any],
    residual: Callable[[Any], float],
    cutoff: float,
) -> tuple[float, Any, tuple[Any, float] | None]:
    """Evaluate the residual of each input, in order.

    Returns the largest residual, the input that gave it, and the first
    (input, residual) pair over the cutoff, or None when none exceeds it.
    A NaN residual counts as over the cutoff and as the largest; the first
    one seen stays the maximum.
    Errors raised while drawing an input or evaluating its residual
    propagate.  An empty scan would pass vacuously, so it is rejected.
    """
    max_residual = -math.inf
    worst = first = None
    scanned = False
    for item in inputs:
        scanned = True
        r = residual(item)
        if r > max_residual or (math.isnan(r) and not math.isnan(max_residual)):
            max_residual, worst = r, item
        if first is None and not r <= cutoff:
            first = (item, r)
    if not scanned:
        raise ValueError("n_samples must be >= 1: nothing to scan")
    return max_residual, worst, first


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
