"""Seeded sampling inside the ball, the one residual scan loop, the one
report builder, and the report type and JSON formatting for property runs.

Every scan reads Rows blocks: inputs held column-wise, each block scored
by a row residual as one array.  Points are drawn per block: each
point's generator calls in turn, the rest once on the block, and a zero
direction replayed (BallSampler._block).

Shared by the verifier harness, the morphism checks and the CLI; kept in
its own module so all of them can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .ball import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_SAMPLE_RMAX,
    GyroVector,
    _checked_rows,
)

# inputs held and scored per residual array, which bounds a scan's memory at any
# budget; also the largest Rows block a row producer yields
SCAN_CHUNK = 256


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

    def _point(self, redraw: bool = False) -> tuple[np.ndarray, float]:
        # one point's RNG calls: a Gaussian direction, redrawn in place while
        # zero if asked (_scaled raises _ZeroDirection otherwise), then the
        # uniform behind the radius, the draw uniform() would make
        direction = self.rng.standard_normal(self.dim)
        while redraw and not direction.dot(direction):
            direction = self.rng.standard_normal(self.dim)
        return direction, self.rng.random()

    def _scaled(self, draws: list) -> np.ndarray:
        # the points of _point results as rows, scaled as one point is, with
        # a Python float's power, which np.power does not match
        directions = np.reshape([g for g, _ in draws], (len(draws), self.dim))
        norm2 = np.vecdot(directions, directions)
        if not norm2.all():
            raise _ZeroDirection
        radii = self.rmax * np.array([u ** (1.0 / self.dim) for _, u in draws])
        return (radii / np.sqrt(norm2))[:, None] * directions

    def _block(self, draw: Callable[[bool], Any], build: Callable[[Any], Any]) -> Any:
        """build(draw(False)): a block's RNG calls made lean, the rest done
        once on the block.  At a zero direction the calls are made again
        from the state they started in with draw(True), which meets the
        zero again and redraws it in place, as the one-point draw does."""
        state = self.rng.bit_generator.state
        try:
            return build(draw(False))
        except _ZeroDirection:
            self.rng.bit_generator.state = state
            return build(draw(True))

    def sample(self) -> GyroVector:
        """One point: the row of sample_rows(1)."""
        return GyroVector._owned(self.sample_rows(1)[0])

    def sample_rows(self, n: int) -> np.ndarray:
        """n points as the rows of an (n, dim) array, drawn as a block."""
        if operator.index(n) < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        points = self._block(lambda redraw: [self._point(redraw) for _ in range(n)], self._scaled)
        return _checked_rows(points)


class _ZeroDirection(Exception):
    """A block met a zero Gaussian direction (see BallSampler._block)."""


class Rows(dict):
    """Scan inputs held column-wise: each value is an array whose first
    axis runs over the inputs.  A column of vectors (a 2-D array) holds
    ball points, the inputs that shrinking halves."""

    def row(self, i: int) -> "Rows":
        """Input i, as a one-row block."""
        return Rows({key: value[i : i + 1] for key, value in self.items()})


def _point_rows(*keys: str) -> Callable:
    """Row draw: n inputs as a Rows block, each one sample() per key in turn."""

    def draw_rows(s: BallSampler, n: int, tol=None) -> Rows:
        points = s.sample_rows(len(keys) * n).reshape(n, len(keys), s.dim)
        return Rows({key: points[:, k] for k, key in enumerate(keys)})

    return draw_rows


def seeded_scan(
    blocks: Iterable[Rows],
    residual: Callable[[Rows], np.ndarray],
    cutoff: float,
) -> tuple[float, Rows, tuple[Rows, float] | None, int]:
    """Evaluate the residual of each input, in order.

    Inputs come in Rows blocks of at most SCAN_CHUNK rows, each scored by
    residual(block) as one array, which scores inf where an input leaves
    the ball.  Returns the largest residual, the input that gave it, the
    first (input, residual) pair over the cutoff, or None when none
    exceeds it, and the number of inputs scanned; an input is returned as
    its one-row block.
    A NaN residual counts as over the cutoff and as the largest; the first
    one seen stays the maximum, as does the first of equal maxima.  Errors,
    whether raised while drawing or while scoring a block, propagate.  An
    empty scan would pass vacuously, so it is rejected.
    """
    max_residual = -math.inf
    worst = first = None
    scanned = 0
    for block in blocks:
        residuals = residual(block)
        # argmax returns the first NaN if there is one, else the first maximum
        i = int(np.argmax(residuals))
        r = float(residuals[i])
        if r > max_residual or (math.isnan(r) and not math.isnan(max_residual)):
            max_residual, worst = r, block.row(i)
        if first is None:
            over = ~(residuals <= cutoff)
            if over.any():
                i = int(np.argmax(over))
                first = (block.row(i), float(residuals[i]))
        scanned += len(residuals)
    if not scanned:
        raise ValueError("n_samples must be >= 1: nothing to scan")
    return max_residual, worst, first, scanned


def _block_sizes(n_samples: int) -> Iterator[int]:
    """Row counts of the Rows blocks that cover n_samples inputs."""
    return (min(SCAN_CHUNK, n_samples - start) for start in range(0, n_samples, SCAN_CHUNK))


def scan_report(
    name: str, blocks: Iterable[Rows], residual: Callable, cutoff: float, seed: int
) -> PropertyReport:
    """Scan the blocks against the cutoff and report the outcome.

    The one place a report is built.  The first failing input is halved,
    as a one-row block scored by the same row residual, while it keeps
    failing, if it holds ball points, and reported with its residual under
    the key "residual".
    """
    max_residual, _, first, scanned = seeded_scan(blocks, residual, cutoff)
    if first is not None:
        best, best_r = first
        if any(v.ndim == 2 for v in best.values()):
            for _ in range(60):
                halved = Rows({k: 0.5 * v if v.ndim == 2 else v for k, v in best.items()})
                r = float(residual(halved)[0])
                if r <= cutoff:  # NaN fails, as in seeded_scan
                    break
                best, best_r = halved, r
        first = json_ready({**{key: value[0] for key, value in best.items()}, "residual": best_r})
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
    and numpy scalars Python scalars.  Floats keep 15 significant digits
    with negative zero folded to 0.0; JSON has no inf/nan, so non-finite
    floats are spelled out by repr rather than crash the report.
    """
    if isinstance(value, (GyroVector, np.ndarray)):
        value = value.tolist()
    elif hasattr(value, "to_json_dict"):
        value = value.to_json_dict()
    elif isinstance(value, np.generic):
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
