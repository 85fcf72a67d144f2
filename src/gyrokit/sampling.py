"""Seeded sampling inside the ball, the one residual scan loop, the one
report builder, and the report type and JSON formatting for property runs.

Every scan reads Rows blocks (_blocks): inputs held column-wise, each
block scored by a row residual as one array.  This is the one module that
draws.  Points are drawn per block: each point's generator calls in turn,
the rest once on the block, and a zero direction replayed
(BallSampler._block).  Inputs that refuse candidates are drawn in stages
(_staged): a refused candidate is refused by mask and redrawn where the
one-input draw redrew it, once the generator is rewound to the round's
start and the calls of the candidates kept are made again.  The
classifier's scans alone draw a block in two calls (BallSampler.block_rows).

Shared by the verifier harness, the morphism checks and the CLI; kept in
its own module so all of them can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .ball import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_SAMPLE_RMAX,
    GyroVector,
    _checked_rows,
    _guard_rows,
)

# inputs held and scored per residual array, which bounds a scan's memory at any
# budget; also the largest Rows block a row producer yields
SCAN_CHUNK = 256


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit child seed for a named sub-stream of a master seed."""
    digest = hashlib.sha256(f"{operator.index(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class BallSampler:
    """Reproducible source of points with norm <= rmax.

    Directions come from normalized Gaussians, radii from rmax * U^(1/dim),
    which together are uniform on the ball of radius rmax.  The underlying
    `rng` is public so callers can draw auxiliary values (angles, scalars)
    from the same deterministic stream.
    """

    def __init__(self, seed: int, dim: int, rmax: float = DEFAULT_SAMPLE_RMAX):
        dim, seed = operator.index(dim), operator.index(seed)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        # a radius at or past the guard would draw points that it refuses
        if not 0.0 < rmax < 1.0 - DEFAULT_BOUNDARY_MARGIN:
            raise ValueError(f"rmax must be in (0, 1 - {DEFAULT_BOUNDARY_MARGIN:g}), got {rmax!r}")
        self.seed = seed
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
        # the points of _point results as rows (see _scale)
        return self._scale([g for g, _ in draws], [u for _, u in draws])

    def _scale(self, directions, uniforms: list) -> np.ndarray:
        # rows from Gaussian directions and the uniforms (Python floats) behind
        # their radii, scaled with a Python float's power, which np.power does not match
        directions = np.reshape(directions, (len(uniforms), self.dim))
        norm2 = np.vecdot(directions, directions)
        if not norm2.all():
            raise _ZeroDirection
        radii = self.rmax * np.array([u ** (1.0 / self.dim) for u in uniforms])
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

    def block_rows(self, n: int) -> np.ndarray:
        """n points as the rows of an (n, dim) array, drawn as one Gaussian and
        one uniform block, not as sample_rows(n) draws them; a zero direction
        is redrawn by mask, on its row alone, in row order."""
        if operator.index(n) < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        directions, uniforms = self.rng.standard_normal((n, self.dim)), self.rng.random(n)
        while not (norm2 := np.vecdot(directions, directions)).all():
            zero = norm2 == 0.0
            directions[zero] = self.rng.standard_normal((np.count_nonzero(zero), self.dim))
        return _checked_rows(self._scale(directions, uniforms.tolist()))


class _ZeroDirection(Exception):
    """A block met a zero Gaussian direction (see BallSampler._block)."""


class Rows(dict):
    """Scan inputs held column-wise: each value is an array whose first
    axis runs over the inputs.  A column of vectors (a 2-D array) holds
    ball points, the inputs that shrinking halves."""

    def row(self, i: int) -> "Rows":
        """Input i, as a one-row block."""
        return Rows({key: value[i : i + 1] for key, value in self.items()})


def _point_rows(*keys: str, draw: Callable = BallSampler.sample_rows) -> Callable:
    """Row draw: n inputs as a Rows block, one point per key in turn, the
    rows of draw(sampler, count): by default each one sample()."""

    def draw_rows(s: BallSampler, n: int, tol=None) -> Rows:
        points = draw(s, len(keys) * n).reshape(n, len(keys), s.dim)
        return Rows({key: points[:, k] for k, key in enumerate(keys)})

    return draw_rows


def _blocks(draw: Callable, samplers: list, n_samples: int, tol=None) -> Iterable[Rows]:
    """n_samples inputs from each sampler in turn, as the Rows blocks of
    draw(sampler, n, tol), n at most SCAN_CHUNK."""
    for s in samplers:
        for start in range(0, n_samples, SCAN_CHUNK):
            yield draw(s, min(SCAN_CHUNK, n_samples - start), tol)


# refusals in a row after which a draw gives up
_TRIES = 10_000

# part of an input: calls(sampler, redraw) makes one candidate's RNG calls,
# build(sampler, calls) a Rows block of a list of them, and test(rows, tol)
# the mask of the candidates taken; `what` names it when a draw gives up
_Stage = namedtuple("_Stage", "calls build test what", defaults=(None, ""))


def _staged(stages: tuple, s: BallSampler, n: int, tol) -> Rows:
    """Row draw of n inputs, each a candidate of every stage in turn.

    A round draws the candidates still missing as if each were taken, and
    keeps them up to the first one out of turn, after a refusal: there it
    rewinds to the round's start and makes the kept candidates' calls again
    with redraw, the calls the round made (see BallSampler._block).  The
    next rounds draw only the refused stage, as many candidates as it has
    refused in a row, up to the first it takes.  A lone stage is never out
    of turn, so its rounds filter, and nothing past the last candidate taken
    is drawn.  The _TRIES-th refusal in a row raises RuntimeError, and a
    point the guard refuses raises its error, as the one-input draw did.
    """
    kept, turn, streak, missing = [[] for _ in stages], 0, 0, n * len(stages)
    while missing:
        if streak and len(stages) > 1:  # the refused stage again, more the longer it refuses
            order = [turn] * min(streak, SCAN_CHUNK)
        else:
            order = [(turn + j) % len(stages) for j in range(missing)]
        start = s.rng.bit_generator.state

        def build(drawn: list) -> dict:
            return {k: stages[k].build(s, [c for c, m in zip(drawn, order) if m == k])
                    for k in set(order)}

        blocks = s._block(lambda redraw: [stages[k].calls(s, redraw) for k in order], build)
        # per candidate of a stage: taken, and accepted by the guard in every point
        verdicts = {}
        for k, block in blocks.items():
            points = np.stack([v for v in block.values() if v.ndim == 2], axis=1)
            ok = _guard_rows(points)[1].all(axis=1)
            takes = stages[k].test(block, tol) if stages[k].test else True
            verdicts[k] = np.broadcast_to(takes, ok.shape).tolist(), ok.tolist(), points
        taken, seen = {k: [] for k in blocks}, dict.fromkeys(blocks, 0)
        for j, k in enumerate(order):
            if k != turn:  # after a refusal, or after the retry a stage took
                s.rng.bit_generator.state = start
                for m in order[:j]:
                    stages[m].calls(s, True)
                break
            take, ok, points = verdicts[k]
            i, seen[k] = seen[k], seen[k] + 1
            if not ok[i]:
                _checked_rows(points[i])  # raises for the first point refused
            if take[i]:
                taken[k].append(i)
                turn, streak, missing = (k + 1) % len(stages), 0, missing - 1
            else:
                streak += 1
                if streak == _TRIES:
                    raise RuntimeError(f"failed to draw {stages[k].what}")
        for k, block in blocks.items():
            kept[k].append(Rows({key: value[taken[k]] for key, value in block.items()}))
    return Rows({key: np.concatenate([b[key] for b in part]) for part in kept for key in part[0]})


def _points_stage(*keys: str, test: Callable | None = None, what: str = "") -> _Stage:
    # a candidate of one sampled point per key in turn
    def build(s: BallSampler, drawn: list) -> Rows:
        points = s._scaled([point for candidate in drawn for point in candidate])
        return Rows({key: points[k :: len(keys)] for k, key in enumerate(keys)})

    return _Stage(lambda s, redraw: [s._point(redraw) for _ in keys], build, test, what)


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
        seed=operator.index(seed),
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
