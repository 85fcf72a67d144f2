"""Seeded sampling inside the ball, the one residual scan loop, the one
report builder, and the report type for property runs.

Every scan reads Rows blocks (_blocks): inputs held column-wise, each
block scored by a row residual as one array.  This is the one module that
draws, and every draw is a block draw: a block of points is one Gaussian
generator call, scaled by sqrt and division alone, so no point depends on
libm.  Inputs that refuse candidates are drawn in stages (_staged): a
block of candidates is filtered by a mask, and only the shortfall is drawn
again.

Shared by the verifier harness and the morphism checks; kept in its own
module so both can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import namedtuple
from typing import Callable, Iterable

import numpy as np

from .ball import (
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_SAMPLE_RMAX,
    GyroVector,
    _checked_rows,
    _dot,
    _guard_rows,
    _Record,
    json_ready,
)

# inputs held and scored per residual array, which bounds a scan's memory at any
# budget; also the largest Rows block a row producer yields.  1024 makes each
# property one block at the default budget of 1000 samples, so numpy's per-call
# cost is paid once per dimension, not four times
SCAN_CHUNK = 1024


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit child seed for a named sub-stream of a master seed."""
    digest = hashlib.sha256(f"{operator.index(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class BallSampler:
    """Reproducible source of points with norm <= rmax.

    A point is the first dim coordinates of a standard Gaussian vector in
    dim + 2 dimensions, divided by that vector's norm and scaled by rmax,
    which is uniform on the ball of radius rmax (Barthe, Guedon, Mendelson
    and Naor, Ann. Probab. 33(2), 2005).  The underlying `rng` is public so
    callers can draw auxiliary values (angles, scalars) from the same
    deterministic stream.
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

    def sample(self) -> GyroVector:
        """One point: the row of sample_rows(1)."""
        return GyroVector._owned(self.sample_rows(1)[0])

    def sample_rows(self, n: int) -> np.ndarray:
        """n points as the rows of an (n, dim) array: one standard_normal((n,
        dim + 2)) block, an all-zero row redrawn by mask."""
        if (n := operator.index(n)) < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        g = self.rng.standard_normal((n, self.dim + 2))
        while not (norm2 := _dot(g, g)).all():
            zero = norm2 == 0.0
            g[zero] = self.rng.standard_normal((np.count_nonzero(zero), self.dim + 2))
        return _checked_rows((self.rmax / np.sqrt(norm2))[:, None] * g[:, : self.dim])


class Rows(dict):
    """Scan inputs held column-wise: each value is an array whose first
    axis runs over the inputs.  A column of vectors (a 2-D array) holds
    ball points, the inputs that shrinking halves."""


def _point_rows(*keys: str) -> Callable:
    """Row draw: n inputs as a Rows block, one point per key in turn, the
    rows of one sample_rows block."""

    def draw_rows(s: BallSampler, n: int, tol=None) -> Rows:
        points = s.sample_rows(len(keys) * n).reshape(n, len(keys), s.dim)
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

# part of an input: draw(sampler, n, tol) a Rows block of n candidates, and
# test(rows, tol) the mask of those taken; `what` names it when a draw gives up
_Stage = namedtuple("_Stage", "draw test what", defaults=(None, ""))


def _staged(stages: tuple, s: BallSampler, n: int, tol) -> Rows:
    """Row draw of n inputs, each a candidate of every stage.

    Each stage in turn draws blocks of the candidates it still misses, and
    keeps, in order, those its test takes whose every point the guard
    accepts.  The _TRIES-th refusal in a row, counted across blocks,
    raises RuntimeError.
    """
    rows = Rows()
    for stage in stages:
        kept, missing, streak = [], n, 0
        while missing:
            block = stage.draw(s, missing, tol)
            points = np.stack([v for v in block.values() if v.ndim == 2], axis=1)
            takes = _guard_rows(points)[1].all(axis=1)
            if stage.test:
                takes &= stage.test(block, tol)
            # the refusals in a row before, between and after the rows taken
            runs = np.diff(np.flatnonzero(np.r_[True, takes, True])) - 1
            runs[0] += streak
            if runs.max() >= _TRIES:
                raise RuntimeError(f"failed to draw {stage.what}")
            kept.append(Rows({key: value[takes] for key, value in block.items()}))
            missing, streak = missing - np.count_nonzero(takes), runs[-1]
        rows.update({key: np.concatenate([b[key] for b in kept]) for key in kept[0]})
    return rows


def seeded_scan(
    blocks: Iterable[Rows],
    residual: Callable[[Rows], np.ndarray],
    cutoff: float | np.ndarray,
) -> tuple:
    """Evaluate the residual of each input, in order, for one map or a stack of k.

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

    A stack of k maps scores each block as a (k, m) array, its row j map
    j's residuals, and holds in each column of a block the (k, m, ...)
    inputs of the k maps.  Each row is reduced by the rules above, against
    cutoff, one float or one per map, and the result holds the k maps'
    values at once: the list of their maxima; the worst inputs as Rows
    whose columns hold map j's one-row block at j; the first inputs over
    the cutoff, likewise (None while no map has one), with the list of
    their residuals, None for a map with none over; and the count per
    map.  A 1-D residual is the stack of k = 1, returned unstacked.  Only
    the inputs returned are copied out of a block, so a scan holds one
    block at a time.
    """
    scanned, worst, first = 0, None, None
    for block in blocks:
        residuals = residual(block)
        if flat := residuals.ndim == 1:
            residuals = residuals[None]
        if not scanned:
            stack = np.arange(len(residuals))
            cutoffs = (np.zeros(len(stack)) + cutoff).tolist()
            maxima, firsts, largest = [-math.inf] * len(stack), [None] * len(stack), -math.inf
        scanned += residuals.shape[1]
        # NaN is the maximum of a row that holds one, and a map's largest
        # residual is at or under its cutoff until one input is over it: a
        # block whose rows' maxima stay at or under the largest changes nothing
        top = residuals.max(axis=1)
        if np.count_nonzero(top <= largest) == len(stack):
            continue
        top = top.tolist()
        better = [r > m or r != r and m == m for r, m in zip(top, maxima)]
        new = [f is None and not r <= c for r, c, f in zip(top, cutoffs, firsts)]
        if flat:
            block = Rows({key: value[None] for key, value in block.items()})
        if any(better):
            # argmax returns each row's first NaN if there is one, else its first maximum
            i = np.argmax(residuals, axis=1)
            values = residuals[stack, i].tolist()
            maxima = [r if b else m for r, b, m in zip(values, better, maxima)]
            largest = np.array(maxima)
            worst = _inputs_at(block, stack, i, better, worst)
        if any(new):
            i = np.argmax(~(residuals <= np.array(cutoffs)[:, None]), axis=1)
            values = residuals[stack, i].tolist()
            firsts = [r if b else f for r, b, f in zip(values, new, firsts)]
            first = _inputs_at(block, stack, i, new, first)
    if not scanned:
        raise ValueError("n_samples must be >= 1: nothing to scan")
    if not flat:
        return maxima, worst, (first, firsts), scanned
    if worst is not None:
        worst = Rows({key: value[0] for key, value in worst.items()})
    if first is not None:
        first = Rows({key: value[0] for key, value in first.items()}), firsts[0]
    return maxima[0], worst, first, scanned


def _inputs_at(block: Rows, stack: np.ndarray, i, take: list, held: Rows | None) -> Rows:
    # per map j, its input i[j] of block as a one-row block where take holds,
    # else its input in held: copies, so that no block outlives its scan step
    picked = Rows({key: value[stack, i, None] for key, value in block.items()})
    if held is None or all(take):
        return picked
    for key, value in held.items():
        value[take] = picked[key][take]
    return held


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


class PropertyReport(_Record):
    """Outcome of one seeded randomized property run.

    `seed` is the master seed the caller passed in, i.e. what you need to
    reproduce the run; sub-streams are derived from it internally.
    `first_counterexample` is None on success, otherwise a JSON-ready dict
    of the (shrunk) failing inputs plus their residual.
    """

    __slots__ = _fields = (
        "name", "samples_run", "passed", "max_residual", "first_counterexample", "seed"
    )

    def __init__(
        self,
        name: str,
        samples_run: int,
        passed: bool,
        max_residual: float,
        first_counterexample: dict | None,
        seed: int,
    ) -> None:
        self._set(name, samples_run, passed, max_residual, first_counterexample, seed)

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
