"""Fixed reference loops that in-process times are divided by.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the speed of
code drifted by up to 2x over tens of seconds, so raw times from runs
minutes apart differed by more than any useful regression bound.  Timing a
reference loop right beside each measured piece of work and dividing gives
the work's cost in reference loops ("ref"), which cancels most of the drift.
No loop uses gyrokit code, so a change to gyrokit cannot move it.

Each in-process workload uses the loop that tracked it best; quartile
spread / median of the end-to-end metrics over ten seeds:

  ops-stream  python_loop_ns: 0.02-0.05 and 0.01-0.10 in two sets,
              against 0.04-0.13 with vector_loop_ns
  verify-all  vector_loop_ns (20 velocity additions on small numpy vectors):
              throughput 0.05 and 0.03 in two sets, against 0.11 with
              python_loop_ns; timed every 20 ms during each property run
              by LoopSampler, which cut the run-to-run coefficient of
              variation of the longer properties' times from 0.10-0.17
              to 0.05-0.08 against loops timed only before and after

cli-oneshot, which times whole processes, uses a bare interpreter start
instead (see worker.py).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

STEPS = 20


class _Point:
    __slots__ = ("coords", "norm2")

    def __init__(self, coords):
        v = np.asarray(coords, dtype=float)
        self.coords = v
        self.norm2 = float(v @ v)


def _step(x: float) -> float:
    return math.sqrt(x * x + 1.0) / (1.0 + x)


def python_loop_ns() -> int:
    """Duration of one pure-Python reference loop: 500 calls of a float step."""
    start = time.perf_counter_ns()
    total = 0.0
    for i in range(500):
        total += _step((i % 7) * 0.125)
    return time.perf_counter_ns() - start


def vector_loop_ns() -> int:
    """Duration of one small-vector reference loop."""
    start = time.perf_counter_ns()
    a, b = _Point([0.1, 0.2, 0.3]), _Point([0.3, -0.1, 0.2])
    for _ in range(STEPS):
        uv = float(a.coords @ b.coords)
        s = math.sqrt(1.0 - a.norm2)
        out = (a.coords + s * b.coords + (uv / (1.0 + s)) * a.coords) / (1.0 + uv)
        b = _Point(0.5 * out)
        float(np.linalg.norm(b.coords))
    return time.perf_counter_ns() - start


def reference_ns(repeats: int) -> float:
    """Median duration of `repeats` back-to-back small-vector reference loops."""
    return statistics.median(vector_loop_ns() for _ in range(repeats))


class LoopSampler:
    """Times one small-vector loop every `interval` seconds while entered.

    The loops run from a SIGALRM handler, in the middle of whatever work is
    being timed.  The machine's speed changes within seconds, so a property
    run of a few seconds is divided by the mean of the loops timed while it
    ran, not by loops timed only at its ends.  `busy_ns` adds up the time
    the handler took, which the caller takes out of the work's time.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.loops: list[int] = []
        self.busy_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.loops.append(vector_loop_ns())
        self.busy_ns += time.perf_counter_ns() - start

    def __enter__(self) -> "LoopSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
