"""Call counts and self time of the gyrokit functions named in TARGETS.

Wrappers are installed from outside the package by setting attributes:
methods on their class, functions under their name in every loaded gyrokit
module that imported them.  The self time of a call is its duration minus
the time spent in the traced calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric prefix -> (defining module, attribute path)
TARGETS = {
    "ball.GyroVector": ("gyrokit.ball", "GyroVector.__init__"),
    "ball.einstein_add": ("gyrokit.ball", "einstein_add"),
    "ball.gamma": ("gyrokit.ball", "gamma"),
    "ball.gyration": ("gyrokit.ball", "gyration"),
    "ball.line_param": ("gyrokit.ball", "line_param"),
    "ball.neg": ("gyrokit.ball", "neg"),
    "geometry.klein_distance": ("gyrokit.geometry", "klein_distance"),
    "geometry.commutes": ("gyrokit.geometry", "commutes"),
    "geometry.collinear_gyro": ("gyrokit.geometry", "collinear_gyro"),
    "geometry.collinear_direct": ("gyrokit.geometry", "collinear_direct"),
    "sampling.BallSampler.sample": ("gyrokit.sampling", "BallSampler.sample"),
    "morphisms.classify_endomorphism": ("gyrokit.morphisms", "classify_endomorphism"),
    "morphisms.random_orthogonal": ("gyrokit.morphisms", "random_orthogonal"),
    "morphisms.BallMap.__call__": ("gyrokit.morphisms", "BallMap.__call__"),
    "morphisms.endomorphism_residual": ("gyrokit.morphisms", "endomorphism_residual"),
    "matrix_models.bloch_to_density": ("gyrokit.matrix_models", "bloch_to_density"),
    "matrix_models.odot": ("gyrokit.matrix_models", "odot"),
    "matrix_models.sqrt_congruence": ("gyrokit.matrix_models", "sqrt_congruence"),
    "matrix_models.normalize_det": ("gyrokit.matrix_models", "normalize_det"),
}


def _install(module_name: str, path: str, make_wrapper):
    """Replace the target by make_wrapper(original); return a function undoing it."""
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(sys.modules[module_name], owner_name)
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        return lambda: setattr(owner, attr, original)
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    holders = [
        module
        for name, module in list(sys.modules.items())
        if (name == "gyrokit" or name.startswith("gyrokit."))
        and module is not None
        and vars(module).get(attr) is original
    ]
    for module in holders:
        setattr(module, attr, wrapper)

    def undo():
        for module in holders:
            setattr(module, attr, original)

    return undo


class Tracer:
    """Per-target call counts and self time, accumulated while installed."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self._stack = [0]  # traced time of the children of each open call
        self._undo = []

    def _wrap(self, name: str, fn):
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1

        return traced

    def install(self) -> None:
        for name, (module, path) in TARGETS.items():
            self._undo.append(_install(module, path, functools.partial(self._wrap, name)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.self_ns)


def corrupt_einstein_add():
    """Scale every einstein_add result by 1 - 1e-6, for the harness self-test.

    The benchmark's checks must count the outputs this spoils as failed.
    """
    from gyrokit import GyroVector

    def make(fn):
        @functools.wraps(fn)
        def corrupted(u, v):
            return GyroVector(fn(u, v).coords * (1.0 - 1e-6))

        return corrupted

    return _install("gyrokit.ball", "einstein_add", make)


def diff(after: dict, before: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in TARGETS}
