"""One summation order for every inner product.

ball._dot sums the rounded products left to right from +0.0, on Python
floats and on arrays alike, so its evaluations agree bit for bit: at every
length, on stacks of rows, on both sides of the array-side switch and of a
block boundary, and on all-zero products.  Each is checked against the
plain left-to-right sum written out here.  The scalar functions run on
floats below _FLOAT_DIM coordinates and on arrays from it; on both sides of
that cutoff they equal their row kernels.  And since no reported digit of
these paths goes through BLAS, child processes that force other OpenBLAS
kernels print the same bytes.
"""

import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from gyrokit import (
    DEFAULT_TOL,
    BallDomainError,
    GyroVector,
    approx_eq,
    collinear_direct,
    commutes,
    einstein_add,
    gamma,
    gram_band,
    gyration,
    klein_distance,
    line_param,
    linearly_dependent,
    neg,
)
from gyrokit.ball import (
    _COLUMN_DIM,
    _DOT_BLOCK,
    _FLOAT_DIM,
    _SLACK_CUTOFF,
    _add_rows,
    _close,
    _dot,
    _gamma_rows,
    _guard_rows,
    _gyration_rows,
    _line_param_rows,
)
from gyrokit.geometry import _commutes_rows, _gram_band_rows, _klein_distance_rows


def left_to_right(a, b) -> float:
    """a . b of two float sequences: the rounded products summed in order from +0.0."""
    total = 0.0
    for p, q in zip(a, b):
        total += p * q
    return total


def pair(rng, dim: int) -> tuple:
    # coordinates of mixed sign and of scales 1e-3 to 1e3, so that the order shows
    scale = 10.0 ** rng.uniform(-3, 3, size=(2, dim))
    return tuple(rng.standard_normal((2, dim)) * scale)


def same(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and (a == b or a != a and b != b)


class TestDot:
    @pytest.mark.parametrize("dim", range(1, 101))
    def test_float_and_array_evaluations_agree(self, dim):
        rng = np.random.default_rng(dim)
        rows = [pair(rng, dim) for _ in range(6)]
        x, y = (np.array(side) for side in zip(*rows))
        stacked = _dot(x, y)
        assert stacked.shape == (6,)
        for (a, b), row in zip(rows, stacked.tolist()):
            want = left_to_right(a.tolist(), b.tolist())
            for got in (_dot(tuple(a.tolist()), tuple(b.tolist())), _dot(a, b)):
                assert type(got) is float and same(got, want)
            assert same(row, want)

    @pytest.mark.parametrize(
        "dim", [_COLUMN_DIM - 1, _COLUMN_DIM, _COLUMN_DIM + 1, 64, 700], ids="d={}".format
    )
    @pytest.mark.parametrize("k, m", [(1, 1), (3, 7), (2, 0)])
    def test_stacks_agree_on_both_sides_of_the_switch(self, dim, k, m):
        # m = 0 stands for rows enough to cross a block of _DOT_BLOCK products
        m = m or _DOT_BLOCK // dim + 3
        rng = np.random.default_rng([dim, k, m])
        x, y = rng.standard_normal((2, k, m, dim)) * 10.0 ** rng.uniform(-3, 3, (2, k, m, dim))
        got = _dot(x, y)
        assert got.shape == (k, m)
        for xs, ys, sums in zip(x.tolist(), y.tolist(), got.tolist()):
            assert sums == [left_to_right(a, b) for a, b in zip(xs, ys)]

    @pytest.mark.parametrize("dim", [1, 3, _COLUMN_DIM + 1])
    def test_a_sum_of_zero_products_is_plus_zero(self, dim):
        # every product -0.0, or a mix: the sum starts from +0.0, as ddot does
        for signs in ([-0.0] * dim, [(-0.0, 0.0)[i % 2] for i in range(dim)]):
            a, b = np.array(signs), np.ones(dim)
            for got in (_dot(tuple(signs), (1.0,) * dim), _dot(a, b)):
                assert same(got, 0.0)
            for got in _dot(np.tile(a, (3, 1)), np.tile(b, (3, 1))).tolist():
                assert same(got, 0.0)

    def test_long_rows_build_no_square_temporary(self):
        x = np.random.default_rng(3).standard_normal((1, 400, 512))
        tracemalloc.start()
        try:
            _dot(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block of products and the sums: not even one copy of x, let alone (..., d, d)
        assert peak < x.nbytes / 2


def cutoff_points(dim: int) -> list:
    """Seeded points of dimension dim: one at each 1 - |u| = 10^-k, k = 1..8,
    and 8 spread over the ball."""
    rng = np.random.default_rng(dim)
    radii = [1.0 - 10.0**-k for k in range(1, 9)] + list(0.99 * rng.random(8))
    out = []
    for r in radii:
        g = rng.standard_normal(dim)
        out.append(GyroVector(r * g / np.linalg.norm(g)))
    return out


def row(*points: GyroVector) -> list:
    return [p.coords[None] for p in points]


def assert_kernel_row(scalar, rows_ok) -> None:
    """The scalar call's point equals the kernel's row, or both refuse it."""
    got_rows, ok = rows_ok
    try:
        point = scalar()
    except BallDomainError:
        assert not ok[0]
        return
    assert ok[0]
    assert point.coords.tobytes() == got_rows[0].tobytes()
    assert point.norm2 == _guard_rows(got_rows)[0][0]


@pytest.mark.parametrize("dim", [_FLOAT_DIM - 1, _FLOAT_DIM, _FLOAT_DIM + 1], ids="d={}".format)
def test_scalar_functions_equal_their_kernels_at_the_cutoff(dim):
    pts = cutoff_points(dim)
    w = pts[-1]
    for u, v in zip(pts, pts[3:] + pts[:3]):
        # a point read from a list and from an array holds the same squares
        assert GyroVector(u.tolist()).norm2 == u.norm2 == _dot(*row(u, u))[0]
        assert_kernel_row(lambda: einstein_add(u, v), _guarded_sum(u, v))
        assert gamma(u) == _gamma_rows(*row(u))[0]
        assert_kernel_row(lambda: gyration(u, v, w), _gyration_rows(*row(u, v, w)))
        assert klein_distance(u, v) == _klein_distance_rows(*row(u, v))[0]
        assert_kernel_row(lambda: line_param(u, 0.3), _line_param_rows(*row(u), np.array([0.3])))
        assert neg(u).coords.tobytes() == (-u.coords).tobytes()
        assert approx_eq(u, v) is bool(_close(np.maximum, u.coords, v.coords, DEFAULT_TOL).all())
        det, band = _gram_band_rows(*row(u, v), DEFAULT_TOL)
        floats = tuple(u.tolist()), tuple(v.tolist())
        assert gram_band(u.coords, v.coords) == gram_band(*floats) == (det[0], band[0])
        assert linearly_dependent(u, v) is bool(det[0] <= band[0])
        y, z = (p.coords[None] - u.coords for p in (v, w))
        det, band = _gram_band_rows(y, z, DEFAULT_TOL)
        assert collinear_direct(u, v, w) is bool(det[0] <= band[0])
        verdict, ok = _commutes_rows(*row(u, v), DEFAULT_TOL)
        try:
            assert commutes(u, v) is bool(verdict[0])
        except BallDomainError:
            assert not ok[0]


@pytest.mark.parametrize("dim", [1, 3, 5, _FLOAT_DIM - 1, _FLOAT_DIM, 64])
def test_line_param_equals_its_kernel_next_to_the_guard(dim):
    # where 1 - |x|^2 < _SLACK_CUTOFF both take atanh from the exact sum of the squares
    rng = np.random.default_rng([dim, 5])
    for gap in [1.05e-9, 2e-9, 4e-9, 7e-9, 1e-8]:
        g = rng.standard_normal(dim)
        x = GyroVector((1.0 - gap) * g / np.linalg.norm(g))
        assert 1.0 - x.norm2 < _SLACK_CUTOFF or gap == 1e-8
        for t in (-0.7, 0.03, 0.5):
            assert_kernel_row(lambda: line_param(x, t), _line_param_rows(*row(x), np.array([t])))


def _guarded_sum(u: GyroVector, v: GyroVector) -> tuple:
    w = _add_rows(*row(u, v))
    return w, _guard_rows(w)[1]


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower()


# the nine table commands at d = 2, 3 and 5, the scalar functions at d = 64,
# and the report lines of every property that draws no Haar matrix and
# applies no matrix, printed as one JSON list
_CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import numpy as np
    import gyrokit as gk
    import gyrokit.cli

    tmp, out = sys.argv[1], []
    rng = np.random.default_rng(2)

    def points(d):
        # inside the ball by the 1-norm, which numpy sums itself, on any BLAS
        return [g / (0.1 + np.abs(g).sum()) for g in rng.standard_normal((3, d))]

    for d in (2, 3, 5):
        u, v, w = points(d)
        args = [",".join(repr(c) for c in p.tolist()) for p in (u, v, w)]
        argvs = [["add", "--u", args[0], "--v", args[1]], ["gamma", "--u", args[0]],
                 ["gyr", "--u", args[0], "--v", args[1], "--w", args[2]],
                 ["dist", "--x", args[0], "--y", args[1]],
                 ["collinear", "--x", args[0], "--y", args[1], "--z", args[2]]]
        if d == 3:
            rho = gk.bloch_to_density(gk.GyroVector(u)).to_json_dict()
            det1 = gk.normalize_det(gk.bloch_to_density(gk.GyroVector(v))).to_json_dict()
            for name, value in (("rho", rho), ("det1", det1)):
                with open(f"{tmp}/{name}.json", "w") as handle:
                    json.dump(value, handle)
            argvs += [["bloch", "--v", args[0]], ["odot", "--a", f"{tmp}/rho.json",
                      "--b", f"{tmp}/rho.json"], ["normdet", "--a", f"{tmp}/rho.json"],
                      ["boxdot", "--a", f"{tmp}/det1.json", "--b", f"{tmp}/det1.json"]]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = gyrokit.cli.main(argv)
            out.append([argv[0], code, text.getvalue()])
    U, V, W = (gk.GyroVector(4.0 * p) for p in points(64))
    for f, args in ((gk.einstein_add, (U, V)), (gk.gyration, (U, V, W)),
                    (gk.line_param, (U, 0.3)), (gk.neg, (U,))):
        out.append(f(*args).coords.tobytes().hex())
    for f, args in ((gk.klein_distance, (U, V)), (gk.gamma, (U,)), (gk.commutes, (U, V)),
                    (gk.gram_band, (U.coords, V.coords)), (gk.collinear_gyro, (U, V, W))):
        out.append(repr(f(*args)))
    skip = {"endomorphism_fixes_zero", "orthogonal_endomorphism", "orthogonal_residual_bound",
            "classifier_soundness", "classifier_reconstruction", "transported_automorphism"}
    names = [name for name in gk.registered_names() if name not in skip]
    out += [report.to_json_line() for report in gk.run_suite(names, 60, 3)]
    print(json.dumps(out))
    """
)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _openblas(),
    reason="forces OpenBLAS kernels of x86-64",
)
def test_outputs_are_the_same_bytes_on_other_blas_kernels(tmp_path):
    # SkylakeX is never forced: a machine without AVX-512 would crash on it
    procs = {}
    for kernel in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        (tmp_path / str(kernel)).mkdir()
        procs[kernel] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(tmp_path / str(kernel))],
            env=env, stdout=subprocess.PIPE, text=True,
        )
    outputs = {kernel: proc.communicate()[0] for kernel, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    default = json.loads(outputs[None])
    assert len(default) == 5 * 3 + 4 + 9 + 17
    assert outputs["Haswell"] == outputs["Prescott"] == outputs[None]
