"""The row kernels' glue rounds as its earlier forms, bit for bit.

The column dot sums the columns from the first one's products plus 0.0;
_each builds its array by np.fromiter; _line_param_rows
maps libm's atanh over the rows in C and takes k parameters per row from one
rapidity.  Each is checked here against its earlier form, written out, not
imported: a dot summed from np.zeros, an _each through a list, and a line
kernel that called a Python rapidity per row, one parameter at a time.
"""

import math

import numpy as np
import pytest

from gyrokit.ball import (
    _COLUMN_DIM,
    _SLACK_CUTOFF,
    DEFAULT_BOUNDARY_MARGIN,
    _add_terms,
    _dot,
    _each,
    _line_param_rows,
)
from gyrokit.sampling import Rows
from gyrokit.verifier import _one_parameter_residual


def old_dot(x, y):
    # the column dot as it was: a sum from zeros of the broadcast shape
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1])
    for i in range(x.shape[-1]):
        total += x[..., i] * y[..., i]
    return total


def old_each(f, *columns):
    return np.array(list(map(f, *(c.tolist() for c in columns))), dtype=float)


def old_rapidity(norm: float, slack: float) -> float:
    if slack >= _SLACK_CUTOFF:
        return math.atanh(norm)
    return math.log1p(norm) - 0.5 * math.log(slack)


def old_guarded(w, ok):
    with np.errstate(over="ignore"):
        norm2 = old_dot(w, w)
    ok = ok & (np.sqrt(norm2) < 1.0 - DEFAULT_BOUNDARY_MARGIN)
    w[~ok] = 0.0
    return w, ok


def old_line_param_rows(x, t, ok=True):
    # one parameter per row, a Python rapidity per row
    norm2 = old_dot(x, x)
    norm, slack = np.sqrt(norm2), 1.0 - norm2
    ok = ok & (norm > 0.0)
    near = slack < _SLACK_CUTOFF
    if near.any():
        rows = x[near]
        slack[near] = [-math.fsum([-1.0, *squares]) for squares in (rows * rows).tolist()]
    radius = old_each(math.tanh, t * old_each(old_rapidity, norm, slack))
    scale = np.divide(radius, norm, out=np.zeros_like(norm), where=ok)
    return old_guarded(scale[:, None] * x, ok)


def old_one_parameter_residual(x, s, t):
    # three chained line calls and a guarded sum, as the property scored them
    xs, ok = old_line_param_rows(x, s)
    xt, ok = old_line_param_rows(x, t, ok)
    duv, s_root = old_dot(xs, xt)[:, None], np.sqrt(1.0 - old_dot(xs, xs))[:, None]
    combined, ok = old_guarded(_add_terms(xs, xt, duv, s_root), ok)
    direct, ok = old_line_param_rows(x, s + t, ok)
    gamma = 1.0 / np.sqrt(1.0 - old_dot(combined, combined))
    residual = np.sqrt(old_dot(combined - direct, combined - direct)) / np.square(gamma)
    return np.where(ok, residual, math.inf)


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


class TestColumnDot:
    @pytest.mark.parametrize("dim", range(1, _COLUMN_DIM))
    def test_random_rows(self, dim):
        rng = np.random.default_rng(dim)
        x, y = rng.standard_normal((2, 50, dim)) * 10.0 ** rng.uniform(-3, 3, (2, 50, dim))
        assert bits(_dot(x, y)) == bits(old_dot(x, y))

    @pytest.mark.parametrize("dim", [1, 2, 3, _COLUMN_DIM - 1])
    def test_all_negative_zero_products_sum_to_plus_zero(self, dim):
        x = np.full((4, dim), -0.0)
        y = np.ones((4, dim))
        got = _dot(x, y)
        assert bits(got) == bits(old_dot(x, y)) == bits(np.zeros(4))
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_inf_and_nan(self, dim):
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, 2.0]
        rng = np.random.default_rng(dim)
        x = rng.choice(special, (200, dim))
        y = rng.choice(special, (200, dim))
        with np.errstate(invalid="ignore", over="ignore"):
            assert bits(_dot(x, y)) == bits(old_dot(x, y))

    def test_one_column(self):
        x = np.array([[0.5], [-0.0], [3.0], [-2.0]])
        y = np.array([[0.25], [1.0], [-0.0], [-0.5]])
        assert bits(_dot(x, y)) == bits(old_dot(x, y)) == bits(np.array([0.125, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_the_classifiers_broadcast_stacks(self, dim):
        # a (k, 1, d) probe against (k, m, d) rows, either way round
        rng = np.random.default_rng([dim, 7])
        probe, rows = rng.standard_normal((4, 1, dim)), rng.standard_normal((4, 9, dim))
        for x, y in ((probe, rows), (rows, probe), (probe, probe)):
            got = _dot(x, y)
            assert got.shape == np.broadcast_shapes(x.shape, y.shape)[:-1]
            assert bits(got) == bits(old_dot(x, y))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_strided_rows(self, dim):
        # the rows of a wider block, as the verifier's draws hand them on
        block = np.random.default_rng([dim, 8]).standard_normal((300, 4 * dim))
        x, y = block[:, :dim], block[:, 2 * dim: 3 * dim]
        assert bits(_dot(x, y)) == bits(old_dot(x, y))

    def test_rows_of_no_columns_sum_to_zero(self):
        x, y = np.empty((3, 0)), np.empty((2, 1, 0))
        assert bits(_dot(x, y)) == bits(old_dot(x, y)) == bits(np.zeros((2, 3)))

    def test_no_rows(self):
        x = np.empty((0, 3))
        assert bits(_dot(x, x)) == bits(old_dot(x, x))


class TestEach:
    def test_random_columns(self):
        column = np.random.default_rng(5).uniform(-0.99, 0.99, 300)
        for f in (math.atanh, math.tanh, math.log1p):
            assert bits(_each(f, column)) == bits(old_each(f, column))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
    def test_empty_columns(self, shape):
        got = _each(math.atanh, np.empty(shape))
        assert got.dtype == np.float64 and got.shape == shape

    def test_a_column_of_rows_keeps_its_shape(self):
        column = np.random.default_rng(6).uniform(-3.0, 3.0, (40, 3))
        got = _each(math.tanh, column)
        assert got.shape == (40, 3)
        assert bits(got.ravel()) == bits(old_each(math.tanh, column.ravel()))


# a row whose rounded 1 - |x|^2 is below _SLACK_CUTOFF and whose exact one
# is not: the exact slack decides, so its rapidity is atanh's
ACROSS_THE_CUTOFF = [
    0.5627056714367031, -0.46435667828779664, -0.377150189013972, -0.5683765048025518,
    -0.049407200654273085,
]


def line_rows(dim: int) -> np.ndarray:
    """Rows of x for the line kernel: random ones, ones whose 1 - |x|^2 lies
    below, at and just above _SLACK_CUTOFF, and zero rows; in d = 2 also a
    row whose x . x rounds to 1 - 2**-53, past the guard, and in d = 5 one
    across the cutoff."""
    rng = np.random.default_rng([dim, 53])
    directions = rng.standard_normal((60, dim))
    directions /= np.sqrt(old_dot(directions, directions))[:, None]
    slack = np.concatenate([
        rng.uniform(0.0, 1.0, 20),
        10.0 ** rng.uniform(-9, -7.9, 20),  # 1 - |x| down to 5e-10
        _SLACK_CUTOFF * (1.0 + rng.uniform(-1e-6, 1e-6, 20)),
    ])
    rows = [np.sqrt(1.0 - slack)[:, None] * directions, np.zeros((3, dim))]
    if dim == 2:
        row = np.array([[1.0 - 2.0**-53, 1.2 * 2.0**-27]])
        assert row[0, 0] * row[0, 0] + row[0, 1] * row[0, 1] == 1.0 - 2.0**-53
        rows.append(row)
    if dim == 5:
        row = np.array([ACROSS_THE_CUTOFF])
        squares = (row * row).tolist()[0]
        assert 1.0 - old_dot(row, row)[0] < _SLACK_CUTOFF <= -math.fsum([-1.0, *squares])
        rows.append(row)
    return np.concatenate(rows)


def line_params(rng, k: int, n: int) -> np.ndarray:
    # k parameters for each of n rows, of both signs; a quarter so large
    # that tanh reaches 1 and the guard refuses the point
    t = rng.uniform(-2.0, 2.0, (k, n))
    t[rng.random((k, n)) < 0.25] *= 40.0
    return t


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
class TestLineParamRows:
    def test_one_parameter_per_row(self, dim):
        x = line_rows(dim)
        t = line_params(np.random.default_rng(dim), 1, len(x))[0]
        for ok in (True, np.random.default_rng(dim + 10).random(len(x)) < 0.8):
            got, got_ok = _line_param_rows(x, t, ok)
            want, want_ok = old_line_param_rows(x, t, ok)
            assert bits(got) == bits(want) and bits(got_ok) == bits(want_ok)
            assert got_ok.any() and not got_ok.all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_parameters_are_k_single_calls(self, dim, k):
        x = line_rows(dim)
        t = line_params(np.random.default_rng([dim, k]), k, len(x))
        points, ok = _line_param_rows(x, t)
        assert points.shape == (k, len(x), dim)
        singles = [old_line_param_rows(x, t[j]) for j in range(k)]
        for j, (want, _) in enumerate(singles):
            assert bits(points[j]) == bits(want)
        assert bits(ok) == bits(np.logical_and.reduce([single_ok for _, single_ok in singles]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_parameters_are_k_chained_calls(self, dim, k):
        # each chained call passes on the ok of the one before: the same rows
        # stay ok, and on them the same points
        x = line_rows(dim)
        t = line_params(np.random.default_rng([dim, k, 1]), k, len(x))
        points, ok = _line_param_rows(x, t)
        chained, want_ok = [], True
        for j in range(k):
            want, want_ok = old_line_param_rows(x, t[j], want_ok)
            chained.append(want)
        assert bits(ok) == bits(want_ok)
        for j, want in enumerate(chained):
            assert bits(points[j, ok]) == bits(want[ok])

    def test_one_parameter_subgroup_scores_as_the_chain(self, dim):
        x = line_rows(dim)
        s, t = line_params(np.random.default_rng([dim, 2, 2]), 2, len(x))
        got = _one_parameter_residual(Rows(x=x, s=s, t=t), None)
        want = old_one_parameter_residual(x, s, t)
        assert bits(got) == bits(want)
        assert np.isfinite(got).any() and np.isinf(got).any()
