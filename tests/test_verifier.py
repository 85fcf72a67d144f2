"""Tests for the property verifier: sampling, the registry, and report behavior."""

import json
import math

import numpy as np
import pytest

from gyrokit import (
    DEFAULT_TOL,
    BallMap,
    BallSampler,
    GyroVector,
    Hermitian2,
    PropertyReport,
    ToleranceConfig,
    UnknownPropertyError,
    check_endomorphism,
    classify_endomorphism,
    derive_seed,
    is_positive_definite,
    registered_names,
    run_suite,
    zero_propagation_check,
)
from gyrokit import ball
from gyrokit.ball import _anchored_sum_rows, _sum_rows
from gyrokit.sampling import (
    Rows,
    _blocks,
    _point_rows,
    _Stage,
    _staged,
    json_ready,
    scan_report,
    seeded_scan,
)
from gyrokit.verifier import _COLLINEARITY, _REGISTRY, _posdef_rows

ALL_NAMES = (
    "closure",
    "identity",
    "left_inverse",
    "left_cancellation",
    "gamma_identity",
    "gyration_orthogonality",
    "gyrocommutativity",
    "one_parameter_subgroup",
    "commutes_iff_dependent",
    "collinearity_equivalence",
    "left_translation_isometry",
    "klein_distance_metric",
    "line_translation_distance",
    "endomorphism_fixes_zero",
    "orthogonal_endomorphism",
    "orthogonal_residual_bound",
    "classifier_soundness",
    "classifier_reconstruction",
    "bloch_homomorphism",
    "det_normalization_homomorphism",
    "sqrt_squares_back",
    "boxdot_det_multiplicative",
    "transported_automorphism",
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_labels_separate_streams(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_masters_separate_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_a_generator_seed(self):
        s = derive_seed(2**62, "anything")
        assert 0 <= s < 2**63
        np.random.default_rng(s)


class TestBallSampler:
    def test_draws_stay_inside_the_radius(self):
        s = BallSampler(seed=1, dim=3, rmax=0.999)
        norms = [s.sample().norm for _ in range(10_000)]
        assert max(norms) <= 0.999
        # draws should actually use the available radius
        assert max(norms) > 0.99

    def test_same_seed_same_stream(self):
        a = BallSampler(seed=5, dim=4, rmax=0.9)
        b = BallSampler(seed=5, dim=4, rmax=0.9)
        for _ in range(50):
            np.testing.assert_array_equal(a.sample().coords, b.sample().coords)

    def test_different_seeds_differ(self):
        a = BallSampler(seed=5, dim=2, rmax=0.9).sample()
        b = BallSampler(seed=6, dim=2, rmax=0.9).sample()
        assert not np.array_equal(a.coords, b.coords)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=0, rmax=0.9)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            BallSampler(seed=-1, dim=2)
        # check_endomorphism seeds its sampler with the caller's seed itself
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            check_endomorphism(BallMap.zero(2), 5, -1)
        # run_suite derives non-negative child seeds from any seed
        assert run_suite(["closure"], 5, -1)[0].passed

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=1.0)
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=0.0)
        # inside the unit ball but past the guard, so draws could be refused
        with pytest.raises(ValueError):
            BallSampler(seed=1, dim=2, rmax=1 - 1e-10)

    def test_sample_rows_refuses_a_negative_count(self):
        s = BallSampler(seed=1, dim=3)
        state = s.rng.bit_generator.state
        for n in (-1, -3, np.int64(-2)):
            with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
                s.sample_rows(n)
        assert s.rng.bit_generator.state == state  # nothing drawn

    def test_sample_rows_takes_any_integer_count(self):
        s = BallSampler(seed=1, dim=3)
        assert s.sample_rows(0).shape == (0, 3)
        assert s.sample_rows(np.int64(2)).shape == (2, 3)
        with pytest.raises(TypeError):
            s.sample_rows(2.0)

    def test_sample_rows_draws_the_count_it_checked(self):
        # operator.index(True) is 1, but numpy refuses a bool as a shape
        got = BallSampler(seed=0, dim=2).sample_rows(True)
        assert got.tobytes() == BallSampler(seed=0, dim=2).sample_rows(1).tobytes()


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample's empirical CDF and cdf."""
    x = np.sort(sample)
    f, n = cdf(x), len(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


class ZeroRow:
    """A generator that draws as rng does, except that the first
    standard_normal block comes back with row `row` (an index) zeroed; it
    records the name of every generator call."""

    def __init__(self, rng: np.random.Generator, row: int):
        self.rng, self.row, self.calls = rng, row, []

    def __getattr__(self, name: str):
        self.calls.append(name)
        return getattr(self.rng, name)

    def standard_normal(self, size):
        self.calls.append("standard_normal")
        out = self.rng.standard_normal(size)
        if self.row is not None:
            out[self.row], self.row = 0.0, None
        return out


class TestSampleRows:
    # every draw is a block draw, checked by its law: the points of
    # sample_rows, the rows a staged draw keeps, and the positive matrices
    N = 20_000

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 64])
    def test_radii_follow_the_volume_law(self, dim):
        # (r / rmax)^dim is uniform on [0, 1]
        rmax = 0.999
        radii = np.linalg.norm(BallSampler(11, dim, rmax).sample_rows(self.N), axis=1)
        assert radii.max() <= rmax
        # 1 % critical value of the one-sample statistic
        assert ks_statistic(radii, lambda r: (r / rmax) ** dim) < 1.63 / math.sqrt(self.N)

    def test_directions_project_uniformly_in_three_dimensions(self):
        # Archimedes: a uniform direction on the 2-sphere projects uniformly
        # on [-1, 1] along any fixed axis
        points = BallSampler(12, 3).sample_rows(self.N)
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        t = points @ axis / np.linalg.norm(points, axis=1)
        assert ks_statistic(t, lambda x: (x + 1.0) / 2.0) < 1.63 / math.sqrt(self.N)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 64])
    def test_directions_are_symmetric(self, dim):
        # each coordinate of a uniform direction is as often positive as
        # negative, with mean 0 and variance 1 / dim: both within 4 sigma
        points = BallSampler(15, dim).sample_rows(self.N)
        directions = points / np.linalg.norm(points, axis=1)[:, None]
        positive = np.count_nonzero(directions > 0.0, axis=0)
        assert (np.abs(positive - self.N / 2) <= 4.0 * math.sqrt(self.N / 4)).all()
        assert (np.abs(directions.mean(axis=0)) <= 4.0 / math.sqrt(dim * self.N)).all()

    def test_sample_is_the_row_of_a_one_point_block(self):
        for dim in (1, 3, 64):
            one, block = BallSampler(16, dim), BallSampler(16, dim)
            for _ in range(20):
                point = one.sample()
                assert point.coords.tobytes() == block.sample_rows(1)[0].tobytes()
            assert one.rng.bit_generator.state == block.rng.bit_generator.state

    def test_a_zero_direction_is_redrawn_on_its_row_alone(self):
        # an all-zero (dim + 2)-row is drawn again, by one more Gaussian call
        n, row, dim, rmax = 300, 123, 3, 0.999
        plain, zeroed = BallSampler(3, dim, rmax), BallSampler(3, dim, rmax)
        zeroed.rng = ZeroRow(zeroed.rng, row)
        want, got = plain.sample_rows(n), zeroed.sample_rows(n)
        # the block, then the zero row's redraw
        assert zeroed.rng.calls == ["standard_normal", "standard_normal"]
        others = np.arange(n) != row
        assert got[others].tobytes() == want[others].tobytes()
        # the redrawn row is the next Gaussian's point
        g = plain.rng.standard_normal((1, dim + 2))
        assert got[row].tobytes() == ((rmax / np.linalg.norm(g)) * g[0, :dim]).tobytes()

    def test_a_stack_block_splits_into_the_blocks_drawn_in_turn(self):
        # a classifier stack takes slice j of one block of k n rows: the
        # points the j-th of k blocks of n, drawn in turn, would hold
        n, k = 300, 4
        stack, turns = BallSampler(3, 3), BallSampler(3, 3)
        got = stack.sample_rows(k * n)
        assert got.tobytes() == np.concatenate([turns.sample_rows(n) for _ in range(k)]).tobytes()
        assert stack.rng.bit_generator.state == turns.rng.bit_generator.state

    def test_a_masked_stage_keeps_the_volume_law(self):
        # a stage that refuses every point with u[0] < 0, about half of each
        # block, leaves the radii of the points it keeps as they were drawn
        dim, rmax = 3, 0.999
        stage = _Stage(_point_rows("u"), lambda rows, tol: rows["u"][:, 0] >= 0.0, "a point")
        u = _staged((stage,), BallSampler(13, dim, rmax), self.N, None)["u"]
        assert len(u) == self.N and (u[:, 0] >= 0.0).all()
        radii = np.linalg.norm(u, axis=1)
        assert ks_statistic(radii, lambda r: (r / rmax) ** dim) < 1.63 / math.sqrt(self.N)

    def test_a_nan_chord_point_is_refused_and_redrawn(self):
        # a zero normal puts the chord's points at NaN: the guard refuses the
        # candidate, with no test of the stage's own, and one more is drawn
        n, row, chord = 300, 5, _Stage(_COLLINEARITY[0].draw)
        plain, zeroed = BallSampler(3, 2), BallSampler(3, 2)
        zeroed.rng = ZeroRow(zeroed.rng, (0, row))
        block = chord.draw(plain, n, DEFAULT_TOL)
        got = _staged((chord,), zeroed, n, DEFAULT_TOL)
        # the first block, then one block of the shortfall
        assert zeroed.rng.calls == ["standard_normal", "uniform"] * 2
        for key, column in block.items():
            assert np.isfinite(got[key]).all()
            assert got[key][:-1].tolist() == np.delete(column, row, axis=0).tolist()

    @pytest.mark.parametrize("max_log_cond", [2.0, 4.0])
    def test_positive_matrices_follow_their_law(self, max_log_cond):
        # eigenvalues 10^U(-2, 2) and that over 10^U(0, c), as records that
        # Hermitian2 accepts, each positive definite
        draw = _posdef_rows(max_log_cond, "h")
        h = draw(BallSampler(14, 2), self.N, None)["h"]
        assert h.dtype.names == ("a", "d", "re_b", "im_b")
        b = h["re_b"] + 1j * h["im_b"]
        m = np.stack([np.stack([h["a"], b], -1), np.stack([b.conj(), h["d"]], -1)], -2)
        small, big = np.linalg.eigvalsh(m).T
        assert ks_statistic(np.log10(big), lambda x: (x + 2.0) / 4.0) < 1.63 / math.sqrt(self.N)
        assert (big / small <= 10.0**max_log_cond * (1.0 + 1e-9)).all()
        assert all(is_positive_definite(Hermitian2(*record)) for record in h.tolist())


class TestGivingUp:
    # a coarse abs_tol widens the dependence band until no pair or triple is
    # clear of it, and the draws give up after 10 000 refusals in a row
    @pytest.mark.parametrize(
        "name, what",
        [
            ("commutes_iff_dependent", "an independent pair"),
            ("collinearity_equivalence", "a general-position triple"),
        ],
    )
    def test_a_draw_that_cannot_be_met_raises(self, name, what):
        with pytest.raises(RuntimeError) as exc:
            run_suite([name], 40, 7, ToleranceConfig(abs_tol=1e-2))
        assert str(exc.value) == f"failed to draw {what}"


class TestPropertyReport:
    def test_json_line_round_trips(self):
        rep = PropertyReport(
            name="demo",
            samples_run=10,
            passed=True,
            max_residual=1.25e-13,
            first_counterexample=None,
            seed=7,
        )
        d = json.loads(rep.to_json_line())
        assert list(d) == [
            "name",
            "samples_run",
            "passed",
            "max_residual",
            "first_counterexample",
            "seed",
        ]
        assert d["passed"] is True
        assert d["max_residual"] == pytest.approx(1.25e-13, rel=1e-14)

    def test_counterexample_vectors_become_lists(self):
        rep = PropertyReport(
            name="demo",
            samples_run=1,
            passed=False,
            max_residual=0.5,
            first_counterexample={"u": GyroVector([0.5, 0.0]), "residual": 0.5},
            seed=1,
        )
        d = json.loads(rep.to_json_line())
        assert d["first_counterexample"]["u"] == [0.5, 0.0]


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "0.0"),
        (0.12345678901234567, "0.123456789012346"),
        (float("inf"), '"inf"'),
        (float("nan"), '"nan"'),
        (GyroVector([0.5, -0.25]), "[0.5, -0.25]"),
        (np.float64(1.0 / 3.0), "0.333333333333333"),
        (np.int64(3), "3"),
        (Hermitian2(1.0, 2.0, 0.5, -0.0), '{"a": 1.0, "d": 2.0, "re_b": 0.5, "im_b": 0.0}'),
        (
            {"u": [1.0, (np.float64(2.5), -0.0)], "flag": True, "none": None},
            '{"u": [1.0, [2.5, 0.0]], "flag": true, "none": null}',
        ),
        (np.bool_(True), "true"),
        ({"b": np.bool_(False), "k": np.uint8(7)}, '{"b": false, "k": 7}'),
    ],
)
def test_json_ready_formats_every_value_kind(value, text):
    assert json.dumps(json_ready(value), allow_nan=False) == text


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.bool_(True), True),
        (np.str_("zero"), "zero"),
        (np.float32(0.5), 0.5),
        (np.int8(-3), -3),
        (np.uint64(2**63), 2**63),
    ],
    ids=["bool", "str", "float32", "int8", "uint64"],
)
def test_json_ready_turns_every_numpy_scalar_into_a_python_scalar(value, plain):
    got = json_ready(value)
    assert type(got) is type(plain)
    assert got == plain


class TestRegistry:
    def test_exactly_the_expected_names_in_order(self):
        assert registered_names() == ALL_NAMES

    def test_unknown_name_is_rejected_with_the_catalog(self):
        with pytest.raises(UnknownPropertyError) as exc:
            run_suite(["no_such_property"], n_samples=10, seed=1)
        msg = str(exc.value)
        assert "no_such_property" in msg
        assert "closure" in msg


ABS, REL = 1e-7, 1e-11

# every property's cutoff under ToleranceConfig(abs_tol=ABS, rel_tol=REL):
# the defaults make the two equal, so a property that read the wrong one
# would change no report there
CUTOFFS = {
    "closure": 1 - 1e-9,
    "identity": ABS,
    "left_inverse": ABS,
    "left_cancellation": ABS,
    "gamma_identity": REL,
    "gyration_orthogonality": REL,
    "gyrocommutativity": ABS,
    "one_parameter_subgroup": ABS,
    "commutes_iff_dependent": 0.5,
    "collinearity_equivalence": 0.5,
    "left_translation_isometry": 10 * REL,
    "klein_distance_metric": ABS,
    "line_translation_distance": REL,
    "endomorphism_fixes_zero": ABS,
    "orthogonal_endomorphism": ABS,
    "orthogonal_residual_bound": 1.0,
    "classifier_soundness": 0.5,
    "classifier_reconstruction": 1.0,
    "bloch_homomorphism": REL,
    "det_normalization_homomorphism": REL,
    "sqrt_squares_back": REL,
    "boxdot_det_multiplicative": REL,
    "transported_automorphism": REL,
}


def test_every_cutoff_reads_its_own_tolerance():
    tol = ToleranceConfig(abs_tol=ABS, rel_tol=REL)
    assert list(CUTOFFS) == list(ALL_NAMES)
    assert {name: cutoff(tol) for name, (_, _, cutoff) in _REGISTRY.items()} == CUTOFFS
    # and each report passes exactly when its largest residual is within it
    for report in run_suite(ALL_NAMES, 10, 3, tol):
        assert report.passed == (report.max_residual <= CUTOFFS[report.name])


class TestIntegerArguments:
    # seeds, dimensions and counts are integers: numpy integers are read
    # as Python ints, and floats and strings are refused, not truncated
    def test_a_numpy_seed_gives_a_printable_report(self):
        for report in (
            run_suite(["closure"], 10, np.int64(7))[0],
            check_endomorphism(BallMap.zero(2), 10, np.int64(3)),
            zero_propagation_check(BallMap.zero(2), GyroVector([0.5, 0.0]), 20, np.int64(3)),
        ):
            assert type(report.seed) is int
            assert json.loads(report.to_json_line())["seed"] == report.seed
        assert run_suite(["closure"], 10, np.int64(7)) == run_suite(["closure"], 10, 7)

    def test_a_numpy_integer_is_read_as_its_value(self):
        assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
        s = BallSampler(np.int64(5), np.int32(3))
        assert (type(s.seed), type(s.dim)) == (int, int)
        assert s.sample_rows(4).tolist() == BallSampler(5, 3).sample_rows(4).tolist()
        assert type(BallMap.zero(np.int64(2)).dim) is int
        assert GyroVector.zero(np.int64(3)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [1.5, 7.9, 2.0, "5", np.float64(3.0)])
    def test_a_float_or_a_string_is_refused(self, bad):
        calls = [
            lambda: derive_seed(bad, "x"),
            lambda: BallSampler(bad, 2),
            lambda: BallSampler(1, bad),
            lambda: BallMap(lambda u: u, bad),
            lambda: BallMap.zero(bad),
            lambda: GyroVector.zero(bad),
            lambda: run_suite(["closure"], 40, bad),
            lambda: check_endomorphism(BallMap.zero(2), 10, bad),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("name", ["classifier_soundness", "classifier_reconstruction"])
    def test_the_classifier_trials_refuse_a_float_sample_count(self, name):
        # as every other property does: 2.5 samples are not rounded to 3
        with pytest.raises(TypeError):
            run_suite([name], 2.5, 1)
        assert run_suite([name], np.int64(30), 1)[0].passed


class TestRunSuite:
    def test_reports_come_back_in_request_order(self):
        names = ["identity", "closure", "gamma_identity"]
        reports = run_suite(names, n_samples=20, seed=3)
        assert [r.name for r in reports] == names

    def test_deterministic_output(self):
        names = ["closure", "left_cancellation", "bloch_homomorphism"]
        a = run_suite(names, n_samples=50, seed=11)
        b = run_suite(names, n_samples=50, seed=11)
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]

    def test_bloch_homomorphism_notices_an_einstein_add_one_ulp_off(self, monkeypatch):
        exact = ball.einstein_add
        assert run_suite(["bloch_homomorphism"], 40, 5)[0].passed
        monkeypatch.setattr(
            ball, "einstein_add", lambda u, v: GyroVector(np.nextafter(exact(u, v).coords, 0.0))
        )
        report = run_suite(["bloch_homomorphism"], 40, 5)[0]
        assert not report.passed and report.max_residual == math.inf
        # only the first formed row of a block is summed by einstein_add too
        u, v, ok = np.full((3, 3), 0.1), np.full((3, 3), -0.2), np.array([False, True, True])
        w, anchored = _anchored_sum_rows(u, v, ok)
        assert anchored.tolist() == [False, False, True]
        assert w.tobytes() == _sum_rows(u, v, ok)[0].tobytes()

    def test_seed_changes_the_stream(self):
        a = run_suite(["closure"], n_samples=50, seed=1)[0]
        b = run_suite(["closure"], n_samples=50, seed=2)[0]
        assert a.max_residual != b.max_residual

    def test_core_laws_pass_at_small_budget(self):
        names = [
            "closure",
            "identity",
            "left_inverse",
            "left_cancellation",
            "gamma_identity",
            "gyration_orthogonality",
            "gyrocommutativity",
            "one_parameter_subgroup",
        ]
        for rep in run_suite(names, n_samples=100, seed=3):
            assert rep.passed, rep.to_json_line()
            assert rep.seed == 3

    def test_indicator_checks_report_zero_residual(self):
        for name in ("commutes_iff_dependent", "collinearity_equivalence"):
            rep = run_suite([name], n_samples=100, seed=5)[0]
            assert rep.passed
            assert rep.max_residual == 0.0

    @pytest.mark.parametrize("seed", [1, 14, 16, 18])
    def test_collinearity_draws_stay_evaluable(self, seed):
        # at these seeds some translated off-line pair once summed past the
        # construction guard, so commutes raised and the property read inf
        rep = run_suite(["collinearity_equivalence"], n_samples=1000, seed=seed)[0]
        assert rep.passed, rep.to_json_line()

    def test_closure_residual_is_a_norm_bound(self):
        rep = run_suite(["closure"], n_samples=100, seed=7)[0]
        assert rep.passed
        assert rep.max_residual < 1.0

    def test_matrix_model_checks_pass(self):
        names = [
            "bloch_homomorphism",
            "det_normalization_homomorphism",
            "sqrt_squares_back",
            "boxdot_det_multiplicative",
            "transported_automorphism",
        ]
        for rep in run_suite(names, n_samples=100, seed=3):
            assert rep.passed, rep.to_json_line()

    def test_classifier_checks_pass(self):
        names = ["classifier_soundness", "classifier_reconstruction"]
        for rep in run_suite(names, n_samples=50, seed=3):
            assert rep.passed, rep.to_json_line()

    def test_classifier_failure_reports(self):
        # below any rounding noise no probed matrix counts as orthogonal, so
        # the first instance of each check fails with the verdict it got
        tol = ToleranceConfig(abs_tol=1e-30)
        names = ["classifier_soundness", "classifier_reconstruction"]
        lines = [r.to_json_line() for r in run_suite(names, 40, 7, tol)]
        assert lines == [
            '{"name": "classifier_soundness", "samples_run": 12, "passed": false, '
            '"max_residual": 1.0, "first_counterexample": {"family": "orthogonal", '
            '"dim": 2, "expected": "orthogonal", "got": "not_endomorphism", '
            '"residual": 1.0}, "seed": 7}',
            '{"name": "classifier_reconstruction", "samples_run": 4, "passed": false, '
            '"max_residual": "inf", "first_counterexample": {"dim": 2, '
            '"expected": "orthogonal", "got": "not_endomorphism", "residual": "inf"}, '
            '"seed": 7}',
        ]

    def test_every_property_passes_at_seeds_0_to_39(self):
        # the verdicts that a change of the draws must keep: every law holds,
        # so a property that fails at some seed has lost its margin
        for seed in range(40):
            for rep in run_suite(ALL_NAMES, 200, seed):
                assert rep.passed, rep.to_json_line()

    def test_samples_run_scales_with_dimension_coverage(self):
        rep = run_suite(["left_cancellation"], n_samples=40, seed=1)[0]
        # core laws run the budget once per ambient dimension
        assert rep.samples_run == 40 * 3


@pytest.mark.parametrize("n_samples", [0, -1])
@pytest.mark.parametrize(
    "run",
    [
        lambda n: run_suite(["closure"], n, 1),
        lambda n: run_suite(["classifier_soundness"], n, 1),
        lambda n: run_suite(["classifier_reconstruction"], n, 1),
        lambda n: check_endomorphism(BallMap.zero(2), n, 1),
        lambda n: classify_endomorphism(BallMap.zero(2), n, 1),
        lambda n: zero_propagation_check(BallMap.zero(2), GyroVector([0.5, 0.0]), n, 1),
    ],
    ids=[
        "closure",
        "classifier_soundness",
        "classifier_reconstruction",
        "check_endomorphism",
        "classify_endomorphism",
        "zero_propagation_check",
    ],
)
def test_sample_budget_below_one_is_rejected(run, n_samples):
    with pytest.raises(ValueError):
        run(n_samples)


@pytest.mark.parametrize(
    "residuals, worst, first",
    [
        ([math.nan, math.nan], 0, 0),
        ([0.1, math.nan, 3.0, math.nan, math.inf], 1, 1),
        ([0.1, 3.0, math.nan], 2, 1),
    ],
)
def test_nan_residual_fails_the_scan(residuals, worst, first):
    # a NaN compares false with everything, so it must not pass as "not over",
    # in one block or across blocks of one input each
    scores = np.array(residuals)
    index = np.arange(len(residuals))
    for blocks in ([Rows(i=index)], [Rows(i=index[k : k + 1]) for k in index]):
        max_residual, worst_item, first_failure, scanned = seeded_scan(
            blocks, lambda rows: scores[rows["i"]], 0.5
        )
        assert math.isnan(max_residual)
        assert worst_item["i"].tolist() == [worst]
        assert first_failure[0]["i"].tolist() == [first]
        assert scanned == len(residuals)


def test_nan_residual_fails_the_report():
    blocks = _blocks(_point_rows("u"), [BallSampler(derive_seed(7, "nan_probe/2"), 2)], 5)
    nan = scan_report("nan_probe", blocks, lambda rows: np.full(len(rows["u"]), math.nan), 1.0, 7)
    report = json.loads(nan.to_json_line())
    assert report["passed"] is False
    assert report["max_residual"] == "nan"
    assert report["first_counterexample"]["residual"] == "nan"


class TestShrinking:
    @pytest.mark.parametrize(
        "name", ["left_cancellation", "commutes_iff_dependent", "collinearity_equivalence"]
    )
    def test_counterexample_is_shrunk_toward_the_origin(self, name):
        # impossible tolerance forces a failure on the first draw, then the
        # shrinker halves every ball point while the inputs keep failing: the
        # input reported is the drawn one halved k times, k >= 1, scored
        # through the property's row residual it fails, and its half passes
        # or 60 halvings were made
        tol = ToleranceConfig(abs_tol=1e-30)
        inputs, residual, cutoff = _REGISTRY[name]
        rep = run_suite([name], n_samples=5, seed=1, tol=tol)[0]
        assert not rep.passed
        ce = dict(rep.first_counterexample)
        reported = json.dumps(json_ready(ce.pop("residual")))
        _, _, (drawn, _), _ = seeded_scan(
            inputs(name, 5, 1, tol), lambda rows: residual(rows, tol), cutoff(tol)
        )
        assert all(column.ndim == 2 for column in drawn.values())

        def halved(k: int) -> Rows:
            return Rows({key: 0.5**k * column for key, column in drawn.items()})

        def score(k: int) -> float:
            return float(residual(halved(k), tol)[0])

        k = next(
            k for k in range(61)
            if json_ready({key: column[0] for key, column in halved(k).items()}) == ce
        )
        assert k >= 1
        assert all(score(j) > cutoff(tol) for j in range(k + 1))
        assert json.dumps(json_ready(score(k))) == reported
        assert k == 60 or score(k + 1) <= cutoff(tol)

    def test_passing_run_has_no_counterexample(self):
        rep = run_suite(["left_cancellation"], n_samples=20, seed=1)[0]
        assert rep.passed
        assert rep.first_counterexample is None
