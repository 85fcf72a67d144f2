"""End-to-end tests for the command line interface.

Most cases drive main() in process and assert on exact printed output; one
subprocess test exercises the installed entry point for real.
"""

import importlib
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import gyrokit.cli
from gyrokit import BallMap
from gyrokit.cli import main
from gyrokit.matrix_models import _HERMITIAN_FIELDS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def herm_file(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


class TestAdd:
    def test_collinear_golden(self, capsys):
        code, out, err = run_cli(capsys, "add", "--u", "0.5,0", "--v", "0.3,0")
        assert code == 0
        assert out == "0.695652173913043,0\n"
        assert err == ""

    def test_orthogonal_golden(self, capsys):
        code, out, _ = run_cli(capsys, "add", "--u", "0.5,0", "--v", "0,0.5")
        assert code == 0
        assert out == "0.5,0.433012701892219\n"

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "add", "--u", "0.5,0", "--v", "0,0")
        assert code == 0
        assert out == "0.5,0\n"

    def test_three_dimensional(self, capsys):
        code, out, _ = run_cli(capsys, "add", "--u", "0.1,0.2,0.3", "--v", "0,0,0")
        assert code == 0
        assert out == "0.1,0.2,0.3\n"

    def test_dimension_mismatch_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "add", "--u", "0.5,0", "--v", "0.5")
        assert code == 2
        assert out == ""
        assert "dimension mismatch" in err

    def test_unparseable_vector_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "add", "--u", "abc,0", "--v", "0,0")
        assert code == 2
        assert "abc" in err

    def test_token_float_reads_but_not_a_decimal_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "add", "--u", "0.1_2,0", "--v", "0,0")
        assert code == 2
        assert out == ""
        assert "0.1_2" in err

    def test_boundary_vector_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "add", "--u", "1,0", "--v", "0,0")
        assert code == 2
        assert err != ""

    def test_vector_too_long_to_square_exits_2_with_only_the_error_line(self, capsys):
        code, out, err = run_cli(capsys, "add", "--u", "1e200,0", "--v", "0,0")
        assert (code, out) == (2, "")
        assert err == (
            "error: |v| = 1e+200 is not strictly inside the unit ball (boundary margin 1e-09)\n"
        )


class TestScalars:
    def test_gamma_golden(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--u", "0.8,0")
        assert code == 0
        assert out == "1.66666666666667\n"

    def test_gamma_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--u", "0,0,0")
        assert code == 0
        assert out == "1\n"

    def test_dist_golden(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--x", "0,0", "--y", "0.5,0")
        assert code == 0
        assert out == "0.549306144334055\n"

    def test_dist_is_symmetric(self, capsys):
        _, fwd, _ = run_cli(capsys, "dist", "--x", "0.1,0.2", "--y", "0.3,-0.1")
        _, rev, _ = run_cli(capsys, "dist", "--x", "0.3,-0.1", "--y", "0.1,0.2")
        assert fwd == rev

    def test_gyr_with_zero_pivot_echoes(self, capsys):
        code, out, _ = run_cli(capsys, "gyr", "--u", "0.5,0", "--v", "0,0", "--w", "0.3,0.1")
        assert code == 0
        assert out == "0.3,0.1\n"

    def test_gyr_accepts_inputs_whose_sums_leave_the_ball(self, capsys):
        # u (+) v rounds past the guard; gyr of collinear u, v is the identity
        code, out, err = run_cli(
            capsys, "gyr", "--u", "0.99999,0", "--v", "0.99999,0", "--w", "0.99999,0"
        )
        assert (code, out, err) == (0, "0.99999,0\n", "")


class TestCollinear:
    def test_on_a_diagonal_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "collinear", "--x", "0.1,0.1", "--y", "0.2,0.2", "--z", "0.3,0.3"
        )
        assert code == 0
        assert out == "true\n"

    def test_off_line_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "collinear", "--x", "0,0", "--y", "0.3,0", "--z", "0,0.3")
        assert code == 1
        assert out == "false\n"


class TestBloch:
    def test_diagonal_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--v", "0,0,0.6")
        assert code == 0
        d = json.loads(out)
        assert d == {"a": 0.8, "d": 0.2, "re_b": 0.0, "im_b": 0.0}
        assert list(d) == ["a", "d", "re_b", "im_b"]

    def test_no_negative_zero_in_output(self, capsys):
        _, out, _ = run_cli(capsys, "bloch", "--v", "0,0.6,0")
        assert "-0.0" not in out.replace("-0.3", "")

    def test_wrong_dimension_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bloch", "--v", "0.5,0")
        assert code == 2
        assert err != ""


class TestMatrixCommands:
    def test_normdet_golden(self, capsys, herm_file):
        rho = herm_file("rho.json", {"a": 0.8, "d": 0.2, "re_b": 0.0, "im_b": 0.0})
        code, out, _ = run_cli(capsys, "normdet", "--a", rho)
        assert code == 0
        assert json.loads(out) == {"a": 2.0, "d": 0.5, "re_b": 0.0, "im_b": 0.0}

    def test_odot_neutral_element(self, capsys, herm_file):
        rho = herm_file("rho.json", {"a": 0.8, "d": 0.2, "re_b": 0.0, "im_b": 0.0})
        half = herm_file("half.json", {"a": 0.5, "d": 0.5, "re_b": 0.0, "im_b": 0.0})
        code, out, _ = run_cli(capsys, "odot", "--a", rho, "--b", half)
        assert code == 0
        assert json.loads(out) == {"a": 0.8, "d": 0.2, "re_b": 0.0, "im_b": 0.0}

    def test_boxdot_diagonal_golden(self, capsys, herm_file):
        a = herm_file("a.json", {"a": 2.0, "d": 0.5, "re_b": 0.0, "im_b": 0.0})
        b = herm_file("b.json", {"a": 3.0, "d": 1.0 / 3.0, "re_b": 0.0, "im_b": 0.0})
        code, out, _ = run_cli(capsys, "boxdot", "--a", a, "--b", b)
        assert code == 0
        d = json.loads(out)
        assert d["a"] == pytest.approx(6.0, rel=1e-14)
        assert d["d"] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_boxdot_of_an_overflowing_determinant_exits_2_naming_it(self, capsys, herm_file):
        huge = herm_file("huge.json", {"a": 1e200, "d": 1e200, "re_b": 0.0, "im_b": 0.0})
        code, out, err = run_cli(capsys, "boxdot", "--a", huge, "--b", huge)
        assert (code, out, err) == (2, "", "error: determinant must be 1, got inf\n")

    def test_trace_violation_exits_2(self, capsys, herm_file):
        bad = herm_file("bad.json", {"a": 0.8, "d": 0.3, "re_b": 0.0, "im_b": 0.0})
        half = herm_file("half.json", {"a": 0.5, "d": 0.5, "re_b": 0.0, "im_b": 0.0})
        code, _, err = run_cli(capsys, "odot", "--a", bad, "--b", half)
        assert code == 2
        assert err != ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "normdet", "--a", str(tmp_path / "nope.json"))
        assert code == 2
        assert err != ""

    def test_missing_field_exits_2(self, capsys, herm_file):
        bad = herm_file("bad.json", {"a": 0.5, "d": 0.5})
        code, _, err = run_cli(capsys, "normdet", "--a", bad)
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"a": 0.5, "d": 0.5, "re_b": 0.0}, "missing fields ['im_b']"),
            ([0.5, 0.5, 0.0, 0.0], "expected a JSON object with fields ('a', 'd', 're_b', 'im_b')"),
        ],
    )
    def test_malformed_document_names_the_fields(self, capsys, herm_file, document, message):
        path = herm_file("bad.json", document)
        code, out, err = run_cli(capsys, "normdet", "--a", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command", ["odot", "boxdot", "normdet"])
    def test_oversized_integer_field_exits_2(self, capsys, herm_file, command):
        # float() of a 400-digit integer raises OverflowError, not ValueError
        huge = herm_file("huge.json", {"a": 10**400, "d": 0.5, "re_b": 0.0, "im_b": 0.0})
        args = ["--a", huge] if command == "normdet" else ["--a", huge, "--b", huge]
        code, out, err = run_cli(capsys, command, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, document",
        [
            ("boxdot", {"a": True, "d": True, "re_b": False, "im_b": 0}),
            ("normdet", {"a": 0.8, "d": 0.2, "re_b": 0.0, "im_b": False}),
        ],
    )
    def test_boolean_field_exits_2(self, capsys, herm_file, command, document):
        path = herm_file("bool.json", document)
        args = ["--a", path] if command == "normdet" else ["--a", path, "--b", path]
        code, out, err = run_cli(capsys, command, *args)
        assert code == 2
        assert out == ""
        assert "not numbers" in err

    def test_normdet_accepts_a_density_near_the_guard(self, capsys, herm_file):
        # 1 - |u| = 2e-8: the scaled entries are near 5000, and the det-1
        # band widens with them
        rho = herm_file("rho.json", {"a": 0.5, "d": 0.5, "re_b": 0.49999999, "im_b": 0.0})
        code, out, err = run_cli(capsys, "normdet", "--a", rho)
        assert (code, err) == (0, "")
        assert json.loads(out)["a"] == pytest.approx(0.5 / math.sqrt(1e-8 - 1e-16), rel=1e-7)

    @pytest.mark.parametrize("command", ["odot", "boxdot", "normdet"])
    @pytest.mark.parametrize("field", [[0.5], {"x": 0.5}])
    def test_array_or_object_field_exits_2(self, capsys, herm_file, command, field):
        path = herm_file("nested.json", {"a": field, "d": 0.5, "re_b": 0.0, "im_b": 0.0})
        args = ["--a", path] if command == "normdet" else ["--a", path, "--b", path]
        code, out, err = run_cli(capsys, command, *args)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: fields must be numbers, not arrays or objects\n"

    @pytest.mark.parametrize(
        "command, options",
        [("odot", ["--a", "--b"]), ("boxdot", ["--a", "--b"]), ("normdet", ["--a"]),
         ("classify", ["--map"])],
    )
    def test_deeply_nested_file_exits_2(self, capsys, tmp_path, command, options):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        args = [token for option in options for token in (option, str(path))]
        code, out, err = run_cli(capsys, command, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_string_field_exits_2(self, capsys, herm_file):
        path = herm_file("str.json", {"a": "0.5", "d": "0.5", "re_b": "0.1", "im_b": "0"})
        code, out, err = run_cli(capsys, "odot", "--a", path, "--b", path)
        assert code == 2
        assert out == ""
        assert "not numbers" in err


class TestClassify:
    def test_rotation_is_orthogonal(self, capsys, herm_file):
        rot = herm_file("rot.json", [[0.0, -1.0], [1.0, 0.0]])
        code, out, _ = run_cli(capsys, "classify", "--map", rot, "--samples", "100", "--seed", "7")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "orthogonal"
        assert d["matrix"] == [[0.0, -1.0], [1.0, 0.0]]

    def test_zero_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--map", "zero", "--dim", "2", "--samples", "100", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out) == {"verdict": "zero"}

    def test_contraction_exits_1_with_witness(self, capsys, herm_file):
        halving = herm_file("half.json", [[0.5, 0.0], [0.0, 0.5]])
        code, out, _ = run_cli(
            capsys, "classify", "--map", halving, "--samples", "200", "--seed", "7"
        )
        assert code == 1
        d = json.loads(out)
        assert d["verdict"] == "not_endomorphism"
        assert set(d) == {"verdict", "witness_u", "witness_v", "residual"}
        assert d["residual"] > 1e-6

    def test_map_leaving_the_ball_exits_1_with_inf_residual(self, capsys, herm_file):
        doubling = herm_file("double.json", [[2.0, 0.0], [0.0, 2.0]])
        code, out, _ = run_cli(capsys, "classify", "--map", doubling, "--samples", "50")
        assert code == 1
        d = json.loads(out)
        assert d["verdict"] == "not_endomorphism"
        assert d["residual"] == "inf"

    def test_probe_leaving_the_ball_exits_1_with_inf_residual(self, capsys, monkeypatch):
        # no matrix passes the law scan yet sends a probe out of the ball, so
        # the map is a black box: the identity except at the probes' radius
        def probe_escape(args):
            return BallMap(lambda w: 3 * w.coords if abs(w.norm - 0.5) < 1e-12 else w.coords, 2)

        monkeypatch.setattr(gyrokit.cli, "_load_map", probe_escape)
        code, out, err = run_cli(capsys, "classify", "--map", "probe", "--seed", "7")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "verdict": "not_endomorphism",
            "witness_u": [0.5, 0.0],
            "witness_v": [0.5, 0.0],
            "residual": "inf",
        }

    def test_overflowing_matrix_exits_1_without_warning(self, capsys, herm_file):
        huge = herm_file("huge.json", [[1e200, 0.0], [0.0, 1e200]])
        code, out, err = run_cli(capsys, "classify", "--map", huge, "--samples", "50")
        assert (code, err) == (1, "")
        d = json.loads(out)
        assert (d["verdict"], d["residual"]) == ("not_endomorphism", "inf")

    def test_string_entry_exits_2(self, capsys, herm_file):
        rot = herm_file("str.json", [["0", "-1"], ["1", "0"]])
        code, out, err = run_cli(capsys, "classify", "--map", rot)
        assert code == 2
        assert out == ""
        assert "not numbers" in err

    @pytest.mark.parametrize("dim", ["7", "0", "3"])
    def test_dimension_that_contradicts_the_matrix_exits_2_with_one_error_line(
        self, capsys, herm_file, dim
    ):
        rot = herm_file("rot.json", [[0.0, -1.0], [1.0, 0.0]])
        code, out, err = run_cli(capsys, "classify", "--map", rot, "--dim", dim)
        assert (code, out) == (2, "")
        assert err == f"error: --dim is {dim}, but {rot} holds a 2 x 2 matrix\n"

    def test_dimension_that_matches_the_matrix_is_accepted(self, capsys, herm_file):
        rot = herm_file("rot.json", [[0.0, -1.0], [1.0, 0.0]])
        args = ("classify", "--map", rot, "--samples", "100", "--seed", "7")
        assert run_cli(capsys, *args, "--dim", "2") == run_cli(capsys, *args)

    def test_zero_requires_dim(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--map", "zero")
        assert code == 2
        assert "--dim" in err

    @pytest.mark.parametrize("dim", ["1025", "1000000000", str(10**30)])
    def test_dimension_past_the_bound_exits_2_with_one_error_line(self, capsys, dim):
        # refused before any array is allocated
        code, out, err = run_cli(capsys, "classify", "--map", "zero", "--dim", dim)
        assert (code, out) == (2, "")
        assert err == f"error: --dim must be at most 1024, got {dim}\n"

    def test_dimension_at_the_bound_is_read(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--map", "zero", "--dim", "1024", "--samples", "1"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "zero"

    def test_ragged_matrix_exits_2(self, capsys, herm_file):
        bad = herm_file("bad.json", [[1.0, 0.0], [0.0]])
        code, _, err = run_cli(capsys, "classify", "--map", bad)
        assert code == 2
        assert err != ""

    def test_oversized_integer_entry_exits_2(self, capsys, herm_file):
        huge = herm_file("huge.json", [[10**400, 0.0], [0.0, 1.0]])
        code, out, err = run_cli(capsys, "classify", "--map", huge)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_boolean_entry_exits_2(self, capsys, herm_file):
        identity = herm_file("bool.json", [[True, False], [False, True]])
        code, out, err = run_cli(capsys, "classify", "--map", identity)
        assert code == 2
        assert out == ""
        assert "not numbers" in err


class TestVerify:
    def test_single_property_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--only", "identity", "--samples", "20", "--seed", "7"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        d = json.loads(lines[0])
        assert d["name"] == "identity"
        assert d["passed"] is True
        assert d["seed"] == 7

    def test_comma_separated_and_repeated_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--only",
            "closure,identity",
            "--only",
            "gamma_identity",
            "--samples",
            "20",
        )
        assert code == 0
        names = [json.loads(line)["name"] for line in out.strip().split("\n")]
        assert names == ["closure", "identity", "gamma_identity"]

    def test_all_runs_every_property(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--samples", "10", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 23
        for line in lines:
            assert json.loads(line)["passed"] is True

    def test_unknown_property_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "bogus", "--samples", "10")
        assert code == 2
        assert "bogus" in err

    def test_zero_samples_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "closure", "--samples", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_requires_a_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--samples", "10")
        assert code == 2
        assert err != ""

    def test_deterministic(self, capsys):
        argv = ("verify", "--only", "closure", "--samples", "30", "--seed", "1")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSeedResolution:
    def test_env_seed_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIT_SEED", "123")
        _, out, _ = run_cli(capsys, "verify", "--only", "closure", "--samples", "10")
        assert json.loads(out)["seed"] == 123

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIT_SEED", "123")
        _, out, _ = run_cli(capsys, "verify", "--only", "closure", "--samples", "10", "--seed", "9")
        assert json.loads(out)["seed"] == 9

    def test_default_seed_is_7(self, capsys, monkeypatch):
        monkeypatch.delenv("GYROKIT_SEED", raising=False)
        _, out, _ = run_cli(capsys, "verify", "--only", "closure", "--samples", "10")
        assert json.loads(out)["seed"] == 7

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIT_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "verify", "--only", "closure", "--samples", "10")
        assert code == 2
        assert "GYROKIT_SEED" in err


# the command line of each integer option, with the value last
INTEGER_OPTIONS = {
    "--samples": ("verify", "--only", "closure", "--seed", "1", "--samples"),
    "--seed": ("verify", "--only", "closure", "--samples", "4", "--seed"),
    "--dim": ("classify", "--map", "zero", "--samples", "4", "--dim"),
}


class TestIntegerInputs:
    # int() alone reads 1_0 as 10 and non-ASCII digits such as the
    # Arabic-Indic three as digits
    MALFORMED = ["1_0", "\u0663", "\u0661\u0660", "1e1", "0x1", "1.0", "ten", "", "+", "1 0"]

    @pytest.mark.parametrize("value", MALFORMED)
    @pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
    def test_malformed_value_exits_2_with_one_error_line(self, capsys, monkeypatch, option, value):
        monkeypatch.delenv("GYROKIT_SEED", raising=False)
        code, out, err = run_cli(capsys, *INTEGER_OPTIONS[option], value)
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("value", MALFORMED)
    def test_malformed_env_seed_exits_2_with_one_error_line(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GYROKIT_SEED", value)
        code, out, err = run_cli(capsys, "verify", "--only", "closure", "--samples", "4")
        assert (code, out) == (2, "")
        assert err == f"error: GYROKIT_SEED must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("value", ["12", " 12", "+12", "012", "12\t"])
    @pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
    def test_decimal_integer_is_read(self, capsys, monkeypatch, option, value):
        monkeypatch.delenv("GYROKIT_SEED", raising=False)
        assert run_cli(capsys, *INTEGER_OPTIONS[option], value) == run_cli(
            capsys, *INTEGER_OPTIONS[option], "12"
        )
        code, out, _ = run_cli(capsys, *INTEGER_OPTIONS[option], value)
        assert code == 0
        if option == "--samples":
            assert json.loads(out)["samples_run"] == 3 * 12
        if option == "--seed":
            assert json.loads(out)["seed"] == 12

    def test_env_seed_is_read_as_a_decimal_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIT_SEED", " -012 ")
        _, out, _ = run_cli(capsys, "verify", "--only", "closure", "--samples", "4")
        assert json.loads(out)["seed"] == -12


class TestArgparseBehavior:
    def test_no_arguments_exits_2(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert err != ""

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "add" in out and "verify" in out

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "command, options",
        [
            ("add", {"--u": "-0.5,0.1", "--v": "0.2,0"}),
            ("gamma", {"--u": "-0.5,0.1"}),
            ("gyr", {"--u": "-0.5,0.1", "--v": "0.2,0", "--w": "-.3,0.1"}),
            ("dist", {"--x": "-0.5,0.1", "--y": "-0.2,0"}),
            ("collinear", {"--x": "-0.5,0", "--y": "-0.2,0", "--z": "0.3,0"}),
            ("bloch", {"--v": "-0.5,0.1,-0.2"}),
        ],
    )
    def test_vector_starting_with_minus_is_a_value(self, capsys, command, options):
        spaced = [token for option, value in options.items() for token in (option, value)]
        joined = [f"{option}={value}" for option, value in options.items()]
        code, out, err = run_cli(capsys, command, *spaced)
        assert (code, out, err) == run_cli(capsys, command, *joined)
        assert code == 0
        if command == "add":
            assert out == "-0.334527927122186,0.105138142166849\n"


def help_entries(capsys, monkeypatch, *command):
    """(names, help text) of each entry that --help lists, at 80 columns.

    Headings, usage and description are skipped, and wrapped help lines are
    joined, so the entries do not depend on how a Python version lays the
    screen out.  An option's names are its dashed words, without metavars.
    """
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, *command, "--help")
    assert code == 0
    entries = []
    for line in out.split("\n\n", 1)[1].splitlines():
        indent = len(line) - len(line.lstrip())
        if indent == 0:  # a heading or the description
            continue
        if indent > 4:  # a wrapped help line
            names, text = entries[-1]
            entries[-1] = (names, f"{text} {line.strip()}".strip())
            continue
        invocation, _, text = line.strip().partition("  ")
        if invocation.startswith("-"):
            invocation = ", ".join(w.rstrip(",") for w in invocation.split() if w.startswith("-"))
        entries.append((invocation, text.strip()))
    return entries


_HELP = ("-h, --help", "show this help message and exit")
_SEEDED = [
    ("--samples", "random samples per property"),
    ("--seed", "master seed (default: GYROKIT_SEED env var, else 7)"),
]
HELP_SCREENS = {
    (): [
        ("{add,gamma,gyr,dist,collinear,bloch,odot,boxdot,normdet,classify,verify}", ""),
        ("add", "compose two velocities"),
        ("gamma", "Lorentz factor of a velocity"),
        ("gyr", "apply the gyration of a pair to a vector"),
        ("dist", "hyperbolic distance between two points"),
        ("collinear", "test whether three points share a line"),
        ("bloch", "density matrix of a 3-dimensional point"),
        ("odot", "density-matrix product (JSON files)"),
        ("boxdot", "det-1 congruence product (JSON files)"),
        ("normdet", "scale a density matrix to determinant 1"),
        ("classify", "classify a self-map of the ball"),
        ("verify", "run registered property checks"),
        _HELP,
    ],
    ("add",): [_HELP, ("--u", "comma-separated vector, e.g. 0.5,0"), ("--v", "")],
    ("gamma",): [_HELP, ("--u", "")],
    ("gyr",): [_HELP, ("--u", ""), ("--v", ""), ("--w", "")],
    ("dist",): [_HELP, ("--x", ""), ("--y", "")],
    ("collinear",): [_HELP, ("--x", ""), ("--y", ""), ("--z", "")],
    ("bloch",): [_HELP, ("--v", "")],
    ("odot",): [_HELP, ("--a", "JSON file with fields a, d, re_b, im_b"), ("--b", "")],
    ("boxdot",): [_HELP, ("--a", ""), ("--b", "")],
    ("normdet",): [_HELP, ("--a", "")],
    ("classify",): [
        _HELP,
        ("--map", "JSON file with a square matrix, or the literal 'zero'"),
        ("--dim", "dimension for the zero map, at most 1024"),
        *_SEEDED,
    ],
    ("verify",): [
        _HELP,
        ("--all", "run every registered property"),
        ("--only", "property name (repeatable, comma-separable)"),
        *_SEEDED,
    ],
}


class TestTableCommands:
    @pytest.mark.parametrize("name", list(gyrokit.cli._COMMANDS))
    def test_runs_the_operation_the_module_holds_at_call_time(self, monkeypatch, name):
        # a wrapper set on the defining module's attribute, as a tracer or a
        # mock sets it, must see the call, not the function of the table's build
        command = gyrokit.cli._COMMANDS[name]
        layer, _, attr = command.run.rpartition(".")
        module = importlib.import_module(f"gyrokit.{layer}")
        seen = []
        monkeypatch.setattr(module, attr, lambda *values: seen.append(values))
        monkeypatch.setitem(
            gyrokit.cli._COMMANDS, name, command._replace(read=str, show=lambda result: 0)
        )
        args = [arg for option in command.options for arg in (f"--{option}", option)]
        assert main([name, *args]) == 0
        assert seen == [tuple(command.options)]


class TestHelpScreens:
    @pytest.mark.parametrize("command", list(HELP_SCREENS), ids=lambda c: c[0] if c else "top")
    def test_lists_the_pinned_commands_and_options(self, capsys, monkeypatch, command):
        assert help_entries(capsys, monkeypatch, *command) == HELP_SCREENS[command]

    def test_matrix_file_help_names_the_fields_in_their_order(self):
        # spelled out in cli so that building the parser loads no matrix layer
        fields = ", ".join(_HERMITIAN_FIELDS)
        assert gyrokit.cli._HERMITIAN_HELP == f"JSON file with fields {fields}"


_COLD = {"gyrokit", "gyrokit.ball", "gyrokit.cli"}
_LAYERS = {"geometry", "matrix_models", "morphisms", "sampling", "verifier"}
# modules a table command must not load: dataclasses would pull in inspect,
# and the records check their arguments without numbers
_RECORD_MACHINERY = ("dataclasses", "inspect", "numbers")
_WATCHED = ("hashlib", "numpy", *_RECORD_MACHINERY, "typing")
_FOOTPRINT = textwrap.dedent(
    f"""
    import json, sys, types
    import gyrokit.cli
    code = gyrokit.cli.main(sys.argv[1:])
    # a layer registered but not yet run is not of type ModuleType, and
    # type() runs nothing
    executed = sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "gyrokit" and type(module) is types.ModuleType
    )
    loaded = {{name: name in sys.modules for name in {_WATCHED!r}}}
    print(json.dumps({{"code": code, "executed": executed, **loaded}}), file=sys.stderr)
    """
)
_SRC = os.path.dirname(os.path.dirname(gyrokit.cli.__file__))


def _footprint(*argv, flags=()) -> dict:
    """What _FOOTPRINT reports of main(argv), run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FOOTPRINT, *argv], capture_output=True, text=True, env=env
    )
    return json.loads(proc.stderr.splitlines()[-1])


# each command group, and the layers beyond ball and cli that it runs
_FOOTPRINTS = [
    (["add", "--u", "0.5,0", "--v", "0.3,0"], set()),
    (["gamma", "--u", "0.5,0"], set()),
    (["gyr", "--u", "0.5,0", "--v", "0,0.3", "--w", "0.1,0"], set()),
    (["dist", "--x", "0.5,0", "--y", "0.3,0"], {"geometry"}),
    (["collinear", "--x", "0.5,0", "--y", "0.3,0", "--z", "0.1,0"], {"geometry"}),
    (["bloch", "--v", "0,0,0.6"], {"matrix_models"}),
    (["odot", "--a", "{rho}", "--b", "{rho}"], {"matrix_models"}),
    (["normdet", "--a", "{rho}"], {"matrix_models"}),
    (["boxdot", "--a", "{det1}", "--b", "{det1}"], {"matrix_models"}),
    (["classify", "--map", "zero", "--dim", "2", "--samples", "20"], {"morphisms", "sampling"}),
    (["verify", "--only", "closure", "--samples", "10"], _LAYERS),
]


class TestColdFootprint:
    """A cold command runs only the layers its operation needs."""

    @pytest.mark.parametrize(
        "command, layers", _FOOTPRINTS, ids=[command[0] for command, _ in _FOOTPRINTS]
    )
    def test_executes_only_its_own_layers(self, herm_file, command, layers):
        files = {
            "rho": herm_file("rho.json", {"a": 0.6, "d": 0.4, "re_b": 0.1, "im_b": 0.05}),
            "det1": herm_file("det1.json", {"a": 2.0, "d": 0.5, "re_b": 0.0, "im_b": 0.0}),
        }
        seen = _footprint(*(arg.format(**files) for arg in command))
        assert seen["code"] == 0, seen
        assert set(seen["executed"]) == _COLD | {f"gyrokit.{layer}" for layer in layers}
        # only sampling's seed derivation needs hashlib
        assert seen["hashlib"] is ("sampling" in layers)
        # and only the array layers numpy: a table command runs on Python floats
        assert seen["numpy"] is ("sampling" in layers)
        # no layer loads dataclasses; numpy itself loads inspect and numbers
        assert not seen["dataclasses"]
        if "sampling" not in layers:
            assert not any(seen[name] for name in _RECORD_MACHINERY), seen

    def test_a_cold_add_loads_no_typing_without_site(self):
        # site may load typing itself (a .pth file can), so look without it
        seen = _footprint("add", "--u", "0.5,0", "--v", "0.3,0", flags=["-S"])
        assert seen["code"] == 0, seen
        assert not any(seen[name] for name in _WATCHED), seen

    def test_import_loads_no_record_machinery(self):
        code = f"import sys, gyrokit; print([m for m in {_WATCHED!r} if m in sys.modules])"
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.stdout == "[]\n", proc.stderr

    def test_the_layers_are_every_other_module(self):
        here = os.path.dirname(gyrokit.cli.__file__)
        modules = {name[:-3] for name in os.listdir(here) if name.endswith(".py")}
        assert modules - {"__init__", "__main__", "ball", "cli"} == _LAYERS


class TestSubprocess:
    def test_module_entry_point(self):
        env = dict(os.environ, GYROKIT_SEED="7")
        proc = subprocess.run(
            [sys.executable, "-m", "gyrokit", "add", "--u", "0.5,0", "--v", "0.3,0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.695652173913043,0\n"

    def test_verify_stream_parses_line_by_line(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gyrokit",
                "verify",
                "--only",
                "closure,identity",
                "--samples",
                "10",
                "--seed",
                "3",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        names = [json.loads(line)["name"] for line in proc.stdout.strip().split("\n")]
        assert names == ["closure", "identity"]
