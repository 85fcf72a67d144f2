"""Command-line interface.

Vectors are comma-separated decimals on the command line; matrices and
Hermitian matrices are JSON files.  Numbers print with 15 significant
digits, locale-independent.  Exit codes: 0 success (including affirmative
verdicts), 1 negative verdict, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from functools import partial
from importlib import import_module

from .ball import BallDomainError, GyroError, GyroVector, json_ready

DEFAULT_SEED = 7
DEFAULT_SAMPLES = 1000
# classify holds d x d arrays, each 8 MB at this bound
MAX_DIM = 1024


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


# printers: each prints a result and returns the command's exit code


def _show_vector(result: GyroVector) -> int:
    print(",".join(_fmt(c) for c in result.tolist()))
    return 0


def _show_number(x: float) -> int:
    print(_fmt(x))
    return 0


def _show_verdict(verdict: bool) -> int:
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _show_json(obj) -> int:
    print(json.dumps(json_ready(obj)))
    return 0


# readers: the one place where outside input becomes a value or a GyroError

# a decimal and an integer as written; float() and int() alone also read 1_0
# and non-ASCII digits, and float() inf and nan
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_int(what: str, text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise GyroError(f"{what} must be an integer, got {text!r}")
    return int(text)


def _parse_vector(text: str) -> GyroVector:
    tokens = text.split(",")
    bad = [token for token in tokens if not _DECIMAL.fullmatch(token)]
    if bad:
        raise BallDomainError(f"cannot parse vector {text!r}: {bad[0]!r} is not a decimal")
    return GyroVector([float(token) for token in tokens])


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:  # the decoder recurses once per nesting level
            raise GyroError(f"{path}: {exc}") from exc
    # float() reads True as 1.0 and "0.5" as 0.5, so only JSON numbers may
    # reach it: every leaf must be an int or a float, and bool is an int
    pending = [data]
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise GyroError(f"{path}: strings, null, true and false are not numbers: {value!r}")
    return data


def _fetch(where: str):
    """The object at "layer.name" in this package, read now: the layer runs on
    first use, and a wrapper set on its attribute since (a tracer, a mock) is seen."""
    layer, _, name = where.rpartition(".")
    return getattr(import_module(f"{__package__}.{layer}"), name)


def _load_hermitian(where: str, path: str):
    from .matrix_models import _HERMITIAN_FIELDS

    data = _load_json(path)
    if not isinstance(data, dict):
        raise GyroError(f"{path}: expected a JSON object with fields {_HERMITIAN_FIELDS}")
    missing = [field for field in _HERMITIAN_FIELDS if field not in data]
    if missing:
        raise GyroError(f"{path}: missing fields {missing}")
    try:
        fields = {field: float(data[field]) for field in _HERMITIAN_FIELDS}
    except TypeError as exc:  # the leaves are JSON numbers, but a field may hold more
        raise GyroError(f"{path}: fields must be numbers, not arrays or objects") from exc
    except OverflowError as exc:  # or be a huge int
        raise GyroError(f"{path}: fields must be numbers: {exc}") from exc
    return _fetch(where)(**fields)


def _load_map(args: argparse.Namespace):
    import numpy as np

    from .morphisms import BallMap

    dim = None if args.dim is None else _parse_int("--dim", args.dim)
    if dim is not None and dim > MAX_DIM:
        raise GyroError(f"--dim must be at most {MAX_DIM}, got {dim}")
    if args.map == "zero":
        if dim is None:
            raise GyroError("--dim is required when the map is 'zero'")
        return BallMap.zero(dim)
    data = _load_json(args.map)
    try:
        matrix = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GyroError(f"{args.map}: expected a JSON square matrix: {exc}") from exc
    f = BallMap.from_matrix(matrix)
    if dim not in (None, f.dim):
        raise GyroError(f"--dim is {dim}, but {args.map} holds a {f.dim} x {f.dim} matrix")
    return f


def _seeded(args: argparse.Namespace) -> tuple[int, int]:
    """The sample count and the seed: --seed, else GYROKIT_SEED, else DEFAULT_SEED."""
    samples = _parse_int("--samples", args.samples)
    if args.seed is not None:
        return samples, _parse_int("--seed", args.seed)
    env = os.environ.get("GYROKIT_SEED")
    if env is not None:
        return samples, _parse_int("GYROKIT_SEED", env)
    return samples, DEFAULT_SEED


# A command that reads each option's value, runs one library operation on
# the values in option order, and prints the result: help, its help line;
# options, option name -> help line; read, str -> value; run, the "layer.name"
# of the operation, fetched when the command runs; show, result -> exit code
_Command = namedtuple("_Command", "help options read run show")


_VECTOR_HELP = "comma-separated vector, e.g. 0.5,0"
_density = partial(_load_hermitian, "matrix_models.DensityMatrix2")
_det1 = partial(_load_hermitian, "matrix_models.PosDef2Det1")

# matrix_models._HERMITIAN_FIELDS in order, spelled out so that building the
# parser loads no matrix layer; a test binds the two
_HERMITIAN_HELP = "JSON file with fields a, d, re_b, im_b"

_COMMANDS = {
    "add": _Command("compose two velocities", {"u": _VECTOR_HELP, "v": None},
                    _parse_vector, "ball.einstein_add", _show_vector),
    "gamma": _Command("Lorentz factor of a velocity", dict.fromkeys("u"),
                      _parse_vector, "ball.gamma", _show_number),
    "gyr": _Command("apply the gyration of a pair to a vector", dict.fromkeys("uvw"),
                    _parse_vector, "ball.gyration", _show_vector),
    "dist": _Command("hyperbolic distance between two points", dict.fromkeys("xy"),
                     _parse_vector, "geometry.klein_distance", _show_number),
    "collinear": _Command("test whether three points share a line", dict.fromkeys("xyz"),
                          _parse_vector, "geometry.collinear_gyro", _show_verdict),
    "bloch": _Command("density matrix of a 3-dimensional point", dict.fromkeys("v"),
                      _parse_vector, "matrix_models.bloch_to_density", _show_json),
    "odot": _Command("density-matrix product (JSON files)", {"a": _HERMITIAN_HELP, "b": None},
                     _density, "matrix_models.odot", _show_json),
    "boxdot": _Command("det-1 congruence product (JSON files)", dict.fromkeys("ab"),
                       _det1, "matrix_models.boxdot", _show_json),
    "normdet": _Command("scale a density matrix to determinant 1", dict.fromkeys("a"),
                        _density, "matrix_models.normalize_det", _show_json),
}


def _cmd_table(args: argparse.Namespace) -> int:
    command = _COMMANDS[args.command]
    values = [command.read(getattr(args, option)) for option in command.options]
    # fetched from its layer now, not when the table was built: only this
    # command's layer loads, and a wrapper set on the layer's attribute (a
    # tracer, a mock) sees the call
    return command.show(_fetch(command.run)(*values))


def _cmd_classify(args: argparse.Namespace) -> int:
    from .morphisms import MapClassification, classify_endomorphism

    outcome = classify_endomorphism(_load_map(args), *_seeded(args))
    _show_json(outcome)
    return 0 if outcome.verdict != MapClassification.NOT_ENDOMORPHISM else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verifier import registered_names, run_suite

    if args.all:
        names = list(registered_names())
    else:
        names = [name for group in args.only for name in group.split(",") if name]
        if not names:
            raise GyroError("--only needs at least one property name")
    reports = run_suite(names, *_seeded(args))
    for report in reports:
        print(report.to_json_line())
    return 0 if all(report.passed for report in reports) else 1


def _add_seeded_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--samples", default=str(DEFAULT_SAMPLES), help="random samples per property"
    )
    parser.add_argument(
        "--seed", help="master seed (default: GYROKIT_SEED env var, else 7)"
    )


class _Parser(argparse.ArgumentParser):
    """Parser that reads a token such as -0.5,0.1 as a value, not an option.

    argparse accepts only plain negative numbers as values.  Every option
    here is a long --name, so a dash followed by a digit or a point always
    starts a value.  Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gyrokit",
        description="Velocity addition on the unit ball: arithmetic, geometry predicates, "
        "map classification, 2x2 matrix models, and a seeded property verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, text in command.options.items():
            p.add_argument(f"--{option}", required=True, help=text)
        p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classify", help="classify a self-map of the ball")
    p.add_argument(
        "--map", required=True,
        help="JSON file with a square matrix, or the literal 'zero'",
    )
    p.add_argument("--dim", help=f"dimension for the zero map, at most {MAX_DIM}")
    _add_seeded_arguments(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run registered property checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every registered property")
    group.add_argument(
        "--only", action="append", default=[],
        help="property name (repeatable, comma-separable)",
    )
    _add_seeded_arguments(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # GyroError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
