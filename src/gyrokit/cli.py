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

import numpy as np

from .ball import BallDomainError, GyroError, GyroVector, einstein_add, gamma, gyration
from .geometry import collinear_gyro, klein_distance
from .matrix_models import (
    DensityMatrix2,
    PosDef2Det1,
    bloch_to_density,
    boxdot,
    normalize_det,
    odot,
)
from .morphisms import BallMap, MapClassification, classify_endomorphism
from .sampling import json_ready
from .verifier import registered_names, run_suite

DEFAULT_SEED = 7
DEFAULT_SAMPLES = 1000
_HERMITIAN_FIELDS = ("a", "d", "re_b", "im_b")


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def _fmt_vector(coords) -> str:
    return ",".join(_fmt(c) for c in coords)


def _print_json(obj) -> None:
    print(json.dumps(json_ready(obj)))


# a decimal as written; float() alone also reads 1_0, inf, nan and non-ASCII digits
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")


def _parse_vector(text: str) -> GyroVector:
    tokens = text.split(",")
    bad = [token for token in tokens if not _DECIMAL.fullmatch(token)]
    if bad:
        raise BallDomainError(f"cannot parse vector {text!r}: {bad[0]!r} is not a decimal")
    return GyroVector([float(token) for token in tokens])


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
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


def _load_hermitian(path: str, cls):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise GyroError(f"{path}: expected a JSON object with fields {_HERMITIAN_FIELDS}")
    missing = [field for field in _HERMITIAN_FIELDS if field not in data]
    if missing:
        raise GyroError(f"{path}: missing fields {missing}")
    try:
        fields = {field: float(data[field]) for field in _HERMITIAN_FIELDS}
    except OverflowError as exc:  # the leaves are JSON numbers, but may be huge ints
        raise GyroError(f"{path}: fields must be numbers: {exc}") from exc
    return cls(**fields)


def _load_map(args: argparse.Namespace) -> BallMap:
    if args.map == "zero":
        if args.dim is None:
            raise GyroError("--dim is required when the map is 'zero'")
        return BallMap.zero(args.dim)
    data = _load_json(args.map)
    try:
        matrix = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GyroError(f"{args.map}: expected a JSON square matrix: {exc}") from exc
    return BallMap.from_matrix(matrix)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GYROKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GyroError(f"GYROKIT_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _cmd_add(args: argparse.Namespace) -> int:
    result = einstein_add(_parse_vector(args.u), _parse_vector(args.v))
    print(_fmt_vector(result.coords))
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    print(_fmt(gamma(_parse_vector(args.u))))
    return 0


def _cmd_gyr(args: argparse.Namespace) -> int:
    result = gyration(_parse_vector(args.u), _parse_vector(args.v), _parse_vector(args.w))
    print(_fmt_vector(result.coords))
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    print(_fmt(klein_distance(_parse_vector(args.x), _parse_vector(args.y))))
    return 0


def _cmd_collinear(args: argparse.Namespace) -> int:
    verdict = collinear_gyro(
        _parse_vector(args.x), _parse_vector(args.y), _parse_vector(args.z)
    )
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_bloch(args: argparse.Namespace) -> int:
    _print_json(bloch_to_density(_parse_vector(args.v)))
    return 0


def _cmd_odot(args: argparse.Namespace) -> int:
    a = _load_hermitian(args.a, DensityMatrix2)
    b = _load_hermitian(args.b, DensityMatrix2)
    _print_json(odot(a, b))
    return 0


def _cmd_boxdot(args: argparse.Namespace) -> int:
    a = _load_hermitian(args.a, PosDef2Det1)
    b = _load_hermitian(args.b, PosDef2Det1)
    _print_json(boxdot(a, b))
    return 0


def _cmd_normdet(args: argparse.Namespace) -> int:
    _print_json(normalize_det(_load_hermitian(args.a, DensityMatrix2)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    outcome = classify_endomorphism(
        _load_map(args), args.samples, _resolve_seed(args)
    )
    _print_json(outcome)
    return 0 if outcome.verdict != MapClassification.NOT_ENDOMORPHISM else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        names = list(registered_names())
    else:
        names = [name for group in args.only for name in group.split(",") if name]
        if not names:
            raise GyroError("--only needs at least one property name")
    reports = run_suite(names, args.samples, _resolve_seed(args))
    for report in reports:
        print(report.to_json_line())
    return 0 if all(report.passed for report in reports) else 1


def _add_seeded_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="random samples per property"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed (default: GYROKIT_SEED env var, else 7)",
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

    p = sub.add_parser("add", help="compose two velocities")
    p.add_argument("--u", required=True, help="comma-separated vector, e.g. 0.5,0")
    p.add_argument("--v", required=True)
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("gamma", help="Lorentz factor of a velocity")
    p.add_argument("--u", required=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("gyr", help="apply the gyration of a pair to a vector")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=_cmd_gyr)

    p = sub.add_parser("dist", help="hyperbolic distance between two points")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("collinear", help="test whether three points share a line")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_collinear)

    p = sub.add_parser("bloch", help="density matrix of a 3-dimensional point")
    p.add_argument("--v", required=True)
    p.set_defaults(func=_cmd_bloch)

    p = sub.add_parser("odot", help="density-matrix product (JSON files)")
    p.add_argument("--a", required=True, help="JSON file with fields a, d, re_b, im_b")
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_odot)

    p = sub.add_parser("boxdot", help="det-1 congruence product (JSON files)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_boxdot)

    p = sub.add_parser("normdet", help="scale a density matrix to determinant 1")
    p.add_argument("--a", required=True)
    p.set_defaults(func=_cmd_normdet)

    p = sub.add_parser("classify", help="classify a self-map of the ball")
    p.add_argument(
        "--map", required=True,
        help="JSON file with a square matrix, or the literal 'zero'",
    )
    p.add_argument("--dim", type=int, default=None, help="dimension for the zero map")
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
    except GyroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
