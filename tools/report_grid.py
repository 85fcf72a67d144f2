"""Print every seeded report of a fixed grid, for byte-identity checks.

Run it on two checkouts and compare the outputs with diff: a change that
keeps the seeded streams and the arithmetic prints the same bytes.  Every
seeded draw became a block draw filtered by mask at one change, on
purpose, so checkouts before it print other suite, tolerance, radius and
coarse lines, and other check_endomorphism lines in maps; the
classify_endomorphism and zero_propagation_check lines stayed.  A later
change drew every point by the pow-free sampler (a Gaussian in d + 2
dimensions) and gave each classifier stack one stream per phase, also on
purpose, so every section changed again.  The next evaluated gyration in
closed form and drew gyration_orthogonality's points without the
evaluability stage: only the gyration_orthogonality and gyrocommutativity
lines of the suite, tolerance, radius and coarse sections changed, and
maps stayed byte-identical.  The next raised the scan's block size,
sampling.SCAN_CHUNK, from 256 to 1024, on purpose: the seven properties
that draw matrices, line parameters or scales per block
(one_parameter_subgroup, line_translation_distance,
orthogonal_endomorphism, orthogonal_residual_bound, sqrt_squares_back,
boxdot_det_multiplicative and transported_automorphism) changed their
suite lines at n = 1000 and their tolerance lines at n = 769, as did the
staged commutes_iff_dependent and collinearity_equivalence lines at n =
769 and tol=1e-30; radius, coarse, maps and every --small line stayed.
The same change added the suite rows that cross a block boundary.
The next summed every inner product left to right (ball._dot) where
BLAS's ddot had summed in its own order, on purpose: max_residual
changed in 544 lines, and first_counterexample in 44, of twelve
properties that draw points alone, of the three that draw Haar
matrices, and of check_endomorphism on orthogonal maps; at seeds 0-39
no verdict changed.  The one verdict that changed is line_translation_distance at
rmax = 1 - 1e-8, n = 150, seed 0, which now passes: its residual sits
at the cutoff.  From this change on, only the lines that draw Haar
matrices or apply a matrix differ between OpenBLAS kernels.

    PYTHONPATH=src python tools/report_grid.py > grid.txt
    PYTHONPATH=src python tools/report_grid.py --small   # seconds, for CI

Sections, each closed by the sha256 of its lines:

  suite      every property at n = 1000 for seeds 0-9 and n = 200 for 10-39,
             and at n = 2 SCAN_CHUNK + 1 for seed 0, which crosses two
             block boundaries (SCAN_CHUNK + 1 under --small)
  tolerance  n in {1, 40, 769} at seeds 0, 7, 11 under abs_tol = rel_tol
             = 1e-30 and = 1e-13
  radius     sampling radii 1 - 2e-9 to 0.3 at n = 150, seeds 0-2
  coarse     abs_tol = 1e-2, where some draws give up
  maps       classify_endomorphism, check_endomorphism and
             zero_propagation_check on a few maps; the lines of
             classify_endomorphism verdicts refuted by the law scan
             changed on purpose at an earlier change, when the
             classifier's scans moved to block draws

Each property runs alone, so one that raises prints its exception text in
place of its report and the others still print theirs.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from gyrokit import (
    BallMap,
    GyroVector,
    ToleranceConfig,
    check_endomorphism,
    classify_endomorphism,
    random_orthogonal,
    registered_names,
    run_suite,
    zero_propagation_check,
)
from gyrokit.sampling import SCAN_CHUNK, json_ready

RADII = (1 - 2e-9, 1 - 1e-8, 0.9999999, 0.99999, 0.3)


def _outcome(run) -> str:
    """The JSON line of run()'s result, as the CLI prints it, or the type
    and text of what it raised."""
    try:
        return json.dumps(json_ready(run()))
    except Exception as exc:  # noqa: BLE001 - every failure is part of the output
        return f"raised {type(exc).__name__}: {exc}"


def _suite_lines(runs, tol_label: str, tol: ToleranceConfig):
    for n, seed in runs:
        for name in registered_names():
            line = _outcome(lambda: run_suite([name], n, seed, tol)[0])
            yield f"{tol_label} n={n} seed={seed} {line}"


def _map_lines(small: bool):
    seeds = (1,) if small else (1, 7)
    for dim in (2, 3):
        q = random_orthogonal(np.random.default_rng(dim), dim)
        maps = {
            "orthogonal": BallMap.from_matrix(q),
            "half": BallMap.from_matrix(0.5 * q),
            "zero": BallMap.zero(dim),
        }
        for label, f in maps.items():
            for seed in seeds:
                for n in (20, 300):
                    tag = f"d={dim} {label} n={n} seed={seed}"
                    verdict = _outcome(lambda: classify_endomorphism(f, n, seed))
                    yield f"classify {tag} {verdict}"
                    yield f"check {tag} " + _outcome(lambda: check_endomorphism(f, n, seed))
        x = np.zeros(dim)
        x[0] = 0.5
        kill = BallMap.from_matrix(np.eye(dim) - np.outer(x, x) / (x @ x))
        for seed in seeds:
            for n in (1, 100):
                line = _outcome(lambda: zero_propagation_check(kill, GyroVector(x), n, seed))
                yield f"zero_propagation d={dim} n={n} seed={seed} {line}"


def sections(small: bool) -> dict:
    default = ToleranceConfig()
    if small:
        suite = [(40, 0), (20, 10), (SCAN_CHUNK + 1, 0)]
        counts, seeds, radius_seeds = (1, 40), (7,), (0,)
    else:
        suite = [(1000, s) for s in range(10)] + [(200, s) for s in range(10, 40)]
        suite += [(2 * SCAN_CHUNK + 1, 0)]
        counts, seeds, radius_seeds = (1, 40, 769), (0, 7, 11), (0, 1, 2)
    grid = [(n, s) for n in counts for s in seeds]
    tight = [(f"tol={t:g}", ToleranceConfig(abs_tol=t, rel_tol=t)) for t in (1e-30, 1e-13)]
    radii = [(f"rmax={r!r}", ToleranceConfig(sample_rmax=r)) for r in RADII]
    coarse = ToleranceConfig(abs_tol=1e-2)
    return {
        "suite": lambda: _suite_lines(suite, "default", default),
        "tolerance": lambda: (
            line for label, tol in tight for line in _suite_lines(grid, label, tol)
        ),
        "radius": lambda: (
            line
            for label, tol in radii
            for line in _suite_lines([(150, s) for s in radius_seeds], label, tol)
        ),
        "coarse": lambda: _suite_lines([(40, s) for s in seeds], "abs_tol=0.01", coarse),
        "maps": lambda: _map_lines(small),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="a few runs per section")
    args = parser.parse_args(argv)
    for name, lines in sections(args.small).items():
        digest = hashlib.sha256()
        for line in lines():
            print(line)
            digest.update(line.encode() + b"\n")
        print(json.dumps({"section": name, "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
