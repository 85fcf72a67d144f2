"""Traced stand-in for `python -m gyrokit`, used by the cli-oneshot traced run.

Usage: cli_driver.py STATS_PATH [--corrupt] -- GYROKIT_ARGS...

Times the import of gyrokit.cli and the call to gyrokit.cli.main, traces the
gyrokit functions the benchmark follows, exits with main's code, and writes
{import_ns, main_ns, calls, self_ns} as JSON to STATS_PATH.
"""

from __future__ import annotations

import json
import sys
import time

import tracer


def main() -> int:
    split = sys.argv.index("--")
    stats_path, flags, argv = sys.argv[1], sys.argv[2:split], sys.argv[split + 1:]
    t0 = time.perf_counter_ns()
    import gyrokit.cli

    import_ns = time.perf_counter_ns() - t0
    if "--corrupt" in flags:
        tracer.corrupt_einstein_add()
    tr = tracer.Tracer()
    tr.install()
    t0 = time.perf_counter_ns()
    code = gyrokit.cli.main(argv)
    main_ns = time.perf_counter_ns() - t0
    tr.uninstall()
    sys.stdout.flush()
    calls, self_ns = tr.snapshot()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"import_ns": import_ns, "main_ns": main_ns, "calls": calls, "self_ns": self_ns}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
