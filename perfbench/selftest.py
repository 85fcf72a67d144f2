"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

For each workload it runs the benchmark with --tiny, untraced and traced,
and checks that the result line carries exactly the BENCHMARK.json metrics
of that kind, each with its unit.  It then repeats the traced run with
--corrupt, which spoils every einstein_add result from the benchmark's own
wrapper, and checks that the share of failed outputs rises.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "2", "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int, result: dict) -> list[str]:
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    problems = [f"{workload}: {name} missing" for name in expected if name not in got]
    problems += [f"{workload}: {name} not in BENCHMARK.json" for name in got if name not in expected]
    problems += [
        f"{workload}: {name} has unit {got[name]}, BENCHMARK.json says {unit}"
        for name, unit in expected.items()
        if name in got and got[name] != unit
    ]
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        problems.append(f"{workload}: malformed result keys or attempted < 1")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        problems += check_metrics(workload, 0, run(workload, 0))
        clean = run(workload, 1)
        problems += check_metrics(workload, 1, clean)
        spoiled = run(workload, 1, "--corrupt")
        clean_frac = clean["failed"] / clean["attempted"]
        spoiled_frac = spoiled["failed"] / spoiled["attempted"]
        print(f"{workload}: failed_frac {clean_frac:.4g} clean, {spoiled_frac:.4g} corrupted")
        if not spoiled_frac > clean_frac:
            problems.append(f"{workload}: failed_frac did not rise under corruption")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
