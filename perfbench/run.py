"""gyrokit benchmark: one command for the verify-all, ops-stream and cli-oneshot workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; gyrokit is loaded from ./src.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The line before it is a JSON record of the run's identity
and machine.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import tracer
from worker import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "ops-stream", "cli-oneshot")
SETUP_REPEATS = (4, 5)  # import timings before and after the pass, so the
# median spans the run rather than one moment of a machine whose speed drifts
VERIFY_SAMPLES = 1000  # gyrokit verify's default sample count
OPS_PER_DIM = 300  # ops-stream items per dimension, each with its oracle values
CLI_VARIANTS = 3  # distinct inputs per cli-oneshot command kind
RUN_LIMIT_S = 170  # the whole run must end within 180 s
DRAW_PROPERTIES = (
    "gyration_orthogonality", "gyrocommutativity", "commutes_iff_dependent",
    "collinearity_equivalence",
)
ERROR_OPS = {
    "ball.einstein_add": "einstein_add",
    "geometry.klein_distance": "klein_distance",
    "matrix_models.odot": "odot",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gyrokit; "
    "print(repr(time.perf_counter() - t))"
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GYROKIT_SEED", None)  # the CLI would take its seed from here
    return env


def import_seconds(env, repeats: int) -> list[float]:
    """Times of `import gyrokit`, each inside a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                facts["l3_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass  # facts stay None where the platform does not expose them
    return facts


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def run_worker(job: dict, budget_s: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=child_env(), text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(json.dumps(job), timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"workload pass did not finish within {budget_s:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workload pass exited with code {proc.returncode}")
    return json.loads(stdout)


# --------------------------------------------------------------- per workload


def verify_all(args, out: dict, res: dict) -> None:
    # every pass repeats the same seeded suite, so each property is one
    # output, counted once; a repeat that differs is a failure of its own
    wrong, refused = len(set(res["wrong"])), len(set(res["refused"]))
    out.update(attempted=len(res["samples"]), failed=wrong + refused, wrong=wrong)
    out["record"].update(
        wrong_properties=sorted(set(res["wrong"])),
        refused_properties=sorted(set(res["refused"])),
        verify_report_sha256=res["hashes"][0],
    )
    if len(set(res["hashes"])) != 1:  # same seed, same reports: anything else is a defect
        out["wrong"] += 1
        out["failed"] += 1
    # (ns, reference ns) of each untraced run of each property
    by_name = res["property_ns"]
    every = [timing for timings in by_name.values() for timing in timings]
    median_s = {name: statistics.median(ns for ns, _ in t) / 1e9 for name, t in by_name.items()}
    if not args.trace:
        median_ref = {name: statistics.median(ns / ref for ns, ref in t) for name, t in by_name.items()}
        samples = sum(res["samples"].values())
        # a run makes too few passes for percentiles of pass time, so p50
        # is the pass (the sum of per-property medians) and the tail is the
        # slowest property, the longest wait for one report line
        out["e2e"] = {
            "throughput_per_ref": samples / sum(median_ref.values()),
            "p50_ref": sum(median_ref.values()),
            "tail_ref": max(median_ref.values()),
        }
        out["record"]["raw"] = {
            "throughput_per_s": samples / sum(median_s.values()),
            "p50_ms": sum(median_s.values()) * 1e3,
            "tail_ms": max(median_s.values()) * 1e3,
            "ref_us": statistics.median(ref for _, ref in every) / 1e3,
        }
        return
    pairs = len(res["passes"])
    layer = {}
    for name, count in res["passes"][0].items():
        layer[f"{name}.calls"] = count
        layer[f"{name}.self_us"] = res["self_ns"][name] / pairs / 1e3
    for name, seconds in median_s.items():
        layer[f"verifier.{name}.s"] = seconds
    for name in DRAW_PROPERTIES:
        layer[f"verifier.{name}.draws_per_sample"] = res["draws"][name] / res["samples"][name]
    layer["trace.overhead_frac"] = res["traced_ns"] / res["untraced_ns"] - 1.0
    out["layer"] = layer


def ops_stream(args, out: dict, res: dict, items: list, exact: list) -> None:
    # each distinct output counts once, however often the timed loop
    # repeated it, so the counts depend on the seed alone and not on speed;
    # an item whose repeats were not bit-identical fails in every output
    attempted = failed = wrong = refused = 0
    max_err = dict.fromkeys(oracle.OPS, 0.0)
    failures = {}
    for outputs, mismatched, (want, gu, gv) in zip(res["outputs"], res["mismatched"], exact):
        bad = bad_wrong = 0
        for op, got, value in zip(oracle.OPS, outputs, want):
            if isinstance(got, str):  # the call raised
                refused += 1
                bad += 1
                failures[f"{op}{got}"] = failures.get(f"{op}{got}", 0) + 1
                continue
            ok, rel = oracle.judge(op, got, value, gu, gv)
            max_err[op] = max(max_err[op], rel)
            if not ok:
                bad += 1
                bad_wrong += 1
                failures[f"{op}!cutoff"] = failures.get(f"{op}!cutoff", 0) + 1
        attempted += len(outputs)
        failed += len(outputs) if mismatched else bad
        wrong += len(outputs) if mismatched else bad_wrong
    out.update(attempted=attempted, failed=failed, wrong=wrong)
    out["record"].update(
        max_rel_err=max(max_err.values()),
        max_rel_err_by_op=max_err,
        failing_items_by_output=failures,
        refused_outputs=refused,
    )
    if not args.trace:
        out["e2e"] = {
            "throughput_per_ref": len(items) / statistics.median(r for _, r, _ in res["sweeps"]),
            "p50_ref": res["p50_ref"],
            "tail_ref": res["p99_ref"],
        }
        out["record"]["raw"] = {
            "throughput_per_s": len(items) / (statistics.median(ns for ns, _, _ in res["sweeps"]) / 1e9),
            "p50_ms": res["p50_ns"] / 1e6,
            "tail_ms": res["p99_ns"] / 1e6,
            "requests": res["requests"],
            "ref_us": statistics.median(ref for _, _, ref in res["sweeps"]) / 1e3,
        }
        return
    sweeps = len(res["sweeps"]["traced"])
    layer = {}
    for name, count in res["calls"].items():
        layer[f"{name}.calls"] = count
        layer[f"{name}.self_us"] = res["self_ns"][name] / sweeps / 1e3
    for metric, op in ERROR_OPS.items():
        layer[f"{metric}.max_rel_err"] = max_err[op]
    layer["trace.overhead_frac"] = (
        sum(res["sweeps"]["traced"]) / sum(res["sweeps"]["untraced"]) - 1.0
    )
    out["layer"] = layer


def cli_oneshot(args, out: dict, res: dict, pool: list) -> None:
    outcome = res["outcome"]
    attempted = sum(outcome.values())
    out.update(
        attempted=attempted, failed=outcome["wrong"] + outcome["refused"], wrong=outcome["wrong"]
    )
    if not args.trace:
        runs = res["latencies_ns"]  # (pool index, ns, reference ns) per command
        # throughput over whole blocks only, so every run has the same kind mix
        whole = max(len(runs) // inputs.BLOCK_SIZE, 1) * inputs.BLOCK_SIZE

        def per_block(values):
            return len(values[:whole]) / sum(values[:whole])

        ratios = [ns / ref for _, ns, ref in runs]
        ms = [ns / 1e6 for _, ns, _ in runs]
        out["e2e"] = {
            "throughput_per_ref": per_block(ratios),
            "p50_ref": percentile(ratios, 50),
            "tail_ref": percentile(ratios, 90),
        }
        by_kind = {}
        for i, ns, _ in runs:
            by_kind.setdefault(pool[i]["kind"], []).append(ns / 1e6)
        out["record"]["raw"] = {
            "throughput_per_s": per_block([m / 1e3 for m in ms]),
            "p50_ms": percentile(ms, 50),
            "tail_ms": percentile(ms, 90),
            "commands": len(ms),
            "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
            "ref_us": statistics.median(ref for _, _, ref in runs) / 1e3,
        }
        return
    sweeps = res["self_ns_sweeps"]
    layer = {}
    for name, count in res["calls"].items():
        layer[f"{name}.calls"] = count
        layer[f"{name}.self_us"] = statistics.fmean(s.get(name, 0) for s in sweeps) / 1e3
    layer["cli.import_ms"] = statistics.median(res["import_ns"]) / 1e6
    layer["cli.main_ms"] = statistics.median(res["main_ns"]) / 1e6
    layer["trace.overhead_frac"] = (
        sum(res["sweeps"]["traced"]) / sum(res["sweeps"]["untraced"]) - 1.0
    )
    out["layer"] = layer


# ---------------------------------------------------------------------- main


UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_ref": "1/ref", "p50_ref": "ref",
    "tail_ref": "ref",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (
        (".calls", "count"), (".self_us", "us"), (".draws_per_sample", "ratio"),
        (".max_rel_err", "ratio"), ("_frac", "ratio"), ("_ms", "ms"), (".s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    raise BenchmarkError(f"no unit for metric {name}")


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    from gyrokit import registered_names

    started = time.monotonic()
    env = child_env()
    out = {
        "record": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "machine": machine_facts(),
        },
    }
    import_s = import_seconds(env, SETUP_REPEATS[0])
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "corrupt": args.corrupt, "src": str(SRC),
    }
    tmpdir = ROOT / ".perfbench-tmp" / str(os.getpid())  # cli-oneshot input files
    try:
        if args.workload == "verify-all":
            job["samples"] = 20 if args.tiny else VERIFY_SAMPLES
        elif args.workload == "ops-stream":
            items = inputs.ops_pool(args.seed, 4 if args.tiny else OPS_PER_DIM)
            exact = [oracle.exact(*item) for item in items]
            job["items"] = [(u.tolist(), v.tolist(), w.tolist(), t) for u, v, w, t in items]
        else:
            tmpdir.mkdir(parents=True)
            pool = inputs.cli_pool(
                args.seed, str(tmpdir), 1 if args.tiny else CLI_VARIANTS, 20 if args.tiny else None
            )
            job.update(pool=pool, env=env, tmpdir=str(tmpdir),
                       order=inputs.cli_order(args.seed, pool, 400))
        res = run_worker(job, RUN_LIMIT_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass  # absent, or in use by another run
    import_s += import_seconds(env, SETUP_REPEATS[1])

    if args.workload == "verify-all":
        verify_all(args, out, res)
    elif args.workload == "ops-stream":
        ops_stream(args, out, res, items, exact)
    else:
        cli_oneshot(args, out, res, pool)

    if args.trace:
        metrics = {f"{name}.{kind}": 0 for name in tracer.TARGETS for kind in ("calls", "self_us")}
        metrics.update({f"verifier.{n}.s": 0.0 for n in registered_names()})
        metrics.update({f"verifier.{n}.draws_per_sample": 0.0 for n in DRAW_PROPERTIES})
        metrics.update({f"{m}.max_rel_err": 0.0 for m in ERROR_OPS})
        metrics.update({"cli.import_ms": 0.0, "cli.main_ms": 0.0})
        # a layer the workload never reaches reads 0
        metrics.update(out.pop("layer"))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = dict(
            out.pop("e2e"), setup_s=statistics.median(import_s), peak_rss_mb=res["peak_rss_mb"]
        )
        units = UNITS
    out["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    out["record"]["failed_frac"] = out["failed"] / out["attempted"]
    out["record"]["elapsed_s"] = time.monotonic() - started
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="spoil every einstein_add result, for the self-test of the checks",
    )
    args = parser.parse_args(argv)
    if not (SRC / "gyrokit" / "__init__.py").is_file():
        print(f"error: no gyrokit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except (BenchmarkError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {out['record']['failed_frac']:.6g} "
          f"({out['failed']} of {out['attempted']})")
    print(json.dumps({"record": out["record"]}))
    print(json.dumps({
        "correct": out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
