"""Child process that runs one workload pass and reports raw measurements.

Reads one JSON job from stdin and writes one JSON object to stdout.  It runs
in its own process so that its peak resident memory is the workload's alone.
The cli-oneshot path imports neither numpy nor gyrokit (nor calibrate, which
needs numpy): a child inherits its parent's resident size into the peak the
kernel reports for it, so the parent must stay smaller than its children.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
clock = time.perf_counter_ns
REF_REPEATS = 5  # reference loops timed before and after each verify-all property run
REF_EVERY = 32  # ops-stream requests between two reference loops
REF_WINDOW = 15  # ops-stream reference loops whose median is the current ref
CLI_REF_EVERY = 3  # cli-oneshot commands between two bare interpreter starts
PER_ITEM = 256  # ops-stream latencies kept per item (its first visits)


def peak_rss_mb() -> float:
    """High-water resident set of this process; its exec'd image only."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between the two nearest order statistics."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _pair_fits(sweeps, deadline) -> bool:
    """Whether one more untraced and traced sweep ends before the deadline."""
    return clock() + sweeps["untraced"][-1] + sweeps["traced"][-1] <= deadline


def _install_tracer(job):
    """A Tracer, not yet installed; with --corrupt, einstein_add is spoiled first."""
    if job["corrupt"]:
        tracer.corrupt_einstein_add()
    return tracer.Tracer()


# ---------------------------------------------------------------- verify-all


def _refused(report) -> bool:
    """A failed property whose counterexample could not be evaluated at all.

    The verifier scores a residual that raised as inf; a classifier verdict
    that came out wrong is also inf but names the verdict it "got".
    """
    example = report.first_counterexample or {}
    return not math.isfinite(report.max_residual) and "got" not in example


def verify_all(job):
    import calibrate
    from gyrokit import registered_names, run_suite

    tr = _install_tracer(job)
    names = registered_names()
    samples, seed = job["samples"], job["seed"]
    deadline = clock() + job["seconds"] * 1e9
    out = {
        "wrong": [], "refused": [], "hashes": [],
        "property_ns": {name: [] for name in names}, "samples": {}, "passes": [],
    }

    sampler = calibrate.LoopSampler()

    def one_pass(traced: bool) -> int:
        """run_suite over every property, one at a time; returns the pass time.

        Calling run_suite once per name does the same work as one call with
        all names, and times (and, traced, counts draws for) each property.
        Untraced, each property's reference is the mean of the loops timed
        before it, during it (by the sampler) and after it.
        """
        lines, draws = [], {}
        start, busy_before = clock(), sampler.busy_ns
        with contextlib.nullcontext() if traced else sampler:
            for name in names:
                if not traced:
                    first, busy = calibrate.reference_ns(REF_REPEATS), sampler.busy_ns
                    mark = len(sampler.loops)
                before = tr.calls["sampling.BallSampler.sample"]
                t0 = clock()
                report = run_suite([name], samples, seed)[0]
                elapsed = clock() - t0
                draws[name] = tr.calls["sampling.BallSampler.sample"] - before
                if not traced:
                    during = sampler.loops[mark:]
                    elapsed -= sampler.busy_ns - busy  # the sampler's loops are not the work
                    ref = statistics.fmean([first, *during, calibrate.reference_ns(REF_REPEATS)])
                    out["property_ns"][name].append((elapsed, ref))
                out["samples"][name] = report.samples_run
                if not report.passed:
                    out["refused" if _refused(report) else "wrong"].append(name)
                lines.append(report.to_json_line())
        out["hashes"].append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
        out["draws"] = draws
        return clock() - start - (sampler.busy_ns - busy_before)

    if not job["trace"]:
        while True:
            elapsed = one_pass(False)
            if clock() + elapsed > deadline:
                return out

    # alternate an untraced and a traced pass while both still fit
    out.update(untraced_ns=0, traced_ns=0)
    while True:
        untraced = one_pass(False)
        tr.install()
        calls0, _ = tr.snapshot()
        traced = one_pass(True)
        tr.uninstall()
        calls1, self_ns = tr.snapshot()
        out["untraced_ns"] += untraced
        out["traced_ns"] += traced
        out["passes"].append(tracer.diff(calls1, calls0))
        out["self_ns"] = tracer.diff(self_ns, {})
        if clock() + untraced + traced > deadline:
            return out


# ---------------------------------------------------------------- ops-stream


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a refusal or a crash is this output's result
        return exc


def _encode(result):
    """Hashable form of one output, for bit-identity checks between visits."""
    if isinstance(result, Exception):
        return "!" + type(result).__name__
    if hasattr(result, "coords"):
        return tuple(result.coords.tolist())
    if hasattr(result, "re_b"):
        return (result.a, result.d, result.re_b, result.im_b)
    return float(result)


def ops_stream(job):
    import calibrate
    import numpy as np
    import gyrokit as gk  # looked up per call, so installed wrappers see the calls

    tr = _install_tracer(job)
    items = [
        (np.array(u), np.array(v), np.array(w), t) for u, v, w, t in job["items"]
    ]

    def request(u, v, w, t):
        U, V, W = _attempt(gk.GyroVector, u), _attempt(gk.GyroVector, v), _attempt(gk.GyroVector, w)
        out = [
            _attempt(gk.einstein_add, U, V),
            _attempt(gk.gamma, U),
            _attempt(gk.gyration, U, V, W),
            _attempt(gk.klein_distance, U, V),
            _attempt(gk.line_param, U, t),
        ]
        if u.shape[0] == 3:
            du, dv = _attempt(gk.bloch_to_density, U), _attempt(gk.bloch_to_density, V)
            out.append(_attempt(gk.odot, du, dv))
            out.append(_attempt(gk.normalize_det, du))
        return out

    n = len(items)
    first = [None] * n
    mismatched = [0] * n
    refs = deque((calibrate.python_loop_ns() for _ in range(REF_WINDOW)), maxlen=REF_WINDOW)
    rng = np.random.default_rng([job["seed"], 4])

    def visit(i):
        u, v, w, t = items[i]
        t0 = clock()
        out = request(u, v, w, t)
        elapsed = clock() - t0
        key = [_encode(r) for r in out]
        if first[i] is None:
            first[i] = key
        elif key != first[i]:
            mismatched[i] += 1
        return elapsed

    deadline = clock() + job["seconds"] * 1e9
    result = {}
    if not job["trace"]:
        # latencies for the percentiles, PER_ITEM slots for each item in
        # arrays of fixed size, so memory, and peak_rss_mb, do not grow with speed
        raw, scaled = np.full((n, PER_ITEM), np.nan), np.full((n, PER_ITEM), np.nan)
        kept = [0] * n
        sweeps = []  # (busy ns, busy in reference loops, ref ns) of each full sweep
        requests = 0
        while clock() < deadline or not sweeps:
            busy = busy_ref = 0
            for k, i in enumerate(rng.permutation(n).tolist()):
                if k % REF_EVERY == 0:
                    refs.append(calibrate.python_loop_ns())
                    ref = statistics.median(refs)
                elapsed = visit(i)
                busy += elapsed
                busy_ref += elapsed / ref
                if kept[i] < PER_ITEM:
                    raw[i, kept[i]], scaled[i, kept[i]] = elapsed, elapsed / ref
                    kept[i] += 1
                requests += 1
                if clock() >= deadline and sweeps:
                    break
            else:
                sweeps.append((busy, busy_ref, ref))
        # p50 pools every kept latency; the tail is the p99 over items of
        # each item's median latency, the slow requests without the one-off
        # pauses of a shared machine, which no two runs share
        result.update(
            requests=requests,
            sweeps=sweeps,
            p50_ns=float(np.median(raw[~np.isnan(raw)])),
            p99_ns=float(np.percentile(np.nanmedian(raw, axis=1), 99)),
            p50_ref=float(np.median(scaled[~np.isnan(scaled)])),
            p99_ref=float(np.percentile(np.nanmedian(scaled, axis=1), 99)),
        )
    else:
        sweeps = {"untraced": [], "traced": []}
        calls = None
        while not sweeps["traced"] or _pair_fits(sweeps, deadline):
            sweeps["untraced"].append(sum(visit(i) for i in range(n)))
            tr.install()
            before, _ = tr.snapshot()
            sweeps["traced"].append(sum(visit(i) for i in range(n)))
            tr.uninstall()
            after, self_ns = tr.snapshot()
            calls = calls or tracer.diff(after, before)
        result.update(sweeps=sweeps, calls=calls, self_ns=tracer.diff(self_ns, {}))

    result.update(outputs=first, mismatched=mismatched)
    return result


# --------------------------------------------------------------- cli-oneshot


def _spawn(argv, env):
    """Run one command to exit: (elapsed ns, stdout, exit code, peak RSS MB)."""
    t0 = clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode not in (0, 1):
        sys.stderr.write(stderr.decode(errors="replace"))
    return elapsed, stdout.decode(errors="replace"), proc.returncode, usage.ru_maxrss / 1024.0


def cli_oneshot(job):
    pool, env = job["pool"], job["env"]
    plain = [sys.executable, "-m", "gyrokit"]
    stats_path = os.path.join(job["tmpdir"], "stats.json")
    driver = [sys.executable, str(HERE / "cli_driver.py"), stats_path]
    if job["corrupt"]:
        driver.append("--corrupt")
    peak = 0.0
    status = {}  # pool index -> its worst outcome over every run of it

    def run(i, traced):
        """Run pool[i] to exit and check it; returns the elapsed ns."""
        nonlocal peak
        cmd = pool[i]
        argv = (driver + ["--"] if traced else plain) + cmd["argv"]
        elapsed, stdout, code, rss = _spawn(argv, env)
        peak = max(peak, rss)
        if code not in (0, 1):
            status[i] = "refused"
        elif code != cmd["exit"] or stdout != cmd["stdout"]:
            status[i] = "wrong"
        else:
            status.setdefault(i, "ok")
        return elapsed

    deadline = clock() + job["seconds"] * 1e9
    result = {}
    via_driver = job["corrupt"]
    if not job["trace"]:
        # the reference here is a bare interpreter start (`python -c pass`),
        # which drifts with the machine as process start-up does
        bare = [sys.executable, "-c", "pass"]
        for _ in range(2):
            _spawn(bare, env)  # warm-up, not used
        starts, runs = [], []  # (index of the next command, ns); (pool index, ns)
        for k, i in enumerate(job["order"]):
            if k % CLI_REF_EVERY == 0:
                starts.append((k, _spawn(bare, env)[0]))
            runs.append((i, run(i, via_driver)))
            if clock() >= deadline:
                break
        starts.append((len(runs), _spawn(bare, env)[0]))
        # each command's reference is the median of the bare starts at most
        # CLI_REF_EVERY commands before or after it: speed changes within
        # seconds, so starts on both sides track it better than past ones
        result["latencies_ns"] = [
            (i, ns, statistics.median(v for j, v in starts if abs(j - k) <= CLI_REF_EVERY))
            for k, (i, ns) in enumerate(runs)
        ]
    else:
        # sweeps over every distinct command: plain, then through the
        # tracing driver, so the counts of one traced sweep repeat exactly
        sweeps = {"untraced": [], "traced": []}
        per_sweep = None
        while not sweeps["traced"] or _pair_fits(sweeps, deadline):
            sweeps["untraced"].append(sum(run(i, via_driver) for i in range(len(pool))))
            totals = {"calls": {}, "self_ns": {}, "import_ns": [], "main_ns": []}
            elapsed = 0
            for i in range(len(pool)):
                elapsed += run(i, True)
                with open(stats_path, encoding="utf-8") as handle:
                    stats = json.load(handle)
                os.remove(stats_path)
                for field in ("calls", "self_ns"):
                    for k, v in stats[field].items():
                        totals[field][k] = totals[field].get(k, 0) + v
                totals["import_ns"].append(stats["import_ns"])
                totals["main_ns"].append(stats["main_ns"])
            sweeps["traced"].append(elapsed)
            per_sweep = per_sweep or totals
            result.setdefault("self_ns_sweeps", []).append(totals["self_ns"])
            result.setdefault("import_ns", []).extend(totals["import_ns"])
            result.setdefault("main_ns", []).extend(totals["main_ns"])
        result.update(sweeps=sweeps, calls=per_sweep["calls"])
    outcome = {"ok": 0, "wrong": 0, "refused": 0}
    for worst in status.values():
        outcome[worst] += 1
    result.update(outcome=outcome, peak_rss_mb=peak)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    if job["workload"] == "cli-oneshot":
        result = cli_oneshot(job)
    else:
        sys.path.insert(0, job["src"])
        result = verify_all(job) if job["workload"] == "verify-all" else ops_stream(job)
        result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
