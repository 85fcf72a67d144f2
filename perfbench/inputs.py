"""Seeded inputs for the ops-stream and cli-oneshot workloads.

Inputs are drawn with numpy from the workload seed alone; gyrokit sees only
the generated values.  A draw is kept only when every ball point the request
composes (u+v, v+w, u+(v+w) and the gyration result) stays 100 boundary
margins inside the ball, the evaluability rule of gyrokit/verifier.py: past
it the library must refuse, so such draws test nothing but rounding luck.
Near-boundary inputs u keep their drawn 1 - |u|; only their partners are
redrawn.
"""

from __future__ import annotations

import json
import math

import numpy as np

DIMS = (1, 2, 3, 5, 64)
NEAR_SHARE = 0.25  # share of ops-stream items with 1 - |u| log-uniform in (1e-9, 1e-2],
# stratified so that each seed covers the range evenly
RMAX = 0.999  # gyrokit's default sampling radius
BOUNDARY_MARGIN = 1e-9
EVALUABLE_GAP = 100 * BOUNDARY_MARGIN


def _unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


def _in_ball(rng, d, rmax):
    return _unit(rng, d) * rmax * rng.uniform() ** (1.0 / d)


def _add(u, v):
    """Float Einstein addition, used only to screen draws for evaluability."""
    uv = float(u @ v)
    s = math.sqrt(1.0 - float(u @ u))
    return (u + s * v + (uv / (1.0 + s)) * u) / (1.0 + uv)


def evaluable(u, v, w) -> bool:
    uv = _add(u, v)
    vw = _add(v, w)
    u_vw = _add(u, vw)
    points = (uv, vw, u_vw, _add(-uv, u_vw))
    return all(1.0 - float(np.linalg.norm(p)) >= EVALUABLE_GAP for p in points)


def _near_item(rng, d, stratum, strata):
    # one draw from each of `strata` equal slices of log10(1 - |u|), so every
    # seed spreads its near-boundary items evenly down to the guard
    low = -9.0 + 1e-3
    gap = 10.0 ** (-2.0 + (low + 2.0) * (stratum + rng.uniform()) / strata)
    direction = _unit(rng, d)
    u = direction * (1.0 - gap)
    gamma_u = 1.0 / math.sqrt(gap * (2.0 - gap))
    for _ in range(10_000):
        # a partner of comparable rapidity pointing nearly opposite u: the
        # only kind of partner whose sum with u stays evaluable, and the
        # cancelling case where 1 + (u, v) loses digits
        gap_v = 10.0 ** rng.uniform(-9.0 + 1e-3, -2.0)
        gamma_v = 1.0 / math.sqrt(gap_v * (2.0 - gap_v))
        turn = rng.uniform() * min(1.0, math.sqrt(2000.0 / (gamma_u * gamma_v)))
        side = _unit(rng, d) if d > 1 else np.zeros(1)
        side -= (side @ direction) * direction
        norm_side = float(np.linalg.norm(side))
        away = -direction if norm_side == 0.0 else (
            -math.cos(turn) * direction + math.sin(turn) * side / norm_side
        )
        v = away * (1.0 - gap_v)
        w = _in_ball(rng, d, 0.5)
        if evaluable(u, v, w):
            return u, v, w
    raise RuntimeError("no evaluable partner for a near-boundary draw")


def _bulk_item(rng, d):
    for _ in range(10_000):
        u, v, w = (_in_ball(rng, d, RMAX) for _ in range(3))
        if evaluable(u, v, w):
            return u, v, w
    raise RuntimeError("no evaluable ops-stream draw")


def ops_pool(seed: int, per_dim: int) -> list[tuple]:
    """per_dim items for each dimension, a fixed share of them near the boundary.

    Returns (u, v, w, t) tuples in a seeded order; exact per-dimension and
    near-boundary counts keep the mix identical across seeds.
    """
    rng = np.random.default_rng([seed, 1])
    near = round(NEAR_SHARE * per_dim)
    items = []
    for d in DIMS:
        for k in range(per_dim):
            u, v, w = _near_item(rng, d, k, near) if k < near else _bulk_item(rng, d)
            items.append((u, v, w, float(rng.uniform(-1.0, 1.0))))
    return [items[i] for i in rng.permutation(len(items))]


# ------------------------------------------------------------ cli-oneshot

# one block of twenty commands: fourteen cheap ones, one classify, five
# verify.  The cheap ones all sit near 0.25 s, classify near 0.4 s and verify
# near 0.6 s, so p50 falls 71 % into the cheap band and p90 60 % into the
# verify band, away from the edges where one more slow command would move it.
BLOCK = ("fast",) * 14 + ("classify",) + ("verify",) * 5
BLOCK_SIZE = len(BLOCK)
VERIFY_PROPERTIES = "closure,gamma_identity"


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _fmt_vec(coords) -> str:
    return ",".join(_fmt(c) for c in coords)


def _rounded(value):
    if isinstance(value, float):
        return float(_fmt(value)) + 0.0
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def _fmt_json(obj) -> str:
    return json.dumps(_rounded(obj))


def _arg(x) -> str:
    # passed as --opt=VALUE: argparse reads a separate "-0.5,0.1" as an option
    return ",".join(repr(float(c)) for c in x)


def _write(tmpdir, name, obj) -> str:
    path = f"{tmpdir}/{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def cli_pool(seed: int, tmpdir: str, variants: int, samples: int | None) -> list[dict]:
    """Distinct commands, each with the stdout and exit code the CLI must give.

    Expected values come from the in-process library, formatted as the CLI
    documents (%.15g).  samples=None keeps the CLI's default sample count.
    """
    import gyrokit as gk

    rng = np.random.default_rng([seed, 2])
    extra = [] if samples is None else ["--samples", str(samples)]
    n = 1000 if samples is None else samples
    pool = []

    def expect(kind, argv, stdout, code=0):
        pool.append({"kind": kind, "argv": argv, "stdout": stdout + "\n", "exit": code})

    for k in range(variants):
        d = (2, 3, 5)[k % 3]
        u, v, w = _bulk_item(rng, d)
        U, V, W = gk.GyroVector(u), gk.GyroVector(v), gk.GyroVector(w)
        expect("add", ["add", f"--u={_arg(u)}", f"--v={_arg(v)}"], _fmt_vec(gk.einstein_add(U, V).coords))
        expect("gamma", ["gamma", f"--u={_arg(u)}"], _fmt(gk.gamma(U)))
        expect("gyr", ["gyr", f"--u={_arg(u)}", f"--v={_arg(v)}", f"--w={_arg(w)}"],
            _fmt_vec(gk.gyration(U, V, W).coords))
        expect("dist", ["dist", f"--x={_arg(u)}", f"--y={_arg(v)}"], _fmt(gk.klein_distance(U, V)))
        if k % 2 == 0:  # three points on one chord
            p, q = _in_ball(rng, d, 0.9), _in_ball(rng, d, 0.9)
            x, y, z = (p + s * (q - p) for s in rng.uniform(0.0, 1.0, size=3))
        else:
            x, y, z = u, v, w
        verdict = gk.collinear_gyro(gk.GyroVector(x), gk.GyroVector(y), gk.GyroVector(z))
        expect("collinear", ["collinear", f"--x={_arg(x)}", f"--y={_arg(y)}", f"--z={_arg(z)}"],
            "true" if verdict else "false", 0 if verdict else 1)

        b1, b2 = (_in_ball(rng, 3, 0.99) for _ in range(2))
        d1, d2 = gk.bloch_to_density(gk.GyroVector(b1)), gk.bloch_to_density(gk.GyroVector(b2))
        expect("bloch", ["bloch", f"--v={_arg(b1)}"], _fmt_json(d1.to_json_dict()))
        fa = _write(tmpdir, f"density_a{k}", d1.to_json_dict())
        fb = _write(tmpdir, f"density_b{k}", d2.to_json_dict())
        expect("odot", ["odot", "--a", fa, "--b", fb], _fmt_json(gk.odot(d1, d2).to_json_dict()))
        expect("normdet", ["normdet", "--a", fa], _fmt_json(gk.normalize_det(d1).to_json_dict()))
        p1, p2 = gk.normalize_det(d1), gk.normalize_det(d2)
        ga = _write(tmpdir, f"det1_a{k}", p1.to_json_dict())
        gb = _write(tmpdir, f"det1_b{k}", p2.to_json_dict())
        expect("boxdot", ["boxdot", "--a", ga, "--b", gb], _fmt_json(gk.boxdot(p1, p2).to_json_dict()))

    for k in range(max(1, variants - 1)):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        s = int(rng.integers(2**31))
        path = _write(tmpdir, f"orthogonal{k}", q.tolist())
        verdict = gk.classify_endomorphism(gk.BallMap.from_matrix(q), n, s)
        expect("classify", ["classify", "--map", path, "--seed", str(s), *extra],
            _fmt_json(verdict.to_json_dict()),
            1 if verdict.verdict == gk.MapClassification.NOT_ENDOMORPHISM else 0)

        s = int(rng.integers(2**31))
        reports = gk.run_suite(VERIFY_PROPERTIES.split(","), n, s)
        expect("verify", ["verify", "--only", VERIFY_PROPERTIES, "--seed", str(s), *extra],
            "\n".join(r.to_json_line() for r in reports), 0 if all(r.passed for r in reports) else 1)
    return pool


def cli_order(seed: int, pool: list[dict], blocks: int) -> list[int]:
    """Pool indices in seeded blocks with the fixed kind mix of BLOCK.

    Each kind cycles through all of its pool entries in seeded order, so
    any stretch of whole blocks runs every command about equally often.
    """
    rng = np.random.default_rng([seed, 3])
    by_kind = {"fast": [], "classify": [], "verify": []}
    for i, cmd in enumerate(pool):
        by_kind[cmd["kind"] if cmd["kind"] in by_kind else "fast"].append(i)
    queues = {kind: [] for kind in by_kind}

    def take(kind):
        if not queues[kind]:
            queues[kind] = [by_kind[kind][j] for j in rng.permutation(len(by_kind[kind]))]
        return queues[kind].pop()

    order = []
    for _ in range(blocks):
        block = [take(kind) for kind in BLOCK]
        order.extend(block[i] for i in rng.permutation(len(block)))
    return order
