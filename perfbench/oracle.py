"""50-digit mpmath oracle for the ops-stream outputs, and their failure cutoffs.

Every float input is converted to mpmath exactly, so the oracle value is the
exact result for the very doubles gyrokit received, rounded at 50 digits.

Cutoffs follow the residual normalisation documented in gyrokit/verifier.py,
using for each operation the property whose residual is that operation's
own forward error:

  einstein_add     |err|_2 / (gamma(u) gamma(v))^2 <= abs_tol  (gyrocommutativity)
  gamma            |err| / (gamma * gamma(u)^2) <= rel_tol      (gamma_identity)
  gyration         |err|_2 / (gamma(u) gamma(v))^2 <= abs_tol  (gyrocommutativity)
  klein_distance   |err| / (1 + max gamma) <= 10 rel_tol        (left_translation_isometry)
  line_param       |err|_2 / gamma(result)^2 <= abs_tol          (one_parameter_subgroup)
  odot             max |err| / (gamma(u) gamma(v))^2 <= rel_tol (bloch_homomorphism)
  normalize_det    max |err| / ((1 + max entry) gamma(u)^2) <= rel_tol
                                                  (det_normalization_homomorphism)

The relative forward error reported beside the verdict is |err| / |exact|
in the same norm, with no conditioning factor.
"""

from __future__ import annotations

import mpmath as mp

ABS_TOL = 1e-9
REL_TOL = 1e-9
DPS = 50

# output order of one ops-stream request; the last two exist for d = 3 only
OPS = ("einstein_add", "gamma", "gyration", "klein_distance", "line_param", "odot", "normalize_det")


def _vec(x):
    return [mp.mpf(float(c)) for c in x]


def _dot(a, b):
    return mp.fsum(p * q for p, q in zip(a, b))


def _add(u, v):
    uv = _dot(u, v)
    s = mp.sqrt(1 - _dot(u, u))
    return [(a + s * b + (uv / (1 + s)) * a) / (1 + uv) for a, b in zip(u, v)]


def _gamma(u):
    return 1 / mp.sqrt(1 - _dot(u, u))


def _bloch(u):
    x, y, z = u
    return ((1 + z) / 2, (1 - z) / 2, mp.mpc(x / 2, -y / 2))


def _odot(p, q):
    a, d, b = p
    det = a * d - abs(b) ** 2
    s = mp.sqrt(det)
    n = mp.sqrt(a + d + 2 * s)
    r = [[(a + s) / n, b / n], [mp.conj(b) / n, (d + s) / n]]
    m = [[q[0], q[2]], [mp.conj(q[2]), q[1]]]
    rm = [[sum(r[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    out = [[sum(rm[i][k] * r[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    t = mp.re(out[0][0]) + mp.re(out[1][1])
    return [mp.re(out[0][0]) / t, mp.re(out[1][1]) / t, mp.re(out[0][1]) / t, mp.im(out[0][1]) / t]


def exact(u, v, w, t):
    """(oracle values of one request in OPS order, gamma(u), gamma(v))."""
    with mp.workdps(DPS):
        U, V, W = _vec(u), _vec(v), _vec(w)
        uv = _add(U, V)
        gyr = _add([-c for c in uv], _add(U, _add(V, W)))
        arg = (1 - _dot(U, V)) / mp.sqrt((1 - _dot(U, U)) * (1 - _dot(V, V)))
        norm_u = mp.sqrt(_dot(U, U))
        radius = mp.tanh(mp.mpf(float(t)) * mp.atanh(norm_u))
        out = [uv, _gamma(U), gyr, mp.acosh(arg), [radius / norm_u * c for c in U]]
        if len(U) == 3:
            du, dv = _bloch(U), _bloch(V)
            out.append(_odot(du, dv))
            scale = mp.sqrt((1 - _dot(U, U)) / 4)
            out.append([du[0] / scale, du[1] / scale, mp.re(du[2]) / scale, mp.im(du[2]) / scale])
        return out, _gamma(U), _gamma(V)


def judge(op, got, want, gu, gv):
    """(passes cutoff, relative forward error) of one returned output."""
    with mp.workdps(DPS):
        if op in ("gamma", "klein_distance"):
            err = abs(mp.mpf(got) - want)
            size = abs(want)
        elif op in ("odot", "normalize_det"):
            err = max(abs(mp.mpf(g) - x) for g, x in zip(got, want))
            size = max(abs(x) for x in want)
        else:
            err = mp.sqrt(mp.fsum((mp.mpf(g) - x) ** 2 for g, x in zip(got, want)))
            size = mp.sqrt(mp.fsum(x**2 for x in want))
        if op in ("einstein_add", "gyration"):
            ok = err / (gu * gv) ** 2 <= ABS_TOL
        elif op == "gamma":
            ok = err / (want * gu**2) <= REL_TOL
        elif op == "klein_distance":
            ok = err / (1 + max(gu, gv)) <= 10 * REL_TOL
        elif op == "line_param":
            ok = err * (1 - mp.fsum(x**2 for x in want)) <= ABS_TOL
        elif op == "odot":
            ok = err / (gu * gv) ** 2 <= REL_TOL
        else:
            ok = err / ((1 + size) * gu**2) <= REL_TOL
        return bool(ok), float(err / size) if size else float(err)
