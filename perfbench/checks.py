"""Correctness checks for benchmark results, written against plain numbers.

Every check takes a result record (a dict of floats, flags and the input
geometry) and returns a list of failure messages; an empty list means the
result passed. Checks never call into anisospec: the exact rank-1 values are
recomputed here by an independent chord integration, and the disc and
thin-slab values come from their closed forms.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

J01 = 2.404825557695772768621631879  # first zero of the Bessel function J0
L_SHAPE_LAMBDA = 9.6397238440219  # Trefethen & Betcke (2006), three unit squares

REL_EXACT = 1e-9  # exact routes: slicing and closed forms
REL_DISC = 1e-2  # disc optima on the Richardson ellipse route


def square_torsion(terms: int = 2001) -> float:
    """Torsional rigidity of the unit square from its double sine series,
    64/pi^6 * sum over odd m, n of 1 / (m^2 n^2 (m^2 + n^2))."""
    k = np.arange(1, terms + 1, 2, dtype=float) ** 2
    return float(64.0 / math.pi**6 * np.sum(1.0 / (k[:, None] * k[None, :] * (k[:, None] + k[None, :]))))


def polygon_area(V) -> float:
    V = np.asarray(V, dtype=float)
    W = np.roll(V, -1, axis=0)
    return 0.5 * float(np.sum(V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]))


def _chords(u, v, t):
    """Lengths of the chord components on the lines u = t (one row per t),
    padded with zeros. Lines must avoid vertices."""
    u0, v0 = u, v
    u1, v1 = np.roll(u, -1), np.roll(v, -1)
    t = np.asarray(t, dtype=float)[:, None]
    crosses = (np.minimum(u0, u1) < t) & (t < np.maximum(u0, u1))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(crosses, v0 + (t - u0) / (u1 - u0) * (v1 - v0), np.inf)
        y = np.sort(y, axis=1)
        m = y.shape[1] // 2 * 2
        lengths = y[:, 1:m:2] - y[:, 0:m:2]
    return np.where(np.isfinite(lengths), lengths, 0.0)


def rank1_exact(V, eta) -> tuple[float, float]:
    """(lambda, T) of the polygon V for H(x) = |<x, eta>|.

    lambda = |eta|^2 pi^2 / w^2 with w the longest chord parallel to eta, and
    T = |eta|^-2 * integral of (chord length)^3 / 12 over the offsets. Each
    chord component is affine in the offset between vertex projections, so
    two-point Gauss-Legendre is exact for the cubic and the longest chord sits
    at a slab end, reached by extrapolating the two Gauss values.
    """
    eta = np.asarray(eta, dtype=float)
    scale = float(np.hypot(eta[0], eta[1]))
    e = eta / scale
    V = np.asarray(V, dtype=float)
    u = V @ np.array([-e[1], e[0]])
    v = V @ e
    b = np.unique(u)
    lo, hi = b[:-1], b[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    g = half / math.sqrt(3.0)
    l1, l2 = _chords(u, v, mid - g), _chords(u, v, mid + g)
    torsion = float(np.sum(half[:, None] * (l1**3 + l2**3)) / 12.0)
    slope = (l2 - l1) / (2.0 * g)[:, None]
    ends = np.concatenate([l1 + slope * (g - half)[:, None], l1 + slope * (g + half)[:, None]])
    width = float(ends.max())
    return scale**2 * math.pi**2 / width**2, torsion / scale**2


def rank1_value(V, theta: float, q: float) -> float:
    lam, tor = rank1_exact(V, (math.cos(theta), math.sin(theta)))
    return lam * tor**q


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_optimum(rec) -> list:
    """Finite, positive, value = lambda * T^q, and lambda * T <= |Omega|."""
    lam, tor, val, q = rec["lambda"], rec["torsion"], rec["value"], rec["q"]
    if not all(math.isfinite(x) and x > 0 for x in (lam, tor, val)):
        return [f"non-finite or non-positive optimum (lambda={lam}, T={tor}, value={val})"]
    out = []
    if _rel(val, lam * tor**q) > REL_EXACT:
        out.append(f"value {val!r} != lambda * T^q {lam * tor**q!r}")
    if lam * tor > rec["measure"] * (1.0 + REL_EXACT):
        out.append(f"lambda*T {lam * tor!r} exceeds |Omega| {rec['measure']!r}")
    return out


def check_rank1_convex(rec) -> list:
    """Rank-1 optima on convex domains: lambda * T <= pi^2 |Omega| / 12."""
    bound = math.pi**2 * rec["measure"] / 12.0
    prod = rec["lambda"] * rec["torsion"]
    return [] if prod <= bound * (1.0 + REL_EXACT) else [f"rank-1 lambda*T {prod!r} exceeds pi^2|Omega|/12 {bound!r}"]


def check_slicing(rec, V) -> list:
    """A rank-1 (or alpha = 0) optimum equals the exact value at its angle."""
    lam, tor = rank1_exact(V, (math.cos(rec["theta"]), math.sin(rec["theta"])))
    out = []
    for name, got, want in (("lambda", rec["lambda"], lam), ("torsion", rec["torsion"], tor)):
        if _rel(got, want) > REL_EXACT:
            out.append(f"{name} {got!r} != exact {want!r} at theta={rec['theta']!r}")
    if _rel(rec["value"], lam * tor ** rec["q"]) > REL_EXACT:
        out.append(f"value {rec['value']!r} != exact {lam * tor ** rec['q']!r}")
    return out


def check_beats_grid(rec, V, n_angles: int = 36) -> list:
    """The optimum is at least as good as the exact rank-1 value at every
    multiple of pi/n_angles, all of which the optimizers evaluate."""
    grid = [rank1_value(V, k * math.pi / n_angles, rec["q"]) for k in range(n_angles)]
    if rec["mode"] == "min":
        best = min(grid)
        ok = rec["value"] <= best * (1.0 + REL_EXACT)
    else:
        best = max(grid)
        ok = rec["value"] >= best * (1.0 - REL_EXACT)
    return [] if ok else [f"{rec['mode']} optimum {rec['value']!r} is worse than grid value {best!r}"]


def disc_reference(r: float, q: float, mode: str) -> float:
    """Closed-form optimum on the disc of radius r for q <= 1: the rank-1
    minimum pi^2/4 (pi/4)^q and the Euclidean maximum j01^2 (pi/8)^q, both
    scaled by r^(4q - 2)."""
    unit = math.pi**2 / 4.0 * (math.pi / 4.0) ** q if mode == "min" else J01**2 * (math.pi / 8.0) ** q
    return unit * r ** (4.0 * q - 2.0)


def check_disc(rec, r: float) -> list:
    """Disc optima for q <= 1: min on the rank-1 boundary, max at alpha ~ 1."""
    want = disc_reference(r, rec["q"], rec["mode"])
    out = []
    if _rel(rec["value"], want) > REL_DISC:
        out.append(f"disc {rec['mode']} q={rec['q']!r}: value {rec['value']!r} vs closed form {want!r}")
    if rec["mode"] == "min" and not rec["boundary_flag"]:
        out.append("disc min with q <= 1 must sit on the rank-1 boundary")
    if rec["mode"] == "max" and not rec["alpha"] >= 0.99:
        out.append(f"disc max with q <= 1 needs alpha >= 0.99, got {rec['alpha']!r}")
    return out


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: operator.pow}
_FUNCS = {"sqrt": math.sqrt, "log": math.log}


def _label_value(label: str) -> float:
    """Value of a reference label such as 'pi^2/(4*sqrt(3))/10'."""

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCS:
            return _FUNCS[node.func.id](*(ev(a) for a in node.args))
        raise ValueError(f"unsupported reference label {label!r}")

    return ev(ast.parse(label.replace("^", "**"), mode="eval").body)


def check_reproduce(stdout: str, code: int) -> list:
    """Exit 0, every row PASS, and each printed value equal to its label."""
    out = [] if code == 0 else [f"reproduce exited {code}"]
    rows = stdout.splitlines()
    if not rows:
        out.append("reproduce printed nothing")
    for row in rows:
        name, _, rest = row.partition(": computed ")
        value, _, rest = rest.partition(" expected ")
        label, _, verdict = rest.rpartition(" ")
        if verdict != "PASS":
            out.append(f"reproduce row not PASS: {row}")
        elif abs(float(value) - _label_value(label)) > 6e-9:  # printed with 8 decimals
            out.append(f"reproduce row {name!r}: {value} != {label}")
    return out


def kj_value(q: float, n: int) -> float:
    """Thin-slab sequence value for d = 2, k = 1: n^(2q-2) (pi^2/4) 3^-q."""
    return float(n) ** (2.0 * q - 2.0) * math.pi**2 / 4.0 * 3.0 ** (-q)


def check_kj(stdout: str, q: float, ns) -> list:
    lines = stdout.splitlines()
    if lines[:1] != ["n,value"] or len(lines) != len(ns) + 1:
        return [f"kj-demo printed an unexpected table: {stdout!r}"]
    out = []
    for n, line in zip(ns, lines[1:]):
        got_n, got = line.split(",")
        if int(got_n) != n or _rel(float(got), kj_value(q, n)) > REL_EXACT:
            out.append(f"kj-demo row {line!r} != {kj_value(q, n)!r}")
    return out


def check_same_output(first: str, again: str, name: str) -> list:
    return [] if first == again else [f"{name} stdout changed between invocations"]
