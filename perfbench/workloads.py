"""Workload inputs, operations and their checks.

Op i of a workload is built from `numpy.random.default_rng([seed, w, i])`
(w = the workload's index), so the same seed gives the same inputs whatever
else ran before. Each op returns how many functional evaluations it made and
a list of failed checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import anisospec as A
import checks as C
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("quad-polygon", "disc-sweep", "rank1-sweep", "cli-cold")

QUAD_AREA = 0.5  # quad-polygon domains are scaled to this area (radius <= 1)
# (shape, mode, q band) for op i % 2. The cost of a max op grows by half as q
# falls from 2.2 to 1.6, and a run has only two ops: narrow bands keep the ops
# of a kind alike.
QUAD_KINDS = (
    ("star", "min", (0.9, 1.1)),
    ("convex", "max", (1.9, 2.1)),
)
CLI_COMMANDS = ("eval", "optimize", "bounds", "reproduce", "kj-demo")
# (vertices, convex) per rank1-sweep round; half the ops are 64-gons, so the
# median op is always a 64-gon and is taken over many of them
RANK1_ROUND = ((64, True), (12, True), (64, False), (256, True), (64, True), (32, False), (64, False), (128, False))
# ops per round: op i is of kind i % ROUND, and a run ends on a round
# boundary, so every run measures the same mix of ops
ROUND = {"quad-polygon": len(QUAD_KINDS), "disc-sweep": 2, "rank1-sweep": len(RANK1_ROUND), "cli-cold": len(CLI_COMMANDS)}
MAX_ROUNDS = 32  # inputs for this many rounds are built during set-up; a run never goes beyond them
CLI_VERTICES = 12
L_SHAPE = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], dtype=float)
UNIT_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
CLI_MAIN = "import sys; from anisospec.cli import main; sys.exit(main(sys.argv[1:]))"
# traced CLI op: time the import, run main under a span, report on stderr
CLI_TRACED = (
    "import json, pathlib, sys, time; t0 = time.perf_counter(); import anisospec.cli; t1 = time.perf_counter(); "
    "sys.path.insert(0, {bench!r}); import tracer; tr = tracer.install(); "
    "code = tr.call('cli.main', anisospec.cli.main, sys.argv[1:]); t2 = time.perf_counter(); "
    "sys.stdout.flush(); tr.write(pathlib.Path({spans!r})); print('PERFBENCH ' + json.dumps("
    "{{'raw': tr.raw(), 'import_s': t1 - t0, 'main_s': t2 - t1}}), file=sys.stderr); sys.exit(code)"
)
MARK = "PERFBENCH "


def rng_for(workload: str, seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), i])


def star(rng, n: int, convex: bool, step: int = 2) -> np.ndarray:
    """Star polygon with n jittered vertices on the unit circle; the
    non-convex variant pulls vertices 1, 1 + step, ... inside the chord of
    their neighbours, so each of those vertices is reflex."""
    ang = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n + rng.uniform(0.0, 2.0 * math.pi)
    V = np.column_stack([np.cos(ang), np.sin(ang)])
    if not convex:
        for k in range(1, n - 1, step):
            a, b, d = V[k - 1], V[(k + 1) % n], V[k]
            normal = np.array([b[1] - a[1], a[0] - b[0]])
            V[k] = d * rng.uniform(0.5, 0.85) * (normal @ a) / (normal @ d)
    return V


def _fit(V: np.ndarray, area: float) -> np.ndarray:
    """Centre on the vertex mean and scale to the area, capped at radius 1."""
    V = V - V.mean(axis=0)
    s = math.sqrt(area / C.polygon_area(V))
    return V * min(s, 1.0 / float(np.max(np.hypot(V[:, 0], V[:, 1]))))


def _rotate(V: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return V @ np.array([[c, s], [-s, c]])


def quad_input(seed: int, i: int) -> dict:
    rng = rng_for("quad-polygon", seed, i)
    shape, mode, band = QUAD_KINDS[i % len(QUAD_KINDS)]
    V = star(rng, int(rng.integers(5, 11)), convex=shape == "convex")
    return {"kind": shape, "vertices": _fit(V, QUAD_AREA), "mode": mode, "q": float(rng.uniform(*band))}


def rank1_input(seed: int, i: int) -> dict:
    rng = rng_for("rank1-sweep", seed, i)
    n, convex = RANK1_ROUND[i % len(RANK1_ROUND)]
    V = star(rng, n, convex, step=max(2, n // 8))  # at most eight notches
    if convex:  # stretch the circle-inscribed polygon into an ellipse
        V = _rotate(V * [1.0, rng.uniform(0.4, 1.0)], rng.uniform(0.0, math.pi))
    qs = [rng.uniform(lo, hi) for lo, hi in ((0.3, 0.7), (0.8, 1.2), (1.6, 2.4), (3.2, 4.8))]
    return {"kind": f"{len(V)}-gon", "vertices": _fit(V, 1.0), "mode": "min" if convex else "max", "qs": qs}


def disc_input(seed: int, i: int) -> dict:
    """Two exponents q <= 1 on a disc; even ops minimize (optimum on the
    rank-1 boundary), odd ops maximize (optimum at alpha = 1)."""
    rng = rng_for("disc-sweep", seed, i)
    r = float(rng.uniform(0.5, 1.5))
    q1 = float(rng.uniform(0.3, 0.9))
    mode = "min" if i % 2 == 0 else "max"
    return {"kind": mode, "r": r, "mode": mode, "qs": [q1, q1 + float(rng.uniform(0.05, 0.1))]}


def cli_inputs(seed: int) -> dict:
    """One argv per subcommand, fixed for the run, so repeated invocations
    must print identical bytes."""
    rng = rng_for("cli-cold", seed, 0)
    V = _fit(star(rng, CLI_VERTICES, convex=True), 1.0)  # fixed size: same evaluation count every seed
    phi = float(rng.uniform(0.0, math.pi))
    eta = [math.cos(phi), math.sin(phi)]
    q = round(float(rng.uniform(0.5, 2.0)), 3)
    kj_q = round(float(rng.uniform(0.2, 0.9)), 3)
    ns = sorted(int(n) for n in rng.choice(np.arange(1, 200), size=3, replace=False))
    domain = json.dumps({"kind": "polygon", "vertices": V.tolist()})
    seminorm = json.dumps({"kind": "rank1", "eta": eta})
    return {
        "vertices": V,
        "eta": eta,
        "q": q,
        "kj_q": kj_q,
        "ns": ns,
        "argv": {
            "eval": ["eval", "--domain", domain, "--seminorm", seminorm, "--q", str(q)],
            "optimize": ["optimize", "--domain", domain, "--class", "rank1", "--q", str(q), "--mode", "min"],
            "bounds": ["bounds", "--domain", domain, "--seminorm", seminorm],
            "reproduce": ["reproduce"],
            "kj-demo": ["kj-demo", "--q", str(kj_q), "--n", ",".join(map(str, ns))],
        },
    }


def inputs_digest(workload: str, seed: int) -> str:
    """Hash of the first ten inputs (all of cli-cold's), for the
    reproducibility record."""
    if workload == "cli-cold":
        items = [cli_inputs(seed)]
    else:
        make = {"quad-polygon": quad_input, "disc-sweep": disc_input, "rank1-sweep": rank1_input}[workload]
        items = [make(seed, i) for i in range(10)]
    blob = json.dumps(items, sort_keys=True, default=lambda a: np.asarray(a).tolist())
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _record(rep, q: float, measure: float) -> dict:
    return {
        "q": q,
        "mode": rep.mode,
        "theta": rep.theta,
        "alpha": rep.alpha,
        "value": rep.value,
        "boundary_flag": rep.boundary_flag,
        "lambda": rep.best.lambda_,
        "torsion": rep.best.torsion,
        "measure": measure,
    }


def _polygon_checks(rec: dict, V: np.ndarray, convex: bool) -> list:
    out = C.check_optimum(rec)
    if rec["alpha"] is None or rec["alpha"] == 0.0:
        out += C.check_slicing(rec, V)
        if convex:
            out += C.check_rank1_convex(rec)
    return out + C.check_beats_grid(rec, V)


def run_quad(inp: dict) -> tuple:
    V = inp["vertices"]
    rep = A.optimize_quadratic(A.Polygon2D(V), inp["q"], inp["mode"])
    rec = _record(rep, inp["q"], C.polygon_area(V))
    return len(rep.trace), _polygon_checks(rec, V, inp["kind"] == "convex")


def run_rank1(inp: dict) -> tuple:
    V = inp["vertices"]
    sweep = A.q_sweep(A.Polygon2D(V), inp["qs"], inp["mode"], "rank1")
    failures = []
    for q, rep in zip(sweep.qs, sweep.reports):
        failures += _polygon_checks(_record(rep, q, C.polygon_area(V)), V, inp["mode"] == "min")
    return sum(len(rep.trace) for rep in sweep.reports), failures


def run_disc(inp: dict) -> tuple:
    r = inp["r"]
    sweep = A.q_sweep(A.EllipsoidD([r, r]), inp["qs"], inp["mode"], "quadratic")
    failures = []
    for q, rep in zip(sweep.qs, sweep.reports):
        rec = _record(rep, q, math.pi * r * r)
        failures += C.check_optimum(rec)
        if q <= 1.0:
            failures += C.check_disc(rec, r)
    return sum(len(rep.trace) for rep in sweep.reports), failures


def run_cli(inp: dict, command: str, spans: Path | None, timeout: float) -> dict:
    """One CLI subcommand in a fresh interpreter; returns its wall time,
    output, the evaluations it reports and, when traced (spans is the file
    for its spans), the child's sums and import times."""
    traced = spans is not None
    if traced:
        code = CLI_TRACED.format(bench=str(BENCH_DIR), spans=str(spans))
        cmd = [sys.executable, "-X", "importtime", "-c", code, *inp["argv"][command]]
    else:
        cmd = [sys.executable, "-c", CLI_MAIN, *inp["argv"][command]]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    out = {"wall_s": time.perf_counter() - t, "stdout": proc.stdout, "code": proc.returncode, "evals": 0}
    failures = [] if proc.returncode == 0 else [f"{command} exited {proc.returncode}: {proc.stderr[-500:]}"]
    if traced:
        marks = [ln for ln in proc.stderr.splitlines() if ln.startswith(MARK)]
        if marks:
            out.update(json.loads(marks[-1][len(MARK):]))
            out["imports"] = tracer.parse_importtime(proc.stderr)
        else:
            failures.append(f"traced {command} reported no trace")
    if proc.returncode == 0:
        out["evals"], found = _cli_checks(inp, command, proc.stdout)
        failures += found
    out["failures"] = failures
    return out


def spans_path(workload: str, seed: int, tag: str) -> Path:
    return BENCH_DIR / "out" / "spans" / f"{workload}-s{seed}-{tag}.json.gz"


def versions() -> dict:
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}


def _cli_checks(inp: dict, command: str, stdout: str) -> tuple:
    """(evaluations the subcommand reports, failed checks) for a run that
    exited 0."""
    V, q = inp["vertices"], inp["q"]
    if command == "reproduce":
        return 0, C.check_reproduce(stdout, 0)
    if command == "kj-demo":
        return 0, C.check_kj(stdout, inp["kj_q"], inp["ns"])
    rep = json.loads(stdout)
    measure = C.polygon_area(V)
    theta = math.atan2(inp["eta"][1], inp["eta"][0])
    if command == "eval":
        rec = {"q": q, "theta": theta, "value": rep["value"], "lambda": rep["lambda"], "torsion": rep["torsion"], "measure": measure}
        return 1, C.check_optimum(rec) + C.check_slicing(rec, V)
    if command == "bounds":
        rec = {"q": 1.0, "theta": theta, "value": rep["product"], "lambda": rep["lambda"], "torsion": rep["torsion"], "measure": measure}
        failed = [c["name"] for c in rep["checks"] if c["satisfied"] is not True]
        return 1, C.check_optimum(rec) + C.check_slicing(rec, V) + C.check_rank1_convex(rec) + (
            [f"bounds checks not satisfied: {failed}"] if failed else []
        )
    rec = {k: rep[k] for k in ("theta", "value", "lambda", "torsion", "mode")}
    rec.update(q=q, measure=measure)
    checks = C.check_optimum(rec) + C.check_slicing(rec, V) + C.check_rank1_convex(rec) + C.check_beats_grid(rec, V)
    return rep["evaluations"], checks


def probes() -> dict:
    """Accuracy at the default configs against pinned references: the
    polygon route on the L-shape and unit square, the ellipse route on the
    unit disc. Each is one Euclidean evaluation."""
    euclid = A.QuadraticSeminorm(np.eye(2), [1.0, 1.0])
    poly_cfg = A.SolverConfig(target_h=0.12)
    L = A.eval_F(A.Polygon2D(L_SHAPE), euclid, 1.0, poly_cfg)
    sq = A.eval_F(A.Polygon2D(UNIT_SQUARE), euclid, 1.0, poly_cfg)
    disc = A.eval_F(A.EllipsoidD([1.0, 1.0]), euclid, 1.0, A.SolverConfig(target_h=0.1, richardson=True))
    return {
        "lambda_rel_err": max(
            abs(L.lambda_ - C.L_SHAPE_LAMBDA) / C.L_SHAPE_LAMBDA,
            abs(sq.lambda_ - 2.0 * math.pi**2) / (2.0 * math.pi**2),
        ),
        "torsion_rel_err": abs(sq.torsion - C.square_torsion()) / C.square_torsion(),
        "disc_lambda_rel_err": abs(disc.lambda_ - C.J01**2) / C.J01**2,
    }
