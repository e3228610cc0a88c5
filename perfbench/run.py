"""anisospec benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Untraced (--trace 0), it runs the
workload's closed loop in a fresh process for --seconds, checks every op and
prints the end-to-end metrics. Traced (--trace 1), it runs a fixed number of
ops twice, untraced and then with wrappers around each layer, and prints the
per-layer metrics and the tracing overhead. End-to-end times are scaled to
a reference host speed measured during the run (reference.py). The last
stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment and the per-op detail. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("quad-polygon", "disc-sweep", "rank1-sweep", "cli-cold")
BUDGET_S = 170.0  # the whole run, set-up and children included
SETUP_SAMPLES = 5  # the loop process plus four set-up-only processes
TRACE_OPS = {"quad-polygon": 2, "disc-sweep": 2, "rank1-sweep": 8, "cli-cold": 5}  # one round each
IMPORT_SAMPLES = 3
IMPORT_PROBE = "import sys, time; t = time.perf_counter(); import anisospec.cli; print(time.perf_counter() - t)"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lambda_rel_err": "ratio",
    "torsion_rel_err": "ratio",
    "disc_lambda_rel_err": "ratio",
}
PROBE_LIMIT = 0.05  # accuracy probes beyond this are treated as wrong results
MIN_REF_SAMPLES = 10  # each op is scaled by at least this many reference samples (about 5 s of kernel runs)


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("time budget exhausted")
        return left

    def run(self, argv: list) -> subprocess.CompletedProcess:
        """Run a child in its own process group; on timeout kill the group,
        so op processes the child started end with it."""
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} did not finish within the time budget") from exc
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def child(self, mode: str, *, traced=False, n_ops=None, probes=False) -> dict:
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "mode": mode,
            "seconds": self.seconds,
            "n_ops": n_ops,
            "traced": traced,
            "probes": probes,
            "timeout": self._remaining() - 5.0,
        }
        proc = self.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"workload process ({mode}) exited {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(runner: Runner) -> tuple:
    cold = reference.Reference(reference.cold_import, reference.COLD_IMPORT_S)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(runner.child("setup")["setup_s"])
        cold.run()
    res = runner.child("loop", probes=True)
    ops = res["ops"]
    op_s = scaled_op_times(ops, res["nominal"])
    walls = sum(op["wall_s"] for op in ops)
    # time between ops (starting op processes) counts at the run's mean speed
    loop_s = sum(op_s) + (res["loop_s"] - walls) * sum(op_s) / walls
    res["setup_scale"] = cold.scale()
    metrics = {
        "op_s_p50": statistics.median(op_s),
        "ops_per_s": len(ops) / loop_s,
        "evals_per_s": sum(op["evals"] for op in ops) / loop_s,
        "setup_s": statistics.median(setups + [res["setup_s"]]) * res["setup_scale"],
        "peak_rss_mb": res["peak_rss_mb"],
        **res["probes"],
    }
    problems = [f"accuracy probe {k} = {v!r} exceeds {PROBE_LIMIT}" for k, v in res["probes"].items() if not v < PROBE_LIMIT]
    return metrics, END_TO_END_UNITS, res, ops, problems


def scaled_op_times(ops: list, nominal: float) -> list:
    """Each op's wall time at the reference speed, measured by the samples
    taken during it and, until there are MIN_REF_SAMPLES, during the ops
    on either side of it."""
    out = []
    for i, op in enumerate(ops):
        lo, hi = i, i + 1
        while sum(o["ref_n"] for o in ops[lo:hi]) < MIN_REF_SAMPLES and (lo > 0 or hi < len(ops)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ops))
        window = ops[lo:hi]
        out.append(op["wall_s"] * reference.scale(nominal, sum(o["ref_s"] for o in window), sum(o["ref_n"] for o in window)))
    return out


def per_layer(runner: Runner) -> tuple:
    n = TRACE_OPS[runner.workload]
    base = runner.child("loop", n_ops=n)
    traced = runner.child("loop", traced=True, n_ops=n)
    problems = []
    base_evals = [op["evals"] for op in base["ops"]]
    traced_evals = [op["evals"] for op in traced["ops"]]
    if base_evals != traced_evals:
        problems.append(f"evaluations per op differ with tracing on: {base_evals} vs {traced_evals}")
    if runner.workload == "cli-cold":
        imports = [op.get("imports", {}) | {"total": op.get("import_s", 0.0)} for op in traced["ops"]]
        main_s = statistics.median(op.get("main_s", 0.0) for op in traced["ops"])
    else:
        imports = [_import_sample(runner) for _ in range(IMPORT_SAMPLES)]
        main_s = 0.0
    metrics = tracer.collect(traced, n, imports, main_s, traced["loop_s"] / base["loop_s"] - 1.0)
    return metrics, tracer.LAYER_UNITS, traced, base["ops"] + traced["ops"], problems


def _import_sample(runner: Runner) -> dict:
    proc = runner.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise BenchError(f"import probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return tracer.parse_importtime(proc.stderr) | {"total": float(proc.stdout.split()[-1])}


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts and OUT not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        **versions,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "code_hash": code_hash(),
    }


def check_counts(key: str, counts: dict) -> list:
    """Compare exact counts with those recorded by earlier runs of the same
    code and seed in this checkout; record new ones."""
    path = OUT / "counts.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    seen = record.setdefault(key, {})
    problems = []
    for name, value in counts.items():
        if name not in seen:
            seen[name] = value
        elif isinstance(value, list):
            k = min(len(value), len(seen[name]))
            if value[:k] != seen[name][:k]:
                problems.append(f"{name} drifted: {value[:k]} vs recorded {seen[name][:k]}")
            if len(value) > len(seen[name]):
                seen[name] = value
        elif value != seen[name]:
            problems.append(f"{name} drifted: {value!r} vs recorded {seen[name]!r}")
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "anisospec" / "__init__.py").is_file():
        print(f"perfbench: no anisospec sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        metrics, units, res, ops, problems = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    counts = {"inputs": res["inputs_digest"], "evals_per_op": [op["evals"] for op in res["ops"]]}
    if args.trace:
        counts["traced.n_ops"] = len(res["ops"])
        counts["traced.fem.solver.eig.cg_iters"] = metrics["fem.solver.eig.cg_iters"]
        counts["traced.functional.evals_per_op"] = metrics["functional.evals_per_op"]
    drift = check_counts(f"{args.workload} seed={args.seed} code={code_hash()}", counts)
    if drift:
        for line in drift:
            print(f"perfbench: DETERMINISM FAILURE: {line}", file=sys.stderr)
        return 1

    failures = [f for op in ops for f in op["failures"]]
    for line in failures[:20] + problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, res["versions"]),
        "setup_scale": res.get("setup_scale"),
        "ref_runs": res["ref_runs"],
        "ops": [{k: op[k] for k in ("kind", "wall_s", "evals", "ref_s", "ref_n")} for op in ops],
        "failures": failures,
        "problems": problems,
    }
    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failures"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(detail, result=result), indent=1)
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
