"""Workload process, started by run.py with one JSON argument.

mode "setup": import anisospec, build the seed inputs, report the time.
mode "loop":  the same set-up, then the closed loop of ops, either until
              the first round boundary after `seconds` (or the last input
              built) or for exactly `n_ops` ops.
mode "op":    one disc-sweep op in a fresh interpreter (the ellipse caches
              are keyed by aspect ratio only, so a long-lived process would
              serve every op after the first from cache).
Untraced runs also time reference work (reference.py): the kernel from a
timer in the process that runs the ops (the loop process, or each disc-sweep
op process), or a cold import before every op (cli-cold). Op and loop
times leave out the reference samples; each op's record carries those taken
during it (or, for cli-cold, just before it). The result is one JSON line on
stdout.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import workloads as W  # noqa: E402  (imports anisospec)

QUAD_LIKE = {"quad-polygon": (W.quad_input, W.run_quad), "rank1-sweep": (W.rank1_input, W.run_rank1)}


def _inputs(workload: str, seed: int):
    """The inputs of every op a run can reach; disc-sweep ops build their
    own in their process."""
    if workload == "cli-cold":
        return W.cli_inputs(seed)
    if workload == "disc-sweep":
        return None
    make = QUAD_LIKE[workload][0]
    return [make(seed, i) for i in range(W.MAX_ROUNDS * W.ROUND[workload])]


def _timed(run, inp, ref) -> dict:
    """Run one op; its record carries the reference samples taken during it
    (ref_s seconds in ref_n samples), which its wall time leaves out."""
    ref_s, ref_n = (ref.seconds, ref.count) if ref else (0.0, 0)
    t = time.perf_counter()
    try:
        evals, failures = run(inp)
    except Exception as exc:  # an op that raises is a failed op
        evals, failures = 0, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t
    if ref:
        ref_s, ref_n = ref.seconds - ref_s, ref.count - ref_n
    return {"kind": inp["kind"], "wall_s": wall - ref_s, "evals": evals, "failures": failures, "ref_s": ref_s, "ref_n": ref_n}


def _in_process(run, inputs, tracer, ref):
    def op(i):
        if tracer is not None:
            tracer.op = i
        return _timed(run, inputs[i], ref)

    return op


def _disc_op(spec, deadline, ref):
    def op(i):
        sub = dict(spec, mode="op", index=i)
        proc = subprocess.run(
            [sys.executable, __file__, json.dumps(sub)],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            failure = f"op process exited {proc.returncode}: {proc.stderr[-500:]}"
            return {"kind": "disc", "wall_s": 0.0, "evals": 0, "failures": [failure], "ref_s": 0.0, "ref_n": 0}
        out = json.loads(proc.stdout.splitlines()[-1])
        if ref:
            ref.seconds += out["ref_s"]
            ref.count += out["ref_n"]
        return out

    return op


def _cli_op(spec, inputs, deadline, ref):
    first = {}

    def op(i):
        ref_s = ref.seconds if ref else 0.0
        if ref:
            ref.run()
        command = W.CLI_COMMANDS[i % len(W.CLI_COMMANDS)]
        spans = W.spans_path(spec["workload"], spec["seed"], f"op{i}") if spec["traced"] else None
        out = W.run_cli(inputs, command, spans, max(1.0, deadline - time.monotonic()))
        out["failures"] += W.C.check_same_output(first.setdefault(command, out["stdout"]), out["stdout"], command)
        out["kind"] = command
        del out["stdout"]
        return dict(out, ref_s=(ref.seconds - ref_s) if ref else 0.0, ref_n=1 if ref else 0)

    return op


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    deadline = time.monotonic() + spec["timeout"]

    if mode == "op":
        tracer = W.tracer.install() if spec["traced"] else None
        ref = None if spec["traced"] else reference.Reference()
        if ref:
            ref.start()
        out = _timed(W.run_disc, W.disc_input(seed, spec["index"]), ref)
        if ref:
            ref.stop()
        if tracer is not None:
            out["raw"] = tracer.raw()
            tracer.write(W.spans_path(workload, seed, f"op{spec['index']}"))
        print(json.dumps(out))
        return 0

    inputs = _inputs(workload, seed)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = spec["traced"]
    tracer = W.tracer.install() if traced and workload in QUAD_LIKE else None
    if workload in QUAD_LIKE:
        ref = None if traced else reference.Reference()
        op = _in_process(QUAD_LIKE[workload][1], inputs, tracer, ref)
        who = resource.RUSAGE_SELF
    elif workload == "disc-sweep":
        ref = None if traced else reference.Reference(warm=False)  # sums the op processes' samples
        op = _disc_op(spec, deadline, ref)
        who = resource.RUSAGE_CHILDREN
    else:
        ref = None if traced else reference.Reference(reference.cold_import, reference.COLD_IMPORT_S)
        op = _cli_op(spec, inputs, deadline, ref)
        who = resource.RUSAGE_CHILDREN

    n_max = spec["n_ops"] or W.MAX_ROUNDS * W.ROUND[workload]
    ops = []
    t_loop = time.perf_counter()
    if ref and workload in QUAD_LIKE:
        ref.start()
    while len(ops) < n_max:
        if spec["n_ops"] is None and ops and len(ops) % W.ROUND[workload] == 0 and time.perf_counter() - t_loop >= spec["seconds"]:
            break
        ops.append(op(len(ops)))
    if ref:
        ref.stop()
    # between ops the loop includes the start of each op process (disc-sweep,
    # cli-cold), but not the reference samples
    loop_s = time.perf_counter() - t_loop - (ref.seconds if ref else 0.0)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "nominal": ref.nominal if ref else None,
        "ref_runs": ref.count if ref else 0,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "versions": W.versions(),
        "inputs_digest": W.inputs_digest(workload, seed),
    }
    if tracer is not None:
        out["raw"] = tracer.raw()
        tracer.write(W.spans_path(workload, seed, "loop"))
    if spec["probes"]:
        out["probes"] = W.probes()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
