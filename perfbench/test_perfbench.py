"""Self-tests of the benchmark: seed -> inputs is reproducible, the
independent rank-1 oracle agrees with the library, every correctness check
rejects a result perturbed by 2%, rounds repeat the same mix of ops, and
reference samples are left out of op times.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import anisospec as A  # noqa: E402
import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from anisospec.cli import main as cli_main  # noqa: E402

SQUARE = W.UNIT_SQUARE


def _square_rec(q=1.3, **over):
    lam, tor = math.pi**2, 1.0 / 12.0  # |xi_2| on the unit square
    rec = {"q": q, "theta": math.pi / 2, "mode": "min", "lambda": lam, "torsion": tor, "value": lam * tor**q, "measure": 1.0}
    rec.update(over)
    return rec


def _scaled(rec, key, factor):
    return dict(rec, **{key: rec[key] * factor})


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_gives_the_same_inputs(workload):
    assert W.inputs_digest(workload, 7) == W.inputs_digest(workload, 7)
    assert W.inputs_digest(workload, 7) != W.inputs_digest(workload, 8)


def test_generated_polygons_are_valid_and_of_the_stated_kind():
    for i in range(16):
        for inp in (W.quad_input(11, i), W.rank1_input(11, i)):
            P = A.Polygon2D(inp["vertices"])
            assert np.hypot(*inp["vertices"].T).max() <= 1.0 + 1e-12
            if inp["kind"] == "star":
                assert not P.is_convex
            elif inp["kind"] == "convex":
                assert P.is_convex
            else:
                assert P.is_convex == (inp["mode"] == "min")
        assert abs(C.polygon_area(W.quad_input(11, i)["vertices"]) - W.QUAD_AREA) < 1e-12


@pytest.mark.parametrize("workload", ["quad-polygon", "disc-sweep", "rank1-sweep"])
def test_every_round_has_the_same_mix_of_ops(workload):
    make = {"quad-polygon": W.quad_input, "disc-sweep": W.disc_input, "rank1-sweep": W.rank1_input}[workload]
    n = W.ROUND[workload]
    mix = [(inp["kind"], inp["mode"]) for inp in (make(13, i) for i in range(3 * n))]
    assert mix[:n] == mix[n : 2 * n] == mix[2 * n :]


def test_reference_samples_run_during_an_op_and_are_left_out_of_its_time():
    import time

    import child
    import reference

    def op(inp):
        t = time.perf_counter()
        while time.perf_counter() - t < 1.2:
            pass
        return 0, []

    ref = reference.Reference()
    ref.start()
    try:
        t = time.perf_counter()
        out = child._timed(op, {"kind": "busy"}, ref)
        elapsed = time.perf_counter() - t
    finally:
        ref.stop()
    assert ref.count >= 2
    assert out["wall_s"] == pytest.approx(elapsed - ref.seconds, abs=1e-3)


def test_rank1_oracle_matches_the_library():
    rng = np.random.default_rng(5)
    for n, convex in ((5, False), (12, True), (64, False), (256, True)):
        V = W.star(rng, n, convex, step=max(2, n // 8))
        P = A.Polygon2D(V)
        for theta in rng.uniform(0.0, math.pi, 8):
            eta = (math.cos(theta), math.sin(theta))
            lam, tor = C.rank1_exact(V, eta)
            ref = A.solve_rank1(P, A.Rank1Seminorm(eta))
            assert lam == pytest.approx(ref.lambda_, rel=1e-11)
            assert tor == pytest.approx(ref.torsion, rel=1e-11)


def test_square_torsion_reference():
    assert C.square_torsion() == pytest.approx(0.035144253739, rel=1e-9)


def test_real_rank1_sweep_passes_its_checks():
    inp = W.rank1_input(3, 1)  # a convex 12-gon
    evals, failures = W.run_rank1(inp)
    assert evals > 0 and failures == []


def test_check_optimum_rejects_perturbed_results():
    rec = _square_rec()
    assert C.check_optimum(rec) == []
    for key in ("value", "lambda", "torsion"):
        assert C.check_optimum(_scaled(rec, key, 1.02))
        assert C.check_optimum(_scaled(rec, key, 1 / 1.02))
    at_bound = dict(rec, measure=rec["lambda"] * rec["torsion"])
    assert C.check_optimum(at_bound) == []
    assert C.check_optimum(_scaled(at_bound, "measure", 1 / 1.02))


def test_check_rank1_convex_rejects_a_product_2pct_over_the_bound():
    rec = _square_rec()
    at_bound = dict(rec, measure=12.0 * rec["lambda"] * rec["torsion"] / math.pi**2)
    assert C.check_rank1_convex(at_bound) == []
    assert C.check_rank1_convex(_scaled(at_bound, "measure", 1 / 1.02))


def test_check_slicing_rejects_perturbed_results():
    rec = _square_rec()
    assert C.check_slicing(rec, SQUARE) == []
    for key in ("value", "lambda", "torsion"):
        assert C.check_slicing(_scaled(rec, key, 1.02), SQUARE)
        assert C.check_slicing(_scaled(rec, key, 1 / 1.02), SQUARE)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_check_beats_grid_rejects_a_worse_optimum(mode):
    V = W.quad_input(4, 0)["vertices"]
    grid = [C.rank1_value(V, k * math.pi / 36, 1.2) for k in range(36)]
    best = min(grid) if mode == "min" else max(grid)
    rec = {"q": 1.2, "mode": mode, "value": best}
    assert C.check_beats_grid(rec, V) == []
    assert C.check_beats_grid(_scaled(rec, "value", 1.02 if mode == "min" else 1 / 1.02), V)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_check_disc_rejects_perturbed_values(mode):
    r, q = 0.8, 0.7
    rec = {"q": q, "mode": mode, "value": C.disc_reference(r, q, mode), "boundary_flag": mode == "min", "alpha": 0.0 if mode == "min" else 1.0}
    assert C.check_disc(rec, r) == []
    assert C.check_disc(_scaled(rec, "value", 1.02), r)
    assert C.check_disc(_scaled(rec, "value", 1 / 1.02), r)
    flipped = dict(rec, boundary_flag=not rec["boundary_flag"], alpha=0.5)
    assert C.check_disc(flipped, r)


def _perturb_number(text: str, index: int) -> str:
    """Scale the index-th decimal number in text by 1.02, same format."""
    matches = list(re.finditer(r"\d+\.\d+(?:e[+-]\d+)?", text))
    m = matches[index]
    digits = len(m.group().split(".")[1].split("e")[0])
    fmt = f".{digits}e" if "e" in m.group() else f".{digits}f"
    return text[: m.start()] + format(float(m.group()) * 1.02, fmt) + text[m.end() :]


def test_check_reproduce_rejects_a_perturbed_row(capsys):
    assert cli_main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert C.check_reproduce(out, 0) == []
    assert C.check_reproduce(out, 1)
    for index in (0, 7, 19):
        assert C.check_reproduce(_perturb_number(out, index), 0)


def test_check_kj_and_same_output_reject_a_perturbed_value(capsys):
    assert cli_main(["kj-demo", "--q", "0.375", "--n", "3,17,120"]) == 0
    out = capsys.readouterr().out
    assert C.check_kj(out, 0.375, [3, 17, 120]) == []
    bad = _perturb_number(out, 1)
    assert C.check_kj(bad, 0.375, [3, 17, 120])
    assert C.check_same_output(out, out, "kj-demo") == []
    assert C.check_same_output(out, bad, "kj-demo")


def test_benchmark_json_names_the_metrics_the_runner_reports():
    import json

    import run
    import tracer

    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOADS)
