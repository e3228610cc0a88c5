"""End-to-end tests for the command-line interface."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import anisospec
from anisospec import SolverConfig, cli
from anisospec.cli import _parse_q_grid, canonical_json, main
from anisospec.errors import InputError

SQUARE = '{"kind": "polygon", "vertices": [[0,0],[1,0],[1,1],[0,1]]}'
DISC = '{"kind": "ellipsoid", "semi_axes": [1, 1]}'
ELLIPSE = '{"kind": "ellipsoid", "semi_axes": [2, 1]}'
AXIS_SEMINORM = '{"kind": "rank1", "eta": [0, 1]}'
EUCLID = '{"kind": "quadratic", "alphas": [1, 1]}'


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.0, "a": [True, None, 2]})
        assert text == '{"a": [true, null, 2], "b": 1.000000000000e+00}\n'

    def test_round_trip_fixed_point(self):
        obj = {"x": math.pi, "y": [1e-300, 2.5e300, -0.125], "n": 7, "s": "text"}
        text = canonical_json(obj)
        assert canonical_json(json.loads(text)) == text

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            canonical_json({"x": math.inf})


class TestParseQGrid:
    def test_inclusive_endpoint(self):
        assert _parse_q_grid("0.5:1.5:0.5") == pytest.approx([0.5, 1.0, 1.5])
        # accumulated float error must not drop the endpoint
        qs = _parse_q_grid("0.1:0.7:0.1")
        assert len(qs) == 7
        assert qs[-1] == pytest.approx(0.7)

    def test_rejects_malformed(self):
        for bad in ("1:2", "1:2:0", "2:1:0.5", "a:b:c", "1:2:-1"):
            with pytest.raises(InputError):
                _parse_q_grid(bad)

    def test_rejects_step_that_never_advances(self):
        # 1 + 1e-300 == 1: without the check the grid repeats 1.0 until memory runs out
        with pytest.raises(InputError, match="too small"):
            _parse_q_grid("1:1e308:1e-300")

    def test_caps_the_number_of_exponents(self):
        assert len(_parse_q_grid("1:10000:1")) == 10_000
        with pytest.raises(InputError, match="more than 10000"):
            _parse_q_grid("1:10001:1")


class TestEval:
    def test_square_axis_direction(self):
        code, out, _ = run_cli(
            ["eval", "--domain", SQUARE, "--seminorm", AXIS_SEMINORM, "--q", "1"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "eval"
        assert report["value"] == pytest.approx(math.pi**2 / 12.0, rel=1e-10)
        assert report["lambda_provenance"] == "slicing"
        assert report["seminorm"]["kind"] == "rank1"
        assert report["domain"]["kind"] == "polygon"

    def test_output_round_trips(self):
        code, out, _ = run_cli(
            ["eval", "--domain", DISC, "--seminorm", AXIS_SEMINORM, "--q", "0.5"]
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_deterministic_bytes(self):
        argv = ["eval", "--domain", ELLIPSE, "--seminorm", EUCLID, "--q", "1", "--h", "0.15"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_missing_q_exits_2(self):
        code, _, err = run_cli(["eval", "--domain", SQUARE, "--seminorm", AXIS_SEMINORM])
        assert code == 2
        assert "--q" in err

    def test_malformed_json_exits_2(self):
        code, _, err = run_cli(
            ["eval", "--domain", "{broken", "--seminorm", AXIS_SEMINORM, "--q", "1"]
        )
        assert code == 2
        assert "eval" in err

    def test_missing_file_exits_2(self):
        code, _, err = run_cli(
            ["eval", "--domain", "no_such_file.json", "--seminorm", AXIS_SEMINORM, "--q", "1"]
        )
        assert code == 2
        assert "no_such_file.json" in err

    def test_unwritable_out_exits_2(self, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, _, err = run_cli(
            ["eval", "--domain", SQUARE, "--seminorm", AXIS_SEMINORM, "--q", "1", "--out", str(path)]
        )
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err

    def test_zero_seminorm_exits_2(self):
        code, _, err = run_cli(
            ["eval", "--domain", DISC, "--seminorm", '{"kind": "quadratic", "alphas": [0, 0]}', "--q", "1"]
        )
        assert code == 2
        assert "zero seminorm" in err

    def test_wrong_dimension_exits_2(self):
        box = '{"kind": "box", "intervals": [[0,1],[0,2],[0,3]]}'
        code, out, err = run_cli(["eval", "--domain", box, "--seminorm", AXIS_SEMINORM, "--q", "1"])
        assert (code, out) == (2, "")
        assert "dimensional" in err

    def test_unmeshable_request_exits_3(self):
        # h = 2 on the unit square leaves no interior nodes for the FEM route
        code, _, err = run_cli(
            [
                "eval",
                "--domain", SQUARE,
                "--seminorm", '{"kind": "quadratic", "alphas": [1, 0.5]}',
                "--q", "1",
                "--h", "2.0",
            ]
        )
        assert code == 3
        assert "interior" in err

    def test_infinite_h_exits_2(self):
        # a mesh size is checked where the settings are built, before any route runs
        for seminorm in (AXIS_SEMINORM, '{"kind": "quadratic", "alphas": [1, 0.5]}'):
            code, out, err = run_cli(["eval", "--domain", SQUARE, "--seminorm", seminorm, "--q", "1", "--h", "inf"])
            assert (code, out) == (2, "")
            assert "target_h must be finite and positive" in err

    def test_csv_format_rejected(self):
        code, _, err = run_cli(
            ["eval", "--domain", SQUARE, "--seminorm", AXIS_SEMINORM, "--q", "1", "--format", "csv"]
        )
        assert code == 2
        assert "JSON" in err

    def test_bad_subcommand_flag_raises_system_exit(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["optimize", "--domain", SQUARE, "--q", "1", "--mode", "avg"])
        assert exc.value.code == 2


class TestOptimize:
    def test_rank1_ellipse(self):
        code, out, _ = run_cli(
            ["optimize", "--domain", ELLIPSE, "--q", "0.5", "--class", "rank1"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["seminorm_class"] == "rank1"
        assert report["alpha"] is None
        assert report["boundary_flag"] is True
        assert report["value"] == pytest.approx(
            math.pi**2 * math.sqrt(2.0 * math.pi) / 16.0, rel=1e-9
        )
        assert report["theta"] == pytest.approx(0.0, abs=1e-5)
        assert report["evaluations"] > 180
        assert canonical_json(json.loads(out)) == out

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["optimize", "--domain", ELLIPSE, "--q", "0.5", "--class", "rank1", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text() == out


class TestSweep:
    def test_rank1_csv_table(self):
        code, out, _ = run_cli(
            ["sweep", "--domain", ELLIPSE, "--q-grid", "0.25:0.75:0.25", "--class", "rank1"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,theta,alpha,value,boundary_flag"
        assert len(lines) == 4
        for line, q in zip(lines[1:], (0.25, 0.5, 0.75)):
            parts = line.split(",")
            assert len(parts) == 5
            assert float(parts[0]) == pytest.approx(q)
            assert parts[2] == ""  # rank-1 reports carry no alpha
            assert parts[4] == "true"
            float(parts[1]), float(parts[3])

    def test_json_round_trip(self):
        code, out, _ = run_cli(
            [
                "sweep",
                "--domain", ELLIPSE,
                "--q-grid", "0.25:0.5:0.25",
                "--class", "rank1",
                "--format", "json",
            ]
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out
        report = json.loads(out)
        assert report["threshold_bracket"] is None
        assert [r["q"] for r in report["reports"]] == pytest.approx([0.25, 0.5])

    def test_requires_grid(self):
        code, _, err = run_cli(["sweep", "--domain", ELLIPSE])
        assert code == 2
        assert "--q-grid" in err


class _Captured(Exception):
    pass


# a flag not given takes its value from the default of the call it feeds:
# SolverConfig() for eval and bounds, the quadratic optimizer's own default
# (h = 0.12 on polygons, h = 0.1 with Richardson on ellipsoids) otherwise
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "--domain", SQUARE, "--seminorm", EUCLID, "--q", "1", "--richardson"], SolverConfig(0.05, True)),
        (["bounds", "--domain", SQUARE, "--seminorm", EUCLID, "--h", "0.2"], SolverConfig(0.2, False)),
        (["optimize", "--domain", SQUARE, "--q", "2"], SolverConfig(0.12, False)),
        (["optimize", "--domain", SQUARE, "--q", "2", "--richardson"], SolverConfig(0.12, True)),
        (["optimize", "--domain", SQUARE, "--q", "2", "--h", "0.3"], SolverConfig(0.3, False)),
        (["optimize", "--domain", DISC, "--q", "2", "--h", "0.3"], SolverConfig(0.3, True)),
        (["optimize", "--domain", DISC, "--q", "2", "--richardson"], SolverConfig(0.1, True)),
        (["sweep", "--domain", SQUARE, "--q-grid", "1:2:1", "--richardson"], SolverConfig(0.12, True)),
        (["sweep", "--domain", ELLIPSE, "--q-grid", "1:2:1", "--h", "0.3"], SolverConfig(0.3, True)),
    ],
    ids=[
        "eval-richardson",
        "bounds-h",
        "optimize-polygon",
        "optimize-polygon-richardson",
        "optimize-polygon-h",
        "optimize-disc-h",
        "optimize-disc-richardson",
        "sweep-polygon-richardson",
        "sweep-ellipse-h",
    ],
)
def test_solver_flags_fill_from_the_called_default(monkeypatch, argv, expected):
    seen = []

    def capture(*args):
        seen.append(args[-1])
        raise _Captured

    for name in ("eval_F", "verify_bounds", "optimize_quadratic", "q_sweep"):
        monkeypatch.setattr(cli, name, capture)
    with pytest.raises(_Captured):
        main(argv)
    assert seen == [expected]


class TestBounds:
    def test_square_report(self):
        code, out, _ = run_cli(["bounds", "--domain", SQUARE, "--seminorm", AXIS_SEMINORM])
        assert code == 0
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert names == ["product_measure_upper", "rank1_upper", "convex_lower"]
        assert all(c["satisfied"] for c in report["checks"])
        assert report["product"] == pytest.approx(math.pi**2 / 12.0, rel=1e-10)
        assert report["lambda_provenance"] == "slicing"
        assert canonical_json(json.loads(out)) == out

    def test_three_dimensional_box(self):
        box = '{"kind": "box", "intervals": [[0,1],[0,1],[0,1]]}'
        code, out, _ = run_cli(["bounds", "--domain", box, "--seminorm", '{"kind": "rank1", "eta": [0, 0, 1]}'])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 3
        assert all(c["satisfied"] for c in checks)


class TestReproduce:
    def test_all_rows_pass(self):
        code, out, _ = run_cli(["reproduce"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 20
        assert all(line.endswith(" PASS") for line in lines)
        assert lines[0] == "triangle v=(0,1) T: computed 0.02083333 expected 1/48 PASS"

    def test_writes_out_file(self, tmp_path):
        path = tmp_path / "table.txt"
        code, out, _ = run_cli(["reproduce", "--out", str(path)])
        assert code == 0
        assert path.read_text() == out


class TestKjDemo:
    def test_strictly_decreasing(self):
        code, out, _ = run_cli(["kj-demo", "--d", "2", "--k", "1", "--q", "0.5", "--n", "1,10,100"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 3
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(math.pi**2 / (4.0 * math.sqrt(3.0)), rel=1e-12)

    def test_json_format(self):
        code, out, _ = run_cli(["kj-demo", "--n", "2,4", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert [r["n"] for r in report["rows"]] == [2, 4]
        assert canonical_json(json.loads(out)) == out

    def test_rejects_bad_n(self):
        for bad in ("0,5", "a,b", ""):
            code, _, _ = run_cli(["kj-demo", "--n", bad])
            assert code == 2

    def test_rejects_nonfinite_q(self):
        for q in ("nan", "-inf", "inf"):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(["kj-demo", f"--q={q}", "--format", fmt])
                assert (code, out) == (2, "")
                assert err.startswith("kj-demo: ")


class TestSpecFile:
    def test_flags_from_file(self, tmp_path):
        spec = {
            "command": "eval",
            "domain": json.loads(SQUARE),
            "seminorm": json.loads(AXIS_SEMINORM),
            "q": 1.0,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["eval", "--spec", str(path)])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi**2 / 12.0, rel=1e-10)

    def test_explicit_flag_wins(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": json.loads(SQUARE), "seminorm": json.loads(AXIS_SEMINORM), "q": 1.0}))
        code, out, _ = run_cli(["eval", "--spec", str(path), "--q", "0"])
        assert code == 0
        assert json.loads(out)["q"] == 0.0

    def test_fields_override_flag_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": json.loads(SQUARE), "q": 0.5, "mode": "max", "class": "rank1"}))
        code, out, _ = run_cli(["optimize", "--spec", str(path)])
        assert code == 0
        report = json.loads(out)
        assert (report["mode"], report["seminorm_class"]) == ("max", "rank1")
        assert report["value"] == pytest.approx(2.8491, abs=1e-4)
        code, out, _ = run_cli(["optimize", "--spec", str(path), "--mode", "min"])
        assert code == 0
        assert (json.loads(out)["mode"], json.loads(out)["seminorm_class"]) == ("min", "rank1")

    def test_command_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "bounds"}))
        code, _, err = run_cli(["eval", "--spec", str(path)])
        assert code == 2
        assert "bounds" in err

    def test_unknown_field_exits_2(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tolerance": 1e-3}))
        code, _, err = run_cli(["eval", "--spec", str(path)])
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize(
        "command, field, flag",
        [
            ("optimize", {"q": 1.0, "class": "rnak1"}, "--class"),
            ("sweep", {"q_grid": "1:2:1", "format": "xml"}, "--format"),
            ("eval", {"seminorm": json.loads(EUCLID), "q": [1]}, "--q"),
        ],
    )
    def test_field_checked_like_its_flag(self, tmp_path, command, field, flag):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": json.loads(SQUARE), **field}))
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([command, "--spec", str(path)])
        assert exc.value.code == 2
        assert flag in err.getvalue()

    def test_richardson_must_be_boolean(self, tmp_path):
        spec = {"domain": json.loads(DISC), "seminorm": json.loads(EUCLID), "q": 1.0, "h": 0.3}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(spec, richardson="no")))
        code, _, err = run_cli(["eval", "--spec", str(path)])
        assert code == 2
        assert "richardson" in err
        path.write_text(json.dumps(dict(spec, richardson=False)))
        code, out, _ = run_cli(["eval", "--spec", str(path)])
        assert (code, json.loads(out)["lambda_provenance"]) == (0, "fem")
        code, out, _ = run_cli(["eval", "--spec", str(path), "--richardson"])
        assert (code, json.loads(out)["lambda_provenance"]) == (0, "fem_richardson")


def test_python_m_reproduce():
    # runs from a source checkout: the package's parent directory goes on the path
    src = str(Path(anisospec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "anisospec", "reproduce"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 20


def test_console_script_installed():
    proc = subprocess.run(
        ["anisospec", "reproduce"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 20


# exact-route subcommands load no SciPy; a quadratic polygon eval loads the
# FEM layer on first use, and the lazy package names are the FEM objects
COLD_IMPORT = """
import io, sys
from contextlib import redirect_stdout
from anisospec.cli import main

hexagon = '{"kind": "polygon", "vertices": [[1,0],[0.5,0.9],[-0.5,0.9],[-1,0],[-0.5,-0.9],[0.5,-0.9]]}'
rank1 = '{"kind": "rank1", "eta": [0.6, 0.8]}'
quadratic = '{"kind": "quadratic", "alphas": [1, 0.5]}'
exact = [
    ["eval", "--domain", hexagon, "--seminorm", rank1, "--q", "1.5"],
    ["optimize", "--domain", hexagon, "--class", "rank1", "--q", "1.5", "--mode", "min"],
    ["bounds", "--domain", hexagon, "--seminorm", rank1],
    ["reproduce"],
    ["kj-demo", "--q", "0.5", "--n", "1,5,20"],
]
for argv in exact:
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, (argv[0], loaded[:5])
    assert "anisospec.fem" not in sys.modules, argv[0]
with redirect_stdout(io.StringIO()):
    assert main(["eval", "--domain", hexagon, "--seminorm", quadratic, "--q", "1", "--h", "0.3"]) == 0
assert "anisospec.fem.solver" in sys.modules and "scipy.sparse" in sys.modules

import anisospec, anisospec.fem
for name in ("TriMesh", "lambda_euclid_fem", "mesh_polygon", "solve_quadratic", "SolverConfig"):
    assert getattr(anisospec, name) is getattr(anisospec.fem, name), name
"""


def test_exact_routes_load_no_scipy():
    src = str(Path(anisospec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


# stdout of commands whose every number comes from an exact route (closed
# form or slicing), recorded byte for byte
EXACT_ROUTES = json.loads((Path(__file__).parent / "data" / "cli_exact_routes.json").read_text())


@pytest.mark.parametrize("name", sorted(EXACT_ROUTES))
def test_exact_route_stdout_is_pinned(name):
    case = EXACT_ROUTES[name]
    assert run_cli(case["argv"])[:2] == (0, case["stdout"])


def test_bench_tracer_installs():
    # the benchmark's traced runs wrap solver names and read result fields;
    # this fails when a change removes one of them
    root = Path(__file__).resolve().parents[1]
    src = str(Path(anisospec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path, PYTHONDONTWRITEBYTECODE="1")
    script = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracer; t = tracer.install(); import anisospec; "
        "anisospec.solve_rank1(anisospec.ellipse_polygon(1.0, 1.0, 6), anisospec.Rank1Seminorm([0.0, 1.0])); "
        "print(sorted({s[0] for s in t.spans}), t.counts['slicing.breakpoints_sum'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    spans, breakpoints = proc.stdout.rsplit(" ", 1)
    assert "slicing.solve_rank1" in spans
    assert float(breakpoints) > 0
