"""Command-line front end: evaluate the product functional, run the family
optimizers and exponent sweeps, check measure bounds, reproduce the reference
constant table, and print the degenerate product sequence.

Domains and seminorms come in as JSON (inline on the flag, or a file path);
reports go out as canonical JSON (sorted keys, floats in %.12e so emitted
bytes survive a parse/re-serialize round trip) or CSV for tabular commands.

Exit codes: 0 success, 1 failed reproduction row, 2 bad input, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .closed_forms import (
    kj_sequence_value,
    lambda_rank1_ellipsoid,
    m_tilde_q_ellipsoid,
    q_threshold_ellipsoid,
    rank1_box,
    t_max_ellipsoid,
    torsion_euclid_ellipsoid,
    torsion_quadratic_ball,
    torsion_rank1_ellipsoid,
)
from .errors import DegenerateSeminormError, InputError, MeshError, SolverError
from .functional import _default_quadratic_cfg, eval_F, optimize_quadratic, optimize_rank1, q_sweep, verify_bounds
from .geometry import BoxD, Polygon2D, domain_from_json, domain_to_json
from .seminorms import Rank1Seminorm, SolverConfig, seminorm_from_json, seminorm_to_json
from .slicing import solve_rank1

__all__ = ["main", "canonical_json"]


def canonical_json(obj) -> str:
    """Serialize with sorted keys and %.12e floats.

    The format is a fixed point of parse-then-serialize: every float that
    comes back from json.loads of the output prints to the same 13
    significant digits again.
    """
    return _json_value(obj) + "\n"


def _json_value(v) -> str:
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise InputError("reports must not contain non-finite numbers")
        return format(float(v), ".12e")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_value(v[k])}" for k in sorted(v)) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(_json_value, v)) + "]"
    raise InputError(f"cannot serialize {type(v).__name__}")


def _load_json_arg(text: str, label: str) -> dict:
    """Inline JSON when the argument starts with '{', else a file path."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    try:
        raw = Path(text).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {label} file '{text}': {exc}") from exc
    return json.loads(raw)


# each exponent of a sweep is a full optimization
_MAX_Q_GRID = 10_000


def _parse_q_grid(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("q grid must look like a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"q grid fields must be numbers: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise InputError("q grid fields must be finite")
    if step <= 0 or b < a:
        raise InputError("q grid needs step > 0 and b >= a")
    qs = []
    while True:
        v = a + len(qs) * step
        if v > b + 1e-12 * max(1.0, abs(b)):
            break
        # a step far below the float spacing at a never moves a + i*step off a
        if qs and v <= qs[-1]:
            raise InputError("q grid step is too small to change the exponent")
        if len(qs) == _MAX_Q_GRID:
            raise InputError(f"q grid has more than {_MAX_Q_GRID} exponents")
        qs.append(v)
    return qs


def _parse_n_list(spec: str) -> list:
    try:
        ns = [int(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"--n must be a comma list of integers: {exc}") from exc
    if not ns or any(n < 1 for n in ns):
        raise InputError("--n entries must be positive integers")
    return ns


def _solver_cfg(args, default: SolverConfig) -> SolverConfig:
    """The FEM settings from --h and --richardson; each one not given keeps
    its value from `default`, the settings the called routine uses unasked."""
    return SolverConfig(
        target_h=default.target_h if args.h is None else args.h,
        richardson=args.richardson or default.richardson,
    )


def _factors(r) -> dict:
    """The factor fields of a FunctionalValue, Spectral or BoundsReport."""
    return {
        "lambda": r.lambda_,
        "torsion": r.torsion,
        "lambda_provenance": r.lambda_provenance,
        "torsion_provenance": r.torsion_provenance,
    }


def _cmd_eval(args, domain, H) -> tuple:
    fv = eval_F(domain, H, args.q, _solver_cfg(args, SolverConfig()))
    report = {
        "command": "eval",
        "q": fv.q,
        "value": fv.value,
        "error_estimate": fv.error_estimate,
        "seminorm": seminorm_to_json(fv.seminorm),
        "domain": domain_to_json(domain),
        **_factors(fv),
    }
    return canonical_json(report), 0


def _cmd_optimize(args, domain) -> tuple:
    if args.seminorm_class == "rank1":
        rep = optimize_rank1(domain, args.q, args.mode)
    else:
        rep = optimize_quadratic(domain, args.q, args.mode, _solver_cfg(args, _default_quadratic_cfg(domain)))
    report = {
        "command": "optimize",
        "mode": rep.mode,
        "seminorm_class": rep.seminorm_class,
        "q": float(args.q),
        "theta": rep.theta,
        "alpha": rep.alpha,
        "value": rep.value,
        "boundary_flag": rep.boundary_flag,
        "evaluations": len(rep.trace),
        "error_estimate": rep.best.error_estimate,
        "seminorm": seminorm_to_json(rep.best.seminorm),
        "domain": domain_to_json(domain),
        **_factors(rep.best),
    }
    return canonical_json(report), 0


def _sweep_csv(sweep) -> str:
    lines = ["q,theta,alpha,value,boundary_flag"]
    for q, rep in zip(sweep.qs, sweep.reports):
        alpha = "" if rep.alpha is None else format(rep.alpha, ".12e")
        lines.append(
            f"{q:.12e},{rep.theta:.12e},{alpha},{rep.value:.12e},"
            f"{'true' if rep.boundary_flag else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args, domain) -> tuple:
    qs = _parse_q_grid(args.q_grid)
    # the rank-1 class runs no FEM and ignores the settings
    cfg = _solver_cfg(args, _default_quadratic_cfg(domain))
    sweep = q_sweep(domain, qs, args.mode, args.seminorm_class, cfg)
    if args.format == "csv":
        return _sweep_csv(sweep), 0
    report = {
        "command": "sweep",
        "mode": args.mode,
        "seminorm_class": args.seminorm_class,
        "qs": list(sweep.qs),
        "threshold_bracket": None if sweep.threshold_bracket is None else list(sweep.threshold_bracket),
        "empirical_threshold": sweep.empirical_threshold,
        "reports": [
            {
                "q": q,
                "theta": rep.theta,
                "alpha": rep.alpha,
                "value": rep.value,
                "boundary_flag": rep.boundary_flag,
                **_factors(rep.best),
            }
            for q, rep in zip(sweep.qs, sweep.reports)
        ],
        "domain": domain_to_json(domain),
    }
    return canonical_json(report), 0


def _cmd_bounds(args, domain, H) -> tuple:
    br = verify_bounds(domain, H, _solver_cfg(args, SolverConfig()))
    report = {
        "command": "bounds",
        "measure": br.measure,
        "product": br.product,
        "checks": [
            {
                "name": c.name,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "satisfied": c.satisfied,
                "note": c.note,
            }
            for c in br.checks
        ],
        "seminorm": seminorm_to_json(H),
        "domain": domain_to_json(domain),
        **_factors(br),
    }
    return canonical_json(report), 0


def _reproduce_rows() -> list:
    """(name, computed, expected, label) for every pinned reference value."""
    tri = Polygon2D([(0, 0), (1, 0), (0, 1)])
    square = Polygon2D([(0, 0), (1, 0), (1, 1), (0, 1)])
    box = BoxD([(0.0, 1.0), (0.0, 2.0)])
    s = math.sqrt(0.5)
    sq = solve_rank1(square, Rank1Seminorm([0.0, 1.0]))
    box_lam, box_tor = rank1_box(box, axis=1)
    kj = math.pi**2 / (4.0 * math.sqrt(3.0))

    rows = [
        ("triangle v=(0,1) T", solve_rank1(tri, Rank1Seminorm([0.0, 1.0])).torsion, 1.0 / 48.0, "1/48"),
        ("triangle v=(1,1)/sqrt(2) T", solve_rank1(tri, Rank1Seminorm([s, s])).torsion, 1.0 / 96.0, "1/96"),
        ("square |xi_2| lambda", sq.lambda_, math.pi**2, "pi^2"),
        ("square |xi_2| T", sq.torsion, 1.0 / 12.0, "1/12"),
        ("box (0,1)x(0,2) e_2 lambda", box_lam, math.pi**2 / 4.0, "pi^2/4"),
        ("box (0,1)x(0,2) e_2 T", box_tor, 2.0 / 3.0, "2/3"),
        ("ellipse (2,1) e_1 lambda", lambda_rank1_ellipsoid([2.0, 1.0], [1.0, 0.0]), math.pi**2 / 16.0, "pi^2/16"),
        ("ellipse (2,1) e_1 T", torsion_rank1_ellipsoid([2.0, 1.0], [1.0, 0.0]), 2.0 * math.pi, "2*pi"),
        ("ellipse (2,1) e_2 lambda", lambda_rank1_ellipsoid([2.0, 1.0], [0.0, 1.0]), math.pi**2 / 4.0, "pi^2/4"),
        ("ellipse (2,1) e_2 T", torsion_rank1_ellipsoid([2.0, 1.0], [0.0, 1.0]), math.pi / 2.0, "pi/2"),
        ("ellipse (2,1) T_max", t_max_ellipsoid([2.0, 1.0]), 2.0 * math.pi, "2*pi"),
        ("disc euclidean T", torsion_euclid_ellipsoid([1.0, 1.0]), math.pi / 8.0, "pi/8"),
        ("ball quadratic alphas=(1,1/2) T", torsion_quadratic_ball([1.0, 0.5]), math.pi / 5.0, "pi/5"),
        ("m_tilde disc q=0", m_tilde_q_ellipsoid([1.0, 1.0], 0.0)[0], math.pi**2 / 4.0, "pi^2/4"),
        ("m_tilde disc q=1", m_tilde_q_ellipsoid([1.0, 1.0], 1.0)[0], math.pi**3 / 16.0, "pi^3/16"),
        ("q_E (1,1)", q_threshold_ellipsoid([1.0, 1.0]), 2.0, "2"),
        ("q_E (2,1)", q_threshold_ellipsoid([2.0, 1.0]), 1.0 + math.log(2.0) / math.log(1.25), "1+log(2)/log(5/4)"),
        ("KJ sequence d=2 k=1 q=1/2 n=1", kj_sequence_value(2, 1, 0.5, 1), kj, "pi^2/(4*sqrt(3))"),
        ("KJ sequence d=2 k=1 q=1/2 n=10", kj_sequence_value(2, 1, 0.5, 10), kj / 10.0, "pi^2/(4*sqrt(3))/10"),
        ("KJ sequence d=2 k=1 q=1/2 n=100", kj_sequence_value(2, 1, 0.5, 100), kj / 100.0, "pi^2/(4*sqrt(3))/100"),
    ]
    return rows


def _cmd_reproduce(args) -> tuple:
    lines = []
    all_pass = True
    for name, computed, expected, label in _reproduce_rows():
        ok = abs(computed - expected) <= 1e-10 * max(1.0, abs(expected))
        all_pass = all_pass and ok
        lines.append(f"{name}: computed {computed:.8f} expected {label} {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if all_pass else 1


def _cmd_kj_demo(args) -> tuple:
    ns = _parse_n_list(args.n)
    rows = [(n, kj_sequence_value(args.d, args.k, args.q, n)) for n in ns]
    if args.format == "json":
        report = {
            "command": "kj-demo",
            "d": args.d,
            "k": args.k,
            "q": args.q,
            "rows": [{"n": n, "value": v} for n, v in rows],
        }
        return canonical_json(report), 0
    lines = ["n,value"] + [f"{n},{v:.12e}" for n, v in rows]
    return "\n".join(lines) + "\n", 0


# run spec field -> (flag dest, flag)
_SPEC_FLAGS = {
    "domain": ("domain", "--domain"),
    "seminorm": ("seminorm", "--seminorm"),
    "q": ("q", "--q"),
    "q_grid": ("q_grid", "--q-grid"),
    "q-grid": ("q_grid", "--q-grid"),
    "mode": ("mode", "--mode"),
    "class": ("seminorm_class", "--class"),
    "seminorm_class": ("seminorm_class", "--class"),
    "h": ("h", "--h"),
    "richardson": ("richardson", "--richardson"),
    "out": ("out", "--out"),
    "format": ("format", "--format"),
}


def _spec_argv(args) -> list:
    """The fields of the JSON run spec named by --spec, as flag tokens."""
    obj = _load_json_arg(args.spec, "spec")
    if not isinstance(obj, dict):
        raise InputError("run spec must be a JSON object")
    cmd = obj.pop("command", None)
    if cmd is not None and cmd != args.command:
        raise InputError(f"spec file is for command '{cmd}', not '{args.command}'")
    tokens = []
    for key, value in obj.items():
        if key not in _SPEC_FLAGS:
            raise InputError(f"unknown run spec field '{key}'")
        dest, flag = _SPEC_FLAGS[key]
        if not hasattr(args, dest):
            raise InputError(f"field '{key}' does not apply to '{args.command}'")
        if flag == "--richardson":
            if not isinstance(value, bool):
                raise InputError(f"run spec field '{key}' must be true or false")
            if value:
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _add_common(p, *, domain=False, seminorm=False, fmt="json") -> None:
    if domain:
        p.add_argument("--domain", help="domain JSON (inline or file path)")
    if seminorm:
        p.add_argument("--seminorm", help="seminorm JSON (inline or file path)")
    p.add_argument("--h", type=float, default=None, help="FEM target mesh size override")
    p.add_argument("--richardson", action="store_true", help="extrapolate from a nested mesh pair")
    p.add_argument("--out", default=None, help="also write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default=fmt)
    p.add_argument("--spec", default=None, help="JSON file of run parameters; explicit flags win")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisospec",
        description="Anisotropic eigenvalue/torsion products on polygons, boxes and ellipsoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate lambda_H * T_H^q for one seminorm")
    _add_common(p, domain=True, seminorm=True)
    p.add_argument("--q", type=float, default=None, help="torsion exponent")

    p = sub.add_parser("optimize", help="optimize the product over a seminorm family")
    _add_common(p, domain=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--class", dest="seminorm_class", choices=("rank1", "quadratic"), default="quadratic")

    p = sub.add_parser("sweep", help="optimize over a grid of exponents and bracket the boundary flip")
    _add_common(p, domain=True, fmt="csv")
    p.add_argument("--q-grid", dest="q_grid", default=None, help="a:b:step, inclusive")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--class", dest="seminorm_class", choices=("rank1", "quadratic"), default="quadratic")

    p = sub.add_parser("bounds", help="check the product against its measure bounds")
    _add_common(p, domain=True, seminorm=True)

    p = sub.add_parser("reproduce", help="recompute the pinned reference constants")
    p.add_argument("--out", default=None)

    p = sub.add_parser("kj-demo", help="print the degenerate product sequence over n")
    p.add_argument("--d", type=int, default=2, help="ambient dimension")
    p.add_argument("--k", type=int, default=1, help="kernel codimension")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--n", default="1,10,100", help="comma list of sequence indices")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


# command -> (handler, the JSON inputs it is called with, other required flags, JSON-only reports)
_COMMANDS = {
    "eval": (_cmd_eval, ("domain", "seminorm"), ("q",), True),
    "optimize": (_cmd_optimize, ("domain",), ("q",), True),
    "sweep": (_cmd_sweep, ("domain",), ("q_grid",), False),
    "bounds": (_cmd_bounds, ("domain", "seminorm"), (), True),
    "reproduce": (_cmd_reproduce, (), (), False),
    "kj-demo": (_cmd_kj_demo, (), (), False),
}
_FROM_JSON = {"domain": domain_from_json, "seminorm": seminorm_from_json}


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{args.command} needs {flag}")


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "spec", None) is not None:
            # the spec's fields go in as flags right after the subcommand:
            # argparse checks them as it checks the given flags, and those,
            # parsed later, still win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _spec_argv(args) + argv[at:])
        handler, inputs, flags, json_only = _COMMANDS[args.command]
        _require(args, *inputs, *flags)
        loaded = [_FROM_JSON[name](_load_json_arg(getattr(args, name), name)) for name in inputs]
        if json_only and args.format != "json":
            raise InputError(f"{args.command} reports are JSON only")
        text, code = handler(args, *loaded)
    except (InputError, DegenerateSeminormError, json.JSONDecodeError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (SolverError, MeshError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"{args.command}: cannot write output file '{args.out}': {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
