"""End-to-end acceptance checks for the whole stack.

Each test covers one numbered criterion, prints a single summary line
(`[criterion N] name: computed=... expected=... tol=... PASS/FAIL`) and then
asserts it, so a bare run of this module doubles as a human-readable report.
Reference values are closed forms (Bessel roots, box/ellipsoid formulas,
classical series) or independently frozen oracles; tolerances are fixed here
and never derived from the code under test.
"""

import math
import time

import numpy as np
import pytest

from conftest import linear_image, random_convex_polygon

from anisospec import (
    BoxD,
    EllipsoidD,
    Polygon2D,
    QuadraticSeminorm,
    Rank1Seminorm,
    SolverConfig,
    ellipse_polygon,
    eval_F,
    kj_sequence_value,
    lambda_euclid_fem,
    lambda_rank1_ellipsoid,
    measure,
    mesh_polygon,
    optimize_quadratic,
    optimize_rank1,
    q_threshold_ellipsoid,
    rank1_box,
    solve_quadratic,
    solve_rank1,
    t_max_ellipsoid,
    torsion_quadratic_ball,
    torsion_rank1_ellipsoid,
)
from anisospec.fem.solver import _Assembly, _solve

# Bessel j_{0,1}^2: first Dirichlet eigenvalue of the unit disc.
J01_SQUARED = 5.783185962946785
# Classical double-series value for the unit-square torsional rigidity.
T_SQUARE = 0.03514425373904369

UNIT_SQUARE = Polygon2D([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def _report(n: int, name: str, ok: bool, computed: str, expected: str, tol: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {name}: computed={computed} expected={expected} tol={tol} {status}")


def test_criterion_01_triangle_slicing_values_and_speed():
    tri = Polygon2D([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    s = 1.0 / math.sqrt(2.0)
    solve_rank1(tri, Rank1Seminorm((0.0, 1.0)))  # warm-up outside the timer
    t0 = time.perf_counter()
    t_axis = solve_rank1(tri, Rank1Seminorm((0.0, 1.0))).torsion
    t_diag = solve_rank1(tri, Rank1Seminorm((s, s))).torsion
    elapsed = time.perf_counter() - t0
    err = max(abs(t_axis - 1.0 / 48.0), abs(t_diag - 1.0 / 96.0))
    ok = err <= 1e-10 and elapsed < 0.010
    _report(
        1,
        "triangle slicing torsion",
        ok,
        f"({t_axis:.12f}, {t_diag:.12f}) in {elapsed * 1e3:.2f}ms",
        "(1/48, 1/96) in <10ms",
        "1e-10 abs",
    )
    assert ok, f"torsion error {err:.3e}, elapsed {elapsed * 1e3:.2f}ms"


def test_criterion_02_square_closed_form_and_slicing_agree():
    lam_cf, tor_cf = rank1_box(BoxD([(0.0, 1.0), (0.0, 1.0)]), axis=1)
    r = solve_rank1(UNIT_SQUARE, Rank1Seminorm((0.0, 1.0)))
    err = max(
        abs(lam_cf - math.pi**2),
        abs(tor_cf - 1.0 / 12.0),
        abs(r.lambda_ - math.pi**2),
        abs(r.torsion - 1.0 / 12.0),
    )
    ok = err <= 1e-10
    _report(
        2,
        "unit square, both routes",
        ok,
        f"closed=({lam_cf:.10f}, {tor_cf:.10f}) slicing=({r.lambda_:.10f}, {r.torsion:.10f})",
        "(pi^2, 1/12)",
        "1e-10 abs",
    )
    assert ok, f"max deviation {err:.3e}"


def test_criterion_03_ellipse_closed_forms():
    a = (2.0, 1.0)
    e1, e2 = (1.0, 0.0), (0.0, 1.0)
    vals = (
        lambda_rank1_ellipsoid(a, e1),
        torsion_rank1_ellipsoid(a, e1),
        lambda_rank1_ellipsoid(a, e2),
        torsion_rank1_ellipsoid(a, e2),
        t_max_ellipsoid(a),
    )
    targets = (math.pi**2 / 16.0, 2.0 * math.pi, math.pi**2 / 4.0, math.pi / 2.0, 2.0 * math.pi)
    err = max(abs(v - t) / max(1.0, abs(t)) for v, t in zip(vals, targets))
    ok = err <= 1e-12
    _report(
        3,
        "ellipse (2,1) directional values",
        ok,
        "(" + ", ".join(f"{v:.10f}" for v in vals) + ")",
        "(pi^2/16, 2pi, pi^2/4, pi/2, 2pi)",
        "1e-12",
    )
    assert ok, f"max deviation {err:.3e}"


def test_criterion_04_fem_accuracy_disc_and_square():
    cfg = SolverConfig(target_h=0.05, richardson=True)
    disc = ellipse_polygon(1.0, 1.0, 256)
    t0 = time.perf_counter()
    r_disc = lambda_euclid_fem(disc, cfg)
    r_sq = lambda_euclid_fem(UNIT_SQUARE, cfg)
    lam_disc, tor_disc = r_disc.lambda_, r_disc.torsion
    lam_sq, tor_sq = r_sq.lambda_, r_sq.torsion
    elapsed = time.perf_counter() - t0
    rels = (
        abs(lam_disc / J01_SQUARED - 1.0),
        abs(tor_disc / (math.pi / 8.0) - 1.0),
        abs(lam_sq / (2.0 * math.pi**2) - 1.0),
        abs(tor_sq / T_SQUARE - 1.0),
    )
    ok = max(rels) <= 5e-3 and elapsed < 60.0
    _report(
        4,
        "FEM h=0.05/0.025 disc-256 and square",
        ok,
        f"rel_err=({rels[0]:.1e}, {rels[1]:.1e}, {rels[2]:.1e}, {rels[3]:.1e}) in {elapsed:.1f}s",
        "(j01^2, pi/8, 2pi^2, series) in <60s",
        "0.5% rel",
    )
    assert ok, f"relative errors {rels}, elapsed {elapsed:.1f}s"


def test_criterion_05_disc_quadratic_min_on_boundary():
    disc = EllipsoidD([1.0, 1.0])
    worst_rel = 0.0
    flags = []
    for q in (0.5, 1.0):
        rep = optimize_quadratic(disc, q, "min")
        expected = (math.pi**2 / 4.0) * (math.pi / 4.0) ** q
        worst_rel = max(worst_rel, abs(rep.value / expected - 1.0))
        flags.append(rep.boundary_flag)
    # the minimizing family is flat over directions: the product must not
    # depend on where the surviving axis points
    rng = np.random.default_rng(20260819)
    dir_vals = []
    for _ in range(8):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        dir_vals.append(eval_F(disc, Rank1Seminorm(v), 1.0).value)
    spread = (max(dir_vals) - min(dir_vals)) / max(dir_vals)
    ok = all(flags) and worst_rel <= 0.01 and spread <= 1e-10
    _report(
        5,
        "disc min q=0.5,1 on rank-1 boundary",
        ok,
        f"flags={flags} rel_err={worst_rel:.1e} flatness={spread:.1e}",
        "(True, True) value=pi^2/4*(pi/4)^q flat",
        "1% value, 1e-10 flatness",
    )
    assert ok, f"flags={flags}, rel={worst_rel:.3e}, spread={spread:.3e}"


def test_criterion_06_disc_quadratic_max_is_euclidean():
    disc = EllipsoidD([1.0, 1.0])
    worst_rel = 0.0
    alphas = []
    for q in (0.5, 1.0):
        rep = optimize_quadratic(disc, q, "max")
        expected = J01_SQUARED * (math.pi / 8.0) ** q
        worst_rel = max(worst_rel, abs(rep.value / expected - 1.0))
        alphas.append(rep.alpha)
    ok = min(alphas) >= 0.99 and worst_rel <= 0.01
    _report(
        6,
        "disc max q=0.5,1 at full isotropy",
        ok,
        f"alpha*=({alphas[0]:.4f}, {alphas[1]:.4f}) rel_err={worst_rel:.1e}",
        "alpha*>=0.99 value=j01^2*(pi/8)^q",
        "1% value",
    )
    assert ok, f"alphas={alphas}, rel={worst_rel:.3e}"


def test_criterion_07_ellipse_rank1_suboptimal_at_large_q():
    poly = ellipse_polygon(2.0, 1.0, 256)
    quad = optimize_quadratic(poly, 5.0, "min")
    rank1 = optimize_rank1(poly, 5.0, "min")
    margin = 1.0 - quad.value / rank1.value
    low_q = optimize_quadratic(poly, 0.5, "min")
    thr = q_threshold_ellipsoid((1.0, 1.0))
    ok = margin >= 0.01 and low_q.boundary_flag and thr == 2.0
    _report(
        7,
        "ellipse(2,1)-256 exponent regimes",
        ok,
        f"q=5: quad={quad.value:.4f} rank1={rank1.value:.4f} (margin {margin:.1%}); "
        f"q=0.5: boundary={low_q.boundary_flag}; threshold(1,1)={thr}",
        "quad < 0.99*rank1; boundary=True; threshold=2",
        "1% margin, exact threshold",
    )
    assert ok, f"margin={margin:.4f}, boundary={low_q.boundary_flag}, thr={thr}"


def test_criterion_08_degenerate_product_sequence():
    target = math.pi**2 / (4.0 * math.sqrt(3.0))
    ns = (1, 10, 100)
    vals = [kj_sequence_value(2, 1, 0.5, n) for n in ns]
    err = max(abs(v - target / n) for v, n in zip(vals, ns))
    decreasing = vals[0] > vals[1] > vals[2]
    ok = err <= 1e-12 and decreasing
    _report(
        8,
        "degenerate product sequence n=1,10,100",
        ok,
        "(" + ", ".join(f"{v:.12f}" for v in vals) + ")",
        "pi^2/(4 sqrt(3))/n, decreasing",
        "1e-12 abs",
    )
    assert ok, f"max deviation {err:.3e}, decreasing={decreasing}"


def _random_seminorm(rng, d: int):
    if rng.uniform() < 0.5:
        eta = rng.normal(size=d) * rng.uniform(0.2, 3.0)
        return Rank1Seminorm(eta)
    R, _ = np.linalg.qr(rng.normal(size=(d, d)))
    alphas = rng.uniform(0.0, 2.0, size=d)
    alphas[rng.integers(d)] = rng.uniform(0.5, 2.0)  # keep it nonzero
    return QuadraticSeminorm(R, alphas)


def _suite_seminorm_axioms() -> tuple[int, float]:
    rng = np.random.default_rng(31401)
    worst = 0.0
    cases = 0
    for _ in range(120):
        d = int(rng.integers(2, 5))
        H = _random_seminorm(rng, d)
        xi = rng.normal(size=d) * 2.0
        zeta = rng.normal(size=d) * 2.0
        t = rng.uniform(-3.0, 3.0)
        scale = 1.0 + H(xi) * abs(t)
        worst = max(worst, abs(H(t * xi) - abs(t) * H(xi)) / scale)
        slack = H(xi) + H(zeta) - H(xi + zeta)
        worst = max(worst, max(0.0, -slack) / (1.0 + H(xi) + H(zeta)))
        cases += 1
    return cases, worst


def _suite_rotation_invariance() -> tuple[int, float]:
    rng = np.random.default_rng(31402)
    worst = 0.0
    cases = 0
    for _ in range(100):
        poly = random_convex_polygon(rng, n_points=10, scale=1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        R = np.array([[c, -s], [s, c]])
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        base = solve_rank1(poly, Rank1Seminorm(eta))
        moved = solve_rank1(linear_image(poly, R), Rank1Seminorm(R @ eta))
        worst = max(
            worst,
            abs(moved.lambda_ / base.lambda_ - 1.0),
            abs(moved.torsion / base.torsion - 1.0),
        )
        cases += 1
    return cases, worst


def _suite_scaling_laws() -> tuple[int, float]:
    rng = np.random.default_rng(31403)
    worst = 0.0
    cases = 0
    for _ in range(50):  # rank-1 slicing on polygons
        poly = random_convex_polygon(rng, n_points=10, scale=1.0)
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        t = rng.uniform(0.3, 3.0)
        base = solve_rank1(poly, Rank1Seminorm(eta))
        scaled = solve_rank1(poly, Rank1Seminorm(t * eta))
        worst = max(
            worst,
            abs(scaled.lambda_ / (t**2 * base.lambda_) - 1.0),
            abs(scaled.torsion * t**2 / base.torsion - 1.0),
        )
        cases += 1
    for _ in range(50):  # rank-1 closed forms on ellipsoids, full product
        d = int(rng.integers(2, 4))
        dom = EllipsoidD(rng.uniform(0.5, 3.0, size=d))
        eta = rng.normal(size=d)
        eta /= np.linalg.norm(eta)
        t = rng.uniform(0.3, 3.0)
        q = rng.uniform(0.0, 2.0)
        base = eval_F(dom, Rank1Seminorm(eta), q)
        scaled = eval_F(dom, Rank1Seminorm(t * eta), q)
        worst = max(
            worst,
            abs(scaled.lambda_ / (t**2 * base.lambda_) - 1.0),
            abs(scaled.torsion * t**2 / base.torsion - 1.0),
            abs(scaled.value / (t ** (2.0 - 2.0 * q) * base.value) - 1.0),
        )
        cases += 1
    for _ in range(20):  # quadratic-ball torsion closed form
        d = int(rng.integers(2, 4))
        alphas = rng.uniform(0.3, 2.0, size=d)
        t = rng.uniform(0.3, 3.0)
        base = torsion_quadratic_ball(alphas)
        scaled = torsion_quadratic_ball(t * alphas)
        worst = max(worst, abs(scaled * t**2 / base - 1.0))
        cases += 1
    return cases, worst


def _suite_product_bounds() -> tuple[int, float]:
    rng = np.random.default_rng(31404)
    worst = 0.0
    cases = 0
    for _ in range(100):  # convex polygons, normalized rank-1: both bounds
        poly = random_convex_polygon(rng, n_points=10, scale=1.0)
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        r = solve_rank1(poly, Rank1Seminorm(eta))
        product = r.lambda_ * r.torsion
        vol = measure(poly)
        worst = max(
            worst,
            product / vol - 1.0,
            product / (math.pi**2 * vol / 12.0) - 1.0,
        )
        cases += 1
    for _ in range(20):  # Euclidean balls of random radius: general bound
        radius = rng.uniform(0.4, 2.5)
        dom = EllipsoidD([radius, radius])
        fv = eval_F(dom, QuadraticSeminorm.euclidean(2), 1.0)
        worst = max(worst, fv.value / measure(dom) - 1.0)
        cases += 1
    return cases, worst


def _suite_refinement_monotonicity() -> tuple[int, float]:
    rng = np.random.default_rng(90205)
    cfg = SolverConfig(target_h=0.35, richardson=False)
    worst = 0.0
    cases = 0
    for _ in range(100):
        poly = random_convex_polygon(rng, n_points=10, scale=1.0)
        coarse = mesh_polygon(poly, cfg.target_h)
        fine = coarse.refined()
        lam_c, tor_c = _solve(_Assembly.of(coarse), np.eye(2))
        lam_f, tor_f = _solve(_Assembly.of(fine), np.eye(2))
        worst = max(worst, lam_f / lam_c - 1.0, 1.0 - tor_f / tor_c)
        cases += 1
    return cases, worst


def test_criterion_09_property_suites():
    names = ("axioms", "rotation", "scaling", "bounds", "refinement")
    suites = (
        _suite_seminorm_axioms(),
        _suite_rotation_invariance(),
        _suite_scaling_laws(),
        _suite_product_bounds(),
        _suite_refinement_monotonicity(),
    )
    tols = (1e-12, 1e-10, 1e-10, 1e-9, 1e-6)
    oks = [c >= 100 and w <= tol for (c, w), tol in zip(suites, tols)]
    detail = " ".join(
        f"{name}:{c}cases,{w:.1e}" for name, (c, w) in zip(names, suites)
    )
    ok = all(oks)
    _report(
        9,
        "five randomized property suites",
        ok,
        detail,
        ">=100 cases each, within tolerance",
        "1e-12/1e-10/1e-10/1e-9/1e-6",
    )
    assert ok, f"suite results {list(zip(names, suites, oks))}"


def test_criterion_10_quadratic_continuity_to_rank1():
    ref = solve_rank1(UNIT_SQUARE, Rank1Seminorm((1.0, 0.0)))
    cfg = SolverConfig(target_h=0.05, richardson=False)
    lams, tors = [], []
    for alpha in (0.1, 0.03, 0.01):
        r = solve_quadratic(UNIT_SQUARE, QuadraticSeminorm(None, [1.0, alpha]), cfg)
        lams.append(r.lambda_)
        tors.append(r.torsion)
    mono = (
        lams[0] >= lams[1] >= lams[2] >= ref.lambda_
        and tors[0] <= tors[1] <= tors[2] <= ref.torsion
    )
    gap_lam = lams[2] / ref.lambda_ - 1.0
    gap_tor = 1.0 - tors[2] / ref.torsion
    ok = mono and gap_lam <= 0.05 and gap_tor <= 0.05
    _report(
        10,
        "degenerating quadratic vs slicing limit",
        ok,
        f"monotone={mono} final gaps=({gap_lam:.4f}, {gap_tor:.4f})",
        "monotone approach, gaps<=5%",
        "5% rel",
    )
    assert ok, f"monotone={mono}, gaps=({gap_lam:.4f}, {gap_tor:.4f})"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
