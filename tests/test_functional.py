"""Tests for the product functional lambda_H * T_H^q and its optimizers."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from anisospec import (
    BoxD,
    EllipsoidD,
    Polygon2D,
    QuadraticSeminorm,
    Rank1Seminorm,
    ellipse_polygon,
)
from anisospec import functional
from anisospec.closed_forms import m_tilde_q_ellipsoid, torsion_euclid_ellipsoid
from anisospec.errors import (
    DegenerateSeminormError,
    InputError,
    InvalidSeminormError,
    SolverError,
    UnsupportedError,
)
from anisospec.fem import SolverConfig, solver
from anisospec.functional import (
    _augment_directions,
    _family_batch,
    _family_seminorm,
    _rank1_angles,
    _route,
    eval_F,
    optimize_quadratic,
    optimize_rank1,
    q_sweep,
    verify_bounds,
)
from anisospec.memo import Memo
from anisospec.seminorms import Spectral
from anisospec.slicing import solve_rank1
from conftest import (
    STAR7,
    loop_augment_directions,
    loop_optimize_quadratic,
    loop_quadratic_values,
    own_mesh_ellipse_lambda,
    random_convex_polygon,
    random_star_polygon,
)

J01_SQUARED = 5.783185962946785  # first Dirichlet eigenvalue of the unit disc
PI_CUBED_OVER_16 = math.pi**3 / 16.0

DISC = EllipsoidD([1.0, 1.0])
# optimize_quadratic's grid
GRID_THETAS = (np.arange(36) * (math.pi / 36.0)).tolist()
GRID_ALPHAS = np.linspace(0.0, 1.0, 21).tolist()
SQUARE = Polygon2D([(0, 0), (1, 0), (1, 1), (0, 1)])


def trace_values(report):
    return [v for _, v in report.trace]


class TestEvalF:
    def test_disc_rank1_closed_form(self):
        fv = eval_F(DISC, Rank1Seminorm([0.6, 0.8]), 1.0)
        assert fv.value == pytest.approx(PI_CUBED_OVER_16, rel=1e-12)
        assert fv.lambda_provenance == "closed_form"
        assert fv.torsion_provenance == "closed_form"
        assert fv.error_estimate == 0.0

    def test_square_axis_rank1_slicing(self):
        fv = eval_F(SQUARE, Rank1Seminorm([0.0, 1.0]), 1.0)
        assert fv.value == pytest.approx(math.pi**2 / 12.0, rel=1e-10)
        assert fv.lambda_ == pytest.approx(math.pi**2, rel=1e-10)
        assert fv.torsion == pytest.approx(1.0 / 12.0, rel=1e-10)
        assert fv.lambda_provenance == "slicing"

    def test_disc_euclidean_fem(self):
        fv = eval_F(DISC, QuadraticSeminorm(None, [1.0, 1.0]), 0.0)
        # q = 0 drops the torsion factor entirely
        assert fv.value == fv.lambda_
        assert fv.value == pytest.approx(J01_SQUARED, rel=5e-3)
        assert fv.torsion == pytest.approx(math.pi / 8.0, rel=1e-12)
        assert fv.torsion_provenance == "closed_form"

    def test_disc_euclidean_richardson_carries_error_estimate(self):
        cfg = SolverConfig(target_h=0.1, richardson=True)
        fv = eval_F(DISC, QuadraticSeminorm(None, [1.0, 1.0]), 1.0, cfg)
        assert fv.lambda_provenance == "fem_richardson"
        assert fv.error_estimate > 0.0
        assert fv.value == pytest.approx(J01_SQUARED * math.pi / 8.0, rel=1e-3)

    def test_value_is_lambda_times_torsion_power(self, rng):
        for _ in range(10):
            q = float(rng.uniform(-1.0, 3.0))
            fv = eval_F(DISC, Rank1Seminorm([1.0, 0.0]), q)
            assert fv.value == pytest.approx(fv.lambda_ * fv.torsion**q, rel=1e-14)

    def test_rejects_nonfinite_q(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InputError):
                eval_F(DISC, Rank1Seminorm([1.0, 0.0]), bad)

    def test_zero_seminorm_rejected(self):
        H = QuadraticSeminorm(None, [0.0, 0.0])
        with pytest.raises(DegenerateSeminormError):
            eval_F(DISC, H, 1.0)
        with pytest.raises(DegenerateSeminormError):
            eval_F(SQUARE, H, 1.0)

    def test_ellipsoid_and_polygon_routes_agree(self):
        # the same ellipse solved as an exact quadric and as an inscribed
        # 512-gon; fully independent discretizations
        cfg = SolverConfig(target_h=0.1, richardson=True)
        E = EllipsoidD([2.0, 1.0])
        P = ellipse_polygon(2.0, 1.0, 512)
        for H in (
            QuadraticSeminorm(None, [1.0, 1.0]),
            QuadraticSeminorm([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]], [1.0, 0.6]),
        ):
            a = eval_F(E, H, 1.0, cfg)
            b = eval_F(P, H, 1.0, cfg)
            assert a.value == pytest.approx(b.value, rel=2e-2)

    def test_box_rank1_axis_closed_form(self):
        box = BoxD([(0.0, 1.0), (0.0, 2.0)])
        fv = eval_F(box, Rank1Seminorm([0.0, 1.0]), 1.0)
        assert fv.lambda_ == pytest.approx(math.pi**2 / 4.0, rel=1e-12)
        assert fv.torsion == pytest.approx(2.0 * 4.0 / 12.0, rel=1e-12)
        assert fv.lambda_provenance == "closed_form"


class TestScalingLaw:
    """F(tH) = t^(2-2q) F(H): lambda scales as t^2, torsion as t^-2."""

    def test_rank1_family(self, rng):
        domains = [
            DISC,
            EllipsoidD([2.0, 1.0]),
            EllipsoidD([3.0, 2.0, 1.0]),
            SQUARE,
            ellipse_polygon(1.0, 1.0, 6),
        ]
        cases = 0
        for _ in range(30):
            for dom in domains:
                d = dom.dimension if isinstance(dom, EllipsoidD) else 2
                eta = rng.normal(size=d)
                t = float(rng.uniform(0.25, 4.0))
                q = float(rng.uniform(-1.0, 3.0))
                base = eval_F(dom, Rank1Seminorm(eta), q)
                scaled = eval_F(dom, Rank1Seminorm(t * eta), q)
                assert scaled.lambda_ == pytest.approx(t**2 * base.lambda_, rel=1e-10)
                assert scaled.torsion == pytest.approx(base.torsion / t**2, rel=1e-10)
                assert scaled.value == pytest.approx(t ** (2.0 - 2.0 * q) * base.value, rel=1e-10)
                cases += 1
        assert cases >= 100

    def test_quadratic_family_on_ball(self, rng):
        H = QuadraticSeminorm(None, [1.0, 0.6])
        base = eval_F(DISC, H, 1.5)
        # the extreme scales reach alpha products far from 1
        for t in [float(rng.uniform(0.25, 4.0)) for _ in range(30)] + [1e-7, 1e7]:
            scaled = eval_F(DISC, QuadraticSeminorm(None, [t, 0.6 * t]), 1.5)
            assert scaled.lambda_ == pytest.approx(t**2 * base.lambda_, rel=1e-10)
            assert scaled.torsion == pytest.approx(base.torsion / t**2, rel=1e-10)

    def test_quadratic_family_on_polygon(self, rng):
        H = QuadraticSeminorm(None, [1.0, 0.5])
        cfg = SolverConfig(target_h=0.15)
        base = eval_F(SQUARE, H, 1.0, cfg)
        for t in (0.5, 2.0, 3.7):
            scaled = eval_F(SQUARE, QuadraticSeminorm(None, [t, 0.5 * t]), 1.0, cfg)
            # same base mesh transformed by B/t: scaling survives FEM exactly
            # up to iterative-solver tolerance
            assert scaled.lambda_ == pytest.approx(t**2 * base.lambda_, rel=1e-8)
            assert scaled.torsion == pytest.approx(base.torsion / t**2, rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 2 and 5: below the optimizer's alpha floor the ellipse route's FEM on the "
    "stretched image ellipse overestimates lambda_H and reports error_estimate 0",
)
def test_ellipse_route_below_alpha_floor():
    # H(xi) >= |xi_1| pointwise, so lambda_H(disc) >= pi^2/4, and lambda_H
    # cannot grow as alpha, and with it H, falls
    lams = [eval_F(DISC, QuadraticSeminorm(None, [1.0, a]), 1.0).lambda_ for a in (0.025, 0.01, 0.001)]
    assert min(lams) >= math.pi**2 / 4.0
    assert lams == sorted(lams, reverse=True)


class TestOptimizeRank1:
    def test_disc_flat_at_q_one(self, rng):
        # on the ball every direction gives lambda * T = pi^3/16
        for _ in range(8):
            eta = rng.normal(size=2)
            fv = eval_F(DISC, Rank1Seminorm(eta / np.linalg.norm(eta)), 1.0)
            assert fv.value == pytest.approx(PI_CUBED_OVER_16, rel=1e-10)

    def test_disc_value_flat_and_trace_tight(self):
        # every direction ties up to float noise; the report is a tie of
        # the trace minimum and the value at its own angle
        report = optimize_rank1(DISC, 1.0, "min")
        assert report.value == pytest.approx(min(trace_values(report)), rel=1e-12)
        assert (report.theta, report.value) in report.trace
        assert report.value == pytest.approx(PI_CUBED_OVER_16, rel=1e-10)
        assert 0.0 <= report.theta < math.pi

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_disc_ties_resolve_to_angle_zero(self, q):
        # the disc's values differ only by rounding, which may put the
        # exact minimum at any angle
        report = optimize_rank1(DISC, q, "min")
        assert report.theta == 0.0
        assert report.value == report.trace[0][1]

    def test_ellipse_min_matches_closed_form(self):
        E = EllipsoidD([2.0, 1.0])
        expected, direction = m_tilde_q_ellipsoid([2.0, 1.0], 0.5)
        report = optimize_rank1(E, 0.5, "min")
        assert report.value == pytest.approx(expected, rel=1e-9)
        # minimizer points along the long axis
        assert abs(math.cos(report.theta)) == pytest.approx(abs(direction.vector[0]), abs=1e-5)
        assert report.boundary_flag is True
        assert report.alpha is None
        assert report.seminorm_class == "rank1"

    def test_ellipse_max_prefers_short_axis(self):
        # q = 0.5: the short axis trades a larger eigenvalue against enough
        # torsion to win the maximization
        report = optimize_rank1(EllipsoidD([2.0, 1.0]), 0.5, "max")
        expected = (math.pi**2 / 4.0) * math.sqrt(math.pi / 2.0)
        assert report.value == pytest.approx(expected, rel=1e-9)
        assert report.theta == pytest.approx(math.pi / 2.0, abs=1e-5)

    def test_value_consistent_with_trace_and_reevaluation(self):
        report = optimize_rank1(EllipsoidD([2.0, 1.0]), 0.5, "min")
        assert report.value == min(trace_values(report))
        assert report.best.value == report.value

    def test_triangle_not_worse_than_named_directions(self, right_triangle):
        report = optimize_rank1(right_triangle, 1.0, "min")
        for eta in ([1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]):
            assert report.value <= eval_F(right_triangle, Rank1Seminorm(eta), 1.0).value + 1e-12

    def test_rejects_bad_mode(self):
        with pytest.raises(InputError):
            optimize_rank1(DISC, 1.0, "avg")


@pytest.mark.parametrize("n", [3, 64, 65, 256])
def test_augment_directions_match_pair_loop(n):
    # 65 and 256 vertices have more than 2048 pairs, so the pairs are strided
    poly = ellipse_polygon(1.0, 0.5, n)
    assert _augment_directions(poly).tobytes() == loop_augment_directions(poly).tobytes()


def _scan_polygons():
    rng = np.random.default_rng(7)
    yield "triangle", Polygon2D([(0, 0), (1, 0), (0.3, 0.8)])
    yield "convex", random_convex_polygon(rng, 40)
    yield "ellipse-256", ellipse_polygon(1.0, 0.4, 256)
    for n in (5, 64):
        yield f"star-{n}", random_star_polygon(rng, n)
    # a 256-gon with eight notches: every 32nd vertex pulled in towards the centre
    ang = 2.0 * np.pi * np.arange(256) / 256
    r = np.where(np.arange(256) % 32 == 0, 0.6, 1.0)
    yield "notched-256", Polygon2D(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    yield "L", Polygon2D([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    yield "U", Polygon2D([(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("name, poly", list(_scan_polygons()))
def test_rank1_scan_is_eval_F_bit_for_bit(name, poly):
    # the vertex-pair angles put two vertex projections within GEOM_TOL of
    # each other, where the slab structure is most fragile; solve_rank1
    # slices each direction alone, outside _route
    q = 1.3
    thetas = _rank1_angles(poly).tolist()
    rows = _route(poly, _family_batch(thetas), SolverConfig())
    report = optimize_rank1(poly, q, "min")
    for i, theta in enumerate(thetas):
        sp = solve_rank1(poly, _family_seminorm(theta, 0.0))
        fv = eval_F(poly, _family_seminorm(theta, 0.0), q)
        assert rows[i] == (sp.lambda_, sp.torsion, "slicing", "slicing")
        assert (fv.lambda_, fv.torsion) == (sp.lambda_, sp.torsion)
        assert report.trace[i] == (theta % math.pi, fv.value)


def _grid_polygons():
    # about area 0.5, as the optimizer's benchmark polygons: about 50 interior
    # nodes at h = 0.12 (the dense branch) and about 200 on the refinement
    rng = np.random.default_rng(20)
    yield "convex", random_convex_polygon(rng, 9, 0.45)
    yield "star", random_star_polygon(rng, 7, 0.3, 0.6)


@pytest.mark.parametrize("name, poly", list(_grid_polygons()))
@pytest.mark.parametrize("richardson", [False, True])
def test_quadratic_grid_is_eval_F_bit_for_bit(name, poly, richardson):
    # angles on both sides of pi/4 and 3pi/4, where the canonical form
    # negates one column of the rotation or the other: solve_quadratic
    # solves the canonical rotation's Gram matrix, the grid batch its own
    cfg = SolverConfig(target_h=0.12, richardson=richardson)
    levels = solver._polygon_levels(poly, cfg)
    assert [a.dense is not None for a in levels] == ([True, False] if richardson else [True])
    thetas = (np.arange(12) * (math.pi / 12.0)).tolist()
    alphas = [0.0, 0.05, 0.35, 1.0]
    lams, tors, _ = loop_quadratic_values(poly, np.array(thetas), np.array(alphas), 1.0, cfg)
    boundary = _route(poly, _family_batch(thetas), cfg)
    inner = [(t, a) for t in thetas for a in alphas[1:]]
    rows = iter(_route(poly, _family_batch(*zip(*inner)), cfg))
    for i, t in enumerate(thetas):
        sp = solve_rank1(poly, _family_seminorm(t, 0.0))
        assert boundary[i] == (sp.lambda_, sp.torsion, "slicing", "slicing")
        assert (lams[i][0], tors[i][0]) == boundary[i][:2]
        for j, a in enumerate(alphas[1:], 1):
            row = next(rows)
            assert Spectral(*row[:6]) == solver.solve_quadratic(poly, _family_seminorm(t, a), cfg)
            # a row's gradient, exact on one FEM level only
            assert (row[6] is None) == richardson
            assert (lams[i][j], tors[i][j]) == row[:2]


def test_ellipse_route_is_sign_blind():
    # the grid batch keeps the rotation [[c, -s], [s, c]], whose columns the
    # canonical form negates on one side of pi/4 or 3pi/4; the SVD of the
    # image ellipse must give the same bits either way
    c, s = math.cos(0.4), math.sin(0.4)
    ellipse = EllipsoidD([2.0, 1.0], [[c, -s], [s, c]])
    cfg = SolverConfig(target_h=0.2)
    thetas = [math.pi / 4 + d for d in (-0.2, -1e-3, 1e-3)] + [3 * math.pi / 4 + d for d in (-1e-3, 1e-3, 0.2)]
    inner = [(t, a) for t in thetas for a in (0.3, 1.0)]
    batch = _family_batch(*zip(*inner))
    flipped = [not np.array_equal(R, _family_seminorm(t, a).rotation) for (t, a), R in zip(inner, batch[1])]
    assert sum(flipped) == 8
    for (t, a), row in zip(inner, _route(ellipse, batch, cfg)):
        fv = eval_F(ellipse, _family_seminorm(t, a), 1.0, cfg)
        assert (fv.lambda_, fv.torsion, fv.lambda_provenance, fv.torsion_provenance) == row[:4]


def test_ellipsoid_rows_are_each_rows_formula_bit_for_bit(monkeypatch):
    # _route takes the image semi-axes of a batch from one stacked SVD; each
    # row must be what the formula gives it alone, on numpy 1.24 and current.
    # A stand-in eigenvalue of each image ratio carries the ratio's bits, and
    # the scale's, into the row, with no FEM solve
    c, s = math.cos(0.4), math.sin(0.4)
    ellipse = EllipsoidD([2.0, 1.0], [[c, -s], [s, c]])
    cfg = SolverConfig(target_h=0.1, richardson=True)
    monkeypatch.setattr(
        solver,
        "_ellipse_lambda",
        lambda ratio, cfg: Spectral(ratio, 1.0, "fem_richardson", "fem_richardson", error_estimate=ratio * 1e-7, h_used=0.1 * ratio),
    )
    batch = _family_batch(*zip(*[(t, a) for t in GRID_THETAS for a in GRID_ALPHAS[1:]]))
    want = []
    for R, a in zip(batch[1], batch[2]):
        axes = np.linalg.svd(np.diag(1.0 / a) @ R.T @ ellipse.rotation @ np.diag(ellipse.semi_axes))[1]
        unit = solver._ellipse_lambda(float(axes[0] / axes[1]), cfg)
        s = float(axes[1])
        tor = torsion_euclid_ellipsoid(axes) * float(np.prod(a))
        want.append((unit.lambda_ / s**2, tor, "fem_richardson", "closed_form", unit.error_estimate / s**2, unit.h_used * s, None))
    assert _route(ellipse, batch, cfg) == want


# the optimizer's ellipsoid settings (functional._default_quadratic_cfg)
ELLIPSE_CFG = SolverConfig(target_h=0.1, richardson=True)


@pytest.fixture
def fresh_ellipse_memos(monkeypatch):
    """Empty ratio, assembly and mesh memos, so that every value is built in the test."""

    def reset():
        monkeypatch.setattr(solver, "_ELLIPSE_LAMBDA", Memo(8192))
        monkeypatch.setattr(solver, "_ASSEMBLIES", Memo(1))
        monkeypatch.setattr(solver, "_MESHES", Memo(16))

    reset()
    return reset


class TestEllipseLadder:
    def test_own_mesh_bits_at_ladder_points(self, fresh_ellipse_memos):
        # at ratio 1 (the disc probe's) and at an anchor the stretch is 1:
        # the Euclidean solve on the ratio's own 256-gon
        for k in (0, 1, 7, 500):
            ratio = round(1.001**k, 9)
            assert solver._ladder_anchor(ratio) == ratio
            assert solver._ellipse_lambda(ratio, ELLIPSE_CFG) == own_mesh_ellipse_lambda(ratio, ELLIPSE_CFG)

    def test_anchor_is_the_largest_ladder_point_below(self):
        for ratio in (1.0, 1.0009999, 1.001, 1.0010001, 7.3, 40.0, 1e8):
            anchor = solver._ladder_anchor(ratio)
            k = round(math.log(anchor) / math.log1p(1e-3))
            assert anchor == round(1.001**k, 9) <= ratio < round(1.001 ** (k + 1), 9)

    @pytest.mark.parametrize("ratio", [math.inf, 1.7976e308])
    def test_ratio_past_the_ladder_is_too_thin(self, ratio):
        # an overflowed ratio, or one whose next ladder point overflows, fails
        # as a thin image ellipse does, naming the ratio
        with pytest.raises(SolverError, match=re.escape(f"aspect ratio {ratio:.6g} is too thin")):
            solver._ellipse_lambda(ratio, ELLIPSE_CFG)

    def test_within_mesh_noise_of_own_mesh(self, fresh_ellipse_memos):
        ratios = np.geomspace(1.0, 40.0, 64).tolist()
        moves = []
        for ratio in ratios:
            own = own_mesh_ellipse_lambda(round(ratio, 9), ELLIPSE_CFG).lambda_
            moves.append(abs(solver._ellipse_lambda(ratio, ELLIPSE_CFG).lambda_ - own) / own)
        # measured: at most 1.03e-5 (ratio 33.6), median 7.6e-8; against
        # meshes four times finer both routes are off by up to 2e-4
        assert max(moves) <= 2e-5
        assert np.median(moves) <= 1e-6

    def test_values_do_not_depend_on_call_order(self, fresh_ellipse_memos):
        # the first two share one 1e-9 memo bucket; the rest visit three
        # anchors back and forth
        ratios = [1.2345678901, 1.2345678904, 1.0004, 1.0013, 1.0, 1.0021, 1.0009]
        cfg = SolverConfig(target_h=0.2)
        forward = [solver._ellipse_lambda(r, cfg) for r in ratios]
        fresh_ellipse_memos()
        backward = [solver._ellipse_lambda(r, cfg) for r in reversed(ratios)]
        assert forward == backward[::-1]
        assert forward[0] == forward[1]

    def test_max_op_meshes_once_per_band_visit(self, fresh_ellipse_memos, monkeypatch):
        # perfbench disc-sweep seed 9805 op 1: its 40 ratios, meshed one by
        # one before they shared anchors
        polygons = []
        build = solver.ellipse_polygon
        monkeypatch.setattr(solver, "ellipse_polygon", lambda *args: polygons.append(args) or build(*args))
        tracemalloc.start()
        try:
            q_sweep(EllipsoidD([0.8519601523689644] * 2), [0.404253684670609, 0.471307414345069], "max")
            lookups = (solver._MESHES.misses, solver._MESHES.hits)
            held = tracemalloc.get_traced_memory()[0]
            # the fixture's monkeypatch keeps the memo it replaced, not this
            # one, which nothing else references: dropping it frees its meshes
            solver._MESHES = Memo(16)
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # on a disc every theta gives the same seminorm, so the theta
        # sections meet only rounding and keep their angle, and the golden
        # phases stop once alpha settles
        assert solver._ELLIPSE_LAMBDA.misses == 40
        # the one-entry assembly memo rebuilds a band when a later ratio
        # comes back to it (28 builds), from the mesh memo: each anchor's
        # 256-gon is built and meshed once
        assert solver._ASSEMBLIES.misses == 28
        assert len(polygons) == len(set(polygons)) == 27
        assert lookups == (27, 1)
        # its last 16 meshes, each of about 700 nodes and 1,300 triangles
        assert 0 < held <= 1 << 20


STAR6 = random_star_polygon(np.random.default_rng(21), 6, 0.3, 0.6)
# quad-polygon's seed 9801 input 1: a convex max op whose grid optimum is an
# inner cell and whose optimum sits on the alpha floor
QUAD_MAX = Polygon2D(
    [
        [0.41242797575697887, 0.019568730592692485],
        [0.3086868339534724, 0.27748372809541305],
        [0.13646255173701774, 0.39337700943630544],
        [-0.17789076112412136, 0.37723103016568393],
        [-0.35358550684630374, 0.21986631667530587],
        [-0.41404167595808006, -0.02388118098565476],
        [-0.34293978710028106, -0.23016328087695279],
        [-0.06764561557888163, -0.4053858399672919],
        [0.1789300009548232, -0.3695725908373717],
        [0.3195959842053756, -0.25852392229812954],
    ]
)
QUAD_MAX_Q = 2.027831665605547
# quad-polygon's seed 9805 input 19: a convex max op that a lone polish from
# the best cell of the every-other-angle grid ends in a worse basin
# (6.7e-4 relative lower, theta 0.369 instead of 1.794)
QUAD_MAX_BASIN = Polygon2D(
    [
        [-0.4216850203353279, 0.033704870783561505],
        [-0.31987985446535894, -0.261787520677801],
        [-0.03693518864856257, -0.406449914070598],
        [0.2513377779516273, -0.32435052081672966],
        [0.4108734103761997, -0.07736064486487826],
        [0.3187821999358988, 0.28836706056070016],
        [0.08549894907768689, 0.42602796717230246],
        [-0.28799227389216314, 0.3218487019134427],
    ]
)
QUAD_MAX_BASIN_Q = 1.9588190849309022


def _grid_part(report, loop_trace, sign) -> int:
    """The number of grid cells that open the report's trace, up to the first
    point off the grid or back on a cell already met, after checking that
    they are the loop's cells, values and order: the whole alpha = 0 column,
    then inner cells on every angle or, on a polygon at one FEM level, on
    every other angle only, where every inner cell left out of a solved
    column is worse than the grid optimum."""
    grid = loop_trace[: 36 * 21]
    cells, solved = {cell for cell, _ in grid}, set()
    for cell, _ in report.trace:
        if cell not in cells or cell in solved:
            break
        solved.add(cell)
    k = len(solved)
    assert report.trace[:k] == tuple(entry for entry in grid if entry[0] in solved)
    assert {(t, 0.0) for t in GRID_THETAS} <= solved
    columns = {t for t, a in solved if a > 0.0}
    assert columns in (set(GRID_THETAS), set(GRID_THETAS[::2]))
    best = min(sign * v for _, v in grid)
    assert all(sign * v > best for cell, v in grid if cell[0] in columns and cell not in solved)
    return k


@pytest.mark.parametrize(
    "domain, q, mode, cfg, inner",
    [
        (STAR6, 1.05, "min", None, False),
        (STAR6, 0.9, "min", None, False),
        (STAR6, 1.1, "min", None, False),
        (EllipsoidD([1.0, 1.0]), 1.05, "min", None, False),
        (EllipsoidD([1.0, 1.0]), 0.5, "max", None, True),
        (STAR6, 2.0, "max", SolverConfig(target_h=0.2, richardson=True), True),
        (STAR6, 2.0, "max", None, True),
    ],
    ids=["boundary-start", "boundary-start-0.9", "boundary-start-1.1", "disc", "disc-max", "richardson", "polished"],
)
def test_optimize_quadratic_matches_grid_cell_loop(domain, q, mode, cfg, inner):
    sign = 1.0 if mode == "min" else -1.0
    report = optimize_quadratic(domain, q, mode, cfg)
    theta, alpha, value, flag, trace = loop_optimize_quadratic(domain, q, mode, cfg)
    # the loop's trace is its 36 x 21 grid, theta-major, then the golden
    # section from the grid's first best cell
    grid, tail = trace[: 36 * 21], trace[36 * 21 :]
    start = grid[int(np.argmin([sign * v for _, v in grid]))][0]
    assert (start[1] > 0.0) == inner
    k = _grid_part(report, trace, sign)
    if inner and cfg is None and isinstance(domain, Polygon2D):
        # polished: equal or better, and on the same side of the boundary
        assert sign * report.value <= sign * value
        assert report.boundary_flag == flag
    else:
        # no gradient, or a start on the rank-1 boundary: the loop's tail
        assert (report.theta, report.alpha, report.value, report.boundary_flag) == (theta, alpha, value, flag)
        assert report.trace[k:] == tail
    if isinstance(domain, EllipsoidD):
        # no gradient on the ellipse route: every cell is solved
        assert report.trace == trace


def test_polish_pins_a_quad_polygon_max_op():
    report = optimize_quadratic(QUAD_MAX, QUAD_MAX_Q, "max")
    theta, alpha, value, flag, trace = loop_optimize_quadratic(QUAD_MAX, QUAD_MAX_Q, "max")
    k = _grid_part(report, trace, -1.0)
    # the polish lands on the alpha floor, where the golden sections stop
    # one tolerance short of it, and no worse in value
    assert report.alpha == 0.005 and 0.005 < alpha < 0.00501
    assert report.value >= value and report.boundary_flag is flag is False
    # against the same solved grid cells followed by the loop's golden tail
    assert len(report.trace) <= 0.75 * (k + len(trace) - 36 * 21)


def test_polish_hands_a_better_boundary_to_the_golden_sections(monkeypatch):
    # the polish runs from two starts and the exact alpha = 0 value is
    # taken at the better end's angle; when it beats the polish, the golden
    # sections run from that point: polishes whose values read infinitely
    # bad tie, so the smaller end angle is taken, and leave the same trace
    # up to that point, then the golden-section points
    ends, polish = [], functional._polish
    monkeypatch.setattr(functional, "_polish", lambda *args: ends.append(polish(*args)) or ends[-1])
    plain = optimize_quadratic(QUAD_MAX, QUAD_MAX_Q, "max")
    assert len(ends) == 2 and ends[0][:2] != ends[1][:2]
    n = len(plain.trace)
    assert plain.trace[-1][0] == min(ends, key=lambda e: (e[2], e[0]))[:1] + (0.0,)
    monkeypatch.setattr(functional, "_polish", lambda *args: (*polish(*args)[:2], math.inf))
    handed = optimize_quadratic(QUAD_MAX, QUAD_MAX_Q, "max")
    theta = min(e[0] for e in ends)
    assert handed.trace[: n - 1] == plain.trace[: n - 1]
    assert handed.trace[n - 1][0] == (theta, 0.0) and len(handed.trace) > n
    # the first golden section runs in alpha along the polished angle
    assert handed.trace[n][0][0] == theta and 0.0 < handed.trace[n][0][1] < 0.05
    assert (handed.theta, handed.alpha, handed.value) == (plain.theta, plain.alpha, plain.value)


def test_second_polish_start_keeps_the_basin(monkeypatch):
    # two polish starts, in distinct columns of the every-other-angle grid,
    # reach the full grid's basin: no worse than the grid-cell loop beyond
    # 1e-8 relative, at its angle within 1e-3 (mod pi)
    def gap(report, theta, value):
        turn = abs((report.theta - theta + math.pi / 2.0) % math.pi - math.pi / 2.0)
        return (value - report.value) / value, turn

    theta, _, value, _, _ = loop_optimize_quadratic(QUAD_MAX_BASIN, QUAD_MAX_BASIN_Q, "max")
    shortfall, turn = gap(optimize_quadratic(QUAD_MAX_BASIN, QUAD_MAX_BASIN_Q, "max"), theta, value)
    assert shortfall <= 1e-8 and turn <= 1e-3
    # the first start alone ends in a worse basin: the second start's polish
    # returns its start with a value that never wins
    polish, starts = functional._polish, []

    def first_only(fg, t, a, phi, g, floor):
        starts.append((t, a))
        return polish(fg, t, a, phi, g, floor) if len(starts) == 1 else (t, a, math.inf)

    monkeypatch.setattr(functional, "_polish", first_only)
    shortfall, turn = gap(optimize_quadratic(QUAD_MAX_BASIN, QUAD_MAX_BASIN_Q, "max"), theta, value)
    assert len(starts) == 2 and starts[0][0] != starts[1][0]
    assert shortfall > 1e-4 and turn > 0.1


def test_flat_sections_keep_their_coordinate():
    # on a disc every theta gives the same seminorm, so each theta section
    # meets only rounding and keeps the grid start's angle, and the alpha
    # sections alone decide when the loop stops
    report = optimize_quadratic(DISC, 0.5, "max")
    grid = report.trace[: 36 * 21]
    start, value = grid[int(np.argmin([-v for _, v in grid]))]
    assert len(report.trace) == 799
    assert (report.theta, report.alpha, report.value) == (start[0], 1.0, value)
    assert report.value == pytest.approx(3.624466302858458, rel=1e-12)


@pytest.mark.parametrize("domain, q, mode", [(STAR6, 1.05, "min"), ("l_shape", 1.0, "min"), ("l_shape", 2.0, "max")])
def test_flat_rule_leaves_varying_sections_alone(domain, q, mode, l_shape, monkeypatch):
    # golden sections from a rank-1 boundary start on a star and the
    # L-shape: with no section ever taken as flat, the same report and trace
    domain = l_shape if domain == "l_shape" else domain

    def report():
        r = optimize_quadratic(domain, q, mode)
        return r.theta, r.alpha, r.value, r.boundary_flag, r.trace

    rule_on = report()
    assert rule_on[3]
    monkeypatch.setattr(functional, "_TIE", -math.inf)
    assert report() == rule_on


@pytest.mark.parametrize("theta, alpha", [(0.3, 0.35), (1.9, 0.05)])
@pytest.mark.parametrize("name", ["star", "l_shape"])
def test_family_gradient_matches_central_differences(name, theta, alpha, l_shape):
    # the polish's derivatives in theta and alpha at q = 2, on the dense
    # branch (the 7-vertex star) and on the band branch (the L-shape)
    poly = STAR7 if name == "star" else l_shape
    cfg = SolverConfig(target_h=0.12)
    n = len(solver._polygon_levels(poly, cfg)[0].f)
    assert (n <= solver._DENSE_MAX) == (name == "star")

    def F(t, a):
        row = _route(poly, _family_batch([t], [a]), cfg)[0]
        return functional._family_gradient(row, t, a, 2.0)

    value, grad = F(theta, alpha)
    assert value > 0.0
    for k, step in enumerate((1e-5, 1e-5 * alpha)):
        up, down = np.array([theta, alpha]), np.array([theta, alpha])
        up[k] += step
        down[k] -= step
        central = (F(*up)[0] - F(*down)[0]) / (2.0 * step)
        assert central == pytest.approx(grad[k], rel=1e-6)


@pytest.mark.parametrize("q, mode", [(1.0, "min"), (3.0, "min"), (2.0, "max"), (0.5, "max"), (-0.5, "max"), (-0.5, "min")])
def test_pruned_grid_leaves_out_only_worse_cells(q, mode):
    # both modes and signs of q, with grid optima at the rank-1 boundary,
    # next to it and at alpha = 1; the values of the whole grid come from
    # one batch through _route
    sign = 1.0 if mode == "min" else -1.0
    cfg = functional._default_quadratic_cfg(STAR7)
    cells = [(t, a) for t in GRID_THETAS for a in GRID_ALPHAS[1:]]
    grid = {cell: lam * tor**q for cell, (lam, tor, *_) in zip(cells, _route(STAR7, _family_batch(*zip(*cells)), cfg))}
    boundary = [lam * tor**q for lam, tor, *_ in _route(STAR7, _family_batch(GRID_THETAS), cfg)]
    best = min(sign * v for v in [*grid.values(), *boundary])
    report = optimize_quadratic(STAR7, q, mode)
    solved = {cell: v for cell, v in report.trace if cell in grid}
    assert all(grid[cell] == v for cell, v in solved.items())
    assert all(sign * v > best for cell, v in grid.items() if cell not in solved)


def test_pruned_grid_solves_few_cells():
    # the pruning solves about 20 (min) to 40 (max) of the 360 inner cells
    # on every other angle on stars of the benchmark's size; the cap catches
    # bounds that stop pruning
    for q, mode in ((1.0, "min"), (2.0, "max")):
        report = optimize_quadratic(STAR7, q, mode)
        solved = {cell for cell, _ in report.trace if cell[0] in GRID_THETAS and cell[1] in GRID_ALPHAS[1:]}
        assert len(solved) <= 150


def test_q_sweep_solves_the_quadratic_grid_once(monkeypatch):
    batches, fems = [], []
    route, fem = functional._route, solver._fem

    def counted_route(domain, batch, cfg):
        if batch[0] == "quadratic":
            batches.append(batch)
        return route(domain, batch, cfg)

    monkeypatch.setattr(functional, "_route", counted_route)
    monkeypatch.setattr(solver, "_fem", lambda *a: fems.append(a) or fem(*a))
    poly = random_star_polygon(np.random.default_rng(22), 6, 0.3, 0.6)
    q_sweep(poly, [0.9, 1.0, 1.1], "min")
    # the first pruning batch, alpha = 0.05 on every other angle and the
    # Euclidean cell, is the same at every exponent and solved once
    first = [b for b in batches if b[2][:, 1].tolist() == [0.05, 1.0] + [0.05] * 17]
    assert len(first) == 1
    # each routed row is one solve, and no other solve runs
    assert len(fems) == sum(len(b[1]) for b in batches)


def test_route_sees_every_solve(monkeypatch):
    # every solve goes through _route as one batch: the polygon solvers are
    # reached from nowhere else, so each of their calls sits under a route
    routes, scans, fems = [], [], []
    route, scan, fem = functional._route, functional._rank1_scan, solver._fem

    def counted_route(domain, batch, cfg):
        routes.append((batch[0], len(batch[1])))
        n_scans, n_fems = len(scans), len(fems)
        rows = route(domain, batch, cfg)
        # a rank-1 batch is one scan, a quadratic batch one _fem solve a row
        assert (len(scans) - n_scans, len(fems) - n_fems) == ((1, 0) if batch[0] == "rank1" else (0, len(rows)))
        return rows

    monkeypatch.setattr(functional, "_route", counted_route)
    monkeypatch.setattr(functional, "_rank1_scan", lambda *a: scans.append(a) or scan(*a))
    monkeypatch.setattr(solver, "_fem", lambda *a: fems.append(a) or fem(*a))
    rng = np.random.default_rng(23)
    cfg = SolverConfig(target_h=0.2)

    poly = random_star_polygon(rng, 7, 0.3, 0.6)
    report = optimize_rank1(poly, 1.2, "max")
    n = len(_rank1_angles(poly))
    assert routes[0] == ("rank1", n)
    # each golden-section point the memo misses, and the best angle's
    # re-evaluation at most, as a batch of one
    assert set(routes[1:]) == {("rank1", 1)}
    assert len(routes) - 1 <= len(report.trace) - n + 1
    assert len(scans) == len(routes) and not fems

    routes.clear()
    scans.clear()
    spans = []
    pruned_grid = functional._pruned_grid

    def marked_pruned_grid(*args):
        start = len(routes)
        rows = pruned_grid(*args)
        spans.append((start, len(routes)))
        return rows

    monkeypatch.setattr(functional, "_pruned_grid", marked_pruned_grid)
    poly = random_star_polygon(rng, 6, 0.3, 0.6)
    report = optimize_quadratic(poly, 1.0, "min", cfg)
    # the alpha = 0 column, the first pruning batch (alpha = 0.05 on every
    # other angle and the Euclidean cell), then the midpoint batches
    ((start, end),) = spans
    assert start == 1 and routes[:2] == [("rank1", 36), ("quadratic", 19)]
    grid = routes[1:end]
    assert {kind for kind, _ in grid} == {"quadratic"}
    # the trace lists the solved cells, then the golden-section points, each
    # that the memo misses, and the best cell's re-evaluation at most, a
    # batch of one
    n_grid = 36 + sum(n for _, n in grid)
    assert all(t in GRID_THETAS and a in GRID_ALPHAS for (t, a), _ in report.trace[:n_grid])
    assert set(routes[end:]) <= {("rank1", 1), ("quadratic", 1)}
    assert len(routes) - end <= len(report.trace) - n_grid + 1
    assert len(scans) + len(fems) - (n_grid - 36) == len(routes) - len(grid)

    routes.clear()
    eval_F(poly, QuadraticSeminorm(None, [1.0, 0.37]), 1.0, cfg)
    assert routes == [("quadratic", 1)]


@pytest.fixture(scope="class")
def disc_min_half():
    return optimize_quadratic(DISC, 0.5, "min")


@pytest.fixture(scope="class")
def disc_max_one():
    return optimize_quadratic(DISC, 1.0, "max")


class TestOptimizeQuadratic:
    def test_min_sits_on_rank1_boundary(self, disc_min_half):
        expected, _ = m_tilde_q_ellipsoid([1.0, 1.0], 0.5)
        assert disc_min_half.alpha == 0.0
        assert disc_min_half.boundary_flag is True
        assert disc_min_half.value == pytest.approx(expected, rel=1e-12)

    def test_max_is_isotropic(self, disc_max_one):
        assert disc_max_one.alpha >= 0.99
        assert disc_max_one.boundary_flag is False
        assert disc_max_one.value == pytest.approx(J01_SQUARED * math.pi / 8.0, rel=5e-3)

    def test_min_value_bounds_trace(self, disc_min_half):
        vals = trace_values(disc_min_half)
        assert disc_min_half.value == min(vals)

    def test_max_value_bounds_trace(self, disc_max_one):
        vals = trace_values(disc_max_one)
        assert disc_max_one.value == max(vals)

    def test_reported_best_matches_value(self, disc_min_half, disc_max_one):
        for report in (disc_min_half, disc_max_one):
            assert report.best.value == report.value
            assert report.seminorm_class == "quadratic"

    def test_grid_never_beats_result(self, disc_min_half):
        # the first 36 * 21 trace entries are the coarse grid
        grid = trace_values(disc_min_half)[: 36 * 21]
        assert disc_min_half.value <= min(grid)

    def test_rejects_bad_mode(self):
        with pytest.raises(InputError):
            optimize_quadratic(DISC, 1.0, "avg")


class TestQSweep:
    def test_disc_bracket_contains_crossing(self):
        sweep = q_sweep(DISC, (0.5, 1.0, 1.5), "min")
        flags = [r.boundary_flag for r in sweep.reports]
        assert flags == [True, True, False]
        assert sweep.threshold_bracket == (1.0, 1.5)
        assert sweep.empirical_threshold == 1.5
        # exact exponent where the isotropic value overtakes the rank-1
        # boundary on the ball: j01^2 (pi/8)^q = (pi^2/4)(pi/4)^q
        crossing = math.log2(J01_SQUARED / (math.pi**2 / 4.0))
        assert sweep.threshold_bracket[0] < crossing <= sweep.threshold_bracket[1]
        assert sweep.qs == (0.5, 1.0, 1.5)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(InputError):
            q_sweep(DISC, (1.0, 1.0, 2.0))
        with pytest.raises(InputError):
            q_sweep(DISC, (2.0, 1.0))
        with pytest.raises(InputError):
            q_sweep(DISC, ())

    def test_rejects_unknown_class(self):
        with pytest.raises(InputError):
            q_sweep(DISC, (0.5, 1.0), seminorm_class="diagonal")

    def test_rank1_sweep_never_brackets(self):
        sweep = q_sweep(DISC, (0.5, 1.0), seminorm_class="rank1")
        assert sweep.threshold_bracket is None
        assert sweep.empirical_threshold is None
        assert all(r.boundary_flag for r in sweep.reports)


class TestVerifyBounds:
    def test_square_axis_direction_saturates_rank1_bound(self):
        report = verify_bounds(SQUARE, Rank1Seminorm([0.0, 1.0]))
        by_name = {c.name: c for c in report.checks}
        assert report.product == pytest.approx(math.pi**2 / 12.0, rel=1e-10)
        upper = by_name["rank1_upper"]
        assert upper.satisfied is True
        assert upper.lhs == pytest.approx(upper.rhs, rel=1e-10)
        lower = by_name["convex_lower"]
        # centrally symmetric square: pi^2 / (4 * 2^2 * 4) = pi^2 / 64
        assert lower.rhs == pytest.approx(math.pi**2 / 64.0, rel=1e-12)
        assert lower.satisfied is True
        assert by_name["product_measure_upper"].satisfied is True

    def test_disc_euclidean(self):
        report = verify_bounds(DISC, QuadraticSeminorm(None, [1.0, 1.0]))
        by_name = {c.name: c for c in report.checks}
        assert report.product == pytest.approx(J01_SQUARED * math.pi / 8.0, rel=5e-3)
        assert by_name["product_measure_upper"].satisfied is True
        assert by_name["product_measure_upper"].rhs == pytest.approx(math.pi, rel=1e-12)
        # the pi^2/12 bound is a rank-1 statement; skipped with a note here
        assert by_name["rank1_upper"].satisfied is None
        assert "rank-1" in by_name["rank1_upper"].note
        assert by_name["convex_lower"].satisfied is True

    def test_nonconvex_domain_skips_convexity_bounds(self, l_shape):
        report = verify_bounds(l_shape, Rank1Seminorm([0.0, 1.0]))
        by_name = {c.name: c for c in report.checks}
        assert by_name["product_measure_upper"].satisfied is True
        assert by_name["rank1_upper"].satisfied is None
        assert "convex" in by_name["rank1_upper"].note
        assert by_name["convex_lower"].satisfied is None
        assert "convex" in by_name["convex_lower"].note

    def test_zero_seminorm_rejected(self):
        with pytest.raises(DegenerateSeminormError):
            verify_bounds(SQUARE, QuadraticSeminorm(None, [0.0, 0.0]))

    def test_box_domain_accepted(self):
        box = BoxD([(0.0, 1.0), (0.0, 1.0)])
        report = verify_bounds(box, Rank1Seminorm([0.0, 1.0]))
        assert report.product == pytest.approx(math.pi**2 / 12.0, rel=1e-10)
        assert all(c.satisfied for c in report.checks)


class TestUnsupported:
    def test_quadratic_on_3d_box(self):
        box = BoxD([(0.0, 1.0)] * 3)
        with pytest.raises(UnsupportedError):
            eval_F(box, QuadraticSeminorm(None, [1.0, 1.0, 1.0]), 1.0)

    def test_quadratic_on_3d_ellipsoid(self):
        with pytest.raises(UnsupportedError):
            eval_F(EllipsoidD([2.0, 1.0, 1.0]), QuadraticSeminorm(None, [1.0, 1.0, 1.0]), 1.0)

    def test_rank1_box_off_axis_3d(self):
        box = BoxD([(0.0, 1.0)] * 3)
        with pytest.raises(UnsupportedError):
            eval_F(box, Rank1Seminorm([1.0, 1.0, 0.0]), 1.0)

    def test_optimizer_needs_planar_domain(self):
        with pytest.raises(UnsupportedError):
            optimize_rank1(EllipsoidD([2.0, 1.0, 1.0]), 1.0)



# The routing table: which route computes (lambda_H, T_H) for each
# (domain, seminorm) pair. "c" closed form, "s" slicing, "f" FEM; an exception
# class where the pair is rejected; None where the seminorm needs d = 3.
_ROUTE_DOMAINS = {
    "unit square": SQUARE,
    "box 2d": BoxD([(0.0, 1.0), (0.0, 2.0)]),
    "box 3d": BoxD([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]),
    "ellipse": EllipsoidD([2.0, 1.0]),
    "ellipsoid 3d": EllipsoidD([3.0, 2.0, 1.0]),
}
_ROUTE_SEMINORMS = {
    "rank1 e2": lambda d: Rank1Seminorm(np.eye(d)[1]),
    "rank1 diagonal": lambda d: Rank1Seminorm(np.ones(d) / math.sqrt(d)),
    "quad full": lambda d: QuadraticSeminorm(None, 1.0 / np.arange(1, d + 1)),
    "quad (1,0,...)": lambda d: QuadraticSeminorm(None, np.eye(d)[0]),
    "quad (1,1,0)": lambda d: QuadraticSeminorm(None, [1.0, 1.0, 0.0]) if d == 3 else None,
    "quad zero": lambda d: QuadraticSeminorm(None, np.zeros(d)),
}
_ROUTE_TABLE = {
    "unit square": ("s/s", "s/s", "f/f", "s/s", None, DegenerateSeminormError),
    "box 2d": ("c/c", "s/s", "f/f", "s/s", None, DegenerateSeminormError),
    "box 3d": ("c/c", UnsupportedError, UnsupportedError, "c/c", UnsupportedError, DegenerateSeminormError),
    "ellipse": ("c/c", "c/c", "f/c", "c/c", None, DegenerateSeminormError),
    "ellipsoid 3d": ("c/c", "c/c", UnsupportedError, "c/c", UnsupportedError, DegenerateSeminormError),
}
_ROUTE_CODES = {"c": "closed_form", "s": "slicing", "f": "fem"}


@pytest.mark.parametrize(
    "domain_name, seminorm_name, expected",
    [
        (dn, sn, cell)
        for dn, row in _ROUTE_TABLE.items()
        for sn, cell in zip(_ROUTE_SEMINORMS, row)
        if cell is not None
    ],
)
def test_routing_table(domain_name, seminorm_name, expected):
    domain = _ROUTE_DOMAINS[domain_name]
    d = 2 if isinstance(domain, Polygon2D) else domain.dimension
    H = _ROUTE_SEMINORMS[seminorm_name](d)
    cfg = SolverConfig(target_h=0.2)
    if isinstance(expected, type):
        with pytest.raises(expected):
            eval_F(domain, H, 1.0, cfg)
        return
    fv = eval_F(domain, H, 1.0, cfg)
    lam, tor = (_ROUTE_CODES[c] for c in expected.split("/"))
    assert (fv.lambda_provenance, fv.torsion_provenance) == (lam, tor)


@pytest.mark.parametrize("domain_name", ["unit square", "box 2d", "box 3d", "ellipse", "ellipsoid 3d"])
@pytest.mark.parametrize("kind", ["rank1", "quadratic"])
def test_seminorm_of_wrong_dimension_rejected(domain_name, kind):
    domain = _ROUTE_DOMAINS[domain_name]
    d = 2 if isinstance(domain, Polygon2D) else domain.dimension
    other = 3 if d == 2 else 2
    H = Rank1Seminorm(np.eye(other)[1]) if kind == "rank1" else QuadraticSeminorm(None, np.eye(other)[0])
    with pytest.raises(InvalidSeminormError, match="dimensional"):
        eval_F(domain, H, 1.0)
    with pytest.raises(InvalidSeminormError, match="dimensional"):
        verify_bounds(domain, H)
