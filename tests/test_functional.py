"""Tests for the product functional lambda_H * T_H^q and its optimizers."""

import math

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
from anisospec.closed_forms import m_tilde_q_ellipsoid
from anisospec.errors import (
    DegenerateSeminormError,
    InputError,
    InvalidSeminormError,
    UnsupportedError,
)
from anisospec.fem import SolverConfig
from anisospec.functional import (
    eval_F,
    optimize_quadratic,
    optimize_rank1,
    q_sweep,
    verify_bounds,
)

J01_SQUARED = 5.783185962946785  # first Dirichlet eigenvalue of the unit disc
PI_CUBED_OVER_16 = math.pi**3 / 16.0

DISC = EllipsoidD([1.0, 1.0])
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
    reason="ROADMAP items 1 and 3: below the optimizer's alpha floor the ellipse route's FEM on the "
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
        # every direction ties up to float noise; the report must still be
        # the exact trace minimum
        report = optimize_rank1(DISC, 1.0, "min")
        assert report.value == min(trace_values(report))
        assert report.value == pytest.approx(PI_CUBED_OVER_16, rel=1e-10)
        assert 0.0 <= report.theta < math.pi

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
