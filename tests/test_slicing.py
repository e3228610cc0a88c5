import numpy as np
import pytest

from anisospec import Polygon2D, Rank1Seminorm, ellipse_polygon
from anisospec.geometry import slab_decomposition
from anisospec.seminorms import Spectral
from anisospec.slicing import solve_rank1
from conftest import compose, linear_image, random_convex_polygon, random_star_polygon


def gauss5_torsion(poly, omega):
    """Oracle: 5-point Gauss-Legendre per slab on the cubic integrand."""
    dec = slab_decomposition(poly, omega)
    nodes, weights = np.polynomial.legendre.leggauss(5)
    total = 0.0
    for k in range(len(dec.len_lo)):
        t0, t1 = dec.slab_lo[k], dec.slab_hi[k]
        half = 0.5 * (t1 - t0)
        s = 0.5 * (nodes + 1.0)
        ls = (1.0 - s) * dec.len_lo[k] + s * dec.len_hi[k]
        total += half * np.sum(weights * ls**3) / 12.0
    return total


class TestTriangle:
    def test_leg_direction(self, right_triangle):
        H = Rank1Seminorm([0.0, 1.0])
        assert solve_rank1(right_triangle, H).lambda_ == pytest.approx(np.pi**2, rel=1e-14)
        assert solve_rank1(right_triangle, H).torsion == pytest.approx(1.0 / 48.0, rel=1e-12)

    def test_other_leg(self, right_triangle):
        H = Rank1Seminorm([1.0, 0.0])
        assert solve_rank1(right_triangle, H).torsion == pytest.approx(1.0 / 48.0, rel=1e-12)

    def test_diagonal_direction(self, right_triangle):
        H = Rank1Seminorm(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert solve_rank1(right_triangle, H).torsion == pytest.approx(1.0 / 96.0, rel=1e-12)
        # longest chord parallel to the hypotenuse has length 1/sqrt(2)
        assert solve_rank1(right_triangle, H).lambda_ == pytest.approx(2 * np.pi**2, rel=1e-12)


class TestSquare:
    def test_axis(self, unit_square):
        H = Rank1Seminorm([0.0, 1.0])
        r = solve_rank1(unit_square, H)
        assert r.lambda_ == pytest.approx(np.pi**2, rel=1e-14)
        assert r.torsion == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert r.breakpoints_used == 2

    def test_result_type(self, unit_square):
        r = solve_rank1(unit_square, Rank1Seminorm([0.0, 1.0]))
        assert isinstance(r, Spectral)
        assert (r.lambda_provenance, r.torsion_provenance, r.error_estimate) == ("slicing", "slicing", 0.0)


class TestDiscPolygon:
    def test_eigenvalue_512gon(self):
        poly = ellipse_polygon(1.0, 1.0, 512)
        H = Rank1Seminorm([0.0, 1.0])
        assert solve_rank1(poly, H).lambda_ == pytest.approx(np.pi**2 / 4.0, rel=1e-4)

    def test_torsion_converges_to_quarter_pi(self):
        # rank-1 disc torsion: omega_2/4 = pi/4
        poly = ellipse_polygon(1.0, 1.0, 1024)
        H = Rank1Seminorm([1.0, 0.0])
        assert solve_rank1(poly, H).torsion == pytest.approx(np.pi / 4.0, rel=1e-4)


class TestLShape:
    def test_vertical(self, l_shape):
        H = Rank1Seminorm([0.0, 1.0])
        r = solve_rank1(l_shape, H)
        # chords along y: length 2 on x in (0,1), length 1 on x in (1,2)
        assert r.lambda_ == pytest.approx(np.pi**2 / 4.0, rel=1e-12)
        assert r.torsion == pytest.approx((8.0 + 1.0) / 12.0, rel=1e-12)

    def test_u_shape_vertical(self, u_shape):
        H = Rank1Seminorm([0.0, 1.0])
        r = solve_rank1(u_shape, H)
        # two walls with chords of length 2, the notch floor with length 1
        assert r.lambda_ == pytest.approx(np.pi**2 / 4.0, rel=1e-12)
        assert r.torsion == pytest.approx((8.0 + 8.0 + 1.0) / 12.0, rel=1e-12)


class TestScalingLaw:
    def test_unnormalized_eta(self, rng, l_shape):
        for _ in range(50):
            th = rng.uniform(0, 2 * np.pi)
            t = rng.uniform(0.25, 4.0)
            unit = np.array([np.cos(th), np.sin(th)])
            base = solve_rank1(l_shape, Rank1Seminorm(unit))
            scaled = solve_rank1(l_shape, Rank1Seminorm(t * unit))
            assert scaled.lambda_ == pytest.approx(t**2 * base.lambda_, rel=1e-12)
            assert scaled.torsion == pytest.approx(base.torsion / t**2, rel=1e-12)


class TestAffineInvariance:
    def test_rotations(self, rng):
        for _ in range(40):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            H = Rank1Seminorm([np.cos(th), np.sin(th)])
            phi = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            moved = linear_image(poly, R)
            # x -> H(R^T x) has direction R eta
            H2 = compose(H, R.T).normalized()
            r1 = solve_rank1(poly, H)
            r2 = solve_rank1(moved, H2)
            assert r2.lambda_ == pytest.approx(r1.lambda_, rel=1e-10)
            assert r2.torsion == pytest.approx(r1.torsion, rel=1e-10)

    def test_general_affine_change(self, rng):
        # substituting u(x) = v(Ax) in the Rayleigh quotients gives
        # lambda_H(A Omega) = lambda_{H o A^-T}(Omega) and
        # T_H(A Omega) = |det A| T_{H o A^-T}(Omega)
        for _ in range(40):
            poly = random_convex_polygon(rng)
            A = rng.normal(size=(2, 2))
            det = abs(np.linalg.det(A))
            if det < 0.2:
                continue
            th = rng.uniform(0, 2 * np.pi)
            H = Rank1Seminorm([np.cos(th), np.sin(th)])
            image = linear_image(poly, A)
            pulled = compose(H, np.linalg.inv(A).T)
            r_img = solve_rank1(image, H)
            r_pre = solve_rank1(poly, pulled)
            assert r_pre.lambda_ == pytest.approx(r_img.lambda_, rel=1e-10)
            assert r_pre.torsion == pytest.approx(r_img.torsion / det, rel=1e-10)


class TestGaussCrossCheck:
    def test_exact_integration_matches_quadrature(self, rng):
        for _ in range(60):
            poly = random_star_polygon(rng) if rng.uniform() < 0.5 else random_convex_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            exact = solve_rank1(poly, Rank1Seminorm(w)).torsion
            quad = gauss5_torsion(poly, w)
            assert exact == pytest.approx(quad, rel=1e-12, abs=1e-14)


class TestConvexUpperBound:
    def test_product_bound(self, rng):
        # lambda_H * T_H <= pi^2 |Omega| / 12 on convex polygons
        for _ in range(60):
            poly = random_convex_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            r = solve_rank1(poly, Rank1Seminorm([np.cos(th), np.sin(th)]))
            assert r.lambda_ * r.torsion <= np.pi**2 * poly.area / 12.0 + 1e-10
