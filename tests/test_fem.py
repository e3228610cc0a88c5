import hashlib

import numpy as np
import pytest
import scipy.linalg

from anisospec import Polygon2D, QuadraticSeminorm, ellipse_polygon
from anisospec.errors import DegenerateSeminormError, InvalidSeminormError, MeshError, SolverError
from anisospec.fem import (
    SolverConfig,
    TriMesh,
    lambda_euclid_fem,
    mesh_polygon,
    solve_quadratic,
)
from anisospec.fem.meshing import _ear_clip, _grid_delaunay, _Refiner
from anisospec.functional import _family_seminorm, eval_F
from anisospec.fem import solver
from anisospec.fem.solver import _Assembly, _solve, p1_assemble
from conftest import loop_dist_to_outline, mesh_areas, random_star_polygon

J01_SQUARED = 5.783185962946785
TORSION_SQUARE = 0.03514425373904369
LAMBDA_SQUARE = 2.0 * np.pi**2
# at target_h = 0.5 this 5-gon fails the grid-Delaunay fast path and is meshed
# by the ear-clip fallback
FALLBACK_PENTAGON = Polygon2D([[0.6, 0.3], [0.1, 0.9], [-0.1, 0.2], [-0.8, 0.3], [-0.6, 0.1]])


def _check_conforming(mesh):
    T = mesh.triangles
    edges = np.sort(np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert counts.max() <= 2


class TestMeshing:
    def test_square_area_exact(self, unit_square):
        mesh = mesh_polygon(unit_square, 0.6)
        assert mesh_areas(mesh).sum() == pytest.approx(1.0, abs=1e-12)

    def test_triangle_area_exact(self, right_triangle):
        mesh = mesh_polygon(right_triangle, 0.3)
        assert mesh_areas(mesh).sum() == pytest.approx(0.5, abs=1e-12)

    def test_ear_clip_fallback_polygon(self):
        assert _grid_delaunay(FALLBACK_PENTAGON, 0.5) is None
        mesh = mesh_polygon(FALLBACK_PENTAGON, 0.5)
        assert mesh_areas(mesh).sum() == pytest.approx(FALLBACK_PENTAGON.area, abs=1e-12)

    def test_disc_polygon_area_near_pi(self):
        # inscribed 64-gon; the polygon itself carries the discretization gap
        disc = ellipse_polygon(1.0, 1.0, 64)
        mesh = mesh_polygon(disc, 0.1)
        assert mesh_areas(mesh).sum() == pytest.approx(disc.area, rel=1e-12)
        assert abs(disc.area - np.pi) / np.pi < 2e-3

    def test_h_contract(self, l_shape):
        for poly, target in ((l_shape, 0.5), (l_shape, 0.2), (l_shape, 0.1), (FALLBACK_PENTAGON, 0.5)):
            mesh = mesh_polygon(poly, target)
            assert mesh.h <= target + 1e-12

    def test_all_triangles_ccw(self, u_shape):
        for poly, target in ((u_shape, 0.2), (FALLBACK_PENTAGON, 0.5)):
            mesh = mesh_polygon(poly, target)
            assert np.all(mesh_areas(mesh) > 0.0)

    def test_conforming(self, l_shape):
        for poly, target in ((l_shape, 0.15), (FALLBACK_PENTAGON, 0.5)):
            _check_conforming(mesh_polygon(poly, target))

    def test_boundary_flags_sit_on_outline(self, l_shape):
        for poly, target in ((l_shape, 0.2), (FALLBACK_PENTAGON, 0.5)):
            mesh = mesh_polygon(poly, target)
            d = loop_dist_to_outline(mesh.nodes, poly.vertices)
            on = d <= 1e-9
            flagged = np.zeros(mesh.n_nodes, dtype=bool)
            flagged[mesh.boundary_nodes] = True
            assert np.array_equal(on, flagged)
            assert 0 < len(mesh.boundary_nodes) < mesh.n_nodes

    def test_star_polygon_meshes(self, rng):
        for _ in range(5):
            poly = random_star_polygon(rng, n=12)
            mesh = mesh_polygon(poly, 0.2)
            assert np.all(mesh_areas(mesh) > 0.0)
            assert mesh_areas(mesh).sum() == pytest.approx(poly.area, rel=1e-9)
            _check_conforming(mesh)

    def test_bad_target_h(self, unit_square):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(MeshError):
                mesh_polygon(unit_square, bad)

    def test_not_a_polygon(self):
        with pytest.raises(MeshError):
            mesh_polygon("square", 0.1)

    def test_ear_clip_rejects_clockwise_outline(self):
        # a clockwise outline has no convex corner, so no ear
        V = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(MeshError):
            _ear_clip(V)

    def test_refiner_budget(self, unit_square):
        V = unit_square.vertices
        refiner = _Refiner(V, _ear_clip(V), 0.5)
        # 64 splits per triangle plus 64 per target-sized area, and a floor
        assert refiner.budget == 64 * (2 + 16) + int(64.0 * 1.0 / 0.25) + 100000
        refiner.budget = 3
        with pytest.raises(MeshError, match="bisection budget exceeded"):
            refiner.run()

    # SHA-256 of the refiner's nodes and triangles on ear-clipped outlines:
    # the longest-edge bisection must reproduce these meshes bit for bit
    REFINER_PINS = {
        ("L", 0.5): "c7e51d0dfc98d255cb3d97b5437875fd0abcbd7cf7052e5caa5ecc25afc7859e",
        ("L", 0.15): "c6edf4cf37b1d5b06c560a5871322386dcf83e98a674227ecbf833912c93a213",
        ("pentagon", 0.5): "a3448e43b964dafdae1b9825f7a2d323ff41b704a29953b4ddedd1b2ad075e20",
        ("pentagon", 0.15): "5edf664a606e21c878ac1236a230021cda20bbd20a034a7e529770caaa2d3ef1",
        ("12-gon", 0.5): "1c902d9cf8d81f7082e9a7142b926c4ca7cb37f297aa1917371f47bcea5aa81b",
        ("12-gon", 0.15): "133ccbb40edb218835c88c8d744f3e439145bde5621036b39d7b44edc5d94144",
    }

    @pytest.mark.parametrize("name, h", sorted(REFINER_PINS))
    def test_refiner_output_pinned(self, l_shape, name, h):
        poly = {"L": l_shape, "pentagon": FALLBACK_PENTAGON, "12-gon": ellipse_polygon(1.0, 1.0, 12)}[name]
        V = poly.vertices
        nodes, triangles = _Refiner(V, _ear_clip(V), h).run()
        assert nodes.dtype == np.float64 and triangles.dtype == np.int64
        digest = hashlib.sha256(nodes.tobytes() + triangles.tobytes()).hexdigest()
        assert digest == self.REFINER_PINS[name, h]


class TestRefined:
    def test_four_children_and_nesting(self, hexagon):
        mesh = mesh_polygon(hexagon, 0.4)
        fine = mesh.refined()
        assert len(fine.triangles) == 4 * len(mesh.triangles)
        # parent nodes are a prefix of the child node table
        assert np.allclose(fine.nodes[: mesh.n_nodes], mesh.nodes)
        assert mesh_areas(fine).sum() == pytest.approx(mesh_areas(mesh).sum(), rel=1e-12)
        assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-12)
        _check_conforming(fine)

    def test_boundary_grows_consistently(self, unit_square):
        mesh = mesh_polygon(unit_square, 0.5)
        fine = mesh.refined()
        d = loop_dist_to_outline(fine.nodes[fine.boundary_nodes], unit_square.vertices)
        assert d.max() <= 1e-12


class TestTransformed:
    def test_volume_scaling(self, hexagon):
        mesh = mesh_polygon(hexagon, 0.3)
        B = np.array([[2.0, 0.3], [0.0, 0.7]])
        image = mesh.transformed(B)
        assert mesh_areas(image).sum() == pytest.approx(abs(np.linalg.det(B)) * mesh_areas(mesh).sum(), rel=1e-12)
        assert np.all(mesh_areas(image) > 0.0)

    def test_reflection_reorients(self, unit_square):
        mesh = mesh_polygon(unit_square, 0.4)
        image = mesh.transformed(np.diag([1.0, -1.0]))
        assert np.all(mesh_areas(image) > 0.0)
        assert image.h == pytest.approx(mesh.h, rel=1e-12)

    def test_singular_map_rejected(self, unit_square):
        mesh = mesh_polygon(unit_square, 0.4)
        with pytest.raises(Exception, match="non-invertible"):
            mesh.transformed(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestFromArrays:
    def test_shape_validation(self):
        with pytest.raises(MeshError):
            TriMesh.from_arrays(np.zeros((4, 3)), [[0, 1, 2]])
        with pytest.raises(MeshError):
            TriMesh.from_arrays(np.zeros((4, 2)), np.empty((0, 3), dtype=int))

    def test_nonconforming_rejected(self):
        nodes = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
        tris = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
        with pytest.raises(MeshError, match="more than two"):
            TriMesh.from_arrays(nodes, tris)


class TestAssembly:
    def test_invariants(self, l_shape):
        mesh = mesh_polygon(l_shape, 0.2)
        K, M, f = p1_assemble(mesh)
        ones = np.ones(mesh.n_nodes)
        # constants lie in the stiffness kernel; mass and load integrate 1
        assert np.abs(K @ ones).max() < 1e-10
        assert ones @ (M @ ones) == pytest.approx(l_shape.area, rel=1e-12)
        assert f.sum() == pytest.approx(l_shape.area, rel=1e-12)
        assert np.abs((K - K.T).data).max() < 1e-12 if (K - K.T).nnz else True

    def test_linear_energy(self, unit_square):
        # grad(x) = e1 so the Dirichlet energy of u(x,y)=x is the area
        mesh = mesh_polygon(unit_square, 0.3)
        K, _, _ = p1_assemble(mesh)
        u = mesh.nodes[:, 0]
        assert u @ (K @ u) == pytest.approx(1.0, rel=1e-12)


class TestEuclidSolver:
    def test_square_lambda_coarse(self, unit_square):
        r = lambda_euclid_fem(unit_square, SolverConfig(target_h=0.15))
        assert r.lambda_ == pytest.approx(LAMBDA_SQUARE, rel=0.05)
        # conforming elements approach the eigenvalue from above
        assert r.lambda_ >= LAMBDA_SQUARE * (1.0 - 1e-10)
        assert r.lambda_provenance == "fem"
        assert r.error_estimate == 0.0

    def test_square_torsion_coarse(self, unit_square):
        r = lambda_euclid_fem(unit_square, SolverConfig(target_h=0.15))
        assert r.torsion == pytest.approx(TORSION_SQUARE, rel=0.05)
        # and the torsion from below
        assert r.torsion <= TORSION_SQUARE * (1.0 + 1e-10)

    def test_square_richardson(self, unit_square):
        cfg = SolverConfig(target_h=0.1, richardson=True)
        r = lambda_euclid_fem(unit_square, cfg)
        assert r.lambda_ == pytest.approx(LAMBDA_SQUARE, rel=1e-3)
        assert r.torsion == pytest.approx(TORSION_SQUARE, rel=1e-3)
        assert r.lambda_provenance == "fem_richardson"
        assert r.error_estimate > 0.0
        assert r.h_used == pytest.approx(mesh_polygon(unit_square, 0.1).h / 2.0)

    def test_disc_polygon_richardson(self):
        cfg = SolverConfig(target_h=0.12, richardson=True)
        disc = ellipse_polygon(1.0, 1.0, 64)
        r = lambda_euclid_fem(disc, cfg)
        assert r.lambda_ == pytest.approx(J01_SQUARED, rel=0.01)
        assert r.torsion == pytest.approx(np.pi / 8.0, rel=0.01)

    def test_nested_refinement_is_monotone(self, l_shape):
        mesh = mesh_polygon(l_shape, 0.3)
        lam, tor = _solve(_Assembly.of(mesh), np.eye(2))
        lam_fine, tor_fine = _solve(_Assembly.of(mesh.refined()), np.eye(2))
        assert lam_fine <= lam * (1.0 + 1e-8)
        assert tor_fine >= tor * (1.0 - 1e-8)

    def test_domain_monotonicity(self, unit_square):
        # doubling the square scales lambda by 1/4 and torsion by 16
        big = Polygon2D(2.0 * unit_square.vertices)
        cfg = SolverConfig(target_h=0.15)
        cfg_big = SolverConfig(target_h=0.3)
        r = lambda_euclid_fem(unit_square, cfg)
        r_big = lambda_euclid_fem(big, cfg_big)
        assert r_big.lambda_ == pytest.approx(r.lambda_ / 4.0, rel=1e-10)
        assert r_big.torsion == pytest.approx(16.0 * r.torsion, rel=1e-10)

    def test_no_interior_nodes(self, unit_square):
        with pytest.raises(SolverError, match="interior"):
            lambda_euclid_fem(unit_square, SolverConfig(target_h=2.0))

    def test_eigensolver_iteration_cap(self, unit_square, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 2)
        with pytest.raises(SolverError, match="did not converge"):
            lambda_euclid_fem(unit_square, SolverConfig(target_h=0.1))

    @pytest.mark.parametrize("width, h, n_free", [(1.0, 0.8, 1), (1.5, 0.75, 2), (2.0, 0.9, 3)])
    def test_few_interior_nodes(self, width, h, n_free):
        # the smallest systems; at n = 1 one Lanczos step is already the eigenpair
        rect = Polygon2D([(0.0, 0.0), (width, 0.0), (width, 1.0), (0.0, 1.0)])
        mesh = mesh_polygon(rect, h)
        free = mesh.interior_nodes()
        assert len(free) == n_free
        K, M, f = p1_assemble(mesh)
        Kff, Mff = K[free][:, free].toarray(), M[free][:, free].toarray()
        cfg = SolverConfig(target_h=h)
        r = lambda_euclid_fem(rect, cfg)
        lam, tor = r.lambda_, r.torsion
        assert lam == pytest.approx(scipy.linalg.eigh(Kff, Mff, eigvals_only=True)[0], rel=1e-10)
        assert tor == pytest.approx(f[free] @ np.linalg.solve(Kff, f[free]), rel=1e-12)


class TestSolverConfig:
    def test_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                SolverConfig(target_h=bad)


class TestSolveQuadratic:
    def test_euclidean_matches_euclid_solver(self, unit_square):
        # B is the identity, so the exact same linear systems are solved
        cfg = SolverConfig(target_h=0.2)
        r = solve_quadratic(unit_square, QuadraticSeminorm(None, [1.0, 1.0]), cfg)
        euclid = lambda_euclid_fem(unit_square, cfg)
        assert r.lambda_ == euclid.lambda_
        assert r.torsion == euclid.torsion
        assert (r.lambda_provenance, r.torsion_provenance) == ("fem", "fem")

    def test_anisotropic_disc(self):
        # alphas (0.5, 1): B Omega is the ellipse with semi-axes (2, 1) and
        # T_H = T(B Omega) / 2 -> pi/5 on the true disc
        cfg = SolverConfig(target_h=0.08, richardson=True)
        r = solve_quadratic(ellipse_polygon(1.0, 1.0, 128), QuadraticSeminorm(None, [1.0, 0.5]), cfg)
        assert r.torsion == pytest.approx(np.pi / 5.0, rel=5e-3)

    def test_alpha_monotonicity(self):
        # pointwise H_a <= H_b on the same base mesh orders both quantities
        disc = ellipse_polygon(1.0, 1.0, 64)
        cfg = SolverConfig(target_h=0.15)
        ra = solve_quadratic(disc, QuadraticSeminorm(None, [1.0, 0.6]), cfg)
        rb = solve_quadratic(disc, QuadraticSeminorm(None, [1.0, 1.0]), cfg)
        assert ra.lambda_ <= rb.lambda_ * (1.0 + 1e-8)
        assert ra.torsion >= rb.torsion * (1.0 - 1e-8)

    def test_rotation_consistency(self):
        # the disc polygon is nearly rotation invariant, so rotating the
        # seminorm must leave both quantities almost unchanged
        disc = ellipse_polygon(1.0, 1.0, 64)
        cfg = SolverConfig(target_h=0.15)
        phi = np.pi / 6.0
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        r1 = solve_quadratic(disc, QuadraticSeminorm(None, [1.0, 0.5]), cfg)
        r2 = solve_quadratic(disc, QuadraticSeminorm(R, [1.0, 0.5]), cfg)
        assert r2.lambda_ == pytest.approx(r1.lambda_, rel=1e-2)
        assert r2.torsion == pytest.approx(r1.torsion, rel=1e-2)

    def test_degenerate_routes_to_slicing(self, unit_square):
        # the FEM layer takes nondegenerate H only; eval_F routes the rank-1
        # reduction of a degenerate one to exact slicing
        H = QuadraticSeminorm(None, [1.0, 0.0])
        with pytest.raises(InvalidSeminormError, match="nondegenerate"):
            solve_quadratic(unit_square, H)
        r = eval_F(unit_square, H, 1.0)
        assert (r.lambda_provenance, r.torsion_provenance) == ("slicing", "slicing")
        assert r.lambda_ == pytest.approx(np.pi**2, rel=1e-12)
        assert r.torsion == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert r.error_estimate == 0.0

    def test_zero_seminorm_rejected(self, unit_square):
        with pytest.raises(DegenerateSeminormError):
            solve_quadratic(unit_square, QuadraticSeminorm(None, [0.0, 0.0]))

    def test_scaling_law(self, hexagon):
        # lambda scales by t^2 and torsion by t^-2 under H -> tH
        cfg = SolverConfig(target_h=0.25)
        base = solve_quadratic(hexagon, QuadraticSeminorm(None, [1.0, 0.7]), cfg)
        scaled = solve_quadratic(hexagon, QuadraticSeminorm(None, [3.0, 2.1]), cfg)
        assert scaled.lambda_ == pytest.approx(9.0 * base.lambda_, rel=1e-9)
        assert scaled.torsion == pytest.approx(base.torsion / 9.0, rel=1e-9)


class TestAnisotropicSolve:
    def test_matches_dense_solvers(self, hexagon):
        # a stretched, rotated seminorm: lambda1/lambda2 is close to 1 here,
        # where a stopping rule on iterate changes used to stop early
        H = _family_seminorm(1.1, 0.05)
        cfg = SolverConfig(target_h=0.3)
        a = _Assembly.of(mesh_polygon(hexagon, 0.3))
        K, M = a.stiffness(H.gram()).toarray(), a.M.toarray()
        r = solve_quadratic(hexagon, H, cfg)
        assert r.lambda_ == pytest.approx(scipy.linalg.eigh(K, M, eigvals_only=True)[0], rel=1e-10)
        assert r.torsion == pytest.approx(a.f @ np.linalg.solve(K, a.f), rel=1e-10)

    def test_affine_identity(self, hexagon):
        # P1 on the mapped mesh B Omega is the anisotropic form on Omega:
        # K(B Omega) = K_Q |det B| = K_Q / prod(alpha) on the same nodes
        H = _family_seminorm(1.1, 0.05)
        mesh = mesh_polygon(hexagon, 0.3)
        free = mesh.interior_nodes()
        B = np.diag(1.0 / H.alphas) @ H.rotation.T
        K_mapped = p1_assemble(mesh.transformed(B))[0][free][:, free].toarray()
        K_Q = _Assembly.of(mesh).stiffness(H.gram()).toarray() / np.prod(H.alphas)
        assert np.abs(K_mapped - K_Q).max() <= 1e-12 * np.abs(K_Q).max()

    def test_factorization_failure_is_solver_error(self, unit_square, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "splu", singular)
        with pytest.raises(SolverError, match="factorization"):
            lambda_euclid_fem(unit_square, SolverConfig(target_h=0.3))

    def test_lanczos_failure_is_solver_error(self, unit_square, monkeypatch):
        # the torsion solve succeeds; every Lanczos solve returns NaN
        splu = solver.splu

        class Poisoned:
            def __init__(self, *args, **kwargs):
                self.lu, self.calls = splu(*args, **kwargs), 0

            def solve(self, b):
                self.calls += 1
                return self.lu.solve(b) if self.calls == 1 else np.full_like(b, np.nan)

        monkeypatch.setattr(solver, "splu", Poisoned)
        with pytest.raises(SolverError, match="Lanczos"):
            lambda_euclid_fem(unit_square, SolverConfig(target_h=0.3))

    def test_residual_miss_is_solver_error(self, unit_square, monkeypatch):
        lowest = solver._lowest

        def off(*args):
            lam, y, My = lowest(*args)
            return lam * (1.0 + 1e-6), y, My

        monkeypatch.setattr(solver, "_lowest", off)
        with pytest.raises(SolverError, match="residual"):
            lambda_euclid_fem(unit_square, SolverConfig(target_h=0.3))

    def test_matches_dense_eigh_over_the_family(self):
        # a quad-polygon-size mesh (area 0.5, h = 0.12) over a 36 x 20 grid
        # of (theta, alpha), against scipy's dense generalized eigh
        star = random_star_polygon(np.random.default_rng(11), 7)
        a = _Assembly.of(mesh_polygon(Polygon2D(star.vertices * np.sqrt(0.5 / star.area)), 0.12))
        assert 50 <= len(a.f) <= 80
        M = a.M.toarray()
        worst = 0.0
        for theta in np.linspace(0.0, np.pi, 36, endpoint=False):
            for alpha in np.geomspace(0.005, 1.0, 20):
                Q = _family_seminorm(theta, alpha).gram()
                dense = scipy.linalg.eigh(a.stiffness(Q).toarray(), M, eigvals_only=True)[0]
                worst = max(worst, abs(_solve(a, Q)[0] / dense - 1.0))
        assert worst <= 1e-10

    def test_matches_dense_eigh_on_a_thin_l_shape(self, l_shape):
        a = _Assembly.of(mesh_polygon(l_shape, 0.05))
        Q = _family_seminorm(0.0, 1e-4).gram()
        dense = scipy.linalg.eigh(a.stiffness(Q).toarray(), a.M.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert _solve(a, Q)[0] == pytest.approx(dense, rel=1e-10)
