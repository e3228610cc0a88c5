import json
import math

import numpy as np
import pytest

from anisospec import (
    BoxD,
    Direction,
    EllipsoidD,
    InvalidDomainError,
    Polygon2D,
    Rank1Seminorm,
    UnsupportedError,
    domain_from_json,
    domain_to_json,
    ellipse_polygon,
    is_centrally_symmetric,
    measure,
    rotation_to_vertical,
    slab_decomposition,
    solve_rank1,
    unit_ball_volume,
)
from anisospec.functional import _rank1_angles
from anisospec.geometry import GEOM_TOL
from anisospec.slicing import _reduce
from conftest import (
    dense_slab_decomposition,
    linear_image,
    loop_assert_simple,
    point_in_polygon,
    random_convex_polygon,
    random_star_polygon,
    slice_polygon,
)


def chord_lengths(dec, t: float) -> list:
    """Sorted lengths of the connected chords at offset t, interpolated inside
    the slabs that hold t."""
    k = (dec.slab_lo < t) & (t < dec.slab_hi)
    s = (t - dec.slab_lo[k]) / (dec.slab_hi[k] - dec.slab_lo[k])
    return sorted(((1.0 - s) * dec.len_lo[k] + s * dec.len_hi[k]).tolist())


def rank1_lambda(poly, w) -> float:
    """lambda_H for H = |<x, w>|: pi^2 / width^2, width the longest connected
    chord parallel to w."""
    return solve_rank1(poly, Rank1Seminorm(w)).lambda_


class TestDirection:
    def test_unit_required(self):
        Direction([1.0, 0.0])
        with pytest.raises(InvalidDomainError):
            Direction([1.0, 1.0])

    def test_immutable(self):
        d = Direction([0.0, 1.0])
        with pytest.raises(ValueError):
            d.vector[0] = 5.0


class TestUnitBallVolume:
    def test_known_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(np.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-14)
        assert unit_ball_volume(4) == pytest.approx(np.pi**2 / 2.0, abs=1e-14)

    def test_recurrence(self):
        # omega_d = omega_{d-2} * 2 pi / d
        for d in range(3, 12):
            assert unit_ball_volume(d) == pytest.approx(
                unit_ball_volume(d - 2) * 2.0 * np.pi / d, rel=1e-14
            )

    def test_bad_dimension(self):
        with pytest.raises(InvalidDomainError):
            unit_ball_volume(0)


class TestPolygonValidation:
    def test_area_and_orientation(self, unit_square):
        assert unit_square.area == pytest.approx(1.0)
        assert unit_square.is_convex

    def test_clockwise_rejected(self):
        with pytest.raises(InvalidDomainError):
            Polygon2D([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidDomainError):
            Polygon2D([(0, 0), (1, 0), (2, 0)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InvalidDomainError):
            Polygon2D([(0, 0), (1, 0), (1, 0), (1, 1)])

    def test_self_intersection_rejected(self):
        # bowtie
        with pytest.raises(InvalidDomainError):
            Polygon2D([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_edge_touch_rejected(self):
        # vertex of one lobe lands on an edge of the other
        with pytest.raises(InvalidDomainError):
            Polygon2D([(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)])

    def test_nonconvex_flag(self, l_shape):
        assert not l_shape.is_convex
        assert l_shape.area == pytest.approx(3.0)

    def test_random_star_polygons_accepted(self, rng):
        for _ in range(50):
            p = random_star_polygon(rng)
            assert p.area > 0

    def test_vertices_immutable(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.vertices[0, 0] = 9.0


def _star(rng, n, r_min, r_max):
    ang = (np.arange(n) + rng.uniform(0.1, 0.9, size=n)) * 2.0 * np.pi / n
    rad = rng.uniform(r_min, r_max, size=n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _ccw(V):
    x, y = V[:, 0], V[:, 1]
    return V if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) >= 0 else V[::-1].copy()


def simplicity_corpus(rng, rounds):
    """Counter-clockwise vertex arrays, simple or not, at coordinate scales
    1e-3 to 1e6: five per round, and a star every other round."""
    for r in range(rounds):
        s = 10.0 ** rng.integers(-3, 7)
        # stars are accepted, so the loop oracle tests every edge pair: the
        # dearest case. Convex ones (every vertex on the unit circle) and
        # non-convex ones in turn.
        if r % 2 == 0:
            r_min, r_max = (1.0, 1.0) if r % 4 else (0.3, 1.5)
            yield _ccw(s * _star(rng, int(rng.integers(4, 41)), r_min, r_max))
        yield _ccw(s * rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 13)), 2)))
        # a vertex moved onto a non-adjacent edge, then pushed off it by about eps
        m = int(rng.integers(5, 17))
        V = s * _star(rng, m, 0.3, 1.5)
        i = int(rng.integers(m))
        k = (i + int(rng.integers(2, m))) % m
        E = V[(i + 1) % m] - V[i]
        V[k] = V[i] + rng.uniform(0.05, 0.95) * E
        yield _ccw(V.copy())
        push = rng.choice([1e-13, 1e-12, 3e-12, 1e-11]) * rng.choice([-1.0, 1.0]) * max(1.0, float(np.abs(V).max()))
        V[k] += push * np.array([-E[1], E[0]]) / np.linalg.norm(E)
        yield _ccw(V)
        # bowtie: two vertices of a convex polygon swapped
        V = s * _star(rng, int(rng.integers(4, 17)), 1.0, 1.0)
        a, b = rng.choice(len(V), size=2, replace=False)
        V[[a, b]] = V[[b, a]]
        yield _ccw(V)
        # lattice points: exact collinear overlaps and touches
        yield _ccw(s * rng.integers(0, 4, size=(int(rng.integers(4, 9)), 2)).astype(float))


def _rejection(build, V):
    try:
        build(V)
    except InvalidDomainError as exc:
        return str(exc)
    return None


def _oracle(V):
    scale = max(1.0, float(np.abs(V).max()))
    loop_assert_simple(V, GEOM_TOL * scale * scale)


class TestSimplicityOracle:
    MSG = "polygon edges intersect: not a simple polygon"

    def test_corpus_decisions_match_loop_oracle(self):
        decided = rejected = 0
        for V in simplicity_corpus(np.random.default_rng(17), 2000):
            got = _rejection(Polygon2D, V)
            if got not in (None, self.MSG):
                continue  # repeated vertices or zero area: rejected before the simplicity test
            assert got == _rejection(_oracle, V), V.tolist()
            decided += 1
            rejected += got is not None
        assert decided >= 10_000
        assert min(rejected, decided - rejected) >= 1_000

    def test_generated_polygons_are_simple(self, rng):
        # both generators build a Polygon2D, so each of these went through the check
        for r in range(1, 81):
            _oracle(ellipse_polygon(float(r), 1.0, 256).vertices)
        for _ in range(20):
            lo = rng.uniform(-1e3, 1e3, size=2)
            _oracle(BoxD(np.column_stack([lo, lo + rng.uniform(1e-3, 1e3, size=2)])).to_polygon().vertices)


class TestGenerators:
    def test_regular_polygon_area(self):
        # inscribed n-gon area: n/2 sin(2 pi / n)
        for n in (3, 4, 6, 17, 256):
            p = ellipse_polygon(1.0, 1.0, n)
            assert p.area == pytest.approx(0.5 * n * np.sin(2 * np.pi / n), rel=1e-12)
            assert p.is_convex

    @pytest.mark.parametrize("n", [3.5, 4.0, "8"])
    def test_ellipse_polygon_rejects_non_integer_n(self, n):
        with pytest.raises(InvalidDomainError, match="integer"):
            ellipse_polygon(1, 1, n)

    def test_ellipse_polygon_area_converges(self):
        p = ellipse_polygon(2.0, 1.0, n=256)
        assert p.area == pytest.approx(2.0 * np.pi, rel=1e-3)
        assert p.is_convex


class TestBox:
    def test_widths_and_measure(self):
        b = BoxD([[0, 1], [0, 2], [-1, 3]])
        assert b.widths == pytest.approx([1, 2, 4])
        assert measure(b) == pytest.approx(8.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidDomainError):
            BoxD([[0, 1], [2, 2]])

    def test_to_polygon(self):
        p = BoxD([[0, 2], [1, 3]]).to_polygon()
        assert p.area == pytest.approx(4.0)
        with pytest.raises(UnsupportedError):
            BoxD([[0, 1], [0, 1], [0, 1]]).to_polygon()


class TestEllipsoid:
    def test_measure(self):
        e = EllipsoidD([2.0, 1.0])
        assert measure(e) == pytest.approx(2.0 * np.pi, rel=1e-14)
        e3 = EllipsoidD([1.0, 2.0, 3.0])
        assert measure(e3) == pytest.approx(8.0 * np.pi, rel=1e-14)

    def test_rotation_must_be_orthogonal(self):
        with pytest.raises(InvalidDomainError):
            EllipsoidD([1.0, 2.0], [[1.0, 0.1], [0.0, 1.0]])


class TestMeasurePolygon:
    def test_random_convex_measure_matches_hull_area(self, rng):
        from scipy.spatial import ConvexHull

        for _ in range(20):
            pts = rng.normal(size=(15, 2))
            hull = ConvexHull(pts)
            p = Polygon2D(pts[hull.vertices])
            assert measure(p) == pytest.approx(hull.volume, rel=1e-12)


class TestRotation:
    def test_maps_omega_to_e2(self, rng):
        for _ in range(100):
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            R = rotation_to_vertical(w)
            assert R @ w == pytest.approx([0.0, 1.0], abs=1e-14)
            assert R.T @ R == pytest.approx(np.eye(2), abs=1e-14)
            assert np.linalg.det(R) == pytest.approx(1.0)


class TestSlice:
    def test_square_interior_slice(self, unit_square):
        # offsets live on the clockwise perpendicular (w2, -w1); for omega = e1
        # the offset of the line y = 0.3 is -0.3
        dec = slab_decomposition(unit_square, (1.0, 0.0))
        assert chord_lengths(dec, -0.3) == [1.0]

    def test_square_vertical_direction(self, unit_square):
        lengths = chord_lengths(slab_decomposition(unit_square, (0.0, 1.0)), 0.25)
        assert len(lengths) == 1
        assert sum(lengths) == pytest.approx(1.0)

    def test_outside_slice_empty(self, unit_square):
        dec = slab_decomposition(unit_square, (0.0, 1.0))
        assert chord_lengths(dec, 2.0) == []
        assert chord_lengths(dec, -1.0) == []

    def test_l_shape_hand_values(self, l_shape):
        # slicing vertically: offset is the x coordinate
        dec = slab_decomposition(l_shape, (0.0, 1.0))
        assert chord_lengths(dec, 1.5) == [1.0]
        assert chord_lengths(dec, 0.5) == [2.0]

    def test_u_shape_two_components(self, u_shape):
        # horizontal slices above the notch floor split into two intervals;
        # for omega = e1 the line y = c sits at offset -c
        dec = slab_decomposition(u_shape, (1.0, 0.0))
        assert chord_lengths(dec, -1.5) == [1.0, 1.0]
        assert chord_lengths(dec, -0.5) == [3.0]

    def test_slice_through_vertex(self, l_shape):
        # the line x = 1 bounds two slabs: its chord is 2 seen from the left, 1 from the right
        dec = slab_decomposition(l_shape, (0.0, 1.0))
        assert dec.len_hi[dec.slab_hi == 1.0].tolist() == pytest.approx([2.0])
        assert dec.len_lo[dec.slab_lo == 1.0].tolist() == pytest.approx([1.0])

    def test_slice_against_point_sampling(self, rng):
        # checks the slice oracle that test_component_lengths_match_slices
        # uses: membership sampling along the slice line
        for _ in range(25):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            t = rng.uniform(-0.8, 0.8)
            intervals = slice_polygon(poly, w, t)
            R = rotation_to_vertical(w)
            ys = np.linspace(-2.0, 2.0, 2001)
            pts = np.column_stack([np.full_like(ys, t), ys]) @ R
            inside = point_in_polygon(poly, pts)
            for y, flag in zip(ys, inside):
                in_interval = any(a + 1e-6 < y < b - 1e-6 for a, b in intervals)
                out_interval = all(not (a - 1e-6 <= y <= b + 1e-6) for a, b in intervals)
                if in_interval:
                    assert flag
                elif out_interval:
                    assert not flag


class TestSlabDecomposition:
    def test_breakpoints_square(self, unit_square):
        bps = slab_decomposition(unit_square, (0.0, 1.0)).breakpoints
        assert bps == pytest.approx([0.0, 1.0])

    def test_breakpoints_are_projections(self, rng):
        for _ in range(30):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            bps = slab_decomposition(poly, w).breakpoints
            R = rotation_to_vertical(w)
            xs = poly.vertices @ R[0]
            for b in bps:
                assert np.min(np.abs(xs - b)) < 1e-9
            assert np.all(np.diff(bps) > 0)

    def test_component_lengths_match_slices(self, rng):
        for _ in range(25):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            dec = slab_decomposition(poly, w)
            for k in range(min(len(dec.len_lo), 8)):
                t = 0.5 * (dec.slab_lo[k] + dec.slab_hi[k])
                ln = 0.5 * (dec.len_lo[k] + dec.len_hi[k])
                assert ln > -1e-12
                lens = sorted(b - a for a, b in slice_polygon(poly, w, t))
                assert any(abs(ln - L) < 1e-9 for L in lens)

    def test_total_area_recovered(self, rng):
        # integrating all component lengths over their slabs gives the area
        for _ in range(40):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            dec = slab_decomposition(poly, w)
            t0, t1 = dec.slab_lo, dec.slab_hi
            area = np.sum(0.5 * (dec.len_lo + dec.len_hi) * (t1 - t0))
            assert area == pytest.approx(poly.area, rel=1e-10)

    def test_u_shape_component_count(self, u_shape):
        dec = slab_decomposition(u_shape, (1.0, 0.0))
        # slabs along y: [0,1] one component, [1,2] two components
        assert len(dec.len_lo) == 3


def _named_angles(poly) -> np.ndarray:
    """Edge directions, edge normals and vertex-pair directions: the angles
    at which two vertex projections fall within GEOM_TOL of each other."""
    V = poly.vertices
    E = np.roll(V, -1, axis=0) - V
    i, j = np.triu_indices(len(V), 1)
    D = V[j] - V[i]
    return np.concatenate([np.arctan2(E[:, 1], E[:, 0]), np.arctan2(E[:, 0], -E[:, 1]), np.arctan2(D[:, 1], D[:, 0])])


def _slab_polygons(rng, l_shape, u_shape, unit_square):
    yield from (unit_square, l_shape, u_shape, ellipse_polygon(1.0, 0.4, 64))
    for n in (3, 5, 9, 24):
        yield random_star_polygon(rng, n)
    for _ in range(3):
        yield random_convex_polygon(rng, 20)


class TestSlabStack:
    def test_one_direction_matches_dense_cover_oracle(self, rng, l_shape, u_shape, unit_square):
        for poly in _slab_polygons(rng, l_shape, u_shape, unit_square):
            for th in np.concatenate([_named_angles(poly), rng.uniform(0, np.pi, 20)]).tolist():
                w = (math.cos(th), math.sin(th))
                dec = slab_decomposition(poly, w)
                fields = (dec.breakpoints, dec.slab_lo, dec.slab_hi, dec.len_lo, dec.len_hi)
                for got, want in zip(fields, dense_slab_decomposition(poly, w)):
                    assert got.tobytes() == want.tobytes()
                assert not dec.row.any()

    def test_stack_rows_are_the_single_records(self, rng, l_shape, u_shape, unit_square):
        for poly in _slab_polygons(rng, l_shape, u_shape, unit_square):
            th = np.concatenate([_named_angles(poly)[:40], rng.uniform(0, np.pi, 10)])
            W = np.column_stack([np.cos(th), np.sin(th)])
            stack = slab_decomposition(poly, W)
            singles = [slab_decomposition(poly, w) for w in W]
            assert stack.breakpoints.tobytes() == np.concatenate([d.breakpoints for d in singles]).tobytes()
            assert np.array_equal(stack.row, np.repeat(np.arange(len(W)), [len(d.len_lo) for d in singles]))
            for f in ("slab_lo", "slab_hi", "len_lo", "len_hi"):
                assert getattr(stack, f).tobytes() == np.concatenate([getattr(d, f) for d in singles]).tobytes()

    def test_breakpoint_chain_wider_than_tol(self):
        # Along (0, 1) the x projections 0, 1.5e-12 and 3e-12 merge into one
        # breakpoint at 0 (each step is within eps = 2e-12) though the run
        # spans more than eps. An edge covers the slabs between its end
        # vertices' breakpoints, so the edge from (1, 0.5) to x = 3e-12 still
        # covers the one slab, and the polygon, within 3e-12 of the triangle,
        # slices as the triangle does.
        poly = Polygon2D([(0, 0), (1, 0.5), (3e-12, 2), (1.5e-12, 1)])
        triangle = Polygon2D([(0, 0), (1, 0.5), (0, 2)])
        W = np.array([(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)])
        stack = _reduce(slab_decomposition(poly, W), [1.0] * len(W))
        for w, (lam, tor) in zip(W, stack):
            want = solve_rank1(triangle, Rank1Seminorm(w))
            got = solve_rank1(poly, Rank1Seminorm(w))
            assert (got.lambda_, got.torsion, lam, tor) == pytest.approx((want.lambda_, want.torsion) * 2, rel=1e-9)

    def test_merge_within_tol_matches_dense_cover_oracle(self):
        # the left edge leans by 4e-13: along the scanned angle nearest pi/2
        # its ends project about eps / 2 apart and merge into one breakpoint
        poly = Polygon2D([(0, 0), (1, 0), (1, 1), (4e-13, 1)])
        th = _rank1_angles(poly)
        W = np.column_stack([np.cos(th), np.sin(th)])
        up = np.abs(th - math.pi / 2).argmin()
        gap = abs(float((poly.vertices[3] - poly.vertices[0]) @ rotation_to_vertical(W[up])[0]))
        assert 0.4 * GEOM_TOL < gap < 0.6 * GEOM_TOL
        stack = slab_decomposition(poly, W)
        dense = [dense_slab_decomposition(poly, w) for w in W]
        assert len(dense[up][0]) == 2
        for w, want_fields in zip(W, dense):
            single = slab_decomposition(poly, w)
            fields = (single.breakpoints, single.slab_lo, single.slab_hi, single.len_lo, single.len_hi)
            for got, want in zip(fields, want_fields):
                assert got.tobytes() == want.tobytes()
        assert stack.breakpoints.tobytes() == np.concatenate([d[0] for d in dense]).tobytes()
        assert np.array_equal(stack.row, np.repeat(np.arange(len(W)), [len(d[3]) for d in dense]))
        for k, f in enumerate(("slab_lo", "slab_hi", "len_lo", "len_hi"), start=1):
            assert getattr(stack, f).tobytes() == np.concatenate([d[k] for d in dense]).tobytes()

    @pytest.mark.parametrize(
        "stack",
        [np.zeros((0, 2)), np.ones((2, 3)) / math.sqrt(3.0), [[1.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [math.nan, 0.0]]],
    )
    def test_bad_stack_rejected(self, unit_square, stack):
        with pytest.raises(InvalidDomainError):
            slab_decomposition(unit_square, stack)


class TestDirectionalWidth:
    # the rank-1 eigenvalue is pi^2 / width^2 for the longest connected chord
    def test_square_axis_and_diagonal(self, unit_square):
        assert rank1_lambda(unit_square, (1.0, 0.0)) == pytest.approx(np.pi**2)
        d = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert rank1_lambda(unit_square, d) == pytest.approx(np.pi**2 / 2.0)

    def test_l_shape(self, l_shape):
        assert rank1_lambda(l_shape, (1.0, 0.0)) == pytest.approx(np.pi**2 / 4.0)
        assert rank1_lambda(l_shape, (0.0, 1.0)) == pytest.approx(np.pi**2 / 4.0)

    def test_u_shape_vertical(self, u_shape):
        # connected chords only: the notch caps vertical chords at the walls
        assert rank1_lambda(u_shape, (0.0, 1.0)) == pytest.approx(np.pi**2 / 4.0)
        assert rank1_lambda(u_shape, (1.0, 0.0)) == pytest.approx(np.pi**2 / 9.0)

    def test_against_chord_sampling(self, rng):
        # oracle: brute-force longest connected chord over offsets
        for _ in range(20):
            poly = random_star_polygon(rng)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            width = np.pi / np.sqrt(rank1_lambda(poly, w))
            best = 0.0
            R = rotation_to_vertical(w)
            xs = poly.vertices @ R[0]
            for t in np.linspace(xs.min() + 1e-9, xs.max() - 1e-9, 400):
                for a, b in slice_polygon(poly, w, t):
                    best = max(best, b - a)
            assert width >= best - 1e-9
            assert width <= best + 0.05 * max(1.0, best)

    def test_rotation_invariance(self, rng):
        for _ in range(20):
            poly = random_convex_polygon(rng)
            phi = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            rotated = linear_image(poly, R)
            th = rng.uniform(0, 2 * np.pi)
            w = np.array([np.cos(th), np.sin(th)])
            assert rank1_lambda(rotated, R @ w) == pytest.approx(rank1_lambda(poly, w), rel=1e-9)


class TestLinearImage:
    # checks the linear-image oracle that the rotation tests use
    def test_polygon_scaling(self, unit_square):
        img = linear_image(unit_square, np.diag([2.0, 3.0]))
        assert img.area == pytest.approx(6.0)

    def test_orientation_restored_on_reflection(self, unit_square):
        img = linear_image(unit_square, np.diag([-1.0, 1.0]))
        assert img.area == pytest.approx(1.0)


class TestCentralSymmetry:
    def test_examples(self, unit_square, l_shape, hexagon):
        assert is_centrally_symmetric(unit_square)
        assert is_centrally_symmetric(hexagon)
        assert not is_centrally_symmetric(l_shape)

    def test_triangle(self, right_triangle):
        assert not is_centrally_symmetric(right_triangle)


class TestJsonRoundTrip:
    def test_polygon(self, l_shape):
        obj = domain_to_json(l_shape)
        back = domain_from_json(json.loads(json.dumps(obj)))
        assert np.allclose(back.vertices, l_shape.vertices)

    def test_box(self):
        b = BoxD([[0, 1], [0, 2]])
        back = domain_from_json(domain_to_json(b))
        assert np.allclose(back.intervals, b.intervals)

    def test_ellipsoid(self):
        th = 0.7
        Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        e = EllipsoidD([2.0, 1.0], Q)
        back = domain_from_json(domain_to_json(e))
        assert np.allclose(back.semi_axes, e.semi_axes)
        assert np.allclose(back.rotation, e.rotation)

    def test_bad_kind(self):
        from anisospec import InputError

        with pytest.raises(InputError):
            domain_from_json({"kind": "torus", "radii": [1, 2]})
