"""The mesher's vectorized outline kernels and longest-edge refiner against
per-edge loop oracles.

The kernels decide which lattice points and triangles a mesh keeps, so they
must agree with the loops bit for bit, not to a tolerance: one flipped point
changes the mesh. _dist_to_outline is exact within its `reach` and may read
inf beyond it, so it is compared with the loop there and through the
decisions its callers take."""

import math
import tracemalloc

import numpy as np
import pytest

from anisospec.fem import meshing, mesh_polygon
from anisospec.fem.meshing import (
    _dist_to_outline,
    _ear_clip,
    _grid_delaunay,
    _hex_grid,
    _points_in_polygon,
    _Refiner,
    _sample_boundary,
)
from anisospec.fem.solver import _ladder_anchor
from anisospec.geometry import ellipse_polygon
from conftest import (
    LoopRefiner,
    dense_dist_to_outline,
    dense_points_in_polygon,
    loop_dist_to_outline,
    loop_points_in_polygon,
    loop_sample_boundary,
    random_star_polygon,
)


def _polygons(rng, l_shape):
    """(polygon, h) pairs: the L-shape, 256-gon ellipses at the ellipse route's
    h = 0.1 * sqrt(ratio), and star polygons of 3 to 300 vertices."""
    yield l_shape, 0.1
    for ratio in (1.0, 3.7, 25.0, 80.0):
        yield ellipse_polygon(ratio, 1.0, 256), 0.1 * math.sqrt(ratio)
    for n in (3, 5, 12, 40, 130, 300):
        yield random_star_polygon(rng, n=n), 0.12


def _probe_points(rng, V, h):
    """Lattice and boundary samples as the mesher makes them, the vertices,
    the edge midpoints, points on the outline, points at exactly the
    vertices' y-levels, and points near the outline."""
    Q = np.roll(V, -1, axis=0)
    t = rng.uniform(0.0, 1.0, (len(V), 1))
    lo, hi = V.min(axis=0), V.max(axis=0)
    return np.vstack(
        [
            _hex_grid(V, 0.95 * h),
            loop_sample_boundary(V, 0.98 * h),
            V,
            0.5 * (V + Q),
            V * (1.0 - t) + Q * t,
            np.column_stack([rng.uniform(lo[0] - 0.5, hi[0] + 0.5, len(V)), V[:, 1]]),
            V + rng.normal(scale=1e-12, size=V.shape),
            rng.uniform(lo - 0.1, hi + 0.1, (500, 2)),
        ]
    )


@pytest.mark.parametrize("scale", [0.5, 1.0, 4.0])
def test_sample_boundary_matches_loop(rng, l_shape, scale):
    for poly, h in _polygons(rng, l_shape):
        V = poly.vertices
        for spacing in (0.98 * scale * h, 0.1 * math.sqrt(40.0), 10.0):
            assert np.array_equal(_sample_boundary(V, spacing), loop_sample_boundary(V, spacing))


def test_sample_boundary_at_whole_multiples(rng, l_shape):
    # spacings that go a whole number of times into an edge's length as
    # np.linalg.norm gives it: the segment count then hinges on that length's
    # last bit, which a dot product with a fused multiply-add can change
    for poly, _ in _polygons(rng, l_shape):
        V = poly.vertices
        for k in rng.choice(len(V), size=min(len(V), 8), replace=False):
            length = np.linalg.norm(V[(k + 1) % len(V)] - V[k])
            spacing = length / max(1.0, np.round(length / 0.013))
            assert np.array_equal(_sample_boundary(V, spacing), loop_sample_boundary(V, spacing))


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_points_in_polygon_matches_loop(rng, l_shape, scale):
    for poly, h in _polygons(rng, l_shape):
        V = poly.vertices
        pts = _probe_points(rng, V, scale * h)
        assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))


def _assert_dist_matches_loop(pts, V, *reaches):
    """Exact within each reach, never below the true distance, and the
    mesher's two decisions (>= protect, <= the on-outline tolerance) as the
    loop's."""
    want = loop_dist_to_outline(pts, V)
    for reach in reaches:
        got = _dist_to_outline(pts, V, reach)
        near = want <= reach
        assert np.array_equal(got[near], want[near])
        assert np.all(got[~near] >= want[~near])
        assert np.array_equal(got >= reach, want >= reach)
        assert np.array_equal(got <= reach, want <= reach)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_dist_to_outline_matches_loop(rng, l_shape, scale):
    for poly, h in _polygons(rng, l_shape):
        V = poly.vertices
        pts = _probe_points(rng, V, scale * h)
        # the protect band and the on-outline tolerance as the mesher takes
        # them, a wider reach, and one every edge makes: exact everywhere
        protect = 0.55 * np.linalg.norm(np.diff(_sample_boundary(V, 0.98 * h), axis=0), axis=1).max()
        _assert_dist_matches_loop(pts, V, protect, 1e-9 * max(1.0, float(np.abs(V).max())), 0.3, np.inf)


def _threshold_points(V, protect):
    """Vertices, edge midpoints, points exactly `protect` from an edge's
    midpoint along its normal (either side) and from a vertex along the axes,
    and points at exactly a vertex's y-level."""
    Q = np.roll(V, -1, axis=0)
    D = Q - V
    normal = np.column_stack([-D[:, 1], D[:, 0]]) / np.linalg.norm(D, axis=1)[:, None]
    mid = 0.5 * (V + Q)
    axes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    levels = np.column_stack([np.linspace(V[:, 0].min() - 0.1, V[:, 0].max() + 0.1, len(V)), V[:, 1]])
    return np.vstack(
        [V, mid, mid + protect * normal, mid - protect * normal, (V[:, None] + protect * axes).reshape(-1, 2), levels]
    )


# horizontal and vertical edges only, then a polygon with none
_AXIS_POLYGONS = {
    "L": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
    "U": [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)],
    "rotated square": [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)],
}


@pytest.mark.parametrize("name", sorted(_AXIS_POLYGONS))
@pytest.mark.parametrize("protect", [0.05, 0.1, 0.5, 0.55 * 0.098])
def test_kernels_at_thresholds(name, protect):
    V = np.array(_AXIS_POLYGONS[name], dtype=float)
    pts = _threshold_points(V, protect)
    assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))
    _assert_dist_matches_loop(pts, V, protect, 1e-9 * max(1.0, float(np.abs(V).max())))


def test_kernels_at_thresholds_on_curved_outlines(rng):
    for poly, h in [(ellipse_polygon(r, 1.0, 256), 0.1 * math.sqrt(r)) for r in (1.0, 25.0)]:
        V = poly.vertices
        protect = 0.55 * 0.98 * h
        pts = _threshold_points(V, protect)
        assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))
        _assert_dist_matches_loop(pts, V, protect)
    for n in (3, 7, 40):
        V = random_star_polygon(rng, n=n).vertices
        pts = _threshold_points(V, 0.066)
        assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))
        _assert_dist_matches_loop(pts, V, 0.066)


def test_kernels_span_several_blocks(rng):
    # about 71k crossing pairs and 150k distance pairs: many chunks of pairs each
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rng.uniform(-0.2, 1.2, (50000, 2))
    assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))
    _assert_dist_matches_loop(pts, V, 0.05, np.inf)


def test_kernels_take_no_points(l_shape):
    V = l_shape.vertices
    assert _points_in_polygon(np.empty((0, 2)), V).shape == (0,)
    for reach in (0.05, np.inf):
        assert _dist_to_outline(np.empty((0, 2)), V, reach).shape == (0,)


def _comb(k: int) -> np.ndarray:
    """A zigzag strip of 4k edges between y = f(x) and y = f(x) + 0.5, where f
    runs between -1 and 1 with slope 4: every edge's y-range holds [-0.5, 1]."""
    outer = np.empty((2 * k + 1, 2))
    outer[0::2] = np.column_stack([np.arange(k + 1.0), np.ones(k + 1)])
    outer[1::2] = np.column_stack([np.arange(k) + 0.5, -np.ones(k)])
    return np.vstack([outer, (outer[1:-1] + [0.0, 0.5])[::-1]])


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_memory_when_every_edge_reaches_every_point(rng):
    # 20,000 points x 64 edges, every pair a candidate: the pruned kernels
    # must hold no more than the dense ones did
    V = _comb(16)
    pts = np.column_stack([rng.uniform(0.0, 16.0, 20000), rng.uniform(-0.4, 0.9, 20000)])
    inside, peak = _peak_bytes(_points_in_polygon, pts, V)
    want, dense_peak = _peak_bytes(dense_points_in_polygon, pts, V)
    assert np.array_equal(inside, want)
    assert np.array_equal(inside, loop_points_in_polygon(pts, V))
    assert peak <= dense_peak
    dist, peak = _peak_bytes(_dist_to_outline, pts, V, 100.0)
    want, dense_peak = _peak_bytes(dense_dist_to_outline, pts, V)
    assert np.array_equal(dist, want)
    assert np.array_equal(dist, loop_dist_to_outline(pts, V))
    assert peak <= dense_peak


def _assert_refines_as_loop(nodes, triangles, h):
    got = _Refiner(nodes, triangles, h).run()
    want = LoopRefiner(nodes, triangles, h).run()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_refiner_matches_loop(rng, l_shape):
    # the fast-path triangulations the ellipse route refines, and star polygons
    cases = [(ellipse_polygon(r, 1.0, 256), 0.1 * math.sqrt(r)) for r in (1.0, 6.5, 30.0, 80.0)]
    cases += [(random_star_polygon(rng, n=n), 0.12) for n in (6, 11, 60)]
    for k, (poly, h) in enumerate(cases):
        fast = _grid_delaunay(poly, h)
        # a star polygon may leave the fast path for ear clipping
        assert fast is not None or k >= 4
        if fast is not None:
            _assert_refines_as_loop(*fast, h)
        V = poly.vertices
        _assert_refines_as_loop(V, _ear_clip(V), h)
    # the anchors of the disc grid's 20 aspect ratios 1 / alpha, and the
    # L-shape at fine h, whose starting triangulations have 2,988 and 19,072
    # triangles
    cases = [(ellipse_polygon(r, 1.0, 256), 0.1 * math.sqrt(r)) for r in map(_ladder_anchor, 1.0 / np.linspace(0.05, 1.0, 20))]
    cases += [(l_shape, 0.05), (l_shape, 0.02)]
    for poly, h in cases:
        fast = _grid_delaunay(poly, h)
        assert fast is not None
        _assert_refines_as_loop(*fast, h)


def test_refiner_breaks_ties_as_loop():
    # isosceles triangles whose two longest edges tie exactly, with every
    # rotation of their corners: the larger (low, high) pair must win; each
    # rotation alone, and all nine, whose edges each lie on up to six
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [3.0, 2.0], [1.0, -2.0]])
    base = np.array([[0, 1, 2], [1, 3, 2], [0, 4, 1]])
    rotations = [np.roll(base, k, axis=1) for k in range(3)]
    for triangles in [*rotations, np.concatenate(rotations)]:
        _assert_refines_as_loop(nodes, triangles, 0.5)


def test_meshes_match_loop_kernels(rng, monkeypatch):
    # 256-gon ellipses as the ellipse route meshes them, and star polygons
    cases = [(ellipse_polygon(r, 1.0, 256), 0.1 * math.sqrt(r)) for r in (1.0, 6.5, 30.0, 80.0)]
    cases += [(random_star_polygon(rng, n=n), 0.12) for n in (6, 11, 60)]

    def meshes():
        out = []
        for P, h in cases:
            mesh = mesh_polygon(P, h)
            for m in (mesh, mesh.refined()):
                out += [m.nodes, m.triangles, m.boundary_nodes, m.h]
        return out

    fast = meshes()
    monkeypatch.setattr(meshing, "_sample_boundary", loop_sample_boundary)
    monkeypatch.setattr(meshing, "_dist_to_outline", lambda points, V, reach: loop_dist_to_outline(points, V))
    monkeypatch.setattr(meshing, "_points_in_polygon", loop_points_in_polygon)
    for got, want in zip(fast, meshes()):
        assert np.array_equal(got, want)
