"""The mesher's vectorized outline kernels against per-edge loop oracles.

The kernels decide which lattice points and triangles a mesh keeps, so they
must agree with the loops bit for bit, not to a tolerance: one flipped point
changes the mesh."""

import math

import numpy as np
import pytest

from anisospec.fem import meshing, mesh_polygon
from anisospec.fem.meshing import _dist_to_outline, _hex_grid, _points_in_polygon, _sample_boundary
from anisospec.geometry import ellipse_polygon
from conftest import (
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


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_dist_to_outline_matches_loop(rng, l_shape, scale):
    for poly, h in _polygons(rng, l_shape):
        V = poly.vertices
        pts = _probe_points(rng, V, scale * h)
        assert np.array_equal(_dist_to_outline(pts, V), loop_dist_to_outline(pts, V))


def test_kernels_span_several_blocks(rng):
    # a triangle takes 21,845 points per block: these points fill two blocks
    # and part of a third
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rng.uniform(-0.2, 1.2, (50000, 2))
    assert np.array_equal(_points_in_polygon(pts, V), loop_points_in_polygon(pts, V))
    assert np.array_equal(_dist_to_outline(pts, V), loop_dist_to_outline(pts, V))


def test_kernels_take_no_points(l_shape):
    V = l_shape.vertices
    assert _points_in_polygon(np.empty((0, 2)), V).shape == (0,)
    assert _dist_to_outline(np.empty((0, 2)), V).shape == (0,)


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
    monkeypatch.setattr(meshing, "_dist_to_outline", loop_dist_to_outline)
    monkeypatch.setattr(meshing, "_points_in_polygon", loop_points_in_polygon)
    for got, want in zip(fast, meshes()):
        assert np.array_equal(got, want)
