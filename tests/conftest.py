import numpy as np
import pytest
from scipy.spatial import ConvexHull

from anisospec import Polygon2D, QuadraticSeminorm, Rank1Seminorm, ellipse_polygon
from anisospec.geometry import rotation_to_vertical


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_square():
    return Polygon2D([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture
def right_triangle():
    # legs of length 1 along the axes
    return Polygon2D([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.fixture
def l_shape():
    # unit squares [0,1]^2, [1,2]x[0,1], [0,1]x[1,2]; area 3
    return Polygon2D([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.fixture
def u_shape():
    # 3x2 rectangle minus the open notch (1,2)x(1,2]; area 5
    return Polygon2D([(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.fixture
def hexagon():
    return ellipse_polygon(1.0, 1.0, 6)


def random_convex_polygon(rng, n_points: int = 12, scale: float = 1.0) -> Polygon2D:
    """Convex hull of random points; counter-clockwise by construction."""
    pts = rng.normal(size=(n_points, 2)) * scale
    hull = ConvexHull(pts)
    return Polygon2D(pts[hull.vertices])


def random_star_polygon(rng, n: int = 10, r_min: float = 0.3, r_max: float = 1.5) -> Polygon2D:
    """Star-shaped (generally non-convex) polygon around the origin.

    Stratified angles keep every angular gap strictly below pi, which makes
    the angularly sorted chain simple by construction.
    """
    ang = (np.arange(n) + rng.uniform(0.1, 0.9, size=n)) * 2.0 * np.pi / n
    rad = rng.uniform(r_min, r_max, size=n)
    V = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return Polygon2D(V)


def point_in_polygon(poly: Polygon2D, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over query points."""
    V = poly.vertices
    P = V
    Q = np.roll(V, -1, axis=0)
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    px, py = P[:, 0][None, :], P[:, 1][None, :]
    qx, qy = Q[:, 0][None, :], Q[:, 1][None, :]
    cond = (py <= y) != (qy <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = px + (y - py) * (qx - px) / (qy - py)
    hits = cond & (x < xint)
    return np.sum(hits, axis=1) % 2 == 1


# Independent oracles for geometry and seminorm identities the library uses
# but does not expose: a single slice of a polygon, linear images of polygons
# and seminorms, and triangle areas of a mesh.


def slice_polygon(poly: Polygon2D, omega, t: float) -> tuple:
    """Intervals {y : (t, y) in R @ poly}, R mapping omega to the second axis.

    Edges cross the line x = t by a half-open rule, so a line through a vertex
    counts it once; measure-zero intervals (tangential touches) are dropped.
    """
    V = poly.vertices @ rotation_to_vertical(omega).T
    eps = 1e-12 * max(1.0, float(np.abs(V).max()), abs(t))
    xs = np.where(np.abs(V[:, 0] - t) <= eps, t, V[:, 0])
    ys = V[:, 1]
    qx, qy = np.roll(xs, -1), np.roll(ys, -1)
    crossing = ((xs <= t) & (t < qx)) | ((qx <= t) & (t < xs))
    px, py = xs[crossing], ys[crossing]
    yc = np.sort(py + (t - px) * (qy[crossing] - py) / (qx[crossing] - px))
    lo, hi = yc[0::2], yc[1::2]
    keep = hi - lo > eps
    return tuple(zip(lo[keep].tolist(), hi[keep].tolist()))


def linear_image(poly: Polygon2D, A) -> Polygon2D:
    """Image of a polygon under an invertible 2 x 2 map, counter-clockwise."""
    A = np.asarray(A, dtype=float)
    W = poly.vertices @ A.T
    return Polygon2D(W[::-1] if np.linalg.det(A) < 0 else W, check_simple=False)


def compose(H, A):
    """The seminorm x -> H(Ax): rank-1 with eta' = A^T eta, quadratic with
    Gram matrix A^T Q A."""
    A = np.asarray(A, dtype=float)
    if isinstance(H, Rank1Seminorm):
        return Rank1Seminorm(A.T @ H.eta)
    w, V = np.linalg.eigh(A.T @ H.gram() @ A)
    return QuadraticSeminorm(V, np.sqrt(np.clip(w, 0.0, None)))


def mesh_areas(mesh) -> np.ndarray:
    """Signed area of each triangle of a mesh (positive when counter-clockwise)."""
    P = mesh.nodes[mesh.triangles]
    E1, E2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    return 0.5 * (E1[:, 0] * E2[:, 1] - E1[:, 1] * E2[:, 0])


# Per-edge loop versions of the mesher's outline kernels (fem.meshing's
# _sample_boundary, _dist_to_outline and _points_in_polygon, as they were
# before those were vectorized). The vectorized kernels must match them bit
# for bit, so they also serve as an outline oracle independent of the code
# under test.


def loop_sample_boundary(V: np.ndarray, spacing: float) -> np.ndarray:
    """Points along the outline, in order, at most `spacing` apart."""
    pts = []
    n = len(V)
    for i in range(n):
        p = V[i]
        q = V[(i + 1) % n]
        seg = max(1, int(np.ceil(np.linalg.norm(q - p) / spacing)))
        t = (np.arange(seg) / seg)[:, None]
        pts.append(p[None] * (1.0 - t) + q[None] * t)
    return np.concatenate(pts)


def loop_dist_to_outline(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon outline (min over edges)."""
    P = V
    D = np.roll(V, -1, axis=0) - V
    L2 = np.maximum(np.sum(D * D, axis=1), 1e-300)
    out = np.empty(len(points))
    step = max(1, 65536 // len(V))
    for lo in range(0, len(points), step):
        blk = points[lo : lo + step]
        rel = blk[:, None, :] - P[None]
        t = np.clip(np.einsum("mnd,nd->mn", rel, D) / L2, 0.0, 1.0)
        gap = rel - t[..., None] * D[None]
        out[lo : lo + step] = np.sqrt(np.sum(gap * gap, axis=2)).min(axis=1)
    return out


def loop_points_in_polygon(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Crossing-number test, one outline edge at a time."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(V)
    for i in range(n):
        xi, yi = V[i]
        xj, yj = V[i - 1]
        cond = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross_x = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= cond & (x < cross_x)
    return inside
