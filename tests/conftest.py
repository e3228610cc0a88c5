from itertools import chain

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from anisospec import Polygon2D, QuadraticSeminorm, Rank1Seminorm, ellipse_polygon
from anisospec.errors import InvalidDomainError, InvalidSeminormError, MeshError
from anisospec.geometry import GEOM_TOL, _cross2, rotation_to_vertical
from anisospec.seminorms import SEMINORM_TOL

# a non-convex 7-vertex star of area 0.53, the size of the benchmark's
# quadratic-optimizer polygons: 62 interior nodes at h = 0.12, which the FEM
# solver takes down its dense branch
STAR7 = Polygon2D(
    [[0.608, 0.123], [0.137, 0.267], [-0.226, 0.501], [-0.33, 0.084], [-0.478, -0.363], [-0.007, -0.28], [0.383, -0.321]]
)


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
    return Polygon2D(W[::-1] if np.linalg.det(A) < 0 else W)


def compose(H, A):
    """The seminorm x -> H(Ax): rank-1 with eta' = A^T eta, quadratic with
    Gram matrix A^T Q A."""
    A = np.asarray(A, dtype=float)
    if isinstance(H, Rank1Seminorm):
        return Rank1Seminorm(A.T @ H.eta)
    w, V = np.linalg.eigh(A.T @ H.gram() @ A)
    return QuadraticSeminorm(V, np.sqrt(np.clip(w, 0.0, None)))


def oracle_quadratic_canonical(rotation, alphas):
    """(alphas, rotation) in canonical form, or InvalidSeminormError with the
    library's message: the NumPy form of QuadraticSeminorm's checks and
    canonicalization (alphas descending by a stable sort, each column's first
    largest-magnitude entry positive) before they moved to Python floats.
    The memos key on the bytes of both arrays, so the two must agree bit for
    bit."""
    a = np.array(np.atleast_1d(alphas), dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise InvalidSeminormError("alphas must be a one-dimensional vector")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise InvalidSeminormError("alphas must be nonnegative and finite")
    d = a.size
    R = np.eye(d) if rotation is None else np.array(rotation, dtype=float)
    if R.shape != (d, d):
        raise InvalidSeminormError("rotation must be a d x d matrix")
    if not np.all(np.isfinite(R)):
        raise InvalidSeminormError("rotation entries must be finite")
    if np.abs(R.T @ R - np.eye(d)).max() > SEMINORM_TOL:
        raise InvalidSeminormError("rotation must be orthogonal within 1e-12")
    order = np.argsort(-a, kind="stable")
    a = a[order]
    R = R[:, order]
    for j in range(d):
        k = int(np.argmax(np.abs(R[:, j])))
        if R[k, j] < 0:
            R[:, j] = -R[:, j]
    return a, R


def mesh_areas(mesh) -> np.ndarray:
    """Signed area of each triangle of a mesh (positive when counter-clockwise)."""
    P = mesh.nodes[mesh.triangles]
    E1, E2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    return 0.5 * (E1[:, 0] * E2[:, 1] - E1[:, 1] * E2[:, 0])


# Per-edge loop versions of the mesher's outline kernels (fem.meshing's
# _sample_boundary, _dist_to_outline and _points_in_polygon, as they were
# before those were vectorized). The vectorized kernels must match them bit
# for bit, so they also serve as an outline oracle independent of the code
# under test. _dist_to_outline is exact only within its `reach`, where it
# must match loop_dist_to_outline.


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


# The outline kernels as they were while they measured every point against
# every edge, in blocks of about 64k (point, edge) pairs: the memory the
# pruned kernels must not exceed when every edge reaches every point.


def dense_dist_to_outline(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    Dx, Dy = (np.roll(V, -1, axis=0) - V).T
    L2 = np.maximum(Dx * Dx + Dy * Dy, 1e-300)
    out = np.empty(len(points))
    step = max(1, 65536 // len(V))
    for lo in range(0, len(points), step):
        blk = slice(lo, lo + step)
        gx, gy = points[blk, :1] - V[:, 0], points[blk, 1:] - V[:, 1]
        t = np.clip((gx * Dx + gy * Dy) / L2, 0.0, 1.0)
        gx -= t * Dx
        gy -= t * Dy
        out[blk] = np.sqrt((gx * gx + gy * gy).min(axis=1))
    return out


def dense_points_in_polygon(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    xi, yi = V[:, 0], V[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    inside = np.empty(len(points), dtype=bool)
    step = max(1, 65536 // len(V))
    for lo in range(0, len(points), step):
        blk = slice(lo, lo + step)
        x, y = points[blk, :1], points[blk, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross_x = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside[blk] = np.count_nonzero(((yi > y) != (yj > y)) & (x < cross_x), axis=1) % 2 == 1
    return inside


# fem.meshing._Refiner with every edge's triangle list built up front, one
# setdefault a corner, and each new triangle's longest edge found through a
# generator. The refiner must split the same edges in the same order, so its
# meshes must equal this one's bit for bit.


class LoopRefiner:
    """Longest-edge bisection with LEPP walks until every edge <= target_h.

    A triangle is never changed, only replaced by its two halves, so its
    longest edge is found once, when it is made, and a triangle within the
    target stays within it: each round visits only the triangles made since
    the previous round began."""

    def __init__(self, nodes: np.ndarray, triangles: np.ndarray, target_h: float):
        self.xy = nodes.tolist()
        self.target2 = float(target_h) * float(target_h)
        P = nodes[triangles]
        area = 0.5 * float(np.abs(_cross2(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])).sum())
        self.budget = 64 * (len(triangles) + 16) + int(64.0 * area / self.target2) + 100000
        # each triangle's edges (a, b), (b, c), (c, a) by the places of their
        # low and high corner in the flat corner list, with the squared lengths
        # _add takes, then the longest of each by the lexicographic (length,
        # pair) key that makes ties deterministic
        flat = triangles.ravel()
        rows = np.arange(len(triangles))
        first = np.arange(flat.size).reshape(-1, 3)
        second = np.roll(first, -1, axis=1)
        swap = flat[first] > flat[second]
        lo_at, hi_at = np.where(swap, second, first), np.where(swap, first, second)
        lo, hi = flat[lo_at], flat[hi_at]
        d = nodes[lo] - nodes[hi]
        length2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        best = np.zeros(len(triangles), dtype=np.intp)
        for k in (1, 2):
            l2, a, b = length2[rows, best], lo[rows, best], hi[rows, best]
            tie = (length2[:, k] == l2) & ((lo[:, k] > a) | ((lo[:, k] == a) & (hi[:, k] > b)))
            best[(length2[:, k] > l2) | tie] = k
        # the edges hold the corners' own int objects, and the dicts one int
        # object a triangle id, as _add's tuples do: no more objects than the
        # one-triangle-at-a-time set-up kept
        corners = flat.tolist()
        edges = list(zip(map(corners.__getitem__, lo_at.ravel().tolist()), map(corners.__getitem__, hi_at.ravel().tolist())))
        tids = rows.tolist()
        # id -> (longest edge's squared length, that edge, triangle); ids only
        # grow, so the dict's order is id order
        self.tris: dict[int, tuple] = dict(
            zip(
                tids,
                zip(
                    length2[rows, best].tolist(),
                    list(map(edges.__getitem__, first[rows, best].tolist())),
                    zip(corners[0::3], corners[1::3], corners[2::3]),
                ),
            )
        )
        self.edge_map: dict[tuple[int, int], list[int]] = {}
        for e, tid in zip(edges, chain.from_iterable(zip(tids, tids, tids))):
            self.edge_map.setdefault(e, []).append(tid)
        self.next_tid = len(triangles)

    @staticmethod
    def _edges(t):
        a, b, c = t
        return (
            (a, b) if a < b else (b, a),
            (b, c) if b < c else (c, b),
            (c, a) if c < a else (a, c),
        )

    def _add(self, t) -> None:
        def length2(e):
            # dx * dx, not dx ** 2, which goes through the C library's pow
            p, q = self.xy[e[0]], self.xy[e[1]]
            dx, dy = p[0] - q[0], p[1] - q[1]
            return dx * dx + dy * dy

        edges = self._edges(t)
        # lexicographic (length, pair) key makes ties deterministic
        self.tris[self.next_tid] = max((length2(e), e) for e in edges) + (t,)
        for e in edges:
            self.edge_map.setdefault(e, []).append(self.next_tid)
        self.next_tid += 1

    def _split_edge(self, e) -> None:
        p, q = self.xy[e[0]], self.xy[e[1]]
        m = len(self.xy)
        self.xy.append(((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0))
        for tid in self.edge_map.pop(e):
            t = self.tris.pop(tid)[2]
            for f in self._edges(t):
                if f != e:
                    self.edge_map[f].remove(tid)
            # rotate so the split edge is (t0, t1), preserving orientation
            while t[2] in e:
                t = (t[1], t[2], t[0])
            a, b, c = t
            self._add((a, m, c))
            self._add((m, b, c))

    def _lepp(self, tid: int) -> None:
        e = self.tris[tid][1]
        while True:
            nb = next((other for other in self.edge_map[e] if other != tid), None)
            if nb is None or self.tris[nb][1] == e:
                self._split_edge(e)
                return
            tid, e = nb, self.tris[nb][1]

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        splits = 0
        new = range(self.next_tid)
        while new:
            made = self.next_tid
            for tid in new:
                while tid in self.tris and self.tris[tid][0] > self.target2:
                    self._lepp(tid)
                    splits += 1
                    if splits > self.budget:
                        raise MeshError("bisection budget exceeded; target_h too small for this polygon")
            new = range(made, self.next_tid)
        return np.array(self.xy, dtype=float), np.array([t for _, _, t in self.tris.values()], dtype=np.int64)


# Per-edge loop version of geometry._assert_simple, as it was before the edge
# pairs were tested in blocks: Polygon2D must accept exactly the polygons it
# accepts.


def _loop_cross2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def loop_segment_pairs_intersect(p1, q1, P2, Q2, eps):
    """True where segment (p1,q1) meets any of the segments (P2[i],Q2[i]).

    Shared endpoints count as intersections; callers exclude adjacent edges.
    """
    r = q1 - p1
    s = Q2 - P2
    d1 = _loop_cross2(s, p1 - P2)
    d2 = _loop_cross2(s, q1 - P2)
    d3 = _loop_cross2(r, P2 - p1)
    d4 = _loop_cross2(r, Q2 - p1)
    proper = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & (
        ((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps))
    )
    if np.any(proper):
        return True

    # Touching or collinear-overlap cases: any endpoint lying on the other segment.
    def on_segment(pt, A, B, d):
        near_line = np.abs(d) <= eps
        lo = np.minimum(A, B) - eps
        hi = np.maximum(A, B) + eps
        inside = np.all((pt >= lo) & (pt <= hi), axis=-1)
        return near_line & inside

    touch = (
        on_segment(p1, P2, Q2, d1)
        | on_segment(q1, P2, Q2, d2)
        | on_segment(P2, p1, q1, d3)
        | on_segment(Q2, p1, q1, d4)
    )
    return bool(np.any(touch))


def loop_assert_simple(V: np.ndarray, eps: float) -> None:
    n = len(V)
    P = V
    Q = np.roll(V, -1, axis=0)
    for i in range(n - 2):
        j0 = i + 2
        j1 = n - 1 if i == 0 else n
        if j0 >= j1:
            continue
        if loop_segment_pairs_intersect(P[i], Q[i], P[j0:j1], Q[j0:j1], eps):
            raise InvalidDomainError("polygon edges intersect: not a simple polygon")


# geometry.slab_decomposition for one direction as it was before it took
# direction stacks: every edge tested against every slab in one dense cover
# matrix, each slab's crossings ordered by one lexsort. The stacked kernel
# must give its records bit for bit.


def dense_slab_decomposition(poly: Polygon2D, omega) -> tuple:
    """(breakpoints, slab_lo, slab_hi, len_lo, len_hi) of one direction."""
    V = poly.vertices @ rotation_to_vertical(omega).T
    scale = max(1.0, float(np.abs(V).max()))
    eps = GEOM_TOL * scale
    xs = np.sort(V[:, 0])
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = np.diff(xs) > eps
    bps = xs[keep]
    px, py = V[:, 0], V[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    dx = qx - px
    nonvert = np.abs(dx) > eps
    lo_e = np.minimum(px, qx)
    hi_e = np.maximum(px, qx)
    t0, t1 = bps[:-1], bps[1:]
    tm = 0.5 * (t0 + t1)
    cover = nonvert[:, None] & (lo_e[:, None] <= t0[None, :] + eps) & (hi_e[:, None] >= t1[None, :] - eps)
    e_idx, s_idx = np.nonzero(cover)

    def edge_y(edges, ts):
        s = (ts - px[edges]) / dx[edges]
        return (1.0 - s) * py[edges] + s * qy[edges]

    order = np.lexsort((edge_y(e_idx, tm[s_idx]), s_idx))
    e_sorted = e_idx[order]
    s_sorted = s_idx[order]
    counts = np.bincount(s_sorted, minlength=len(t0))
    starts = np.concatenate([[0], np.cumsum(counts)])
    rank = np.arange(len(s_sorted)) - starts[s_sorted]
    lo_mask = rank % 2 == 0
    e_lo = e_sorted[lo_mask]
    e_hi = e_sorted[~lo_mask]
    s_comp = s_sorted[lo_mask]
    len_lo = edge_y(e_hi, t0[s_comp]) - edge_y(e_lo, t0[s_comp])
    len_hi = edge_y(e_hi, t1[s_comp]) - edge_y(e_lo, t1[s_comp])
    return bps, t0[s_comp], t1[s_comp], np.maximum(len_lo, 0.0), np.maximum(len_hi, 0.0)


# functional._augment_directions for polygons as it was before its vertex
# pairs came from np.triu_indices: the optimizer must scan the same angles.


def loop_augment_directions(poly: Polygon2D) -> np.ndarray:
    V = poly.vertices
    E = np.roll(V, -1, axis=0) - V
    thetas = [np.arctan2(E[:, 1], E[:, 0]), np.arctan2(E[:, 0], -E[:, 1])]
    n = len(V)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > 2048:
        stride = len(pairs) // 2048 + 1
        pairs = pairs[::stride]
    if pairs:
        D = V[[j for _, j in pairs]] - V[[i for i, _ in pairs]]
        thetas.append(np.arctan2(D[:, 1], D[:, 0]))
    return np.concatenate(thetas)


# functional.optimize_quadratic as it was before its grid was solved in one
# pass: every (theta, alpha) grid cell evaluated alone through eval_F. The
# one-pass grid must give its values, trace and optimum bit for bit.


def loop_quadratic_values(domain, thetas, alphas, q: float, cfg) -> tuple:
    """(lambdas, torsions, values), one row per theta, each cell by eval_F alone."""
    from anisospec.functional import _family_seminorm, eval_F

    fvs = [[eval_F(domain, _family_seminorm(t, a), q, cfg) for a in alphas.tolist()] for t in thetas.tolist()]
    return tuple([[getattr(fv, name) for fv in row] for row in fvs] for name in ("lambda_", "torsion", "value"))


def loop_optimize_quadratic(domain, q: float, mode: str = "min", cfg=None):
    """(theta, alpha, value, boundary_flag, trace) of the grid-cell loop."""
    import math

    from anisospec.functional import (
        _ALPHA_FLOOR,
        _ALPHA_FLOOR_ELLIPSOID,
        _as_planar_domain,
        _check_mode,
        _default_quadratic_cfg,
        _family_seminorm,
        _golden,
        eval_F,
    )
    from anisospec.geometry import EllipsoidD

    domain = _as_planar_domain(domain)
    sign = _check_mode(mode)
    if cfg is None:
        cfg = _default_quadratic_cfg(domain)
    floor = _ALPHA_FLOOR_ELLIPSOID if isinstance(domain, EllipsoidD) else _ALPHA_FLOOR
    trace = []

    def varies(points):
        # whether a golden section's values differ by more than rounding:
        # a section that meets only rounding keeps its coordinate
        values = [val for _, val in points]
        return max(values) - min(values) > 1e-12 * max(abs(val) for val in values)

    def f(theta, alpha):
        theta = float(theta % math.pi)
        alpha = 0.0 if alpha < floor else min(float(alpha), 1.0)
        val = eval_F(domain, _family_seminorm(theta, alpha), q, cfg).value
        trace.append(((theta, alpha), val))
        return sign * val

    theta_grid = np.arange(36) * (math.pi / 36.0)
    alpha_grid = np.linspace(0.0, 1.0, 21)
    grid_vals = np.array([[f(t, a) for a in alpha_grid] for t in theta_grid])
    it, ia = np.unravel_index(int(np.argmin(grid_vals)), grid_vals.shape)
    theta, alpha = float(theta_grid[it]), float(alpha_grid[ia])
    d_theta, d_alpha = math.pi / 36.0, 0.05
    for _ in range(24):
        n = len(trace)
        new_alpha, _ = _golden(lambda a: f(theta, a), max(0.0, alpha - d_alpha), min(1.0, alpha + d_alpha), 1e-5)
        if not varies(trace[n:]):
            new_alpha = alpha
        new_alpha = 0.0 if new_alpha < floor else float(new_alpha)
        n = len(trace)
        new_theta, _ = _golden(lambda t: f(t, new_alpha), theta - d_theta, theta + d_theta, 1e-5)
        if not varies(trace[n:]):
            new_theta = theta
        moved = max(abs(new_alpha - alpha), abs(new_theta - theta))
        theta, alpha = float(new_theta % math.pi), new_alpha
        d_theta = max(d_theta / 3.0, 1e-5)
        d_alpha = max(d_alpha / 3.0, 1e-5)
        if moved < 1e-4:
            break
    (best_theta, best_alpha), best_val = min(trace, key=lambda e: (sign * e[1], e[0]))
    return float(best_theta), float(best_alpha), float(best_val), best_alpha == 0.0, tuple(trace)


# fem.solver._ellipse_lambda as it was before nearby aspect ratios shared a
# mesh: each ratio meshes its own (ratio, 1) 256-gon and solves the Euclidean
# problem there. At ratio 1 and at every ladder point the shared-mesh route
# must give its values bit for bit, and elsewhere stay within mesh noise.


def own_mesh_ellipse_lambda(ratio: float, cfg):
    """Spectral of the (ratio, 1) ellipse by FEM on its own inscribed 256-gon."""
    import math
    from dataclasses import replace

    from anisospec.fem import lambda_euclid_fem

    local = replace(cfg, target_h=cfg.target_h * math.sqrt(ratio))
    return lambda_euclid_fem(ellipse_polygon(ratio, 1.0, 256), local)
