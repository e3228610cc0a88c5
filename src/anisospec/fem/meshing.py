"""Triangulation of simple polygons.

Primary pipeline: sample the outline at spacing <= target_h, lay a hexagonal
lattice over the interior (kept clear of a protection band along the outline
so the boundary subsegments survive as Delaunay edges), triangulate the point
cloud, and keep the triangles whose centroid lies inside the polygon. The
result is accepted only if it tiles the polygon area exactly and its
topological boundary matches the outline; otherwise we fall back to
quality-greedy ear clipping. Either way, longest-edge bisection (LEPP walks)
then refines every triangle whose longest edge exceeds the target. Uniform
midpoint refinement is kept separately for nested mesh pairs (error
estimation by comparing h and h/2 on nested spaces).

The outline tests measure each point only against the edges that can reach
it: the crossing-number test against the edges whose y-range holds the
point, the distance against the edges whose bounding box, widened by the
distance that matters, holds it; sorting the points finds both by binary
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.spatial import Delaunay, QhullError

from ..errors import MeshError, SingularMapError
from ..geometry import GEOM_TOL, Polygon2D, _cross2

__all__ = ["TriMesh", "mesh_polygon"]

# most cells (bounding-box area / target_h**2) the mesher may lay its lattice
# over: 1.6e5 took 14.6 s and 723 MB
_MAX_CELLS = 1e6


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh: ccw triangles, flagged boundary nodes."""

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    h: float

    @classmethod
    def from_arrays(cls, nodes, triangles) -> "TriMesh":
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
        triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must form an (N, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3 or len(triangles) == 0:
            raise MeshError("triangles must form a nonempty (M, 3) index array")
        n = len(nodes)
        keys, counts = np.unique(_edge_keys(triangles, n), return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("non-conforming mesh: an edge belongs to more than two triangles")
        boundary = np.unique(np.divmod(keys[counts == 1], n))
        P = nodes[triangles]
        lengths = np.linalg.norm(P - np.roll(P, -1, axis=1), axis=2)
        nodes.flags.writeable = False
        triangles.flags.writeable = False
        boundary.flags.writeable = False
        return cls(nodes=nodes, triangles=triangles, boundary_nodes=boundary, h=float(lengths.max()))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def interior_nodes(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]

    def refined(self) -> "TriMesh":
        """Uniform midpoint refinement: each triangle splits into four similar
        children; the result is nested in this mesh."""
        T = self.triangles
        n = self.n_nodes
        uniq, inverse = np.unique(_edge_keys(T, n), return_inverse=True)
        lo, hi = np.divmod(uniq, n)
        mid_index = n + np.arange(len(uniq))
        midpoints = 0.5 * (self.nodes[lo] + self.nodes[hi])
        m = len(T)
        ab = mid_index[inverse[:m]]
        bc = mid_index[inverse[m : 2 * m]]
        ca = mid_index[inverse[2 * m :]]
        a, b, c = T[:, 0], T[:, 1], T[:, 2]
        children = np.concatenate(
            [
                np.column_stack([a, ab, ca]),
                np.column_stack([ab, b, bc]),
                np.column_stack([ca, bc, c]),
                np.column_stack([ab, bc, ca]),
            ]
        )
        return TriMesh.from_arrays(np.vstack([self.nodes, midpoints]), children)

    def transformed(self, B) -> "TriMesh":
        """Image mesh under an invertible linear map (same connectivity)."""
        B = np.asarray(B, dtype=float)
        det = float(np.linalg.det(B))
        if abs(det) <= GEOM_TOL:
            raise SingularMapError("non-invertible map")
        T = self.triangles[:, [0, 2, 1]] if det < 0 else self.triangles
        return TriMesh.from_arrays(self.nodes @ B.T, T)


def _edge_keys(T: np.ndarray, n: int) -> np.ndarray:
    """Key a * n + b (a < b) of each edge of the triangles T on n nodes, all (0, 1)
    edges first, then (1, 2), then (2, 0); sorted keys sort the edges row-wise."""
    E = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    return E.min(axis=1) * n + E.max(axis=1)


def _sample_boundary(V: np.ndarray, spacing: float) -> np.ndarray:
    """Points along the outline, in order, at most `spacing` apart."""
    Q = np.roll(V, -1, axis=0)
    D = Q - V
    # per-edge dot products, as np.linalg.norm(q - p) takes them: BLAS may fuse a multiply-add
    length = np.sqrt((D[:, None] @ D[:, :, None]).ravel())
    seg = np.maximum(1, np.ceil(length / spacing).astype(np.int64))
    edge = np.repeat(np.arange(len(V)), seg)
    t = ((np.arange(len(edge)) - (np.cumsum(seg) - seg)[edge]) / seg[edge])[:, None]
    return V[edge] * (1.0 - t) + Q[edge] * t


def _hex_grid(V: np.ndarray, s: float) -> np.ndarray:
    """Hexagonal lattice covering the bounding box of V with spacing s."""
    xmin, ymin = V.min(axis=0)
    xmax, ymax = V.max(axis=0)
    dy = s * np.sqrt(3.0) / 2.0
    ys = np.arange(ymin + dy, ymax, dy)
    if len(ys) == 0:
        return np.empty((0, 2))
    rows = []
    for k, y in enumerate(ys):
        xs = np.arange(xmin + (s / 2.0 if k % 2 else s), xmax, s)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    return np.concatenate(rows)


# most (point, edge) pairs an outline kernel measures at once: each pair
# holds about ten index and coordinate temporaries, so a chunk takes about
# the memory (0.6 MB) a 64k-entry block of the dense points x edges test did
_PAIRS = 8192


def _pairs(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, side: str):
    """(edge, point) index pairs, edge by edge, of the points whose key k has
    lo[edge] <= k < hi[edge] (k <= hi[edge] when side is "right"), in chunks
    of at most _PAIRS pairs. With the keys sorted, two binary searches give
    each edge's run of points."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    start, stop = np.searchsorted(sorted_keys, lo), np.searchsorted(sorted_keys, hi, side=side)
    del sorted_keys  # not held while the chunks are
    end = np.cumsum(stop - start)
    shift = stop - end
    total = int(end[-1]) if len(end) else 0
    for first in range(0, total, _PAIRS):
        k = np.arange(first, min(first + _PAIRS, total))
        e = np.searchsorted(end, k, side="right")
        k += shift[e]
        yield e, order[k]


def _dist_to_outline(points: np.ndarray, V: np.ndarray, reach: float) -> np.ndarray:
    """Distance from each point to the polygon outline (min over edges): exact
    wherever it is at most `reach`, at least the exact distance elsewhere, and
    inf where no edge comes that close.

    An edge is measured only against the points in its bounding box widened by
    reach and a margin rounding cannot cross: the points in the box's x-range,
    then a test on y."""
    Q = np.roll(V, -1, axis=0)
    Dx, Dy = (Q - V).T
    L2 = np.maximum(Dx * Dx + Dy * Dy, 1e-300)
    pad = reach * (1.0 + 1e-6) + 1e-12 * max(1.0, float(np.abs(V).max()))
    lo, hi = np.minimum(V, Q) - pad, np.maximum(V, Q) + pad
    gap2 = np.full(len(points), np.inf)
    for e, p in _pairs(points[:, 0], lo[:, 0], hi[:, 0], "right"):
        y = points[p, 1]
        box = (lo[e, 1] <= y) & (y <= hi[e, 1])
        if not box.any():
            continue
        e, p = e[box], p[box]
        gx, gy = points[p, 0] - V[e, 0], y[box] - V[e, 1]
        t = np.clip((gx * Dx[e] + gy * Dy[e]) / L2[e], 0.0, 1.0)
        gx -= t * Dx[e]
        gy -= t * Dy[e]
        # each point's smallest gap: its pairs side by side, then one reduceat
        by_point = np.argsort(p, kind="stable")
        p = p[by_point]
        first = np.flatnonzero(np.diff(p, prepend=-1))
        smallest = np.minimum.reduceat((gx * gx + gy * gy)[by_point], first)
        gap2[p[first]] = np.minimum(gap2[p[first]], smallest)
    # sqrt is monotone and correctly rounded, so this is the min of the gaps
    return np.sqrt(gap2)


def _points_in_polygon(points: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Crossing-number test. A point can cross only the edges whose y-range
    [min, max) holds its y, so only those pairs are tested. A point within
    rounding of the outline may land on either side; the protect band or the
    area-tiling check catches it."""
    xi, yi = V[:, 0], V[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    dx, dy = xj - xi, yj - yi
    inside = np.zeros(len(points), dtype=bool)
    for e, p in _pairs(points[:, 1], np.minimum(yi, yj), np.maximum(yi, yj), "left"):
        # (xj - xi) * (y - yi) / (yj - yi) + xi, operation by operation
        cross_x = points[p, 1] - yi[e]
        cross_x *= dx[e]
        cross_x /= dy[e]
        cross_x += xi[e]
        hit, count = np.unique(p[points[p, 0] < cross_x], return_counts=True)
        inside[hit] ^= count % 2 == 1
    return inside


def _grid_delaunay(polygon: Polygon2D, target_h: float):
    """Fast-path triangulation; returns (nodes, triangles) or None on any
    mismatch (the caller falls back to ear clipping)."""
    V = polygon.vertices
    boundary = _sample_boundary(V, 0.98 * target_h)
    seg = np.linalg.norm(np.roll(boundary, -1, axis=0) - boundary, axis=1)
    protect = 0.55 * seg.max()
    cand = _hex_grid(V, 0.95 * target_h)
    cand = cand[_points_in_polygon(cand, V)]
    cand = cand[_dist_to_outline(cand, V, protect) >= protect]
    pts = np.vstack([boundary, cand])
    if len(pts) < 3:
        return None
    try:
        tri = Delaunay(pts)
    except QhullError:
        return None
    T = tri.simplices.astype(np.int64)
    P = pts[T]
    area2 = _cross2(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    flip = area2 < 0.0
    T[flip] = T[flip][:, ::-1]
    scale = max(1.0, float(np.abs(V).max()))
    T = T[np.abs(area2) > GEOM_TOL * scale * scale]
    if len(T) == 0:
        return None
    centroids = pts[T].mean(axis=1)
    T = T[_points_in_polygon(centroids, V)]
    if len(T) == 0:
        return None
    P = pts[T]
    total = 0.5 * float(np.abs(_cross2(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])).sum())
    if abs(total - polygon.area) > 1e-9 * polygon.area:
        return None
    used = np.unique(T)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return pts[used], remap[T]


def _ear_clip(V: np.ndarray) -> np.ndarray:
    """Greedy ear clipping, always taking the best-shaped available ear."""
    n = len(V)
    scale = max(1.0, float(np.abs(V).max()))
    eps = GEOM_TOL * scale * scale
    dist_eps = GEOM_TOL * scale
    idx = list(range(n))
    out = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n:
            raise MeshError("ear clipping did not terminate; polygon may be non-simple")
        P = V[idx]
        prev = np.roll(P, 1, axis=0)
        nxt = np.roll(P, -1, axis=0)
        cr = _cross2(P - prev, nxt - P)
        convex = cr > eps
        cand = np.nonzero(convex)[0]
        blockers = P[~convex]
        if len(blockers):
            A, Bv, C = prev[cand], P[cand], nxt[cand]
            d1 = _cross2((Bv - A)[:, None], blockers[None] - A[:, None])
            d2 = _cross2((C - Bv)[:, None], blockers[None] - Bv[:, None])
            d3 = _cross2((A - C)[:, None], blockers[None] - C[:, None])
            inside = (d1 >= -eps) & (d2 >= -eps) & (d3 >= -eps)
            # a blocker coinciding with an ear corner does not block that ear
            for corner in (A, Bv, C):
                inside &= np.linalg.norm(blockers[None] - corner[:, None], axis=2) > dist_eps
            cand = cand[~np.any(inside, axis=1)]
        if len(cand) == 0:
            flat = np.abs(cr) <= eps
            if np.any(flat):
                idx.pop(int(np.argmax(flat)))
                continue
            raise MeshError("every ear is blocked; polygon may be non-simple")
        A, Bv, C = prev[cand], P[cand], nxt[cand]
        per = (
            np.sum((Bv - A) ** 2, axis=1)
            + np.sum((C - Bv) ** 2, axis=1)
            + np.sum((A - C) ** 2, axis=1)
        )
        quality = 2.0 * np.sqrt(3.0) * cr[cand] / per
        best = int(cand[int(np.argmax(quality))])
        k = len(idx)
        out.append((idx[(best - 1) % k], idx[best], idx[(best + 1) % k]))
        idx.pop(best)
    out.append(tuple(idx))
    return np.array(out, dtype=np.int64)


class _EdgeMap(dict):
    """Edge -> ids of the triangles on it, in the order they were added. An
    edge of the starting triangulation enters on its first lookup, with its
    triangles (in ascending ids, as adding the triangles one by one would
    list them) read from the starting edge table: `edge_keys`, each edge's
    key low * n + high once per triangle on it, sorted, and `edge_tids`, the
    triangle ids in that order. An edge the refiner makes it adds itself."""

    def __init__(self, edge_keys: list, edge_tids: list, n: int):
        super().__init__()
        self.edge_keys, self.edge_tids, self.n = edge_keys, edge_tids, n

    def __missing__(self, e):
        key = e[0] * self.n + e[1]
        first = bisect_left(self.edge_keys, key)
        stop = bisect_right(self.edge_keys, key, first)
        if stop == first:
            raise KeyError(e)
        value = self[e] = self.edge_tids[first:stop]
        return value


class _Refiner:
    """Longest-edge bisection with LEPP walks until every edge <= target_h.

    A triangle is never changed, only replaced by its two halves, so its
    longest edge is found once, when it is made, and a triangle within the
    target stays within it: each round visits only the triangles made since
    the previous round began, and the first only those over the target."""

    def __init__(self, nodes: np.ndarray, triangles: np.ndarray, target_h: float):
        self.xy = nodes.tolist()
        self.target2 = float(target_h) * float(target_h)
        P = nodes[triangles]
        area = 0.5 * float(np.abs(_cross2(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])).sum())
        self.budget = 64 * (len(triangles) + 16) + int(64.0 * area / self.target2) + 100000
        # each triangle's edges (a, b), (b, c), (c, a) as (low, high) corner
        # pairs, with the squared lengths _add takes, then the longest of each
        # by the lexicographic (length, pair) key that makes ties deterministic
        rows = np.arange(len(triangles))
        ends = np.stack([triangles, np.roll(triangles, -1, axis=1)])
        lo, hi = ends.min(axis=0), ends.max(axis=0)
        d = nodes[lo] - nodes[hi]
        length2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        best = np.zeros(len(triangles), dtype=np.intp)
        for k in (1, 2):
            l2, a, b = length2[rows, best], lo[rows, best], hi[rows, best]
            tie = (length2[:, k] == l2) & ((lo[:, k] > a) | ((lo[:, k] == a) & (hi[:, k] > b)))
            best[(length2[:, k] > l2) | tie] = k
        longest = length2[rows, best]
        corners = triangles.ravel().tolist()
        # id -> (longest edge's squared length, that edge, triangle); ids only
        # grow, so the dict's order is id order
        self.tris: dict[int, tuple] = dict(
            zip(
                rows.tolist(),
                zip(
                    longest.tolist(),
                    zip(lo[rows, best].tolist(), hi[rows, best].tolist()),
                    zip(corners[0::3], corners[1::3], corners[2::3]),
                ),
            )
        )
        keys = (lo * len(nodes) + hi).ravel()
        order = np.argsort(keys, kind="stable")
        self.edge_map = _EdgeMap(keys[order].tolist(), (order // 3).tolist(), len(nodes))
        self.next_tid = len(triangles)
        # a starting triangle within the target is never split
        self.too_long = np.flatnonzero(longest > self.target2).tolist()

    @staticmethod
    def _edges(t):
        a, b, c = t
        return (
            (a, b) if a < b else (b, a),
            (b, c) if b < c else (c, b),
            (c, a) if c < a else (a, c),
        )

    def _add(self, t) -> None:
        a, b, c = t
        (ax, ay), (bx, by), (cx, cy) = self.xy[a], self.xy[b], self.xy[c]
        # squared edge lengths, dx * dx and not dx ** 2, which goes through
        # the C library's pow; an edge's two directions give the same bits
        ux, uy, vx, vy, wx, wy = ax - bx, ay - by, bx - cx, by - cy, cx - ax, cy - ay
        ab, bc, ca = self._edges(t)
        tid = self.next_tid
        # lexicographic (length, pair) key makes ties deterministic
        self.tris[tid] = max((ux * ux + uy * uy, ab), (vx * vx + vy * vy, bc), (wx * wx + wy * wy, ca)) + (t,)
        # an edge of the split triangle is in edge_map already (_split_edge
        # looked it up), so setdefault makes only the new edges' lists
        for e in (ab, bc, ca):
            self.edge_map.setdefault(e, []).append(tid)
        self.next_tid = tid + 1

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
            for nb in self.edge_map[e]:
                if nb != tid:
                    break
            else:
                nb = None
            if nb is None or self.tris[nb][1] == e:
                self._split_edge(e)
                return
            tid, e = nb, self.tris[nb][1]

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        splits = 0
        new = self.too_long
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


def mesh_polygon(polygon: Polygon2D, target_h: float) -> TriMesh:
    """Conforming triangulation of the polygon with max edge <= target_h."""
    if not isinstance(polygon, Polygon2D):
        raise MeshError("mesh_polygon expects a Polygon2D")
    if not (target_h > 0.0) or not np.isfinite(target_h):
        raise MeshError("target_h must be positive")
    V = polygon.vertices
    if np.prod(np.ptp(V, axis=0)) / target_h**2 > _MAX_CELLS:
        raise MeshError(f"target_h = {target_h:g} is too small for this polygon: pass a larger --h")
    fast = _grid_delaunay(polygon, target_h)
    if fast is not None:
        nodes, triangles = _Refiner(fast[0], fast[1], target_h).run()
        candidate = TriMesh.from_arrays(nodes, triangles)
        # accept only if the topological boundary is exactly the set of nodes
        # sitting on the outline (guards against hanging boundary points)
        scale = max(1.0, float(np.abs(V).max()))
        on_outline = _dist_to_outline(candidate.nodes, V, 1e-9 * scale) <= 1e-9 * scale
        flagged = np.zeros(candidate.n_nodes, dtype=bool)
        flagged[candidate.boundary_nodes] = True
        if np.array_equal(on_outline, flagged):
            return candidate
    coarse = _ear_clip(V)
    nodes, triangles = _Refiner(V, coarse, target_h).run()
    return TriMesh.from_arrays(nodes, triangles)
