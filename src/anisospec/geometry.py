"""Planar polygons, boxes and ellipsoids, plus the slab machinery used by the
slicing solver.

Conventions:

* ``Polygon2D`` vertices are counter-clockwise, simple, first vertex not
  repeated. Every polygon is checked for all three when it is built,
  including the ones ``ellipse_polygon`` and ``BoxD.to_polygon`` make.
* ``slab_decomposition`` rotates the plane so the requested direction maps
  to the second coordinate axis; offsets are measured along the first axis of
  the rotated frame. It takes one direction or an (m, 2) stack of them.
  Vertex projections within eps of the previous one merge into one
  breakpoint, and an edge covers exactly the slabs between its two end
  vertices' breakpoints.
* Geometric tolerances are ``GEOM_TOL = 1e-12``, absolute or scaled with the
  coordinate magnitude where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidDomainError, UnsupportedError

GEOM_TOL = 1e-12


def _cross2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDomainError("dimension must be a positive integer")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


class Direction:
    """Unit vector in R^d (norm within GEOM_TOL of 1)."""

    __slots__ = ("vector",)

    def __init__(self, vector):
        v = np.array(vector, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidDomainError("direction must be a one-dimensional vector")
        if not np.all(np.isfinite(v)):
            raise InvalidDomainError("direction entries must be finite")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > GEOM_TOL:
            raise InvalidDomainError(f"direction must have unit norm, got |v| = {n!r}")
        v.flags.writeable = False
        self.vector = v

    @property
    def dimension(self) -> int:
        return self.vector.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.vector, dtype=dtype)

    def __repr__(self):
        return f"Direction({self.vector.tolist()})"


def _blocks(n_rows: int, n_cols: int):
    """Row slices of about 64k row-column pairs: temporaries near 0.5 MB each."""
    step = max(1, 65536 // n_cols)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _assert_simple(P: np.ndarray, Q: np.ndarray, eps: float) -> None:
    """Raise unless no two non-adjacent edges (P[i], Q[i]) meet within eps.

    A proper crossing and a touch (an endpoint within eps of the other
    segment) both need the eps-widened bounding boxes to overlap, so only
    those pairs go through the four orientation tests.
    """
    n = len(P)
    lo, hi = np.minimum(P, Q) - eps, np.maximum(P, Q) + eps

    def opposite(a, b):
        return ((a > eps) & (b < -eps)) | ((a < -eps) & (b > eps))

    def on_segment(pt, d, k):
        inside = (pt >= lo[k]) & (pt <= hi[k])
        return (np.abs(d) <= eps) & inside[:, 0] & inside[:, 1]

    for blk in _blocks(n, n):
        c = blk.start + 2
        near = (lo[blk, None, 0] <= hi[c:, 0]) & (lo[c:, 0] <= hi[blk, None, 0])
        i, j = np.nonzero(near & (lo[blk, None, 1] <= hi[c:, 1]) & (lo[c:, 1] <= hi[blk, None, 1]))
        i, j = i + blk.start, j + c
        # pairs j > i + 1 less the wrap pair (0, n - 1): the others share a vertex
        keep = (j > i + 1) & ((i > 0) | (j < n - 1))
        i, j = i[keep], j[keep]
        p1, q1, P2, Q2 = P[i], Q[i], P[j], Q[j]
        r, s = q1 - p1, Q2 - P2
        d1, d2 = _cross2(s, p1 - P2), _cross2(s, q1 - P2)
        d3, d4 = _cross2(r, P2 - p1), _cross2(r, Q2 - p1)
        # touching or collinear overlap: an endpoint lying on the other segment
        touch = on_segment(p1, d1, j) | on_segment(q1, d2, j) | on_segment(P2, d3, i) | on_segment(Q2, d4, i)
        if np.any((opposite(d1, d2) & opposite(d3, d4)) | touch):
            raise InvalidDomainError("polygon edges intersect: not a simple polygon")


class Polygon2D:
    """Simple planar polygon, counter-clockwise, positive signed area: every
    polygon is checked for all three when it is built."""

    __slots__ = ("vertices", "area", "is_convex", "fingerprint")

    def __init__(self, vertices):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise InvalidDomainError("polygon needs an (n, 2) vertex array with n >= 3")
        if not np.all(np.isfinite(V)):
            raise InvalidDomainError("polygon vertices must be finite")
        scale = max(1.0, float(np.abs(V).max()))
        Q = np.roll(V, -1, axis=0)
        E = Q - V
        if np.any(np.linalg.norm(E, axis=1) <= GEOM_TOL * scale):
            raise InvalidDomainError("polygon has repeated consecutive vertices")
        eps = GEOM_TOL * scale * scale
        area2 = float(np.sum(_cross2(V, Q)))
        if area2 <= eps:
            if area2 < -eps:
                raise InvalidDomainError(
                    "polygon vertices must be counter-clockwise (signed area is negative)"
                )
            raise InvalidDomainError("polygon is degenerate (zero signed area)")
        _assert_simple(V, Q, eps)
        turns = _cross2(E, np.roll(E, -1, axis=0))
        V.flags.writeable = False
        self.vertices = V
        self.area = 0.5 * area2
        self.is_convex = bool(np.all(turns >= -eps))
        # one bytes object per polygon, shared by every cache key built from it
        self.fingerprint = V.tobytes()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return f"Polygon2D(<{self.n_vertices} vertices>, area={self.area:.6g})"


def ellipse_polygon(a: float, b: float, n: int = 256) -> Polygon2D:
    """n-gon inscribed in the axis-aligned ellipse with semi-axes (a, b)."""
    if a <= 0 or b <= 0:
        raise InvalidDomainError("ellipse semi-axes must be positive")
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InvalidDomainError("ellipse polygon needs an integer n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    V = np.column_stack([a * np.cos(ang), b * np.sin(ang)])
    return Polygon2D(V)


class BoxD:
    """Axis-aligned box given by per-axis intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        I = np.array(intervals, dtype=float)
        if I.ndim != 2 or I.shape[1] != 2 or I.shape[0] < 1:
            raise InvalidDomainError("box needs a (d, 2) interval array")
        if not np.all(np.isfinite(I)):
            raise InvalidDomainError("box intervals must be finite")
        scale = max(1.0, float(np.abs(I).max()))
        if np.any(I[:, 1] - I[:, 0] <= GEOM_TOL * scale):
            raise InvalidDomainError("box intervals must have positive width")
        I.flags.writeable = False
        self.intervals = I

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def widths(self) -> np.ndarray:
        return self.intervals[:, 1] - self.intervals[:, 0]

    def to_polygon(self) -> Polygon2D:
        if self.dimension != 2:
            raise UnsupportedError("only 2-d boxes convert to polygons")
        (a0, b0), (a1, b1) = self.intervals
        return Polygon2D([(a0, a1), (b0, a1), (b0, b1), (a0, b1)])

    def __repr__(self):
        return f"BoxD({self.intervals.tolist()})"


class EllipsoidD:
    """Rotated ellipsoid: image of the unit ball under rotation @ diag(semi_axes)."""

    __slots__ = ("semi_axes", "rotation")

    def __init__(self, semi_axes, rotation=None):
        a = np.array(np.atleast_1d(semi_axes), dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise InvalidDomainError("semi_axes must be a one-dimensional array")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise InvalidDomainError("semi_axes must be positive and finite")
        d = a.size
        R = np.eye(d) if rotation is None else np.array(rotation, dtype=float)
        if R.shape != (d, d):
            raise InvalidDomainError("rotation must be a d x d matrix")
        if not np.all(np.isfinite(R)):
            raise InvalidDomainError("rotation entries must be finite")
        if np.abs(R.T @ R - np.eye(d)).max() > GEOM_TOL:
            raise InvalidDomainError("rotation must be orthogonal within 1e-12")
        a.flags.writeable = False
        R.flags.writeable = False
        self.semi_axes = a
        self.rotation = R

    @property
    def dimension(self) -> int:
        return self.semi_axes.size

    def __repr__(self):
        return f"EllipsoidD(semi_axes={self.semi_axes.tolist()})"


Domain = Polygon2D | BoxD | EllipsoidD


def measure(domain) -> float:
    """Lebesgue measure of the domain."""
    if isinstance(domain, Polygon2D):
        return domain.area
    if isinstance(domain, BoxD):
        return float(np.prod(domain.widths))
    if isinstance(domain, EllipsoidD):
        return unit_ball_volume(domain.dimension) * float(np.prod(domain.semi_axes))
    raise InvalidDomainError(f"unknown domain type {type(domain).__name__}")


def rotation_to_vertical(omega) -> np.ndarray:
    """2x2 orthogonal matrix sending the unit vector omega to the second axis."""
    w = omega.vector if isinstance(omega, Direction) else Direction(omega).vector
    if w.size != 2:
        raise InvalidDomainError("direction must have dimension 2")
    return np.array([[w[1], -w[0]], [w[0], w[1]]])


def _rotations(omega) -> np.ndarray:
    """(m, 2, 2) rotations, each sending one direction to the second axis:
    omega is one direction (checked as rotation_to_vertical checks it) or an
    (m, 2) stack of unit rows."""
    if np.ndim(omega) != 2:
        return rotation_to_vertical(omega)[None]
    W = np.array(omega, dtype=float)
    if W.shape[0] < 1 or W.shape[1] != 2:
        raise InvalidDomainError("a direction stack must be an (m, 2) array with m >= 1")
    if len(W) == 1:
        # a stack of one, as each golden-section point of the optimizers
        # slices, in Python floats: the same checks and bits at a fraction
        # of the array calls' overhead (np.linalg.norm of a row is the
        # square root of a * a + b * b)
        ((a, b),) = W.tolist()
        finite = math.isfinite(a) and math.isfinite(b)
        unit = finite and abs(math.sqrt(a * a + b * b) - 1.0) <= GEOM_TOL
    else:
        finite = bool(np.isfinite(W).all())
        unit = finite and not np.any(np.abs(np.linalg.norm(W, axis=1) - 1.0) > GEOM_TOL)
    if not finite:
        raise InvalidDomainError("direction entries must be finite")
    if not unit:
        raise InvalidDomainError("every direction of a stack must have unit norm")
    if len(W) == 1:
        return np.array([[[b, -a], [a, b]]])
    R = np.empty((len(W), 2, 2))
    R[:, 0, 0] = R[:, 1, 1] = W[:, 1]
    R[:, 0, 1] = -W[:, 0]
    R[:, 1, 0] = W[:, 0]
    return R


@dataclass(frozen=True)
class SlabDecomposition:
    """Per-slab connected components of slices along a direction.

    Between consecutive breakpoints the slice structure is combinatorially
    constant, so each connected component's length is affine in the offset t;
    it is stored by its values at the slab endpoints (``len_lo`` at
    ``slab_lo``, ``len_hi`` at ``slab_hi``), which stays well conditioned for
    near-vertical edges where an intercept/slope form cancels catastrophically.

    Components are ordered by direction row, slab and height. ``row`` holds
    each component's direction row (all 0 for one direction); for a stack,
    ``breakpoints`` concatenates the rows' breakpoints in row order.
    """

    breakpoints: np.ndarray
    slab_lo: np.ndarray
    slab_hi: np.ndarray
    len_lo: np.ndarray
    len_hi: np.ndarray
    row: np.ndarray


def slab_decomposition(polygon: Polygon2D, omega) -> SlabDecomposition:
    """Decompose the polygon into slabs between vertex projections, for one
    direction or for each row of an (m, 2) stack of directions.

    The rotated frame maps each direction to the second axis; slices run
    vertically and are parameterized by the first-axis offset. Sorted vertex
    projections merge into one breakpoint while each is within eps of the one
    before, and an edge covers exactly the slabs between the breakpoints of
    its two end vertices; one direction and a stack take the same rule. Each
    row is computed with the arithmetic of a lone direction, so its components
    are the same bits whatever stack it sits in.
    """
    # a stacked matmul gives the bits of one direction's V @ R.T
    V = np.matmul(polygon.vertices, _rotations(omega).transpose(0, 2, 1))
    m, n = V.shape[:2]
    eps = GEOM_TOL * np.maximum(np.abs(V).max(axis=(1, 2)), 1.0)
    px, py = V[..., 0], V[..., 1]
    # sorted projections and the vertex order that sorts them, from one argsort
    rows, by_x = np.arange(m)[:, None], px.argsort(axis=1)
    S = px[rows, by_x]
    keep = np.ones((m, n), dtype=bool)
    keep[:, 1:] = S[:, 1:] - S[:, :-1] > eps[:, None]
    if (keep.sum(axis=1) < 2).any():
        raise InvalidDomainError("polygon projection is degenerate in this direction")
    # the rows' breakpoints in one flat array: slab j runs from bps[j] to
    # bps[j + 1]
    bps = S[keep]
    # Each vertex belongs to the breakpoint its projection merged into (a
    # row's first sorted vertex is always kept, so a flat count of kept ones
    # is that breakpoint's index in bps). An edge covers exactly the slabs
    # between its two end vertices' breakpoints, a <= j < a + runs.
    group = np.empty((m, n), dtype=np.intp)
    group[rows, by_x] = keep.cumsum().reshape(m, n) - 1
    g_next = np.concatenate((group[:, 1:], group[:, :1]), axis=1)
    a, runs = np.minimum(group, g_next), np.abs(g_next - group)
    Vq = np.concatenate((V[:, 1:], V[:, :1]), axis=1)
    dx = Vq[..., 0] - px
    if (runs.sum(axis=1) == 0).any():
        raise InvalidDomainError("no edges cross the slab structure; polygon is degenerate")

    # one crossing per (edge, covered slab), edges in flat (row, edge) order
    runs = runs.ravel()
    (edges,) = runs.nonzero()
    k = runs[edges]
    e_idx = edges.repeat(k)
    s_idx = (a.ravel()[edges] - (k.cumsum() - k)).repeat(k) + np.arange(len(e_idx))
    # slab by slab; stable, so a slab's crossings stay in edge order. Keys
    # of 16 bits or fewer take NumPy's radix sort.
    order = s_idx.astype(np.min_scalar_type(len(bps))).argsort(kind="stable")
    e_idx, s_idx = e_idx[order], s_idx[order]
    counts = np.bincount(s_idx, minlength=len(bps))
    if (counts % 2 != 0).any():
        raise InvalidDomainError("odd crossing count in a slab; polygon is not simple here")

    # flat (row, edge) views, which e_idx indexes
    px, py = V.reshape(-1, 2).T
    qy, dx = Vq.reshape(-1, 2)[:, 1], dx.ravel()

    def edge_y(edges, *ts):
        # convex-combination interpolation along each edge: stable even for
        # steep edges, where slope-intercept evaluation loses digits
        x0, d, y0, y1 = px[edges], dx[edges], py[edges], qy[edges]
        for t in ts:
            s = (t - x0) / d
            yield (1.0 - s) * y0 + s * y1

    # order each slab's crossings by height at its middle, ties in edge
    # order: one compare for two crossings, a sort for more. Every slab
    # starts at an even position, so a pair's first crossing sits at one.
    t0, t1 = bps[s_idx], bps[s_idx + 1]
    (y,) = edge_y(e_idx, 0.5 * (t0 + t1))
    per = counts[s_idx]
    pair = 2 * (per[0::2] == 2).nonzero()[0]
    swap = pair[y[pair + 1] < y[pair]]
    e_idx[swap], e_idx[swap + 1] = e_idx[swap + 1], e_idx[swap]
    (many,) = (per > 2).nonzero()
    if len(many):
        # complex keys (slab, height) compare by slab, then height: a stable
        # argsort of them is a lexsort in one pass
        key = np.empty(len(many), dtype=complex)
        key.real, key.imag = s_idx[many], y[many]
        e_idx[many] = e_idx[many][key.argsort(kind="stable")]

    # consecutive crossings bound one component: lower edge, then upper
    y0, y1 = edge_y(e_idx, t0, t1)
    return SlabDecomposition(
        breakpoints=bps,
        slab_lo=t0[0::2],
        slab_hi=t1[0::2],
        len_lo=np.maximum(y0[1::2] - y0[0::2], 0.0),
        len_hi=np.maximum(y1[1::2] - y1[0::2], 0.0),
        row=e_idx[0::2] // n,
    )


def is_centrally_symmetric(polygon: Polygon2D) -> bool:
    """True when the vertex set is symmetric about its mean."""
    V = polygon.vertices
    if len(V) % 2 != 0:
        return False
    c = V.mean(axis=0)
    scale = max(1.0, float(np.abs(V).max()))
    grid = 1e-9 * scale  # vertices match their reflections to 1e-9 of the coordinate scale
    A = np.array(sorted(map(tuple, np.round(V / grid).astype(np.int64))))
    B = np.array(sorted(map(tuple, np.round((2.0 * c - V) / grid).astype(np.int64))))
    return bool(np.all(np.abs(A - B) <= 1))


def domain_from_json(obj) -> Domain:
    """Build a domain from its JSON dict form."""
    if not isinstance(obj, dict):
        raise InputError("domain JSON must be an object")
    kind = obj.get("kind")
    try:
        if kind == "polygon":
            return Polygon2D(obj["vertices"])
        if kind == "box":
            return BoxD(obj["intervals"])
        if kind == "ellipsoid":
            return EllipsoidD(obj["semi_axes"], obj.get("rotation"))
    except KeyError as exc:
        raise InputError(f"domain JSON is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad domain JSON: {exc}") from exc
    raise InputError(f"unknown domain kind {kind!r}")


def domain_to_json(domain) -> dict:
    if isinstance(domain, Polygon2D):
        return {"kind": "polygon", "vertices": domain.vertices.tolist()}
    if isinstance(domain, BoxD):
        return {"kind": "box", "intervals": domain.intervals.tolist()}
    if isinstance(domain, EllipsoidD):
        return {
            "kind": "ellipsoid",
            "semi_axes": domain.semi_axes.tolist(),
            "rotation": domain.rotation.tolist(),
        }
    raise InvalidDomainError(f"unknown domain type {type(domain).__name__}")
