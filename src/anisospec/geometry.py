"""Planar polygons, boxes and ellipsoids, plus the slab machinery used by the
slicing solver.

Conventions:

* ``Polygon2D`` vertices are counter-clockwise, simple, first vertex not
  repeated.
* ``slab_decomposition`` rotates the plane so the requested direction maps
  to the second coordinate axis; offsets are measured along the first axis of
  the rotated frame.
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


def _shoelace(V: np.ndarray) -> float:
    x, y = V[:, 0], V[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segment_pairs_intersect(p1, q1, P2, Q2, eps):
    """True where segment (p1,q1) meets any of the segments (P2[i],Q2[i]).

    Shared endpoints count as intersections; callers exclude adjacent edges.
    """
    r = q1 - p1
    s = Q2 - P2
    d1 = _cross2(s, p1 - P2)
    d2 = _cross2(s, q1 - P2)
    d3 = _cross2(r, P2 - p1)
    d4 = _cross2(r, Q2 - p1)
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


def _assert_simple(V: np.ndarray, eps: float) -> None:
    n = len(V)
    P = V
    Q = np.roll(V, -1, axis=0)
    for i in range(n - 2):
        j0 = i + 2
        j1 = n - 1 if i == 0 else n
        if j0 >= j1:
            continue
        if _segment_pairs_intersect(P[i], Q[i], P[j0:j1], Q[j0:j1], eps):
            raise InvalidDomainError("polygon edges intersect: not a simple polygon")


class Polygon2D:
    """Simple planar polygon, counter-clockwise, positive signed area."""

    __slots__ = ("vertices", "is_convex", "fingerprint")

    def __init__(self, vertices, check_simple: bool = True):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise InvalidDomainError("polygon needs an (n, 2) vertex array with n >= 3")
        if not np.all(np.isfinite(V)):
            raise InvalidDomainError("polygon vertices must be finite")
        scale = max(1.0, float(np.abs(V).max()))
        gaps = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
        if np.any(gaps <= GEOM_TOL * scale):
            raise InvalidDomainError("polygon has repeated consecutive vertices")
        eps = GEOM_TOL * scale * scale
        area2 = 2.0 * _shoelace(V)
        if area2 <= eps:
            if area2 < -eps:
                raise InvalidDomainError(
                    "polygon vertices must be counter-clockwise (signed area is negative)"
                )
            raise InvalidDomainError("polygon is degenerate (zero signed area)")
        if check_simple and len(V) > 3:
            _assert_simple(V, eps)
        E = np.roll(V, -1, axis=0) - V
        turns = _cross2(E, np.roll(E, -1, axis=0))
        V.flags.writeable = False
        self.vertices = V
        self.is_convex = bool(np.all(turns >= -eps))
        # one bytes object per polygon, shared by every cache key built from it
        self.fingerprint = V.tobytes()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    def __repr__(self):
        return f"Polygon2D(<{self.n_vertices} vertices>, area={self.area:.6g})"


def ellipse_polygon(a: float, b: float, n: int = 256) -> Polygon2D:
    """n-gon inscribed in the axis-aligned ellipse with semi-axes (a, b)."""
    if a <= 0 or b <= 0:
        raise InvalidDomainError("ellipse semi-axes must be positive")
    if n < 3:
        raise InvalidDomainError("ellipse polygon needs n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    V = np.column_stack([a * np.cos(ang), b * np.sin(ang)])
    return Polygon2D(V, check_simple=False)


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
        return Polygon2D([(a0, a1), (b0, a1), (b0, b1), (a0, b1)], check_simple=False)

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


def _dedup_sorted(vals: np.ndarray, eps: float) -> np.ndarray:
    if len(vals) == 0:
        return vals
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = np.diff(vals) > eps
    return vals[keep]


@dataclass(frozen=True)
class SlabDecomposition:
    """Per-slab connected components of slices along a direction.

    Between consecutive breakpoints the slice structure is combinatorially
    constant, so each connected component's length is affine in the offset t;
    it is stored by its values at the slab endpoints (``len_lo`` at
    ``slab_lo``, ``len_hi`` at ``slab_hi``), which stays well conditioned for
    near-vertical edges where an intercept/slope form cancels catastrophically.
    """

    breakpoints: np.ndarray
    slab_lo: np.ndarray
    slab_hi: np.ndarray
    len_lo: np.ndarray
    len_hi: np.ndarray


def slab_decomposition(polygon: Polygon2D, omega) -> SlabDecomposition:
    """Decompose the polygon into slabs between vertex projections.

    The rotated frame maps omega to the second axis; slices run vertically and
    are parameterized by the first-axis offset.
    """
    R = rotation_to_vertical(omega)
    V = polygon.vertices @ R.T
    scale = max(1.0, float(np.abs(V).max()))
    eps = GEOM_TOL * scale
    xs = V[:, 0]
    bps = _dedup_sorted(np.sort(xs), eps)
    if len(bps) < 2:
        raise InvalidDomainError("polygon projection is degenerate in this direction")

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
    if len(e_idx) == 0:
        raise InvalidDomainError("no edges cross the slab structure; polygon is degenerate")

    def edge_y(edges, ts):
        # convex-combination interpolation along each edge: stable even for
        # steep edges, where slope-intercept evaluation loses digits
        s = (ts - px[edges]) / dx[edges]
        return (1.0 - s) * py[edges] + s * qy[edges]

    order = np.lexsort((edge_y(e_idx, tm[s_idx]), s_idx))
    e_sorted = e_idx[order]
    s_sorted = s_idx[order]
    counts = np.bincount(s_sorted, minlength=len(t0))
    if np.any(counts % 2 != 0):
        raise InvalidDomainError("odd crossing count in a slab; polygon is not simple here")
    starts = np.concatenate([[0], np.cumsum(counts)])
    rank = np.arange(len(s_sorted)) - starts[s_sorted]
    lo_mask = rank % 2 == 0
    e_lo = e_sorted[lo_mask]
    e_hi = e_sorted[~lo_mask]
    s_comp = s_sorted[lo_mask]
    len_lo = edge_y(e_hi, t0[s_comp]) - edge_y(e_lo, t0[s_comp])
    len_hi = edge_y(e_hi, t1[s_comp]) - edge_y(e_lo, t1[s_comp])
    return SlabDecomposition(
        breakpoints=bps,
        slab_lo=t0[s_comp],
        slab_hi=t1[s_comp],
        len_lo=np.maximum(len_lo, 0.0),
        len_hi=np.maximum(len_hi, 0.0),
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
