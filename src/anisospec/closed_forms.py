"""Exact formulas for eigenvalues and torsional rigidities on special domains.

These serve both as fast paths for the evaluator and as oracles for the
numeric solvers. Everything here is closed-form arithmetic; the only special
function value used is the first zero of the Bessel function J0 (disc
eigenvalue), kept as a literal so that importing this module loads no SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSeminormError, InputError, InvalidDomainError, InvalidSeminormError, UnsupportedError
from .geometry import BoxD, Direction, unit_ball_volume

__all__ = [
    "kj_sequence_value",
    "lambda_euclid_ball",
    "lambda_rank1_ellipsoid",
    "m_tilde_q_ellipsoid",
    "q_threshold_ellipsoid",
    "rank1_box",
    "t_max_ellipsoid",
    "torsion_euclid_ellipsoid",
    "torsion_quadratic_ball",
    "torsion_rank1_ellipsoid",
    "unit_ball_volume",
]

# first zero of J0: the float scipy.special.jn_zeros(0, 1)[0] returns, bit for
# bit (0x1.33d152e971b3fp+1)
_J01 = 2.4048255576957724


def _axes(a) -> np.ndarray:
    a = np.asarray(np.atleast_1d(a), dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise InvalidDomainError("semi-axes must form a one-dimensional vector")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise InvalidDomainError("semi-axes must be positive and finite")
    return a


def _unit(v, d: int) -> np.ndarray:
    v = v.vector if isinstance(v, Direction) else np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise InvalidSeminormError(f"direction must have dimension {d}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-12:
        raise InvalidSeminormError("direction must be a unit vector")
    return v


def lambda_euclid_ball(d: int) -> float:
    """First Dirichlet eigenvalue of the unit ball under the Euclidean norm.

    Implemented for d = 1 (pi^2/4 on (-1, 1)) and d = 2 (square of the first
    J0 zero). Higher dimensions would need a Bessel j_{d/2-1} root table.
    """
    if d == 1:
        return math.pi**2 / 4.0
    if d == 2:
        return _J01**2
    raise UnsupportedError(f"ball eigenvalue implemented only for d in (1, 2), got d={d}")


def torsion_euclid_ellipsoid(a) -> float:
    """Euclidean torsional rigidity of the axis-aligned ellipsoid with semi-axes a.

    T = omega_d/(d+2) * prod(a) / sum(1/a_i^2).
    """
    a = _axes(a)
    d = a.size
    return unit_ball_volume(d) / (d + 2.0) * float(np.prod(a)) / float(np.sum(a**-2.0))


def lambda_rank1_ellipsoid(a, v) -> float:
    """Eigenvalue of the ellipsoid with semi-axes a for H(x) = |<x, v>|, |v| = 1.

    lambda = (pi^2/4) * sum(v_i^2 / a_i^2): the sliced one-dimensional problem
    is extremal on the longest chord parallel to v.
    """
    a = _axes(a)
    v = _unit(v, a.size)
    return math.pi**2 / 4.0 * float(np.sum(v**2 / a**2))


def torsion_rank1_ellipsoid(a, v) -> float:
    """Torsion of the ellipsoid with semi-axes a for H(x) = |<x, v>|, |v| = 1.

    T = omega_d/(d+2) * prod(a) / sum(v_i^2 / a_i^2).
    """
    a = _axes(a)
    v = _unit(v, a.size)
    d = a.size
    return unit_ball_volume(d) / (d + 2.0) * float(np.prod(a)) / float(np.sum(v**2 / a**2))


def rank1_box(box: BoxD, axis: int = -1) -> tuple[float, float]:
    """(eigenvalue, torsion) of a box for the coordinate projection H = |x_axis|.

    With L the box width along the chosen axis: lambda = pi^2 / L^2 and
    T = L^3/12 times the product of the remaining widths.
    """
    if not isinstance(box, BoxD):
        raise InvalidDomainError("rank1_box expects a BoxD")
    w = box.widths
    d = box.dimension
    axis = axis % d
    L = float(w[axis])
    rest = float(np.prod(np.delete(w, axis))) if d > 1 else 1.0
    return math.pi**2 / L**2, L**3 / 12.0 * rest


def torsion_quadratic_ball(alphas) -> float:
    """Torsion of the unit ball for H(x) = |diag(alphas) x| (any orthogonal frame).

    T = omega_d/(d+2) / sum(alpha_i^2); rotation-invariant on the ball.
    """
    a = np.asarray(np.atleast_1d(alphas), dtype=float)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise InvalidSeminormError("alphas must be nonnegative and finite")
    s = float(np.sum(a**2))
    if s <= 0.0:
        raise DegenerateSeminormError("zero seminorm has lambda=0, T=infinity")
    d = a.size
    return unit_ball_volume(d) / (d + 2.0) / s


def m_tilde_q_ellipsoid(a, q: float) -> tuple[float, Direction]:
    """Minimum of lambda_H * T_H^q over unit-norm rank-1 seminorms on the
    axis-aligned ellipsoid with semi-axes a, valid for q <= 1.

    value = pi^2 |E|^q / (4 (d+2)^q) * (max a_i)^(2(q-1)); the minimizing
    direction points along a longest semi-axis (first one on ties).
    """
    if q > 1.0:
        raise UnsupportedError("formula valid only for q <= 1")
    a = _axes(a)
    d = a.size
    vol = unit_ball_volume(d) * float(np.prod(a))
    amax = float(np.max(a))
    value = math.pi**2 * vol**q / (4.0 * (d + 2.0) ** q) * amax ** (2.0 * (q - 1.0))
    e = np.zeros(d)
    e[int(np.argmax(a))] = 1.0
    return value, Direction(e)


def t_max_ellipsoid(a) -> float:
    """Maximum of T_H over unit-norm rank-1 seminorms on the ellipsoid:
    attained along a longest axis, value omega_d/(d+2) * prod(a) * (max a)^2."""
    a = _axes(a)
    d = a.size
    return unit_ball_volume(d) / (d + 2.0) * float(np.prod(a)) * float(np.max(a)) ** 2


def q_threshold_ellipsoid(a) -> float:
    """Exponent above which rank-1 seminorms are strictly suboptimal for
    minimizing lambda_H * T_H^q on the ellipsoid with descending semi-axes a:
    q = 1 + log 2 / log(1 + a_d^2 / a_{d-1}^2)."""
    a = _axes(a)
    if a.size < 2:
        raise InvalidDomainError("threshold needs at least two semi-axes")
    if np.any(np.diff(a) > 0):
        raise InvalidDomainError("semi-axes must be sorted descending")
    r = float(a[-1] ** 2 / a[-2] ** 2)
    return 1.0 + math.log(2.0) / math.log(1.0 + r)


def kj_sequence_value(d: int, k: int, q: float, n: int) -> float:
    """Value of lambda * T^q on the n-th member of the thin-slab product
    sequence that drives the functional to zero over codimension-k seminorms.

    The n-th domain is a product of a shrinking slab and a ball of radius n
    in the k active coordinates; lambda = lambda(B^k)/n^2 and T = n^2/(k(k+2)),
    so the value is n^(2q-2) * lambda(B^k) * (k(k+2))^(-q), valid for q < 1.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidDomainError("need an integer dimension d >= 2")
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= d - 1:
        raise InvalidSeminormError(f"k must lie in 1..{d - 1}")
    if q >= 1.0:
        raise UnsupportedError("branch out of scope")
    if not math.isfinite(q):
        raise InputError("q must be finite")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDomainError("n must be a positive integer")
    lam_ball = lambda_euclid_ball(int(k))
    return float(n) ** (2.0 * q - 2.0) * lam_ball * (k * (k + 2.0)) ** (-q)
