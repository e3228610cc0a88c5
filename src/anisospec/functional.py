"""The eigenvalue-torsion product and its optimization over seminorm classes.

The quantity of interest is the product lambda_H(Omega) * T_H(Omega)^q. Both
factors are monotone in H but in opposite directions, so the product has a
genuine optimization landscape over normalized seminorms. This module
evaluates the product through the cheapest exact route available (closed
form, then slicing, then FEM) and searches two normalized families:

  rank-1:    H(xi) = |<xi, (cos t, sin t)>|,              t in [0, pi)
  quadratic: H(xi)^2 = <xi, u>^2 + a^2 <xi, u_perp>^2,    a in [0, 1]

where u = (cos t, sin t). Fixing the larger coefficient to 1 keeps the
operator norm at 1, and a = 0 is exactly the rank-1 boundary of the family.

`_route` is the only code that picks a route. It takes a batch of seminorms
of one class in array form and sends the whole batch to one solver, and
`_spectra` memoizes each batch for the domain being evaluated. `eval_F`
routes a batch of one through `_spectral`, the rank-1 optimizer its whole
angle scan, and the quadratic optimizer its grid: the rank-1 boundary
column, then the inner cells, as one batch or, on a polygon at one FEM
level, on every other angle in midpoint batches that skip the cells the
solves' exact gradients prove worse than the grid optimum (`_pruned_grid`).
From an inner grid optimum on such a polygon the quadratic optimizer
polishes with the same gradients (`_polish`), one batch of one a point,
from the best cells of the two best angles; every other quadratic optimum,
and the rank-1 optimizer's best scan angle, is refined by golden sections.
Degenerate quadratics (one alpha = 0) are exactly rank-1 and go to the exact
slicing solver or to a closed form; the zero seminorm is rejected as a
distinguished error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    lambda_rank1_ellipsoid,
    rank1_box,
    torsion_euclid_ellipsoid,
    torsion_rank1_ellipsoid,
)
from .errors import (
    DegenerateSeminormError,
    InputError,
    InvalidDomainError,
    InvalidSeminormError,
    UnsupportedError,
)
from .geometry import (
    BoxD,
    EllipsoidD,
    Polygon2D,
    is_centrally_symmetric,
    measure,
)
from .memo import Memo
from .seminorms import QuadraticSeminorm, Rank1Seminorm, Seminorm, SolverConfig, Spectral
from .slicing import _rank1_scan

__all__ = [
    "BoundCheck",
    "BoundsReport",
    "FunctionalValue",
    "OptimizationReport",
    "QSweep",
    "eval_F",
    "optimize_quadratic",
    "optimize_rank1",
    "q_sweep",
    "verify_bounds",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# below this coefficient the transformed domain is so stretched that FEM adds
# nothing over the exact degenerate (slicing) route; the ellipsoid route is
# floored earlier because its eigensolve cost grows with the aspect ratio
# (the low eigenvalues cluster), while the polygon route solves every alpha
# on the polygon's own mesh, where only the stiffness weights change
_ALPHA_FLOOR = 5e-3
_ALPHA_FLOOR_ELLIPSOID = 2.5e-2
# relative distance from the best value within which optimize_rank1 takes
# a scan angle's value as a tie, and the spread of values below which a
# golden section of optimize_quadratic keeps its coordinate: far above
# rounding (a few ulps on the disc), far below the scan's 1-degree steps
_TIE = 1e-12
# relative margin by which a grid cell's bound must be worse than the best
# grid value before the cell is left unsolved, far above the rounding in
# the solves and the bounds
_PRUNE_MARGIN = 1e-9
# relative bound on how far the solves of Q(theta, 1), which is I up to
# rounding, stray from the Euclidean solve: far above that rounding
_EUCLID_SLACK = 1e-12
# the quadratic grid's steps in (theta, alpha): the rank-1 boundary column's
# angle step (a polygon's inner cells take every other angle), the golden
# sections' first half-widths and the polish's unit lengths
_GRID_STEPS = (math.pi / 36.0, 0.05)
# the polish stops once its quasi-Newton model promises less than this
# relative gain, a few times the rounding in one FEM value
_POLISH_GAIN = 1e-14
# a cap on the polish's steps, above the at most 31 evaluations it has taken
# on stars and the L-shape at q from 1 to 3
_POLISH_STEPS = 40


@dataclass(frozen=True)
class FunctionalValue:
    """One evaluation of lambda_H * T_H^q with per-factor provenance."""

    q: float
    lambda_: float
    torsion: float
    value: float
    seminorm: Seminorm
    lambda_provenance: str
    torsion_provenance: str
    error_estimate: float = 0.0


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a search over one normalized seminorm family.

    theta is the strong-axis angle; alpha is the transverse coefficient for
    the quadratic family (None for rank-1). boundary_flag records whether the
    optimum sits on the rank-1 boundary of the family. trace holds every
    (parameters, value) evaluation: the scan or the grid cells solved, in
    angle or theta-major order, then the refinement's points in order: the
    golden-section points, or, after a quadratic polish, the points of each
    of its two runs, the alpha = 0 point at the better end's angle and any
    golden-section points from there. On a polygon at one FEM level the
    quadratic grid solves inner cells on every other angle only, and leaves
    out those proved worse than its optimum.
    """

    mode: str
    seminorm_class: str
    theta: float
    alpha: float | None
    value: float
    boundary_flag: bool
    best: FunctionalValue
    trace: tuple


@dataclass(frozen=True)
class QSweep:
    qs: tuple
    reports: tuple
    threshold_bracket: tuple | None

    @property
    def empirical_threshold(self) -> float | None:
        """Smallest swept q whose optimum has left the rank-1 boundary."""
        return None if self.threshold_bracket is None else self.threshold_bracket[1]


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float | None
    rhs: float | None
    satisfied: bool | None
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    measure: float
    lambda_: float
    torsion: float
    product: float
    checks: tuple
    lambda_provenance: str = "unknown"
    torsion_provenance: str = "unknown"


# spectral values of the current domain only: optimizers and sweeps revisit
# seminorms on the domain they are solving, never on one they have left
_SPECTRAL = Memo(1)


def _domain_key(domain):
    if isinstance(domain, Polygon2D):
        return ("polygon", domain.fingerprint)
    if isinstance(domain, BoxD):
        return ("box", domain.intervals.tobytes())
    return ("ellipsoid", domain.semi_axes.tobytes(), domain.rotation.tobytes())


def _rank1_ellipsoid(domain: EllipsoidD, unit, scale: float) -> tuple:
    v = domain.rotation.T @ unit
    lam = lambda_rank1_ellipsoid(domain.semi_axes, v) * scale**2
    tor = torsion_rank1_ellipsoid(domain.semi_axes, v) / scale**2
    return lam, tor, "closed_form", "closed_form"


def _rank1_box(domain: BoxD, unit, scale: float) -> tuple:
    axis = int(np.argmax(np.abs(unit)))
    if abs(abs(unit[axis]) - 1.0) <= 1e-12:
        lam, tor = rank1_box(domain, axis)
        return lam * scale**2, tor / scale**2, "closed_form", "closed_form"
    if domain.dimension == 2:
        return _rank1_scan(domain.to_polygon(), unit[None], [scale])[0]
    raise UnsupportedError("rank-1 box solves above dimension 2 need an axis-aligned direction")


def _spectral(domain, H, cfg: SolverConfig) -> Spectral:
    """lambda_H and T_H of the pair: check dimensions, turn a 2-D box under a
    quadratic H into its polygon, reject the zero seminorm, reduce a
    degenerate quadratic H to its rank-1 part, then route it as a batch of
    one (see _spectra)."""
    if not isinstance(domain, (Polygon2D, BoxD, EllipsoidD)):
        raise InvalidDomainError(f"unsupported domain type {type(domain).__name__}")
    if not isinstance(H, (Rank1Seminorm, QuadraticSeminorm)):
        raise InvalidSeminormError(f"unsupported seminorm type {type(H).__name__}")
    d = 2 if isinstance(domain, Polygon2D) else domain.dimension
    if H.dimension != d:
        raise InvalidSeminormError(f"the seminorm is {H.dimension}-dimensional, the domain {d}-dimensional")
    if isinstance(H, QuadraticSeminorm):
        if isinstance(domain, BoxD) and d == 2:
            domain = domain.to_polygon()
        codim = H.kernel_codim
        if codim == 0:
            raise DegenerateSeminormError("zero seminorm has lambda=0, T=infinity")
        if codim < d:
            if codim > 1:
                raise UnsupportedError("partially degenerate quadratic seminorms are out of scope")
            H = Rank1Seminorm(H.alphas[0] * H.rotation[:, 0])
    batch = ("rank1", H.eta[None]) if isinstance(H, Rank1Seminorm) else ("quadratic", H.rotation[None], H.alphas[None])
    return Spectral(*_spectra(domain, batch, cfg)[0][:6])


def _spectra(domain, batch, cfg: SolverConfig) -> list:
    """_route's rows for the batch, memoized per domain under one key shape:
    (class, the batch arrays' bytes, cfg)."""
    per_domain = _SPECTRAL.get_or(_domain_key(domain), lambda: Memo(8192))
    key = (batch[0], b"".join(a.tobytes() for a in batch[1:]), cfg)
    return per_domain.get_or(key, lambda: _route(domain, batch, cfg))


def _route(domain, batch, cfg: SolverConfig) -> list:
    """The one dispatcher from (domain, seminorms) to spectral values: one
    tuple per seminorm of the batch, in Spectral's field order, from the
    route of (domain type, seminorm class). A batch holds one class in array
    form: ("rank1", eta) with one row of eta (m x d) per seminorm, or
    ("quadratic", rotations, alphas) of shapes (m, d, d) and (m, d), every
    row nondegenerate. A polygon's rank-1 batch is one slicing scan, its
    quadratic batch one `_fem` solve per Gram matrix on the polygon's
    assemblies; an ellipse's quadratic batch takes its image ellipses'
    semi-axes from one stacked SVD and each row's eigenvalue from the
    ellipse route; other ellipsoid and box rows go one by one to their
    closed forms or the slicing of a box's polygon. A quadratic row
    adds a seventh field, `_fem`'s gradient in (Q11, Q12, Q22): a (2, 3)
    array on a polygon at one FEM level, None on a Richardson pair and on
    the ellipse route."""
    if batch[0] == "rank1":
        eta = batch[1]
        # operator norms and unit rows as Rank1Seminorm computes them:
        # np.linalg.norm(eta) is the square root of eta.dot(eta)
        norms = [math.sqrt(w.dot(w)) for w in eta]
        units = eta / np.array(norms)[:, None]
        if isinstance(domain, Polygon2D):
            return _rank1_scan(domain, units, norms)
        solve = _rank1_ellipsoid if isinstance(domain, EllipsoidD) else _rank1_box
        return [solve(domain, unit, t) for unit, t in zip(units, norms)]
    _, rotations, alphas = batch
    if isinstance(domain, Polygon2D):
        from .fem.solver import _fem, _polygon_levels  # the FEM layer (and SciPy) loads on first use

        levels = _polygon_levels(domain, cfg)
        # each Gram matrix as QuadraticSeminorm.gram() multiplies it; a
        # column's sign leaves every product, and so Q, bit for bit the same
        fems = (_fem(levels, R @ np.diag(a**2) @ R.T) for R, a in zip(rotations, alphas))
        return [(lam, tor, prov, prov, max(err_lam, err_tor), h, grad) for lam, tor, h, err_lam, err_tor, prov, grad in fems]
    if isinstance(domain, EllipsoidD):
        if domain.dimension != 2:
            raise UnsupportedError("no eigenvalue solver for quadratic seminorms on ellipsoids above dimension 2")
        from .fem.solver import _ellipse_lambda  # the FEM layer (and SciPy) loads on first use

        # semi-axes of each image ellipse B E, B = diag(1/alpha) R^T, in
        # descending order; lambda_H(E) and T_H(E) depend on nothing else. One
        # stacked SVD of diag(1/alpha) @ R^T @ R_E @ diag(a_E), each product
        # taken in a lone row's order and layout, gives every row's own bits
        inverse = (1.0 / alphas)[:, :, None] * np.eye(2)  # each diag(1/alpha), as np.diag builds it
        M = inverse @ rotations.transpose(0, 2, 1) @ domain.rotation @ np.diag(domain.semi_axes)
        rows = []
        for axes, det_scale in zip(np.linalg.svd(M)[1], np.prod(alphas, axis=1).tolist()):
            unit = _ellipse_lambda(float(axes[0] / axes[1]), cfg)
            s = float(axes[1])  # the image is the (ratio, 1) ellipse scaled by s
            lam, err = unit.lambda_ / s**2, unit.error_estimate / s**2
            tor = torsion_euclid_ellipsoid(axes) * det_scale
            rows.append((lam, tor, unit.lambda_provenance, "closed_form", err, unit.h_used * s, None))
        return rows
    raise UnsupportedError("no solver for quadratic seminorms on boxes above dimension 2")


def _exponent(q) -> float:
    q = float(q)
    if not np.isfinite(q):
        raise InputError("q must be finite")
    return q


def eval_F(domain, H: Seminorm, q: float, cfg: SolverConfig = SolverConfig()) -> FunctionalValue:
    """Evaluate lambda_H(Omega) * T_H(Omega)^q.

    Routes: closed form where one exists (ellipsoids and axis-aligned boxes
    with rank-1 seminorms, ellipsoid torsion for quadratic ones), exact
    slicing for rank-1 seminorms on polygons, FEM otherwise. Normalization of
    H is the caller's concern; the scaling laws make the product behave as
    t^(2-2q) under H -> tH.
    """
    q = _exponent(q)
    sp = _spectral(domain, H, cfg)
    value = sp.lambda_ * sp.torsion**q
    # first-order propagation of the factor error onto the product
    err = sp.error_estimate * (sp.torsion**q + abs(q) * sp.lambda_ * sp.torsion ** (q - 1.0))
    return FunctionalValue(
        q=q,
        lambda_=sp.lambda_,
        torsion=sp.torsion,
        value=float(value),
        seminorm=H,
        lambda_provenance=sp.lambda_provenance,
        torsion_provenance=sp.torsion_provenance,
        error_estimate=float(err),
    )


def _family_seminorm(theta: float, alpha: float) -> Seminorm:
    c, s = math.cos(theta), math.sin(theta)
    if alpha <= 0.0:
        return Rank1Seminorm((c, s))
    return QuadraticSeminorm([[c, -s], [s, c]], [1.0, alpha])


def _as_planar_domain(domain):
    if isinstance(domain, BoxD):
        return domain.to_polygon()
    if isinstance(domain, (Polygon2D, EllipsoidD)):
        if isinstance(domain, EllipsoidD) and domain.dimension != 2:
            raise UnsupportedError("optimization is implemented for planar domains")
        return domain
    raise InvalidDomainError(f"unsupported domain type {type(domain).__name__}")


def _augment_directions(domain) -> np.ndarray:
    """Edge normals, vertex-pair directions (polygons) or principal axes
    (ellipses); guards against optima missed by the uniform angle grid."""
    if isinstance(domain, EllipsoidD):
        R = domain.rotation
        return np.array([math.atan2(R[1, j], R[0, j]) for j in range(2)])
    V = domain.vertices
    E = np.roll(V, -1, axis=0) - V
    i, j = np.triu_indices(len(V), 1)
    if len(i) > 2048:
        stride = len(i) // 2048 + 1
        i, j = i[::stride], j[::stride]
    D = V[j] - V[i]
    return np.concatenate([np.arctan2(E[:, 1], E[:, 0]), np.arctan2(E[:, 0], -E[:, 1]), np.arctan2(D[:, 1], D[:, 0])])


def _golden(f, lo: float, hi: float, tol: float):
    """Golden-section minimization of f on [lo, hi]; returns (x, f(x))."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _family_gradient(row, theta: float, alpha: float, q: float) -> tuple:
    """lambda * T**q of a quadratic `_route` row at (theta, alpha) of the
    family and its derivatives in theta and alpha, from the row's gradient in
    (Q11, Q12, Q22) through Q11 = c^2 + a^2 s^2, Q12 = c s (1 - a^2),
    Q22 = s^2 + a^2 c^2."""
    lam, tor, grad = row[0], row[1], row[6]
    value = lam * tor**q
    c, s, a2 = math.cos(theta), math.sin(theta), alpha * alpha
    dq = np.array([[-2.0 * c * s, c * c - s * s, 2.0 * c * s], [2.0 * alpha * s * s, -2.0 * alpha * c * s, 2.0 * alpha * c * c]])
    dq[0] *= 1.0 - a2
    return value, dq @ (value * (grad[0] / lam + q * grad[1] / tor))


def _armijo(fg, x, phi: float, g, p, scale, floor: float):
    """(x_new, s, phi_new, g_new) of the first of x + t * p, t = 1, 1/2, ...,
    2**-9, with alpha clipped to [floor, 1], that meets Armijo's condition
    phi_new <= phi + 1e-4 g . s for the step s, in grid steps; None when none
    does or the clipping turns the step uphill."""
    for t in 0.5 ** np.arange(10.0):
        x_new = x + t * p * scale
        x_new[1] = min(max(x_new[1], floor), 1.0)
        s = (x_new - x) / scale
        if not g @ s < 0.0:
            return None
        phi_new, g_new = fg(*x_new.tolist())
        if phi_new <= phi + 1e-4 * (g @ s):
            return x_new, s, phi_new, g_new * scale
    return None


def _polish(fg, theta: float, alpha: float, phi: float, g, floor: float) -> tuple:
    """Projected BFGS on phi(theta, alpha), which fg returns with its
    gradient, from (theta, alpha), where they are phi and g: theta is free,
    and alpha stays in [floor, 1] and is held at a bound the gradient presses
    against. It works in grid steps (one unit a cell), takes at most one
    cell a step, and stops when its model promises a relative gain below
    _POLISH_GAIN or `_armijo` finds no step. Returns the last point, theta
    folded into [0, pi), and its phi."""
    scale = np.array(_GRID_STEPS)
    x = np.array([theta, alpha])
    g = g * scale
    B = None
    for _ in range(_POLISH_STEPS):
        free = np.array([True, not ((x[1] <= floor and g[1] > 0.0) or (x[1] >= 1.0 and g[1] < 0.0))])
        if not g[free].any():
            # stationary, as at alpha = 1, where Q is I at every theta
            break
        p = np.zeros(2)
        if B is None:
            # half a cell down the gradient
            p[free] = -0.5 * g[free] / np.linalg.norm(g[free])
        else:
            p[free] = -np.linalg.solve(B[np.ix_(free, free)], g[free])
            if -(g @ p) < 2.0 * _POLISH_GAIN * abs(phi):
                break
            p /= max(1.0, np.linalg.norm(p))
        step = _armijo(fg, x, phi, g, p, scale, floor)
        if step is None:
            break
        x_new, s, phi, g_new = step
        y = g_new - g
        if s @ y > 0.0:
            if B is None:
                B = (y @ y) / (s @ y) * np.eye(2)
            Bs = B @ s
            B = B + np.outer(y, y) / (s @ y) - np.outer(Bs, Bs) / (s @ Bs)
        x, g = x_new, g_new
    return float(x[0] % math.pi), float(x[1]), phi


def _check_mode(mode: str) -> float:
    if mode not in ("min", "max"):
        raise InputError("mode must be 'min' or 'max'")
    return 1.0 if mode == "min" else -1.0


def _rank1_angles(domain) -> np.ndarray:
    """The angles optimize_rank1 scans: 180 uniform ones and the domain's own
    directions, folded into [0, pi) and deduplicated to 1e-12."""
    base = np.arange(180) * (math.pi / 180.0)
    thetas = np.concatenate([base, _augment_directions(domain) % math.pi])
    return np.unique(np.round(thetas, 12))


def _family_batch(thetas, alphas=None) -> tuple:
    """The family seminorms _family_seminorm(t, a) of paired angles and
    coefficients as one batch for _spectra: without alphas the rank-1 rows
    (cos t, sin t), with them rotations [[c, -s], [s, c]] and alphas (1, a).
    math.cos and math.sin give _family_seminorm's bits, where np.cos may not."""
    u = np.column_stack([np.fromiter(map(f, thetas), float, len(thetas)) for f in (math.cos, math.sin)])
    if alphas is None:
        return ("rank1", u)
    # columns (c, s) and (-s, c); the sign flip is exact
    rotations = np.stack([u, u[:, ::-1] * (-1.0, 1.0)], axis=2)
    return ("quadratic", rotations, np.column_stack([np.ones(len(u)), alphas]))


def optimize_rank1(domain, q: float, mode: str = "min") -> OptimizationReport:
    """Best rank-1 seminorm direction for the product at exponent q.

    Scans 180 uniform angles augmented with the domain's own directions
    (edge normals and vertex pairs, or principal axes), then refines the best
    bracket by golden section to angular tolerance 1e-6. All evaluations are
    exact (slicing or closed form). A scan angle whose value is within
    1e-12 relative of the best ties with it, and ties resolve to the smallest
    scan angle, so the report does not hang on rounding where the optimum
    is flat; a golden-section point is reported only when it beats every
    scan angle by more than that.
    """
    domain = _as_planar_domain(domain)
    sign = _check_mode(mode)
    q = _exponent(q)
    cfg = SolverConfig()

    thetas = _rank1_angles(domain)
    rows = _spectra(domain, _family_batch(thetas.tolist()), cfg)
    # the scan values are eval_F's, lambda * T**q on Python floats
    trace = [(t % math.pi, row[0] * row[1] ** q) for t, row in zip(thetas.tolist(), rows)]

    def f(theta: float) -> float:
        val = eval_F(domain, _family_seminorm(theta, 0.0), q, cfg).value
        trace.append((float(theta % math.pi), val))
        return sign * val

    values = np.array([sign * val for _, val in trace])
    i = int(np.argmin(values))
    lo = thetas[i - 1] if i > 0 else thetas[-1] - math.pi
    hi = thetas[i + 1] if i + 1 < len(thetas) else thetas[0] + math.pi
    _golden(f, float(lo), float(hi), 1e-6)

    # scan values within _TIE of the best tie with it, and a tie goes to the
    # smallest scan angle (on the disc every angle ties up to rounding);
    # otherwise the best golden-section point wins, ties to the smaller angle
    best_theta, best_val = min(trace, key=lambda e: (sign * e[1], e[0]))
    tied = np.flatnonzero(values <= sign * best_val + _TIE * abs(best_val))
    if len(tied):
        best_theta, best_val = trace[int(tied[np.argmin(thetas[tied] % math.pi)])]
    best = eval_F(domain, _family_seminorm(best_theta, 0.0), q, cfg)
    return OptimizationReport(
        mode=mode,
        seminorm_class="rank1",
        theta=float(best_theta),
        alpha=None,
        value=float(best_val),
        boundary_flag=True,
        best=best,
        trace=tuple(trace),
    )


def _default_quadratic_cfg(domain) -> SolverConfig:
    # ellipsoids reuse a cached unit-ratio eigenvalue per aspect ratio, so
    # the extrapolated solve is affordable there; polygon grids pay per cell
    if isinstance(domain, EllipsoidD):
        return SolverConfig(target_h=0.1, richardson=True)
    return SolverConfig(target_h=0.12)


def _pruned_grid(domain, thetas: list, alphas: list, q: float, sign: float, best: float, cfg: SolverConfig) -> dict:
    """_route's rows of the inner grid cells (theta, alpha) that can beat
    best, the lowest sign * value met so far; each cell left out is proved
    worse than the grid optimum.

    On one polygon mesh lambda_h(Q) is a minimum and T_h(Q) a maximum of
    functions linear in Q, and Q(theta, alpha) = I - beta u_perp u_perp^T is
    affine in beta = 1 - alpha^2. So a solved cell's tangent planes
    Q . grad(lambda) and 2 T + Q . grad(T) bound lambda from above and T
    from below at every cell, and down each theta column lambda is concave
    and T convex in beta: between two known cells lambda lies above its
    chord and T below its chord. Q(theta, 1) is I up to rounding, so the
    Euclidean cell (theta = 0, alpha = 1) gives the alpha = 1 cell of every
    column, to within _EUCLID_SLACK, and its tangent planes. From the
    alpha[0] cells and that one, each round solves, as one batch, every
    such alpha = 1 cell and the midpoint of every column interval where the
    bound on sign * lambda * T**q of some cell, from the chords and the
    tangents at the interval's ends, is within _PRUNE_MARGIN of best."""
    m, k = len(thetas), len(alphas)
    a2 = np.square(alphas)
    c = np.fromiter(map(math.cos, thetas), float, m)[:, None]
    s = np.fromiter(map(math.sin, thetas), float, m)[:, None]
    # (Q11, Q12, Q22) of every cell and its beta, the position down its column
    Q = np.stack([c * c + a2 * s * s, c * s * (1.0 - a2), s * s + a2 * c * c])
    beta = 1.0 - a2
    # every known cell's lambda from below and T from above, which the
    # chords take, and the T and gradient that its tangent planes take
    lam_lo, tor_hi, tor = np.zeros((m, k)), np.zeros((m, k)), np.zeros((m, k))
    grad = np.zeros((2, 3, m, k))
    solved = np.zeros((m, k), dtype=bool)
    known = solved.copy()
    known[:, -1] = True
    index, column = np.arange(k), np.arange(m)[:, None]
    rows = {}
    flat = np.sort(np.append(np.arange(m) * k, k - 1))
    while len(flat):
        cols, slots = flat // k, flat % k
        new = _spectra(domain, _family_batch([thetas[i] for i in cols], [alphas[j] for j in slots]), cfg)
        for i, j, row in zip(cols.tolist(), slots.tolist(), new):
            rows[(thetas[i], alphas[j])] = row
            # the grid values are eval_F's, lambda * T**q on Python floats
            best = min(best, sign * (row[0] * row[1] ** q))
        lam_lo[cols, slots] = [row[0] for row in new]
        tor_hi[cols, slots] = tor[cols, slots] = [row[1] for row in new]
        grad[:, :, cols, slots] = np.moveaxis([row[6] for row in new], 0, -1)
        solved[cols, slots] = known[cols, slots] = True
        euclid = ~solved[:, -1]
        lam_lo[euclid, -1] = lam_lo[0, -1] * (1.0 - _EUCLID_SLACK)
        tor_hi[euclid, -1] = tor[0, -1] * (1.0 + _EUCLID_SLACK)
        tor[euclid, -1], grad[:, :, euclid, -1] = tor[0, -1], grad[:, :, :1, -1]
        # each cell's nearest known cells a <= cell <= b, the chords between
        # them and their tangent planes; a known cell is its own chord
        a = np.maximum.accumulate(np.where(known, index, -1), axis=1)
        b = np.minimum.accumulate(np.where(known, index, k)[:, ::-1], axis=1)[:, ::-1]
        w = np.where(known, 0.0, (beta - beta[a]) / np.where(known, 1.0, beta[b] - beta[a]))
        lam_chord = (1.0 - w) * lam_lo[column, a] + w * lam_lo[column, b]
        tor_chord = (1.0 - w) * tor_hi[column, a] + w * tor_hi[column, b]
        at_a, at_b = ((grad[:, :, column, e] * Q).sum(axis=1) for e in (a, b))
        lam_tangent = np.minimum(at_a[0], at_b[0])
        tor_tangent = np.maximum(2.0 * tor[column, a] + at_a[1], 2.0 * tor[column, b] + at_b[1])
        # bound sign * lambda * T**q from below: lambda from below when
        # minimizing, and T from below when that makes T**q smaller
        lam_b = lam_chord if sign > 0 else lam_tangent
        tor_b = tor_tangent if (sign > 0) == (q >= 0) else tor_chord
        ok = (lam_b > 0.0) & (tor_b > 0.0)
        bound = sign * np.where(ok, lam_b, 1.0) * np.where(ok, tor_b, 1.0) ** q
        live = ~solved & (~ok | (bound <= best + _PRUNE_MARGIN * abs(best)))
        # each live cell's interval midpoint, itself for an alpha = 1 cell
        flat = np.unique((column * k + (a + b) // 2)[live])
    return rows


def optimize_quadratic(domain, q: float, mode: str = "min", cfg: SolverConfig | None = None) -> OptimizationReport:
    """Best seminorm in the normalized quadratic family at exponent q.

    Coarse grid over (theta, alpha): 36 angles by 21 alphas, alpha = 0
    evaluated by the exact degenerate route, then a refinement from the
    grid's first best cell in theta-major order. On ellipses and Richardson
    pairs the inner cells (alpha > 0) go to _route as one batch. On a
    polygon at one FEM level, whose solves carry exact gradients, only the
    18 even angles (every 10 degrees) have inner cells, solved in rounds of
    midpoint batches that leave out every cell that concavity bounds prove
    worse than the grid optimum (`_pruned_grid`): about 20 (min) to 40
    (max) of the 360 on the benchmark's stars. A grid optimum on the
    alpha = 0 column or an even angle is the full grid's. From an inner best
    cell of such a polygon, a projected quasi-Newton polish on those
    gradients (`_polish`, alpha in [5e-3, 1]) runs from the first best
    inner cell of each of the two best angles, since a lone start can end
    in a worse basin, and keeps the better end, ties to the smaller angle;
    then the exact alpha = 0 value at that angle is evaluated and, if it is
    better, the golden-section refinement below runs from there. Every
    other start (a rank-1 boundary cell, or any cell of an ellipsoid or a
    Richardson pair, which carry no gradient) is refined by alternating
    golden sections in alpha, then theta, each round's brackets a third as
    wide, until neither moves its coordinate by 1e-4. A section whose
    values differ by no more than _TIE relative (rounding, as every theta
    on a disc or at alpha = 1) keeps its coordinate; its points stay in the
    trace. A sweep over exponents solves the alpha = 0 column and the first
    pruning batch once. Tiny alpha is snapped to the rank-1 boundary (below
    5e-3 for polygons, 2.5e-2 for ellipsoids, where the stretched
    eigensolve stops paying for itself), and the
    boundary flag reports alpha* = 0.
    """
    domain = _as_planar_domain(domain)
    sign = _check_mode(mode)
    q = _exponent(q)
    if cfg is None:
        cfg = _default_quadratic_cfg(domain)
    floor = _ALPHA_FLOOR_ELLIPSOID if isinstance(domain, EllipsoidD) else _ALPHA_FLOOR

    def snap(alpha) -> float:
        return 0.0 if alpha < floor else min(float(alpha), 1.0)

    def f(theta: float, alpha: float, gradient: bool = False):
        # eval_F's batch of one and value, so that the report's
        # re-evaluation is a memo hit; with the gradient when asked for
        theta, alpha = float(theta % math.pi), snap(alpha)
        H = _family_seminorm(theta, alpha)
        batch = ("quadratic", H.rotation[None], H.alphas[None]) if alpha > 0.0 else ("rank1", H.eta[None])
        row = _spectra(domain, batch, cfg)[0]
        val, grad = _family_gradient(row, theta, alpha, q) if gradient else (row[0] * row[1] ** q, None)
        trace.append(((theta, alpha), float(val)))
        return (sign * val, sign * grad) if gradient else sign * val

    def section(g, lo: float, hi: float, kept: float) -> float:
        # a golden section's minimizer, or the kept coordinate when the
        # values it evaluated differ only by rounding (_TIE relative)
        start = len(trace)
        x, _ = _golden(g, lo, hi, 1e-5)
        values = [val for _, val in trace[start:]]
        flat = max(values) - min(values) <= _TIE * max(map(abs, values))
        return kept if flat else x

    def refine(theta: float, alpha: float) -> None:
        d_theta, d_alpha = _GRID_STEPS
        for _ in range(24):
            new_alpha = snap(section(lambda a: f(theta, a), max(0.0, alpha - d_alpha), min(1.0, alpha + d_alpha), alpha))
            new_theta = section(lambda t: f(t, new_alpha), theta - d_theta, theta + d_theta, theta)
            moved = max(abs(new_alpha - alpha), abs(new_theta - theta))
            theta, alpha = float(new_theta % math.pi), new_alpha
            d_theta = max(d_theta / 3.0, 1e-5)
            d_alpha = max(d_alpha / 3.0, 1e-5)
            if moved < 1e-4:
                break

    theta_grid = (np.arange(36) * (math.pi / 36.0)).tolist()
    alpha_grid = [snap(a) for a in np.linspace(0.0, 1.0, 21)]
    cells = [(t, a) for t in theta_grid for a in alpha_grid]
    rows = dict(zip([(t, 0.0) for t in theta_grid], _spectra(domain, _family_batch(theta_grid), cfg)))
    # the polygon route at one FEM level is the one whose rows carry gradients
    gradients = isinstance(domain, Polygon2D) and not cfg.richardson
    if gradients:
        best = min(sign * (row[0] * row[1] ** q) for row in rows.values())
        # the inner cells on every other angle, each bit for bit a full-grid cell
        rows.update(_pruned_grid(domain, theta_grid[::2], alpha_grid[1:], q, sign, best, cfg))
    else:
        inner = [cell for cell in cells if cell[1] > 0.0]
        rows.update(zip(inner, _spectra(domain, _family_batch(*zip(*inner)), cfg)))
    # the solved cells in theta-major order, and the first best among them:
    # every cell left out of a solved column is worse, so where the full
    # grid's optimum is on the boundary or a solved column it is that cell
    trace = [(cell, float(rows[cell][0] * rows[cell][1] ** q)) for cell in cells if cell in rows]
    theta, alpha = trace[int(np.argmin([sign * val for _, val in trace]))][0]
    if gradients and alpha > 0.0:
        # the polish runs from the first best inner cells of the two best
        # columns, since a lone start on every other angle can end in a
        # worse basin, and keeps the better end, ties to the smaller angle
        columns = {}
        for cell, val in trace:
            if cell[1] > 0.0:
                columns.setdefault(cell[0], []).append((sign * val, cell))
        ends = []
        for _, (t, a) in sorted(map(min, columns.values()))[:2]:
            val, grad = _family_gradient(rows[(t, a)], t, a, q)
            ends.append(_polish(lambda theta, alpha: f(theta, alpha, True), t, a, sign * val, sign * grad, floor))
        theta, alpha, phi = min(ends, key=lambda e: (e[2], e[0]))
        # the rank-1 boundary at the polished angle, refined as before if it wins
        if f(theta, 0.0) < phi:
            refine(theta, 0.0)
    else:
        refine(theta, alpha)

    (best_theta, best_alpha), best_val = min(trace, key=lambda e: (sign * e[1], e[0]))
    best = eval_F(domain, _family_seminorm(best_theta, best_alpha), q, cfg)
    return OptimizationReport(
        mode=mode,
        seminorm_class="quadratic",
        theta=float(best_theta),
        alpha=float(best_alpha),
        value=float(best_val),
        boundary_flag=best_alpha == 0.0,
        best=best,
        trace=tuple(trace),
    )


def q_sweep(domain, q_list, mode: str = "min", seminorm_class: str = "quadratic", cfg: SolverConfig | None = None) -> QSweep:
    """Optimize at each q and bracket where the optimum leaves the rank-1
    boundary (the flag's first true-to-false flip along the sweep)."""
    qs = [float(q) for q in q_list]
    if len(qs) == 0:
        raise InputError("q_sweep needs at least one exponent")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise InputError("q grid must be strictly increasing")
    if seminorm_class == "quadratic":
        reports = tuple(optimize_quadratic(domain, q, mode, cfg) for q in qs)
    elif seminorm_class == "rank1":
        reports = tuple(optimize_rank1(domain, q, mode) for q in qs)
    else:
        raise InputError("seminorm_class must be 'rank1' or 'quadratic'")
    bracket = None
    for i in range(1, len(reports)):
        if reports[i - 1].boundary_flag and not reports[i].boundary_flag:
            bracket = (qs[i - 1], qs[i])
            break
    return QSweep(qs=tuple(qs), reports=reports, threshold_bracket=bracket)


def verify_bounds(domain, H: Seminorm, cfg: SolverConfig = SolverConfig()) -> BoundsReport:
    """Check the product lambda_H * T_H against the measure-based bounds.

    Always checks product <= |Omega|. For rank-1 seminorms on convex domains
    additionally checks product <= pi^2 |Omega| / 12, and on convex domains
    the lower bound pi^2 |Omega| / (4 k d^(s(d+2)) (d+2)) with s = 1/2 for
    centrally symmetric domains and s = 1 otherwise. Bounds that need
    convexity are skipped (with a note) on non-convex domains.
    """
    sp = _spectral(domain, H, cfg)
    k = H.kernel_codim
    product = sp.lambda_ * sp.torsion
    vol = measure(domain)
    d = H.dimension
    slack = 3.0 * sp.error_estimate * (sp.lambda_ + sp.torsion) + 1e-12 * max(1.0, vol)
    # boxes and ellipsoids are convex and centrally symmetric
    polygon = isinstance(domain, Polygon2D)
    convex = domain.is_convex if polygon else True

    checks = [
        BoundCheck(
            name="product_measure_upper",
            lhs=product,
            rhs=vol,
            satisfied=bool(product <= vol + slack),
        )
    ]
    if k != 1:
        checks.append(
            BoundCheck("rank1_upper", None, None, None, note="applies to rank-1 seminorms only")
        )
    elif not convex:
        checks.append(
            BoundCheck("rank1_upper", None, None, None, note="needs a convex domain (interval slices)")
        )
    else:
        rhs = math.pi**2 * vol / 12.0
        checks.append(BoundCheck("rank1_upper", product, rhs, bool(product <= rhs + slack)))
    if not convex:
        checks.append(
            BoundCheck("convex_lower", None, None, None, note="needs a convex domain")
        )
    else:
        s = 0.5 if not polygon or is_centrally_symmetric(domain) else 1.0
        rhs = math.pi**2 * vol / (4.0 * k * float(d) ** (s * (d + 2)) * (d + 2))
        checks.append(BoundCheck("convex_lower", product, rhs, bool(product >= rhs - slack)))

    return BoundsReport(
        measure=float(vol),
        lambda_=sp.lambda_,
        torsion=sp.torsion,
        product=float(product),
        checks=tuple(checks),
        lambda_provenance=sp.lambda_provenance,
        torsion_provenance=sp.torsion_provenance,
    )
