"""P1 finite element solvers for the Dirichlet eigenvalue and torsion problems.

A quadratic seminorm H with Gram matrix Q (H(x)^2 = x^T Q x) has the Dirichlet
form integral(grad u . Q grad v). P1 elements are affine-equivariant, so this
form needs no remapped mesh: three stiffness matrices, assembled once per mesh
on the interior nodes (zero Dirichlet data eliminated), serve every Q,

    K_Q = Q11 Kxx + Q12 Kxy + Q22 Kyy     (Kxy the symmetrized cross term).

Each solve gives the torsion T_H = f^T K_Q^-1 f and lambda_H = min eig(K_Q, M)
by one of two branches, chosen by the number of interior nodes alone. Up to
`_DENSE_MAX` nodes, where per-call overhead outweighs arithmetic, the solve
runs in the frame of the mass matrix's Cholesky factor M = L L^T, computed
once per assembly. The pencil (K_Q, M) reduces to the standard symmetric
problem A_Q = L^-1 K_Q L^-T, which is linear in Q like K_Q. One dense Cholesky
factorization A_Q = C C^T (LAPACK `dpotrf`) gives T_H = |C^-1 g|^2 with
g = L^-1 f (`dtrtrs`), and LAPACK `dsyevr` the lowest eigenpair (mu, z) of
A_Q, whose generalized pair is (mu, L^-T z). Above `_DENSE_MAX`, the
assembly numbers its nodes along the principal axis of their coordinates,
which keeps K_Q in a narrow band (George & Liu, Computer Solution of Large
Sparse Positive Definite Systems, 1981). One LAPACK band Cholesky
factorization of K_Q (`dpbtrf`) gives the torsion and drives shift-invert
Lanczos (`_lowest`, one `dpbtrs` solve a step), started from the torsion
solution. Either eigenpair is accepted only when its generalized relative
residual is at most `_EIG_TOL`. Every solve returns both factors; the
Euclidean solver is the case Q = I. This is the discrete problem of the
Euclidean solve on the mapped mesh B Omega with B = diag(1/alpha) R^T:

    lambda_H(Omega) = lambda(B Omega),   T_H(Omega) = T(B Omega) * prod(alpha).

Each solve also returns the exact gradient of both factors in (Q11, Q12,
Q22) from the vectors it already holds (Hellmann-Feynman; Kato, Perturbation
Theory for Linear Operators, 1966): lambda_h is the minimum over y of the
Rayleigh quotient y^T K_Q y / y^T M y, linear in Q, and T_h the maximum over
w of 2 f^T w - w^T K_Q w, so d lambda / d Q_k = y^T K_k y / y^T M y at the
eigenvector and d T / d Q_k = -u^T K_k u at the torsion solution
u = K_Q^-1 f. On the dense branch these are z^T P_k z and -(x^T P_k x) over
the reduced parts P_k = L^-1 K_k L^-T, with x = A_Q^-1 g (one more
`dtrtrs`). lambda_h is thus concave and T_h convex in Q, and Euler's
identities lambda = Q . grad(lambda), T = -Q . grad(T) hold; the tangent
planes bound each factor on one side everywhere. A Richardson pair
extrapolates two meshes and has no gradient, so neither of its solves
computes one.

Only nondegenerate quadratics have a FEM problem here: a vanishing alpha is
rejected, and the zero seminorm raises its distinguished error.

The ellipse route lives here too: `_ellipse_lambda` solves the unit ellipse
of each aspect ratio on the mesh of its ladder anchor, stretched by a Gram
matrix, with its own ratio and anchor-mesh memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dstev, dsyevr, dtrtrs
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.linalg import cg  # noqa: F401  (unused; perfbench/tracer.py wraps this name)

from ..errors import DegenerateSeminormError, InvalidDomainError, InvalidSeminormError, SolverError
from ..geometry import Polygon2D, ellipse_polygon
from ..memo import Memo
from ..seminorms import QuadraticSeminorm, SolverConfig, Spectral
from .meshing import TriMesh, mesh_polygon

__all__ = [
    "SolverConfig",
    "lambda_euclid_fem",
    "solve_quadratic",
]

_EUCLID = np.eye(2)
# bound on the relative eigen-residual |K y - lambda M y| / (lambda |M y|)
_EIG_TOL = 1e-8
# cap on the shift-invert Lanczos steps, one band Cholesky solve (dpbtrs) each
_MAX_STEPS = 200
# assemblies with at most this many interior nodes are solved densely: on a
# 2-core host, one BLAS thread, the dense solve is the faster one below about
# 110 nodes (0.33 ms against 0.40 ms for band Cholesky and Lanczos at n = 99,
# 0.48 ms against 0.41 ms at n = 118, 0.87 against 0.44 at n = 154)
_DENSE_MAX = 100
# dsyevr's bisection tolerance: twice the underflow threshold (DLAMCH('S')),
# which LAPACK documents as the setting for the most accurate eigenvalues
_ABSTOL = 2.0 * np.finfo(float).tiny


def _local_matrices(mesh: TriMesh):
    """Per-triangle P1 stiffness parts (xx, symmetrized xy, yy), mass and load.
    The entries are computed on (3, m) rows, one per corner, and the four
    (3, 3, m) blocks are put triangle first by one transpose at the end."""
    T = mesh.triangles.T
    x, y = mesh.nodes[:, 0][T], mesh.nodes[:, 1][T]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    if np.any(area2 <= 0):
        raise SolverError("mesh contains a degenerate or flipped triangle")
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    scale = 2.0 * area2
    bc = b[:, None] * c[None, :]
    blocks = np.empty((4, 3, 3, len(area2)))
    np.divide(b[:, None] * b[None, :], scale, out=blocks[0])
    np.divide(bc + bc.transpose(1, 0, 2), scale, out=blocks[1])
    np.divide(c[:, None] * c[None, :], scale, out=blocks[2])
    np.multiply((np.ones((3, 3)) + np.eye(3))[:, :, None], area2 / 24.0, out=blocks[3])
    kxx, kxy, kyy, Mloc = np.ascontiguousarray(blocks.transpose(0, 3, 1, 2))
    return kxx, kxy, kyy, Mloc, np.repeat(area2 / 6.0, 3)


def p1_assemble(mesh: TriMesh):
    """Stiffness K, consistent mass M (CSR) and load vector f for P1 elements."""
    kxx, _, kyy, Mloc, load = _local_matrices(mesh)
    T = mesh.triangles
    rows = np.repeat(T, 3, axis=1).ravel()
    cols = np.tile(T, (1, 3)).ravel()
    n = mesh.n_nodes
    K = coo_matrix(((kxx + kyy).ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = coo_matrix((Mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    f = np.bincount(T.ravel(), weights=load, minlength=n)
    return K, M, f


def _band_order(points: np.ndarray) -> np.ndarray:
    """Order of the points by their projection on the principal axis of
    their coordinates, the top eigenvector of the 2 x 2 second-moment
    matrix: mesh neighbours stay close in it, so the stiffness matrix of a
    mesh numbered this way has a narrow band."""
    centred = points - points.mean(axis=0)
    axis = np.linalg.eigh(centred.T @ centred)[1][:, -1]
    return np.argsort(centred @ axis, kind="stable")


@dataclass(frozen=True)
class _Assembly:
    """P1 matrices of one mesh restricted to its interior nodes. The stiffness
    parts and the mass share one symmetric sparsity pattern, so a stored
    (indptr, indices) pair reads the same as CSR or CSC. `parts` stacks
    Kxx, Kxy and Kyy into one (3n, n) matrix whose data holds the three
    parts' stored entries one after another. The stored entries
    at `lower` are the pattern's lower triangle, and `band_slots` are their
    flat positions in the (n, half_band + 1) array whose transpose is LAPACK's
    lower band storage of K_Q. A mesh with more than `_DENSE_MAX` interior
    nodes numbers them in `_band_order`; a smaller one keeps the mesh's order
    and also keeps `dense` = (parts, L, g), and `_solve` takes its dense
    branch: L is the lower Cholesky factor of the dense M = L L^T,
    g = L^-1 f, and row k of parts (3 x n^2) is the reduced stiffness part
    L^-1 K L^-T for K = Kxx, Kxy, Kyy, so that (Q11, Q12, Q22) @ parts is
    A_Q = L^-1 K_Q L^-T flattened."""

    indptr: np.ndarray
    indices: np.ndarray
    parts: csr_matrix
    M: csc_matrix
    f: np.ndarray
    h: float
    half_band: int
    lower: np.ndarray
    band_slots: np.ndarray
    dense: tuple[np.ndarray, ...] | None

    @classmethod
    def of(cls, mesh: TriMesh) -> "_Assembly":
        kxx, kxy, kyy, Mloc, load = _local_matrices(mesh)
        free = mesh.interior_nodes()
        n = len(free)
        if n == 0:
            raise SolverError("mesh has no interior nodes; decrease target_h")
        if n > _DENSE_MAX:
            free = free[_band_order(mesh.nodes[free])]
        index = np.full(mesh.n_nodes, -1, dtype=np.int64)
        index[free] = np.arange(n)
        local = index[mesh.triangles]
        rows = np.repeat(local, 3, axis=1).ravel()
        cols = np.tile(local, (1, 3)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        # sorted row-major keys of the interior pattern, and each entry's slot
        keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(np.int32)
        indices = (keys % n).astype(np.int32)
        # entry (i, j), i >= j, sits at row i - j, column j of the band
        lower = np.flatnonzero(keys // n >= indices)
        below = keys[lower] // n - indices[lower]
        half_band = int(below.max())

        def gather(loc):
            return np.bincount(slot, weights=loc.ravel()[keep], minlength=len(keys))

        parts = [gather(loc) for loc in (kxx, kxy, kyy, Mloc)]
        f = np.bincount(mesh.triangles.ravel(), weights=load, minlength=mesh.n_nodes)[free]
        dense = None
        if n <= _DENSE_MAX:
            full = np.zeros((4, n * n))
            full[:, keys] = parts
            *stiff, M = full.reshape(4, n, n)
            L, info = dpotrf(M, lower=1)
            if info:
                raise SolverError(f"mass matrix Cholesky factorization failed (dpotrf info {info})")

            def reduced(K):
                A = dtrtrs(L, dtrtrs(L, K, lower=1)[0].T, lower=1)[0]
                return (A + A.T).ravel() * 0.5

            dense = (np.stack([reduced(K) for K in stiff]), L, dtrtrs(L, f, lower=1)[0])
        stacked = np.append(indptr[:-1] + np.arange(3)[:, None] * len(keys), 3 * len(keys))
        return cls(
            indptr=indptr,
            indices=indices,
            parts=csr_matrix((np.concatenate(parts[:3]), np.tile(indices, 3), stacked), shape=(3 * n, n)),
            M=csc_matrix((parts[3], indices, indptr), shape=(n, n)),
            f=f,
            h=mesh.h,
            half_band=half_band,
            lower=lower,
            band_slots=indices[lower].astype(np.int64) * (half_band + 1) + below,
            dense=dense,
        )

    def stiffness(self, Q) -> csc_matrix:
        """K_Q for the form integral(grad u . Q grad v), Q symmetric 2 x 2."""
        kxx, kxy, kyy = self.parts.data.reshape(3, -1)
        data = Q[0, 0] * kxx + Q[0, 1] * kxy + Q[1, 1] * kyy
        return csc_matrix((data, self.indices, self.indptr), shape=self.M.shape)


def _levels(mesh: TriMesh, cfg: SolverConfig) -> list[_Assembly]:
    """Assemblies of the mesh and, for a Richardson pair, of its refinement."""
    return [_Assembly.of(mesh), _Assembly.of(mesh.refined())] if cfg.richardson else [_Assembly.of(mesh)]


# the last polygon's assemblies: an optimizer solves one polygon at a time,
# under hundreds of seminorms
_ASSEMBLIES = Memo(1)


def _polygon_levels(polygon: Polygon2D, cfg: SolverConfig) -> list[_Assembly]:
    """The polygon's `_levels` under cfg, built once while it is the last
    polygon solved."""
    return _ASSEMBLIES.get_or((polygon.fingerprint, cfg), lambda: _levels(mesh_polygon(polygon, cfg.target_h), cfg))


# unit-ellipse eigenvalues by aspect ratio rounded to 1e-9, shared by every
# ellipsoid: discs of different radii under one seminorm meet the same
# ratios. Each value is a function of its key alone (see _ellipse_lambda).
_ELLIPSE_LAMBDA = Memo(8192)
_ELLIPSE_VERTICES = 256
# relative step of the ladder of anchor ratios whose meshes the ellipse
# route solves on: the ratios within one step share one mesh
_LADDER_STEP = 1e-3
# the last anchor meshes (about 40 KB each), by (anchor, h): a ladder band
# that an ellipse optimizer comes back to is refined and assembled again,
# but not meshed again. A two-exponent disc max sweep meshes 27 anchors and
# comes back to one (27 misses, 1 hit); a five-exponent one (q from 0.5 to
# 1.5) meshes 68 and comes back 56 times
_MESHES = Memo(16)


def _ladder_anchor(ratio: float) -> float:
    """The largest ladder point round((1 + _LADDER_STEP)**k, 9), k >= 0, not
    above ratio >= 1; the ladder starts at 1.0 exactly."""
    k = math.floor(math.log(ratio) / math.log1p(_LADDER_STEP))
    # the quotient may land one step off a ladder point either way
    points = (round((1.0 + _LADDER_STEP) ** j, 9) for j in (k - 1, k, k + 1))
    return max(p for p in points if p <= ratio)


def _ellipse_lambda(ratio: float, cfg: SolverConfig) -> Spectral:
    """Euclidean eigenvalue of the ellipse with semi-axes (ratio, 1) by FEM
    on an inscribed 256-gon, memoized because optimizer sweeps revisit ratios.

    The ratio is rounded to 1e-9, as its memo key is, and solved on the mesh
    of its ladder anchor r0 (`_ladder_anchor`), built for the (r0, 1) 256-gon
    at h = target_h * sqrt(r0) so that the element count stays roughly
    constant. P1 is affine-equivariant: stretching that mesh by ratio / r0
    along x meshes the (ratio, 1) 256-gon exactly, and its Euclidean problem
    is the anchor mesh's problem under the Gram matrix diag(s^2, 1),
    s = r0 / ratio. Nearby ratios thus share one polygon, mesh and assembly
    (`_ASSEMBLIES` keeps the last anchor's assemblies and `_MESHES` the last
    16 anchors' meshes, so a ratio whose anchor's mesh is memoized builds no
    polygon and meshes nothing), each value depends on (ratio, cfg) alone,
    and at a ladder point, ratio 1 among them, s = 1 and the solve is the
    Euclidean one on the ratio's own polygon."""
    # 1e-9 key granularity: ratios reached through different scalings of the
    # same seminorm differ by float roundoff and must land in one bucket
    ratio = round(float(ratio), 9)

    def solve():
        try:
            anchor = _ladder_anchor(ratio)
            h = cfg.target_h * math.sqrt(anchor)

            def levels():
                mesh = _MESHES.get_or((anchor, h), lambda: mesh_polygon(ellipse_polygon(anchor, 1.0, _ELLIPSE_VERTICES), h))
                return _levels(mesh, cfg)

            levels = _ASSEMBLIES.get_or((anchor, h, cfg.richardson), levels)
        except (InvalidDomainError, OverflowError) as exc:
            # the polygon is ours, not the caller's: a failed check, or a
            # ratio whose ladder leaves the float range, means the image
            # ellipse is too thin for its inscribed polygon
            raise SolverError(
                f"the image ellipse of aspect ratio {ratio:.6g} is too thin to solve: "
                f"its inscribed {_ELLIPSE_VERTICES}-gon fails the polygon checks ({exc})"
            ) from exc
        s = anchor / ratio
        lam, tor, h_used, err, _, prov, _ = _fem(levels, np.diag([s * s, 1.0]))
        # the stretch scales areas, and so the torsion, and x-lengths by 1 / s
        return Spectral(lam, tor / s, prov, prov, error_estimate=err, h_used=h_used / s)

    return _ELLIPSE_LAMBDA.get_or((ratio, cfg), solve)


def _lowest(K, M, solve, u):
    """(lambda, y, K y - lambda M y, M y): the lowest eigenpair of
    K y = lambda M y and its residual, by Lanczos on K^-1 M (self-adjoint in
    the M inner product) from u. A step is one solve(r) = K^-1 r and one
    product with M; keeping M V beside the basis V lets two classical
    Gram-Schmidt passes reorthogonalize fully at no extra product.
    The top Ritz pair's true residual is tested once |beta_k s_k| is small."""
    m = min(len(u), _MAX_STEPS)
    V, MV, alpha, beta = np.empty((m, len(u))), np.empty((m, len(u))), np.zeros(m), np.zeros(m)
    w, Mw = u, M @ u
    b = np.sqrt(w @ Mw)
    for k in range(m):
        V[k], MV[k] = w / b, Mw / b
        w = solve(MV[k])
        for _ in range(2):
            c = MV[: k + 1] @ w
            w -= c @ V[: k + 1]
            alpha[k] += c[k]
        Mw = M @ w
        b = beta[k] = np.sqrt(w @ Mw)
        # LAPACK tridiagonal eigensolver; its wrapper takes max(k, 1) off-diagonals
        theta, s, info = dstev(alpha[: k + 1], beta[: max(k, 1)])
        if info or not np.isfinite(b):
            raise SolverError(f"shift-invert Lanczos failed at step {k + 1} (beta {b}, dstev info {info})")
        lam, s = 1.0 / float(theta[-1]), s[:, -1]
        if abs(b * s[-1]) * lam <= _EIG_TOL:
            y, My = s @ V[: k + 1], s @ MV[: k + 1]
            r = K @ y - lam * My
            if np.linalg.norm(r) <= _EIG_TOL * lam * np.linalg.norm(My):
                return lam, y, r, My
    raise SolverError(f"shift-invert Lanczos did not converge in {m} steps")


def _torsion(value) -> float:
    torsion = float(value)
    if not np.isfinite(torsion):
        raise SolverError("torsion solve produced a non-finite value")
    return torsion


def _solve_sparse(a: _Assembly, Q, gradient: bool):
    """(torsion, lambda, K_Q y - lambda M y, M y, gradient) from one LAPACK
    band Cholesky factorization of K_Q (`dpbtrf`) and shift-invert Lanczos
    on its factor (`dpbtrs`). The gradient rows, when asked for, are
    y^T K_k y / y^T M y and -(u^T K_k u), u = K_Q^-1 f, over the stiffness
    parts K_k; otherwise the gradient is None."""
    K = a.stiffness(Q)
    band = np.zeros((len(a.f), a.half_band + 1))
    band.flat[a.band_slots] = K.data[a.lower]
    # the transpose is the Fortran-ordered band, factored in place
    c, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info:
        raise SolverError(f"band Cholesky factorization failed (dpbtrf info {info})")

    def solve(r):
        return dpbtrs(c, r, lower=1)[0]

    u = solve(a.f)
    lam, y, r, My = _lowest(K, a.M, solve, u)
    if not gradient:
        return _torsion(a.f @ u), lam, r, My, None
    rows = np.array([(a.parts @ x).reshape(3, -1) @ x for x in (y, u)])
    return _torsion(a.f @ u), lam, r, My, rows * ((1.0 / (y @ My),), (-1.0,))


def _solve_dense(a: _Assembly, Q, gradient: bool):
    """(torsion, lambda, K_Q y - lambda M y, M y, gradient) in the frame of
    M = L L^T: one dense Cholesky factorization A_Q = C C^T of
    A_Q = L^-1 K_Q L^-T gives the torsion g^T A_Q^-1 g = |C^-1 g|^2, and
    `dsyevr` the lowest eigenpair (lambda, z) of A_Q. With y = L^-T z,
    K_Q y - lambda M y = L (A_Q z - lambda z) and M y = L z. The gradient
    rows, when asked for, are (z^T P_k z) and -(x^T P_k x) over the reduced
    parts P_k, with x = A_Q^-1 g = C^-T C^-1 g, one more triangular solve;
    otherwise the gradient is None."""
    parts, L, g = a.dense
    A = np.dot((Q[0, 0], Q[0, 1], Q[1, 1]), parts).reshape(L.shape)
    c, info = dpotrf(A, lower=1)
    if info:
        raise SolverError(f"dense Cholesky factorization failed (dpotrf info {info})")
    v, _ = dtrtrs(c, g, lower=1)
    torsion = _torsion(v @ v)
    w, z, _, _, info = dsyevr(A, range="I", il=1, iu=1, abstol=_ABSTOL)
    if info:
        raise SolverError(f"dense eigensolver failed (dsyevr info {info})")
    lam, z = float(w[0]), z[:, 0]
    if not gradient:
        return torsion, lam, L @ (A @ z - lam * z), L @ z, None
    # both vectors' quadratic forms of the three parts from one product
    n = len(g)
    Z = np.array([z, dtrtrs(c, v, lower=1, trans=1)[0]])
    rows = np.matmul((Z @ parts.reshape(3 * n, n).T).reshape(2, 3, n), Z[:, :, None])[:, :, 0]
    rows[1] *= -1.0
    return torsion, lam, L @ (A @ z - lam * z), L @ z, rows


def _solve(a: _Assembly, Q, gradient: bool = True):
    """(lambda, torsion, gradient) for the form with Gram matrix Q. An
    assembly that keeps its reduced dense matrices takes one dense Cholesky
    factorization and `dsyevr` in the frame of M's Cholesky factor; a larger
    one takes one band Cholesky factorization and Lanczos. Either eigenpair
    is accepted only when its generalized relative residual |K_Q y - lambda
    M y| / (lambda |M y|) is at most `_EIG_TOL`. The gradient, when asked
    for, is the (2, 3) array of the derivatives of lambda and of the torsion
    in (Q11, Q12, Q22) (see the module docstring), and None otherwise."""
    torsion, lam, r, My, gradient = (_solve_sparse if a.dense is None else _solve_dense)(a, Q, gradient)
    residual = float(np.linalg.norm(r) / (lam * np.linalg.norm(My)))
    if not residual <= _EIG_TOL:
        raise SolverError(f"eigen-residual {residual:.3e} exceeds the bound {_EIG_TOL:.1e}")
    return lam, torsion, gradient


def _fem(levels: list[_Assembly], Q):
    """(lambda, torsion, h_used, lambda error, torsion error, provenance,
    gradient) on the first level, extrapolated from the second (its uniform
    refinement) under second-order convergence when there is one. Only a
    single level has a gradient; an extrapolated pair's is None, since
    its values are not those of one fixed discrete problem, and neither of
    its solves computes one."""
    single = len(levels) == 1
    lam, tor, gradient = _solve(levels[0], Q, single)
    if single:
        return lam, tor, levels[0].h, 0.0, 0.0, "fem", gradient
    lam_fine, tor_fine, _ = _solve(levels[1], Q, False)
    lam, err_lam = _extrapolate(lam, lam_fine)
    tor, err_tor = _extrapolate(tor, tor_fine)
    return lam, tor, levels[1].h, err_lam, err_tor, "fem_richardson", None


def _extrapolate(coarse, fine):
    """Richardson value and coarse/fine difference."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def lambda_euclid_fem(polygon: Polygon2D, cfg: SolverConfig = SolverConfig()) -> Spectral:
    """Euclidean first Dirichlet eigenvalue and torsional rigidity of a
    polygon by P1 FEM. error_estimate is the eigenvalue's."""
    lam, tor, h_used, err, _, prov, _ = _fem(_levels(mesh_polygon(polygon, cfg.target_h), cfg), _EUCLID)
    return Spectral(lam, tor, prov, prov, error_estimate=err, h_used=h_used)


def solve_quadratic(
    polygon: Polygon2D, H: QuadraticSeminorm, cfg: SolverConfig = SolverConfig()
) -> Spectral:
    """lambda_H and T_H on a polygon for a nondegenerate quadratic seminorm:
    one factorization of the anisotropic stiffness K_Q (Q the Gram matrix
    of H) on the polygon's mesh gives both. A vanishing alpha is rejected;
    the zero seminorm raises DegenerateSeminormError (lambda 0, torsion
    infinite).
    """
    if not isinstance(H, QuadraticSeminorm):
        raise InvalidSeminormError("solve_quadratic expects a QuadraticSeminorm")
    if H.dimension != 2:
        raise InvalidSeminormError("polygon solves are two-dimensional")
    codim = H.kernel_codim
    if codim == 0:
        raise DegenerateSeminormError("zero seminorm has lambda=0, T=infinity")
    if codim == 1:
        raise InvalidSeminormError("solve_quadratic needs a nondegenerate seminorm (eval_F slices a rank-1 one)")
    lam, tor, h_used, err_lam, err_tor, prov, _ = _fem(_polygon_levels(polygon, cfg), H.gram())
    return Spectral(lam, tor, prov, prov, error_estimate=max(err_lam, err_tor), h_used=h_used)
