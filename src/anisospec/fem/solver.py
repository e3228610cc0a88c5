"""P1 finite element solvers for the Dirichlet eigenvalue and torsion problems.

A quadratic seminorm H with Gram matrix Q (H(x)^2 = x^T Q x) has the Dirichlet
form integral(grad u . Q grad v). P1 elements are affine-equivariant, so this
form needs no remapped mesh: three stiffness matrices, assembled once per mesh
on the interior nodes (zero Dirichlet data eliminated), serve every Q,

    K_Q = Q11 Kxx + Q12 Kxy + Q22 Kyy     (Kxy the symmetrized cross term).

One sparse LU factorization of K_Q gives the torsion T_H = f^T K_Q^-1 f and
drives shift-invert Lanczos (`_lowest`) for lambda_H = min eig(K_Q, M),
started from the torsion solution and accepted only when its relative
residual is at most `_EIG_TOL`. Every solve returns both factors; the
Euclidean solver is the case Q = I. This is the discrete problem of the
Euclidean solve on the mapped mesh B Omega with B = diag(1/alpha) R^T:

    lambda_H(Omega) = lambda(B Omega),   T_H(Omega) = T(B Omega) * prod(alpha).

Only nondegenerate quadratics have a FEM problem here: a vanishing alpha is
rejected, and the zero seminorm raises its distinguished error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstev
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import cg  # noqa: F401  (unused; perfbench/tracer.py wraps this name)

from ..errors import DegenerateSeminormError, InvalidSeminormError, SolverError
from ..geometry import Polygon2D, _cross2
from ..memo import Memo
from ..seminorms import QuadraticSeminorm, Spectral
from .meshing import TriMesh, mesh_polygon

__all__ = [
    "SolverConfig",
    "lambda_euclid_fem",
    "solve_quadratic",
]

_EUCLID = np.eye(2)
# bound on the relative eigen-residual |K y - lambda M y| / (lambda |M y|)
_EIG_TOL = 1e-8
# cap on the shift-invert Lanczos steps, one solve with the LU factors each
_MAX_STEPS = 200


@dataclass(frozen=True)
class SolverConfig:
    """Discretization controls for the FEM solvers: the target mesh size and
    whether to extrapolate from a nested mesh pair (Richardson)."""

    target_h: float = 0.05
    richardson: bool = False

    def __post_init__(self):
        if not (self.target_h > 0):
            raise ValueError("target_h must be positive")


def _local_matrices(mesh: TriMesh):
    """Per-triangle P1 stiffness parts (xx, symmetrized xy, yy), mass and load."""
    T = mesh.triangles
    P = mesh.nodes[T]
    x, y = P[..., 0], P[..., 1]
    area2 = _cross2(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    if np.any(area2 <= 0):
        raise SolverError("mesh contains a degenerate or flipped triangle")
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    scale = (2.0 * area2)[:, None, None]
    bb = b[:, :, None] * b[:, None, :]
    cc = c[:, :, None] * c[:, None, :]
    bc = b[:, :, None] * c[:, None, :]
    Mloc = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area2 / 24.0)[:, None, None]
    return bb / scale, (bc + bc.transpose(0, 2, 1)) / scale, cc / scale, Mloc, np.repeat(area2 / 6.0, 3)


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


@dataclass(frozen=True)
class _Assembly:
    """P1 matrices of one mesh restricted to its interior nodes. The stiffness
    parts and the mass share one symmetric sparsity pattern, so a stored
    (indptr, indices) pair reads the same as CSR or CSC."""

    indptr: np.ndarray
    indices: np.ndarray
    kxx: np.ndarray
    kxy: np.ndarray
    kyy: np.ndarray
    M: csc_matrix
    f: np.ndarray
    h: float

    @classmethod
    def of(cls, mesh: TriMesh) -> "_Assembly":
        kxx, kxy, kyy, Mloc, load = _local_matrices(mesh)
        free = mesh.interior_nodes()
        n = len(free)
        if n == 0:
            raise SolverError("mesh has no interior nodes; decrease target_h")
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

        def gather(loc):
            return np.bincount(slot, weights=loc.ravel()[keep], minlength=len(keys))

        return cls(
            indptr=indptr,
            indices=indices,
            kxx=gather(kxx),
            kxy=gather(kxy),
            kyy=gather(kyy),
            M=csc_matrix((gather(Mloc), indices, indptr), shape=(n, n)),
            f=np.bincount(mesh.triangles.ravel(), weights=load, minlength=mesh.n_nodes)[free],
            h=mesh.h,
        )

    def stiffness(self, Q) -> csc_matrix:
        """K_Q for the form integral(grad u . Q grad v), Q symmetric 2 x 2."""
        data = Q[0, 0] * self.kxx + Q[0, 1] * self.kxy + Q[1, 1] * self.kyy
        return csc_matrix((data, self.indices, self.indptr), shape=self.M.shape)


def _levels(polygon: Polygon2D, cfg: SolverConfig) -> list[_Assembly]:
    """Assemblies of the polygon's mesh and, for a Richardson pair, of its refinement."""
    mesh = mesh_polygon(polygon, cfg.target_h)
    return [_Assembly.of(mesh), _Assembly.of(mesh.refined())] if cfg.richardson else [_Assembly.of(mesh)]


# the last polygon's assemblies: an optimizer solves one polygon at a time,
# under hundreds of seminorms
_ASSEMBLIES = Memo(1)


def _lowest(K, M, lu, u):
    """(lambda, y, M y), the lowest eigenpair of K y = lambda M y, by Lanczos
    on K^-1 M (self-adjoint in the M inner product) from u. A step is one LU
    solve and one product with M; keeping M V beside the basis V lets two
    classical Gram-Schmidt passes reorthogonalize fully at no extra product.
    The top Ritz pair's true residual is tested once |beta_k s_k| is small."""
    m = min(len(u), _MAX_STEPS)
    V, MV, alpha, beta = np.empty((m, len(u))), np.empty((m, len(u))), np.zeros(m), np.zeros(m)
    w, Mw = u, M @ u
    b = np.sqrt(w @ Mw)
    for k in range(m):
        V[k], MV[k] = w / b, Mw / b
        w = lu.solve(MV[k])
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
            if np.linalg.norm(K @ y - lam * My) <= _EIG_TOL * lam * np.linalg.norm(My):
                return lam, y, My
    raise SolverError(f"shift-invert Lanczos did not converge in {m} steps")


def _solve(a: _Assembly, Q):
    """(lambda, torsion) for the form with Gram matrix Q from one sparse LU
    factorization of K_Q."""
    K = a.stiffness(Q)
    # K_Q is symmetric positive definite: symmetric ordering, no pivoting
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc
    u = lu.solve(a.f)
    torsion = float(a.f @ u)
    if not np.isfinite(torsion):
        raise SolverError("torsion solve produced a non-finite value")
    lam, y, My = _lowest(K, a.M, lu, u)
    residual = float(np.linalg.norm(K @ y - lam * My) / (lam * np.linalg.norm(My)))
    if not residual <= _EIG_TOL:
        raise SolverError(f"eigen-residual {residual:.3e} exceeds the bound {_EIG_TOL:.1e}")
    return lam, torsion


def _fem(levels: list[_Assembly], Q):
    """(lambda, torsion, h_used, lambda error, torsion error, provenance) on
    the first level, extrapolated from the second (its uniform refinement)
    under second-order convergence when there is one."""
    lam, tor = _solve(levels[0], Q)
    if len(levels) == 1:
        return lam, tor, levels[0].h, 0.0, 0.0, "fem"
    lam_fine, tor_fine = _solve(levels[1], Q)
    lam, err_lam = _extrapolate(lam, lam_fine)
    tor, err_tor = _extrapolate(tor, tor_fine)
    return lam, tor, levels[1].h, err_lam, err_tor, "fem_richardson"


def _extrapolate(coarse, fine):
    """Richardson value and coarse/fine difference."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def lambda_euclid_fem(polygon: Polygon2D, cfg: SolverConfig = SolverConfig()) -> Spectral:
    """Euclidean first Dirichlet eigenvalue and torsional rigidity of a
    polygon by P1 FEM. error_estimate is the eigenvalue's."""
    lam, tor, h_used, err, _, prov = _fem(_levels(polygon, cfg), _EUCLID)
    return Spectral(lam, tor, prov, prov, error_estimate=err, h_used=h_used)


def solve_quadratic(
    polygon: Polygon2D, H: QuadraticSeminorm, cfg: SolverConfig = SolverConfig()
) -> Spectral:
    """lambda_H and T_H on a polygon for a nondegenerate quadratic seminorm:
    one LU factorization of the anisotropic stiffness K_Q (Q the Gram matrix
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
    levels = _ASSEMBLIES.get_or((polygon.fingerprint, cfg.target_h, cfg.richardson), lambda: _levels(polygon, cfg))
    lam, tor, h_used, err_lam, err_tor, prov = _fem(levels, H.gram())
    return Spectral(lam, tor, prov, prov, error_estimate=max(err_lam, err_tor), h_used=h_used)
