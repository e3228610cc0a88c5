"""Rank-1 and quadratic seminorms on R^d.

A rank-1 seminorm is H(x) = |<x, eta>|; a quadratic seminorm is
H(x) = |diag(alphas) R^T x| for an orthogonal R and nonnegative alphas.
Both are immutable; every operation returns a new object. `Spectral` is the
record every route returns for one (domain, seminorm) pair, and
`SolverConfig` the FEM settings a route takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSeminormError

SEMINORM_TOL = 1e-12


class Rank1Seminorm:
    """H(x) = |<x, eta>|; vanishes on the hyperplane orthogonal to eta."""

    __slots__ = ("eta",)

    def __init__(self, eta):
        e = np.array(np.atleast_1d(eta), dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise InvalidSeminormError("eta must be a one-dimensional vector")
        if not np.all(np.isfinite(e)):
            raise InvalidSeminormError("eta entries must be finite")
        if np.linalg.norm(e) <= SEMINORM_TOL:
            raise InvalidSeminormError("eta must be nonzero")
        e.flags.writeable = False
        self.eta = e

    @property
    def dimension(self) -> int:
        return self.eta.size

    @property
    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.eta))

    @property
    def kernel_codim(self) -> int:
        return 1

    @property
    def direction(self) -> np.ndarray:
        return self.eta / np.linalg.norm(self.eta)

    def evaluate(self, xi) -> float | np.ndarray:
        xi = np.asarray(xi, dtype=float)
        out = np.abs(xi @ self.eta)
        return float(out) if out.ndim == 0 else out

    def normalized(self) -> "Rank1Seminorm":
        return Rank1Seminorm(self.direction)

    def __call__(self, xi):
        return self.evaluate(xi)

    def __repr__(self):
        return f"Rank1Seminorm(eta={self.eta.tolist()})"


class QuadraticSeminorm:
    """H(x) = |diag(alphas) R^T x| with R orthogonal and alphas >= 0.

    Stored in canonical form: alphas descending, each rotation column's
    largest-magnitude entry positive. The zero seminorm (all alphas zero)
    is representable.
    """

    __slots__ = ("rotation", "alphas")

    def __init__(self, rotation, alphas):
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
        a.flags.writeable = False
        R.flags.writeable = False
        self.alphas = a
        self.rotation = R

    @classmethod
    def euclidean(cls, d: int) -> "QuadraticSeminorm":
        return cls(None, np.ones(d))

    @property
    def dimension(self) -> int:
        return self.alphas.size

    @property
    def operator_norm(self) -> float:
        return float(self.alphas[0])

    @property
    def kernel_codim(self) -> int:
        return int(np.count_nonzero(self.alphas > 0.0))

    def gram(self) -> np.ndarray:
        R = self.rotation
        return R @ np.diag(self.alphas**2) @ R.T

    def evaluate(self, xi) -> float | np.ndarray:
        xi = np.asarray(xi, dtype=float)
        comp = (xi @ self.rotation) * self.alphas
        out = np.sqrt(np.sum(comp * comp, axis=-1))
        return float(out) if out.ndim == 0 else out

    def normalized(self) -> "QuadraticSeminorm":
        n = self.operator_norm
        if n <= 0.0:
            raise InvalidSeminormError("cannot normalize zero")
        return QuadraticSeminorm(self.rotation, self.alphas / n)

    def __call__(self, xi):
        return self.evaluate(xi)

    def __repr__(self):
        return f"QuadraticSeminorm(alphas={self.alphas.tolist()})"


Seminorm = Rank1Seminorm | QuadraticSeminorm


@dataclass(frozen=True, slots=True)
class Spectral:
    """lambda_H and T_H of one (domain, seminorm) pair, as every route returns them.

    A provenance is "closed_form", "slicing", "fem" or "fem_richardson".
    error_estimate is 0 on exact routes and the coarse/fine difference of a
    Richardson pair. h_used is the finest FEM mesh size and breakpoints_used
    the number of slab breakpoints of a slicing solve; each is 0 on the
    routes that have none.
    """

    lambda_: float
    torsion: float
    lambda_provenance: str
    torsion_provenance: str
    error_estimate: float = 0.0
    h_used: float = 0.0
    breakpoints_used: int = 0


@dataclass(frozen=True)
class SolverConfig:
    """Discretization controls for the FEM solvers: the target mesh size and
    whether to extrapolate from a nested mesh pair (Richardson)."""

    target_h: float = 0.05
    richardson: bool = False

    def __post_init__(self):
        if not (0 < self.target_h < math.inf):
            raise ValueError("target_h must be finite and positive")


def seminorm_from_json(obj):
    """Build a seminorm from its JSON dict form."""
    from .errors import InputError

    if not isinstance(obj, dict):
        raise InputError("seminorm JSON must be an object")
    kind = obj.get("kind")
    try:
        if kind == "rank1":
            return Rank1Seminorm(obj["eta"])
        if kind == "quadratic":
            return QuadraticSeminorm(obj.get("rotation"), obj["alphas"])
    except KeyError as exc:
        raise InputError(f"seminorm JSON is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad seminorm JSON: {exc}") from exc
    raise InputError(f"unknown seminorm kind {kind!r}")


def seminorm_to_json(H) -> dict:
    if isinstance(H, Rank1Seminorm):
        return {"kind": "rank1", "eta": H.eta.tolist()}
    if isinstance(H, QuadraticSeminorm):
        return {"kind": "quadratic", "alphas": H.alphas.tolist(), "rotation": H.rotation.tolist()}
    raise InvalidSeminormError(f"unknown seminorm type {type(H).__name__}")
