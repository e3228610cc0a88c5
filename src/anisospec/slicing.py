"""Exact eigenvalue/torsion computation for rank-1 seminorms on polygons.

For H(x) = |<x, eta>| with |eta| = 1 the problem reduces to one-dimensional
problems on the chords parallel to eta:

* lambda_H = pi^2 / width^2 where width is the longest connected chord;
* T_H integrates length^3 / 12 of every chord component over the offset.

Within each slab between vertex projections every component length is affine
in the offset, so the torsion integrand is a per-slab cubic and is integrated
in closed form. Unnormalized seminorms scale as lambda_{tH} = t^2 lambda_H,
T_{tH} = t^-2 T_H.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDomainError, InvalidSeminormError
from .geometry import Polygon2D, slab_decomposition
from .seminorms import Rank1Seminorm, Spectral

__all__ = ["solve_rank1"]


def solve_rank1(polygon: Polygon2D, H: Rank1Seminorm) -> Spectral:
    """Both spectral quantities for a rank-1 seminorm in one decomposition pass."""
    if not isinstance(polygon, Polygon2D):
        raise InvalidDomainError("slicing solver works on Polygon2D")
    if not isinstance(H, Rank1Seminorm):
        raise InvalidSeminormError("solve_rank1 expects a Rank1Seminorm")
    if H.dimension != 2:
        raise InvalidSeminormError("polygon slicing needs a two-dimensional seminorm")
    t = H.operator_norm
    dec = slab_decomposition(polygon, H.direction)

    l0, l1 = dec.len_lo, dec.len_hi
    width = max(float(l0.max()), float(l1.max()), 0.0)
    if width <= 0.0:
        raise InvalidDomainError("polygon has zero width in this direction")

    # integral of the affine length cubed over each slab, in the symmetric
    # endpoint form: (t1-t0) (l0^3 + l0^2 l1 + l0 l1^2 + l1^3) / 4
    integral = float(
        np.sum((dec.slab_hi - dec.slab_lo) * (l0**3 + l0**2 * l1 + l0 * l1**2 + l1**3))
        / 48.0
    )
    return Spectral(
        lambda_=t**2 * np.pi**2 / width**2,
        torsion=integral / t**2,
        lambda_provenance="slicing",
        torsion_provenance="slicing",
        breakpoints_used=len(dec.breakpoints),
    )
