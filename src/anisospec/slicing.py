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
    dec = slab_decomposition(polygon, H.direction)
    ((lam, tor),) = _reduce(dec, [H.operator_norm])
    return Spectral(
        lambda_=lam,
        torsion=tor,
        lambda_provenance="slicing",
        torsion_provenance="slicing",
        breakpoints_used=len(dec.breakpoints),
    )


def _reduce(dec, norms: list) -> list:
    """(lambda, T) of each direction row of a decomposition, for the seminorm
    of operator norm norms[row] along it.

    Each row is reduced on its own: its longest chord, one sum over its own
    contiguous torsion terms and the scaling on Python floats, so a row gives
    the same bits alone as in a stack.
    """
    l0, l1 = dec.len_lo, dec.len_hi
    # integral of the affine length cubed over each slab, in the symmetric
    # endpoint form: (t1-t0) (l0^3 + l0^2 l1 + l0 l1^2 + l1^3) / 4
    terms = (dec.slab_hi - dec.slab_lo) * (l0**3 + l0**2 * l1 + l0 * l1**2 + l1**3)
    bounds = dec.row.searchsorted(np.arange(len(norms) + 1)).tolist()
    widths = np.maximum.reduceat(np.maximum(l0, l1), bounds[:-1]).tolist()
    out = []
    for t, width, lo, hi in zip(norms, widths, bounds, bounds[1:]):
        width = max(width, 0.0)
        if width <= 0.0:
            raise InvalidDomainError("polygon has zero width in this direction")
        integral = float(terms[lo:hi].sum() / 48.0)
        out.append((t**2 * np.pi**2 / width**2, integral / t**2))
    return out


def _rank1_scan(polygon: Polygon2D, units, norms: list) -> list:
    """(lambda, T, "slicing", "slicing") of the seminorm of operator norm
    norms[row] along each unit direction row of units, the same bits
    solve_rank1 gives for each alone."""
    out = []
    lo, rows = 0, 1
    while lo < len(units):
        dec = slab_decomposition(polygon, units[lo : lo + rows])
        out += [(lam, tor, "slicing", "slicing") for lam, tor in _reduce(dec, norms[lo : lo + rows])]
        lo += rows
        # blocks of about 4k components, 8k chord crossings, sized by the
        # last block: larger ones raise peak memory and gain no speed
        rows = max(1, 4096 * rows // len(dec.len_lo))
    return out
