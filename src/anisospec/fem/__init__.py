"""Finite element solvers for Euclidean and quadratic-seminorm spectral
quantities on planar polygons."""

from .meshing import TriMesh, mesh_polygon
from .solver import (
    SolverConfig,
    lambda_euclid_fem,
    solve_quadratic,
)

__all__ = [
    "SolverConfig",
    "TriMesh",
    "lambda_euclid_fem",
    "mesh_polygon",
    "solve_quadratic",
]
