"""Anisotropic Dirichlet eigenvalues, torsional rigidity, and shape
functionals over seminorm classes on planar domains.

The FEM names (`TriMesh`, `lambda_euclid_fem`, `mesh_polygon`,
`solve_quadratic`) resolve on first access, so that importing the package
loads no SciPy: the exact routes need none.
"""

from .closed_forms import (
    kj_sequence_value,
    lambda_euclid_ball,
    lambda_rank1_ellipsoid,
    m_tilde_q_ellipsoid,
    q_threshold_ellipsoid,
    rank1_box,
    t_max_ellipsoid,
    torsion_euclid_ellipsoid,
    torsion_quadratic_ball,
    torsion_rank1_ellipsoid,
)
from .errors import (
    AnisoSpecError,
    DegenerateSeminormError,
    InputError,
    InvalidDomainError,
    InvalidSeminormError,
    MeshError,
    SingularMapError,
    SolverError,
    UnsupportedError,
)
from .functional import (
    BoundCheck,
    BoundsReport,
    FunctionalValue,
    OptimizationReport,
    QSweep,
    eval_F,
    optimize_quadratic,
    optimize_rank1,
    q_sweep,
    verify_bounds,
)
from .geometry import (
    BoxD,
    Direction,
    EllipsoidD,
    Polygon2D,
    SlabDecomposition,
    domain_from_json,
    domain_to_json,
    ellipse_polygon,
    is_centrally_symmetric,
    measure,
    rotation_to_vertical,
    slab_decomposition,
    unit_ball_volume,
)
from .seminorms import (
    QuadraticSeminorm,
    Rank1Seminorm,
    SolverConfig,
    Spectral,
    seminorm_from_json,
    seminorm_to_json,
)
from .slicing import solve_rank1

__version__ = "0.1.0"

_FEM_NAMES = ("TriMesh", "lambda_euclid_fem", "mesh_polygon", "solve_quadratic")


def __getattr__(name):
    if name in _FEM_NAMES:
        from . import fem

        return getattr(fem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnisoSpecError",
    "BoundCheck",
    "BoundsReport",
    "BoxD",
    "DegenerateSeminormError",
    "Direction",
    "EllipsoidD",
    "FunctionalValue",
    "InputError",
    "InvalidDomainError",
    "InvalidSeminormError",
    "MeshError",
    "OptimizationReport",
    "Polygon2D",
    "QSweep",
    "QuadraticSeminorm",
    "Rank1Seminorm",
    "SingularMapError",
    "SlabDecomposition",
    "SolverConfig",
    "SolverError",
    "Spectral",
    "TriMesh",
    "UnsupportedError",
    "domain_from_json",
    "domain_to_json",
    "ellipse_polygon",
    "eval_F",
    "is_centrally_symmetric",
    "kj_sequence_value",
    "lambda_euclid_ball",
    "lambda_euclid_fem",
    "lambda_rank1_ellipsoid",
    "m_tilde_q_ellipsoid",
    "measure",
    "mesh_polygon",
    "optimize_quadratic",
    "optimize_rank1",
    "q_sweep",
    "q_threshold_ellipsoid",
    "rank1_box",
    "rotation_to_vertical",
    "seminorm_from_json",
    "seminorm_to_json",
    "slab_decomposition",
    "solve_quadratic",
    "solve_rank1",
    "t_max_ellipsoid",
    "torsion_euclid_ellipsoid",
    "torsion_quadratic_ball",
    "torsion_rank1_ellipsoid",
    "unit_ball_volume",
    "verify_bounds",
]
