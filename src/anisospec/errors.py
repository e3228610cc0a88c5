"""Exception hierarchy shared by all modules."""


class AnisoSpecError(Exception):
    """Base class for all package errors."""


class InputError(AnisoSpecError, ValueError):
    """Malformed or out-of-contract user input (CLI exit code 2)."""


class InvalidDomainError(InputError):
    """Domain fails its construction invariants."""


class InvalidSeminormError(InputError):
    """Seminorm fails its construction invariants."""


class SingularMapError(InputError):
    """A linear map that must be invertible is singular."""


class UnsupportedError(InputError):
    """Input is well formed but outside the implemented scope."""


class DegenerateSeminormError(AnisoSpecError):
    """The zero seminorm was passed to a solver: lambda is 0, torsion infinite."""


class MeshError(AnisoSpecError):
    """Triangulation could not be built."""


class SolverError(AnisoSpecError):
    """A solve failed: factorization, eigensolver convergence or the
    eigen-residual check (CLI exit code 3)."""
