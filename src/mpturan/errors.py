"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "NotApplicableError",
    "GraphStructureError",
    "UnknownClaimError",
    "SizeCapError",
    "InternalConsistencyError",
]


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain."""


class NotApplicableError(DomainError):
    """The requested statement or construction does not cover these parameters."""


class GraphStructureError(DomainError):
    """Malformed part structure, vertex id, or edge placement."""


class UnknownClaimError(DomainError):
    """A certificate claim of an unrecognized kind."""


class SizeCapError(RuntimeError):
    """Instance exceeds the exhaustive-search size cap."""


class InternalConsistencyError(RuntimeError):
    """A cross-check failed that can only fail on an implementation bug."""
