"""Exception hierarchy shared across the package."""

__all__ = ["EntroscoreError", "StructureError", "DomainError", "ConstructionError"]


class EntroscoreError(Exception):
    """Base class for every error raised by this package."""


class StructureError(EntroscoreError, ValueError):
    """Objects living on different measure spaces, or shapes that do not line up."""


class DomainError(EntroscoreError, ValueError):
    """A value violates an operation's domain precondition."""


class ConstructionError(EntroscoreError, ValueError):
    """Invalid parameters or a failed validity check while building an object."""
