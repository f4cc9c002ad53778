"""Shared exception types."""


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by construction was violated.

    Raised when two exact computations that must agree (orthogonality
    relations, eigenvalue reconstructions, lift bounds) fail to do so.
    This always signals an implementation bug, never bad user input.
    """


class ResourceLimitError(ValueError):
    """A job too large for a fixed memory budget, refused before allocation."""
