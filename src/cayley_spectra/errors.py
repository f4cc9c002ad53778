"""Shared exception types, and the one way an error message shows an input value."""

import reprlib

# an input value in an error message: at most 6 members of a list or dict, 3
# levels deep, and a long string, number or other value cut in the middle
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 3
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 60


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by construction was violated.

    Raised when two exact computations that must agree (orthogonality
    relations, eigenvalue reconstructions, lift bounds) fail to do so.
    This always signals an implementation bug, never bad user input.
    """


class ResourceLimitError(ValueError):
    """A job too large for a fixed memory budget, refused before allocation."""


def shown(value) -> str:
    """repr(value) cut to about 80 characters, for an error message that names an offending input."""
    return cut(_SHOWN.repr(value))


def cut(text: str) -> str:
    """text cut to at most 80 characters."""
    return text if len(text) <= 80 else text[:77] + "..."
