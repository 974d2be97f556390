"""Exception types shared across the package.

Every error carries a stable ``code`` string so that tools (and the CLI)
can report machine-readable diagnostics without matching on messages.
"""

from __future__ import annotations

__all__ = [
    "DtryError",
    "BadNameError",
    "BadPathError",
    "PrefixConflictError",
    "NotACategoryError",
    "NotComposableError",
]


class DtryError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_ERROR"


class BadNameError(DtryError):
    """A name is empty or contains a character outside [A-Za-z0-9_]."""

    code = "E_BAD_NAME"

    def __init__(self, text: str, index: int, reason: str):
        super().__init__(f"bad name {text!r} at character {index}: {reason}")
        self.text = text
        self.index = index
        self.reason = reason


class BadPathError(DtryError):
    """A dotted path has an invalid segment."""

    code = "E_BAD_PATH"

    def __init__(self, text: str, segment: int, reason: str):
        super().__init__(f"bad path {text!r} at segment {segment}: {reason}")
        self.text = text
        self.segment = segment
        self.reason = reason


class PrefixConflictError(DtryError):
    """Two paths violate prefix-freeness (one is a prefix of the other).

    ``existing`` is a path already bound, ``incoming`` the path whose
    insertion failed. Equal paths count as conflicting too.
    """

    code = "E_PREFIX_CONFLICT"

    def __init__(self, existing, incoming):
        if tuple(existing) == tuple(incoming):
            detail = f"path {_show(incoming)} is already bound"
        elif tuple(existing) == tuple(incoming)[: len(existing)]:
            detail = f"path {_show(incoming)} extends the bound path {_show(existing)}"
        else:
            detail = f"path {_show(incoming)} is a prefix of the bound path {_show(existing)}"
        super().__init__(detail)
        self.existing = existing
        self.incoming = incoming


class NotACategoryError(DtryError):
    """Category tables fail an identity, typing, or associativity check."""

    code = "E_NOT_A_CATEGORY"

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.witness = witness


class NotComposableError(DtryError):
    """A composite was requested for morphisms that do not line up."""

    code = "E_NOT_COMPOSABLE"


def _show(path) -> str:
    """A path (a dotted text or a sequence of names) in a message: quoted, or "the root"."""
    text = path if isinstance(path, str) else ".".join(map(str, path))
    return f"'{text}'" if text else "the root"
