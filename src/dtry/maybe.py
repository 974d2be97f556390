"""A tiny explicit option type.

Plain ``None`` is fine for one level of absence, but the record laws in
:mod:`dtry.core` distinguish ``NOTHING`` from ``Just(NOTHING)`` (an
absent entry versus a present entry holding an absent value), so values
inside records and leaves carry explicit wrappers. ``None`` stays in use
at the outermost level of results, where no nesting can occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["Just", "NOTHING"]


@dataclass(frozen=True)
class Just(Generic[T]):
    """A present value."""

    value: T

    def __repr__(self) -> str:
        return f"Just({self.value!r})"


class _NothingType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOTHING"


NOTHING = _NothingType()
