"""A tiny explicit option type, and the frozen values the package builds on.

Plain ``None`` is fine for one level of absence, but the record laws in
:mod:`dtry.core` distinguish ``NOTHING`` from ``Just(NOTHING)`` (an
absent entry versus a present entry holding an absent value), so values
inside records and leaves carry explicit wrappers. ``None`` stays in use
at the outermost level of results, where no nesting can occur.
"""

from __future__ import annotations

from reprlib import recursive_repr
from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["Just", "NOTHING"]


class _Frozen:
    """A frozen dataclass, in effect, of the slots that ``__match_args__`` names.

    Copies and pickles go through ``__init__``, which a subclass writes to
    fill its slots through their setters. Fields compare as one tuple on
    every Python, so a field equals the same object.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # imported only when a set or delete is refused
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Just(_Frozen, Generic[T]):
    """A present value."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: T):
        _set_just(self, value)

    def __repr__(self) -> str:
        return f"Just({self.value!r})"


_set_just = Just.value.__set__


class _NothingType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOTHING"


NOTHING = _NothingType()
