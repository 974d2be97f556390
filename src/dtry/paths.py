"""Validated names and dotted paths.

A name is a nonempty run of characters from [A-Za-z0-9_]. A path is a
sequence of names, written with ``.`` between segments, for example
``oscillator.mass.momentum``. The empty path is the root; it serializes
as the empty string, and a lone ``.`` is a syntax error (it would denote
two empty segments).

Paths compare lexicographically: segment by segment in byte order, with
a proper prefix sorting before its extensions. Because ``Path`` is a
tuple of names and names are ASCII strings, the built-in tuple ordering
is exactly that order.

A name is checked text, not a type: every name dtry stores (record key,
``Path`` segment) is a plain ``str``; a ``Name`` is accepted as one.

>>> Name("mass") == "mass", [type(s) for s in Path([Name("a"), "b"])]
(True, [<class 'str'>, <class 'str'>])
>>> Path.parse("oscillator..mass")
Traceback (most recent call last):
    ...
dtry.errors.BadPathError: bad path 'oscillator..mass' at segment 1: name is empty
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import BadNameError, BadPathError

__all__ = ["Name", "Path"]


# ``fullmatch``, since ``$`` would also accept a trailing newline.
_is_name = re.compile(r"[A-Za-z0-9_]+").fullmatch
_is_dotted = re.compile(r"(?:[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*)?").fullmatch  # '' too: the root
_bad_char = re.compile(r"[^A-Za-z0-9_]").search
# The bytes of a name's characters and of '.'.
_NAME_AND_DOT = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_."


def _are_dotted(texts: list[str]) -> bool:
    """``all(_is_dotted(t) for t in texts)``, in a few passes over the texts joined.

    The empty texts (the root) are dropped, and the others joined by
    ``.``, as one path. Every character is of a name or a ``.`` when the
    joined text is ASCII and its bytes hold no other (a newline is one),
    and no segment is empty when no ``.`` stands next to another or at
    either end: each text is nonempty, so a ``.`` that joins two stands
    next to another only where a text starts or ends with one.
    """
    joined = ".".join(filter(None, texts))
    return (
        joined.isascii()
        and not joined.encode().translate(None, _NAME_AND_DOT)
        and ".." not in joined
        and not joined.startswith(".")
        and not joined.endswith(".")
    )


def _text_prefix(a: str, b: str) -> bool:
    """Whether the path dotted as ``a`` is a prefix of the one dotted as ``b`` (reflexively)."""
    return not a or b == a or b.startswith(a + ".")


class Name(str):
    """A checked path segment; what dtry stores of it is a plain ``str`` (see :func:`_name`)."""

    __slots__ = ()

    def __new__(cls, text):
        if type(text) is Name:
            return text
        if not isinstance(text, str):
            raise BadNameError(repr(text), 0, "not a string")
        if _is_name(text) is None:
            raise BadNameError(text, *_fault(text))
        return super().__new__(cls, text)


def _fault(text: str) -> tuple[int, str]:
    """Where and why a ``str`` that is no name fails: its first bad character, or being empty."""
    bad = _bad_char(text)
    return (bad.start(), f"invalid character {bad.group()!r}") if bad else (0, "name is empty")


def _name(text) -> str:
    """``text`` as a name is stored: a plain ``str``; ``Name`` raises for a text that is none."""
    return text if type(text) is str and _is_name(text) else str.__str__(Name(text))


def _names(texts: list[str]) -> bool:
    """Whether every text is a name, by one ``fullmatch``: none is empty, no character is bad."""
    return all(texts) and _is_name("".join(texts)) is not None


class Path(tuple):
    """An immutable sequence of names addressing an entry in a directory."""

    __slots__ = ()

    def __new__(cls, segments: str | Iterable[str] = ()):
        if type(segments) is Path:
            return segments
        if isinstance(segments, str):
            return cls.parse(segments)
        return super().__new__(cls, map(_name, segments))

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dotted-path syntax; the empty string is the root path.

        One match of the whole text. Only a text that fails is walked, to
        name its bad segment; no other routine names it.
        """
        if _is_dotted(text) is None:
            for i, part in enumerate(text.split(".")):
                if _is_name(part) is None:
                    raise BadPathError(text, i, _fault(part)[1])
        return tuple.__new__(cls, text.split(".") if text else ())

    def concat(self, other) -> "Path":
        """This path followed by ``other``; a ``str`` or a sequence is parsed and checked first."""
        return tuple.__new__(Path, tuple.__add__(self, other if type(other) is Path else Path(other)))

    __add__ = concat

    def is_prefix_of(self, other) -> bool:
        """True when self is an initial segment of other (reflexively)."""
        other = Path(other)
        return len(self) <= len(other) and tuple.__eq__(self, other[: len(self)])

    def __str__(self) -> str:
        return ".".join(self)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"

