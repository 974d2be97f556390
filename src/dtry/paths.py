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
_dotted_chars = re.compile(r"[A-Za-z0-9_.\n]*").fullmatch


def _are_dotted(texts: list[str]) -> bool:
    """``all(_is_dotted(t) for t in texts)``, in a few passes over the texts joined.

    The texts go one per line, with a newline before the first and after
    the last. No text holds a newline when the newlines are one more than
    the texts; then every character is of a name or a ``.``, and no
    segment is empty when no ``.`` stands next to another or to a newline.
    """
    if not texts:  # joined, [] would read as [""]
        return True
    joined = "\n" + "\n".join(texts) + "\n"
    return (
        joined.count("\n") == len(texts) + 1
        and _dotted_chars(joined) is not None
        and ".." not in joined
        and "\n." not in joined
        and ".\n" not in joined
    )


def _text_prefix(a: str, b: str) -> bool:
    """Whether the path dotted as ``a`` is a prefix of the one dotted as ``b`` (reflexively)."""
    return not a or b == a or b.startswith(a + ".")


class Name(str):
    """A single path segment; :func:`_names` makes many at once, for less."""

    __slots__ = ()

    def __new__(cls, text):
        if type(text) is str and _is_name(text) is not None:
            return str.__new__(cls, text)
        if type(text) is Name:
            return text
        if not isinstance(text, str):
            raise BadNameError(repr(text), 0, "not a string")
        if _is_name(text) is None:
            if not text:
                raise BadNameError(text, 0, "name is empty")
            bad = _bad_char(text)
            raise BadNameError(text, bad.start(), f"invalid character {bad.group()!r}")
        return super().__new__(cls, text)


def _names(texts: list[str]) -> list[Name] | None:
    """A ``Name`` per text, all validated by one ``fullmatch``; None when one is no name."""
    if not all(texts) or _is_name("".join(texts)) is None:  # none empty, no character bad
        return None
    return [str.__new__(Name, text) for text in texts]


class Path(tuple):
    """An immutable sequence of names addressing an entry in a directory."""

    __slots__ = ()

    def __new__(cls, segments: str | Iterable[str] = ()):
        if type(segments) is Path:
            return segments
        if isinstance(segments, str):
            return cls.parse(segments)
        return super().__new__(cls, (Name(s) for s in segments))

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dotted-path syntax; the empty string is the root path.

        The one routine that names the bad segment of a dotted key; the
        trie builder and ``dtry check`` call it only for a key they found bad.
        """
        if text == "":
            return tuple.__new__(cls, ())
        segments = text.split(".")
        for i, part in enumerate(segments):
            try:
                segments[i] = Name(part)
            except BadNameError as exc:
                raise BadPathError(text, i, exc.reason) from exc
        return tuple.__new__(cls, segments)

    def concat(self, other) -> "Path":
        return tuple.__new__(Path, tuple.__add__(self, Path(other)))

    def __add__(self, other) -> "Path":
        return self.concat(other)

    def is_prefix_of(self, other) -> bool:
        """True when self is an initial segment of other (reflexively)."""
        if type(other) is not Path:
            other = Path(other)
        return len(self) <= len(other) and tuple.__eq__(self, other[: len(self)])

    def __str__(self) -> str:
        return ".".join(self)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"

