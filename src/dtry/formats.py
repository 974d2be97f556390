"""Textual directory formats.

Two formats, both canonical on emission so equal directories produce
byte-identical documents:

* flat: one ``path = value`` line per entry, lexicographically ordered.
  ``#`` starts a comment only at the start of a line; blank lines are
  ignored; values are uninterpreted strings and may contain ``#``.
  Emission uses LF; CRLF input is tolerated.
* nested: JSON, where an object is a directory node and any non-object
  value is a leaf. ``{}`` denotes the empty directory at top level only;
  below the root an empty object is an error, mirroring the rule that
  subdirectories are never empty. Object-valued leaves are not
  representable (they would read back as nodes).

Parsers report every failing line, not just the first, and raise a
single :class:`ParseError` carrying all diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .core import Dtry, Leaf, Node, NonEmptyRecord, _TrieBuilder
from .errors import BadNameError, BadPathError, DtryError, PrefixConflictError
from .paths import Name, Path

__all__ = [
    "Diagnostic",
    "ParseError",
    "FlatLine",
    "scan_flat",
    "parse_flat",
    "emit_flat",
    "parse_nested",
    "emit_nested",
]


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem: a stable code, a 1-based line, a message."""

    code: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.code}:{self.message}"


class ParseError(DtryError):
    """A document failed to parse; carries every diagnostic found."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class FlatLine:
    """One successfully scanned ``path = value`` line."""

    line: int
    path: Path
    value: str


def scan_flat(text: str) -> tuple[list[FlatLine], list[Diagnostic]]:
    """Split a flat document into entries and lexical diagnostics.

    No cross-line checks happen here; duplicate and prefix conflicts are
    the caller's concern (see parse_flat and the CLI check command).
    """
    entries: list[FlatLine] = []
    diagnostics: list[Diagnostic] = []
    names: dict[str, Name] = {}  # one Name per distinct segment of the document
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        lhs, sep, rhs = line.partition("=")
        if not sep:
            diagnostics.append(
                Diagnostic("E_SYNTAX", lineno, "expected a 'path = value' line")
            )
            continue
        try:
            path = Path.parse(lhs.strip(), names)
        except BadPathError as exc:
            diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
            continue
        entries.append(FlatLine(lineno, path, rhs.strip()))
    return entries, diagnostics


def parse_flat(text: str) -> Dtry[str]:
    """Parse a flat document into a directory of string values.

    Accepts exactly the documents whose paths are duplicate-free and
    prefix-free. Every offending line yields a diagnostic; parsing
    continues so one run reports all of them.

    Raises:
        ParseError: with one diagnostic per failing line.
    """
    entries, diagnostics = scan_flat(text)
    builder = _TrieBuilder()
    first_line: dict[Path, int] = {}
    for entry in entries:
        if entry.path in first_line:
            diagnostics.append(
                Diagnostic(
                    "E_DUPLICATE_PATH",
                    entry.line,
                    f"duplicate path {_show(entry.path)}; "
                    f"first bound at line {first_line[entry.path]}",
                )
            )
            continue
        try:
            builder.add(entry.path, entry.value)
        except PrefixConflictError as exc:
            diagnostics.append(Diagnostic(exc.code, entry.line, str(exc)))
            continue
        first_line[entry.path] = entry.line
    if diagnostics:
        raise ParseError(sorted(diagnostics, key=lambda d: d.line))
    return Dtry(builder.freeze())


def emit_flat(directory: Dtry[str]) -> str:
    """Emit the canonical flat document: lex-ordered, LF, one line per entry.

    Values must be strings that survive the parser's trimming: no
    newlines, no leading or trailing whitespace.
    """
    parts = []
    for path, value in directory.path_map().items():
        if not isinstance(value, str):
            raise TypeError(f"flat emission needs string values, got {value!r}")
        if "\n" in value or value != value.strip():
            raise ValueError(
                f"value at {_show(path)} is not representable on a flat line: {value!r}"
            )
        parts.append(f"{path} = {value}\n")
    return "".join(parts)


def parse_nested(text: str) -> Dtry:
    """Parse a nested JSON document into a directory.

    JSON objects become nodes, any other JSON value becomes a leaf.
    Semantic diagnostics (bad key, empty subdirectory) carry line 1 and
    name the offending path in the message; JSON syntax errors carry the
    real line.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([Diagnostic("E_SYNTAX", exc.lineno, exc.msg)]) from exc
    diagnostics: list[Diagnostic] = []
    root = _tree_from_json(data, (), diagnostics, top=True)
    if diagnostics:
        raise ParseError(diagnostics)
    return Dtry(root)


def _tree_from_json(value, at, diagnostics, top):
    if not isinstance(value, dict):
        return Leaf(value)
    if not value:
        if top:
            return None
        diagnostics.append(
            Diagnostic("E_EMPTY_SUBDIR", 1, f"empty object at {_show(Path(at))}")
        )
        return None
    children = {}
    for key in value:
        try:
            name = Name(key)
        except BadNameError as exc:
            diagnostics.append(
                Diagnostic(
                    exc.code, 1, f"invalid key {key!r} under {_show(Path(at))}: {exc.reason}"
                )
            )
            continue
        subtree = _tree_from_json(value[key], at + (name,), diagnostics, top=False)
        if subtree is not None:
            children[name] = subtree
    return Node(NonEmptyRecord(children)) if children else None


def emit_nested(directory: Dtry) -> str:
    """Emit the canonical nested JSON document (sorted keys, 2-space indent)."""
    return (
        json.dumps(_tree_to_json(directory.root), indent=2, sort_keys=True, ensure_ascii=False)
        + "\n"
    )


def _tree_to_json(tree):
    if tree is None:
        return {}
    if isinstance(tree, Leaf):
        if isinstance(tree.value, Mapping):
            raise ValueError(
                f"object-valued leaf is not representable in the nested format: {tree.value!r}"
            )
        return tree.value
    return {str(name): _tree_to_json(child) for name, child in tree.children.items()}


def _show(path: Path) -> str:
    return f"'{path}'" if len(path) else "the root"
