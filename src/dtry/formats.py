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
  representable (they would read back as nodes). A key repeated in one
  object is an error, and so are ``NaN`` and the infinities, which are
  not JSON numbers, and number literals Python cannot hold: a float that
  overflows to an infinity, an integer longer than
  ``sys.get_int_max_str_digits()``. Nesting is bounded by Python's
  recursion limit (1000 by default) less the frames already on the
  stack: about 990 levels.
  Emission stops a few levels short of what parsing reads from the same
  caller, so every emitted document reads back, and a document or
  directory beyond the bound is an ``E_TOO_DEEP`` error.

Parsers report every failing line, not just the first, and raise a
single :class:`ParseError` carrying all diagnostics.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Mapping

from .core import Dtry, Leaf, Node, _from_sorted, _node, _sorted_clean, _TrieBuilder
from .errors import BadNameError, BadPathError, DtryError, PrefixConflictError, _show
from .paths import Name, Path, _is_dotted, _names, _text_prefix

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
    """A document failed to parse, or a directory has no nested document.

    Carries every diagnostic found.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class FlatLine:
    """One successfully scanned ``path = value`` line."""

    line: int
    path: Path
    value: str


def _entry_lines(text: str, diagnostics: list):
    """Yield ``(line, path text, value)`` for each ``path = value`` line of a flat document.

    The one reading of the line grammar: blank lines and lines starting
    with ``#`` are skipped, and a line without ``=`` is appended to
    ``diagnostics`` as ``E_SYNTAX``. Both sides come stripped, which
    drops a CR before the LF too; the path text is not checked here.
    """
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line or line.isspace() or line.startswith("#"):
            continue
        lhs, sep, rhs = line.partition("=")
        if not sep:
            diagnostics.append(
                Diagnostic("E_SYNTAX", lineno, "expected a 'path = value' line")
            )
            continue
        yield lineno, lhs.strip(), rhs.strip()


def scan_flat(text: str) -> tuple[list[FlatLine], list[Diagnostic]]:
    """Split a flat document into entries and lexical diagnostics.

    One ``Path`` and one ``FlatLine`` per line. No cross-line checks
    happen here. No command reads a document through it: the parser and
    the key check below read the same line grammar without a ``Path`` per
    line, and the tests keep this reading as their reference.
    """
    entries: list[FlatLine] = []
    diagnostics: list[Diagnostic] = []
    for lineno, lhs, value in _entry_lines(text, diagnostics):
        try:
            path = Path.parse(lhs)
        except BadPathError as exc:
            diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
            continue
        entries.append(FlatLine(lineno, path, value))
    return entries, diagnostics


def parse_flat(text: str) -> Dtry[str]:
    """Parse a flat document into a directory of string values.

    Accepts exactly the documents whose paths are duplicate-free and
    prefix-free. Every offending line yields a diagnostic, in line order;
    parsing continues so one run reports all of them. A clean document is
    built from its keys sorted as text, one record per node.

    Raises:
        ParseError: with one diagnostic per failing line.
    """
    return Dtry(_from_sorted(_read_flat(text)))


def _read_flat(text: str) -> list[tuple[str, str]]:
    """The ``(dotted text, value)`` pairs of a flat document, sorted by text: the trie unbuilt.

    The lines are read once. When every key is a path and none repeats or
    is a prefix of another (tested on the sorted texts), no ``Path`` and no
    trie is made. Otherwise the lines read are bound in file order into
    the trie builder, which decides every conflict; a line it rejects for
    a bad segment is parsed as a ``Path`` once, for the error that names
    the segment.

    Raises:
        ParseError: with one diagnostic per failing line, in line order.
    """
    diagnostics: list[Diagnostic] = []
    items, linenos = [], []
    for lineno, key, value in _entry_lines(text, diagnostics):
        items.append((key, value))
        linenos.append(lineno)
    ordered = None if diagnostics else _sorted_clean(items)
    if ordered is not None:
        return ordered
    builder = _TrieBuilder()
    # A dotted text names one path, so equal texts are equal paths.
    first_line: dict[str, int] = {}
    for lineno, (key, value) in zip(linenos, items):
        try:
            builder.add(key, value)
        except (PrefixConflictError, BadPathError) as exc:
            if isinstance(exc, PrefixConflictError) and exc.existing == exc.incoming:
                message = f"duplicate path {_show(key)}; first bound at line {first_line[key]}"
                diagnostics.append(Diagnostic("E_DUPLICATE_PATH", lineno, message))
            else:
                diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
            continue
        first_line[key] = lineno
    diagnostics.sort(key=attrgetter("line"))  # the syntax errors came first; one per line
    raise ParseError(diagnostics)


def _key_conflicts(text: str) -> list[Diagnostic]:
    """Every problem of a flat document's keys, each conflicting pair of lines once.

    The lexical diagnostics of :func:`scan_flat`, and for each two lines
    whose paths are equal or one a prefix of the other, one diagnostic at
    the later line; ordered by that line, then by the earlier one. Works
    on the dotted texts, without a ``Path`` per line and without the trie.
    Each key is matched whole as its line is read; only a key that fails
    is parsed, for the error that names its segment.

    Sorted by text, the copies and extensions of a path follow it
    contiguously, since ``.`` sorts below every character of a name and
    so text order is path order: each scan stops at the first text its
    own is no prefix of, and the cost is O(n log n + conflicting pairs).
    """
    diagnostics: list[Diagnostic] = []
    entries = []
    for lineno, key, _ in _entry_lines(text, diagnostics):
        if _is_dotted(key) is None:
            try:
                Path.parse(key)
            except BadPathError as exc:
                diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
                continue
        entries.append((key, lineno))
    problems = [(d.line, 0, d) for d in diagnostics]
    entries.sort()
    for i, (key, _) in enumerate(entries):
        j = i + 1
        while j < len(entries) and _text_prefix(key, entries[j][0]):
            (first, first_line), (second, second_line) = sorted(
                (entries[i], entries[j]), key=itemgetter(1)
            )
            if first == second:
                message = f"duplicate path {_show(second)}; first bound at line {first_line}"
                diag = Diagnostic("E_DUPLICATE_PATH", second_line, message)
            else:
                message = f"paths {_show(first)} (line {first_line}) and {_show(second)} conflict"
                diag = Diagnostic("E_PREFIX_CONFLICT", second_line, message)
            problems.append((second_line, first_line, diag))
            j += 1
    problems.sort(key=itemgetter(0, 1))
    return [diag for _, _, diag in problems]


def emit_flat(directory: Dtry[str]) -> str:
    """Emit the canonical flat document: lex-ordered, LF, one line per entry.

    Values must be strings that survive the parser's trimming: no
    newlines, no leading or trailing whitespace. The lines are written
    straight from the trie, each after the dotted path of its node.

    Raises:
        TypeError: at the first value in path order that is no string.
        ValueError: at the first string value that has no flat line.
    """
    root = directory.root
    if root is None:
        return ""
    if type(root) is Leaf:
        return _flat_line("", root.value)
    parts = []
    # Depth first without recursion, as Dtry.path_map walks: one iterator
    # per open node, and ``prefixes[-1]`` is the innermost one's dotted
    # path followed by a dot.
    prefixes = [""]
    pending = [iter(root.children.items())]
    while pending:
        prefix = prefixes[-1]
        for name, child in pending[-1]:
            if type(child) is Leaf:
                value = child.value
                # _flat_line's checks, inline for the common case
                if type(value) is str and "\n" not in value and value == value.strip():
                    parts.append(f"{prefix}{name} = {value}\n")
                else:
                    parts.append(_flat_line(prefix + name, value))
            else:
                prefixes.append(f"{prefix}{name}.")
                pending.append(iter(child.children.items()))
                break
        else:
            pending.pop()
            prefixes.pop()
    return "".join(parts)


def _flat_from_sorted(items: list, cut: int = 0) -> str:
    """What :func:`emit_flat` writes for clean ``(dotted text, value)`` pairs in text order.

    Each text is written from index ``cut`` on. Every value was read from
    a flat line, so a flat line holds it.
    """
    return "".join(f"{text[cut:]} = {value}\n" for text, value in items)


def _flat_line(dotted: str, value) -> str:
    """The flat line binding ``value`` at the path ``dotted``, if it has one."""
    if not isinstance(value, str):
        raise TypeError(f"flat emission needs string values, got {value!r}")
    if "\n" in value or value != value.strip():
        raise ValueError(
            f"value at {_show(dotted)} is not representable on a flat line: {value!r}"
        )
    return f"{dotted} = {value}\n"


def parse_nested(text: str) -> Dtry:
    """Parse a nested JSON document into a directory.

    JSON objects become nodes, any other JSON value becomes a leaf.
    Semantic diagnostics (bad key, repeated key, empty subdirectory,
    nesting too deep) carry line 1 and name the offending path where
    there is one; JSON syntax errors, ``NaN``, the infinities and number
    literals Python cannot hold (a float that overflows, an integer of
    more than ``sys.get_int_max_str_digits()`` digits) carry the real line.
    The read stops at the first JSON syntax error, integer too long for
    Python or nesting too deep (``E_TOO_DEEP``) in the text, and reports
    it alone; a ``NaN``, an infinity or an overflowing float before it is
    not reported. A document read whole is walked in text order, which
    stops at the first refused number, reporting the first refused
    literal in the text, or at nesting too deep for the walk. Else the
    semantic diagnostics.
    """
    diagnostics: list[Diagnostic] = []
    try:
        data = json.loads(text, object_pairs_hook=_object)
        if isinstance(data, dict):
            root = _node_from_json(data, (), {}, diagnostics, top=True)
        else:  # checked as the one item of an array
            _check_array([data], (), diagnostics)
            root = Leaf(data)
    except json.JSONDecodeError as exc:
        raise ParseError([Diagnostic("E_SYNTAX", exc.lineno, exc.msg)]) from exc
    except ValueError as exc:
        # json.loads refuses an integer literal longer than Python's limit,
        # and the walk refuses a float that is not finite: NaN, an infinity,
        # or a literal that overflowed to one.
        raise _out_of_range(text) from exc
    except RecursionError as exc:
        raise _too_deep() from exc
    if diagnostics:
        raise ParseError(diagnostics)
    return Dtry(root)


class _Repeats(dict):
    """A JSON object that names some keys more than once; ``repeated`` lists them."""

    __slots__ = ("repeated",)


def _object(pairs):
    # object_pairs_hook: the dict json would make, marked when a key repeats.
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    marked = _Repeats(obj)
    marked.repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return marked


# A JSON string; or a number outside strings: its integer part and the rest;
# or one of the constants json reads outside strings.
_NUMBER = re.compile(
    r'"(?:[^"\\]|\\.)*"|(-?[0-9]+)((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)|(NaN|-?Infinity)'
)


def _out_of_range(text: str) -> ParseError:
    """The ``E_SYNTAX`` error at the first number literal in ``text`` that is refused."""
    for match in _NUMBER.finditer(text):
        whole, rest, constant = match.groups()
        if constant:  # NaN, Infinity and -Infinity are not JSON (RFC 8259 §6)
            message = f"{constant} is not a JSON number"
        elif whole is None:  # a string
            continue
        elif rest:
            value = float(whole + rest)
            if value - value == 0.0:  # finite
                continue
            message = f"{whole}{rest} is out of range for a float"
        else:
            try:
                int(whole)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                digits = len(whole.lstrip("-"))
                limit = sys.get_int_max_str_digits()
                message = f"an integer of {digits} digits exceeds Python's limit of {limit}"
            else:
                continue
        line = text.count("\n", 0, match.start()) + 1
        return ParseError([Diagnostic("E_SYNTAX", line, message)])
    return ParseError([Diagnostic("E_SYNTAX", 1, "a number is out of range")])


def _too_deep() -> ParseError:
    message = f"nesting too deep for Python's recursion limit of {sys.getrecursionlimit()}"
    return ParseError([Diagnostic("E_TOO_DEEP", 1, message)])


def _node_from_json(obj: dict, at: tuple, names: dict, diagnostics: list, top: bool):
    """The node of a JSON object at path ``at``, or None when it keeps no entry.

    Recurses once per level of objects; a leaf is wrapped in place.
    ``names`` maps each key text to its ``Name``, so a document validates
    each new key once, in one call per object, and sorts each object once.
    """
    for key in getattr(obj, "repeated", ()):
        message = f"duplicate path '{'.'.join((*at, key))}'"
        diagnostics.append(Diagnostic("E_DUPLICATE_PATH", 1, message))
    if not obj:
        if not top:
            diagnostics.append(Diagnostic("E_EMPTY_SUBDIR", 1, f"empty object at {_show(at)}"))
        return None
    if new := [key for key in obj if key not in names]:
        names.update(zip(new, _names(new) or ()))  # or none: the loop reports each bad one
    children = {}
    for key, value in obj.items():
        name = names.get(key)
        if name is None:
            try:
                name = names[key] = Name(key)
            except BadNameError as exc:
                diagnostics.append(
                    Diagnostic(exc.code, 1, f"invalid key {key!r} under {_show(at)}: {exc.reason}")
                )
                continue
        if isinstance(value, dict):
            subtree = _node_from_json(value, (*at, name), names, diagnostics, False)
            if subtree is not None:
                children[name] = subtree
            continue
        kind = type(value)
        if kind is list:
            _check_array(value, (*at, name), diagnostics)
        elif kind is float and value - value != 0.0:  # NaN or an infinity
            raise ValueError(value)
        children[name] = Leaf(value)
    return _node(children) if children else None


def _check_array(value: list, at: tuple, diagnostics: list) -> None:
    """Check what an array leaf at ``at`` holds, without recursion.

    Reports the keys its objects repeat; raises ``ValueError`` for a float
    that is not finite.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is list:
            stack.extend(item)
        elif isinstance(item, dict):
            for key in getattr(item, "repeated", ()):
                message = f"duplicate key {key!r} in the value at {_show(at)}"
                diagnostics.append(Diagnostic("E_DUPLICATE_PATH", 1, message))
            stack.extend(item.values())
        elif kind is float and item - item != 0.0:
            raise ValueError(item)


def emit_nested(directory: Dtry) -> str:
    """Emit the canonical nested JSON document (sorted keys, 2-space indent).

    The text is what ``json.dumps(..., indent=2, sort_keys=True,
    ensure_ascii=False)`` writes for the directory as nested objects; it
    is built straight from the trie, without recursion.

    >>> print(emit_nested(Dtry.from_path_map({"b": [1, 2], "a.y": None, "a.x": "s"})), end="")
    {
      "a": {
        "x": "s",
        "y": null
      },
      "b": [
        1,
        2
      ]
    }

    Raises:
        ValueError: for a value JSON cannot hold: an object, ``NaN`` or an
            infinity.
        ParseError: one ``E_TOO_DEEP`` diagnostic when the document would
            nest deeper than :func:`parse_nested`, called from the same
            place, reads back; for a trie too deep, before any text is
            built.
    """
    root = directory.root
    if root is None:
        return "{}\n"
    if type(root) is Leaf:
        text = _leaf_text(root.value, "\n")
        _readable(_levels(root.value))
        return text + "\n"
    readable = _readable(_height(root))
    out = ["{"]
    # Depth first without recursion, as Dtry.path_map walks: one iterator
    # per open node. ``indent`` starts each line of the innermost one, and
    # ``sep`` goes before its next entry.
    indent = "\n  "
    comma = "," + indent
    sep = indent
    pending = [iter(root.children.items())]
    while True:
        for name, child in pending[-1]:
            if type(child) is Leaf:
                value = child.value
                text = _scalar(value)
                if text is None:
                    text = _scalar_array(value, indent)
                    if text is None:
                        text = _leaf_text(value, indent)
                        # The value's own arrays and objects nest further;
                        # its brackets bound how far.
                        if len(pending) + text.count("[") + text.count("{") > readable:
                            readable = max(readable, _readable(len(pending) + _levels(value)))
                    elif len(pending) >= readable:  # the array is one level more
                        readable = _readable(len(pending) + 1)
                out.append(f'{sep}"{name}": {text}')
                sep = comma
            else:
                out.append(f'{sep}"{name}": {{')
                indent += "  "
                comma = "," + indent
                sep = indent
                pending.append(iter(child.children.items()))
                break
        else:
            pending.pop()
            indent = indent[:-2]
            out.append(indent + "}")
            if not pending:
                return "".join(out) + "\n"
            sep = comma = "," + indent


def _nested_from_sorted(items: list) -> str:
    """What :func:`emit_nested` writes for clean ``(dotted text, text value)`` pairs in text order.

    The pairs are those :func:`parse_flat` builds its trie of, and they
    are walked as :func:`_from_sorted` walks them, without the trie: each
    key closes the open objects it does not share, opens the ones it
    starts, and writes its last name. The depth is bounded as in
    :func:`emit_nested`, before any text is built.

    Raises:
        ParseError: one ``E_TOO_DEEP`` diagnostic, as from :func:`emit_nested`.
    """
    if not items:
        return "{}\n"
    if not items[0][0]:  # the root path: clean, so the only key
        _readable(0)
        return _string(items[0][1]) + "\n"
    _readable(max(text.count(".") for text, _ in items) + 1)  # the nodes on the longest path
    out = ["{"]
    names: list[str] = []  # the open objects below the root, outermost first
    prefix = ""  # the innermost open object's text and a '.'; '' at the root
    # ``indent`` starts each line of the innermost open object, and ``sep``
    # goes before its next entry, as in emit_nested.
    indent = "\n  "
    comma = "," + indent
    sep = indent
    for text, value in items:
        if text.startswith(prefix) and text.find(".", len(prefix)) < 0:  # in that object
            out.append(f'{sep}"{text[len(prefix) :]}": {_string(value)}')
            sep = comma
            continue
        segments = text.split(".")
        last = len(segments) - 1
        depth = min(len(names), last)
        shared = 0
        while shared < depth and segments[shared] == names[shared]:
            shared += 1
        while len(names) > shared:
            names.pop()
            indent = indent[:-2]
            out.append(indent + "}")
            sep = comma = "," + indent
        for segment in segments[shared:last]:
            out.append(f'{sep}"{segment}": {{')
            names.append(segment)
            indent += "  "
            comma = "," + indent
            sep = indent
        out.append(f'{sep}"{segments[last]}": {_string(value)}')
        sep = comma
        prefix = text[: len(text) - len(segments[last])]
    for _ in names:
        indent = indent[:-2]
        out.append(indent + "}")
    return "".join(out) + "\n}\n"


# What json writes for a str, an int and a finite float; the leaf's exact
# type is tested first, since int.__repr__(True) is 'True'.
_string = json.encoder.encode_basestring  # the encoder of ensure_ascii=False
_int = int.__repr__
_float = float.__repr__
# Every other leaf, as json.dumps writes it with the document's settings.
_LEAF = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)


def _scalar(value) -> str | None:
    """A str, exact int, finite float, bool or None as json writes it; None for other values."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return _int(value)
    if kind is float and value - value == 0.0:  # finite
        return _float(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return None


def _scalar_array(value, indent: str) -> str | None:
    """A list of values :func:`_scalar` writes, as json writes it at ``indent``.

    None for any other value, so that only arrays holding arrays or
    objects, and leaves of other types, go through json's encoder.
    """
    if type(value) is not list:
        return None
    if not value:
        return "[]"
    texts = []
    for item in value:
        text = _scalar(item)
        if text is None:
            return None
        texts.append(text)
    inner = indent + "  "
    return f"[{inner}{(',' + inner).join(texts)}{indent}]"


# Frames that reading a document back takes beyond one per level of
# nesting: parse_nested's own and json's, and the CLI's path to them.
_READ_FRAMES = 8


def _readable(levels: int) -> int:
    """Return ``levels`` once parse_nested, called from here, would read that much nesting.

    Reading recurses once per level, so it needs that many frames of room
    under Python's recursion limit. Only trying tells the room left, since
    a call entered from C takes more of it than its frame.

    Raises:
        ParseError: one ``E_TOO_DEEP`` diagnostic when there is no room.
    """
    try:
        _descend(levels + _READ_FRAMES)
    except RecursionError:
        raise _too_deep() from None
    return levels


def _descend(frames: int) -> None:
    if frames > 0:
        _descend(frames - 1)


def _height(tree: Node) -> int:
    """The number of nodes on the longest path down ``tree``, without recursion."""
    level, height = [tree], 0
    while level:
        height += 1
        level = [c for node in level for c in node.children.values() if type(c) is Node]
    return height


def _leaf_text(value, indent: str) -> str:
    """A leaf value of any type as json writes it, with ``indent`` starting each inner line."""
    if isinstance(value, Mapping):
        raise ValueError(
            f"object-valued leaf is not representable in the nested format: {value!r}"
        )
    try:
        text = _LEAF.encode(value)
    except RecursionError as exc:
        raise _too_deep() from exc
    return text.replace("\n", indent)


def _levels(value) -> int:
    """How many arrays and objects deep ``value`` nests, without recursion."""
    deepest, pending = 0, [(value, 0)]
    while pending:
        item, level = pending.pop()
        if isinstance(item, Mapping):
            item = item.values()
        elif not isinstance(item, (list, tuple)):
            continue
        deepest = max(deepest, level + 1)
        pending.extend((x, level + 1) for x in item)
    return deepest

