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
from itertools import count, filterfalse, repeat
from operator import attrgetter, itemgetter
from typing import Any, Mapping

from .core import (
    Dtry,
    Leaf,
    Node,
    _clashing,
    _conflicts,
    _from_sorted,
    _sized,
    _Sorted,
    _sorted_scan,
    _text,
)
from .errors import BadNameError, BadPathError, DtryError, PrefixConflictError, _show
from .maybe import _Frozen
from .paths import Path, _fault, _is_dotted, _is_name, _names, _text_prefix

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


class Diagnostic(_Frozen):
    """One reported problem: a stable code, a 1-based line, a message."""

    __slots__ = __match_args__ = ("code", "line", "message")

    def __init__(self, code: str, line: int, message: str):
        _set_code(self, code)
        _set_line(self, line)
        _set_message(self, message)

    def __str__(self) -> str:
        return f"{self.line}:{self.code}:{self.message}"


class ParseError(DtryError):
    """A document failed to parse, or a directory has no nested document.

    Carries every diagnostic found.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class FlatLine(_Frozen):
    """One successfully scanned ``path = value`` line."""

    __slots__ = __match_args__ = ("line", "path", "value")

    def __init__(self, line: int, path: Path, value: str):
        _set_flat_line(self, line)
        _set_flat_path(self, path)
        _set_flat_value(self, value)


_set_code, _set_line, _set_message = (getattr(Diagnostic, f).__set__ for f in Diagnostic.__slots__)
_set_flat_line, _set_flat_path, _set_flat_value = (getattr(FlatLine, f).__set__ for f in FlatLine.__slots__)


def _entry_lines(text: str) -> tuple[list[tuple[str, str]], list[int]]:
    """The ``(path text, value)`` pairs of a flat document, and the numbers of its other lines.

    The one reading of the line grammar: blank lines and lines starting
    with ``#`` are skipped, and so is a line without ``=``, an ``E_SYNTAX``
    error, whose number is negated. Both sides come stripped, which drops a
    CR before the LF too; the path text is not checked here. Only a failing
    document needs a pair's line: :func:`_numbered` recovers it.
    """
    pairs, skipped = [], []
    for lineno, line in enumerate(text.split("\n"), 1):
        lhs, sep, rhs = line.partition("=")
        if sep and line[0] != "#":
            pairs.append((lhs.strip(), rhs.strip()))
        elif not line or line.isspace() or line[0] == "#":
            skipped.append(lineno)
        else:
            skipped.append(-lineno)
    return pairs, skipped


def _numbered(items, skipped: list[int]):
    """Each item of :func:`_entry_lines`'s pairs with its line, in a pass in C."""
    return zip(items, filterfalse(set(map(abs, skipped)).__contains__, count(1)))


def _syntax_errors(skipped: list[int]) -> list[Diagnostic]:
    return [Diagnostic("E_SYNTAX", -n, "expected a 'path = value' line") for n in skipped if n < 0]


def scan_flat(text: str) -> tuple[list[FlatLine], list[Diagnostic]]:
    """Split a flat document into entries and lexical diagnostics, each in line order.

    One ``Path`` and one ``FlatLine`` per line. No cross-line checks
    happen here. No command reads a document through it: the parser and
    the key check below read the same line grammar without a ``Path`` per
    line, and the tests keep this reading as their reference.
    """
    pairs, skipped = _entry_lines(text)
    entries: list[FlatLine] = []
    diagnostics = _syntax_errors(skipped)
    for (lhs, value), lineno in _numbered(pairs, skipped):
        try:
            path = Path.parse(lhs)
        except BadPathError as exc:
            diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
            continue
        entries.append(FlatLine(lineno, path, value))
    diagnostics.sort(key=attrgetter("line"))  # the syntax errors came first; one per line
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

    The lines are read once, without their numbers. When no line is a
    syntax error, every key is a path (one match for all the keys) and
    :func:`core._clashing` finds none that repeats or is a prefix of
    another, no ``Path`` and no trie is made. Otherwise no trie is made
    either: a key that is no path is parsed once, for the error that names
    its segment, and the keys that :func:`core._clashing` finds are bound
    in file order by :func:`core._conflicts`, which names every conflict.

    Raises:
        ParseError: with one diagnostic per failing line, in line order.
    """
    ordered, diagnostics, clashing = _read_keys(text)
    if ordered is not None:
        return ordered
    clashing.sort(key=itemgetter(1))
    # A dotted text names one path, so equal texts are equal paths; and a
    # text's first line binds it if any does, since a binding stays.
    first_line = dict(reversed(clashing))
    for index, existing in _conflicts([key for key, _ in clashing]):
        key, lineno = clashing[index]
        if existing == key:
            diagnostics.append(_duplicate(key, lineno, first_line[key]))
        else:
            exc = PrefixConflictError(Path.parse(existing), Path.parse(key))
            diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
    diagnostics.sort(key=attrgetter("line"))  # one per line
    raise ParseError(diagnostics)


def _duplicate(key: str, lineno: int, first_line: int) -> Diagnostic:
    """The diagnostic at ``lineno`` of a flat key that the line ``first_line`` binds already."""
    message = f"duplicate path {_show(key)}; first bound at line {first_line}"
    return Diagnostic("E_DUPLICATE_PATH", lineno, message)


def _read_keys(text: str) -> tuple[list | None, list[Diagnostic], list]:
    """A flat document's sorted pairs if clean, else None, its lexical diagnostics, clashing keys.

    The clean test of :func:`_read_flat` and :func:`_key_conflicts`: no
    syntax error, and no clash in the one sort and scan of
    :func:`core._sorted_scan`. For a document that fails it, a diagnostic
    per syntax error and per key that is no path (see :func:`_paths_only`),
    and the ``(key, line)`` entries of the paths that
    :func:`core._clashing` finds, sorted by key, then by line. A failing
    document keeps that sort and scan, and finds each pair's line by the
    pair's identity; only when some key is no path are the others scanned
    again.
    """
    pairs, skipped = _entry_lines(text)
    items, clashing = _sorted_scan(pairs)
    clean = clashing == []
    if clean and min(skipped, default=1) > 0:
        return items, [], []
    diagnostics = _syntax_errors(skipped)
    if clean:  # only syntax errors
        return None, diagnostics, []
    line = dict(_numbered(map(id, pairs), skipped))
    if clashing is not None:  # every key is a path
        return None, diagnostics, [(pair[0], line[id(pair)]) for pair in clashing]
    entries = _paths_only([(pair[0], line[id(pair)]) for pair in items], diagnostics)
    return None, diagnostics, _clashing(entries, list(map(_text, entries)))


def _paths_only(entries: list, diagnostics: list[Diagnostic]) -> list:
    """The ``(key, line)`` entries whose key is a path, and a diagnostic for each other one.

    Each key is matched alone, and only a key that fails is parsed, for the
    error that names its segment.
    """
    dotted = []
    for key, lineno in entries:
        if _is_dotted(key) is None:
            try:
                Path.parse(key)
            except BadPathError as exc:
                diagnostics.append(Diagnostic(exc.code, lineno, str(exc)))
                continue
        dotted.append((key, lineno))
    return dotted


def _key_conflicts(text: str) -> list[Diagnostic]:
    """Every problem of a flat document's keys, each conflicting pair of lines once.

    The lexical diagnostics of :func:`scan_flat`, and for each two lines
    whose paths are equal or one a prefix of the other, one diagnostic at
    the later line; ordered by that line, then by the earlier one. Works
    on the dotted texts, without a ``Path`` per line and without the trie;
    a key that is no path is named as :func:`_paths_only` names it. A
    document that passes :func:`_read_keys`'s clean test has none.

    Only the keys that :func:`core._clashing` finds are scanned, sorted by
    text, in which order the copies and extensions of a path follow it
    contiguously; each scan stops at the first text its own is no prefix
    of. The cost is O(n log n + conflicting pairs).
    """
    ordered, diagnostics, entries = _read_keys(text)
    if ordered is not None:
        return []
    problems = [(d.line, 0, d) for d in diagnostics]
    for i, (key, _) in enumerate(entries):
        j = i + 1
        while j < len(entries) and _text_prefix(key, entries[j][0]):
            (first, first_line), (second, second_line) = sorted(
                (entries[i], entries[j]), key=itemgetter(1)
            )
            if first == second:
                diag = _duplicate(second, second_line, first_line)
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
    pending = [iter(root.items())]
    while pending:
        prefix = prefixes[-1]
        for name, value in pending[-1]:
            kind = type(value)
            if kind is Node:
                prefixes.append(f"{prefix}{name}.")
                pending.append(iter(value.items()))
                break
            if kind is Leaf:
                value = value.value
            # _flat_line's checks, inline for the common case
            if type(value) is str and "\n" not in value and value == value.strip():
                parts.append(f"{prefix}{name} = {value}\n")
            else:
                parts.append(_flat_line(prefix + name, value))
        else:
            pending.pop()
            prefixes.pop()
    return "".join(parts)


def _flat_from_sorted(items: list, cut: int = 0) -> str:
    """What :func:`emit_flat` writes for clean ``(dotted text, value)`` pairs in text order.

    Each text is written from index ``cut`` on. Every value was read from
    a flat line, so a flat line holds it.
    """
    return "".join([f"{text[cut:]} = {value}\n" for text, value in items])


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

    json hands over each object as the tuple of its pairs, with no Python
    call, and the walk builds its node from them once
    (:func:`_node_from_json`). The directory keeps its ``len``, the sum of
    the entries of its nodes less the nodes below the root, so counting
    it walks nothing.
    """
    diagnostics: list[Diagnostic] = []
    try:
        data = json.loads(text, object_pairs_hook=tuple)
        if type(data) is tuple:
            sizes: list[int] = []
            root = _node_from_json(data, (), set(), sizes, diagnostics, top=True)
            size = sum(sizes) - len(sizes) + 1 if sizes else 0
        else:  # checked as the one item of an array
            _check_array([data], (), diagnostics)
            root, size = Leaf(data), 1
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
    return _sized(root, size)


class _Repeats(dict):
    """A JSON object that names some keys more than once; ``repeated`` lists them."""

    __slots__ = ("repeated",)


def _object(pairs: tuple) -> dict:
    """The dict json would make of an object's ``pairs``, marked when a key repeats."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    marked = _Repeats(obj)
    marked.repeated = _repeated(pairs)
    return marked


def _repeated(pairs) -> list[str]:
    """The keys that ``pairs`` name more than once, sorted."""
    return sorted(k for k, n in Counter(map(_text, pairs)).items() if n > 1)


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


def _node_from_json(pairs: tuple, at: tuple, names: set, sizes: list, diagnostics: list, top: bool):
    """The node of a JSON object's ``pairs`` at path ``at``, or None for an empty one.

    Recurses once per level of objects; a value is kept as json read it,
    since json makes no ``Leaf`` or ``Node``. ``names`` holds the key texts
    found to be names, so a document checks each new key once, in one call
    per object, and ``sizes`` gets the number of entries of each node.

    The node's entries are built once, sorted from the pairs; a key seen
    twice leaves fewer entries than pairs, each holding its last value.
    The walk goes in text order, over the pairs, or over each key's last
    value at the key's first place when a key repeats, so every diagnostic
    comes in the order the text gives. Each subtree replaces its object's
    pairs in the entries, and each array is checked in place
    (:func:`_check_array`). A key that is no name is reported in its
    place, in key order, and its value is not walked. A node of an object
    that held such a key, or whose subtree left a diagnostic, is never
    used, since the document then fails.
    """
    if not pairs:
        if not top:
            diagnostics.append(Diagnostic("E_EMPTY_SUBDIR", 1, f"empty object at {_show(at)}"))
        return None
    entries = _Sorted(sorted(pairs, key=_text))
    if len(entries) != len(pairs):
        for key in _repeated(pairs):
            message = f"duplicate path '{'.'.join((*at, key))}'"
            diagnostics.append(Diagnostic("E_DUPLICATE_PATH", 1, message))
        pairs = dict(pairs).items()
    sizes.append(len(entries))
    bad = ()
    if not names.issuperset(entries):
        new = entries.keys() - names
        if _names(new):
            names.update(new)
        else:
            bad = {key for key in new if _is_name(key) is None}
    for key, value in pairs:
        if key in bad:
            message = f"invalid key {key!r} under {_show(at)}: {_fault(key)[1]}"
            diagnostics.append(Diagnostic(BadNameError.code, 1, message))
            continue
        kind = type(value)
        if kind is tuple:  # an object, as the hook hands it over
            entries[key] = _node_from_json(value, (*at, key), names, sizes, diagnostics, False)
        elif kind is list:
            _check_array(value, (*at, key), diagnostics)
        elif kind is float and value - value != 0.0:  # NaN or an infinity
            raise ValueError(value)
    return Node(entries)


def _check_array(value: list, at: tuple, diagnostics: list) -> None:
    """Check what an array leaf at ``at`` holds, without recursion, making its objects dicts.

    Each object in it, which json hands over as the tuple of its pairs, is
    replaced in place by the ``dict`` of :func:`_object`, in text key
    order, so the leaf holds what ``json.loads`` makes without a hook.
    Reports the keys its objects repeat; raises ``ValueError`` for a float
    that is not finite.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is list:
            if tuple in map(type, item):
                item[:] = [_object(x) if type(x) is tuple else x for x in item]
            stack.extend(item)
        elif isinstance(item, dict):
            for key in getattr(item, "repeated", ()):
                message = f"duplicate key {key!r} in the value at {_show(at)}"
                diagnostics.append(Diagnostic("E_DUPLICATE_PATH", 1, message))
            if tuple in map(type, item.values()):
                for key, x in item.items():
                    if type(x) is tuple:
                        item[key] = _object(x)
            stack.extend(item.values())
        elif kind is float and item - item != 0.0:
            raise ValueError(item)


def emit_nested(directory: Dtry) -> str:
    """Emit the canonical nested JSON document (sorted keys, 2-space indent).

    The text is what ``json.dumps(..., indent=2, sort_keys=True,
    ensure_ascii=False)`` writes for the directory as nested objects; it
    is built straight from the trie, without recursion. A str, an exact
    int, a finite float, a bool, None and a nonempty array of exact ints
    are written here; json's encoder writes every other leaf. The trie's
    height is found first, so that a trie too deep is refused before any
    text is built, and each depth's line start and comma are made once
    from it.

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
    height = _height(root)
    readable = _readable(height)
    # The text that starts a line at each depth, and the comma and line
    # start before each entry but a node's first, made once per depth.
    indents = ["\n" + "  " * depth for depth in range(height + 1)]
    commas = ["," + indent for indent in indents]
    out = ["{"]
    # Depth first without recursion, as Dtry.path_map walks: one iterator
    # per open node. ``sep`` goes before the innermost one's next entry.
    sep = indents[1]
    pending = [iter(root.items())]
    while True:
        depth = len(pending)
        indent, comma = indents[depth], commas[depth]
        for name, value in pending[-1]:
            kind = type(value)
            if kind is Node:
                out.append(f'{sep}"{name}": {{')
                sep = indents[depth + 1]
                pending.append(iter(value.items()))
                break
            if kind is Leaf:
                value = value.value
                kind = type(value)
            if kind is str:
                text = _string(value)
            elif kind is int:
                text = _int(value)
            elif kind is float and value - value == 0.0:  # finite
                text = _float(value)
            elif value is None:
                text = "null"
            elif value is True:
                text = "true"
            elif value is False:
                text = "false"
            else:
                text = _int_array(value, indent)
                if text is None:
                    text = _leaf_text(value, indent)
                    # The value's own arrays and objects nest further;
                    # its brackets bound how far.
                    if depth + text.count("[") + text.count("{") > readable:
                        readable = max(readable, _readable(depth + _levels(value)))
                elif depth >= readable:  # the array is one level more
                    readable = _readable(depth + 1)
            out.append(f'{sep}"{name}": {text}')
            sep = comma
        else:
            pending.pop()
            depth -= 1
            out.append(indents[depth])
            out.append("}")
            if not depth:
                return "".join(out) + "\n"
            sep = commas[depth]


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
    _readable(max(map(str.count, map(_text, items), repeat("."))) + 1)  # the nodes on the longest path
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
_INTS = {int}
# Every other leaf, as json.dumps writes it with the document's settings.
_LEAF = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)


def _int_array(value, indent: str) -> str | None:
    """A nonempty list of exact ints as json writes it at ``indent``, in one pass in C.

    None for any other value, which json's encoder writes.
    """
    if type(value) is not list or set(map(type, value)) != _INTS:
        return None
    inner = indent + "  "
    return f"[{inner}{(',' + inner).join(map(_int, value))}{indent}]"


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
        level = [c for node in level for c in node.values() if type(c) is Node]
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

