"""Command line for directory files.

Subcommands: validate, convert, get, merge, check. Exit codes are fixed
for scripting: 0 ok, 1 invalid input, 2 I/O error, 3 not found.
Diagnostics go to stderr as ``LINE:CODE:MESSAGE``; results go to stdout.
``-`` names stdin. Files and stdin alike are decoded as UTF-8; a byte
sequence that is not UTF-8 is one ``E_ENCODING`` diagnostic at the line
of the first bad byte, exit 1. A value the flat
form cannot hold (a newline, or whitespace at either end) is an
``E_UNREPRESENTABLE`` diagnostic naming its path, exit 1. Output that
would hold a lone surrogate (JSON's ``\\ud800`` escape reads as one),
which UTF-8 cannot encode, is an ``E_ENCODING`` diagnostic naming the
value's path, exit 1. The nested format has one bound, set by Python's
recursion limit (1000 by default): about 990 levels of nesting, and a
nested input or ``--to nested`` output beyond it is one
``1:E_TOO_DEEP:...`` diagnostic, exit 1. So is an array value that
reads but is nested too deep to write as the JSON text of a flat line
(``convert --from nested --to flat``, and ``get`` on a nested file).
Every diagnostic is printed by :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from bisect import bisect_left

from .core import Dtry, _text
from .errors import BadNameError, BadPathError, _show
from .formats import (
    Diagnostic,
    ParseError,
    _flat_from_sorted,
    _key_conflicts,
    _nested_from_sorted,
    _read_flat,
    _too_deep,
    emit_flat,
    emit_nested,
    parse_nested,
)
from .paths import Path, _name

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NOT_FOUND = 3


def _read(source: str) -> str:
    if source == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        message = f"not UTF-8 at byte offset {exc.start}: {exc.reason}"
        raise ParseError([Diagnostic("E_ENCODING", line, message)]) from exc


def _flat_value(value):
    # Nested values may be any JSON scalar or array; flat lines hold text.
    return value if isinstance(value, str) else json.dumps(value)


def _flat_text(directory: Dtry) -> tuple[str, Dtry]:
    """The flat text of ``directory``, and the directory it writes: its values turned into text.

    A node whose values are all text already is kept with its whole subtree,
    not rebuilt. A value no flat line can hold is invalid input, reported
    like a parse failure, and so is an array nested past what ``json.dumps``
    can write from here: ``E_TOO_DEEP``.
    """
    try:
        written = directory.map_values(_flat_value)
    except RecursionError:
        raise _too_deep() from None
    try:
        return emit_flat(written), written
    except ValueError as exc:
        raise ParseError([Diagnostic("E_UNREPRESENTABLE", 1, str(exc))]) from exc


def _write(text: str, directory: Dtry) -> None:
    """Write ``text`` to stdout; ``directory`` holds the values as ``text`` writes them.

    A lone surrogate (JSON's ``"\\ud800"`` reads as one) has no UTF-8
    form; output that holds one is an ``E_ENCODING`` diagnostic naming the
    leaf that holds it.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError([_unencodable(directory)]) from None
    sys.stdout.write(text)


def _unencodable(directory: Dtry) -> Diagnostic:
    for path, value in directory.path_map().items():
        text = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            message = (
                f"value at {_show(path)} holds the lone surrogate {exc.object[exc.start]!r}, "
                "which UTF-8 cannot encode"
            )
            return Diagnostic("E_ENCODING", 1, message)
    raise AssertionError("no leaf holds the text that UTF-8 cannot encode")


def cmd_validate(args) -> int:
    text = _read(args.file)
    if args.format == "flat":
        _read_flat(text)  # the keys are paths, none repeated, none a prefix: no trie is built
    else:
        parse_nested(text)
    return EXIT_OK


def cmd_convert(args) -> int:
    text = _read(args.file)
    if args.from_ == "flat":
        # The sorted pairs are the directory, unbuilt; what they hold was
        # decoded as strict UTF-8, which yields no lone surrogate, so the
        # output needs no _unencodable walk.
        write = _nested_from_sorted if args.to == "nested" else _flat_from_sorted
        sys.stdout.write(write(_read_flat(text)))
        return EXIT_OK
    directory = parse_nested(text)
    if args.to == "nested":
        _write(emit_nested(directory), directory)
    else:
        _write(*_flat_text(directory))
    return EXIT_OK


def _flat_get(items: list, at: str) -> str | None:
    """What ``get`` prints for the dotted path ``at`` in a clean flat file's sorted pairs.

    None when nothing is found. The texts that extend ``at`` lie from
    ``at + "."`` to just below ``at + "/"``, since ``/`` follows ``.``.
    As in ``Dtry.lookup``, the root path is found in any directory, an
    empty one too, and a path that runs past a leaf is not found.
    """
    i = bisect_left(items, at, key=_text)
    if i < len(items) and items[i][0] == at:  # a leaf: its bare value
        return items[i][1] + "\n"
    if not at:
        return _flat_from_sorted(items)
    lo = bisect_left(items, at + ".", lo=i, key=_text)
    hi = bisect_left(items, at + "/", lo=lo, key=_text)
    return _flat_from_sorted(items[lo:hi], len(at) + 1) if lo < hi else None


def cmd_get(args) -> int:
    path = Path.parse(args.path)
    text = _read(args.file)
    if args.format == "flat":
        found = _flat_get(_read_flat(text), str(path))
        if found is not None:
            sys.stdout.write(found)  # strict UTF-8 text, as in convert
            return EXIT_OK
    else:
        directory = parse_nested(text).lookup(path)
        if directory is not None:
            text, written = _flat_text(directory)
            # A leaf's flat form is the root line ' = VALUE'; get prints the bare value.
            _write(text.removeprefix(" = ") if directory.is_leaf else text, written)
            return EXIT_OK
    print(f"error: no entry at {str(path)!r}", file=sys.stderr)
    return EXIT_NOT_FOUND


def cmd_merge(args) -> int:
    entries: dict[str, list] = {}
    for binding in args.prefix:
        name_text, sep, file_name = binding.partition("=")
        if not sep:
            print(f"error: --prefix takes NAME=FILE, got {binding!r}", file=sys.stderr)
            return EXIT_INVALID
        name = _name(name_text)
        if name in entries:
            print(f"error: duplicate prefix {name!r}", file=sys.stderr)
            return EXIT_INVALID
        entries[name] = _read_flat(_read(file_name))
    # Under its name, each file's sorted keys stay in path order; a root
    # key becomes the name itself.
    merged = [
        (f"{name}.{text}" if text else name, value)
        for name in sorted(entries)
        for text, value in entries[name]
    ]
    sys.stdout.write(_flat_from_sorted(merged))
    return EXIT_OK


def cmd_check(args) -> int:
    diagnostics = _key_conflicts(_read(args.file))
    if diagnostics:
        raise ParseError(diagnostics)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    ``parse_args`` keeps no state between calls.
    """
    parser = argparse.ArgumentParser(
        prog="dtry", description="Validate, convert, and query directory files."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a file; exit 0 iff it is a valid directory")
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--format", choices=("flat", "nested"), default="flat")

    p = sub.add_parser("convert", help="convert between the flat and nested formats")
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--from", dest="from_", required=True, choices=("flat", "nested"))
    p.add_argument("--to", required=True, choices=("flat", "nested"))

    p = sub.add_parser("get", help="print the subdirectory at a path")
    p.add_argument("path", help="dotted path; empty string for the whole directory")
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--format", choices=("flat", "nested"), default="flat")

    p = sub.add_parser("merge", help="combine files under distinct prefixes")
    p.add_argument(
        "--prefix",
        action="append",
        required=True,
        metavar="NAME=FILE",
        help="mount FILE under NAME; repeatable",
    )

    p = sub.add_parser("check", help="report duplicate and prefix-conflicting keys")
    p.add_argument("file", help="input file, or - for stdin")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up per call, so that a rebinding of a command function (the
    # benchmark's tracer wraps them) is seen by the one cached parser.
    run = globals()[f"cmd_{args.command}"]
    # The one place where input failures become exit codes.
    try:
        return run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return EXIT_INVALID
    except (BadPathError, BadNameError) as exc:  # a path or name on the command line
        print(Diagnostic(exc.code, 1, str(exc)), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
