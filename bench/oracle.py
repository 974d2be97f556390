"""Expected outputs of the flat/nested formats and the CLI, in plain Python.

Nothing here imports ``dtry``. Paths are tuples of segment strings; a
directory is a list of ``(segments, value)`` pairs. Canonical order is the
order of the segment tuples, and the diagnostic texts are the ones the
CLI documents as ``LINE:CODE:MESSAGE``.
"""

from __future__ import annotations

import itertools
import json
import string

_NAME_CHARS = frozenset(string.ascii_letters + string.digits + "_")

EXIT_OK, EXIT_INVALID, EXIT_IO, EXIT_NOT_FOUND = 0, 1, 2, 3


def dotted(segs) -> str:
    return ".".join(segs)


def _quoted(segs) -> str:
    return f"'{dotted(segs)}'" if segs else "the root path"


def _bad_segment(seg):
    if not seg:
        return 0, "name is empty"
    for i, ch in enumerate(seg):
        if ch not in _NAME_CHARS:
            return i, f"invalid character {ch!r}"
    return None


def scan(text):
    """Entries ``(line, segs, value)`` and lexical diagnostics ``(line, code, msg)``."""
    entries, diags = [], []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        lhs, sep, rhs = line.partition("=")
        if not sep:
            diags.append((lineno, "E_SYNTAX", "expected a 'path = value' line"))
            continue
        key = lhs.strip()
        segs = tuple(key.split(".")) if key else ()
        for i, seg in enumerate(segs):
            bad = _bad_segment(seg)
            if bad is not None:
                diags.append(
                    (lineno, "E_BAD_PATH", f"bad path {key!r} at segment {i}: {bad[1]}")
                )
                break
        else:
            entries.append((lineno, segs, rhs.strip()))
    return entries, diags


def parse_flat(text):
    """``(pairs, diags)`` for a flat document, binding entries in file order.

    A line whose path is already bound is a duplicate; one that extends a
    bound path, or is a prefix of bound paths (blamed on the least of
    them), is a prefix conflict. Failing lines bind nothing.
    """
    entries, diags = scan(text)
    bound: dict[tuple, int] = {}
    least_under: dict[tuple, tuple] = {}
    for lineno, segs, value in entries:
        if segs in bound:
            where = f"'{dotted(segs)}'" if segs else "the root"
            diags.append(
                (lineno, "E_DUPLICATE_PATH", f"duplicate path {where}; first bound at line {bound[segs]}")
            )
            continue
        shorter = next((segs[:k] for k in range(len(segs)) if segs[:k] in bound), None)
        if shorter is not None:
            diags.append(
                (
                    lineno,
                    "E_PREFIX_CONFLICT",
                    f"path {_quoted(segs)} extends the bound path {_quoted(shorter)}",
                )
            )
            continue
        if segs in least_under:
            diags.append(
                (
                    lineno,
                    "E_PREFIX_CONFLICT",
                    f"path {_quoted(segs)} is a prefix of the bound path {_quoted(least_under[segs])}",
                )
            )
            continue
        bound[segs] = lineno
        for k in range(len(segs)):
            least = least_under.get(segs[:k])
            if least is None or segs < least:
                least_under[segs[:k]] = segs
    if diags:
        return None, sorted(diags, key=lambda d: d[0])
    values = {segs: value for _, segs, value in entries}
    return sorted((segs, values[segs]) for segs in bound), []


def check_flat(text):
    """Every duplicate and prefix-conflicting pair of lines, as ``check`` lists them."""
    entries, diags = scan(text)
    lines: dict[tuple, list] = {}
    for lineno, segs, _ in entries:
        lines.setdefault(segs, []).append(lineno)
    pairs = []
    for segs, at in lines.items():
        for i, a in enumerate(at):
            for b in at[i + 1 :]:
                pairs.append(
                    (b, a, "E_DUPLICATE_PATH", f"duplicate path '{dotted(segs)}'; first bound at line {a}")
                )
        for k in range(len(segs)):
            for a in lines.get(segs[:k], ()):
                for b in at:
                    first, second = (segs[:k], segs) if a < b else (segs, segs[:k])
                    lo, hi = min(a, b), max(a, b)
                    pairs.append(
                        (
                            hi,
                            lo,
                            "E_PREFIX_CONFLICT",
                            f"paths '{dotted(first)}' (line {lo}) and '{dotted(second)}' conflict",
                        )
                    )
    pairs.sort(key=lambda p: (p[0], p[1]))
    found = diags + [(line, code, msg) for line, _, code, msg in pairs]
    return sorted(found, key=lambda d: d[0])


def diag_text(diags) -> str:
    return "".join(f"{line}:{code}:{msg}\n" for line, code, msg in diags)


def flat_value(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def flat_text(pairs) -> str:
    """Canonical flat text: lines sorted by the tuple of segments."""
    return "".join(f"{dotted(segs)} = {flat_value(v)}\n" for segs, v in sorted(pairs, key=lambda p: p[0]))


def nested_obj(pairs):
    root: dict = {}
    for segs, value in pairs:
        node = root
        for seg in segs[:-1]:
            node = node.setdefault(seg, {})
        node[segs[-1]] = value
    return root


def nested_text(pairs) -> str:
    return json.dumps(nested_obj(pairs), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def is_chain_nested_text(text: str, depth: int, seg: str, value: str) -> bool:
    """Whether ``text`` is the canonical nested text of one leaf ``depth`` segments deep.

    Compares line by line in place: the expected text of a deep chain is
    megabytes long, and building it would dwarf the program's own memory.
    """
    lines = itertools.chain(
        ["{\n"],
        ("  " * i + f'"{seg}": {{\n' for i in range(1, depth)),
        ["  " * depth + f'"{seg}": {json.dumps(value)}\n'],
        ("  " * i + "}\n" for i in range(depth - 1, 0, -1)),
        ["}\n"],
    )
    pos = 0
    for line in lines:
        if not text.startswith(line, pos):
            return False
        pos += len(line)
    return pos == len(text)
