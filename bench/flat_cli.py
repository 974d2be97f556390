"""Workload ``flat_cli``: in-process ``dtry.cli.main`` calls on flat files.

One pass is a fixed mix of 127 calls over 24 flat files of 100 to 1000
lines (four of them with one section several hundred keys wide, six with
planted duplicates, prefix conflicts or syntax errors), 16 more flat
files of 500 lines for ``check``, and eight nested files: ``validate``,
``convert`` both ways, ``get`` of a leaf, a subtree and a missing path,
``merge`` of two or three files, ``check``, and five hostile inputs that
reproduce known robustness defects.

Builds go through repeated ``Dtry.insert``, so the wide sections show its
copying cost; ``check`` compares every pair of lines and makes the tail.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

import oracle
from common import Op, fresh_name, gen_paths, json_value, run_cli, text_value

SIZES = (100, 150, 200, 300, 400, 500, 700, 1000)
COPIES = 3
WIDE_COPY = 1  # copy 1 of each size >= 400 has a wide section of n/2 keys
DEFECT_COPY = 2  # copy 2 of these sizes carries planted defects
DEFECT_SIZES = (100, 200, 300, 500, 700, 1000)
DEFECT_KINDS = ("duplicate", "prefix", "syntax")
# check compares every pair of lines. It runs on 16 files of 500 lines
# (four with defects), the slowest ops of a pass, so that latency_p90_ms
# falls among them.
CHECK_FILES, CHECK_SIZE = 16, 500
PASSES = 6  # passes per measuring run
DEEP_FLAT_SEGMENTS = 3000
DEEP_NESTED_LEVELS = 5000

HOSTILE = (
    "non_utf8_validate",
    "non_utf8_merge",
    "space_value_convert",
    "deep_flat_convert",
    "deep_nested_validate",
)


class FlatFile(NamedTuple):
    path: str
    text: str  # as the CLI reads it
    pairs: list  # the generated (segments, value) entries
    valid: bool
    n: int


def _render(rng, pairs):
    """File lines for ``pairs``, with comments, blank lines and spacing variants."""
    lines = []
    for segs, value in pairs:
        roll = rng.random()
        if roll < 0.02:
            lines.append(f"# {fresh_name(rng, set())} settings")
        elif roll < 0.04:
            lines.append("")
        sep = rng.choice((" = ", "=", "  =  ", " ="))
        lines.append(f"{'.'.join(segs)}{sep}{value}")
    return lines


def _plant(rng, lines, pairs, kind):
    """Insert two defects of ``kind`` after the lines they collide with."""
    for _ in range(2):
        at = rng.randrange(len(lines) // 2)
        segs = pairs[min(at, len(pairs) - 1)][0]
        if kind == "duplicate":
            bad = f"{'.'.join(segs)} = {text_value(rng)}"
        elif kind == "prefix" and len(segs) > 2 and rng.random() < 0.5:
            bad = f"{'.'.join(segs[:-1])} = {text_value(rng)}"
        elif kind == "prefix":
            bad = f"{'.'.join(segs)}.{fresh_name(rng, set())} = {text_value(rng)}"
        else:
            bad = rng.choice(
                (
                    f"{'.'.join(segs)} {text_value(rng)}",
                    f"{segs[0]}.bad-key = 1",
                    f"{segs[0]}..{segs[-1]} = 1",
                )
            )
        lines.insert(rng.randrange(at + 1, len(lines) + 1), bad)


def _write(path, text, crlf=False):
    data = text.replace("\n", "\r\n") if crlf else text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def _cli_op(main, kind, argv, entries, expect, hostile=None, judge=None):
    return Op(kind, entries, lambda: run_cli(main, argv), expect, hostile=hostile, judge=judge)


def _convert_to_nested_expect(text):
    pairs, diags = oracle.parse_flat(text)
    if diags:
        return (oracle.EXIT_INVALID, "", oracle.diag_text(diags))
    return (oracle.EXIT_OK, oracle.nested_text(pairs), "")


def _validate_expect(text):
    _, diags = oracle.parse_flat(text)
    return (oracle.EXIT_INVALID if diags else oracle.EXIT_OK, "", oracle.diag_text(diags))


def _get_expect(text, segs):
    pairs, _ = oracle.parse_flat(text)
    for p, v in pairs:
        if p == segs:
            return (oracle.EXIT_OK, v + "\n", "")
    under = [(p[len(segs) :], v) for p, v in pairs if p[: len(segs)] == segs]
    if under:
        return (oracle.EXIT_OK, oracle.flat_text(under), "")
    return (oracle.EXIT_NOT_FOUND, "", f"error: no entry at {oracle.dotted(segs)!r}\n")


def _merge_expect(named_texts):
    merged = []
    for name, text in named_texts:
        pairs, _ = oracle.parse_flat(text)
        merged.extend(((name,) + p, v) for p, v in pairs)
    return (oracle.EXIT_OK, oracle.flat_text(merged), "")


def _reports_error(op, out, exc):
    """A hostile input of invalid text: a documented nonzero code and a diagnostic."""
    return exc is None and out[0] in (oracle.EXIT_INVALID, oracle.EXIT_IO) and out[2] != ""


def _converts_or_reports(op, out, exc):
    """A hostile input of valid text: the correct output, or exit 1 with a diagnostic."""
    if exc is not None:
        return False
    if out[0] == oracle.EXIT_OK:
        return op.matches(out)
    return out[0] == oracle.EXIT_INVALID and out[2] != ""


def _converts_deep_flat(op, out, exc):
    """``_converts_or_reports`` for the deep flat path, checked in place."""
    if exc is None and out[0] == oracle.EXIT_OK:
        return out[2] == "" and oracle.is_chain_nested_text(out[1], DEEP_FLAT_SEGMENTS, "s", "v")
    return _converts_or_reports(op, out, exc)


def _flat_file(rng, workdir, name, n, wide=0, defect=None, crlf=False) -> FlatFile:
    """Write one seeded flat file of ``n`` entries."""
    pairs = [(segs, text_value(rng)) for segs in gen_paths(rng, n, wide)]
    rng.shuffle(pairs)
    lines = _render(rng, pairs)
    if defect is not None:
        _plant(rng, lines, pairs, defect)
    text = "\n".join(lines) + "\n"
    path = workdir / f"{name}.dtry"
    _write(path, text, crlf)
    return FlatFile(str(path), text, pairs, defect is None, n)


def _check_op(main, f):
    def expect():
        diags = oracle.check_flat(f.text)
        return (oracle.EXIT_INVALID if diags else oracle.EXIT_OK, "", oracle.diag_text(diags))

    return _cli_op(main, "check", ["check", f.path], f.n, expect)


def build(seed, workdir, dtry):
    """Write the seeded files under ``workdir`` and return one pass of ops."""
    main = dtry.cli.main
    rng = random.Random(seed)
    ops = []
    flat_files = []
    for copy in range(COPIES):
        for n in SIZES:
            defect = None
            if copy == DEFECT_COPY and n in DEFECT_SIZES:
                defect = DEFECT_KINDS[DEFECT_SIZES.index(n) % len(DEFECT_KINDS)]
            wide = n // 2 if copy == WIDE_COPY and n >= 400 else 0
            crlf = copy == 0 and n in (150, 400)
            flat_files.append(_flat_file(rng, workdir, f"flat_{copy}_{n}", n, wide, defect, crlf))
    for i in range(CHECK_FILES):
        defect = DEFECT_KINDS[i // 4 % len(DEFECT_KINDS)] if i % 4 == 3 else None
        ops.append(_check_op(main, _flat_file(rng, workdir, f"check_{i}", CHECK_SIZE, defect=defect)))

    for path, text, pairs, valid, n in flat_files:
        ops.append(_cli_op(main, "validate", ["validate", path], n, lambda t=text: _validate_expect(t)))
        ops.append(
            _cli_op(
                main,
                "convert_to_nested",
                ["convert", "--from", "flat", "--to", "nested", path],
                n,
                lambda t=text: _convert_to_nested_expect(t),
            )
        )
        if not valid:
            continue
        leaf = rng.choice(pairs)[0]
        sub = rng.choice(pairs)[0][: rng.choice((1, 2))]
        for target in (leaf, sub):
            ops.append(
                _cli_op(
                    main,
                    "get",
                    ["get", oracle.dotted(target), path],
                    n,
                    lambda t=text, s=target: _get_expect(t, s),
                )
            )
        if n in (100, 300, 700):
            miss = rng.choice(pairs)[0][:1] + (fresh_name(rng, set(), 9, 10),)
            ops.append(
                _cli_op(
                    main,
                    "get",
                    ["get", oracle.dotted(miss), path],
                    n,
                    lambda t=text, s=miss: _get_expect(t, s),
                )
            )

    valid_files = [f for f in flat_files if f.valid]
    for i in range(8):
        chosen = [valid_files[(3 * i + k * 7) % len(valid_files)] for k in range(2 + i % 2)]
        names = ("left", "right", "extra")[: len(chosen)]
        argv = ["merge"]
        for name, f in zip(names, chosen):
            argv += ["--prefix", f"{name}={f.path}"]
        ops.append(
            _cli_op(
                main,
                "merge",
                argv,
                sum(f.n for f in chosen),
                lambda nt=tuple((nm, f.text) for nm, f in zip(names, chosen)): _merge_expect(nt),
            )
        )

    for n in SIZES:
        pairs = [(segs, json_value(rng)) for segs in gen_paths(rng, n)]
        path = workdir / f"nested_{n}.json"
        _write(path, json.dumps(oracle.nested_obj(pairs)))
        ops.append(
            _cli_op(
                main,
                "convert_to_flat",
                ["convert", "--from", "nested", "--to", "flat", str(path)],
                n,
                lambda p=pairs: (oracle.EXIT_OK, oracle.flat_text(p), ""),
            )
        )

    ops.extend(_hostile_ops(main, workdir, flat_files[0]))
    rng.shuffle(ops)
    return ops


def _hostile_ops(main, workdir, clean):
    """The robustness defects listed in the roadmap, one op each."""
    ops = []
    raw = workdir / "non_utf8.dtry"
    raw.write_bytes(b"sec.key = caf\xe9\nsec.other = \xff\xfe\n")
    ops.append(
        _cli_op(main, "hostile", ["validate", str(raw)], 2, None,
                hostile="non_utf8_validate", judge=_reports_error)
    )
    ops.append(
        _cli_op(main, "hostile", ["merge", "--prefix", f"a={clean.path}", "--prefix", f"b={raw}"],
                clean.n + 2, None, hostile="non_utf8_merge", judge=_reports_error)
    )
    spaced = workdir / "space_value.json"
    _write(spaced, '{"a": " x"}')
    ops.append(
        _cli_op(main, "hostile", ["convert", "--from", "nested", "--to", "flat", str(spaced)], 1,
                None, hostile="space_value_convert", judge=_reports_error)
    )
    deep_flat = workdir / "deep_flat.dtry"
    _write(deep_flat, ".".join(["s"] * DEEP_FLAT_SEGMENTS) + " = v\n")
    ops.append(
        _cli_op(
            main,
            "hostile",
            ["convert", "--from", "flat", "--to", "nested", str(deep_flat)],
            1,
            None,
            hostile="deep_flat_convert",
            judge=_converts_deep_flat,
        )
    )
    deep_nested = workdir / "deep_nested.json"
    _write(deep_nested, '{"s": ' * DEEP_NESTED_LEVELS + "1" + "}" * DEEP_NESTED_LEVELS)
    ops.append(
        _cli_op(
            main,
            "hostile",
            ["validate", "--format", "nested", str(deep_nested)],
            1,
            lambda: (oracle.EXIT_OK, "", ""),
            hostile="deep_nested_validate",
            judge=_converts_or_reports,
        )
    )
    return ops
