"""Pieces shared by the three workloads: ops, CLI capture and name generation.

An op is one closed-loop unit of work. Its ``run`` does the timed work and
returns plain Python data (strings, ints, tuples). Its oracle computes the
expected data without calling ``dtry``; it runs once, when the op is made,
and the op keeps only a digest of the result, so that the measuring
process holds little besides the inputs and ``dtry``'s own data.
"""

from __future__ import annotations

import hashlib
import io
import string
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("flat_cli", "nested_query", "families")


def digest(out) -> str:
    """A fingerprint of an op's output: equal outputs give equal digests."""
    return hashlib.sha256(repr(out).encode()).hexdigest()


class Op:
    """One unit of work with its entry count and the digest of its expected output.

    ``hostile`` names an input that reproduces a known robustness defect;
    such ops are judged by ``judge(op, out, exc)`` instead of by equality,
    because a fixed program may answer them in more than one valid way.
    ``oracle`` may be None for a hostile op whose judge needs no expected output.
    """

    __slots__ = ("kind", "entries", "run", "expected", "hostile", "judge")

    def __init__(self, kind, entries, run, oracle, *, hostile=None, judge=None):
        self.kind = kind
        self.entries = entries
        self.run = run
        self.expected = None if oracle is None else digest(oracle())
        self.hostile = hostile
        self.judge = judge

    def matches(self, out) -> bool:
        return digest(out) == self.expected

    def passes(self, out, exc) -> bool:
        if self.judge is not None:
            return self.judge(self, out, exc)
        return exc is None and self.matches(out)


def correct_or_rejected(error_type):
    """Judge for a hostile library input: the right answer, or a clean ``error_type``."""

    def judge(op, out, exc):
        if exc is None:
            return op.matches(out)
        return isinstance(exc, error_type)

    return judge


def run_cli(main, argv):
    """Call ``dtry.cli.main(argv)`` in-process; return (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_name(rng, used, lo=3, hi=8):
    """A lowercase identifier not yet in ``used``; adds it to ``used``."""
    while True:
        name = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(lo, hi)))
        if rng.random() < 0.3:
            name += str(rng.randint(0, 99))
        if name not in used:
            used.add(name)
            return name


def gen_paths(rng, n, wide=0):
    """``n`` prefix-free paths shaped like configuration keys.

    Mostly ``section.group.key``, about one key in ten one level deeper,
    and, when ``wide`` is nonzero, one section with ``wide`` direct
    children. Paths come in generation order, grouped by section.
    """
    paths = []
    sections = set()
    if wide:
        sec = fresh_name(rng, sections)
        keys = set()
        paths.extend((sec, fresh_name(rng, keys)) for _ in range(wide))
    while len(paths) < n:
        sec = fresh_name(rng, sections)
        groups = set()
        for _ in range(rng.randint(3, 8)):
            group = fresh_name(rng, groups)
            keys = set()
            for _ in range(rng.randint(4, 12)):
                key = fresh_name(rng, keys)
                if rng.random() < 0.1:
                    subs = set()
                    paths.extend(
                        (sec, group, key, fresh_name(rng, subs))
                        for _ in range(rng.randint(2, 3))
                    )
                else:
                    paths.append((sec, group, key))
    del paths[n:]
    return paths


def text_value(rng):
    """A flat-line value: no surrounding whitespace, no newline."""
    kind = rng.randrange(7)
    if kind == 0:
        return str(rng.randint(-1000, 100000))
    if kind == 1:
        return f"{rng.uniform(-100, 100):.4f}"
    if kind == 2:
        return rng.choice(("true", "false", "on", "off"))
    if kind == 3:
        return f"{fresh_name(rng, set())} {fresh_name(rng, set())}"
    if kind == 4:
        return f"{fresh_name(rng, set())}={rng.randint(0, 9)}"
    if kind == 5:
        return f"#{fresh_name(rng, set())}"
    return fresh_name(rng, set())


def json_value(rng):
    """A nested-format leaf: any JSON scalar or a short array."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-1000, 100000)
    if kind == 1:
        return round(rng.uniform(-100, 100), 3)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return None
    if kind == 4:
        return [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
    return text_value(rng)
