"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own traversal logic:
prefix-freeness is the quadratic definition on raw tuples, position sets
are computed by set comprehension, the flattening pitfall uses a naive
string join, and the nested text is json.dumps of nested dicts. Tests
compare library output against these.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Mapping

from dtry import cli, formats
from dtry.core import Dtry, Leaf, Node, NonEmptyRecord, _TrieBuilder, merge_disjoint
from dtry.errors import BadNameError, BadPathError, NotACategoryError, PrefixConflictError, _show
from dtry.fincat import DtryMor, DtryObj, Variant
from dtry.formats import Diagnostic, ParseError, emit_nested, scan_flat
from dtry.maybe import NOTHING, Just
from dtry.paths import Name, Path

NAME_POOL = ("a", "b", "c", "x", "y", "z")
VALUE_POOL = (0, 1, 2, 3)


# ---------------------------------------------------------------- oracles

def oracle_prefix_free(paths) -> bool:
    """Quadratic prefix-freeness straight from the definition."""
    ps = [tuple(p) for p in paths]
    for p in ps:
        for q in ps:
            if p != q and len(p) <= len(q) and q[: len(p)] == p:
                return False
    return True


def oracle_position_set(dd: Dtry) -> set[tuple]:
    """The concatenation set {p * q} of a two-layer directory, by comprehension."""
    return {
        tuple(p) + tuple(q)
        for p, inner in dd.path_map().items()
        for q in inner.path_map()
    }


def naive_flatten(outer: dict) -> dict:
    """String-keyed flattening with a '.' join; conflates colliding keys."""
    result = {}
    for key, inner in outer.items():
        for subkey, value in inner.items():
            result[f"{key}.{subkey}"] = value
    return result


def oracle_check(text: str) -> list[str]:
    """The lines ``dtry check`` reports on ``text``, by comparing every pair of lines.

    This is the quadratic loop the command used before its sorted scan.
    The sort by line is stable, so one later line lists its earlier
    partners in line order.
    """
    entries, diagnostics = scan_flat(text)
    problems = [(d.line, str(d)) for d in diagnostics]
    for i, first in enumerate(entries):
        for second in entries[i + 1 :]:
            if tuple(first.path) == tuple(second.path):
                problems.append(
                    (
                        second.line,
                        f"{second.line}:E_DUPLICATE_PATH:duplicate path {_show(second.path)}; "
                        f"first bound at line {first.line}",
                    )
                )
            elif not oracle_prefix_free([first.path, second.path]):
                problems.append(
                    (
                        second.line,
                        f"{second.line}:E_PREFIX_CONFLICT:paths {_show(first.path)} "
                        f"(line {first.line}) and {_show(second.path)} conflict",
                    )
                )
    problems.sort(key=lambda p: p[0])
    return [text for _, text in problems]


def reference_parse_flat(text: str) -> Dtry:
    """The flat parser as it was when every line went through a ``Path``.

    ``scan_flat`` makes one ``Path`` per line, and each is then bound in
    the builder; a line's diagnostic is sorted into place by its line.
    """
    entries, diagnostics = scan_flat(text)
    builder = _TrieBuilder()
    first_line: dict[Path, int] = {}
    for entry in entries:
        try:
            builder.add(entry.path, entry.value)
        except PrefixConflictError as exc:
            if exc.existing == exc.incoming:
                first = first_line[entry.path]
                message = f"duplicate path {_show(entry.path)}; first bound at line {first}"
                diagnostics.append(Diagnostic("E_DUPLICATE_PATH", entry.line, message))
            else:
                diagnostics.append(Diagnostic(exc.code, entry.line, str(exc)))
            continue
        first_line[entry.path] = entry.line
    if diagnostics:
        raise ParseError(sorted(diagnostics, key=lambda d: d.line))
    return Dtry(builder.freeze())


def reference_load(source: str, fmt: str) -> Dtry:
    """The whole trie of a file, as every command read one before the flat route."""
    text = cli._read(source)
    return formats.parse_flat(text) if fmt == "flat" else formats.parse_nested(text)


def reference_cmd_validate(args) -> int:
    """``dtry validate`` as it was when it parsed a flat file into a whole trie."""
    reference_load(args.file, args.format)
    return cli.EXIT_OK


def reference_cmd_convert(args) -> int:
    """``dtry convert`` as it was: the whole trie, then ``emit_nested`` or ``emit_flat``.

    Called in place of ``cli.cmd_convert``, it reaches ``emit_nested``
    through as many frames as the command reaches its writer.
    """
    directory = reference_load(args.file, args.from_)
    if args.to == "nested":
        cli._write(emit_nested(directory), directory)
    else:
        cli._write(*cli._flat_text(directory))
    return cli.EXIT_OK


def reference_cmd_merge(args) -> int:
    """``dtry merge`` as it was: each file's trie, ``merge_disjoint``, then ``emit_flat``."""
    entries = {}
    for binding in args.prefix:
        name_text, sep, file_name = binding.partition("=")
        if not sep:
            print(f"error: --prefix takes NAME=FILE, got {binding!r}", file=sys.stderr)
            return cli.EXIT_INVALID
        try:
            name = Name(name_text)
        except BadNameError as exc:
            print(Diagnostic(exc.code, 1, str(exc)), file=sys.stderr)
            return cli.EXIT_INVALID
        if name in entries:
            print(f"error: duplicate prefix {name!r}", file=sys.stderr)
            return cli.EXIT_INVALID
        entries[name] = reference_load(file_name, "flat")
    sys.stdout.write(formats.emit_flat(merge_disjoint(entries)))
    return cli.EXIT_OK


def reference_flat_text(directory: Dtry) -> str:
    """``cli._flat_text`` as it was, when ``map_values`` copied every value, text or not."""
    flat = directory.map_values(lambda v: v if isinstance(v, str) else json.dumps(v))
    try:
        return formats.emit_flat(flat)
    except ValueError as exc:
        raise ParseError([Diagnostic("E_UNREPRESENTABLE", 1, str(exc))]) from exc


def reference_cmd_get(args) -> int:
    """``dtry get`` as it was: the whole trie, ``Dtry.lookup``, then the flat text of what it found."""
    try:
        path = Path.parse(args.path)
    except BadPathError as exc:
        print(Diagnostic(exc.code, 1, str(exc)), file=sys.stderr)
        return cli.EXIT_INVALID
    found = reference_load(args.file, args.format).lookup(path)
    if found is None:
        print(f"error: no entry at {str(path)!r}", file=sys.stderr)
        return cli.EXIT_NOT_FOUND
    text = reference_flat_text(found)
    cli._write(text.removeprefix(" = ") if found.is_leaf else text, found)
    return cli.EXIT_OK


def reference_parse_nested(text: str) -> Dtry:
    """The nested reader as it was when each new key made its own ``Name``.

    The same read as ``parse_nested``, and the same walk, except that each
    key not yet seen is validated alone, in the object's order, and each
    node's record goes through the public ``NonEmptyRecord``, which sorts
    and re-keys it.
    """
    diagnostics: list[Diagnostic] = []
    try:
        data = json.loads(text, object_pairs_hook=formats._object)
        if isinstance(data, dict):
            root = _reference_node(data, (), {}, diagnostics, top=True)
        else:
            formats._check_array([data], (), diagnostics)
            root = Leaf(data)
    except json.JSONDecodeError as exc:
        raise ParseError([Diagnostic("E_SYNTAX", exc.lineno, exc.msg)]) from exc
    except ValueError as exc:
        raise formats._out_of_range(text) from exc
    except RecursionError as exc:
        raise formats._too_deep() from exc
    if diagnostics:
        raise ParseError(diagnostics)
    return Dtry(root)


def _reference_node(obj: dict, at: tuple, names: dict, diagnostics: list, top: bool):
    for key in getattr(obj, "repeated", ()):
        message = f"duplicate path '{'.'.join((*at, key))}'"
        diagnostics.append(Diagnostic("E_DUPLICATE_PATH", 1, message))
    if not obj:
        if not top:
            diagnostics.append(
                Diagnostic("E_EMPTY_SUBDIR", 1, f"empty object at {_show(Path(at))}")
            )
        return None
    children = {}
    for key, value in obj.items():
        name = names.get(key)
        if name is None:
            try:
                name = names[key] = Name(key)
            except BadNameError as exc:
                diagnostics.append(
                    Diagnostic(
                        exc.code, 1, f"invalid key {key!r} under {_show(Path(at))}: {exc.reason}"
                    )
                )
                continue
        if isinstance(value, dict):
            subtree = _reference_node(value, (*at, name), names, diagnostics, False)
            if subtree is not None:
                children[name] = subtree
            continue
        kind = type(value)
        if kind is list:
            formats._check_array(value, (*at, name), diagnostics)
        elif kind is float and value - value != 0.0:  # NaN or an infinity
            raise ValueError(value)
        children[name] = Leaf(value)
    return Node(NonEmptyRecord(children)) if children else None


def oracle_conflicts(paths) -> list[tuple | None]:
    """Which bound path each of ``paths``, added in order, conflicts with.

    Entry k is None when path k binds, else the tuple of the bound path it
    equals or extends, or else the least bound path that extends it. Kept
    as a bound set plus a least-extension map from every proper prefix of
    a bound path to the least bound path below it.
    """
    bound: set[tuple] = set()
    least: dict[tuple, tuple] = {}
    out: list[tuple | None] = []
    for path in paths:
        t = tuple(path)
        below = [t[:k] for k in range(len(t) + 1) if t[:k] in bound]
        if below:
            out.append(below[0])
        elif t in least:
            out.append(least[t])
        else:
            bound.add(t)
            for k in range(len(t)):
                if t[:k] not in least or t < least[t[:k]]:
                    least[t[:k]] = t
            out.append(None)
    return out


def oracle_fincat(objects, morphisms, identity, compose) -> None:
    """The structure and law checks of ``FinCat`` as loops over the raw tables.

    This is the check ``FinCat`` ran before it interned its ids: it raises
    the same ``NotACategoryError``, naming the same culprit, on the same
    first defect, and returns None on a category.
    """
    objects = frozenset(objects)
    mor = {m: (d, c) for m, (d, c) in dict(morphisms).items()}
    identity = dict(identity)
    compose = dict(compose)
    for m, (d, c) in mor.items():
        if d not in objects or c not in objects:
            raise NotACategoryError(f"morphism {m!r} has unknown endpoint", m)
    for x in objects:
        i = identity.get(x)
        if i is None or i not in mor:
            raise NotACategoryError(f"object {x!r} has no identity morphism", x)
        if mor[i] != (x, x):
            raise NotACategoryError(f"identity of {x!r} is not an endomorphism", x)
    for (f, g), h in compose.items():
        if f not in mor or g not in mor or h not in mor:
            raise NotACategoryError(f"composite entry ({f!r}, {g!r}) names unknown morphisms", (f, g))
        if mor[f][1] != mor[g][0]:
            raise NotACategoryError(f"composite defined for non-composable pair ({f!r}, {g!r})", (f, g))
        if mor[h] != (mor[f][0], mor[g][1]):
            raise NotACategoryError(f"composite of ({f!r}, {g!r}) has wrong endpoints", (f, g))
    for f, (_, cf) in mor.items():
        for g, (dg, _) in mor.items():
            if cf == dg and (f, g) not in compose:
                raise NotACategoryError(f"missing composite for ({f!r}, {g!r})", (f, g))
    for f, (d, c) in mor.items():
        if compose[(identity[d], f)] != f:
            raise NotACategoryError(f"left identity fails at {f!r}", f)
        if compose[(f, identity[c])] != f:
            raise NotACategoryError(f"right identity fails at {f!r}", f)
    for (f, g), fg in compose.items():
        for h in [m for m, (d, _) in mor.items() if d == mor[g][1]]:
            if compose[(fg, h)] != compose[(f, compose[(g, h)])]:
                raise NotACategoryError(f"associativity fails at ({f!r}, {g!r}, {h!r})", (f, g, h))


def oracle_emit_nested(d: Dtry) -> str:
    """The canonical nested text as ``emit_nested`` once wrote it: json.dumps of nested dicts.

    Recursive, and json's indenting encoder takes two frames per level, so
    it serves shallow directories only.
    """
    tree = _tree_to_json(d.root)
    return json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


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


def check_representation(d: Dtry) -> None:
    """Assert the structural invariants of the trie representation."""
    assert d.root is None or isinstance(d.root, (Leaf, Node))
    if d.root is not None:
        _check_tree(d.root)
    assert oracle_prefix_free(d.path_map())


def _check_tree(tree) -> None:
    if isinstance(tree, Leaf):
        return
    assert isinstance(tree, Node)
    record = tree.children
    assert isinstance(record, NonEmptyRecord)
    assert len(record) >= 1
    keys = list(record.keys())
    assert keys == sorted(keys)
    for key, child in record.items():
        assert isinstance(key, Name)
        _check_tree(child)


def nodes(tree):
    """The ``Node``s of ``tree``, without recursion."""
    stack = [tree]
    while stack:
        tree = stack.pop()
        if type(tree) is Node:
            yield tree
            stack.extend(tree.children.values())


# ------------------------------------------------------------- generators

def random_tree(rng: random.Random, depth: int, branching: int, names, values, leaf_prob: float):
    if depth == 0 or rng.random() < leaf_prob:
        return Leaf(rng.choice(values))
    width = rng.randint(1, min(branching, len(names)))
    chosen = rng.sample(list(names), width)
    return Node(
        NonEmptyRecord(
            {n: random_tree(rng, depth - 1, branching, names, values, leaf_prob) for n in chosen}
        )
    )


def random_dtry(
    rng: random.Random,
    *,
    depth: int = 3,
    branching: int = 3,
    names=NAME_POOL,
    values=VALUE_POOL,
    leaf_prob: float = 0.45,
    empty_prob: float = 0.12,
) -> Dtry:
    if rng.random() < empty_prob:
        return Dtry.empty()
    return Dtry(random_tree(rng, depth, branching, names, values, leaf_prob))


def random_nested_dtry(rng: random.Random, layers: int, **kwargs) -> Dtry:
    """A directory of directories of ... (``layers`` deep) of scalars."""
    if layers <= 1:
        return random_dtry(rng, **kwargs)
    return random_dtry(rng, **kwargs).map_values(
        lambda _: random_nested_dtry(rng, layers - 1, **kwargs)
    )


def random_path(rng: random.Random, *, names=NAME_POOL, max_len: int = 4) -> Path:
    return Path(rng.choice(names) for _ in range(rng.randint(0, max_len)))


def random_maybe_maybe_record(rng: random.Random, *, names=NAME_POOL, values=VALUE_POOL):
    """A NonEmptyRecord of doubly optional values, all shapes of absence mixed."""
    width = rng.randint(1, 4)
    entries = {}
    for name in rng.sample(list(names), width):
        roll = rng.random()
        if roll < 1 / 3:
            entries[name] = NOTHING
        elif roll < 2 / 3:
            entries[name] = Just(NOTHING)
        else:
            entries[name] = Just(Just(rng.choice(values)))
    return NonEmptyRecord(entries)


# ------------------------------------------------- directory-object generators

def random_shape(rng: random.Random, *, max_leaves: int = 3, names=NAME_POOL) -> Dtry:
    """A random shape (None-valued directory) with at most ``max_leaves`` paths."""
    while True:
        shape = random_dtry(
            rng, depth=2, branching=2, names=names, values=(None,), leaf_prob=0.55
        )
        if len(shape) <= max_leaves:
            return shape


def random_shape_with_leaves(rng: random.Random, count: int, *, names=NAME_POOL) -> Dtry:
    while True:
        shape = random_dtry(
            rng, depth=2, branching=3, names=names, values=(None,),
            leaf_prob=0.4, empty_prob=0.0 if count else 1.0,
        )
        if len(shape) == count:
            return shape


def random_dtry_obj(
    rng: random.Random, cat, *, max_leaves: int = 3, sizes=(1, 2, 3), names=NAME_POOL
) -> DtryObj:
    shape = random_shape(rng, max_leaves=max_leaves, names=names)
    return DtryObj(cat, shape.map_values(lambda _: rng.choice(sizes)))


def random_mor_from(
    rng: random.Random, src: DtryObj, variant: Variant, *, sizes=(1, 2, 3), names=NAME_POOL
) -> DtryMor:
    """A random morphism out of ``src``, generating its destination too.

    Sizes are kept positive so every needed hom-set is inhabited.
    """
    cat = src.cat
    src_paths = src.paths()
    if variant is Variant.ISO:
        dst_shape = random_shape_with_leaves(rng, len(src_paths), names=names)
        dst_paths = dst_shape.paths()
        shuffled = list(dst_paths)
        rng.shuffle(shuffled)
        f0 = dict(zip(src_paths, shuffled))
        dst_assign = {f0[p]: rng.choice(sizes) for p in src_paths}
        dst = DtryObj.of(cat, dst_assign)
        f1 = {p: rng.choice(cat.hom(src.assign[p], dst.assign[f0[p]])) for p in src_paths}
        return DtryMor(variant, src, dst, f0, f1)
    if variant is Variant.GENERAL:
        while True:
            dst = random_dtry_obj(rng, cat, sizes=sizes, names=names)
            if dst.paths() or not src_paths:
                break
        dst_paths = dst.paths()
        f0 = {p: rng.choice(dst_paths) for p in src_paths}
        f1 = {p: rng.choice(cat.hom(src.assign[p], dst.assign[f0[p]])) for p in src_paths}
        return DtryMor(variant, src, dst, f0, f1)
    # PRODUCT: the index map runs from destination paths to source paths.
    while True:
        dst = random_dtry_obj(rng, cat, sizes=sizes, names=names)
        if src_paths or not dst.paths():
            break
    f0 = {q: rng.choice(src_paths) for q in dst.paths()}
    f1 = {q: rng.choice(cat.hom(src.assign[f0[q]], dst.assign[q])) for q in dst.paths()}
    return DtryMor(Variant.PRODUCT, src, dst, f0, f1)


def chain(depth: int, value=1) -> Dtry:
    """The directory of one ``value`` bound ``depth`` segments deep, at ``s.s...s``."""
    return Dtry.from_path_map({".".join(["s"] * depth): value})


def emits(d: Dtry) -> bool:
    """Whether ``emit_nested`` writes ``d``; the only refusal allowed is ``E_TOO_DEEP``."""
    try:
        emit_nested(d)
    except ParseError as exc:
        assert [(diag.line, diag.code) for diag in exc.diagnostics] == [(1, "E_TOO_DEEP")]
        return False
    return True


def deepest(accepts, lo: int = 1, hi: int = 3000) -> int:
    """The largest depth that ``accepts`` takes, by bisection.

    ``accepts(lo)`` must hold, ``accepts(hi)`` must not, and ``accepts``
    must hold below some depth and fail above it.
    """
    assert accepts(lo) and not accepts(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -------------------------------------------------------- worked example

EXAMPLE_FLAT = (
    "oscillator.mass.momentum = 0.0\n"
    "oscillator.spring.displacement = 1.0\n"
    "thermal_capacity.entropy = 16.56\n"
)

EXAMPLE_PATH_MAP = {
    Path("oscillator.mass.momentum"): "0.0",
    Path("oscillator.spring.displacement"): "1.0",
    Path("thermal_capacity.entropy"): "16.56",
}


def example_directory() -> Dtry:
    return Dtry.from_path_map(EXAMPLE_PATH_MAP)
