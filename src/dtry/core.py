"""Directory tries: values bound to a prefix-free set of dotted paths.

A directory is either empty or a nonempty tree whose internal nodes are
nonempty records of child trees keyed by :class:`~dtry.paths.Name` and
whose leaves carry values. Emptiness exists only at the top level: no
subtree is ever an empty node. That single constraint is what keeps the
set of complete paths prefix-free, makes the path-map view faithful, and
forces :meth:`Dtry.filter` to delete subdirectories it empties out.

``filter_nothings`` and ``distrib`` are the paper's distributive law of
absence over directories, exposed and tested as such: an absent entry
of a record is dropped, and a record that loses all its entries becomes
absent itself. The operations share one non-recursive rewrite that
replaces each leaf by a tree or deletes it, and deletes each node it
empties: ``map_values``, ``filter``, ``flatten`` (which grafts the inner
directories in place, so inner empties vanish), ``distrib`` and the
builder's freeze are each one call of it. A record is sorted once: the
rewrite sorts a builder node's entries, the nested reader a JSON object's,
and the record keeps the dict they fill; a caller's it copies and sorts.

A trie that is not derived from another is built from its keys as
dotted texts, sorted once: since ``.`` sorts below every character of a
name, text order is path order, so one pass fills each record in order,
children before parents. ``Dtry.from_path_map`` and the flat parser build
so whatever they are given that is clean: paths, none repeated and none
a prefix of another. What fails, and ``Dtry.insert``, goes through one
mutable builder, whose one routine binds a key, whatever its form, and
decides every conflict that is reported.

>>> d = Dtry.from_path_map({"a.x": 1, "a.y": 2, "b": 3})
>>> d.lookup("a").path_map()
{Path('x'): 1, Path('y'): 2}
>>> d.filter(lambda v: v > 2).path_map()
{Path('b'): 3}
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Generic, Iterable, Iterator, Mapping, TypeVar

from .errors import BadNameError, PrefixConflictError
from .maybe import NOTHING, Just
from .paths import Name, Path, _is_dotted, _is_name, _text_prefix

T = TypeVar("T")

__all__ = [
    "NonEmptyRecord",
    "Leaf",
    "Node",
    "Dtry",
    "filter_nothings",
    "distrib",
    "merge_disjoint",
]


class NonEmptyRecord(Generic[T]):
    """An immutable mapping from names to values with at least one entry.

    Entries iterate in ascending byte order of their keys, which is what
    makes every traversal in this module deterministic.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, T] | Iterable[tuple[str, T]]):
        if type(entries) is _Sorted and entries:  # made in this module: kept as it is
            self._entries = entries
            return
        raw = entries if type(entries) is dict else dict(entries)
        if not raw:
            raise ValueError("record must have at least one entry")
        try:
            keys = sorted(raw)
        except TypeError:  # mixed key types: Name rejects the one that is no string
            keys = sorted(Name(k) for k in raw)
        self._entries = {k if type(k) is Name else Name(k): raw[k] for k in keys}

    def keys(self):
        return self._entries.keys()

    def values(self):
        return self._entries.values()

    def items(self):
        return self._entries.items()

    def get(self, key, default=None):
        return self._entries.get(key, default)

    def map_values(self, f: Callable[[T], Any]) -> "NonEmptyRecord":
        return NonEmptyRecord(_Sorted((k, f(v)) for k, v in self._entries.items()))

    def __getitem__(self, key) -> T:
        return self._entries[key]

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Name]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NonEmptyRecord):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"NonEmptyRecord({self._entries!r})"


class _Sorted(dict):
    """Entries that a record keeps as they are: ``Name`` keys in order, made and held here."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(Generic[T]):
    """A terminal tree node holding one value."""

    __slots__ = ("value",)
    value: T

    def __init__(self, value: T):
        _set_value(self, value)

    def __reduce__(self):  # copies and pickles go through __init__: the slot is frozen
        return Leaf, (self.value,)


@dataclass(frozen=True)
class Node:
    """An internal tree node; children are themselves nonempty trees."""

    __slots__ = ("children",)
    children: NonEmptyRecord

    def __reduce__(self):
        return Node, (self.children,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Without recursion: a stack of node pairs still to compare. Records
        # keep their keys sorted, so equal key sets pair the children in order.
        pending = [(self, other)]
        while pending:
            left, right = pending.pop()
            if left.children.keys() != right.children.keys():
                return False
            for a, b in zip(left.children.values(), right.children.values()):
                if type(a) is Node and type(b) is Node:
                    pending.append((a, b))
                elif a != b:
                    return False
        return True


_set_value = Leaf.value.__set__  # Leaf is frozen; the slot's setter beats object.__setattr__


def _node(children: dict) -> Node:
    """The node of ``children``, a dict of ``Name`` keys that no one else holds, sorted once."""
    return Node(NonEmptyRecord(_Sorted(sorted(children.items()))))


def filter_nothings(record: NonEmptyRecord) -> NonEmptyRecord | None:
    """Drop absent entries of a record, unwrapping the present ones.

    Returns None exactly when every entry was NOTHING: a record cannot be
    empty, so total absence inside becomes absence of the whole record.
    """
    kept = _Sorted()
    for key, entry in record.items():
        if entry is NOTHING:
            continue
        if not isinstance(entry, Just):
            raise TypeError(f"record entry {key!r} is not Just(...) or NOTHING: {entry!r}")
        kept[key] = entry.value
    return NonEmptyRecord(kept) if kept else None


def distrib(tree: Leaf | Node) -> Leaf | Node | None:
    """Push leaf-level absence outward through a tree.

    Leaves hold ``Just(value)`` or ``NOTHING``; the result is the tree of
    the present values, with subtrees that lost every leaf deleted, or
    None when nothing remains at all.
    """
    return _rebuild(tree, _present)


def _present(leaf):
    entry = leaf.value
    if entry is NOTHING:
        return None
    if not isinstance(entry, Just):
        raise TypeError(f"leaf value is not Just(...) or NOTHING: {entry!r}")
    return Leaf(entry.value)


def _rebuild(tree, leaf):
    """``tree`` with each ``Leaf`` replaced by ``leaf(that_leaf)``.

    ``leaf`` returns the tree to put in its place, or None to delete the
    entry; a node left without entries is deleted too, so the result is
    None when nothing remains. ``tree`` is made of ``Node``s or of the
    builder's ``_Dir``s, each sorted once as the walk enters it, so leaves
    come in path order and each changed node's record is built from the
    dict the walk filled, children before parents; nothing recurses.

    A ``Node`` for which ``leaf`` returned each of its leaves as it was,
    and none of whose child nodes changed, is kept as it is, with its
    whole subtree. A ``_Dir`` always counts as changed.
    """
    if tree is None:
        return None
    if type(tree) is Leaf:
        return leaf(tree)
    # A frame per open node: its name, the node, its unvisited children,
    # the rebuilt ones, and whether any entry changed.
    stack = [[None, tree, iter(tree.children.items()), _Sorted(), False]]
    while True:
        frame = stack[-1]
        kept = frame[3]
        for name, child in frame[2]:
            if type(child) is Leaf:
                new = leaf(child)
                if new is not child:
                    frame[4] = True
                    if new is None:
                        continue
                kept[name] = new
            else:
                stack.append([name, child, iter(child.children.items()), _Sorted(), False])
                break
        else:
            name, source, _, kept, changed = stack.pop()
            if not changed and type(source) is not _Dir:
                node = source
            else:
                node = Node(NonEmptyRecord(kept)) if kept else None
            if not stack:
                return node
            parent = stack[-1]
            if node is not None:
                parent[3][name] = node
            if node is not source:
                parent[4] = True


class _Dir(dict):
    """A mutable directory node of :class:`_TrieBuilder`: names to ``_Dir`` or ``Leaf``."""

    __slots__ = ()

    @property
    def children(self) -> dict:
        """Its entries in path order, so that :func:`_rebuild` walks it as it walks a ``Node``."""
        return dict(sorted(self.items()))


def _chain(names: list, value) -> "_Dir | Leaf":
    tree = Leaf(value)
    for name in reversed(names):
        node = _Dir()
        node[name] = tree
        tree = node
    return tree


class _TrieBuilder:
    """Collects prefix-free bindings in mutable nodes; ``freeze`` builds the trie once.

    ``add`` is the one routine that binds a key, and so the one place
    where a conflict between a new path and the bound ones is decided.
    """

    __slots__ = ("_root", "_least")

    def __init__(self):
        self._root: _Dir | Leaf | None = None
        # id of a ``_Dir`` -> (its least name, its child count then), kept
        # by rejected keys only. A node lives as long as the builder and
        # never loses a child, and a dict keeps insertion order, so a later
        # rejection compares only the children added since: the flat
        # parser, which goes on after a conflict, pays O(fanout) per node
        # in all, not per rejected line.
        self._least: dict[int, tuple[Name, int]] = {}

    def add(self, key, value) -> None:
        """Bind ``value`` at ``key``, walking the key once.

        ``key`` is a ``Path``, a dotted string (a ``Name`` among them, one
        segment) or a sequence of names. ``Name`` validates a segment only
        where it makes a new edge, since one that follows an edge equals
        that edge's name; it returns a ``Path``'s names, which are
        ``Name``s already, as they are. A rejected key leaves the builder
        unchanged: the new nodes are attached only once all of them are
        made.

        Raises:
            PrefixConflictError: against the bound path that ``key``
                equals or extends, or else against the least bound path
                that extends ``key``.
            BadPathError: for a dotted key with a bad segment, naming it.
            BadNameError, TypeError: for a sequence key that is no path.
        """
        segments = (key.split(".") if key else ()) if isinstance(key, str) else key
        try:
            node = self._root
            if node is None:
                self._root = _chain([Name(s) for s in segments], value)
                return
            rest = iter(segments)
            for segment in rest:
                if type(node) is Leaf:
                    break
                child = node.get(segment)
                if child is None:
                    name = Name(segment)  # before the rest: the first bad segment is reported
                    node[name] = _chain([Name(s) for s in rest], value)
                    return
                node = child
        except BadNameError:
            if isinstance(key, str):
                Path.parse(key)  # raises the error that names the bad segment
            raise
        # ``key`` is bound already, extends a bound path or is a prefix of
        # bound paths. Only a rejected key walks again: down its names while
        # they last, then down the least name. The leaf it ends at is the
        # bound path to name.
        incoming = Path(key)
        names = []
        node = self._root
        while type(node) is _Dir:
            if len(names) < len(incoming):
                name = incoming[len(names)]
            else:
                name, seen = self._least.get(id(node), (None, 0))
                for added in islice(reversed(node), len(node) - seen):
                    if name is None or added < name:
                        name = added
                self._least[id(node)] = (name, len(node))
            names.append(name)
            node = node[name]
        raise PrefixConflictError(existing=Path(names), incoming=incoming)

    def freeze(self) -> Leaf | Node | None:
        """The immutable tree, or None when empty: one record per node, children before parents."""
        return _rebuild(self._root, lambda leaf: leaf)


_text = itemgetter(0)


def _sorted_clean(items: list) -> list | None:
    """``(dotted text, value)`` pairs sorted by text for :func:`_from_sorted`, or None.

    None unless every text is a path, none repeats and none is a prefix
    of another. Since ``.`` sorts below every character of a name, text
    order is path order, so a text's copies and extensions follow it at
    once, and each text is tested only against the one before it.
    """
    items = sorted(items, key=_text)
    previous = None
    for text, _ in items:
        if _is_dotted(text) is None or previous is not None and _text_prefix(previous, text):
            return None
        previous = text
    return items


def _from_sorted(items) -> Leaf | Node | None:
    """The tree of clean ``(dotted text, value)`` pairs in text order (see :func:`_sorted_clean`).

    One pass, without recursion: each key closes the open nodes it does
    not share, opens the ones it starts, and binds its last name; a key of
    the innermost open node, as most are, is bound at once. A node's
    entries come in name order, and its record is built once, when the
    node closes, so children before parents. A name is made only where an
    edge starts, without a second check, since the whole text matched.
    """
    if not items:
        return None
    if not items[0][0]:  # the root path: clean, so the only key
        return Leaf(items[0][1])
    new = str.__new__
    names: list[Name] = []  # the open nodes below the root, outermost first
    records = [_Sorted()]  # the entries of the root and of each open node
    prefix = ""  # the innermost open node's text and a '.'; '' at the root
    for text, value in items:
        if text.startswith(prefix) and text.find(".", len(prefix)) < 0:  # in that node
            records[-1][new(Name, text[len(prefix) :])] = Leaf(value)
            continue
        segments = text.split(".")
        last = len(segments) - 1
        depth = min(len(names), last)
        shared = 0
        while shared < depth and segments[shared] == names[shared]:
            shared += 1
        while len(names) > shared:
            entries = records.pop()
            records[-1][names.pop()] = Node(NonEmptyRecord(entries))
        for segment in segments[shared:last]:
            names.append(new(Name, segment))
            records.append(_Sorted())
        records[-1][new(Name, segments[last])] = Leaf(value)
        prefix = text[: len(text) - len(segments[last])]
    while names:
        entries = records.pop()
        records[-1][names.pop()] = Node(NonEmptyRecord(entries))
    return Node(NonEmptyRecord(records[0]))


class Dtry(Generic[T]):
    """An immutable directory of values indexed by prefix-free paths."""

    __slots__ = ("_root",)

    def __init__(self, root: Leaf | Node | None = None):
        if root is not None and not isinstance(root, (Leaf, Node)):
            raise TypeError(f"root must be Leaf, Node, or None, got {root!r}")
        self._root = root

    @property
    def root(self) -> Leaf | Node | None:
        return self._root

    @classmethod
    def empty(cls) -> "Dtry[T]":
        return cls(None)

    @classmethod
    def leaf(cls, value: T) -> "Dtry[T]":
        """The directory binding ``value`` to the root path."""
        return cls(Leaf(value))

    @classmethod
    def from_path_map(cls, entries: Mapping) -> "Dtry[T]":
        """Build a directory from a path-to-value mapping.

        A key is a ``Path``, a dotted string, or a sequence of names; a
        ``Name`` key is one segment. Each key is made dotted text once: a
        string is used as it is, and a sequence whose names all match is
        joined. The texts are sorted, and if every one is a path and none
        is a prefix of another, the trie is built from them in one pass.

        Errors are reported as if every key were first made a ``Path``, in
        the mapping's order, and the paths were then bound in lexicographic
        order: a bad key is raised before any conflict, the first bad key
        in the mapping's order, and the reported conflict pair is the
        lexicographically first one. An input that is not clean is built in
        that order, which decides the error.

        >>> Dtry.from_path_map({("a", "y"): 1, "a.x": 2, Name("b"): 3}).path_map()
        {Path('a.x'): 2, Path('a.y'): 1, Path('b'): 3}
        >>> Dtry.from_path_map({"b.c": 1, "a.x.y": 2, "b": 3, "a.x": 4})
        Traceback (most recent call last):
            ...
        dtry.errors.PrefixConflictError: path 'a.x.y' extends the bound path 'a.x'

        Raises:
            PrefixConflictError: when one key is a prefix of another.
            BadPathError, BadNameError, TypeError: for a key that is no path.
        """
        entries = dict(entries)
        items = []
        for key, value in entries.items():
            if not isinstance(key, str):
                try:
                    if not all(key) or _is_name("".join(key)) is None:
                        break
                except TypeError:
                    break
                key = ".".join(key)
            items.append((key, value))
        else:
            ordered = _sorted_clean(items)
            if ordered is not None:
                return cls(_from_sorted(ordered))
        # The reference order decides which error is reported: coerce every
        # key, sort, bind.
        builder = _TrieBuilder()
        for path, value in sorted(((Path(p), v) for p, v in entries.items()), key=_text):
            builder.add(path, value)
        return cls(builder.freeze())

    @property
    def is_empty(self) -> bool:
        return self._root is None

    @property
    def is_leaf(self) -> bool:
        return isinstance(self._root, Leaf)

    @property
    def value(self) -> T:
        """The value at the root path; only single-value directories have one."""
        if not isinstance(self._root, Leaf):
            raise ValueError("directory does not bind a value at the root path")
        return self._root.value

    def map_values(self, f: Callable[[T], Any]) -> "Dtry":
        """Apply ``f`` to every value, in path order; the paths stay as they are."""
        return Dtry(_rebuild(self._root, lambda leaf: Leaf(f(leaf.value))))

    def lookup(self, path) -> "Dtry[T] | None":
        """The subdirectory at ``path``, or None when absent.

        The root path returns the directory itself; a complete path
        returns its value wrapped as a single-value directory.
        """
        path = Path(path)
        tree = self._root
        if tree is None:
            return self if not path else None
        for name in path:
            if isinstance(tree, Leaf):
                return None
            tree = tree.children.get(name)
            if tree is None:
                return None
        return Dtry(tree)

    def insert(self, path, value: T) -> "Dtry[T]":
        """A new directory with ``value`` bound at ``path``.

        Raises:
            PrefixConflictError: when ``path`` is already bound, extends a
                bound path, or is a prefix of one. Overwriting by insert
                would silently change the shape, so conflicts are hard
                errors; build a fresh directory instead.

        Each call rebuilds the whole trie, so it costs O(n) in the number
        of entries; build a directory of many bindings with
        :meth:`from_path_map` instead.
        """
        builder = _TrieBuilder()
        for bound, old in self.path_map().items():
            builder.add(bound, old)
        builder.add(Path(path), value)
        return Dtry(builder.freeze())

    def flatten(self) -> "Dtry":
        """Graft a directory of directories into one directory.

        Each inner directory's tree is spliced in place of its leaf, so
        the cost is in the size of the outer tree. Inner empty
        directories vanish together with the paths that led to them.
        """
        return Dtry(_rebuild(self._root, _inner_root))

    def bind(self, f: Callable[[T], "Dtry"]) -> "Dtry":
        """Replace every value by a directory of its own and flatten."""
        return self.map_values(f).flatten()

    def filter(self, pred: Callable[[T], bool]) -> "Dtry[T]":
        """Keep entries whose value satisfies ``pred``.

        Subdirectories that lose every entry are deleted rather than
        left behind. A subtree that keeps every entry is shared with this
        directory rather than copied.
        """
        return Dtry(_rebuild(self._root, lambda leaf: leaf if pred(leaf.value) else None))

    def path_map(self) -> dict[Path, T]:
        """The complete paths and their values, in lexicographic order."""
        root = self._root
        if root is None:
            return {}
        if type(root) is Leaf:
            return {Path(): root.value}
        out: dict[Path, T] = {}
        # Depth first without recursion: one iterator per open node, and
        # ``names`` is the path to the innermost one.
        names: list[Name] = []
        pending = [iter(root.children.items())]
        while pending:
            for name, child in pending[-1]:
                if type(child) is Leaf:
                    out[tuple.__new__(Path, (*names, name))] = child.value
                else:
                    names.append(name)
                    pending.append(iter(child.children.items()))
                    break
            else:
                pending.pop()
                if names:
                    names.pop()
        return out

    def paths(self) -> list[Path]:
        """The complete paths in lexicographic order."""
        return list(self.path_map())

    def __len__(self) -> int:
        count = 0
        stack = [] if self._root is None else [self._root]
        while stack:
            tree = stack.pop()
            if type(tree) is Leaf:
                count += 1
            else:
                stack.extend(tree.children.values())
        return count

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dtry):
            return NotImplemented
        # Trees are canonical, so equal directories have equal trees.
        return self._root == other._root

    __hash__ = None

    def __repr__(self) -> str:
        entries = ", ".join(f"{str(p)!r}: {v!r}" for p, v in self.path_map().items())
        return f"Dtry({{{entries}}})"


def _inner_root(leaf):
    inner = leaf.value
    if not isinstance(inner, Dtry):
        raise TypeError(f"flatten needs every value to be a directory, got {inner!r}")
    return inner._root


def merge_disjoint(entries: Mapping[str, Dtry]) -> Dtry:
    """Combine directories under distinct names into one directory.

    Equivalent to flattening the node whose children are the given
    directories: entries mapping to empty directories vanish, and the
    result is empty when all of them were.
    """
    record = NonEmptyRecord({k: Leaf(d) for k, d in dict(entries).items()})
    return Dtry(Node(record)).flatten()
