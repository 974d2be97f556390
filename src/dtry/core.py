"""Directory tries: values bound to a prefix-free set of dotted paths.

A directory is either empty or a nonempty tree: a single value at the
root, held in a ``Leaf``, or a ``Node``. A node is its own record: a
read-only ``dict`` from names, plain ``str``s, to entries, read with
dict's own methods and printed as ``Node({...})``. An entry is
a subdirectory, itself a ``Node``, or the value bound there, held bare,
as a named tuple holds it; only a value that is itself a ``Leaf`` or a
``Node`` is held in a ``Leaf``, so that no value is read as a subtree.
Records built around ``Leaf`` entries for every value mean the same and
compare equal: ``==`` compares two trees' path families, as
:meth:`Dtry.path_map` reads them, without recursion. Emptiness exists
only at the top level: no subtree is ever an empty node. That single
constraint is what keeps the set of complete paths prefix-free, makes
the path-map view faithful, and forces :meth:`Dtry.filter` to delete
subdirectories it empties out.

``filter_nothings`` and ``distrib`` are the paper's distributive law of
absence over directories, exposed and tested as such: an absent entry
of a record is dropped, and a record that loses all its entries becomes
absent itself. The operations share one non-recursive rewrite that
replaces each value by another, grafts a tree in its place, keeps it as
a predicate says, or deletes it, and deletes each node it empties:
``map_values``, ``filter``,
``flatten`` (which grafts the inner directories in place, so inner
empties vanish) and ``distrib`` are each one call of it. A record is
sorted once: the sorted build fills it in order, the nested reader sorts
a JSON object's pairs, and the record copies the dict they fill as it
is; a caller's it copies and sorts.

A directory that the nested reader builds keeps the number of values it
binds, its ``len``, counted as the reader builds it; ``merge_disjoint``
adds its inputs' counts when each keeps one; any other directory counts
its tree on each ``len``.

A trie that is not derived from another is built from its keys as
dotted texts, sorted once: since ``.`` sorts below every character of a
name, text order is path order, so one pass fills each record in order,
children before parents. ``Dtry.from_path_map``, ``Dtry.insert`` and the
flat parser build so whatever they are given that is clean: paths, none
repeated and none a prefix of another, which one finder of clashes in
sorted texts tells (:func:`_clashing`). For what fails no trie is built:
a path map or ``insert`` names its first clash in path order, and the
flat parser binds the texts that clash in file order with
:func:`_conflicts`.

>>> d = Dtry.from_path_map({"a.x": 1, "a.y": 2, "b": 3})
>>> d.lookup("a").path_map()
{Path('x'): 1, Path('y'): 2}
>>> d.filter(lambda v: v > 2).path_map()
{Path('b'): 3}
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import itemgetter
from typing import Any, Callable, Generic, Iterable, Iterator, Mapping, TypeVar

from .errors import PrefixConflictError
from .maybe import NOTHING, Just, _Frozen
from .paths import Name, Path, _are_dotted, _name

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


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only")


class NonEmptyRecord(dict):
    """An immutable mapping from names to values with at least one entry.

    A ``dict`` whose every read is dict's own and whose every mutator
    raises ``TypeError``; it equals a plain dict with the same entries.
    Entries iterate in ascending byte order of their keys, which is what
    makes every traversal in this module deterministic. A key, ``str`` or
    ``Name``, is checked and kept as a plain ``str``.
    """

    __slots__ = ()

    def __init__(self, entries: Mapping[str, T] | Iterable[tuple[str, T]]):
        if type(entries) is not _Sorted or not entries:  # a _Sorted, made here, is taken unchecked
            raw = entries if type(entries) is dict else dict(entries)
            if not raw:
                raise ValueError("record must have at least one entry")
            entries = {k: raw[k] for k in sorted(map(_name, raw))}
        dict.update(self, entries)

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    # The bench's tracer counts a record's entries as ``len(record._entries)``.
    _entries = property(lambda self: self)

    def map_values(self, f: Callable[[T], Any]) -> "NonEmptyRecord":
        return NonEmptyRecord(_Sorted((k, f(v)) for k, v in self.items()))

    def __reduce__(self):  # copies and pickles go through __init__: the dict is read-only
        return type(self), (dict(self),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict.__repr__(self)})"


class _Sorted(dict):
    """Entries that a record copies as they are: name keys in order, made here."""

    __slots__ = ()


class Leaf(_Frozen, Generic[T]):
    """A tree that is one value: the root of a single-value directory, or a record
    entry holding a value that is itself a ``Leaf`` or a ``Node``."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: T):
        _set_value(self, value)


class Node(NonEmptyRecord):
    """An internal tree node: the record of its entries, each a ``Node`` or the value bound there.

    A value is held bare, unless it is itself a ``Leaf`` or a ``Node``:
    then a ``Leaf`` holds it, so that it is not read as a subtree. A
    ``Leaf`` child always holds a value, so ``Leaf(1)`` as a child means
    what ``1`` does, and the two trees compare equal. A node is never
    equal to anything but a node, and equals one that binds the same
    values at the same paths: ``==`` compares their path maps.

    >>> root = Dtry.from_path_map({"a.x": 1, "b": Leaf(2)}).root
    >>> root
    Node({'a': Node({'x': 1}), 'b': Leaf(value=Leaf(value=2))})
    >>> isinstance(root, dict), list(root["a"].items())
    (True, [('x', 1)])
    >>> Node({"x": Leaf(1)}) == Node({"x": 1})
    True
    """

    __slots__ = ()

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    def __eq__(self, other) -> bool:
        return isinstance(other, Node) and Dtry(self).path_map() == Dtry(other).path_map()

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)


_set_value = Leaf.value.__set__  # Leaf is frozen; the slot's setter beats object.__setattr__
_TREES = (Leaf, Node)  # the types of value a record entry holds in a Leaf
_ABSENT = object()  # no entry: one deleted by a _rebuild, or missing in a lookup


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

    Values are ``Just(value)`` or ``NOTHING``; the result is the tree of
    the present values, with subtrees that lost every value deleted, or
    None when nothing remains at all.
    """
    return _rebuild(tree, _present)


def _present(entry):
    if entry is NOTHING:
        return _ABSENT
    if not isinstance(entry, Just):
        raise TypeError(f"leaf value is not Just(...) or NOTHING: {entry!r}")
    return entry.value


def _rebuild(tree, f, mode="replace"):
    """``tree`` with each value ``v`` rewritten through ``f``, in path order.

    ``mode`` says what ``f(v)`` returns:

    - ``"replace"``: the value to bind in ``v``'s place, or ``_ABSENT`` to
      delete the entry; a returned ``Leaf`` or ``Node`` is a value, and a
      record entry holds it in a ``Leaf``.
    - ``"graft"``: a tree to put in ``v``'s place, None deleting the entry.
    - ``"keep"``: whether to keep the entry: it stays, as it is, when
      ``f(v)`` is true and is deleted when it is false. ``f`` is the
      caller's predicate, called as it is, with no frame of ours around it.

    A node left without entries is deleted too, so the result is None when
    nothing remains. Records keep their names sorted, so values come in
    path order and each changed node's record is built from the dict the
    walk filled, children before parents; nothing recurses.

    A node for which ``f`` returned each of its values as the same
    object (in ``"keep"`` mode: kept each), and none of whose child nodes
    changed, is kept as it is, with its whole subtree.
    """
    if tree is None:
        return None
    absent, trees = _ABSENT, _TREES
    graft, keep = mode == "graft", mode == "keep"
    if type(tree) is Leaf:
        value = tree.value
        new = (value if f(value) else absent) if keep else f(value)
        if new is value:
            return tree
        if graft:
            return new
        return None if new is absent else Leaf(new)
    # A frame per open node: its name, the node, its unvisited children,
    # the rebuilt ones, and whether any entry changed.
    stack = [[None, tree, iter(tree.items()), _Sorted(), False]]
    while True:
        frame = stack[-1]
        kept = frame[3]
        for name, child in frame[2]:
            kind = type(child)
            if kind is Node:
                stack.append([name, child, iter(child.items()), _Sorted(), False])
                break
            value = child.value if kind is Leaf else child
            new = (value if f(value) else absent) if keep else f(value)
            if new is value:
                kept[name] = child
                continue
            frame[4] = True
            if graft:
                if new is None:
                    continue
                if type(new) is Leaf and type(new.value) not in trees:
                    new = new.value
            elif new is absent:
                continue
            elif type(new) in trees:
                new = Leaf(new)
            kept[name] = new
        else:
            name, source, _, kept, changed = stack.pop()
            if not changed:
                node = source
            else:
                node = Node(kept) if kept else None
            if not stack:
                return node
            parent = stack[-1]
            if node is not None:
                parent[3][name] = node
            if node is not source:
                parent[4] = True


_text = itemgetter(0)
_pair = itemgetter(0, 1)


def _sorted_scan(items: list) -> tuple[list, list | None]:
    """``(dotted text, value)`` pairs sorted by text, and the ones that clash.

    The sort is stable, so pairs of one text keep their order. The second
    part is None unless every text is a path, matched in one bulk call
    (:func:`_are_dotted`), and else the entries in which :func:`_clashing`
    finds a text that repeats or is a prefix of another. The pairs are
    clean, fit for :func:`_from_sorted`, exactly when it is ``[]``.
    """
    items = sorted(items, key=_text)
    texts = list(map(_text, items))
    return items, (_clashing(items, texts) if _are_dotted(texts) else None)


def _clashing(entries: list, texts: list[str]) -> list:
    """The ``entries``, sorted by their dotted ``texts``, whose text another equals, extends or prefixes.

    Since ``.`` sorts below every character of a name, text order is path
    order, so a text's copies and extensions follow it at once: with a
    ``.`` after each, a text is a copy or an extension of the one before
    exactly when it starts with it. The clashing entries come in runs,
    each from a text that is a prefix of the next one to the last text it
    is a prefix of. The root, ``''``, sorts first and is a prefix of every
    text. An entry outside the runs never clashes, nor changes what
    another clashes with.
    """
    if texts and not texts[0]:
        return entries if len(texts) > 1 else []
    stops = (".\n".join(texts) + ".").split("\n")  # no text holds a newline
    if not any(map(str.startswith, stops[1:], stops)):  # clean, as most are
        return []
    runs, end = [], 0
    for start in compress(count(), map(str.startswith, stops[1:], stops)):
        if start >= end:  # else inside a run, and so are its extensions
            end = start + 2
            while end < len(stops) and stops[end].startswith(stops[start]):
                end += 1
            runs += entries[start:end]
    return runs


def _from_sorted(items) -> Leaf | Node | None:
    """The tree of clean ``(dotted text, value)`` pairs in text order (see :func:`_sorted_scan`).

    One pass, without recursion: each key closes the open nodes it does
    not share, opens the ones it starts, and binds its last name; a key of
    the innermost open node, as most are, is bound at once. A node's
    entries come in name order, and its record is built once, when the
    node closes, so children before parents. A name is a slice of its text,
    not checked again, since the whole text matched. A value is bound bare,
    or in a ``Leaf`` when it is itself a ``Leaf`` or a ``Node``.
    """
    if not items:
        return None
    if not items[0][0]:  # the root path: clean, so the only key
        return Leaf(items[0][1])
    trees = _TREES
    names: list[str] = []  # the open nodes below the root, outermost first
    records = [_Sorted()]  # the entries of the root and of each open node
    prefix = ""  # the innermost open node's text and a '.'; '' at the root
    for text, value in items:
        if type(value) in trees:
            value = Leaf(value)
        if text.startswith(prefix) and text.find(".", len(prefix)) < 0:  # in that node
            records[-1][text[len(prefix) :]] = value
            continue
        segments = text.split(".")
        last = len(segments) - 1
        depth = min(len(names), last)
        shared = 0
        while shared < depth and segments[shared] == names[shared]:
            shared += 1
        while len(names) > shared:
            entries = records.pop()
            records[-1][names.pop()] = Node(entries)
        for segment in segments[shared:last]:
            names.append(segment)
            records.append(_Sorted())
        records[-1][segments[last]] = value
        prefix = text[: len(text) - len(segments[last])]
    while names:
        entries = records.pop()
        records[-1][names.pop()] = Node(entries)
    return Node(records[0])


def _clean_pairs(entries: Mapping) -> list:
    """The keys of a path map made dotted texts, with their values, sorted and clean.

    What :meth:`Dtry.from_path_map` builds its trie from, and raises for
    exactly as it does (see there). A row is ``(text, value)``, or
    ``(text, value, key)`` when every key is a tuple of plain ``str``
    names, so that a caller keeps the key and need not split its text.
    Keys all of one of those two kinds are made texts in a few passes in
    C (see :func:`_joined`); any other set of keys, or one with a text that
    is no path, each made a ``Path`` in the mapping's order, so that the
    first bad key raises. A clash is named by :func:`_clashing`'s first run.
    """
    entries = dict(entries)
    kinds = set(map(type, entries))
    clashing = None
    if kinds <= {str}:
        ordered, clashing = _sorted_scan(list(entries.items()))
    elif kinds <= {tuple, Path} and (texts := _joined(entries)) is not None:
        ordered, clashing = _sorted_scan(list(zip(texts, entries.values(), entries)))
    if clashing is None:
        ordered, clashing = _sorted_scan(list(zip(map(".".join, map(Path, entries)), entries.values())))
    if clashing:
        raise PrefixConflictError(Path(clashing[0][0]), Path(clashing[1][0]))
    return ordered


def _joined(keys: dict) -> list[str] | None:
    """Tuples of plain ``str`` names dotted, or None when they are not all names without a ``.``.

    A name holding a ``.`` adds to the dots of its text, and ``()`` has one
    dot fewer than its names: the dots are the names less the keys only
    when no key is either. ``("",)`` is the one left that joins to ``''``.
    """
    if not set(map(type, chain.from_iterable(keys))) <= {str}:
        return None
    texts = list(map(".".join, keys))
    if all(texts) and "".join(texts).count(".") == sum(map(len, keys)) - len(keys):
        return texts
    return None


def _conflicts(texts: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Bind dotted ``texts`` in order; ``(index, bound text)`` for each text that clashes.

    The flat parser's, whose file order decides what is named. A text
    clashes with the bound text it equals or extends, or else with the
    least bound text that extends it, and is then not bound. The paths
    are numbered nodes, the root 0: ``child[node]`` maps a name to a node,
    ``bound`` a node to its text, and ``least`` a node to the least text
    bound below it. A text costs one lookup per segment and a node per
    segment it adds, and a rejected one no more.
    """
    child: list[dict[str, int]] = [{}]
    bound: dict[int, str] = {}
    least: dict[int, str] = {}
    for index, text in enumerate(texts):
        names = text.split(".") if text else []
        node, walked = 0, [0]  # the nodes of the text's prefixes that exist, the root first
        for name in names:  # a bound node has no child, so the walk stops there
            node = child[node].get(name)
            if node is None:
                break
            walked.append(node)
        node = walked[-1]
        clash = bound.get(node)
        if clash is None and len(walked) > len(names):
            clash = least.get(node)  # None only at a root with nothing bound
        if clash is not None:
            yield index, clash
            continue
        for name in names[len(walked) - 1 :]:
            child[node][name] = node = len(child)
            child.append({})
            walked.append(node)
        bound[node] = text
        # Bottom up, to the first node whose least text is less: so is its
        # parent's. Up a chain of single children the least text is one
        # object, compared once.
        passed = None  # the least text last found not less
        for node in reversed(walked[:-1]):
            old = least.get(node)
            if old is not passed:
                if old is not None and old < text:
                    break
                passed = old
            least[node] = text


class Dtry(Generic[T]):
    """An immutable directory of values indexed by prefix-free paths."""

    # ``_size``, the number of values bound, is set only by a builder that
    # knows it (see :meth:`__len__`), and is unset otherwise.
    __slots__ = ("_root", "_size")

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
        ``Name`` key is one segment. Each key is made dotted text once: plain
        strings are used as they are, and tuples or ``Path``s of plain string
        names are joined; in any other key set, each key is made a ``Path``
        first. The texts are sorted and matched in one call, and if every
        one is a path and none is a prefix of another, the trie is built
        from them in one pass.

        Errors are reported as if every key were first made a ``Path``, in
        the mapping's order, and the paths then sorted: a bad key is raised
        before any conflict, the first bad key in the mapping's order, and
        the conflict named is the first path that equals or extends the one
        before it, with that one. An input that is not clean builds no trie.

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
        rows = _clean_pairs(entries)
        if rows and len(rows[0]) > 2:  # each row carries its key too
            rows = list(map(_pair, rows))
        return cls(_from_sorted(rows))

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
        """Apply ``f`` to every value, in path order; the paths stay as they are.

        A node all of whose values ``f`` returns as the same objects is
        shared with this directory, with its whole subtree, not rebuilt.
        """
        return Dtry(_rebuild(self._root, f))

    def lookup(self, path) -> "Dtry[T] | None":
        """The subdirectory at ``path``, or None when absent.

        The root path returns the directory itself; a complete path
        returns its value wrapped as a single-value directory.
        """
        path = Path(path)
        if not path:
            return self
        tree = self._root
        for name in path:
            if type(tree) is not Node:
                return None
            tree = tree.get(name, _ABSENT)
            if tree is _ABSENT:
                return None
        return Dtry(tree if type(tree) in _TREES else Leaf(tree))

    def insert(self, path, value: T) -> "Dtry[T]":
        """A new directory with ``value`` bound at ``path``.

        Raises:
            PrefixConflictError: when ``path`` is already bound, extends a
                bound path, or is a prefix of one. Overwriting by insert
                would silently change the shape, so conflicts are hard
                errors; build a fresh directory instead.

        It names the first bound path, in path order, that equals, extends
        or is extended by ``path``. Each call builds the whole trie again, in
        O(n) for n entries; build many bindings with :meth:`from_path_map`.
        """
        path = Path(path)
        entries = self.path_map()
        for bound in entries:
            if bound[: len(path)] == path or path[: len(bound)] == bound:
                raise PrefixConflictError(bound, path)
        return Dtry.from_path_map({**entries, path: value})

    def flatten(self) -> "Dtry":
        """Graft a directory of directories into one directory.

        Each inner directory's tree is spliced in place of its leaf, so
        the cost is in the size of the outer tree. Inner empty
        directories vanish together with the paths that led to them.
        """
        return Dtry(_rebuild(self._root, _inner_root, "graft"))

    def bind(self, f: Callable[[T], "Dtry"]) -> "Dtry":
        """Replace every value by a directory of its own and flatten."""
        return self.map_values(f).flatten()

    def filter(self, pred: Callable[[T], bool]) -> "Dtry[T]":
        """Keep entries whose value satisfies ``pred``.

        ``pred`` is called once per value, in path order, and an entry is
        kept when what it returns is true (``bool`` of it, so any object
        will do); an exception it raises escapes as it is. Subdirectories
        that lose every entry are deleted rather than left behind. A
        subtree that keeps every entry is shared with this directory
        rather than copied.
        """
        return Dtry(_rebuild(self._root, pred, "keep"))

    def path_map(self) -> dict[Path, T]:
        """The complete paths and their values, in lexicographic order."""
        root = self._root
        if root is None:
            return {}
        if type(root) is Leaf:
            return {Path(): root.value}
        out: dict[Path, T] = {}
        new, path = tuple.__new__, Path
        # Depth first without recursion: one iterator per open node, and
        # ``names`` is the path to the innermost one.
        names: list[str] = []
        pending = [iter(root.items())]
        while pending:
            for name, child in pending[-1]:
                kind = type(child)
                if kind is Node:
                    names.append(name)
                    pending.append(iter(child.items()))
                    break
                out[new(path, (*names, name))] = child.value if kind is Leaf else child
            else:
                pending.pop()
                if names:
                    names.pop()
        return out

    def paths(self) -> list[Path]:
        """The complete paths in lexicographic order."""
        return list(self.path_map())

    def __len__(self) -> int:
        """The number of values bound: the number of complete paths.

        A directory that :func:`formats.parse_nested` built, or a
        :func:`merge_disjoint` of such directories, keeps the count and
        answers without a walk; copies and pickles carry it. Any other,
        such as ``Dtry(root)``, a :meth:`lookup` result or one restored
        from a state without a count, counts its tree, in O(nodes).
        """
        try:
            return self._size
        except AttributeError:  # not kept
            pass
        root = self._root
        if type(root) is not Node:
            return 0 if root is None else 1
        count, stack = 0, [root]
        while stack:
            entries = stack.pop().values()
            count += len(entries)
            for child in entries:
                if type(child) is Node:  # a subtree, counted by its own entries
                    count -= 1
                    stack.append(child)
        return count

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dtry):
            return NotImplemented
        return self.path_map() == other.path_map()

    __hash__ = None

    def __repr__(self) -> str:
        entries = ", ".join(f"{str(p)!r}: {v!r}" for p, v in self.path_map().items())
        return f"Dtry({{{entries}}})"


def _sized(root: Leaf | Node | None, size: int) -> Dtry:
    """The directory of ``root``, a tree built in this package, keeping ``size`` as its ``len``."""
    directory = Dtry.__new__(Dtry)
    directory._root = root
    directory._size = size
    return directory


def _inner_root(inner):
    if not isinstance(inner, Dtry):
        raise TypeError(f"flatten needs every value to be a directory, got {inner!r}")
    return inner._root


def merge_disjoint(entries: Mapping[str, Dtry]) -> Dtry:
    """Combine directories under distinct names into one directory.

    Equivalent to flattening the node whose children are the given
    directories: entries mapping to empty directories vanish, and the
    result is empty when all of them were. When each input keeps its
    ``len``, the result keeps their sum.
    """
    entries = dict(entries)
    node = Node({k: Leaf(d) if type(d) in _TREES else d for k, d in entries.items()})
    merged = Dtry(node).flatten()
    sizes = [getattr(d, "_size", None) for d in entries.values()]
    if None not in sizes:
        merged._size = sum(sizes)
    return merged
