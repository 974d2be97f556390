"""Finite categories and directory-indexed families of their objects.

A category here is anything with ``has_object``, ``dom``, ``cod``,
``identity``, and ``compose`` (diagrammatic: ``compose(f, g)`` is "f
then g"). :class:`FinCat` realizes the interface with explicit validated
tables, loadable from JSON; :class:`FinSetSkeleton` realizes it with
computed function tables over the objects 0, 1, 2, ... read as the sets
{1..n}, where disjoint union is strictly associative: addition on
objects, block summation on functions.

On top of either sits the directory-indexed layer: a :class:`DtryObj`
is a family of objects of the category indexed by a clean set of paths
(``assign``; its trie ``objs`` is built from it on each read),
and a :class:`DtryMor` maps paths to paths and carries one component
morphism per path. Morphisms come in three variants that differ only in
which side indexes the data and what the index map must satisfy:

* GENERAL: index map from source paths to destination paths;
* ISO: the same, but the index map must be a bijection;
* PRODUCT: index map from destination paths back to source paths, the
  shape appropriate for projection-style morphisms.

``mu_obj`` flattens a directory of directory-objects into one family,
each outer path followed by the inner paths at it, and builds no trie;
``mu_mor`` flattens morphisms the same way. Composing, flattening and
evaluating read path families alone.
``algebra_eval_obj``/``algebra_eval_mor`` evaluate a directory-object in
a strictly associative tensor (its path family in lexicographic order),
sending a GENERAL or ISO morphism to the tensor of its components
followed by the reindexing its index map induces between the two path
orders: factor ``p`` goes onto factor ``f0[p]``, so two paths sent to one
give a codiagonal, a path reached by none an empty block, and a
bijection a permutation. A PRODUCT morphism does not evaluate in a
coproduct algebra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress, repeat
from itertools import product as _cartesian
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .core import Dtry, Leaf, Node, _clean_pairs, _from_sorted
from .errors import NotACategoryError, NotComposableError
from .paths import Path

ObjId = Any
MorId = Any

_value, _key = itemgetter(1), itemgetter(2)
_ABSENT = object()  # what ``.get`` gives for a key that a mapping lacks


def _paths(names: Iterable) -> Iterator[Path]:
    """Each sequence of plain ``str`` names as a ``Path``, unchecked."""
    return map(tuple.__new__, repeat(Path), names)


def _under(p: Path, paths: Iterable[Path]) -> Iterator[Path]:
    """``p + q`` for each path ``q``, without a Python call per path."""
    return _paths(map(tuple.__add__, repeat(p), paths))

__all__ = [
    "FinCat",
    "FinFn",
    "FinSetSkeleton",
    "Variant",
    "DtryObj",
    "DtryMor",
    "identity_mor",
    "compose_mor",
    "mu_obj",
    "mu_mor",
    "shape_with_n_leaves",
    "StrictAlgebra",
    "finset_coproduct_algebra",
    "algebra_eval_obj",
    "algebra_eval_mor",
]


class FinCat:
    """A finite category given by explicit tables.

    ``morphisms`` maps each morphism id to its (dom, cod) pair,
    ``identity`` picks the identity morphism of each object, and
    ``compose`` is the sparse table of composites, keyed by (f, g) in
    diagrammatic order. Structural coherence (typing of the tables, and
    compose being defined exactly on the composable pairs) is checked on
    construction; the identity and associativity laws are checked too
    unless ``check_laws=False``, and can be rerun with :meth:`validate`.

    The morphism ids are interned once, while the structure is checked:
    each is hashed once per table entry, and morphism ``i`` of the table
    is the integer ``i`` from then on. Each morphism keeps a row: its
    composites with the morphisms out of its codomain, as a tuple. The
    associativity check compares whole rows, and only the rows of a
    generating set: ``(f;g);h = f;(g;h)`` for every ``f`` follows from it
    for the generators ``f`` (see :meth:`validate`). The check of every
    composable pair runs only on tables that fail, to name the first
    triple that does; only the messages name the ids.
    """

    def __init__(
        self,
        objects,
        morphisms: Mapping[MorId, tuple[ObjId, ObjId]],
        identity: Mapping[ObjId, MorId],
        compose: Mapping[tuple[MorId, MorId], MorId],
        *,
        check_laws: bool = True,
    ):
        self._objects = frozenset(objects)
        morphisms = dict(morphisms)
        ends = [(d, c) for d, c in morphisms.values()]
        compose = dict(compose)
        self._intern(list(morphisms), ends)
        index, dom, cod, pos = self._index, self._dom, self._cod, self._pos
        ident = {}
        for x in self._objects:
            i = identity.get(x)
            k = None if i is None else index.get(i)
            if k is None:
                raise NotACategoryError(f"object {x!r} has no identity morphism", x)
            if (dom[k], cod[k]) != (x, x):
                raise NotACategoryError(f"identity of {x!r} is not an endomorphism", x)
            ident[x] = k
        rows = [[None] * len(self._by_dom[c]) for c in cod]
        entries = []
        for (f, g), h in compose.items():
            fi = index.get(f)
            gi = None if fi is None else index.get(g)
            hi = None if gi is None else index.get(h)
            if hi is None:
                raise NotACategoryError(f"composite entry ({f!r}, {g!r}) names unknown morphisms", (f, g))
            if cod[fi] != dom[gi]:
                raise NotACategoryError(f"composite defined for non-composable pair ({f!r}, {g!r})", (f, g))
            if (dom[hi], cod[hi]) != (dom[fi], cod[gi]):
                raise NotACategoryError(f"composite of ({f!r}, {g!r}) has wrong endpoints", (f, g))
            entries.append((fi, gi, hi))
            rows[fi][pos[gi]] = hi
        self._link(ident, rows, entries, check_laws)

    @classmethod
    def _of_rows(cls, objects, ids: list, ends: list, ident: dict, rows: list, *, check_laws: bool):
        """Interned tables: ``rows[i]`` holds ``i;j`` for each ``j`` out of ``cod i``, in order."""
        self = cls.__new__(cls)
        self._objects = frozenset(objects)
        self._intern(ids, ends)
        self._link(ident, rows, None, check_laws)
        return self

    def _intern(self, ids: list, ends: list):
        """Number the morphisms, checking that their endpoints are objects.

        ``_ids[i]`` is morphism ``i`` and ``_index`` its inverse, ``_dom[i]``/``_cod[i]``
        its endpoints, ``_by_dom`` maps each object to the morphisms out of it, and
        ``_pos[i]`` is ``i``'s place in its domain's list.
        """
        objects = self._objects
        self._ids, self._index = ids, {m: i for i, m in enumerate(ids)}
        dom, cod, pos = self._dom, self._cod, self._pos = [], [], []
        by_dom = self._by_dom = {}
        for i, (d, c) in enumerate(ends):
            if d not in objects or c not in objects:
                raise NotACategoryError(f"morphism {ids[i]!r} has unknown endpoint", ids[i])
            dom.append(d)
            cod.append(c)
            out = by_dom.setdefault(d, [])
            pos.append(len(out))
            out.append(i)

    def _link(self, ident: dict, rows: list, entries: list | None, check_laws: bool):
        """Set the composites, check that each morphism has all of its own, then the laws if asked.

        ``_ident`` maps each object to its identity, ``_entries`` lists the composites
        ``(i, j, i;j)`` in their given order, or is None when that is the rows' own order,
        and ``_rows[i]`` holds ``i;j`` at ``_pos[j]`` for each ``j`` out of ``cod i``; a
        ``None`` there is a missing composite.
        """
        self._ident, self._entries = ident, entries
        self._rows = [tuple(row) for row in rows]
        ids, cod, by_dom = self._ids, self._cod, self._by_dom
        for f, row in enumerate(self._rows):
            if None in row:
                f, g = ids[f], ids[by_dom[cod[f]][row.index(None)]]
                raise NotACategoryError(f"missing composite for ({f!r}, {g!r})", (f, g))
        if check_laws:
            self.validate()

    def validate(self):
        """Check the identity and associativity laws over the full tables.

        The identity laws are checked at each morphism, then associativity,
        ``(f;g);h = f;(g;h)``, only where ``f`` is a generator
        (:meth:`_generators`). That is enough, by induction on the order in
        which the morphisms are reached: an identity ``f`` satisfies the law
        by the identity laws, a generator by the check, and ``f = s;f'`` by
        ``((s;f');g);h = (s;(f';g));h = s;((f';g);h) = s;(f';(g;h)) =
        (s;f');(g;h)``, the law at ``(s, f', g)``, ``(s, f';g, h)``,
        ``(f', g, h)`` and ``(s, f', g;h)``. Only tables that fail that check
        run the full one, over every composable pair in the tables' order,
        to name the first triple that fails.

        Raises:
            NotACategoryError: naming an offending morphism or triple.
        """
        ids, dom, cod, rows, pos, ident, by_dom = (
            self._ids, self._dom, self._cod, self._rows, self._pos, self._ident, self._by_dom
        )
        for f, row in enumerate(rows):
            if rows[ident[dom[f]]][pos[f]] != f:
                raise NotACategoryError(f"left identity fails at {ids[f]!r}", ids[f])
            if row[pos[ident[cod[f]]]] != f:
                raise NotACategoryError(f"right identity fails at {ids[f]!r}", ids[f])
        # (f;g);h = f;(g;h) for every h at once: row f read at the places of
        # row g's entries is row f;g. Every row holds at least an identity's
        # composite, and itemgetter reads a one-entry row as its entry.
        read = [itemgetter(*[pos[gh] for gh in row]) for row in rows]
        want = [row if len(row) > 1 else row[0] for row in rows]
        for s in self._generators():
            row = rows[s]
            if any(read[g](row) != want[sg] for g, sg in zip(by_dom[cod[s]], row)):
                break
        else:
            return
        entries = self._entries
        if entries is None:  # the rows' own order
            entries = chain.from_iterable(
                zip(repeat(f), by_dom[cod[f]], row) for f, row in enumerate(rows)
            )
        for f, g, fg in entries:
            if read[g](rows[f]) != want[fg]:
                for h, gh, fg_h in zip(by_dom[cod[g]], rows[g], rows[fg]):
                    if rows[f][pos[gh]] != fg_h:
                        raise NotACategoryError(
                            f"associativity fails at ({ids[f]!r}, {ids[g]!r}, {ids[h]!r})",
                            (ids[f], ids[g], ids[h]),
                        )

    def _generators(self) -> list[int]:
        """A generating set of the morphisms, as their indices in order.

        A morphism is reached when it is an identity, a generator, or
        ``s;f`` for a generator ``s`` and a reached ``f``. Taken in order,
        each morphism not reached yet joins the generators. So each
        morphism that is neither an identity nor a generator is ``s;f``
        for a generator ``s`` and an ``f`` reached before it.
        """
        rows, pos, dom, cod, by_dom = self._rows, self._pos, self._dom, self._cod, self._by_dom
        reached = bytearray(len(rows))
        into = {x: [] for x in self._objects}  # each object to the rows of the generators into it
        gens, todo, m = [], list(self._ident.values()), 0
        while True:
            while todo:
                f = todo.pop()
                if not reached[f]:
                    reached[f] = 1
                    at = pos[f]
                    for row in into[dom[f]]:
                        todo.append(row[at])  # s;f
            m = reached.find(0, m)
            if m < 0:
                return gens
            gens.append(m)
            into[cod[m]].append(rows[m])
            # m itself, and m;f for each f reached before m
            todo.append(m)
            todo += compress(rows[m], map(reached.__getitem__, by_dom[cod[m]]))

    @classmethod
    def from_json(cls, text: str, *, check_laws: bool = True) -> "FinCat":
        """Load tables from the JSON interchange form.

        The document holds ``objects`` (list of ids), ``morphisms`` (list
        of ``{"id":..., "dom":..., "cod":...}``), ``identity`` (object id
        to morphism id; JSON objects force string keys, so ids used here
        must be strings), and ``compose`` (list of ``[f, g, h]`` triples).

        Raises:
            NotACategoryError: when the text is no JSON document of that
                shape (nesting too deep to read among them), or its tables
                are not a category.
        """
        try:
            data = json.loads(text)
            objects, rows, identity, triples = (
                data["objects"], data["morphisms"], data["identity"], data["compose"]
            )
            # json reads only lists and dicts as containers, and each of them
            # iterates: check the shape, or a string would give its characters.
            lists = (objects, rows, triples)
            if any(type(field) is not list for field in lists) or type(identity) is not dict:
                raise TypeError("objects, morphisms and compose must be lists, identity an object")
            if not all(type(m) is dict for m in rows):
                raise TypeError("each morphism must be an object")
            if not all(type(t) is list and len(t) == 3 for t in triples):
                raise TypeError("each composite must be a list of three morphisms")
            morphisms = {m["id"]: (m["dom"], m["cod"]) for m in rows}
            compose = {(f, g): h for f, g, h in triples}
            return cls(objects, morphisms, identity, compose, check_laws=check_laws)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise NotACategoryError(f"not a category table document: {exc!r}") from exc

    def objects(self) -> frozenset:
        return self._objects

    def morphisms(self) -> list[MorId]:
        return list(self._ids)

    def has_object(self, x) -> bool:
        try:
            return x in self._objects
        except TypeError:  # unhashable, so no object
            return False

    def dom(self, f) -> ObjId:
        return self._dom[self._index[f]]

    def cod(self, f) -> ObjId:
        return self._cod[self._index[f]]

    def identity(self, x) -> MorId:
        return self._ids[self._ident[x]]

    def compose(self, f, g) -> MorId:
        try:
            i, j = self._index.get(f), self._index.get(g)
        except TypeError:  # unhashable, so no morphism
            i = j = None
        if i is None or j is None or self._cod[i] != self._dom[j]:
            raise NotComposableError(f"no composite for ({f!r}, {g!r})")
        return self._ids[self._rows[i][self._pos[j]]]

    def hom(self, x, y) -> list[MorId]:
        try:
            out = self._by_dom.get(x, ())
        except TypeError:  # unhashable, so no object
            return []
        ids, cod = self._ids, self._cod
        return [ids[i] for i in out if cod[i] == y]


@dataclass(frozen=True, init=False)
class FinFn:
    """A function {1..m} -> {1..cod} as an explicit image table.

    The domain size is the length of ``images``; entry ``i`` (1-based)
    maps to ``images[i-1]``. ``images`` is stored as a tuple, and every
    entry must be an ``int`` (a ``bool`` is none) in 1..cod. The
    constructor checks and stores in one call, keyword or positional.
    The fields live in slots, with no instance dict; eq compares
    ``(cod, images)`` with a function of the same class only, as the
    dataclass's does, and hash is the dataclass's, that of
    ``(cod, images)``, computed on each call. Copies and pickles go
    through the constructor. An index it is called on must be an ``int``
    (a ``bool`` is none) in ``1..dom``.
    """

    __slots__ = ("cod", "images", "__weakref__")
    cod: int
    images: tuple[int, ...]

    def __init__(self, cod: int, images: Iterable[int]):
        images = tuple(images)
        if type(cod) is not int or cod < 0:
            raise ValueError(f"codomain size {cod!r} is not a nonnegative int")
        for i in images:
            if type(i) is not int:
                raise ValueError(f"image {i!r} is not an int")
            if not 1 <= i <= cod:
                raise ValueError(f"image {i} outside 1..{cod}")
        _set_cod(self, cod)
        _set_images(self, images)

    @property
    def dom(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if type(i) is not int:
            raise TypeError(f"index {i!r} is not an int")
        images = self.images
        if not 1 <= i <= len(images):
            raise IndexError(f"index {i!r} outside the domain 1..{len(images)}")
        return images[i - 1]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.cod == other.cod and self.images == other.images
        return NotImplemented

    def __reduce__(self):
        return self.__class__, (self.cod, self.images)

    def __repr__(self) -> str:
        return f"FinFn({self.cod}, {self.images})"


# The slots' own setters, which the frozen ``__setattr__`` refuses.
_set_cod, _set_images = FinFn.cod.__set__, FinFn.images.__set__


def _reader(images: tuple[int, ...]) -> itemgetter:
    """The getter of a tuple's entries at the 1-based ``images``: a tuple, even of one entry or none."""
    if len(images) > 1:
        return itemgetter(*[i - 1 for i in images])
    return itemgetter(slice(images[0] - 1, images[0]) if images else slice(0))


@dataclass(frozen=True)
class FinSetSkeleton:
    """The sets {1..n} and all functions between them, computed on demand.

    Objects are the sizes themselves. The hom-sets are finite and
    enumerable per pair, but there is no global morphism table: the
    category has infinitely many objects. :meth:`truncate` materializes
    the full tables up to a size bound as a :class:`FinCat`.

    The class is stateless; all instances are equal and interchangeable.
    """

    def has_object(self, x) -> bool:
        return type(x) is int and x >= 0

    # Read straight off the function, with no frame of the category's.
    dom = staticmethod(attrgetter("dom"))
    cod = staticmethod(attrgetter("cod"))

    def identity(self, n: int) -> FinFn:
        return FinFn(n, tuple(range(1, n + 1)))

    def compose(self, f: FinFn, g: FinFn) -> FinFn:
        if f.cod != g.dom:
            raise NotComposableError(
                f"cannot compose {f!r} (into {f.cod}) with {g!r} (out of {g.dom})"
            )
        images = g.images
        return FinFn(g.cod, [images[i - 1] for i in f.images])

    def hom(self, m: int, n: int) -> list[FinFn]:
        return [FinFn(n, images) for images in _cartesian(range(1, n + 1), repeat=m)]

    def block_sum(self, fns: Iterable[FinFn]) -> FinFn:
        """The disjoint union of functions, domains and codomains laid out in order."""
        fns = list(fns)  # read once: an iterator gives what its list does
        starts = list(accumulate((f.cod for f in fns), initial=0))
        return FinFn(starts[-1], [i + start for f, start in zip(fns, starts) for i in f.images])

    def block_reindex(self, sizes: Iterable[int], index: Iterable[int]) -> FinFn:
        """Blocks moved by an index map: block ``i`` goes onto block ``index[i]`` of ``sizes``.

        The domain lays out the blocks ``[sizes[j] for j in index]`` and the
        codomain ``sizes``, in order; block ``i`` maps element for element.
        A repeated index merges blocks (a codiagonal), a missing one leaves
        its block empty, and a permutation permutes the blocks. Each index
        must be an ``int`` (a ``bool`` is none) in ``0..len(sizes) - 1``.

        >>> FinSetSkeleton().block_reindex([2, 1], [1, 0])
        FinFn(3, (3, 1, 2))
        >>> FinSetSkeleton().block_reindex([2], [0, 0])
        FinFn(2, (1, 2, 1, 2))
        """
        index, sizes = list(index), list(sizes)  # each read once, as in block_sum
        for j in index:
            if type(j) is not int:
                raise TypeError(f"block index {j!r} is not an int")
            if not 0 <= j < len(sizes):
                raise ValueError(f"block index outside 0..{len(sizes) - 1}: {index}")
        starts = list(accumulate(sizes, initial=0))
        images = [i for j in index for i in range(starts[j] + 1, starts[j + 1] + 1)]
        return FinFn(starts[-1], images)

    def truncate(self, max_size: int, *, check_laws: bool = True) -> FinCat:
        """Explicit tables for the full subcategory on sizes 0..max_size.

        Each hom-set is enumerated once, and morphism ``i`` of that list is the
        integer ``i``. Composites are computed by index, so none is built as a
        :class:`FinFn`, and each id is hashed once, to intern it: a morphism's
        row is one ``itemgetter`` over its images, mapped over the images of
        the morphisms out of its codomain.

        >>> cat = FinSetSkeleton().truncate(2)
        >>> len(cat.morphisms())
        11
        >>> swap = FinFn(2, (2, 1))
        >>> cat.compose(swap, swap)
        FinFn(2, (1, 2))
        """
        if type(max_size) is not int:
            raise TypeError(f"max size {max_size!r} is not an int")
        if max_size < 0:
            raise ValueError("max size must be nonnegative")
        sizes = range(max_size + 1)
        out_of = [[f for n in sizes for f in self.hom(m, n)] for m in sizes]
        ids = [f for fns in out_of for f in fns]
        index = [{f.images: i for i, f in enumerate(ids) if f.cod == n} for n in sizes]
        # f;g has g's images read along f's: one getter per f, mapped over the
        # morphisms g out of f's codomain, each composite looked up where g goes.
        at = [[index[g.cod] for g in fns] for fns in out_of]
        images = [[g.images for g in fns] for fns in out_of]
        rows = [tuple(map(dict.__getitem__, at[f.cod], map(_reader(f.images), images[f.cod]))) for f in ids]
        ident = {n: index[n][tuple(range(1, n + 1))] for n in sizes}
        ends = [(f.dom, f.cod) for f in ids]
        return FinCat._of_rows(sizes, ids, ends, ident, rows, check_laws=check_laws)


class Variant(Enum):
    """Which side indexes a directory-morphism's data, and what f0 must be."""

    GENERAL = "general"
    ISO = "iso"
    PRODUCT = "product"


@dataclass(frozen=True, init=False)
class DtryObj:
    """A family of objects of ``cat`` indexed by a clean set of paths.

    ``assign`` is the family: its paths and their objects in path order,
    and the only data kept beside ``cat``. ``DtryObj(cat, objs)`` reads
    ``assign`` off a trie; :meth:`of` and :func:`mu_obj` make ``assign``
    straight. ``objs`` is the family as a trie, built from ``assign`` on
    each read and kept nowhere. Two directory-objects are equal when
    their categories and families are, so comparing builds no trie.

    >>> x = DtryObj.of(FinSetSkeleton(), {"b.z": 1, "a": 2})
    >>> x.assign
    {Path('a'): 2, Path('b.z'): 1}
    >>> x.objs
    Dtry({'a': 2, 'b.z': 1})
    >>> x == DtryObj(FinSetSkeleton(), Dtry.from_path_map({("b", "z"): 1, "a": 2}))
    True
    """

    cat: Any
    assign: Mapping[Path, ObjId]

    def __init__(self, cat, objs: Dtry):
        vars(self).update(cat=cat, assign=objs.path_map())
        self.__post_init__()

    def __post_init__(self):
        for p, v in self.assign.items():
            if not self.cat.has_object(v):
                raise ValueError(f"{v!r} assigned at {p!r} is not an object of the category")

    @classmethod
    def of(cls, cat, assign: Mapping) -> "DtryObj":
        """The directory-object of a path-to-object mapping, keyed as :meth:`Dtry.from_path_map` is.

        Raises as that does, then as the constructor does for a value that
        is no object. No trie is built.
        """
        rows = _clean_pairs(assign)  # text order is path order
        if rows and len(rows[0]) > 2:  # each row carries its key, a tuple of names
            names = map(_key, rows)
        else:  # '' is the root
            names = [t.split(".") if t else () for t, _ in rows]
        return cls._checked(cat, dict(zip(_paths(names), map(_value, rows))))

    @classmethod
    def _checked(cls, cat, assign: dict) -> "DtryObj":
        """The object of ``assign``, clean and keyed by ``Path``s in path order, kept as given."""
        self = cls.__new__(cls)
        vars(self).update(cat=cat, assign=assign)
        self.__post_init__()
        return self

    @property
    def objs(self) -> Dtry:
        """The family as a trie, built from ``assign`` on every read."""
        return Dtry(_from_sorted([(".".join(p), v) for p, v in self.assign.items()]))

    def paths(self) -> list[Path]:
        return list(self.assign)

    def __repr__(self) -> str:
        entries = ", ".join(f"{str(p)!r}: {v!r}" for p, v in self.assign.items())
        return f"DtryObj({{{entries}}})"


@dataclass(frozen=True)
class DtryMor:
    """A morphism of directory-objects: an index map plus one component per path.

    For GENERAL and ISO, ``f0`` maps source paths to destination paths
    and ``f1[p]`` is a category morphism ``src.assign[p] ->
    dst.assign[f0[p]]``. For PRODUCT, ``f0`` maps destination paths back
    to source paths and ``f1[q]`` is ``src.assign[f0[q]] ->
    dst.assign[q]``. Validity is checked on construction, so composing
    never has to trust its inputs (the bijection requirement of ISO is
    rechecked on every composite's result too, since it is constructed).

    The keys of both dicts, and the targets of ``f0``, are paths of the
    two sides: a ``Path`` or a tuple of names. Dotted strings are not
    accepted. The stored ``f0`` and ``f1`` are new dicts in the indexing
    side's path order, and each target is the other side's own ``Path``.
    """

    variant: Variant
    src: DtryObj
    dst: DtryObj
    f0: Mapping[Path, Path]
    f1: Mapping[Path, MorId]

    def __post_init__(self):
        if type(self.variant) is not Variant:
            raise TypeError(f"variant {self.variant!r} is not a Variant")
        cat = self.src.cat
        if self.dst.cat != cat:
            raise ValueError("source and destination live in different categories")
        product = self.variant is Variant.PRODUCT
        index, target = (self.dst, self.src) if product else (self.src, self.dst)
        given0, given1, objs = self.f0, self.f1, target.assign
        if not len(given0) == len(given1) == len(index.assign):
            raise ValueError("index map and components must have one entry per index path")
        own = {q: (q, y) for q, y in objs.items()}  # a target, hashed once: its Path and object
        get0, get1 = given0.get, given1.get
        # A cat without them fails at each component, as calling one there would.
        dom, cod = getattr(cat, "dom", None), getattr(cat, "cod", None)
        targets, components = [], []
        for p, x in index.assign.items():
            t, m = get0(p, _ABSENT), get1(p, _ABSENT)
            if t is _ABSENT or m is _ABSENT:
                raise ValueError(f"index map and components must be total: nothing at {p!r}")
            try:
                q, y = own[t]
            except (KeyError, TypeError):  # no path there, or an unhashable value
                raise ValueError(f"index map sends {p!r} outside the other side: {t!r}") from None
            want = (y, x) if product else (x, y)
            try:
                have = (dom(m), cod(m))
            except (KeyError, AttributeError, TypeError) as exc:
                raise ValueError(f"component at {p!r} is not a morphism: {m!r}") from exc
            if have != want:
                raise ValueError(
                    f"component at {p!r} has type {have[0]!r} -> {have[1]!r}, "
                    f"expected {want[0]!r} -> {want[1]!r}"
                )
            targets.append(q)
            components.append(m)
        if self.variant is Variant.ISO and len(set(targets)) != len(own):
            raise ValueError("index map of an ISO morphism must be a bijection")
        paths = index.assign
        vars(self).update(f0=dict(zip(paths, targets)), f1=dict(zip(paths, components)))


def identity_mor(x: DtryObj, variant: Variant = Variant.GENERAL) -> DtryMor:
    """The identity on ``x`` in any variant: identity index map, identity components."""
    f1 = {p: x.cat.identity(v) for p, v in x.assign.items()}
    return DtryMor(variant, x, x, {p: p for p in x.assign}, f1)


def compose_mor(f: DtryMor, g: DtryMor) -> DtryMor:
    """The composite ``f`` then ``g``.

    Index maps compose in the direction their variant dictates: forward
    for GENERAL and ISO, backward for PRODUCT (the composite's index map
    is ``f0_f after f0_g``). Components compose in the category.

    Raises:
        NotComposableError: on variant mismatch or when ``f.dst != g.src``.
    """
    if f.variant is not g.variant:
        raise NotComposableError(f"variant mismatch: {f.variant} vs {g.variant}")
    if f.dst != g.src:
        raise NotComposableError("destination of the first must equal source of the second")
    compose = f.src.cat.compose
    f0, f1 = {}, {}
    if f.variant is Variant.PRODUCT:
        for r, q in g.f0.items():
            f0[r], f1[r] = f.f0[q], compose(f.f1[q], g.f1[r])
    else:
        for p, q in f.f0.items():
            f0[p], f1[p] = g.f0[q], compose(f.f1[p], g.f1[q])
    return DtryMor(f.variant, f.src, g.dst, f0, f1)


def mu_obj(dd: Dtry, *, cat=None) -> DtryObj:
    """Flatten a directory of directory-objects, concatenating paths.

    Each outer path is followed by each path of the object there, so the
    result is its path family and no trie is built. Entries holding empty
    objects vanish with their outer paths. The category is the first
    entry's; for an empty outer directory pass ``cat=`` explicitly.

    Raises:
        TypeError: when a value is not a :class:`DtryObj`, naming its path.
        NotComposableError: when the entries, or ``cat=``, mix categories.
    """
    return _flatten(dd.path_map().items(), cat)


def _flatten(entries, cat) -> DtryObj:
    """The family of ``(outer path, DtryObj)`` pairs given in path order: see :func:`mu_obj`."""
    flat = {}  # outer paths and each family are clean and in order: so is this, unsorted
    for p, x in entries:
        if not isinstance(x, DtryObj):
            raise TypeError(f"mu_obj needs every value to be a DtryObj, got {x!r} at {p!r}")
        if cat is None:
            cat = x.cat
        elif x.cat != cat:
            raise NotComposableError("mixed categories in one directory")
        flat.update(zip(_under(p, x.assign), x.assign.values()))
    if cat is None:
        raise ValueError("cannot infer the category of an empty directory; pass cat=")
    return DtryObj._checked(cat, flat)


def mu_mor(dm: Dtry, *, cat=None, variant: Variant | None = None) -> DtryMor:
    """Flatten a directory of directory-morphisms.

    The outer directory indexes both sides at once: the result goes from
    the flattening of the sources to the flattening of the destinations,
    with index map ``p*q -> p*(inner f0 at p)(q)`` and the inner
    components carried across unchanged. ``variant=`` must be the
    entries' own; it names the variant of an empty directory.

    Raises:
        TypeError: for a value that is no :class:`DtryMor`, naming its path, or a bad ``variant=``.
        NotComposableError: when the entries mix variants or categories, or
            differ from ``variant=`` or ``cat=``.
    """
    if variant is not None and type(variant) is not Variant:
        raise TypeError(f"variant {variant!r} is not a Variant")
    inner = dm.path_map()
    for p, m in inner.items():
        if not isinstance(m, DtryMor):
            raise TypeError(f"mu_mor needs every value to be a DtryMor, got {m!r} at {p!r}")
    variants = {m.variant for m in inner.values()}
    if variant is not None:
        variants.add(variant)
    if len(variants) > 1:
        names = ", ".join(sorted(v.value for v in variants))
        raise NotComposableError(f"mixed variants in one directory: {names}")
    variant = variants.pop() if variants else Variant.GENERAL
    src = _flatten(((p, m.src) for p, m in inner.items()), cat)
    dst = _flatten(((p, m.dst) for p, m in inner.items()), cat)
    f0, f1 = {}, {}
    for p, m in inner.items():  # m.f1 is keyed as m.f0 is, in the same order
        pqs = list(_under(p, m.f0))
        f0.update(zip(pqs, _under(p, m.f0.values())))
        f1.update(zip(pqs, m.f1.values()))
    return DtryMor(variant, src, dst, f0, f1)


def shape_with_n_leaves(n: int) -> Dtry:
    """A deterministic shape with exactly ``n`` complete paths.

    Balanced binary splitting with children named ``l`` and ``r``; 0 is
    the empty directory and 1 the bare leaf. A count that is not an int
    (a bool is none) is a ``TypeError``, a negative one a ``ValueError``.
    """
    if type(n) is not int:
        raise TypeError(f"leaf count {n!r} is not an int")
    if n < 0:
        raise ValueError("leaf count must be nonnegative")
    if n == 0:
        return Dtry.empty()
    return Dtry(Leaf(None) if n == 1 else _balanced_tree(n))


def _balanced_tree(n: int):
    """The entry of a balanced shape with ``n`` paths: None for one, else a node."""
    if n == 1:
        return None
    left = n // 2
    return Node({"l": _balanced_tree(left), "r": _balanced_tree(n - left)})


@dataclass(frozen=True)
class StrictAlgebra:
    """Strictly associative tensor data for evaluating directory-objects.

    ``tensor_obj``/``tensor_mor`` take the whole list at once and must
    satisfy: the empty tensor is the unit (respectively its identity), a
    singleton tensor is its only entry, and tensoring a concatenation
    equals tensoring the tensors. ``reindex(objs, index)`` is the
    morphism from the tensor of ``[objs[j] for j in index]`` to the
    tensor of ``objs`` that sends factor ``i`` onto factor ``index[i]``:
    a repeated index is a codiagonal, a missing one a factor reached by
    nothing, and a permutation the symmetry that reorders the factors.
    """

    cat: Any
    tensor_obj: Callable[[Sequence[ObjId]], ObjId]
    tensor_mor: Callable[[Sequence[MorId]], MorId]
    reindex: Callable[[Sequence[ObjId], Sequence[int]], MorId]


def finset_coproduct_algebra(skel: FinSetSkeleton | None = None) -> StrictAlgebra:
    """Disjoint union as a strict tensor on the skeleton of finite sets."""
    skel = skel if skel is not None else FinSetSkeleton()
    return StrictAlgebra(skel, sum, skel.block_sum, skel.block_reindex)


def algebra_eval_obj(alg: StrictAlgebra, x: DtryObj) -> ObjId:
    """Tensor the path family of ``x`` in lexicographic order."""
    return alg.tensor_obj(list(x.assign.values()))


def algebra_eval_mor(alg: StrictAlgebra, m: DtryMor) -> MorId:
    """Evaluate a GENERAL or ISO morphism as a string diagram.

    Tensor the components in source path order, then reindex the factors
    into destination path order: the factor at ``p`` goes onto the one at
    ``f0[p]``, so element ``i`` of block ``p`` lands at element
    ``f1[p](i)`` of block ``f0[p]``. A PRODUCT morphism, whose index map
    points the other way, is a ``ValueError``.
    """
    if m.variant is Variant.PRODUCT:
        raise ValueError("a PRODUCT morphism has no evaluation in a coproduct algebra")
    slot = {q: j for j, q in enumerate(m.dst.assign)}
    tensored = alg.tensor_mor(list(m.f1.values()))
    moved = alg.reindex(list(m.dst.assign.values()), [slot[q] for q in m.f0.values()])
    return alg.cat.compose(tensored, moved)
