"""Finite categories and directory-indexed families of their objects.

A category here is anything with ``has_object``, ``dom``, ``cod``,
``identity``, and ``compose`` (diagrammatic: ``compose(f, g)`` is "f
then g"). :class:`FinCat` realizes the interface with explicit validated
tables, loadable from JSON; :class:`FinSetSkeleton` realizes it with
computed function tables over the objects 0, 1, 2, ... read as the sets
{1..n}, where disjoint union is strictly associative: addition on
objects, block summation on functions.

On top of either sits the directory-indexed layer: a :class:`DtryObj`
is one directory whose values are objects of the category, and a
:class:`DtryMor` maps paths to paths and carries one component morphism
per path. Morphisms come in three variants that differ only in which
side indexes the data and what the index map must satisfy:

* GENERAL: index map from source paths to destination paths;
* ISO: the same, but the index map must be a bijection;
* PRODUCT: index map from destination paths back to source paths, the
  shape appropriate for projection-style morphisms.

``mu_obj`` is the directory flatten of a directory of directory-objects,
concatenating paths; ``mu_mor`` flattens morphisms the same way.
``algebra_eval_obj``/``algebra_eval_mor`` evaluate a directory-object in
a strictly associative tensor (its path family in lexicographic order),
sending an ISO morphism to the tensor of its components followed by the
permutation its index map induces between the two path orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import product as _cartesian
from typing import Any, Callable, Mapping, Sequence

from .core import Dtry, Leaf, Node, NonEmptyRecord
from .errors import NotACategoryError, NotComposableError
from .paths import Path

ObjId = Any
MorId = Any

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
    "path_family",
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
    is the integer ``i`` from then on. The law check is integer lookups in
    one row of composites per morphism; only its messages name the ids.
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
        self._identity = dict(identity)
        compose = dict(compose)
        self._intern(list(morphisms), ends)
        index, dom, cod = self._index, self._dom, self._cod
        ident = {}
        for x in self._objects:
            i = self._identity.get(x)
            k = None if i is None else index.get(i)
            if k is None:
                raise NotACategoryError(f"object {x!r} has no identity morphism", x)
            if (dom[k], cod[k]) != (x, x):
                raise NotACategoryError(f"identity of {x!r} is not an endomorphism", x)
            ident[x] = k
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
        self._link(ident, entries, check_laws)

    @classmethod
    def _of_rows(cls, objects, ids: list, ends: list, ident: dict, rows: list, *, check_laws: bool):
        """Interned tables: ``rows[i]`` holds ``i;j`` for each ``j`` out of ``cod i``, in order."""
        self = cls.__new__(cls)
        self._objects, self._identity = frozenset(objects), {x: ids[i] for x, i in ident.items()}
        self._intern(ids, ends)
        by_dom, cod = self._by_dom, self._cod
        entries = [(f, g, h) for f, row in enumerate(rows) for g, h in zip(by_dom[cod[f]], row)]
        self._link(ident, entries, check_laws)
        return self

    def _intern(self, ids: list, ends: list):
        """Number the morphisms, checking that their endpoints are objects.

        ``_ids[i]`` is morphism ``i`` and ``_index`` its inverse, ``_dom[i]``/``_cod[i]``
        its endpoints, and ``_by_dom`` maps each object to the morphisms out of it.
        """
        objects = self._objects
        self._ids, self._index = ids, {m: i for i, m in enumerate(ids)}
        dom = self._dom = []
        cod = self._cod = []
        by_dom = self._by_dom = {}
        for i, (d, c) in enumerate(ends):
            if d not in objects or c not in objects:
                raise NotACategoryError(f"morphism {ids[i]!r} has unknown endpoint", ids[i])
            dom.append(d)
            cod.append(c)
            by_dom.setdefault(d, []).append(i)

    def _link(self, ident: dict, entries: list, check_laws: bool):
        """Set the composites, check that each morphism has all of its own, then the laws if asked.

        ``_ident`` maps each object to its identity, ``_entries`` lists the composites
        ``(i, j, i;j)`` in their given order, and ``_after[i]`` maps each ``j`` to ``i;j``.
        """
        self._ident, self._entries = ident, entries
        after = self._after = [{} for _ in self._ids]
        for f, g, h in entries:
            after[f][g] = h
        # Each row holds only composable partners, so a row is complete
        # exactly when it is as long as the list of morphisms it composes with.
        ids, cod, by_dom = self._ids, self._cod, self._by_dom
        for f, row in enumerate(after):
            partners = by_dom.get(cod[f], ())
            if len(row) != len(partners):
                f, g = ids[f], ids[next(g for g in partners if g not in row)]
                raise NotACategoryError(f"missing composite for ({f!r}, {g!r})", (f, g))
        if check_laws:
            self.validate()

    def validate(self):
        """Check the identity and associativity laws over the full tables.

        Raises:
            NotACategoryError: naming an offending morphism or triple.
        """
        ids, dom, cod, after, ident = self._ids, self._dom, self._cod, self._after, self._ident
        for f, row in enumerate(after):
            if after[ident[dom[f]]][f] != f:
                raise NotACategoryError(f"left identity fails at {ids[f]!r}", ids[f])
            if row[ident[cod[f]]] != f:
                raise NotACategoryError(f"right identity fails at {ids[f]!r}", ids[f])
        by_dom = self._by_dom
        for f, g, fg in self._entries:
            after_f, after_g, after_fg = after[f], after[g], after[fg]
            for h in by_dom[cod[g]]:
                if after_fg[h] != after_f[after_g[h]]:
                    raise NotACategoryError(
                        f"associativity fails at ({ids[f]!r}, {ids[g]!r}, {ids[h]!r})",
                        (ids[f], ids[g], ids[h]),
                    )

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
            morphisms = {m["id"]: (m["dom"], m["cod"]) for m in data["morphisms"]}
            compose = {(f, g): h for f, g, h in data["compose"]}
            return cls(data["objects"], morphisms, data["identity"], compose, check_laws=check_laws)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise NotACategoryError(f"not a category table document: {exc!r}") from exc

    def objects(self) -> frozenset:
        return self._objects

    def morphisms(self) -> list[MorId]:
        return list(self._ids)

    def has_object(self, x) -> bool:
        return x in self._objects

    def dom(self, f) -> ObjId:
        return self._dom[self._index[f]]

    def cod(self, f) -> ObjId:
        return self._cod[self._index[f]]

    def identity(self, x) -> MorId:
        return self._identity[x]

    def compose(self, f, g) -> MorId:
        i, j = self._index.get(f), self._index.get(g)
        composite = None if i is None or j is None else self._after[i].get(j)
        if composite is None:
            raise NotComposableError(f"no composite for ({f!r}, {g!r})")
        return self._ids[composite]

    def hom(self, x, y) -> list[MorId]:
        return [m for m, d, c in zip(self._ids, self._dom, self._cod) if d == x and c == y]


@dataclass(frozen=True)
class FinFn:
    """A function {1..m} -> {1..cod} as an explicit image table.

    The domain size is the length of ``images``; entry ``i`` (1-based)
    maps to ``images[i-1]``.
    """

    cod: int
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        cod = self.cod
        if type(cod) is not int or cod < 0:
            raise ValueError(f"codomain size {cod!r} is not a nonnegative int")
        for i in self.images:
            if type(i) is not int:
                raise ValueError(f"image {i!r} is not an int")
            if not 1 <= i <= cod:
                raise ValueError(f"image {i} outside 1..{cod}")

    @property
    def dom(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"FinFn({self.cod}, {self.images})"


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
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def dom(self, f: FinFn) -> int:
        return f.dom

    def cod(self, f: FinFn) -> int:
        return f.cod

    def identity(self, n: int) -> FinFn:
        return FinFn(n, tuple(range(1, n + 1)))

    def compose(self, f: FinFn, g: FinFn) -> FinFn:
        if f.cod != g.dom:
            raise NotComposableError(
                f"cannot compose {f!r} (into {f.cod}) with {g!r} (out of {g.dom})"
            )
        return FinFn(g.cod, tuple(g.images[i - 1] for i in f.images))

    def hom(self, m: int, n: int) -> list[FinFn]:
        return [FinFn(n, images) for images in _cartesian(range(1, n + 1), repeat=m)]

    def block_sum(self, fns: Sequence[FinFn]) -> FinFn:
        """The disjoint union of functions, domains and codomains laid out in order."""
        total_cod = sum(f.cod for f in fns)
        images = []
        offset = 0
        for f in fns:
            images.extend(i + offset for i in f.images)
            offset += f.cod
        return FinFn(total_cod, tuple(images))

    def block_perm(self, sizes: Sequence[int], perm: Sequence[int]) -> FinFn:
        """The function reordering blocks: input slot i lands at output slot perm[i].

        Within a block the order of elements is preserved; the codomain
        lays the blocks out in their new order.
        """
        sizes = list(sizes)
        perm = list(perm)
        if sorted(perm) != list(range(len(sizes))):
            raise ValueError(f"not a permutation of 0..{len(sizes) - 1}: {perm}")
        out_sizes = [0] * len(sizes)
        for i, slot in enumerate(perm):
            out_sizes[slot] = sizes[i]
        out_offsets = [0] * len(sizes)
        acc = 0
        for j, size in enumerate(out_sizes):
            out_offsets[j] = acc
            acc += size
        images = []
        for i, size in enumerate(sizes):
            base = out_offsets[perm[i]]
            images.extend(base + t for t in range(1, size + 1))
        return FinFn(sum(sizes), tuple(images))

    def truncate(self, max_size: int, *, check_laws: bool = True) -> FinCat:
        """Explicit tables for the full subcategory on sizes 0..max_size.

        Each hom-set is enumerated once, and morphism ``i`` of that list is the
        integer ``i``. Composites are computed by index, so none is built as a
        :class:`FinFn`, and each id is hashed once, to intern it.

        >>> cat = FinSetSkeleton().truncate(2)
        >>> len(cat.morphisms())
        11
        >>> swap = FinFn(2, (2, 1))
        >>> cat.compose(swap, swap)
        FinFn(2, (1, 2))
        """
        sizes = range(max_size + 1)
        out_of = [[f for n in sizes for f in self.hom(m, n)] for m in sizes]
        ids = [f for fns in out_of for f in fns]
        index = [{f.images: i for i, f in enumerate(ids) if f.cod == n} for n in sizes]
        # Led by a 0, g's images read along f's images are the composite's.
        led = [[(index[g.cod], (0,) + g.images) for g in fns] for fns in out_of]
        rows = [[at[tuple([g[i] for i in f.images])] for at, g in led[f.cod]] for f in ids]
        ident = {n: index[n][tuple(range(1, n + 1))] for n in sizes}
        ends = [(f.dom, f.cod) for f in ids]
        return FinCat._of_rows(sizes, ids, ends, ident, rows, check_laws=check_laws)


class Variant(Enum):
    """Which side indexes a directory-morphism's data, and what f0 must be."""

    GENERAL = "general"
    ISO = "iso"
    PRODUCT = "product"


@dataclass(frozen=True)
class DtryObj:
    """A directory whose values are objects of ``cat``.

    ``assign`` is the read view of ``objs``: its complete paths and their
    objects in lexicographic order, computed once on construction.
    """

    cat: Any
    objs: Dtry
    assign: Mapping[Path, ObjId] = field(init=False, compare=False)

    def __post_init__(self):
        assign = self.objs.path_map()
        for p, v in assign.items():
            if not self.cat.has_object(v):
                raise ValueError(f"{v!r} assigned at {p!r} is not an object of the category")
        object.__setattr__(self, "assign", assign)

    @classmethod
    def of(cls, cat, assign: Mapping) -> "DtryObj":
        """Build the directory from a path-to-object mapping."""
        return cls(cat, Dtry.from_path_map(assign))

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
        cat = self.src.cat
        if self.dst.cat != cat:
            raise ValueError("source and destination live in different categories")
        product = self.variant is Variant.PRODUCT
        index, target = (self.dst, self.src) if product else (self.src, self.dst)
        given0, given1, objs = self.f0, self.f1, target.assign
        if not len(given0) == len(given1) == len(index.assign):
            raise ValueError("index map and components must have one entry per index path")
        own = {q: q for q in objs}
        f0, f1 = {}, {}
        for p, x in index.assign.items():
            if p not in given0 or p not in given1:
                raise ValueError(f"index map and components must be total: nothing at {p!r}")
            q, m = own.get(given0[p]), given1[p]
            if q is None:
                raise ValueError(f"index map sends {p!r} outside the other side: {given0[p]!r}")
            want = (objs[q], x) if product else (x, objs[q])
            try:
                have = (cat.dom(m), cat.cod(m))
            except (KeyError, AttributeError, TypeError) as exc:
                raise ValueError(f"component at {p!r} is not a morphism: {m!r}") from exc
            if have != want:
                raise ValueError(
                    f"component at {p!r} has type {have[0]!r} -> {have[1]!r}, "
                    f"expected {want[0]!r} -> {want[1]!r}"
                )
            f0[p], f1[p] = q, m
        if self.variant is Variant.ISO and len(set(f0.values())) != len(own):
            raise ValueError("index map of an ISO morphism must be a bijection")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)


def identity_mor(x: DtryObj, variant: Variant = Variant.GENERAL) -> DtryMor:
    """The identity on ``x`` in any variant: identity index map, identity components."""
    f0, f1 = {}, {}
    for p, v in x.assign.items():
        f0[p], f1[p] = p, x.cat.identity(v)
    return DtryMor(variant, x, x, f0, f1)


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

    Entries holding empty objects vanish with their outer paths. For an
    empty outer directory the category cannot be inferred, so pass
    ``cat=`` explicitly there.
    """
    if cat is None:
        if dd.is_empty:
            raise ValueError("cannot infer the category of an empty directory; pass cat=")
        tree = dd.root
        while type(tree) is Node:
            tree = next(iter(tree.children.values()))
        cat = tree.value.cat
    return DtryObj(cat, dd.map_values(lambda o: o.objs).flatten())


def mu_mor(dm: Dtry, *, cat=None, variant: Variant | None = None) -> DtryMor:
    """Flatten a directory of directory-morphisms.

    The outer directory indexes both sides at once: the result goes from
    the flattening of the sources to the flattening of the destinations,
    with index map ``p*q -> p*(inner f0 at p)(q)`` and the inner
    components carried across unchanged.

    Raises:
        NotComposableError: when the entries mix variants or categories.
    """
    inner = dm.path_map()
    variants = {m.variant for m in inner.values()}
    if len(variants) > 1:
        raise NotComposableError(f"mixed variants in one directory: {variants}")
    mors = list(inner.values())
    if any(m.src.cat != mors[0].src.cat for m in mors[1:]):
        raise NotComposableError("mixed categories in one directory")
    if variant is None:
        variant = variants.pop() if variants else Variant.GENERAL
    src = mu_obj(dm.map_values(lambda m: m.src), cat=cat)
    dst = mu_obj(dm.map_values(lambda m: m.dst), cat=cat)
    f0, f1 = {}, {}
    for p, m in inner.items():
        for q, target in m.f0.items():
            pq = p.concat(q)
            f0[pq], f1[pq] = p.concat(target), m.f1[q]
    return DtryMor(variant, src, dst, f0, f1)


def path_family(x: DtryObj) -> list[tuple[Path, ObjId]]:
    """The assigned objects in lexicographic path order."""
    return list(x.assign.items())


def shape_with_n_leaves(n: int) -> Dtry:
    """A deterministic shape with exactly ``n`` complete paths.

    Balanced binary splitting with children named ``l`` and ``r``; 0 is
    the empty directory and 1 the bare leaf.
    """
    if n < 0:
        raise ValueError("leaf count must be nonnegative")
    if n == 0:
        return Dtry.empty()
    return Dtry(_balanced_tree(n))


def _balanced_tree(n: int):
    if n == 1:
        return Leaf(None)
    left = n // 2
    return Node(NonEmptyRecord({"l": _balanced_tree(left), "r": _balanced_tree(n - left)}))


@dataclass(frozen=True)
class StrictAlgebra:
    """Strictly associative tensor data for evaluating directory-objects.

    ``tensor_obj``/``tensor_mor`` take the whole list at once and must
    satisfy: the empty tensor is ``unit_obj`` (respectively its
    identity), a singleton tensor is its only entry, and tensoring a
    concatenation equals tensoring the tensors. ``permute(objs, perm)``
    is the morphism from the tensor of ``objs`` to the tensor of the
    reordered list, where entry ``i`` moves to slot ``perm[i]``.
    """

    cat: Any
    unit_obj: ObjId
    tensor_obj: Callable[[Sequence[ObjId]], ObjId]
    tensor_mor: Callable[[Sequence[MorId]], MorId]
    permute: Callable[[Sequence[ObjId], Sequence[int]], MorId]


def finset_coproduct_algebra(skel: FinSetSkeleton | None = None) -> StrictAlgebra:
    """Disjoint union as a strict tensor on the skeleton of finite sets."""
    skel = skel if skel is not None else FinSetSkeleton()
    return StrictAlgebra(
        cat=skel,
        unit_obj=0,
        tensor_obj=lambda objs: sum(objs),
        tensor_mor=skel.block_sum,
        permute=skel.block_perm,
    )


def algebra_eval_obj(alg: StrictAlgebra, x: DtryObj) -> ObjId:
    """Tensor the path family of ``x`` in lexicographic order."""
    family = path_family(x)
    if not family:
        return alg.unit_obj
    return alg.tensor_obj([v for _, v in family])


def algebra_eval_mor(alg: StrictAlgebra, m: DtryMor) -> MorId:
    """Evaluate an ISO morphism as a string diagram.

    Tensor the components in source path order, then permute the
    resulting wires into destination path order: the wire at source
    position ``i`` lands at the position of ``f0[p_i]`` among the
    destination paths.
    """
    if m.variant is not Variant.ISO:
        raise ValueError("algebra evaluation needs the bijective variant")
    cat = alg.cat
    if not m.f1:
        return cat.identity(alg.unit_obj)
    tensored = alg.tensor_mor(list(m.f1.values()))
    slot_of = {q: j for j, q in enumerate(m.dst.assign)}
    perm = [slot_of[q] for q in m.f0.values()]
    carried = [m.dst.assign[q] for q in m.f0.values()]
    return cat.compose(tensored, alg.permute(carried, perm))
