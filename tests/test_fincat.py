"""Finite categories, directory-indexed objects and morphisms, tensor evaluation."""

import copy
import dataclasses
import json
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from collections.abc import Mapping
from enum import IntEnum
from dataclasses import FrozenInstanceError
from functools import partial
from itertools import product as cartesian
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtry import fincat
from dtry.core import Dtry, Leaf, NonEmptyRecord, distrib, filter_nothings
from dtry.errors import NotACategoryError, NotComposableError, PrefixConflictError
from dtry.fincat import (
    DtryMor,
    DtryObj,
    FinCat,
    FinFn,
    FinSetSkeleton,
    Variant,
    algebra_eval_mor,
    algebra_eval_obj,
    compose_mor,
    finset_coproduct_algebra,
    identity_mor,
    mu_mor,
    mu_obj,
    shape_with_n_leaves,
)
from dtry.paths import Name, Path

from helpers import (
    oracle_fincat,
    random_dtry,
    random_dtry_obj,
    random_mor_from,
    random_shape,
    reference_from_path_map_by_key,
    reference_obj_of,
)

SKEL = FinSetSkeleton()
ALG = finset_coproduct_algebra(SKEL)
VARIANTS = (Variant.GENERAL, Variant.ISO, Variant.PRODUCT)


def slot_fields(obj) -> dict:
    """What ``obj`` holds in the slots of its classes, ``__weakref__`` aside: ``vars`` for a slotted value."""
    names = [name for cls in type(obj).__mro__ for name in cls.__dict__.get("__slots__", ())]
    return {name: getattr(obj, name) for name in names if name != "__weakref__" and hasattr(obj, name)}


class Size(IntEnum):
    """Sizes that are ints by ``isinstance`` but not by type."""

    ZERO = 0
    TWO = 2


class Count(int):
    pass


def tiny_cat_json():
    return json.dumps(
        {
            "objects": ["x", "y"],
            "morphisms": [
                {"id": "id_x", "dom": "x", "cod": "x"},
                {"id": "id_y", "dom": "y", "cod": "y"},
                {"id": "f", "dom": "x", "cod": "y"},
            ],
            "identity": {"x": "id_x", "y": "id_y"},
            "compose": [
                ["id_x", "id_x", "id_x"],
                ["id_x", "f", "f"],
                ["f", "id_y", "f"],
                ["id_y", "id_y", "id_y"],
            ],
        }
    )


TINY = FinCat.from_json(tiny_cat_json())


class TestFinCatTables:
    def test_loads_and_validates(self):
        cat = FinCat.from_json(tiny_cat_json())
        assert cat.has_object("x")
        assert cat.compose("id_x", "f") == "f"
        assert cat.hom("x", "y") == ["f"]
        cat.validate()

    def test_identity_of_an_object_and_of_no_object(self):
        truncated = SKEL.truncate(2)
        assert TINY.identity("x") == "id_x" and truncated.identity(2) == SKEL.identity(2)
        for cat, stranger in ((TINY, "z"), (truncated, 3)):
            with pytest.raises(KeyError):
                cat.identity(stranger)

    def test_missing_composite_is_structural(self):
        data = json.loads(tiny_cat_json())
        data["compose"] = [c for c in data["compose"] if c[0] != "id_x" or c[1] != "f"]
        with pytest.raises(NotACategoryError):
            FinCat.from_json(json.dumps(data))

    def test_wrongly_typed_composite_is_structural(self):
        data = json.loads(tiny_cat_json())
        data["compose"][1] = ["id_x", "f", "id_x"]  # endpoint of h is wrong
        with pytest.raises(NotACategoryError):
            FinCat.from_json(json.dumps(data))

    def test_identity_law_violation_detected(self):
        # e;id = id in the table instead of e
        cat = dict(
            objects=["x"],
            morphisms={"id_x": ("x", "x"), "e": ("x", "x")},
            identity={"x": "id_x"},
            compose={
                ("id_x", "id_x"): "id_x",
                ("id_x", "e"): "e",
                ("e", "id_x"): "id_x",
                ("e", "e"): "e",
            },
        )
        with pytest.raises(NotACategoryError) as exc:
            FinCat(cat["objects"], cat["morphisms"], cat["identity"], cat["compose"])
        assert "identity" in str(exc.value)

    def test_associativity_violation_detected(self):
        compose = {
            ("id_x", "id_x"): "id_x",
            ("id_x", "a"): "a",
            ("id_x", "b"): "b",
            ("a", "id_x"): "a",
            ("b", "id_x"): "b",
            ("a", "a"): "b",
            ("a", "b"): "b",
            ("b", "a"): "a",
            ("b", "b"): "a",
        }
        morphisms = {"id_x": ("x", "x"), "a": ("x", "x"), "b": ("x", "x")}
        with pytest.raises(NotACategoryError) as exc:
            FinCat(["x"], morphisms, {"x": "id_x"}, compose)
        assert "associativity" in str(exc.value)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            {**json.loads(tiny_cat_json()), "morphisms": [{"id": "id_x", "dom": "x"}]},
            {**json.loads(tiny_cat_json()), "morphisms": [{"id": ["f"], "dom": "x", "cod": "y"}]},
        ],
        ids=["empty_object", "array", "morphism_without_cod", "list_valued_id"],
    )
    def test_document_of_another_shape_is_not_a_category(self, data):
        with pytest.raises(NotACategoryError, match="not a category table document"):
            FinCat.from_json(json.dumps(data))

    # One object and its identity, with one-letter ids, so that a string
    # read as a sequence of ids would give a category.
    ONE = {
        "objects": ["x"],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x"}],
        "identity": {"x": "i"},
        "compose": [["i", "i", "i"]],
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("objects", {"x": 1}),
            ("objects", "x"),
            ("compose", ["iii"]),
            ("identity", [["x", "i"]]),
        ],
        ids=["objects_object", "objects_string", "compose_triple_string", "identity_pairs"],
    )
    def test_document_of_the_wrong_container_types_is_not_a_category(self, field, value):
        FinCat.from_json(json.dumps(self.ONE))  # the document as it should be
        with pytest.raises(NotACategoryError, match="not a category table document"):
            FinCat.from_json(json.dumps({**self.ONE, field: value}))

    @pytest.mark.parametrize(
        "text", ["not json", "[" * 100_000 + "]" * 100_000], ids=["not_json", "nested_too_deep"]
    )
    def test_text_that_is_no_json_document_is_not_a_category(self, text):
        with pytest.raises(NotACategoryError, match="not a category table document"):
            FinCat.from_json(text)

    def test_composing_undefined_pair_raises(self):
        cat = FinCat.from_json(tiny_cat_json())
        with pytest.raises(NotComposableError):
            cat.compose("f", "f")


def skeleton_tables(k):
    """The tables of ``truncate(k)`` from the skeleton itself, with string ids."""
    sizes = range(k + 1)
    fns = [f for m in sizes for n in sizes for f in SKEL.hom(m, n)]
    return (
        [str(n) for n in sizes],
        {repr(f): (str(f.dom), str(f.cod)) for f in fns},
        {str(n): repr(SKEL.identity(n)) for n in sizes},
        {
            (repr(f), repr(g)): repr(SKEL.compose(f, g))
            for f in fns
            for g in fns
            if f.cod == g.dom
        },
    )


def tiny_tables():
    data = json.loads(tiny_cat_json())
    return (
        data["objects"],
        {m["id"]: (m["dom"], m["cod"]) for m in data["morphisms"]},
        data["identity"],
        {(f, g): h for f, g, h in data["compose"]},
    )


def defective_tables(objects, morphisms, identity, compose):
    """Every way to plant one defect in a category's tables.

    Drop a composite or every composite after one morphism, name an
    unknown composite, retarget an endpoint, drop or repoint an identity,
    or swap two composites of one type, so that only the laws can notice.
    """
    for pair in compose:
        yield objects, morphisms, identity, {p: h for p, h in compose.items() if p != pair}
        yield objects, morphisms, identity, {**compose, pair: "unknown"}
    for m, (d, c) in morphisms.items():
        yield objects, morphisms, identity, {p: h for p, h in compose.items() if p[0] != m}
        for end in objects + ["nowhere"]:
            yield objects, {**morphisms, m: (end, c)}, identity, compose
            yield objects, {**morphisms, m: (d, end)}, identity, compose
    for x in objects:
        yield objects, morphisms, {y: i for y, i in identity.items() if y != x}, compose
        for m in morphisms:
            yield objects, morphisms, {**identity, x: m}, compose
    for first, h in compose.items():
        for second, k in compose.items():
            if first < second and morphisms[h] == morphisms[k]:
                yield objects, morphisms, identity, {**compose, first: k, second: h}


TABLES = [tiny_tables()] + [skeleton_tables(k) for k in range(3)]
DEFECTIVE = [list(defective_tables(*tables)) for tables in TABLES]
CHECKS = (
    "unknown endpoint",
    "no identity morphism",
    "not an endomorphism",
    "names unknown morphisms",
    "non-composable pair",
    "wrong endpoints",
    "missing composite",
    "left identity fails",
    "right identity fails",
    "associativity fails",
)


@st.composite
def reordered_defective_tables(draw):
    """One of the defective tables, with its morphisms and composites reordered."""
    objects, morphisms, identity, compose = draw(st.sampled_from(draw(st.sampled_from(DEFECTIVE))))
    morphisms = dict(draw(st.permutations(list(morphisms.items()))))
    compose = dict(draw(st.permutations(list(compose.items()))))
    return objects, morphisms, identity, compose


def outcome(check, tables):
    try:
        check(*tables)
    except NotACategoryError as exc:
        return str(exc), exc.args, exc.witness
    return None


def one_entry_rows_tables():
    """A category whose object ``y`` has only its identity out of it: rows into ``y`` hold one entry.

    ``e`` is idempotent on ``x`` and sends both ``a`` and ``b``, arrows into ``y``, to ``a``.
    """
    morphisms = {"id_x": ("x", "x"), "e": ("x", "x"), "a": ("x", "y"), "b": ("x", "y"), "id_y": ("y", "y")}
    compose = {("id_x", m): m for m in ("id_x", "e", "a", "b")}
    compose.update({("e", "id_x"): "e", ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "a"})
    compose.update({(m, "id_y"): m for m in ("a", "b", "id_y")})
    return ["x", "y"], morphisms, {"x": "id_x", "y": "id_y"}, compose


def repointed_composites(objects, morphisms, identity, compose):
    """Every way to repoint one composite at another morphism of its type.

    The tables stay well typed, so that only the laws can notice.
    """
    for pair, h in compose.items():
        for m, ends in morphisms.items():
            if m != h and ends == morphisms[h]:
                yield objects, morphisms, identity, {**compose, pair: m}


def row_tables(objects, morphisms, identity, compose):
    """The arguments of ``FinCat._of_rows`` for these tables, and the tables with ``compose`` in row order."""
    ids = list(morphisms)
    index = {m: i for i, m in enumerate(ids)}
    out_of = {x: [m for m in ids if morphisms[m][0] == x] for x in objects}
    listed = {(f, g): compose[(f, g)] for f in ids for g in out_of[morphisms[f][1]]}
    rows = [[index[compose[(f, g)]] for g in out_of[morphisms[f][1]]] for f in ids]
    ident = {x: index[identity[x]] for x in objects}
    ends = list(morphisms.values())
    return (objects, ids, ends, ident, rows), (objects, morphisms, identity, listed)


class TestTableChecks:
    def test_every_single_defect_is_caught_as_by_the_loops(self):
        reached = set()
        for tables, defective in zip(TABLES, DEFECTIVE):
            assert outcome(FinCat, tables) is None
            for bad in defective:
                got = outcome(FinCat, bad)
                assert got == outcome(oracle_fincat, bad)
                reached.update(check for check in CHECKS if got and check in got[0])
        assert reached == set(CHECKS)

    @settings(max_examples=300, deadline=None)
    @given(reordered_defective_tables())
    def test_reordered_tables_fail_as_the_loops_do(self, tables):
        assert outcome(FinCat, tables) == outcome(oracle_fincat, tables)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_truncated_rows_are_a_category(self, k):
        # truncate(0) has one morphism and truncate(1) an object with only its
        # identity out of it: both are made of rows of one entry.
        args, tables = row_tables(*skeleton_tables(k))
        assert (min(map(len, args[-1])) == 1) == (k < 2)
        assert outcome(partial(FinCat._of_rows, check_laws=True), args) is None
        assert outcome(oracle_fincat, tables) is None

    @pytest.mark.parametrize(
        "tables", [skeleton_tables(2), one_entry_rows_tables()], ids=["truncate_2", "one_entry_rows"]
    )
    def test_rows_with_a_repointed_composite_fail_as_the_loops_do(self, tables):
        reached = set()
        for bad in repointed_composites(*tables):
            args, listed = row_tables(*bad)
            got = outcome(partial(FinCat._of_rows, check_laws=True), args)
            assert got == outcome(oracle_fincat, listed)
            reached.update(check for check in CHECKS if got and check in got[0])
        assert reached == {"left identity fails", "right identity fails", "associativity fails"}


def random_tables(rng):
    """Well-typed tables on one or two objects: identity composites right, the others drawn at random.

    Each hom-set holds up to two morphisms besides an identity, and the
    morphisms and composites come in a random order.
    """
    objects = ["x", "y"][: rng.randint(1, 2)]
    identity = {x: f"id_{x}" for x in objects}
    morphisms = [(f"id_{x}", (x, x)) for x in objects]
    morphisms += [(f"{d}{c}{i}", (d, c)) for d in objects for c in objects for i in range(rng.randint(0, 2))]
    rng.shuffle(morphisms)
    morphisms = dict(morphisms)
    compose = []
    for (f, (d, c)), (g, (b, e)) in cartesian(morphisms.items(), repeat=2):
        if c != b:
            continue
        if f == identity[d]:
            h = g
        elif g == identity[e]:
            h = f
        else:
            h = rng.choice([m for m, ends in morphisms.items() if ends == (d, e)])
        compose.append(((f, g), h))
    rng.shuffle(compose)
    return objects, morphisms, identity, dict(compose)


def generator_ids(cat):
    return [cat.morphisms()[i] for i in cat._generators()]


def reached(cat, gens):
    """The morphisms that the identities and ``gens`` reach, each ``gens`` member composed before a reached one."""
    seen = {cat.identity(x) for x in cat.objects()} | set(gens)
    todo = list(seen)
    while todo:
        f = todo.pop()
        for s in gens:
            if cat.cod(s) == cat.dom(f):
                sf = cat.compose(s, f)
                if sf not in seen:
                    seen.add(sf)
                    todo.append(sf)
    return seen


def assert_generated(cat):
    """The generators reach every morphism, and each joins, in morphism order, where those before it do not reach."""
    morphisms, gens = cat.morphisms(), generator_ids(cat)
    assert reached(cat, gens) == set(morphisms)
    assert gens == sorted(gens, key=morphisms.index)
    for i, s in enumerate(gens):
        assert s not in reached(cat, gens[:i])
    return gens


def shuffled_json(tables, rng):
    """The JSON document of ``tables``, its morphisms and composites in a random order."""
    objects, morphisms, identity, compose = tables
    morphisms, compose = list(morphisms.items()), list(compose.items())
    rng.shuffle(morphisms)
    rng.shuffle(compose)
    return json.dumps(
        {
            "objects": objects,
            "morphisms": [{"id": m, "dom": d, "cod": c} for m, (d, c) in morphisms],
            "identity": identity,
            "compose": [[f, g, h] for (f, g), h in compose],
        }
    )


class TestGeneratedChecks:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_tables_fail_as_the_loops_do(self, rng):
        tables = random_tables(rng)
        assert outcome(FinCat, tables) == outcome(oracle_fincat, tables)
        args, listed = row_tables(*tables)
        assert outcome(partial(FinCat._of_rows, check_laws=True), args) == outcome(oracle_fincat, listed)

    def test_a_first_failing_triple_led_by_no_generator_is_named_as_the_loops_name_it(self):
        rng, led_by_others = random.Random(0), 0
        for _ in range(400):
            tables = random_tables(rng)
            args, listed = row_tables(*tables)
            for check, given, as_listed in (
                (FinCat, tables, tables),
                (partial(FinCat._of_rows, check_laws=True), args, listed),
            ):
                want = outcome(oracle_fincat, as_listed)
                if want is None or not want[0].startswith("associativity fails"):
                    continue
                gens = generator_ids(FinCat(*as_listed, check_laws=False))
                led_by_others += want[2][0] not in gens
                assert outcome(check, given) == want
        assert led_by_others >= 10

    @pytest.mark.parametrize("k, count", [(0, 0), (1, 1), (2, 6), (3, 19)])
    def test_generators_reach_every_truncated_morphism(self, k, count):
        assert len(assert_generated(SKEL.truncate(k))) == count

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_generators_reach_every_morphism_of_shuffled_tables(self, k):
        rng, tables = random.Random(k), skeleton_tables(k)
        for _ in range(3):
            assert_generated(FinCat.from_json(shuffled_json(tables, rng)))

    def test_generators_reach_every_morphism_of_one_entry_rows(self):
        assert_generated(FinCat(*one_entry_rows_tables()))

    def test_truncate_4_builds_with_its_laws_checked(self):
        cat = SKEL.truncate(4, check_laws=True)
        assert len(cat.morphisms()) == 499
        assert len(generator_ids(cat)) == 51

    @pytest.mark.parametrize("cat", [TINY, SKEL.truncate(2)], ids=["tiny", "truncate_2"])
    def test_hom_reads_the_morphisms_out_of_its_domain_in_order(self, cat):
        morphisms = cat.morphisms()
        for x in list(cat.objects()) + ["z", 7, None, []]:
            for y in list(cat.objects()) + ["z", []]:
                want = [m for m in morphisms if cat.dom(m) == x and cat.cod(m) == y]
                assert cat.hom(x, y) == want


class TestTableWork:
    @pytest.fixture
    def fn_hashes(self, monkeypatch):
        counts = Counter()
        fn_hash = FinFn.__hash__

        def counting_hash(self):
            counts["hash"] += 1
            return fn_hash(self)

        monkeypatch.setattr(FinFn, "__hash__", counting_hash)
        return counts

    def test_validate_hashes_no_morphism_id(self, fn_hashes):
        cat = SKEL.truncate(3, check_laws=False)
        fn_hashes.clear()
        cat.validate()
        assert fn_hashes["hash"] <= len(cat.objects()) + len(cat.morphisms())
        morphisms = cat.morphisms()
        assert len(morphisms) == 60
        composites = sum(len(cat.hom(cat.cod(f), n)) for f in morphisms for n in cat.objects())
        assert composites == 1678

    def test_validate_runs_a_line_per_composite_not_per_triple(self):
        cat = SKEL.truncate(3, check_laws=False)
        lines = Counter()

        def count_lines(frame, event, arg):
            lines[event] += 1
            return count_lines

        def trace_fincat(frame, event, arg):
            return count_lines if frame.f_code.co_filename == FinCat.validate.__code__.co_filename else None

        sys.settrace(trace_fincat)
        try:
            cat.validate()
        finally:
            sys.settrace(None)
        # 60 morphisms and 1,678 composites; a loop over the 50,018
        # associativity triples runs over 100,000 lines.
        assert 0 < lines["line"] <= 4 * (60 + 1678)

    def test_construction_hashes_each_id_once_per_table_entry(self, fn_hashes):
        sizes = range(4)
        fns = [f for m in sizes for n in sizes for f in SKEL.hom(m, n)]
        morphisms = {f: (f.dom, f.cod) for f in fns}
        identity = {n: SKEL.identity(n) for n in sizes}
        compose = {(f, g): SKEL.compose(f, g) for f in fns for g in fns if f.cod == g.dom}
        fn_hashes.clear()
        FinCat(sizes, morphisms, identity, compose, check_laws=False)
        assert fn_hashes["hash"] <= len(morphisms) + len(identity) + 3 * len(compose)

    def test_truncate_makes_and_hashes_only_its_hom_sets(self, fn_hashes, monkeypatch):
        fn_init = FinFn.__init__

        def counting_init(self, *args, **kwargs):
            fn_hashes["init"] += 1
            fn_init(self, *args, **kwargs)

        monkeypatch.setattr(FinFn, "__init__", counting_init)
        cat = SKEL.truncate(3)
        morphisms = cat.morphisms()
        assert len(morphisms) == 60
        assert fn_hashes["hash"] <= len(morphisms)
        assert fn_hashes["init"] <= len(morphisms)

    def test_truncated_tables_keep_no_composite_list(self):
        tracemalloc.start()
        try:
            cat = SKEL.truncate(4, check_laws=False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cat.morphisms()) == 499
        # 133,799 composites: a (f, g, f;g) tuple each would hold 9.7 MB more.
        assert held < 4_000_000


def truncate_by_ids(k):
    """``truncate(k)`` as the tables of ``FinFn`` ids, checked and interned by ``FinCat``."""
    sizes = range(k + 1)
    fns = [f for m in sizes for n in sizes for f in SKEL.hom(m, n)]
    morphisms = {f: (f.dom, f.cod) for f in fns}
    identity = {n: SKEL.identity(n) for n in sizes}
    compose = {(f, g): SKEL.compose(f, g) for f in fns for g in fns if f.cod == g.dom}
    return FinCat(sizes, morphisms, identity, compose)


class TestTruncateTables:
    def test_compose_checks_the_middle_object_before_reading_a_row(self):
        cat = SKEL.truncate(2)
        for f, g in [
            (FinFn(1, (1,)), FinFn(2, (1, 2))),
            (FinFn(3, (1,)), FinFn(3, (1, 2, 3))),
            (FinFn(1, (1,)), "unknown"),
            ("unknown", FinFn(1, (1,))),
        ]:
            with pytest.raises(NotComposableError, match="^no composite for"):
                cat.compose(f, g)
        morphisms = cat.morphisms()
        for f, g in cartesian(morphisms, repeat=2):
            if f.cod == g.dom:
                assert cat.compose(f, g) == SKEL.compose(f, g)
            else:
                with pytest.raises(NotComposableError):
                    cat.compose(f, g)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_truncate_is_the_category_of_its_id_tables(self, k):
        cat, want = SKEL.truncate(k), truncate_by_ids(k)
        assert cat.objects() == want.objects()
        morphisms = cat.morphisms()
        assert morphisms == want.morphisms()
        for x in cat.objects():
            assert cat.identity(x) == want.identity(x)
            for y in cat.objects():
                assert cat.hom(x, y) == want.hom(x, y)
        enumerated = {id(m) for m in morphisms}
        for f in morphisms:
            assert (cat.dom(f), cat.cod(f)) == (want.dom(f), want.cod(f))
            for g in morphisms:
                if cat.cod(f) == cat.dom(g):
                    h = cat.compose(f, g)
                    assert h == want.compose(f, g) and id(h) in enumerated
                else:
                    with pytest.raises(NotComposableError) as got:
                        cat.compose(f, g)
                    with pytest.raises(NotComposableError) as expected:
                        want.compose(f, g)
                    assert str(got.value) == str(expected.value)


class TestFinSetSkeleton:
    def test_hom_counts(self):
        # |hom(m, n)| = n^m, with the empty function as the only map out of 0
        assert len(SKEL.hom(0, 0)) == 1
        assert len(SKEL.hom(0, 3)) == 1
        assert len(SKEL.hom(2, 0)) == 0
        assert len(SKEL.hom(2, 3)) == 9
        assert len(SKEL.hom(3, 2)) == 8

    def test_identity_and_compose(self):
        f = FinFn(3, (2, 3))  # {1,2} -> {1..3}
        g = FinFn(2, (1, 1, 2))  # {1..3} -> {1,2}
        assert SKEL.compose(f, g) == FinFn(2, (1, 2))
        assert SKEL.compose(SKEL.identity(2), f) == f
        assert SKEL.compose(f, SKEL.identity(3)) == f

    @given(
        st.one_of(
            st.integers(-3, 2**70),
            st.booleans(),
            st.sampled_from(Size),
            st.integers(-3, 5).map(Count),
            st.floats(-3, 5),
        )
    )
    def test_objects_are_exactly_the_sizes_of_functions(self, x):
        # has_object holds exactly when x is the codomain of some FinFn
        try:
            FinFn(x, ())
        except ValueError:
            constructs = False
        else:
            constructs = True
        assert SKEL.has_object(x) is constructs

    def test_compose_requires_matching_middle(self):
        with pytest.raises(NotComposableError):
            SKEL.compose(FinFn(2, (1,)), FinFn(3, (1, 1, 1)))

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n)) if n else st.just([]))
        )
    )
    def test_hash_is_that_of_cod_and_images(self, table):
        cod, images = table
        f = FinFn(cod, images)
        assert hash(f) == hash((cod, tuple(images)))

    def test_holds_only_its_fields(self):
        f = FinFn(2, (2, 1))
        assert not hasattr(f, "__dict__")
        assert slot_fields(f) == {"cod": 2, "images": (2, 1)}
        with pytest.raises(TypeError):
            vars(f)

    def test_equal_functions_hash_alike(self):
        f, g = FinFn(3, (2, 3)), FinFn(3, [2, 3])
        assert f == g and hash(f) == hash(g)
        for same in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert same == f and hash(same) == hash(f)
        assert {f: "x"}[g] == "x"
        assert FinFn(3, (2, 3)) != FinFn(2, (2,)) and FinFn(3, (2, 3)) != FinFn(3, (3, 2))
        with pytest.raises(FrozenInstanceError):
            f.cod = 4

    def test_images_validated(self):
        with pytest.raises(ValueError):
            FinFn(2, (3,))
        with pytest.raises(ValueError):
            FinFn(0, (1,))

    @pytest.mark.parametrize(
        "cod, images, message",
        [
            (2.5, (1,), "codomain size 2.5 is not a nonnegative int"),
            (True, (), "codomain size True is not a nonnegative int"),
            (-1, (), "codomain size -1 is not a nonnegative int"),
            (1, (True,), "image True is not an int"),
            (1, (1.0,), "image 1.0 is not an int"),
            (2, (1, "2"), "image '2' is not an int"),
        ],
        ids=("float_cod", "bool_cod", "negative_cod", "bool_image", "float_image", "str_image"),
    )
    def test_codomain_and_images_are_ints(self, cod, images, message):
        # Each would name a morphism whose codomain is no object of SKEL.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FinFn(cod, images)

    def test_keyword_construction_and_replace(self):
        f = FinFn(cod=2, images=(2, 1))
        assert f == FinFn(2, (2, 1)) == FinFn(2, images=[2, 1])
        assert dataclasses.replace(f, images=[1, 1]) == FinFn(2, (1, 1))
        assert dataclasses.replace(f, cod=3) == FinFn(3, (2, 1))
        with pytest.raises(ValueError, match=r"^image 3 outside 1\.\.2$"):
            dataclasses.replace(f, images=(3,))

    def test_copies_and_pickles_are_equal_and_hash_alike(self):
        f = FinFn(3, [2, 3])
        for same in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(same) is FinFn and not hasattr(same, "__dict__")
            assert slot_fields(same) == {"cod": 3, "images": (2, 3)}
            assert same == f and hash(same) == hash(f)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_under_every_protocol(self, protocol):
        f = FinFn(3, (2, 3, 3))
        same = pickle.loads(pickle.dumps(f, protocol))
        assert type(same) is FinFn and same == f and hash(same) == hash(f)
        assert slot_fields(same) == {"cod": 3, "images": (2, 3, 3)}

    @pytest.mark.parametrize(
        "refused",
        [
            lambda f: setattr(f, "cod", 4),
            lambda f: setattr(f, "images", (1, 1)),
            lambda f: setattr(f, "extra", 1),
            lambda f: delattr(f, "cod"),
            lambda f: delattr(f, "images"),
            lambda f: delattr(f, "extra"),
        ],
        ids=("set_cod", "set_images", "set_new_name", "del_cod", "del_images", "del_new_name"),
    )
    def test_fields_and_new_names_are_frozen(self, refused):
        f = FinFn(2, (2, 1))
        with pytest.raises(FrozenInstanceError):
            refused(f)
        assert slot_fields(f) == {"cod": 2, "images": (2, 1)} and not hasattr(f, "extra")

    def test_stays_a_dataclass_of_the_same_fields(self):
        assert dataclasses.is_dataclass(FinFn)
        assert [field.name for field in dataclasses.fields(FinFn)] == ["cod", "images"]
        assert FinFn.__match_args__ == ("cod", "images")
        match FinFn(2, (2, 1)):
            case FinFn(cod, images):
                assert (cod, images) == (2, (2, 1))

    def test_weak_references_work(self):
        f = FinFn(2, (2, 1))
        ref = weakref.ref(f)
        assert ref() is f
        registry = weakref.WeakValueDictionary({"f": f})
        assert registry["f"] is f

    def test_compares_with_no_other_type(self):
        f = FinFn(2, (2, 1))

        @dataclasses.dataclass(frozen=True)
        class Lookalike:
            cod: int
            images: tuple

        for other in ((2, (2, 1)), Lookalike(2, (2, 1)), 2, None):
            assert f.__eq__(other) is NotImplemented
            assert f != other and not f == other

    @given(st.lists(st.tuples(st.integers(1, 3), st.lists(st.integers(1, 1), max_size=2)), min_size=2, max_size=2))
    def test_equal_exactly_when_codomain_and_images_are(self, tables):
        (c, i), (d, j) = tables
        f, g = FinFn(c, i), FinFn(d, j)
        assert (f == g) is (not f != g) is ((c, tuple(i)) == (d, tuple(j)))

    def test_is_called_on_its_domain_only(self):
        f = FinFn(3, (3, 1))
        assert [f(i) for i in range(1, f.dom + 1)] == [3, 1]
        for i in (0, -1, f.dom + 1):
            with pytest.raises(IndexError, match=f"^index {i} outside the domain 1\\.\\.2$"):
                f(i)
        with pytest.raises(IndexError, match=r"^index 1 outside the domain 1\.\.0$"):
            FinFn(2, ())(1)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"], ids=repr)
    def test_an_index_that_is_no_int_is_refused(self, index):
        # True would read as 1 and False as 0, so a bool is refused as a float is.
        shown = re.escape(repr(index))
        with pytest.raises(TypeError, match=f"^index {shown} is not an int$"):
            FinFn(2, (2, 1))(index)
        with pytest.raises(TypeError, match=f"^block index {shown} is not an int$"):
            SKEL.block_reindex([2, 3], [index])
        with pytest.raises(TypeError, match=f"^block index {shown} is not an int$"):
            SKEL.block_reindex([2, 3], [1, index])

    def test_images_are_stored_as_a_tuple(self):
        f = FinFn(2, [2, 1])
        assert type(f.images) is tuple and f.images == (2, 1)
        assert type(FinFn(3, iter([1, 3])).images) is tuple

    def test_repr_eq_and_hash_are_those_of_the_fields(self):
        f = FinFn(2, (2, 1))
        assert repr(f) == "FinFn(2, (2, 1))"
        assert f == FinFn(2, (2, 1)) and f != FinFn(2, (1, 2)) and f != (2, (2, 1))
        assert hash(f) == hash((2, (2, 1)))

    @pytest.mark.parametrize(
        "cod, images, message",
        [
            (2, (3, "x"), "image 3 outside 1..2"),
            (2, (True, 5), "image True is not an int"),
            (2, (Size.TWO, 5), "image <Size.TWO: 2> is not an int"),
            (-1, ("x",), "codomain size -1 is not a nonnegative int"),
            (1.0, (5,), "codomain size 1.0 is not a nonnegative int"),
        ],
        ids=("out_of_range_first", "bool_first", "int_enum_first", "negative_cod", "float_cod"),
    )
    def test_the_first_fault_is_named_in_the_old_order(self, cod, images, message):
        # The codomain is checked first, then each image in turn: its type, then its range.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FinFn(cod, images)

    def test_images_that_do_not_iterate_fail_before_the_codomain_check(self):
        with pytest.raises(TypeError):
            FinFn(-1, 5)

    def test_truncation_validates_as_a_category(self):
        cat = SKEL.truncate(2)
        cat.validate()
        assert sorted(cat.objects()) == [0, 1, 2]
        assert len(cat.hom(2, 2)) == 4

    def test_truncation_at_three(self):
        cat = SKEL.truncate(3)
        assert len(cat.morphisms()) == sum(n**m for m in range(4) for n in range(4))

    def test_block_sum(self):
        f = FinFn(2, (2,))
        g = FinFn(1, (1, 1))
        assert SKEL.block_sum([f, g]) == FinFn(3, (2, 3, 3))
        assert SKEL.block_sum([]) == FinFn(0, ())

    def test_block_sum_strictness(self):
        # summing a split-in-two equals summing everything at once
        rng = random.Random(211)
        for _ in range(200):
            fns = [
                rng.choice(SKEL.hom(rng.randint(0, 3), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4))
            ]
            cut = rng.randint(0, len(fns))
            split = SKEL.block_sum([SKEL.block_sum(fns[:cut]), SKEL.block_sum(fns[cut:])])
            assert split == SKEL.block_sum(fns)

    def test_block_reindex_swap(self):
        # block of 1 then block of 2, swapped
        assert SKEL.block_reindex([2, 1], [1, 0]) == FinFn(3, (3, 1, 2))

    def test_block_reindex_identity(self):
        assert SKEL.block_reindex([2, 3], [0, 1]) == SKEL.identity(5)

    def test_block_reindex_composes_like_permutations(self):
        rng = random.Random(223)
        for _ in range(200):
            k = rng.randint(1, 4)
            sizes = [rng.randint(0, 3) for _ in range(k)]
            p1 = list(range(k))
            rng.shuffle(p1)
            p2 = list(range(k))
            rng.shuffle(p2)
            sizes_after_p1 = [0] * k
            for i, slot in enumerate(p1):
                sizes_after_p1[slot] = sizes[i]
            sizes_after_p2 = [0] * k
            for i, slot in enumerate(p2):
                sizes_after_p2[slot] = sizes_after_p1[i]
            combined = [p2[p1[i]] for i in range(k)]
            assert SKEL.compose(
                SKEL.block_reindex(sizes_after_p1, p1), SKEL.block_reindex(sizes_after_p2, p2)
            ) == SKEL.block_reindex(sizes_after_p2, combined)

    def test_block_reindex_composes_like_index_maps(self):
        rng = random.Random(227)
        for _ in range(200):
            sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
            b = [rng.randrange(len(sizes)) for _ in range(rng.randint(0, 4))]
            a = [rng.randrange(len(b)) for _ in range(rng.randint(0, 4))] if b else []
            first = SKEL.block_reindex([sizes[j] for j in b], a)
            assert SKEL.compose(first, SKEL.block_reindex(sizes, b)) == SKEL.block_reindex(
                sizes, [b[i] for i in a]
            )

    def test_block_sum_and_block_reindex_read_an_iterator_as_its_list(self):
        fns = [FinFn(2, (1, 2)), FinFn(1, (1, 1))]
        for each in (iter, lambda items: (item for item in items)):
            assert SKEL.block_sum(each(fns)) == SKEL.block_sum(fns) == FinFn(3, (1, 2, 3, 3))
            assert SKEL.block_reindex(each([2, 1]), each([1, 0])) == FinFn(3, (3, 1, 2))
            with pytest.raises(ValueError, match=r"outside 0\.\.1: \[1, 2, 0\]$"):
                SKEL.block_reindex([2, 1], each([1, 2, 0]))

    def test_block_reindex_merges_and_leaves_out_blocks(self):
        assert SKEL.block_reindex([2], [0, 0]) == FinFn(2, (1, 2, 1, 2))
        assert SKEL.block_reindex([1, 2, 1], [2, 2]) == FinFn(4, (4, 4))
        assert SKEL.block_reindex([3, 1], []) == FinFn(4, ())
        assert SKEL.block_reindex([], []) == SKEL.identity(0)


class TestDtryObj:
    def test_assign_is_the_path_map_and_mu_obj_is_flatten(self):
        rng = random.Random(197)
        for _ in range(100):
            d = random_shape(rng, max_leaves=4).map_values(lambda _: rng.randint(0, 3))
            x = DtryObj(SKEL, d)
            assert x.assign == d.path_map()
            assert list(x.assign) == sorted(d.path_map())
            dd = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
                lambda _: random_dtry_obj(rng, SKEL)
            )
            assert mu_obj(dd, cat=SKEL).objs == dd.map_values(lambda o: o.objs).flatten()

    def test_values_must_be_objects(self):
        with pytest.raises(ValueError):
            DtryObj.of(SKEL, {"a": -1})
        with pytest.raises(ValueError):
            DtryObj.of(SKEL, {"a": "2"})

    def test_path_family_is_lex_ordered(self):
        x = DtryObj.of(SKEL, {"b.z": 1, "a": 2, "b.a": 3})
        assert list(x.assign.items()) == [(Path("a"), 2), (Path("b.a"), 3), (Path("b.z"), 1)]

    def test_empty_object(self):
        x = DtryObj(SKEL, Dtry.empty())
        assert list(x.assign.items()) == []


def record_builds(monkeypatch):
    """A list that grows by one for each trie record built from now on."""
    built = []
    init = NonEmptyRecord.__init__

    def counting_init(self, entries):
        built.append(self)
        init(self, entries)

    monkeypatch.setattr(NonEmptyRecord, "__init__", counting_init)
    return built


KEY_NAMES = st.sampled_from(["a", "b", "b_1", "z", "0"])


@st.composite
def path_maps(draw):
    """A mapping of paths to sizes, keyed by dotted texts, tuples, ``Path``s and ``Name``s.

    Two keys may name one path, or one path and its prefix; a size of -1 is no object.
    """
    paths = draw(st.lists(st.lists(KEY_NAMES, max_size=3).map(tuple), max_size=8))
    out = {}
    for p in paths:
        form = draw(st.sampled_from([".".join, tuple, Path, lambda p: Name(p[0]) if p else ""]))
        out[form(p)] = draw(st.integers(-1, 3) if draw(st.booleans()) else st.integers(0, 3))
    return out


def outer_families():
    """Mappings of dotted outer paths to mappings that ``DtryObj.of`` accepts."""
    return st.dictionaries(
        st.lists(KEY_NAMES, max_size=2).map(".".join),
        path_maps().filter(lambda a: type(result_or_error(lambda: DtryObj.of(SKEL, a))) is DtryObj),
        max_size=4,
    )


def result_or_error(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:  # any error: the two routes must raise alike
        return type(exc), str(exc)


# Keys over three names, so that repeats and prefixes are dense. Most
# segments are names; the rest are what no clean key holds: an empty or
# dotted name, a bad character, a newline, an int, or a ``Name``.
route_names_st = st.sampled_from(["a", "b", "ab"])
route_segments_st = st.lists(
    st.one_of(
        route_names_st,
        route_names_st,
        route_names_st,
        st.sampled_from(["", "a.b", "b-", "a\nb", 5]),
        route_names_st.map(Name),
    ),
    max_size=3,
)
route_clean_segments_st = st.lists(route_names_st, max_size=3)
route_keys_st = {
    "str": route_segments_st.map(lambda segs: ".".join(map(str, segs))),
    "tuple": route_segments_st.map(tuple),
    "path": route_clean_segments_st.map(Path),
}
route_maps_st = st.one_of(
    *(st.dictionaries(keys, st.integers(0, 3), max_size=8) for keys in route_keys_st.values()),
    st.dictionaries(
        st.one_of(*route_keys_st.values(), route_names_st.map(Name)), st.integers(0, 3), max_size=8
    ),
)


def exact_family(assign):
    """A path family with the exact type of each key and of each of its names."""
    return [(type(p), tuple(map(type, p)), tuple(p), v) for p, v in assign.items()]


def route_outcome(build):
    try:
        return build()
    except Exception as exc:  # compared by type and text
        return (type(exc), str(exc))


class TestKeyRoutes:
    """``DtryObj.of`` and ``Dtry.from_path_map`` against their keys made texts one at a time.

    Sets of plain ``str`` keys, and of tuples of plain ``str`` names, take
    a route in C; in every other set each key is made a ``Path``. Each must
    give the same family (order, exact ``Path`` keys, exact ``str`` names,
    values) or the same exception type and text.
    """

    @settings(max_examples=400, deadline=None)
    @given(route_maps_st)
    @example({(): 1})
    @example({("",): 1})
    @example({("a.b",): 1})
    @example({(Name("a"), "b"): 1})
    @example({tuple.__new__(Path, (Name("a"), "b")): 1})
    @example({("a",): 1, ("a", "b"): 2})
    @example({("a", "b"): 1, "a.b": 2})
    @example([(["a", "b"], 1)])  # pairs, one keyed by a list
    # Key sets each key of which is made a Path: the first key that is no
    # path, in the mapping's order, is the one raised.
    @example({5: 1})
    @example({(1,): 1})
    @example({"a b": 1, (1,): 2})
    @example({(1,): 1, "a b": 2})
    @example({Name("a"): 1, ("a", "b"): 2})
    @example({(): 1, "a": 2})
    def test_of_and_from_path_map_match_the_loop_over_keys(self, entries):
        want = route_outcome(lambda: reference_obj_of(SKEL, entries))
        got = route_outcome(lambda: DtryObj.of(SKEL, entries))
        if isinstance(want, DtryObj):
            assert isinstance(got, DtryObj)
            assert exact_family(got.assign) == exact_family(want.assign)
        else:
            assert got == want
        want = route_outcome(lambda: reference_from_path_map_by_key(entries))
        got = route_outcome(lambda: Dtry.from_path_map(entries))
        if isinstance(want, Dtry):
            assert isinstance(got, Dtry) and got == want
            assert exact_family(got.path_map()) == exact_family(want.path_map())
        else:
            assert got == want


class TestLazyOf:
    """``DtryObj.of`` builds no trie: ``objs`` builds one from ``assign`` on each read."""

    def test_no_record_is_built_until_objs_is_read(self, monkeypatch):
        want = Dtry.from_path_map({"b.z": 1, "a": 2, "b.y": 2})
        built = record_builds(monkeypatch)
        x = DtryObj.of(SKEL, {"b.z": 1, "a": 2, "b.y": 2})
        y = DtryObj.of(SKEL, {"c": 2, "d.x": 2, "d.y": 1})
        f0 = dict(zip(x.assign, y.assign))
        iso = DtryMor(Variant.ISO, x, y, f0, {p: SKEL.identity(v) for p, v in x.assign.items()})
        back = {q: p for p, q in f0.items()}
        back = DtryMor(Variant.ISO, y, x, back, {q: SKEL.identity(v) for q, v in y.assign.items()})
        compose_mor(iso, back)
        algebra_eval_mor(ALG, iso)
        assert (x.paths(), repr(x), list(x.assign.items())) == (
            [Path("a"), Path("b.y"), Path("b.z")],
            "DtryObj({'a': 2, 'b.y': 2, 'b.z': 1})",
            [(Path("a"), 2), (Path("b.y"), 2), (Path("b.z"), 1)],
        )
        assert x == DtryObj.of(SKEL, {("a",): 2, "b.y": 2, Path("b.z"): 1}) and x != y
        assert built == []
        trie = x.objs
        assert len(built) == 2  # the root and b
        assert trie == want and len(built) == 2
        again = x.objs  # built again, kept nowhere
        assert again == trie and again is not trie and len(built) == 4

    def test_an_unread_result_holds_its_category_and_path_family_alone(self):
        for mapping in ({"b.z": 1, "a": 2}, {"": 3}, {}):
            x = DtryObj.of(SKEL, mapping)
            assert set(vars(x)) == {"cat", "assign"}
            x.objs
            assert set(vars(x)) == {"cat", "assign"}

    def test_objs_builds_one_trie(self, monkeypatch):
        calls = []
        build = fincat._from_sorted
        monkeypatch.setattr(fincat, "_from_sorted", lambda pairs: calls.append(1) or build(pairs))
        x = DtryObj.of(SKEL, {"a.b": 1, "a.c": 2})
        assert calls == []
        first, second = x.objs, x.objs
        assert first == second and first is not second
        assert calls == [1, 1]  # one trie per read

    @given(path_maps())
    @example({})
    @example({"": 2})
    @example({(): 2})
    @example({Path(): 2})
    @example({"": 2, "a": 1})
    @example({"a.b": 1, ("a", "b"): 2})
    @example({"a": -1, "a.b": 1})
    @example({Name("a"): 1, "b.z": 2, ("b", "y"): 0, Path("0"): 3})
    def test_of_is_the_constructor_on_the_path_map(self, mapping):
        got = result_or_error(lambda: DtryObj.of(SKEL, mapping))
        want = result_or_error(lambda: DtryObj(SKEL, Dtry.from_path_map(mapping)))
        if type(want) is tuple:
            assert got == want
            return
        assert got == want and want == got
        keys = [(k, type(k), [type(s) for s in k]) for k in got.assign]
        assert keys == [(k, type(k), [type(s) for s in k]) for k in want.assign]
        assert list(got.assign.items()) == list(want.assign.items())
        assert repr(got) == repr(want)
        assert got.objs == want.objs
        assert got == want

    @pytest.mark.parametrize(
        "mapping",
        [
            {"a..b": 1},
            {("a", "b-c"): 1},
            {"a": 1, 3: 2},
            {("a", "b.c"): 1},
            {"a": 1, "a.b": 2},
            {"a.b": 1, ("a", "b"): 2},
            {"": 1, "a": 2},
            {"a": 1, "b": -1},
            {"a": "2"},
        ],
        ids=[
            "bad_path", "bad_name", "no_key", "dotted_name", "prefix",
            "bound_twice", "root_and_more", "negative", "text",
        ],
    )
    def test_bad_input_raises_at_of_as_before(self, mapping):
        with pytest.raises(Exception) as got:
            DtryObj.of(SKEL, mapping)
        with pytest.raises(Exception) as want:
            DtryObj(SKEL, Dtry.from_path_map(mapping))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_an_unread_result(self, duplicate, monkeypatch):
        mapping = {"b.z": 1, "a": 2, "b.y": 0}
        x, trie = DtryObj.of(SKEL, mapping), Dtry.from_path_map(mapping)
        built = record_builds(monkeypatch)
        y = duplicate(x)
        assert built == [] and y == x and repr(y) == repr(x)
        assert y.objs == trie and len(built) == 2
        assert x.objs == y.objs and len(built) == 6

    def test_frozen_and_unhashable(self):
        x = DtryObj.of(SKEL, {"a": 1})
        for name, value in [("objs", Dtry.empty()), ("assign", {}), ("cat", TINY), ("other", 1)]:
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, value)
        with pytest.raises(FrozenInstanceError):
            del x.assign
        with pytest.raises(TypeError):
            hash(x)
        with pytest.raises(AttributeError, match="^'DtryObj' object has no attribute 'other'$"):
            x.other
        assert x.assign == {Path("a"): 1} and x.objs == Dtry.from_path_map({"a": 1})


class PlainMapping(Mapping):
    """A read-only mapping with only the methods ``Mapping`` requires."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


class TestDtryMorValidation:
    def test_general_requires_total_index_map(self):
        src = DtryObj.of(SKEL, {"a": 1, "b": 1})
        dst = DtryObj.of(SKEL, {"c": 1})
        with pytest.raises(ValueError):
            DtryMor(Variant.GENERAL, src, dst, {Path("a"): Path("c")}, {Path("a"): SKEL.identity(1)})

    def test_component_typing_enforced(self):
        src = DtryObj.of(SKEL, {"a": 2})
        dst = DtryObj.of(SKEL, {"c": 3})
        with pytest.raises(ValueError):
            DtryMor(
                Variant.GENERAL,
                src,
                dst,
                {Path("a"): Path("c")},
                {Path("a"): SKEL.identity(2)},  # cod 2, but dst assigns 3
            )

    def test_iso_requires_bijection(self):
        src = DtryObj.of(SKEL, {"a": 1, "b": 1})
        dst = DtryObj.of(SKEL, {"c": 1, "d": 1})
        collapsing = {Path("a"): Path("c"), Path("b"): Path("c")}
        components = {
            Path("a"): SKEL.identity(1),
            Path("b"): SKEL.identity(1),
        }
        with pytest.raises(ValueError):
            DtryMor(Variant.ISO, src, dst, collapsing, components)
        # the same data is a fine GENERAL morphism
        DtryMor(Variant.GENERAL, src, dst, collapsing, components)

    def test_product_is_indexed_by_the_destination(self):
        src = DtryObj.of(SKEL, {"a": 2, "b": 3})
        dst = DtryObj.of(SKEL, {"c": 2})
        m = DtryMor(
            Variant.PRODUCT, src, dst, {Path("c"): Path("a")}, {Path("c"): SKEL.identity(2)}
        )
        assert m.f0[Path("c")] == Path("a")
        with pytest.raises(ValueError):
            DtryMor(Variant.PRODUCT, src, dst, {Path("a"): Path("c")}, {Path("a"): SKEL.identity(2)})

    @pytest.mark.parametrize(
        "cat, objs, key, target, component",
        [
            pytest.param(TINY, ("x", "y"), ("a", "b"), ("c",), "nope", id="fincat_non_morphism"),
            pytest.param(SKEL, (1, 1), ("a", "b"), ("c",), "nope", id="skeleton_non_morphism"),
            pytest.param(SKEL, (1, 1), "a.b", ("c",), FinFn(1, (1,)), id="dotted_key"),
            pytest.param(SKEL, (1, 1), ("a", "b"), "c", FinFn(1, (1,)), id="dotted_target"),
            pytest.param(SKEL, (1, 1), ("z",), ("c",), FinFn(1, (1,)), id="key_off_the_index"),
        ],
    )
    def test_bad_entry_is_a_value_error_naming_its_path(self, cat, objs, key, target, component):
        src, dst = DtryObj.of(cat, {"a.b": objs[0]}), DtryObj.of(cat, {"c": objs[1]})
        with pytest.raises(ValueError, match=re.escape(repr(Path("a.b")))):
            DtryMor(Variant.GENERAL, src, dst, {key: target}, {key: component})

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("wrap", [MappingProxyType, PlainMapping], ids=("proxy", "plain"))
    def test_any_mapping_serves_as_index_map_and_components(self, variant, wrap):
        rng = random.Random(223)
        for _ in range(30):
            m = random_mor_from(rng, random_dtry_obj(rng, SKEL), variant)
            again = DtryMor(variant, m.src, m.dst, wrap(m.f0), wrap(m.f1))
            assert again == m and type(again.f0) is dict and type(again.f1) is dict
            assert list(again.f0.items()) == list(m.f0.items())

    @pytest.mark.parametrize("wrap", [MappingProxyType, PlainMapping], ids=("proxy", "plain"))
    def test_a_mapping_that_lacks_a_path_fails_as_a_dict_does(self, wrap):
        src, dst = DtryObj.of(SKEL, {"a": 1, "b": 1}), DtryObj.of(SKEL, {"c": 1})
        a, b, c = Path("a"), Path("b"), Path("c")
        f1 = {a: SKEL.identity(1), b: SKEL.identity(1)}
        cases = [({a: c, Path("z"): c}, f1), ({a: c, b: c}, {a: f1[a], Path("z"): f1[b]})]
        for f0, components in cases:
            with pytest.raises(ValueError) as want:
                DtryMor(Variant.GENERAL, src, dst, f0, components)
            with pytest.raises(ValueError) as got:
                DtryMor(Variant.GENERAL, src, dst, wrap(f0), wrap(components))
            assert str(got.value) == str(want.value)
            assert str(want.value) == "index map and components must be total: nothing at Path('b')"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_storage_is_in_index_order_and_targets_are_the_other_sides_paths(self, variant):
        rng = random.Random(211)
        for _ in range(50):
            m = random_mor_from(rng, random_dtry_obj(rng, SKEL), variant)
            index, target = (m.dst, m.src) if variant is Variant.PRODUCT else (m.src, m.dst)
            f0 = {tuple(p): tuple(q) for p, q in reversed(m.f0.items())}
            f1 = {tuple(p): c for p, c in reversed(m.f1.items())}
            again = DtryMor(variant, m.src, m.dst, f0, f1)
            assert again == m
            assert list(again.f0) == list(again.f1) == list(index.assign)
            own = {id(q) for q in target.assign}
            assert all(id(q) in own for q in again.f0.values())


class TestCategoryLaws:
    def test_identity_and_associativity_random_triples(self):
        rng = random.Random(227)
        for variant in VARIANTS:
            for _ in range(120):
                w = random_dtry_obj(rng, SKEL)
                f = random_mor_from(rng, w, variant)
                g = random_mor_from(rng, f.dst, variant)
                h = random_mor_from(rng, g.dst, variant)
                assert compose_mor(compose_mor(f, g), h) == compose_mor(f, compose_mor(g, h))
                assert compose_mor(identity_mor(w, variant), f) == f
                assert compose_mor(f, identity_mor(f.dst, variant)) == f

    def test_variants_do_not_mix(self):
        rng = random.Random(229)
        w = random_dtry_obj(rng, SKEL)
        f = random_mor_from(rng, w, Variant.GENERAL)
        g = random_mor_from(rng, f.dst, Variant.PRODUCT)
        with pytest.raises(NotComposableError):
            compose_mor(f, g)

    def test_endpoints_must_meet(self):
        rng = random.Random(233)
        w = random_dtry_obj(rng, SKEL)
        f = random_mor_from(rng, w, Variant.GENERAL)
        other = DtryObj.of(SKEL, {"zzz": 1})
        g = random_mor_from(rng, other, Variant.GENERAL)
        if f.dst != g.src:
            with pytest.raises(NotComposableError):
                compose_mor(f, g)

    def test_swap_composed_with_itself_is_the_identity(self):
        src = DtryObj.of(SKEL, {"a": 2, "b": 2})
        swap = DtryMor(
            Variant.ISO,
            src,
            src,
            {Path("a"): Path("b"), Path("b"): Path("a")},
            {Path("a"): SKEL.identity(2), Path("b"): SKEL.identity(2)},
        )
        assert compose_mor(swap, swap) == identity_mor(src, Variant.ISO)


class TestFlattening:
    def test_worked_example(self):
        dd = Dtry.from_path_map(
            {
                "s1": DtryObj.of(SKEL, {"a": 2, "b": 3}),
                "s2": DtryObj.of(SKEL, {"c": 1}),
            }
        )
        flat = mu_obj(dd)
        assert flat.assign == {Path("s1.a"): 2, Path("s1.b"): 3, Path("s2.c"): 1}

    def test_inner_empties_vanish(self):
        dd = Dtry.from_path_map(
            {"s1": DtryObj(SKEL, Dtry.empty()), "s2": DtryObj.of(SKEL, {"a": 2})}
        )
        assert mu_obj(dd).assign == {Path("s2.a"): 2}

    def test_category_is_inferred_from_a_nested_outer_directory(self):
        cat = FinCat.from_json(tiny_cat_json())
        dd = Dtry.from_path_map(
            {
                "s.t": DtryObj.of(cat, {"a": "y"}),
                "s.u.v": DtryObj.of(cat, {"b": "x", "c.d": "y"}),
                "w": DtryObj(cat, Dtry.empty()),
            }
        )
        flat = mu_obj(dd)
        assert flat.cat is cat
        assert flat == mu_obj(dd, cat=cat)
        assert flat.assign == {Path("s.t.a"): "y", Path("s.u.v.b"): "x", Path("s.u.v.c.d"): "y"}

    def test_empty_outer_needs_an_explicit_category(self):
        with pytest.raises(ValueError):
            mu_obj(Dtry.empty())
        assert mu_obj(Dtry.empty(), cat=SKEL).assign == {}

    def test_mu_obj_square(self):
        # flatten outer-first and inner-first agree on doubly nested directories
        rng = random.Random(239)
        for _ in range(100):
            dd2 = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
                lambda _: random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
                    lambda _: random_dtry_obj(rng, SKEL)
                )
            )
            inner_first = mu_obj(dd2.map_values(lambda dd: mu_obj(dd, cat=SKEL)), cat=SKEL)
            outer_first = mu_obj(dd2.flatten(), cat=SKEL)
            assert inner_first == outer_first

    def test_mu_obj_unit(self):
        rng = random.Random(241)
        for _ in range(50):
            x = random_dtry_obj(rng, SKEL)
            assert mu_obj(Dtry.leaf(x)) == x

    def test_mu_mor_of_identities(self):
        rng = random.Random(251)
        for variant in VARIANTS:
            for _ in range(30):
                dd = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
                    lambda _: random_dtry_obj(rng, SKEL)
                )
                dm = dd.map_values(lambda o: identity_mor(o, variant))
                if dd.is_empty:
                    continue
                assert mu_mor(dm) == identity_mor(mu_obj(dd), variant)

    def test_mu_mor_preserves_composition(self):
        rng = random.Random(257)
        for variant in VARIANTS:
            for _ in range(40):
                outer = random_dtry(rng, depth=2, branching=2, values=(None,), empty_prob=0.0)
                firsts = outer.map_values(
                    lambda _: random_mor_from(rng, random_dtry_obj(rng, SKEL), variant)
                )
                seconds = firsts.map_values(lambda m: random_mor_from(rng, m.dst, variant))
                pointwise = Dtry.from_path_map(
                    {
                        p: compose_mor(firsts.path_map()[p], seconds.path_map()[p])
                        for p in outer.paths()
                    }
                )
                assert mu_mor(pointwise) == compose_mor(mu_mor(firsts), mu_mor(seconds))

    def test_mu_obj_and_mu_mor_build_no_inner_trie(self, monkeypatch):
        objs = {p: DtryObj.of(SKEL, {"x.y": 1, "z": 2}) for p in ("s.a", "s.b", "t")}
        dd = Dtry.from_path_map(objs)
        isos = {p: identity_mor(x, Variant.ISO) for p, x in objs.items()}
        dm = Dtry.from_path_map(isos)
        built = record_builds(monkeypatch)
        flat = mu_obj(dd)
        assert built == [] and set(vars(flat)) == {"cat", "assign"}
        m = mu_mor(dm)
        assert built == []
        assert set(vars(m.src)) == set(vars(m.dst)) == {"cat", "assign"}
        assert m.src == m.dst == flat

    @given(outer_families())
    @example({"a": {"": 2}, "b": {}, "c.d": {"x": 1, "y.z": 0}})
    @example({"a": {}})
    @example({"a": {"": 1}, "b": {"": 3}})
    def test_mu_obj_over_results_of_of_is_flatten(self, outer):
        try:
            dd = Dtry.from_path_map({p: DtryObj.of(SKEL, a) for p, a in outer.items()})
        except PrefixConflictError:
            return
        flat = mu_obj(dd, cat=SKEL)
        assert flat.objs == dd.map_values(lambda o: o.objs).flatten()
        assert list(flat.assign.items()) == list(flat.objs.path_map().items())
        assert flat == DtryObj(SKEL, flat.objs)

    @given(outer_families(), st.sampled_from(VARIANTS), st.randoms(use_true_random=False))
    @example({"a": {"": 2}, "b": {}, "c.d": {"x": 1, "y.z": 0}}, Variant.PRODUCT, random.Random(0))
    @example({}, Variant.ISO, random.Random(0))
    def test_mu_mor_flattens_each_side_as_mu_obj_does(self, outer, variant, rng):
        try:
            dm = Dtry.from_path_map(
                {p: random_mor_from(rng, DtryObj.of(SKEL, a), variant) for p, a in outer.items()}
            )
        except PrefixConflictError:
            return
        m = mu_mor(dm, cat=SKEL, variant=variant)
        # the reference: each side's outer directory, flattened by mu_obj
        assert m.src == mu_obj(dm.map_values(lambda m: m.src), cat=SKEL)
        assert m.dst == mu_obj(dm.map_values(lambda m: m.dst), cat=SKEL)
        assert m.variant is variant

    def test_mu_obj_rejects_mixed_categories(self):
        # two categories with the same object names, so each accepts the other's objects
        other = FinCat.from_json(tiny_cat_json())
        dd = Dtry.from_path_map({"a": DtryObj.of(TINY, {"k": "x"}), "b": DtryObj.of(other, {"k": "y"})})
        with pytest.raises(NotComposableError, match="mixed categories"):
            mu_obj(dd)
        with pytest.raises(NotComposableError, match="mixed categories"):
            mu_obj(Dtry.leaf(DtryObj.of(other, {"k": "y"})), cat=TINY)
        assert mu_obj(dd.filter(lambda x: x.cat is other)).cat is other

    def test_mu_mor_rejects_mixed_variants(self):
        x = DtryObj.of(SKEL, {"a": 1})
        dm = Dtry.from_path_map(
            {
                "p": identity_mor(x, Variant.GENERAL),
                "q": identity_mor(x, Variant.PRODUCT),
            }
        )
        with pytest.raises(NotComposableError):
            mu_mor(dm)

    def test_mixed_variants_read_alike_under_every_hash_seed(self):
        # A set of Variants iterates in an order that PYTHONHASHSEED sets (for this
        # set on CPython 3.11: PRODUCT first under 0 and 4, GENERAL under 1).
        script = (
            "from dtry import Dtry, DtryObj, FinSetSkeleton, NotComposableError, Variant\n"
            "from dtry import identity_mor, mu_mor\n"
            "x = DtryObj.of(FinSetSkeleton(), {'a': 1})\n"
            "dm = Dtry.from_path_map({'p': identity_mor(x), 'q': identity_mor(x, Variant.PRODUCT)})\n"
            "try:\n    mu_mor(dm)\nexcept NotComposableError as exc:\n    print(exc)\n"
        )
        texts = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1", "4")
        ]
        assert texts == ["mixed variants in one directory: general, product\n"] * 3


class TestShapes:
    def test_exact_leaf_counts(self):
        for n in range(17):
            shape = shape_with_n_leaves(n)
            assert len(shape.paths()) == n

    def test_deterministic(self):
        assert shape_with_n_leaves(5) == shape_with_n_leaves(5)

    def test_every_family_is_realized(self):
        # essential surjectivity: any list of objects appears as a path family
        rng = random.Random(263)
        for _ in range(100):
            sizes = [rng.randint(0, 4) for _ in range(rng.randint(0, 10))]
            shape = shape_with_n_leaves(len(sizes))
            obj = DtryObj.of(SKEL, dict(zip(shape.paths(), sizes)))
            assert list(obj.assign.values()) == sizes


class TestAlgebraEvaluation:
    def test_object_evaluation_sums_sizes(self):
        assert algebra_eval_obj(ALG, DtryObj.of(SKEL, {"a": 2, "b": 3})) == 5
        assert algebra_eval_obj(ALG, DtryObj(SKEL, Dtry.empty())) == 0

    def test_unit_law_on_leaf_objects(self):
        for n in range(5):
            leaf_obj = DtryObj(SKEL, Dtry.leaf(n))
            assert algebra_eval_obj(ALG, leaf_obj) == n

    def test_two_leaf_swap_is_the_block_swap(self):
        src = DtryObj.of(SKEL, {"a": 1, "b": 2})
        dst = DtryObj.of(SKEL, {"a": 2, "b": 1})
        swap = DtryMor(
            Variant.ISO,
            src,
            dst,
            {Path("a"): Path("b"), Path("b"): Path("a")},
            {Path("a"): SKEL.identity(1), Path("b"): SKEL.identity(2)},
        )
        assert algebra_eval_mor(ALG, swap) == FinFn(3, (3, 1, 2))
        assert algebra_eval_mor(ALG, swap) == SKEL.block_reindex([2, 1], [1, 0])

    def test_leaf_morphism_evaluates_to_its_component(self):
        f = FinFn(3, (2, 2))
        m = DtryMor(
            Variant.ISO,
            DtryObj(SKEL, Dtry.leaf(2)),
            DtryObj(SKEL, Dtry.leaf(3)),
            {Path(): Path()},
            {Path(): f},
        )
        assert algebra_eval_mor(ALG, m) == f

    def test_empty_morphism_evaluates_to_the_unit_identity(self):
        empty = DtryObj(SKEL, Dtry.empty())
        m = DtryMor(Variant.ISO, empty, empty, {}, {})
        assert algebra_eval_mor(ALG, m) == SKEL.identity(0)

    def test_evaluation_is_functorial(self):
        rng = random.Random(269)
        for variant, _ in cartesian((Variant.ISO, Variant.GENERAL), range(150)):
            w = random_dtry_obj(rng, SKEL)
            f = random_mor_from(rng, w, variant)
            g = random_mor_from(rng, f.dst, variant)
            left = algebra_eval_mor(ALG, compose_mor(f, g))
            right = SKEL.compose(algebra_eval_mor(ALG, f), algebra_eval_mor(ALG, g))
            assert left == right
            assert algebra_eval_mor(ALG, identity_mor(w, variant)) == SKEL.identity(
                algebra_eval_obj(ALG, w)
            )

    def test_square_on_objects(self):
        rng = random.Random(271)
        for _ in range(100):
            dd = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
                lambda _: random_dtry_obj(rng, SKEL)
            )
            evaluated_inner = DtryObj(SKEL, dd.map_values(lambda o: algebra_eval_obj(ALG, o)))
            assert algebra_eval_obj(ALG, evaluated_inner) == algebra_eval_obj(
                ALG, mu_obj(dd, cat=SKEL)
            )

    def test_square_on_morphisms(self):
        rng = random.Random(277)
        for variant, _ in cartesian((Variant.ISO, Variant.GENERAL), range(100)):
            outer = random_dtry(rng, depth=2, branching=2, values=(None,), empty_prob=0.1)
            dm = outer.map_values(
                lambda _: random_mor_from(rng, random_dtry_obj(rng, SKEL), variant)
            )
            inner_mors = dm.path_map()
            ta_src = DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.src)))
            ta_dst = DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.dst)))
            ta_mor = DtryMor(
                variant,
                ta_src,
                ta_dst,
                {p: p for p in inner_mors},
                {p: algebra_eval_mor(ALG, m) for p, m in inner_mors.items()},
            )
            flattened = mu_mor(dm, cat=SKEL, variant=variant)
            assert algebra_eval_mor(ALG, ta_mor) == algebra_eval_mor(ALG, flattened)

    def test_an_iso_evaluates_as_the_general_morphism_with_its_data(self):
        rng = random.Random(283)
        for _ in range(150):
            m = random_mor_from(rng, random_dtry_obj(rng, SKEL, sizes=(0, 1, 2, 3)), Variant.ISO)
            general = DtryMor(Variant.GENERAL, m.src, m.dst, m.f0, m.f1)
            assert algebra_eval_mor(ALG, m) == algebra_eval_mor(ALG, general)

    def test_an_empty_source_evaluates_to_the_empty_function(self):
        empty, dst = DtryObj.of(SKEL, {}), DtryObj.of(SKEL, {"a": 2, "b.c": 3})
        assert algebra_eval_mor(ALG, DtryMor(Variant.GENERAL, empty, dst, {}, {})) == FinFn(5, ())

    def test_a_merge_evaluates_to_the_codiagonal(self):
        src, dst = DtryObj.of(SKEL, {"a": 2, "b": 2}), DtryObj.of(SKEL, {"c": 1, "d": 2})
        d = Path("d")
        f1 = {Path("a"): SKEL.identity(2), Path("b"): FinFn(2, (2, 2))}
        m = DtryMor(Variant.GENERAL, src, dst, {Path("a"): d, Path("b"): d}, f1)
        assert algebra_eval_mor(ALG, m) == FinFn(3, (2, 3, 3, 3))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_general_and_iso_match_the_element_level_oracle(self, data):
        m = data.draw(coproduct_mors(data.draw(st.sampled_from([Variant.GENERAL, Variant.ISO]))))
        assert algebra_eval_mor(ALG, m) == element_level_eval(m)


# Prefix-free, so any subset is a clean path set; "b.x" sorts before "b_1".
CLEAN_PATHS = [Path(t) for t in ("b_1", "a", "b.x", "b.y", "c.d.e", "z")]


@st.composite
def coproduct_mors(draw, variant):
    """A GENERAL or ISO morphism of the skeleton, with blocks of 0 to 3 elements."""
    src_paths = draw(st.lists(st.sampled_from(CLEAN_PATHS), unique=True, max_size=5))
    if variant is Variant.ISO:
        f0 = dict(zip(src_paths, draw(st.permutations(CLEAN_PATHS))))
        dst_paths = list(f0.values())
    else:
        least = 1 if src_paths else 0
        dst_paths = draw(st.lists(st.sampled_from(CLEAN_PATHS), unique=True, min_size=least))
        f0 = {p: draw(st.sampled_from(dst_paths)) for p in src_paths}
    dst = {q: draw(st.integers(0, 3)) for q in dst_paths}
    src = {p: draw(st.integers(0, 3)) if dst[f0[p]] else 0 for p in src_paths}
    f1 = {}
    for p, n in src.items():
        f1[p] = FinFn(dst[f0[p]], [draw(st.integers(1, dst[f0[p]])) for _ in range(n)])
    return DtryMor(variant, DtryObj.of(SKEL, src), DtryObj.of(SKEL, dst), f0, f1)


def element_level_eval(m):
    """``m`` evaluated element by element in the coproduct algebra.

    Blocks are laid out in path order, and element ``i`` of source block
    ``p`` goes to element ``f1[p](i)`` of destination block ``f0[p]``.
    """
    offset, at = {}, 0
    for q in sorted(m.dst.assign):
        offset[q], at = at, at + m.dst.assign[q]
    images = []
    for p in sorted(m.src.assign):
        images += [offset[m.f0[p]] + m.f1[p](i) for i in range(1, m.src.assign[p] + 1)]
    return FinFn(at, tuple(images))


class TestFullFaithfulness:
    @staticmethod
    def family_morphism_count(src, dst):
        # sum over index maps of the product of hom sizes, straight arithmetic
        src_paths, dst_paths = src.paths(), dst.paths()
        total = 0
        for images in cartesian(dst_paths, repeat=len(src_paths)):
            prod = 1
            for p, q in zip(src_paths, images):
                prod *= len(SKEL.hom(src.assign[p], dst.assign[q]))
            total += prod
        return total

    @staticmethod
    def enumerate_general_mors(src, dst):
        src_paths, dst_paths = src.paths(), dst.paths()
        count = 0
        for images in cartesian(dst_paths, repeat=len(src_paths)):
            f0 = dict(zip(src_paths, images))
            hom_lists = [SKEL.hom(src.assign[p], dst.assign[f0[p]]) for p in src_paths]
            for combo in cartesian(*hom_lists):
                DtryMor(Variant.GENERAL, src, dst, f0, dict(zip(src_paths, combo)))
                count += 1
        return count

    def test_counts_agree_on_a_sample(self):
        rng = random.Random(281)
        for _ in range(20):
            src = random_dtry_obj(rng, SKEL, max_leaves=2, sizes=(0, 1, 2))
            dst = random_dtry_obj(rng, SKEL, max_leaves=2, sizes=(0, 1, 2))
            assert self.enumerate_general_mors(src, dst) == self.family_morphism_count(src, dst)

    def test_empty_source_has_exactly_one_morphism_anywhere(self):
        empty = DtryObj(SKEL, Dtry.empty())
        dst = DtryObj.of(SKEL, {"a": 2})
        assert self.enumerate_general_mors(empty, dst) == 1

    def test_empty_destination_admits_none_from_nonempty(self):
        src = DtryObj.of(SKEL, {"a": 2})
        empty = DtryObj(SKEL, Dtry.empty())
        assert self.enumerate_general_mors(src, empty) == 0



def two_category_mors():
    """Identities on empty objects of two categories, under the names ``a`` and ``b``."""
    mors = {"a": DtryObj.of(TINY, {}), "b": DtryObj.of(SKEL, {})}
    return Dtry.from_path_map({name: identity_mor(x) for name, x in mors.items()})


def three_cycle():
    """A PRODUCT morphism reading ``o.a`` from ``o.b``, ``o.b`` from ``o.c`` and ``o.c`` from ``o.a``."""
    x = DtryObj.of(SKEL, {"o.a": 1, "o.b": 1, "o.c": 1})
    a, b, c = x.assign
    return DtryMor(Variant.PRODUCT, x, x, {a: b, b: c, c: a}, {p: SKEL.identity(1) for p in x.assign})


def merging_mor(variant=Variant.GENERAL):
    """A morphism sending ``a`` and ``b`` both to ``c``."""
    src, dst, c = DtryObj.of(SKEL, {"a": 1, "b": 1}), DtryObj.of(SKEL, {"c": 1}), Path("c")
    f1 = {p: SKEL.identity(1) for p in src.assign}
    return DtryMor(variant, src, dst, {Path("a"): c, Path("b"): c}, f1)


def mor_sending_a_to(target):
    """A GENERAL morphism from ``{a: 1}`` to ``{c: 1}`` with ``f0[a] = target``."""
    src, dst = DtryObj.of(SKEL, {"a": 1}), DtryObj.of(SKEL, {"c": 1})
    return DtryMor(Variant.GENERAL, src, dst, {Path("a"): target}, {Path("a"): SKEL.identity(1)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: filter_nothings(NonEmptyRecord({"a": 1})), TypeError, "not Just"),
        (lambda: distrib(Leaf(1)), TypeError, "not Just"),
        (lambda: Dtry(root=5), TypeError, "root must be"),
        (lambda: Dtry.from_path_map({"a": 1}).value, ValueError, "does not bind"),
        (lambda: Dtry.from_path_map({"a": 1}).flatten(), TypeError, "be a directory"),
        (lambda: SKEL.block_reindex([1, 2], [0, -1]), ValueError, "outside 0..1"),
        (lambda: SKEL.block_reindex([1, 2], [2, 0]), ValueError, "outside 0..1"),
        (
            lambda: DtryMor(Variant.GENERAL, DtryObj.of(TINY, {}), DtryObj.of(SKEL, {}), {}, {}),
            ValueError,
            "different categories",
        ),
        (lambda: mu_mor(two_category_mors()), NotComposableError, "mixed categories"),
        (
            lambda: mu_mor(Dtry.leaf(three_cycle()), variant=Variant.GENERAL),
            NotComposableError,
            "^mixed variants in one directory",
        ),
        (
            lambda: mu_mor(Dtry.from_path_map({"m": merging_mor()}), variant=Variant.PRODUCT),
            NotComposableError,
            "^mixed variants in one directory",
        ),
        (
            lambda: mu_obj(Dtry.from_path_map({"a": DtryObj.of(SKEL, {}), "b.c": 1})),
            TypeError,
            r"^mu_obj needs every value to be a DtryObj, got 1 at Path\('b\.c'\)$",
        ),
        (
            lambda: mu_mor(Dtry.from_path_map({"a": DtryObj.of(SKEL, {})})),
            TypeError,
            r"^mu_mor needs every value to be a DtryMor, got DtryObj\(\{\}\) at Path\('a'\)$",
        ),
        (
            lambda: DtryObj.of(SKEL, {"a": Size.TWO}),
            ValueError,
            r"^<Size\.TWO: 2> assigned at Path\('a'\) is not an object of the category$",
        ),
        (lambda: shape_with_n_leaves(-1), ValueError, "nonnegative"),
        (lambda: shape_with_n_leaves(2.5), TypeError, "^leaf count 2.5 is not an int$"),
        (lambda: shape_with_n_leaves(True), TypeError, "^leaf count True is not an int$"),
        (lambda: algebra_eval_mor(ALG, three_cycle()), ValueError, "PRODUCT morphism"),
        (lambda: merging_mor("iso"), TypeError, "^variant 'iso' is not a Variant$"),
        (lambda: merging_mor(None), TypeError, "^variant None is not a Variant$"),
        (lambda: merging_mor(3), TypeError, "^variant 3 is not a Variant$"),
        (
            lambda: identity_mor(DtryObj.of(SKEL, {"a": 1}), "iso"),
            TypeError,
            "^variant 'iso' is not a Variant$",
        ),
        (
            lambda: mu_mor(Dtry.leaf(merging_mor()), variant="iso"),
            TypeError,
            "^variant 'iso' is not a Variant$",
        ),
        (
            lambda: mu_mor(Dtry.empty(), cat=SKEL, variant="iso"),
            TypeError,
            "^variant 'iso' is not a Variant$",
        ),
        (lambda: SKEL.truncate(True), TypeError, "^max size True is not an int$"),
        (lambda: SKEL.truncate(2.0), TypeError, "^max size 2.0 is not an int$"),
        (lambda: SKEL.truncate(-1), ValueError, "^max size must be nonnegative$"),
        (
            lambda: DtryObj.of(TINY, {"a": [1]}),
            ValueError,
            r"^\[1\] assigned at Path\('a'\) is not an object of the category$",
        ),
        (lambda: TINY.compose([1], "f"), NotComposableError, r"^no composite for \(\[1\], 'f'\)$"),
        (
            lambda: mor_sending_a_to(["c"]),
            ValueError,
            r"^index map sends Path\('a'\) outside the other side: \['c'\]$",
        ),
    ],
    ids=[
        "filter_nothings_of_a_bare_value",
        "distrib_of_a_bare_value",
        "root_that_is_no_tree",
        "value_of_a_node",
        "flatten_of_a_value_that_is_no_directory",
        "block_reindex_outside_the_blocks",
        "block_reindex_past_the_blocks",
        "mor_between_two_categories",
        "mu_mor_over_two_categories",
        "mu_mor_of_a_product_told_general",
        "mu_mor_of_a_general_told_product",
        "mu_obj_over_a_value_that_is_no_object",
        "mu_mor_over_a_value_that_is_no_morphism",
        "object_that_is_an_int_enum_member",
        "negative_leaf_count",
        "leaf_count_that_is_a_float",
        "leaf_count_that_is_a_bool",
        "algebra_eval_of_a_product_mor",
        "mor_whose_variant_is_a_string",
        "mor_whose_variant_is_none",
        "mor_whose_variant_is_an_int",
        "identity_mor_whose_variant_is_a_string",
        "mu_mor_told_a_string_variant",
        "mu_mor_of_nothing_told_a_string_variant",
        "truncate_to_a_bool",
        "truncate_to_a_float",
        "truncate_to_a_negative_size",
        "object_that_is_unhashable_in_a_table_category",
        "table_compose_of_an_unhashable_id",
        "index_map_to_an_unhashable_target",
    ],
)
def test_documented_input_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
