"""Finite categories, directory-indexed objects and morphisms, tensor evaluation."""

import json
import random
import re
from collections import Counter
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtry.core import Dtry, Leaf, NonEmptyRecord, distrib, filter_nothings
from dtry.errors import NotACategoryError, NotComposableError
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
    path_family,
    shape_with_n_leaves,
)
from dtry.paths import Path

from helpers import oracle_fincat, random_dtry, random_dtry_obj, random_mor_from, random_shape

SKEL = FinSetSkeleton()
ALG = finset_coproduct_algebra(SKEL)
VARIANTS = (Variant.GENERAL, Variant.ISO, Variant.PRODUCT)


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


def truncate_by_ids(k):
    """``truncate(k)`` as the tables of ``FinFn`` ids, checked and interned by ``FinCat``."""
    sizes = range(k + 1)
    fns = [f for m in sizes for n in sizes for f in SKEL.hom(m, n)]
    morphisms = {f: (f.dom, f.cod) for f in fns}
    identity = {n: SKEL.identity(n) for n in sizes}
    compose = {(f, g): SKEL.compose(f, g) for f in fns for g in fns if f.cod == g.dom}
    return FinCat(sizes, morphisms, identity, compose)


class TestTruncateTables:
    @pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
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

    def test_compose_requires_matching_middle(self):
        with pytest.raises(NotComposableError):
            SKEL.compose(FinFn(2, (1,)), FinFn(3, (1, 1, 1)))

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

    def test_block_perm_swap(self):
        # block of 1 then block of 2, swapped
        assert SKEL.block_perm([1, 2], [1, 0]) == FinFn(3, (3, 1, 2))

    def test_block_perm_identity(self):
        assert SKEL.block_perm([2, 3], [0, 1]) == SKEL.identity(5)

    def test_block_perm_composes_like_permutations(self):
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
            combined = [p2[p1[i]] for i in range(k)]
            assert SKEL.compose(
                SKEL.block_perm(sizes, p1), SKEL.block_perm(sizes_after_p1, p2)
            ) == SKEL.block_perm(sizes, combined)


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
        assert path_family(x) == [(Path("a"), 2), (Path("b.a"), 3), (Path("b.z"), 1)]

    def test_empty_object(self):
        x = DtryObj(SKEL, Dtry.empty())
        assert path_family(x) == []


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
            assert [v for _, v in path_family(obj)] == sizes


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
        assert algebra_eval_mor(ALG, swap) == SKEL.block_perm([1, 2], [1, 0])

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
        for _ in range(150):
            w = random_dtry_obj(rng, SKEL)
            f = random_mor_from(rng, w, Variant.ISO)
            g = random_mor_from(rng, f.dst, Variant.ISO)
            left = algebra_eval_mor(ALG, compose_mor(f, g))
            right = SKEL.compose(algebra_eval_mor(ALG, f), algebra_eval_mor(ALG, g))
            assert left == right
            assert algebra_eval_mor(ALG, identity_mor(w, Variant.ISO)) == SKEL.identity(
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
        for _ in range(100):
            outer = random_dtry(rng, depth=2, branching=2, values=(None,), empty_prob=0.1)
            dm = outer.map_values(
                lambda _: random_mor_from(rng, random_dtry_obj(rng, SKEL), Variant.ISO)
            )
            inner_mors = dm.path_map()
            ta_src = DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.src)))
            ta_dst = DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.dst)))
            ta_mor = DtryMor(
                Variant.ISO,
                ta_src,
                ta_dst,
                {p: p for p in inner_mors},
                {p: algebra_eval_mor(ALG, m) for p, m in inner_mors.items()},
            )
            flattened = mu_mor(dm, cat=SKEL, variant=Variant.ISO)
            assert algebra_eval_mor(ALG, ta_mor) == algebra_eval_mor(ALG, flattened)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: filter_nothings(NonEmptyRecord({"a": 1})), TypeError, "not Just"),
        (lambda: distrib(Leaf(1)), TypeError, "not Just"),
        (lambda: Dtry(root=5), TypeError, "root must be"),
        (lambda: Dtry.from_path_map({"a": 1}).value, ValueError, "does not bind"),
        (lambda: Dtry.from_path_map({"a": 1}).flatten(), TypeError, "be a directory"),
        (lambda: SKEL.block_perm([1, 2], [0, 0]), ValueError, "not a permutation"),
        (
            lambda: DtryMor(Variant.GENERAL, DtryObj.of(TINY, {}), DtryObj.of(SKEL, {}), {}, {}),
            ValueError,
            "different categories",
        ),
        (lambda: mu_mor(two_category_mors()), NotComposableError, "mixed categories"),
        (lambda: shape_with_n_leaves(-1), ValueError, "nonnegative"),
        (
            lambda: algebra_eval_mor(ALG, identity_mor(DtryObj.of(SKEL, {"a": 1}))),
            ValueError,
            "bijective variant",
        ),
    ],
    ids=[
        "filter_nothings_of_a_bare_value",
        "distrib_of_a_bare_value",
        "root_that_is_no_tree",
        "value_of_a_node",
        "flatten_of_a_value_that_is_no_directory",
        "block_perm_of_no_permutation",
        "mor_between_two_categories",
        "mu_mor_over_two_categories",
        "negative_leaf_count",
        "algebra_eval_of_a_general_mor",
    ],
)
def test_documented_input_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
