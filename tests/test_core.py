"""Directory structure, the unit/flatten laws, and the absence machinery."""

import copy
import json
import pickle
import random
from collections import OrderedDict
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtry
from dtry import paths
from dtry.core import (
    Dtry,
    Leaf,
    Node,
    NonEmptyRecord,
    distrib,
    filter_nothings,
    merge_disjoint,
)
from dtry.errors import BadNameError, BadPathError, PrefixConflictError
from dtry.formats import emit_flat, emit_nested, parse_flat, parse_nested
from dtry.maybe import NOTHING, Just
from dtry.paths import Name, Path

from helpers import (
    check_representation,
    example_directory,
    join_maybe,
    nodes,
    oracle_conflicts,
    oracle_prefix_free,
    random_dtry,
    random_maybe_maybe_record,
    random_nested_dtry,
    random_path,
)

names_st = st.sampled_from(["a", "b", "c", "x", "y", "z"])
values_st = st.integers(0, 9)


def trees(leaf_values):
    """Trees of ``leaf_values``; each entry of a node holds its value bare or in a ``Leaf``."""
    return st.recursive(
        leaf_values.map(Leaf),
        lambda child: st.dictionaries(
            names_st, st.one_of(child, leaf_values), min_size=1, max_size=3
        ).map(lambda d: Node(NonEmptyRecord(d))),
        max_leaves=8,
    )


def dtries(leaf_values=values_st):
    return st.one_of(st.just(Dtry.empty()), trees(leaf_values).map(Dtry))


records_st = st.dictionaries(names_st, values_st, min_size=1, max_size=4).map(NonEmptyRecord)

# Keys of every kind from_path_map takes, over three letters so that
# duplicates and prefix conflicts are dense, then at most two keys with
# one bad segment each, all in a random order.
good_segments_st = st.lists(st.sampled_from("abc"), max_size=3)
bad_segments_st = st.tuples(
    good_segments_st, st.sampled_from(["b-", "", 5]), st.lists(st.sampled_from("ab"), max_size=1)
).map(lambda parts: [*parts[0], parts[1], *parts[2]])
good_keys_st = st.one_of(
    st.just(""),
    good_segments_st.map(".".join),
    good_segments_st.map(tuple),
    good_segments_st.map(Path),
    st.sampled_from(["a", "b", "ab"]).map(Name),
)
bad_keys_st = st.one_of(
    bad_segments_st.filter(lambda segs: 5 not in segs).map(".".join),
    bad_segments_st.map(tuple),
    st.just(5),
)
path_maps_st = (
    st.tuples(
        st.lists(st.tuples(good_keys_st, values_st), max_size=8),
        st.lists(st.tuples(bad_keys_st, values_st), max_size=2),
    )
    .flatmap(lambda lists: st.permutations(lists[0] + lists[1]))
    .map(dict)
)


def reference_from_path_map(entries):
    """Every key made a ``Path`` in the mapping's order, then sorted, then bound."""
    items = sorted(((Path(p), v) for p, v in dict(entries).items()), key=lambda kv: kv[0])
    hits = oracle_conflicts([path for path, _ in items])
    for (path, _), hit in zip(items, hits):
        if hit is not None:
            raise PrefixConflictError(Path(hit), path)
    return Dtry.from_path_map(dict(items))


def outcome(build, entries):
    try:
        return build(entries)
    except Exception as exc:
        return exc


class TestConstruction:
    def test_empty_has_no_paths(self):
        assert Dtry.empty().path_map() == {}
        assert Dtry.empty().is_empty

    def test_leaf_binds_the_root_path(self):
        assert Dtry.leaf(5).path_map() == {Path(): 5}
        assert Dtry.leaf(5).value == 5

    def test_records_refuse_emptiness(self):
        with pytest.raises(ValueError):
            NonEmptyRecord({})

    def test_record_iteration_is_sorted(self):
        record = NonEmptyRecord({"b": 1, "a": 2, "z": 0, "c": 3})
        assert list(record.keys()) == ["a", "b", "c", "z"]

    def test_record_coerces_str_keys_to_names(self):
        record = NonEmptyRecord({"b": 1, Name("a"): 2})
        assert list(record.items()) == [("a", 2), ("b", 1)]
        assert all(type(key) is str and paths._is_name(key) for key in record)

    @pytest.mark.parametrize(
        "entries", [{"a b": 1}, {"a": 1, "": 2}, {1: 1}, {"a": 1, 2: 2}], ids=str
    )
    def test_record_rejects_a_bad_name(self, entries):
        with pytest.raises(BadNameError):
            NonEmptyRecord(entries)

    def test_record_accepts_pairs_and_refuses_none(self):
        record = NonEmptyRecord(iter([("z", 0), ("a", 1)]))
        assert list(record.items()) == [("a", 1), ("z", 0)]
        with pytest.raises(ValueError):
            NonEmptyRecord([])

    def test_record_keeps_no_alias_of_the_callers_dict(self):
        # Sorted Name keys in a plain dict or a dict subclass look like what
        # the trie's own code hands over, and are still copied.
        a, b = Name("a"), Name("b")
        for entries in ({"b": 1, "a": 2}, {a: 2, b: 1}, OrderedDict([(a, 2), (b, 1)])):
            record = NonEmptyRecord(entries)
            entries["a"] = 9
            entries["c"] = 3
            del entries["b"]
            assert list(record.items()) == [("a", 2), ("b", 1)]

    def test_singleton_matches_from_path_map(self):
        rng = random.Random(23)
        for _ in range(100):
            p = random_path(rng)
            d = Dtry.from_path_map({p: 7})
            assert d.path_map() == {p: 7}
            assert d == Dtry.empty().insert(p, 7)

    def test_prefix_pushes_below_a_name(self):
        d = Dtry.from_path_map({"x": 1, "y": 2})
        assert merge_disjoint({"a": d}).path_map() == {Path("a.x"): 1, Path("a.y"): 2}

    def test_prefix_of_empty_is_empty(self):
        assert merge_disjoint({"a": Dtry.empty()}) == Dtry.empty()


class TestNodeContract:
    """``Leaf`` and ``Node`` keep the contract of frozen dataclasses."""

    def test_reprs(self):
        assert repr(Leaf(1)) == "Leaf(value=1)"
        node = Node(NonEmptyRecord({"a": Leaf("x")}))
        assert repr(node) == "Node({'a': Leaf(value='x')})"

    def test_a_node_prints_as_the_call_that_makes_it(self):
        rng = random.Random(43)
        trees = [Dtry.from_path_map(random_dtry(rng).path_map()).root for _ in range(200)]
        document = {"a": {"x": [1, "s"], "y": {"z": None}}, "b": True}
        trees.append(parse_nested(json.dumps(document)).root)
        trees.append(Dtry.from_path_map({"a.x": Leaf(1), "b": Node({"c": {"d": 2}})}).root)
        built = [node for tree in trees for node in nodes(tree)]
        assert sum(type(node["a"]) is Node for node in built if "a" in node) > 10
        assert all(eval(repr(node), vars(dtry)) == node for node in built)

    def test_equality_and_hash(self):
        assert Leaf(1) == Leaf(1) and Leaf(1) != Leaf(2) and Leaf(1) != 1
        assert hash(Leaf("v")) == hash(("v",))
        assert len({Leaf(1), Leaf(1), Leaf(2)}) == 2

        def node(value):
            return Node(NonEmptyRecord({"a": Leaf(1), "b": Node(NonEmptyRecord({"c": Leaf(value)}))}))

        assert node(2) == node(2) and node(2) != node(3) and node(2) != Leaf(2)
        with pytest.raises(TypeError):
            hash(node(2))
        # != is the negation of ==, and a node equals nothing but a node
        assert not Node(NonEmptyRecord({"x": Leaf(1)})) != Node(NonEmptyRecord({"x": 1}))
        assert not Node(NonEmptyRecord({"x": 1})) == {"x": 1}
        assert Node(NonEmptyRecord({"x": 1})) != {"x": 1}

    @pytest.mark.parametrize(
        "tree, fields",
        [(Leaf(1), ("value",)), (Node(NonEmptyRecord({"a": Leaf(1)})), ())],
        ids=("Leaf", "Node"),
    )
    def test_frozen_and_slotted(self, tree, fields):
        # A node has no field, being its record: every attribute is refused.
        before = [getattr(tree, field) for field in fields]
        for name in (*fields, "other", "items"):
            with pytest.raises(FrozenInstanceError):
                setattr(tree, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(tree, name)
        assert all(getattr(tree, field) is old for field, old in zip(fields, before))
        assert not hasattr(tree, "__dict__")
        assert copy.deepcopy(tree) == tree == pickle.loads(pickle.dumps(tree))

    def test_leaf_is_generic(self):
        assert Leaf[int](3) == Leaf(3)  # the alias's call tries to set __orig_class__

    def test_a_value_equals_the_same_object_on_every_python(self):
        # One NaN object is not == itself, but it is the same object: the
        # fields compare as one tuple, as a Node's entries do.
        nan = float("nan")
        assert Leaf(nan) == Leaf(nan) and Just(nan) == Just(nan)
        assert Dtry(Leaf(nan)) == Dtry(Leaf(nan))
        assert Node(NonEmptyRecord({"x": nan})) == Node(NonEmptyRecord({"x": nan}))
        assert Leaf(nan) != Leaf(float("nan")) and Just(nan) != Just(float("nan"))


def set_a(record):
    record["a"] = 9


def del_a(record):
    del record["a"]


def or_into(record):
    record |= {"c": 3}


class TestRecordIsReadOnly:
    """A record is a read-only ``dict``, and a node is its own record."""

    @pytest.mark.parametrize(
        "mutate",
        [
            set_a,
            del_a,
            or_into,
            lambda r: r.clear(),
            lambda r: r.pop("a"),
            lambda r: r.popitem(),
            lambda r: r.setdefault("c", 3),
            lambda r: r.update(c=3),
        ],
        ids=["[]=", "del", "|=", "clear", "pop", "popitem", "setdefault", "update"],
    )
    @pytest.mark.parametrize("kind", [NonEmptyRecord, Node])
    def test_every_mutator_raises_and_changes_nothing(self, kind, mutate):
        record = kind({"b": 2, "a": 1})
        with pytest.raises(TypeError):
            mutate(record)
        assert type(record) is kind and list(record.items()) == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize(
        "record",
        [NonEmptyRecord({"b": [1], "a": 2}), Node({"b": [1], "a": Node({"x": Leaf(3)})})],
        ids=("NonEmptyRecord", "Node"),
    )
    def test_copies_and_pickles_keep_the_type_and_the_entries(self, record):
        for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(other) is type(record) and other == record
            assert list(other) == ["a", "b"] and type(other["a"]) is type(record["a"])

    def test_a_node_checks_its_names(self):
        with pytest.raises(BadNameError):
            Node({"a b": 1})

    def test_a_record_equals_a_dict_and_a_node_only_a_node(self):
        assert NonEmptyRecord({"b": 2, "a": 1}) == {"a": 1, "b": 2}
        assert Node({"a": 1}) != NonEmptyRecord({"a": 1}) and NonEmptyRecord({"a": 1}) != Node({"a": 1})

    def test_every_node_is_its_own_record(self):
        document = {"a": {"x": 1, "y": {"z": [2]}}, "b": "v", "c": {"d": {"e": None}}}
        built = list(nodes(parse_nested(json.dumps(document)).root))
        assert len(built) == 5
        assert issubclass(Node, NonEmptyRecord) and all(type(node) is Node for node in built)

    @pytest.mark.parametrize(
        "value", [Node({"x": 1}), NonEmptyRecord({"x": 1})], ids=("Node", "NonEmptyRecord")
    )
    def test_emit_nested_refuses_a_record_valued_leaf(self, value):
        for directory in (Dtry.from_path_map({"a": value}), Dtry.leaf(value)):
            with pytest.raises(ValueError, match="object-valued leaf"):
                emit_nested(directory)


class TestLookup:
    def test_complete_path_gives_the_leaf(self):
        d = example_directory()
        assert d.lookup("oscillator.mass.momentum") == Dtry.leaf("0.0")

    def test_interior_path_gives_the_subdirectory(self):
        d = example_directory()
        sub = d.lookup("oscillator")
        assert sub.path_map() == {
            Path("mass.momentum"): "0.0",
            Path("spring.displacement"): "1.0",
        }

    def test_root_path_gives_the_directory_itself(self):
        d = example_directory()
        assert d.lookup("") == d
        assert Dtry.empty().lookup("") == Dtry.empty()

    def test_absent_paths_give_none(self):
        d = example_directory()
        assert d.lookup("oscillator.mass.momentum.x") is None
        assert d.lookup("nope") is None
        assert Dtry.empty().lookup("a") is None


class TestInsert:
    def test_builds_disjoint_entries(self):
        d = Dtry.empty().insert("a.x", 1).insert("a.y", 2).insert("b", 3)
        assert d.path_map() == {Path("a.x"): 1, Path("a.y"): 2, Path("b"): 3}

    def test_duplicate_is_a_conflict(self):
        d = Dtry.from_path_map({"a.x": 1})
        with pytest.raises(PrefixConflictError):
            d.insert("a.x", 2)

    def test_extension_conflict_names_the_pair(self):
        d = Dtry.from_path_map({"a": 1})
        with pytest.raises(PrefixConflictError) as exc:
            d.insert("a.b", 2)
        assert exc.value.existing == Path("a")
        assert exc.value.incoming == Path("a.b")

    @pytest.mark.parametrize(
        "bound, path, message",
        [
            ("", "", "path the root is already bound"),
            ("", "a", "path 'a' extends the bound path the root"),
            ("a", "", "path the root is a prefix of the bound path 'a'"),
        ],
    )
    def test_conflicts_at_the_root_name_it_the_root(self, bound, path, message):
        with pytest.raises(PrefixConflictError) as exc:
            Dtry.from_path_map({bound: 1}).insert(path, 2)
        assert str(exc.value) == message

    def test_prefix_conflict_names_a_witness(self):
        d = Dtry.from_path_map({"a.b.c": 1, "a.b.d": 2})
        with pytest.raises(PrefixConflictError) as exc:
            d.insert("a.b", 0)
        assert exc.value.incoming == Path("a.b")
        assert exc.value.existing == Path("a.b.c")  # lex-least path below

    def test_success_iff_the_oracle_allows_it(self):
        rng = random.Random(29)
        for _ in range(400):
            d = random_dtry(rng)
            p = random_path(rng, max_len=3)
            keys = set(d.path_map())
            allowed = oracle_prefix_free(keys | {p}) and p not in keys
            if allowed:
                inserted = d.insert(p, "new")
                assert inserted.path_map()[p] == "new"
                assert len(inserted) == len(d) + 1
                check_representation(inserted, built=True)
            else:
                with pytest.raises(PrefixConflictError):
                    d.insert(p, "new")


class TestBuilderAdd:
    """``insert`` takes every key form, and a rejected key leaves the directory as it was."""

    def test_every_key_form_binds_the_same_path(self):
        d = Dtry.empty()
        for value, key in enumerate([Path("a.b"), "a.c", ("a", "d"), ["a", "e"], Name("f")]):
            d = d.insert(key, value)
        assert d.paths() == [Path(p) for p in ("a.b", "a.c", "a.d", "a.e", "f")]

    @pytest.mark.parametrize(
        "bound, key, error, pair",
        [
            (["a.y"], "a.x.b-", BadPathError, None),
            (["a.y"], ("a", "x", 5), BadNameError, None),
            (["a.y", "b"], "", PrefixConflictError, ("a.y", "")),
            (["a.y", "b"], (), PrefixConflictError, ("a.y", "")),
            (["a.y", "b"], Path(), PrefixConflictError, ("a.y", "")),
            (["a.z", "a.m", "a.b"], "a", PrefixConflictError, ("a.b", "a")),
            (["a.z", "a.m", "a.b"], Name("a"), PrefixConflictError, ("a.b", "a")),
            (["a.z", "a.m", "a.b"], ("a",), PrefixConflictError, ("a.b", "a")),
            (["a.z", "a.m", "a.b"], Path("a"), PrefixConflictError, ("a.b", "a")),
            (["a.y"], "a.y", PrefixConflictError, ("a.y", "a.y")),
            (["a.y"], ("a", "y", "q"), PrefixConflictError, ("a.y", "a.y.q")),
            ([""], Path("a"), PrefixConflictError, ("", "a")),
        ],
        ids=[
            "dotted_bad_segment_in_new_chain",
            "tuple_holding_an_int",
            "root_dotted",
            "root_tuple",
            "root_path",
            "prefix_dotted",
            "prefix_name",
            "prefix_tuple",
            "prefix_path",
            "bound_dotted",
            "extension_tuple",
            "extension_of_the_root",
        ],
    )
    def test_a_rejected_key_changes_nothing(self, bound, key, error, pair):
        d = Dtry.from_path_map({path: value for value, path in enumerate(bound)})
        before = d.path_map()
        with pytest.raises(error) as exc:
            d.insert(key, "new")
        if pair is not None:
            assert (exc.value.existing, exc.value.incoming) == (Path(pair[0]), Path(pair[1]))
            assert type(exc.value.existing) is Path and type(exc.value.incoming) is Path
        if error is BadPathError:
            assert exc.value.segment == 2  # 'b-'
        assert d.path_map() == before

    def test_the_first_bad_segment_is_reported(self):
        with pytest.raises(BadPathError) as exc:
            Dtry.from_path_map({"a.y": 0}).insert("a.x-.b-", 0)
        assert exc.value.segment == 1


class TestPathMapIsomorphism:
    def test_worked_example(self):
        listing = {"a.x": 2, "a.y": 1, "b": 3}
        d = Dtry.from_path_map(listing)
        assert d.path_map() == {Path(k): v for k, v in listing.items()}

    def test_round_trip_both_ways(self):
        rng = random.Random(31)
        for _ in range(300):
            d = random_dtry(rng)
            m = d.path_map()
            assert Dtry.from_path_map(m) == d
            assert Dtry.from_path_map(m).path_map() == m

    def test_iteration_is_lexicographic(self):
        rng = random.Random(37)
        for _ in range(200):
            keys = list(random_dtry(rng).path_map())
            assert keys == sorted(keys)

    def test_rejects_exactly_what_the_oracle_rejects(self):
        rng = random.Random(41)
        for _ in range(400):
            entries = {random_path(rng, max_len=3): 0 for _ in range(rng.randint(0, 6))}
            if oracle_prefix_free(entries):
                check_representation(Dtry.from_path_map(entries), built=True)
            else:
                with pytest.raises(PrefixConflictError):
                    Dtry.from_path_map(entries)

    def test_conflict_pair_is_lex_deterministic(self):
        with pytest.raises(PrefixConflictError) as exc:
            Dtry.from_path_map({"a.b": 2, "a": 1, "zz": 0})
        assert exc.value.existing == Path("a")
        assert exc.value.incoming == Path("a.b")

    @settings(max_examples=500, deadline=None)
    @given(path_maps_st)
    @example({Name("ab"): 1})
    @example({"b.c": 1, "a.x.y": 2, "b": 3, "a.x": 4})
    @example({"a.b": 1, "": 2, ("c", 5): 3, "b-": 4})
    @example({"a": 1, "b-": 2})
    @example({"a": 1, "a.b": 2, "c-": 3})  # a clash, then a bad key: the bad key raises
    @example({("a",): 1, ("a", "b"): 2, ("c", "d-"): 3})
    @example({"a": 1, "": 2})  # the root beside another key
    @example({(): 1, ("a",): 2})
    @example({"a.b": 1, ("a", "b"): 2})  # equal texts from a str key and a tuple key
    @example({("a", "b"): 1, "c": 2, "a.b": 3})
    def test_matches_the_sort_first_reference(self, entries):
        want = outcome(reference_from_path_map, entries)
        got = outcome(Dtry.from_path_map, entries)
        if isinstance(want, Dtry):
            assert got == want
            assert got.path_map() == want.path_map()
        else:
            assert (type(got), str(got)) == (type(want), str(want))
            if isinstance(want, PrefixConflictError):
                assert (got.existing, got.incoming) == (want.existing, want.incoming)

    def test_a_name_key_is_one_segment(self):
        assert Dtry.from_path_map({Name("ab"): 1}).path_map() == {Path("ab"): 1}
        assert Dtry.from_path_map({Name("ab"): 1, ("a", "c"): 2}).paths() == [
            Path("a.c"),
            Path("ab"),
        ]

    @pytest.mark.parametrize(
        "key,error",
        [
            (("a.b",), "bad name 'a.b' at character 1: invalid character '.'"),
            (("",), "bad name '' at character 0: name is empty"),
            (("a", ""), "bad name '' at character 0: name is empty"),
            (("a", 1), "bad name '1' at character 0: not a string"),
            (("a\nb",), "bad name 'a\\nb' at character 1: invalid character '\\n'"),
            (("a", "b c"), "bad name 'b c' at character 1: invalid character ' '"),
        ],
    )
    @pytest.mark.parametrize("mixed", [False, True], ids=("alone", "mixed"))
    def test_a_bad_tuple_key_names_its_name(self, key, error, mixed):
        clean = {(f"c{i}", "k"): i for i in range(100)}
        entries = {**dict(list(clean.items())[:50]), key: -1, **clean} if mixed else {key: -1}
        with pytest.raises(BadNameError) as exc:
            Dtry.from_path_map(entries)
        assert str(exc.value) == error

    def test_the_empty_tuple_key_is_the_root(self):
        assert repr(Dtry.from_path_map({(): 1})) == "Dtry({'': 1})"
        clean = {(f"c{i}", "k"): i for i in range(100)}
        with pytest.raises(PrefixConflictError) as exc:
            Dtry.from_path_map({**clean, (): 1})
        assert str(exc.value) == "path 'c0.k' extends the bound path the root"

    def test_injectivity_on_random_pairs(self):
        rng = random.Random(43)
        for _ in range(1_000):
            d1, d2 = random_dtry(rng), random_dtry(rng)
            assert (d1 == d2) == (d1.path_map() == d2.path_map())

    @given(dtries())
    def test_structural_equality_matches_path_map_equality(self, d):
        assert Dtry.from_path_map(d.path_map()) == d


class TestFunctor:
    @given(dtries())
    def test_identity(self, d):
        # map id = id
        assert d.map_values(lambda x: x) == d

    @given(dtries())
    def test_composition(self, d):
        f = lambda x: x + 1
        g = lambda x: x * 2
        assert d.map_values(f).map_values(g) == d.map_values(lambda x: g(f(x)))

    @given(dtries())
    def test_preserves_paths(self, d):
        assert d.map_values(str).paths() == d.paths()


class TestAbsencePropagation:
    def test_filter_nothings_keeps_present_entries(self):
        record = NonEmptyRecord({"a": NOTHING, "b": Just(3)})
        assert filter_nothings(record) == NonEmptyRecord({"b": 3})

    def test_filter_nothings_total_absence(self):
        assert filter_nothings(NonEmptyRecord({"a": NOTHING, "b": NOTHING})) is None

    def test_absent_iff_all_absent(self):
        rng = random.Random(47)
        for _ in range(300):
            entries = {
                name: (NOTHING if rng.random() < 0.5 else Just(rng.randint(0, 9)))
                for name in rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
            }
            record = NonEmptyRecord(entries)
            result = filter_nothings(record)
            if all(v is NOTHING for v in entries.values()):
                assert result is None
            else:
                assert result == NonEmptyRecord(
                    {k: v.value for k, v in entries.items() if v is not NOTHING}
                )

    def test_distrib_drops_emptied_subtrees(self):
        tree = Node(NonEmptyRecord({"a": Leaf(NOTHING), "b": Leaf(Just(3))}))
        assert distrib(tree) == Node(NonEmptyRecord({"b": Leaf(3)}))
        # one level deeper: the emptied 'a' subtree disappears entirely
        nested = Node(NonEmptyRecord({"a": Node(NonEmptyRecord({"x": Leaf(NOTHING)})), "b": Leaf(Just(3))}))
        assert distrib(nested) == Node(NonEmptyRecord({"b": Leaf(3)}))

    def test_distrib_of_all_absent_is_none(self):
        tree = Node(NonEmptyRecord({"a": Leaf(NOTHING), "b": Node(NonEmptyRecord({"c": Leaf(NOTHING)}))}))
        assert distrib(tree) is None

    # The two coherence conditions of the absence/record interaction.

    @given(records_st)
    def test_triangle(self, record):
        # wrapping everything present then filtering is a no-op
        assert filter_nothings(record.map_values(Just)) == record

    def test_pentagon_on_random_doubly_optional_records(self):
        rng = random.Random(53)
        for _ in range(500):
            record = random_maybe_maybe_record(rng)
            assert self.pentagon_routes_agree(record)

    def test_pentagon_all_absent_and_half_absent(self):
        cases = [
            NonEmptyRecord({"a": NOTHING, "b": NOTHING}),
            NonEmptyRecord({"a": Just(NOTHING), "b": Just(NOTHING)}),
            NonEmptyRecord({"a": NOTHING, "b": Just(NOTHING)}),
            NonEmptyRecord({"a": NOTHING, "b": Just(Just(1))}),
            NonEmptyRecord({"a": Just(NOTHING), "b": Just(Just(1))}),
        ]
        for record in cases:
            assert self.pentagon_routes_agree(record)
            # when every entry is NOTHING or Just(NOTHING), both routes are absent
            if all(join_maybe(v) is NOTHING for v in record.values()):
                assert self.route_join_first(record) is None

    @staticmethod
    def route_join_first(record):
        return filter_nothings(record.map_values(join_maybe))

    @staticmethod
    def route_filter_twice(record):
        once = filter_nothings(record)  # outer absence handled here
        return None if once is None else filter_nothings(once)

    def pentagon_routes_agree(self, record):
        return self.route_join_first(record) == self.route_filter_twice(record)


class TestFlatten:
    def test_inner_empties_vanish(self):
        dd = merge_disjoint({"s1": Dtry.empty(), "s2": Dtry.from_path_map({"z": 3})})
        assert dd.path_map() == {Path("s2.z"): 3}

    def test_all_empty_collapses_to_empty(self):
        outer = Dtry.from_path_map({"a": Dtry.empty(), "b.c": Dtry.empty()})
        assert outer.flatten() == Dtry.empty()

    def test_merge_is_flatten_of_a_node(self):
        inner = {"m": Dtry.from_path_map({"x": 1}), "n": Dtry.leaf(2)}
        via_merge = merge_disjoint(inner)
        outer = Dtry(Node(NonEmptyRecord({k: Leaf(v) for k, v in inner.items()})))
        assert via_merge == outer.flatten()
        assert via_merge.path_map() == {Path("m.x"): 1, Path("n"): 2}

    def test_merge_requires_an_entry(self):
        with pytest.raises(ValueError):
            merge_disjoint({})

    def test_left_unit(self):
        rng = random.Random(59)
        for _ in range(200):
            d = random_dtry(rng)
            assert Dtry.leaf(d).flatten() == d

    def test_right_unit(self):
        rng = random.Random(61)
        for _ in range(200):
            d = random_dtry(rng)
            assert d.map_values(Dtry.leaf).flatten() == d

    def test_associativity(self):
        rng = random.Random(67)
        for _ in range(200):
            ddd = random_nested_dtry(rng, 3, depth=2, branching=2)
            outer_first = ddd.flatten().flatten()
            inner_first = ddd.map_values(Dtry.flatten).flatten()
            assert outer_first == inner_first
            check_representation(outer_first)

    def test_bind_is_map_then_flatten(self):
        d = Dtry.from_path_map({"a": 1, "b": 2})
        f = lambda v: Dtry.from_path_map({"v": v, "twice": 2 * v}) if v > 1 else Dtry.empty()
        assert d.bind(f) == d.map_values(f).flatten()
        assert d.bind(f).path_map() == {Path("b.twice"): 4, Path("b.v"): 2}

    def test_positions_concatenate(self):
        from helpers import oracle_position_set

        rng = random.Random(71)
        for _ in range(300):
            dd = random_nested_dtry(rng, 2)
            flat = dd.flatten()
            assert {tuple(p) for p in flat.paths()} == oracle_position_set(dd)


class TestFilter:
    def test_worked_example(self):
        d = Dtry.from_path_map({"a.x": 1, "a.y": 2, "b": 1})
        assert d.filter(lambda v: v > 1).path_map() == {Path("a.y"): 2}

    def test_keep_everything(self):
        rng = random.Random(73)
        for _ in range(100):
            d = random_dtry(rng)
            assert d.filter(lambda _: True) == d

    def test_drop_everything(self):
        rng = random.Random(79)
        for _ in range(100):
            d = random_dtry(rng)
            assert d.filter(lambda _: False) == Dtry.empty()

    @given(dtries())
    def test_agrees_with_path_map_filtering(self, d):
        pred = lambda v: v % 2 == 0
        expected = {p: v for p, v in d.path_map().items() if pred(v)}
        assert d.filter(pred).path_map() == expected

    @given(dtries())
    def test_no_empty_husks_left_behind(self, d):
        check_representation(d.filter(lambda v: v == 0))

    @pytest.mark.parametrize(
        "answer, keeps",
        [(0, False), ("", False), (None, False), ([], False), ([0], True), (2, True), ("no", True)],
    )
    def test_keeps_an_entry_when_what_pred_returns_is_true(self, answer, keeps):
        d = Dtry.from_path_map({"a.x": 1, "a.y": 2, "b": 3})
        assert d.filter(lambda v: answer) == (d if keeps else Dtry.empty())
        one = d.filter(lambda v: answer if v == 2 else True)
        assert one.path_map() == {Path("a.x"): 1, **({Path("a.y"): 2} if keeps else {}), Path("b"): 3}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_an_exception_from_pred_escapes_as_it_is(self, k):
        class Stop(Exception):
            pass

        stop, seen = Stop(), []

        def pred(value):
            seen.append(value)
            if len(seen) == k:
                raise stop
            return True

        with pytest.raises(Stop) as caught:
            Dtry.from_path_map({"a.x": 1, "a.y": 2, "b": 3}).filter(pred)
        assert caught.value is stop
        assert seen == [1, 2, 3][:k]  # in path order, and none past the k-th

    @pytest.mark.parametrize("value", [5, None, Leaf(1)])
    def test_a_root_leaf_is_kept_or_dropped(self, value):
        d = Dtry.leaf(value)
        assert d.filter(lambda v: v is value).root is d.root
        assert d.filter(lambda v: v is not value) == Dtry.empty()

    def test_an_empty_directory_calls_no_pred(self):
        seen = []
        assert Dtry.empty().filter(seen.append) == Dtry.empty()
        assert seen == []


# Values a record could misread as a subtree, or that equal nothing but
# themselves: trees, directories, None, one NaN object, and plain values.
NAN = float("nan")
tree_like_values_st = st.one_of(
    trees(values_st), dtries(), st.none(), st.just(NAN), values_st
)


@st.composite
def tree_like_path_maps(draw):
    """A prefix-free path map whose values are drawn from ``tree_like_values_st``."""
    shape = draw(dtries())
    return {path: draw(tree_like_values_st) for path in shape.paths()}


def same_values(got: dict, expected: dict) -> bool:
    """Whether ``got`` binds the same paths as ``expected`` to the very same objects."""
    return list(got) == list(expected) and all(got[p] is v for p, v in expected.items())


def old_form(entries: dict) -> Dtry:
    """The directory of a path map built by hand, with every value in a ``Leaf``."""
    if () in entries or Path() in entries:
        return Dtry(Leaf(entries[Path()]))
    if not entries:
        return Dtry.empty()
    groups: dict = {}
    for path, value in entries.items():
        groups.setdefault(path[0], {})[Path(path[1:])] = value
    return Dtry(
        Node(
            NonEmptyRecord({name: old_form(inner).root for name, inner in groups.items()})
        )
    )


class TestValuesThatLookLikeTrees:
    """A value that is a ``Leaf``, a ``Node``, a ``Dtry``, None or NaN comes back as it went in."""

    @given(tree_like_path_maps())
    @example({Path("a"): Leaf(1), Path("b.c"): Node(NonEmptyRecord({"x": 1}))})
    @example({Path(): Node(NonEmptyRecord({"x": Leaf(2)}))})
    @example({Path("a"): None, Path("b"): NAN})
    @settings(deadline=None)
    def test_every_operation_gives_them_back(self, entries):
        d = Dtry.from_path_map(entries)
        check_representation(d, built=True)
        assert same_values(d.path_map(), entries)
        assert len(d) == len(entries)
        for path, value in entries.items():
            assert d.lookup(path).value is value
        index = list(entries.values())
        numbered = Dtry.from_path_map({p: i for i, p in enumerate(entries)})
        assert same_values(numbered.map_values(index.__getitem__).path_map(), entries)
        assert same_values(d.map_values(lambda v: v).path_map(), entries)
        assert same_values(d.filter(lambda v: True).path_map(), entries)
        kept = {p: v for p, v in entries.items() if not isinstance(v, (Leaf, Node))}
        assert same_values(d.filter(lambda v: not isinstance(v, (Leaf, Node))).path_map(), kept)
        assert same_values(d.map_values(Dtry.leaf).flatten().path_map(), entries)
        assert same_values(
            d.bind(lambda v: Dtry.from_path_map({"x": v})).path_map(),
            {Path((*p, "x")): v for p, v in entries.items()},
        )
        assert same_values(
            merge_disjoint({"m": d}).path_map(), {Path(("m", *p)): v for p, v in entries.items()}
        )
        for path, value in entries.items():
            rest = Dtry.from_path_map({p: v for p, v in entries.items() if p != path})
            inserted = rest.insert(path, value)
            check_representation(inserted, built=True)
            assert same_values(inserted.path_map(), entries)

    @given(tree_like_path_maps(), tree_like_path_maps())
    @example({Path("a"): NAN}, {Path("a"): NAN})
    @example({Path("a"): NAN}, {Path("a"): float("nan")})
    @example({Path("a"): Leaf(1)}, {Path("a"): 1})
    @example({Path("a"): Node(NonEmptyRecord({"x": 1}))}, {Path("a.x"): 1})
    @settings(deadline=None)
    def test_equality_agrees_with_the_path_maps(self, first, second):
        built, by_hand = Dtry.from_path_map(first), old_form(first)
        assert built == by_hand and by_hand == built
        other = Dtry.from_path_map(second)
        assert (built == other) == (first == second) == (by_hand == old_form(second))

    def test_a_nan_object_equals_itself_only(self):
        assert Dtry.from_path_map({"a.b": NAN}) == Dtry.from_path_map({"a.b": NAN})
        assert Dtry.from_path_map({"a.b": NAN}) != Dtry.from_path_map({"a.b": float("nan")})
        assert Dtry.leaf(NAN) == Dtry.leaf(NAN) != Dtry.leaf(float("nan"))


# Names given as ``str`` or as ``Name``; either is stored as a plain ``str``.
mixed_names_st = st.one_of(names_st, names_st.map(Name))
mixed_dtries_st = st.one_of(
    st.just(Dtry.empty()),
    st.recursive(
        values_st.map(Leaf),
        lambda child: st.dictionaries(mixed_names_st, child, min_size=1, max_size=3).map(
            lambda d: Node(NonEmptyRecord(d))
        ),
        max_leaves=8,
    ).map(Dtry),
)
# The forms from_path_map and insert take a path in, each applied to a ``Path``.
KEY_FORMS = {
    "dotted": str,
    "tuple": tuple,
    "Path": lambda p: p,
    "Names": lambda p: tuple(map(Name, p)),
    "Name": lambda p: Name(p[0]) if len(p) == 1 else p,  # a Name is one segment
}


def plain_names(tree) -> bool:
    """Whether each record key under ``tree``, and each segment of its paths, is a plain ``str`` name."""
    keys = [key for node in nodes(tree) for key in node]
    segments = [segment for path in Dtry(tree).path_map() for segment in path]
    return all(type(name) is str and paths._is_name(name) for name in keys + segments)


class TestNamesArePlainStr:
    """However a trie is made or rewritten, every name it stores is a plain ``str`` and a name."""

    @given(mixed_dtries_st)
    def test_the_readers(self, d):
        assert plain_names(d.root)
        assert plain_names(parse_nested(emit_nested(d)).root)
        assert plain_names(parse_flat(emit_flat(d.map_values(str))).root)

    @given(mixed_dtries_st, st.lists(st.sampled_from(sorted(KEY_FORMS)), min_size=8, max_size=8))
    def test_from_path_map_of_every_key_form(self, d, forms):
        entries = {
            KEY_FORMS[forms[i % len(forms)]](path): value
            for i, (path, value) in enumerate(d.path_map().items())
        }
        built = Dtry.from_path_map(entries)
        assert built == d and plain_names(built.root)

    @given(path_maps_st)
    def test_the_builder_past_rejected_keys(self, entries):
        # The public builds past the keys they reject: from_path_map, and
        # insert key by key.
        built = outcome(Dtry.from_path_map, entries)
        if isinstance(built, Dtry):
            assert plain_names(built.root)
        d = Dtry.empty()
        for key, value in entries.items():
            try:
                d = d.insert(key, value)
            except (PrefixConflictError, BadPathError, BadNameError, TypeError):
                continue
        assert plain_names(d.root)

    @given(mixed_dtries_st, good_keys_st)
    def test_insert(self, d, key):
        try:
            inserted = d.insert(key, 0)
        except PrefixConflictError:
            return
        assert plain_names(inserted.root)

    @given(mixed_dtries_st)
    def test_the_rewrites(self, d):
        inner = lambda v: Dtry.from_path_map({(Name("n"),): v, "m": v}) if v % 3 else Dtry.empty()
        maybes = d.map_values(lambda v: Just(v) if v % 2 else NOTHING)
        rewritten = [
            d.map_values(lambda v: v + 1),
            d.filter(lambda v: v % 2 == 0),
            d.map_values(inner).flatten(),
            Dtry(distrib(maybes.root)),
            merge_disjoint({Name("m"): d, "k": d}),
            copy.copy(d),
            copy.deepcopy(d),
            pickle.loads(pickle.dumps(d)),
        ]
        for result in rewritten:
            assert plain_names(result.root)

    @given(st.dictionaries(mixed_names_st, values_st, min_size=1, max_size=4))
    def test_a_record_given_name_keys(self, entries):
        record = NonEmptyRecord(entries)
        assert all(type(key) is str and paths._is_name(key) for key in record)
        assert all(type(key) is str for key in filter_nothings(record.map_values(Just)))


class TestNameInterop:
    """A ``Name`` is accepted wherever a name is, and equals the ``str`` stored for it."""

    def test_lookup_with_a_tuple_of_names(self):
        d = Dtry.from_path_map({"a.x": 1, "a.y": 2})
        assert d.lookup((Name("a"), Name("x"))) == Dtry.leaf(1)
        assert d.lookup((Name("a"),)) == d.lookup("a")

    def test_from_path_map_with_a_name_key(self):
        assert Dtry.from_path_map({Name("b"): 3}).path_map() == {Path("b"): 3}

    def test_merge_disjoint_under_a_name(self):
        d = Dtry.from_path_map({"x": 1})
        assert merge_disjoint({Name("m"): d}) == Dtry.from_path_map({"m.x": 1})

    def test_path_map_keys_equal_and_hash_as_paths(self):
        (key,) = Dtry.from_path_map({(Name("a"), Name("b")): 1}).path_map()
        assert key == Path("a.b") and hash(key) == hash(Path("a.b"))
        assert key == Path((Name("a"), Name("b"))) and all(type(s) is str for s in key)

    def test_records_given_names_or_str_are_equal(self):
        assert NonEmptyRecord({Name("a"): 1}) == NonEmptyRecord({"a": 1})


# Each way a directory is built from another, over int values: the readers,
# the path map, the rewrites, merges, a lookup and a hand-built root, so
# that some results keep the size their builder counted and some count it.
BUILDS = {
    "hand-built": lambda d: Dtry(d.root),
    "parse_nested": lambda d: parse_nested(emit_nested(d)),
    "parse_flat": lambda d: parse_flat(emit_flat(d.map_values(str))),
    "from_path_map": lambda d: Dtry.from_path_map(Dtry(d.root).path_map()),
    "map_values": lambda d: parse_nested(emit_nested(d)).map_values(str),
    "filter": lambda d: parse_nested(emit_nested(d)).filter(lambda v: v % 2),
    "flatten": lambda d: d.map_values(lambda v: Dtry.leaf(v) if v % 3 else Dtry.empty()).flatten(),
    "merge_disjoint": lambda d: merge_disjoint(
        {"a": parse_nested(emit_nested(d)), "b": parse_nested('{"x": {"y": 1}, "z": 2}'), "c": parse_nested("{}")}
    ),
    "merge_disjoint of mixed ones": lambda d: merge_disjoint(
        {"a": Dtry(d.root), "b": parse_nested(emit_nested(d)), "c": Dtry.from_path_map({"x.y": 1})}
    ),
    "lookup": lambda d: d.lookup(next(iter(Dtry(d.root).path_map()), Path())[:1]),
}
COPIES = {
    "as built": lambda d: d,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda d: pickle.loads(pickle.dumps(d)),
}


class TestKeptSize:
    @settings(max_examples=150)
    @given(dtries(), st.sampled_from(sorted(BUILDS)), st.sampled_from(sorted(COPIES)))
    def test_len_is_the_number_of_paths_before_and_after_path_map(self, d, build, copier):
        first = COPIES[copier](BUILDS[build](d))
        size = len(first)  # before path_map
        assert size == len(first.path_map()) == len(first)
        second = COPIES[copier](BUILDS[build](d))
        assert len(second.path_map()) == len(second) == size

    @pytest.mark.parametrize("copier", sorted(COPIES))
    def test_a_directory_restored_from_a_state_without_a_size_counts(self, copier):
        parsed = parse_nested('{"a": {"x": 1, "y": [2]}, "b": 3}')
        assert parsed.__reduce_ex__(2)[2][1]["_size"] == 3  # kept, and so copied
        d = Dtry(parsed.root)
        assert "_size" not in d.__reduce_ex__(2)[2][1]  # a hand-built one keeps none
        restored = COPIES[copier](d)
        assert len(restored) == len(d) == 3
        assert "_size" not in restored.__reduce_ex__(2)[2][1]

    def test_builders_that_know_the_size_keep_it(self):
        parsed = parse_nested('{"a": {"x": 1, "y": [2]}, "b": 3}')
        kept = [parsed, parse_nested("{}"), parse_nested("[1]"), merge_disjoint({"m": parsed, "n": parsed})]
        assert [d._size for d in kept] == [3, 0, 1, 6]
        counted = [
            Dtry(parsed.root),
            parse_flat("a.x = 1\nb = 2\n"),
            Dtry.from_path_map({"a.x": 1, "b": 2}),
            parsed.map_values(str),
            parsed.filter(bool),
            parsed.lookup("a"),
            merge_disjoint({"m": parsed, "n": Dtry(parsed.root)}),
        ]
        assert [len(d) for d in counted] == [3, 2, 2, 3, 3, 2, 6]
        assert not any(hasattr(d, "_size") for d in counted)  # so each len counts
