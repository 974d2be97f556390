"""Directory structure, the unit/flatten laws, and the absence machinery."""

import copy
import pickle
import random
from collections import OrderedDict
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtry.core import (
    Dtry,
    Leaf,
    Node,
    NonEmptyRecord,
    _TrieBuilder,
    distrib,
    filter_nothings,
    merge_disjoint,
)
from dtry.errors import BadNameError, BadPathError, PrefixConflictError
from dtry.maybe import NOTHING, Just, join_maybe
from dtry.paths import Name, Path

from helpers import (
    check_representation,
    example_directory,
    oracle_prefix_free,
    random_dtry,
    random_maybe_maybe_record,
    random_nested_dtry,
    random_path,
)

names_st = st.sampled_from(["a", "b", "c", "x", "y", "z"])
values_st = st.integers(0, 9)


def trees(leaf_values):
    return st.recursive(
        leaf_values.map(Leaf),
        lambda child: st.dictionaries(names_st, child, min_size=1, max_size=3).map(
            lambda d: Node(NonEmptyRecord(d))
        ),
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
    builder = _TrieBuilder()
    for path, value in items:
        builder.add(path, value)
    return Dtry(builder.freeze())


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
        assert all(type(key) is Name for key in record)

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
        assert repr(node) == "Node(children=NonEmptyRecord({'a': Leaf(value='x')}))"

    def test_equality_and_hash(self):
        assert Leaf(1) == Leaf(1) and Leaf(1) != Leaf(2) and Leaf(1) != 1
        assert hash(Leaf("v")) == hash(("v",))
        assert len({Leaf(1), Leaf(1), Leaf(2)}) == 2

        def node(value):
            return Node(NonEmptyRecord({"a": Leaf(1), "b": Node(NonEmptyRecord({"c": Leaf(value)}))}))

        assert node(2) == node(2) and node(2) != node(3) and node(2) != Leaf(2)
        with pytest.raises(TypeError):
            hash(node(2))

    @pytest.mark.parametrize(
        "tree, field",
        [(Leaf(1), "value"), (Node(NonEmptyRecord({"a": Leaf(1)})), "children")],
        ids=("Leaf", "Node"),
    )
    def test_frozen_and_slotted(self, tree, field):
        before = getattr(tree, field)
        with pytest.raises(FrozenInstanceError):
            setattr(tree, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(tree, field)
        with pytest.raises(FrozenInstanceError):
            tree.other = None
        assert getattr(tree, field) is before
        assert not hasattr(tree, "__dict__")
        assert copy.deepcopy(tree) == tree == pickle.loads(pickle.dumps(tree))

    def test_leaf_is_generic(self):
        assert Leaf[int](3) == Leaf(3)  # the alias's call tries to set __orig_class__


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
                check_representation(inserted)
            else:
                with pytest.raises(PrefixConflictError):
                    d.insert(p, "new")


def builder_of(*keys):
    builder = _TrieBuilder()
    for value, key in enumerate(keys):
        builder.add(key, value)
    return builder


class TestBuilderAdd:
    """``add`` takes every key form, and a rejected key leaves the builder as it was."""

    def test_every_key_form_binds_the_same_path(self):
        keys = [Path("a.b"), "a.c", ("a", "d"), ["a", "e"], Name("f")]
        assert Dtry(builder_of(*keys).freeze()).paths() == [
            Path(p) for p in ("a.b", "a.c", "a.d", "a.e", "f")
        ]

    @pytest.mark.parametrize(
        "bound, key, error, pair",
        [
            (["a.y"], "a.x.b-", BadPathError, None),
            (["a.y"], ("a", "x", 5), BadNameError, None),
            (["a.y"], ("a", ["x"]), TypeError, None),
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
            "tuple_holding_a_list",
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
        builder = builder_of(*bound)
        before = builder.freeze()
        with pytest.raises(error) as exc:
            builder.add(key, "new")
        if pair is not None:
            assert (exc.value.existing, exc.value.incoming) == (Path(pair[0]), Path(pair[1]))
        if error is BadPathError:
            assert exc.value.segment == 2  # 'b-'
        assert builder.freeze() == before

    def test_the_first_bad_segment_is_reported(self):
        with pytest.raises(BadPathError) as exc:
            builder_of("a.y").add("a.x-.b-", 0)
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
                check_representation(Dtry.from_path_map(entries))
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
