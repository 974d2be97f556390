"""Trie construction and ``check``: differential properties, work counts, deep paths.

The properties compare against the oracles in ``helpers``: the pairwise
``check`` loop, and a file-order reference for which bound path each new
path conflicts with. The work counts pin the cost of building and
checking without timing anything.
"""

import contextlib
import io
import json
import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtry import formats
from dtry.cli import main
from dtry.core import (
    Dtry,
    NonEmptyRecord,
    _from_sorted,
    _sorted_clean,
    _TrieBuilder,
    distrib,
    merge_disjoint,
)
from dtry.errors import PrefixConflictError
from dtry.fincat import DtryObj, FinSetSkeleton
from dtry.formats import ParseError, emit_flat, emit_nested, parse_flat, parse_nested, scan_flat
from dtry.maybe import NOTHING, Just
from dtry.paths import Name, Path

from helpers import nodes, oracle_check, oracle_conflicts, reference_parse_nested

# Three letters and short paths, so duplicates and prefix conflicts are dense.
paths_st = st.lists(st.sampled_from("abc"), max_size=3).map(".".join)
lines_st = st.one_of(
    paths_st.map(lambda p: f"{p} = v"),
    st.sampled_from(["", "# note", "no binding", "a..b = 1"]),
)
documents_st = st.lists(lines_st, max_size=16).map(lambda lines: "\n".join(lines) + "\n")
# Names of characters on both sides of '.' in byte order ('0' < 'Z' < '_' <
# 'a' < 'b'), so that sorting by text would part a path from its
# extensions if '.' did not sort below every character of a name.
ordered_paths_st = st.lists(st.text(alphabet="ab_0Z", min_size=1, max_size=2), max_size=3).map(
    ".".join
)
# Names over 'A', 'Z', '_', 'a' and '0', for the same reason, and sometimes
# a key of its own at the root.
sorted_build_paths_st = st.lists(st.text(alphabet="AZ_a0", min_size=1, max_size=2), max_size=4).map(
    tuple
)
ordered_documents_st = st.lists(ordered_paths_st.map(lambda p: f"{p} = v"), max_size=12).map(
    lambda lines: "\n".join(lines) + "\n"
)


def run_cli(argv, text):
    """``main(argv)`` with ``text`` as stdin: the exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run_check(text):
    code, _, err = run_cli(["check", "-"], text)
    return code, err


def show(path):
    return f"'{path}'" if len(path) else "the root"


def conflict_pair(build):
    try:
        build()
    except PrefixConflictError as exc:
        return tuple(exc.existing), tuple(exc.incoming)
    return None


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(documents_st)
    def test_check_matches_the_pairwise_oracle(self, text):
        want = oracle_check(text)
        assert run_check(text) == (1 if want else 0, "".join(f"{t}\n" for t in want))

    @settings(max_examples=300, deadline=None)
    @given(ordered_documents_st)
    @example("a.b = 1\na0 = 2\na_ = 3\na = 4\n")
    @example("a.b = 1\naZ.b = 2\na = 3\na_ = 4\n = 5\na.b = 6\n")
    @example("a0 = 1\na.0 = 2\n = 3\na = 4\n")
    def test_check_sorts_by_text_as_by_path(self, text):
        want = oracle_check(text)
        assert run_check(text) == (1 if want else 0, "".join(f"{t}\n" for t in want))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(paths_st, max_size=10), paths_st)
    def test_conflicts_match_the_file_order_reference(self, dotted, extra):
        paths = [Path(p) for p in dotted]

        # parse_flat: each line in file order binds, duplicates a bound
        # path, or conflicts with the pair the reference names.
        want = []
        first_line = {}
        for line, (path, hit) in enumerate(zip(paths, oracle_conflicts(paths)), 1):
            if hit is None:
                first_line[path] = line
            elif hit == tuple(path):
                want.append(
                    f"{line}:E_DUPLICATE_PATH:duplicate path {show(path)}; "
                    f"first bound at line {first_line[path]}"
                )
            else:
                want.append(f"{line}:E_PREFIX_CONFLICT:{PrefixConflictError(hit, path)}")
        text = "".join(f"{p} = v\n" for p in paths)
        try:
            got = list(parse_flat(text).path_map())
        except ParseError as exc:
            assert [str(d) for d in exc.diagnostics] == want
        else:
            assert want == [] and got == sorted(first_line)

        # from_path_map: the first conflict in sorted key order.
        ordered = sorted(set(paths))
        hits = oracle_conflicts(ordered)
        want_pair = next(((h, tuple(p)) for p, h in zip(ordered, hits) if h is not None), None)
        assert conflict_pair(lambda: Dtry.from_path_map(dict.fromkeys(paths, "v"))) == want_pair

        # insert: one more path into the prefix-free part.
        bound = [p for p, h in zip(ordered, hits) if h is None]
        base = Dtry.from_path_map(dict.fromkeys(bound, "v"))
        incoming = Path(extra)
        hit = oracle_conflicts(bound + [incoming])[-1]
        want_pair = None if hit is None else (hit, tuple(incoming))
        assert conflict_pair(lambda: base.insert(incoming, "new")) == want_pair

    @settings(max_examples=400, deadline=None)
    @given(st.lists(sorted_build_paths_st, max_size=16))
    @example([()])
    @example([("s",) * 3000])
    @example([("s",) * 3000, ("s", "t"), ("a",)])
    @example([("a", "b"), ("a_",), ("a0",), ("ab", "c"), ("A", "x")])
    def test_sorted_build_matches_the_builder(self, paths):
        # The clean test accepts exactly the key sets the builder binds whole.
        items = [(".".join(p), i) for i, p in enumerate(paths)]
        builder = _TrieBuilder()
        kept = []
        for path, (text, value) in zip(paths, items):
            try:
                builder.add(path, value)
            except PrefixConflictError:
                continue
            kept.append((text, value))
        assert (_sorted_clean(items) is not None) == (len(kept) == len(items))
        # The sorted build of the bound keys is the builder's trie.
        tree = _from_sorted(_sorted_clean(kept))
        assert tree == builder.freeze()
        for node in nodes(tree):  # == compares key sets: the order is checked here
            keys = list(node.children)
            assert keys == sorted(keys) and all(type(key) is Name for key in keys)


# ------------------------------------------------------------ work counts


@pytest.fixture
def work(monkeypatch):
    """Counts the entries of the records built, and ``check``'s prefix tests."""
    counts = Counter()
    record_init = NonEmptyRecord.__init__
    text_prefix = formats._text_prefix

    def counting_record_init(self, entries):
        record_init(self, entries)
        counts["record entries"] += len(self)

    def counting_text_prefix(a, b):
        counts["prefix tests"] += 1
        return text_prefix(a, b)

    monkeypatch.setattr(NonEmptyRecord, "__init__", counting_record_init)
    monkeypatch.setattr(formats, "_text_prefix", counting_text_prefix)
    return counts


@pytest.fixture
def validations(monkeypatch):
    """Counts key validations: ``Name.__new__`` calls, and the bulk helper's calls and texts."""
    counts = Counter()
    name_new = Name.__new__
    bulk = formats._names

    def counting_name_new(cls, text):
        counts["Name"] += 1
        return name_new(cls, text)

    def counting_bulk(texts):
        counts["bulk calls"] += 1
        counts["bulk texts"] += len(texts)
        return bulk(texts)

    monkeypatch.setattr(Name, "__new__", counting_name_new)
    monkeypatch.setattr(formats, "_names", counting_bulk)
    return counts


def wide_lines(n):
    return [f"a.k{i} = {i}" for i in range(n)]


def realistic_lines(n):
    return [f"a.b{i // 40}.c{i % 40} = {i}" for i in range(n)]


def trie_edges(paths):
    return len({tuple(p)[:k] for p in paths for k in range(1, len(p) + 1)})


def config_keys(n, seed=1):
    """``n`` prefix-free keys shaped like configuration: ``section.group.key``,
    about one key in ten a level deeper."""
    rng = random.Random(seed)
    keys = []
    section = 0
    while len(keys) < n:
        for group in range(rng.randint(3, 8)):
            for key in range(rng.randint(4, 12)):
                stem = (f"s{section}", f"g{group}", f"k{key}")
                if rng.random() < 0.1:
                    keys.extend((*stem, f"x{sub}") for sub in range(rng.randint(2, 3)))
                else:
                    keys.append(stem)
        section += 1
    return keys[:n]


def balanced_document(n, first=0):
    """A nested JSON object of ``n`` int leaves, ``first`` onwards, split in halves "l" and "r"."""
    if n == 1:
        return first
    half = n // 2
    return {"l": balanced_document(half, first), "r": balanced_document(n - half, first + half)}


class TestWork:
    @pytest.mark.parametrize(
        "lines", [wide_lines(2000), realistic_lines(2000)], ids=("wide", "realistic")
    )
    def test_one_record_entry_per_trie_edge(self, work, lines):
        text = "\n".join(lines) + "\n"
        paths = [entry.path for entry in scan_flat(text)[0]]
        directory = parse_flat(text)
        assert work["record entries"] == trie_edges(paths)
        work.clear()
        Dtry.from_path_map(directory.path_map())
        assert work["record entries"] == trie_edges(paths)

    @pytest.mark.parametrize(
        "lines", [wide_lines(2000), realistic_lines(2000)], ids=("wide", "realistic")
    )
    def test_filter_and_flatten_build_one_record_entry_per_result_edge(self, work, lines):
        directory = parse_flat("\n".join(lines) + "\n")
        # inner leaves and empties, so every record of the result is new
        nested = directory.map_values(lambda v: Dtry.leaf(v) if int(v) % 7 else Dtry.empty())
        work.clear()
        # realistic: every other group loses all of its entries
        kept = directory.filter(lambda v: int(v) % 80 < 30)
        assert 0 < len(kept) < len(directory)
        assert work["record entries"] == trie_edges(kept.paths())
        work.clear()
        flat = nested.flatten()
        assert 0 < len(flat) < len(directory)
        assert work["record entries"] == trie_edges(flat.paths())

    @pytest.mark.parametrize("dotted", [False, True], ids=("tuple", "dotted"))
    def test_from_path_map_of_clean_keys_makes_no_name_and_no_path(self, work, monkeypatch, dotted):
        keys = config_keys(600)
        entries = {(".".join(k) if dotted else k): i for i, k in enumerate(keys)}
        want = {Path(k): i for i, k in enumerate(keys)}
        name_new, path_new, parse = Name.__new__, Path.__new__, Path.parse.__func__

        def counting_name_new(cls, text):
            work["Name"] += 1
            return name_new(cls, text)

        def counting_path_new(cls, segments=()):
            work["Path"] += 1
            return path_new(cls, segments)

        def counting_parse(cls, text):
            work["Path.parse"] += 1
            return parse(cls, text)

        monkeypatch.setattr(Name, "__new__", counting_name_new)
        monkeypatch.setattr(Path, "__new__", counting_path_new)
        monkeypatch.setattr(Path, "parse", classmethod(counting_parse))
        directory = Dtry.from_path_map(entries)
        counts = dict(work)
        # Each key is matched whole, so no name is checked again: no
        # Name.__new__, Path or Path.parse call, and one entry per edge.
        assert counts == {"record entries": trie_edges(keys)}
        assert directory.path_map() == want

    def test_clean_input_binds_no_key_in_the_builder(self, monkeypatch):
        calls = Counter()
        add = _TrieBuilder.add

        def counting_add(self, key, value):
            calls["add"] += 1
            return add(self, key, value)

        monkeypatch.setattr(_TrieBuilder, "add", counting_add)
        lines = realistic_lines(1000)
        text = "\n".join(lines) + "\n"
        assert len(parse_flat(text)) == 1000
        assert run_cli(["validate", "-"], text) == (0, "", "")
        assert len(Dtry.from_path_map({line.partition(" = ")[0]: 1 for line in lines})) == 1000
        assert calls["add"] == 0
        # A failing input goes through the builder, which names the conflict.
        with pytest.raises(ParseError):
            parse_flat(text + lines[0] + "\n")
        assert calls["add"] == len(lines) + 1

    def test_a_repeated_last_line_reads_in_a_few_times_the_clean_time(self):
        lines = realistic_lines(10_000)
        random.Random(1).shuffle(lines)
        clean = "\n".join(lines) + "\n"
        repeated = clean + lines[17].replace(" = ", " = again ") + "\n"

        def read(text):
            try:
                parse_flat(text)
            except ParseError as exc:
                return exc.diagnostics
            return ()

        (diag,) = read(repeated)
        assert (diag.code, diag.line) == ("E_DUPLICATE_PATH", 10_001)
        assert best_of_three(read, repeated) < 3 * best_of_three(read, clean)

    def test_parse_nested_validates_each_distinct_key_once(self, validations):
        directory = parse_nested(json.dumps(balanced_document(1000)))
        assert len(directory) == 1000
        # "l" and "r", in one bulk call at the top object
        assert validations["Name"] + validations["bulk texts"] == 2

    def test_parse_nested_validates_a_wide_object_in_one_call(self, validations):
        directory = parse_nested(json.dumps({f"k{i}": i for i in range(1000)}))
        assert len(directory) == 1000
        assert validations == {"bulk calls": 1, "bulk texts": 1000}

    def test_one_bad_key_among_many_gives_the_reference_diagnostics(self, validations):
        keys = [f"k{i}" for i in range(1000)]
        keys[500] = "k 500"
        text = json.dumps({"top": {key: i for i, key in enumerate(keys)}})
        with pytest.raises(ParseError) as caught:
            parse_nested(text)
        # the bulk call fails, so each new key is made alone, in order
        assert validations == {"bulk calls": 2, "bulk texts": 1001, "Name": 1000}
        want = ["1:E_BAD_NAME:invalid key 'k 500' under 'top': invalid character ' '"]
        assert [str(d) for d in caught.value.diagnostics] == want
        with pytest.raises(ParseError) as reference:
            reference_parse_nested(text)
        assert reference.value.diagnostics == caught.value.diagnostics

    def test_filter_shares_the_subtrees_it_keeps_whole(self, work):
        directory = parse_nested(json.dumps(balanced_document(1000)))
        work.clear()
        assert directory.filter(lambda v: True).root is directory.root
        assert work["record entries"] == 0

    def test_filter_rebuilds_only_the_path_to_a_dropped_leaf(self, work, monkeypatch):
        directory = parse_nested(json.dumps(balanced_document(1000)))
        dropped = directory.paths()[317]
        built = []
        counting_init = NonEmptyRecord.__init__

        def listing_init(self, entries):
            counting_init(self, entries)
            built.append(self)

        monkeypatch.setattr(NonEmptyRecord, "__init__", listing_init)
        kept = directory.filter(lambda v: v != 317)
        assert kept.paths() == [p for p in directory.paths() if p != dropped]
        assert len(built) == len(dropped)  # the root and the nodes below it on the path
        # every node off that path is the one of the input
        old = set(map(id, nodes(directory.root)))
        assert sum(id(node) not in old for node in nodes(kept.root)) == len(dropped)

    def test_emit_flat_walks_the_trie_without_path_map(self, monkeypatch):
        directory = parse_flat("\n".join(realistic_lines(2000)) + "\n")
        calls = Counter()
        path_map = Dtry.path_map

        def counting_path_map(self):
            calls["path_map"] += 1
            return path_map(self)

        monkeypatch.setattr(Dtry, "path_map", counting_path_map)
        text = emit_flat(directory)
        assert calls["path_map"] == 0
        assert parse_flat(text) == directory

    def test_check_scans_each_entry_once_plus_its_conflicts(self, work):
        lines = realistic_lines(400)
        # duplicates, a prefix of many lines, and extensions of one line
        lines += ["a.b3.c7 = x", "a.b3.c7 = y", "a.b5 = z", "a.b9.c1.d = w", "a = root"]
        text = "\n".join(lines) + "\n"
        entries = scan_flat(text)[0]
        conflicting_pairs = len(oracle_check(text))  # no syntax errors here
        assert run_check(text)[0] == 1
        assert 0 < work["prefix tests"] <= len(entries) + conflicting_pairs
        assert work["record entries"] == 0

    def test_check_with_one_bad_key_stays_linear(self):
        # Only the bad key is parsed, for the error that names the segment.
        clean = "".join(f"s{i % 97}.k{i} = v\n" for i in range(10_000))
        mixed = clean + "s1.b-c = v\n"
        assert run_check(clean) == (0, "")
        assert run_check(mixed) == (
            1,
            "10001:E_BAD_PATH:bad path 's1.b-c' at segment 1: invalid character '-'\n",
        )
        assert best_of_three(run_check, mixed) < 10 * best_of_three(run_check, clean)

    def test_flat_validate_builds_no_record(self, work):
        text = "\n".join(realistic_lines(1000)) + "\n"
        assert run_cli(["validate", "-"], text) == (0, "", "")
        assert work["record entries"] == 0  # so no record: none is empty

    def test_nested_to_flat_convert_copies_no_text_value(self, work):
        lines = realistic_lines(1000)
        text = emit_nested(parse_flat("\n".join(lines)))
        work.clear()
        parse_nested(text)
        parsed = work["record entries"]
        work.clear()
        code, out, _ = run_cli(["convert", "--from", "nested", "--to", "flat", "-"], text)
        assert code == 0 and out == "".join(sorted(f"{line}\n" for line in lines))
        assert work["record entries"] == parsed

    @pytest.mark.parametrize("path", ["a.b3.c7", "a.b3", "a", ""])
    def test_flat_get_builds_no_record(self, work, path):
        text = "\n".join(realistic_lines(1000)) + "\n"
        code, out, _ = run_cli(["get", path, "-"], text)
        assert code == 0 and out
        assert work["record entries"] == 0  # so no record: none is empty

    def test_flat_convert_and_merge_build_no_record(self, work, tmp_path):
        text = "\n".join(realistic_lines(1000)) + "\n"
        for target in ("flat", "nested"):
            code, out, _ = run_cli(["convert", "--from", "flat", "--to", target, "-"], text)
            assert code == 0 and out
        source = tmp_path / "in.dtry"
        source.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(["merge", "--prefix", f"x={source}", "--prefix", f"y={source}"], "")
        assert code == 0 and out.count("\n") == 2000
        assert work["record entries"] == 0


def best_of_three(run, text):
    """The least of three times, in seconds, that ``run(text)`` takes."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run(text)
        times.append(time.perf_counter() - start)
    return min(times)


# ------------------------------------------------------------- deep paths


class TestDeepPaths:
    def test_deep_path_builds_maps_counts_and_makes_an_object(self):
        deep = ".".join(["s"] * 3000)
        directory = Dtry.from_path_map({deep: 2})
        assert directory.path_map() == {Path(deep): 2}
        assert len(directory) == 1
        obj = DtryObj.of(FinSetSkeleton(), {deep: 2})
        assert obj.assign == {Path(deep): 2}

    def test_deep_path_maps_filters_flattens_merges_and_compares(self):
        deep = ".".join(["s"] * 3000)
        directory = Dtry.from_path_map({deep: 2})
        assert directory == Dtry.from_path_map({deep: 2})
        assert directory != Dtry.from_path_map({deep: 3})
        assert directory.map_values(lambda v: v + 1).path_map() == {Path(deep): 3}
        assert directory.filter(lambda v: v == 2) == directory
        assert directory.filter(lambda v: v != 2).is_empty
        assert directory.map_values(Dtry.leaf).flatten() == directory
        merged = merge_disjoint({"a": directory, "b": Dtry.empty()})
        assert merged.path_map() == {Path("a." + deep): 2}
        assert Dtry(distrib(directory.map_values(Just).root)) == directory
        assert distrib(directory.map_values(lambda v: NOTHING).root) is None

    def test_deep_trees_compare_without_recursion(self):
        deep = ".".join(["s"] * 3000)
        root = Dtry.from_path_map({deep: 2}).root
        assert root == Dtry.from_path_map({deep: 2}).root
        assert root != Dtry.from_path_map({deep: 3}).root
        assert root != Dtry.from_path_map({deep + ".t": 2}).root
        assert root != Dtry.from_path_map({deep[:-2] + ".t": 2}).root
