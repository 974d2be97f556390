"""The flat and nested textual formats: grammar, diagnostics, round trips."""

import enum
import json
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dtry import formats
from dtry.core import Dtry, Leaf, Node, NonEmptyRecord
from dtry.formats import (
    Diagnostic,
    ParseError,
    emit_flat,
    emit_nested,
    parse_flat,
    parse_nested,
    scan_flat,
)
from dtry.paths import Path

from helpers import (
    EXAMPLE_FLAT,
    EXAMPLE_PATH_MAP,
    chain,
    deepest,
    emits,
    example_directory,
    oracle_emit_nested,
    random_dtry,
    reference_parse_flat,
    reference_parse_nested,
)


def codes(exc: ParseError) -> list[tuple[int, str]]:
    return [(d.line, d.code) for d in exc.diagnostics]


class TestFlatParsing:
    def test_worked_example(self):
        d = parse_flat("a.x = 2\na.y = 1\nb   = 3\n")
        assert d.path_map() == {Path("a.x"): "2", Path("a.y"): "1", Path("b"): "3"}

    def test_example_file(self):
        assert parse_flat(EXAMPLE_FLAT).path_map() == EXAMPLE_PATH_MAP

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\na = 1\n# another\n\nb = 2\n"
        assert parse_flat(text).path_map() == {Path("a"): "1", Path("b"): "2"}

    def test_comment_only_at_line_start(self):
        # '#' elsewhere is value text, not a comment
        d = parse_flat("a = 1 # not a comment\n")
        assert d.path_map() == {Path("a"): "1 # not a comment"}

    def test_crlf_tolerated(self):
        d = parse_flat("a = 1\r\nb = 2\r\n")
        assert d.path_map() == {Path("a"): "1", Path("b"): "2"}

    def test_lines_of_whitespace_are_blank(self):
        d = parse_flat("a = 1\n   \n\t\r\n\r\nb = 2\r\n")
        assert d.path_map() == {Path("a"): "1", Path("b"): "2"}

    def test_root_path_line(self):
        d = parse_flat(" = 5\n")
        assert d == Dtry.leaf("5")

    def test_empty_document_is_the_empty_directory(self):
        assert parse_flat("") == Dtry.empty()
        assert parse_flat("\n# nothing here\n") == Dtry.empty()

    def test_value_keeps_inner_spacing(self):
        d = parse_flat("a = two  words\n")
        assert d.path_map()[Path("a")] == "two  words"


def best_of_three(text):
    """The least of three times, in seconds, that ``parse_flat`` takes on ``text``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        try:
            parse_flat(text)
        except ParseError:
            pass
        times.append(time.perf_counter() - start)
    return min(times)


def children_scans(k: int) -> float:
    """Seconds that ``k`` scans of a node's children take, at ``k // 2`` children each.

    The least cost of the fault the linear-time tests below guard against:
    one ``min`` over a node's children per rejected line, under a node that
    fills to ``k`` children, so ``k/2`` of them a line on average. That is
    about ``k/2`` times the work of a clean parse, so the bound it sets
    follows the fault and not the speed of the clean path. Best of three
    runs of 100 scans, scaled to ``k``.
    """
    children = dict.fromkeys(f"n{i:05d}" for i in range(k // 2))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(100):
            min(children)
        times.append(time.perf_counter() - start)
    return min(times) * k / 100


class TestFlatDiagnostics:
    def test_missing_equals(self):
        with pytest.raises(ParseError) as exc:
            parse_flat("a.b\n")
        assert codes(exc.value) == [(1, "E_SYNTAX")]

    def test_bad_path(self):
        with pytest.raises(ParseError) as exc:
            parse_flat("a..b = 1\n")
        assert codes(exc.value) == [(1, "E_BAD_PATH")]

    def test_duplicate_path(self):
        with pytest.raises(ParseError) as exc:
            parse_flat("a = 1\na = 2\n")
        assert codes(exc.value) == [(2, "E_DUPLICATE_PATH")]

    def test_prefix_conflict_reported_at_the_later_line(self):
        with pytest.raises(ParseError) as exc:
            parse_flat("a = 1\na.b = 2\n")
        assert codes(exc.value) == [(2, "E_PREFIX_CONFLICT")]

    def test_multiple_errors_all_reported(self):
        text = "a = 1\nnonsense\na = 2\nb..c = 3\na.x = 4\n"
        with pytest.raises(ParseError) as exc:
            parse_flat(text)
        assert codes(exc.value) == [
            (2, "E_SYNTAX"),
            (3, "E_DUPLICATE_PATH"),
            (4, "E_BAD_PATH"),
            (5, "E_PREFIX_CONFLICT"),
        ]

    def test_syntax_errors_and_bad_paths_interleaved_stay_in_line_order(self):
        # The syntax errors are found apart from the keys, so each reader
        # sorts them in among the bad paths.
        text = "a-b = 1\nnonsense\nc = 2\nd..e = 3\nmore nonsense\nf = 4\n"
        want = [(1, "E_BAD_PATH"), (2, "E_SYNTAX"), (4, "E_BAD_PATH"), (5, "E_SYNTAX")]
        assert [(d.line, d.code) for d in scan_flat(text)[1]] == want
        with pytest.raises(ParseError) as exc:
            parse_flat(text)
        assert codes(exc.value) == want
        assert [(d.line, d.code) for d in formats._key_conflicts(text)] == want

    def test_many_rejected_prefix_lines_under_a_wide_node_stay_linear(self):
        # Each `a = x` is a prefix of the paths under `a`, whose least one
        # was bound just before it; a parser that scans all of `a`'s
        # children per rejected line takes ~k/2 times as long as binding,
        # and longer than the scans alone, which a linear one stays well under.
        k = 10_000
        mixed = "".join(f"a.n{i:05d} = v\na = x\n" for i in range(k, 0, -1))
        with pytest.raises(ParseError) as exc:
            parse_flat(mixed)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{2 * (k - i + 1)}:E_PREFIX_CONFLICT:"
            f"path 'a' is a prefix of the bound path 'a.n{i:05d}'"
            for i in range(k, 0, -1)
        ]

        assert best_of_three(mixed) < children_scans(k) / 2

    def test_a_failing_deep_file_is_checked_in_memory_linear_in_its_size(self):
        # 60 keys of 2,000 segments, then a prefix of the first: a node per
        # segment holds O(depth) per key, a text per prefix O(depth²), which
        # here peaks near 250 MB.
        keys = [f"k{i}" + ".s" * 1999 for i in range(60)]
        text = "".join(f"{key} = v\n" for key in keys) + "k0 = x\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_flat(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [str(d) for d in exc.value.diagnostics] == [
            f"61:E_PREFIX_CONFLICT:path 'k0' is a prefix of the bound path '{keys[0]}'"
        ]
        assert peak < 64_000_000

    def test_many_lines_with_a_bad_segment_past_a_bound_leaf_stay_linear(self):
        # Each `a.nNNNNN.b-c` passes its bound leaf `a.nNNNNN`: only its
        # bad segment is reported, and it is parsed as a path once, with no
        # scan of `a`'s bound children per rejected line.
        k = 10_000
        mixed = "".join(f"a.n{i:05d} = v\na.n{i:05d}.b-c = v\n" for i in range(k, 0, -1))
        with pytest.raises(ParseError) as exc:
            parse_flat(mixed)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{2 * (k - i + 1)}:E_BAD_PATH:"
            f"bad path 'a.n{i:05d}.b-c' at segment 2: invalid character '-'"
            for i in range(k, 0, -1)
        ]

        assert best_of_three(mixed) < children_scans(k) / 2

    def test_diagnostic_rendering(self):
        assert str(Diagnostic("E_SYNTAX", 4, "boom")) == "4:E_SYNTAX:boom"

    def test_accepts_iff_keys_are_clean(self):
        rng = random.Random(83)
        from helpers import oracle_prefix_free, random_path

        for _ in range(300):
            paths = [random_path(rng, max_len=3) for _ in range(rng.randint(1, 6))]
            text = "".join(f"{p} = v\n" for p in paths)
            clean = oracle_prefix_free(paths) and len(set(paths)) == len(paths)
            if clean:
                assert set(parse_flat(text).path_map()) == set(paths)
            else:
                with pytest.raises(ParseError):
                    parse_flat(text)


def parse_outcome(parse, text):
    """What ``parse`` returns for ``text``, or the diagnostics it raises, as text."""
    try:
        return parse(text)
    except ParseError as exc:
        return [str(d) for d in exc.diagnostics]


# Lines near the flat grammar: paths of good, empty and bad segments with
# padding, comments, blank lines, lines without '=' and CRs.
flat_lines_st = st.one_of(
    st.builds(
        lambda segments, pad, value: f"{pad}{'.'.join(segments)}{pad}={value}",
        st.lists(st.sampled_from(["a", "b", "c", "", "b-c", "b c"]), max_size=3),
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", " 1", " x y", " =", " # v", " 1\r"]),
    ),
    st.sampled_from(["", "# a = 1", "a.b", "   ", "\r", "= v"]),
)


class TestFlatParserAgainstPathPerLine:
    @given(st.lists(flat_lines_st, max_size=8).map("\n".join))
    @example("a = 1\na.b-c = 2")
    @example("a.b = 1\na.b c = 2")
    @example("a.b = 1\na = 2\na = 3")
    @example(" = x\n = y")
    @example(". = 1")
    @example("a. = 1")
    @example("a.b = 1\r\na.c = 2\r\na.b = 3\r\nx\r\n")
    def test_same_directory_or_diagnostics(self, text):
        assert parse_outcome(parse_flat, text) == parse_outcome(reference_parse_flat, text)

    @pytest.mark.parametrize(
        "text, diagnostics",
        [
            ("a = 1\na.b-c = 2", ["2:E_BAD_PATH:bad path 'a.b-c' at segment 1: invalid character '-'"]),
            (" = x\n = y", ["2:E_DUPLICATE_PATH:duplicate path the root; first bound at line 1"]),
        ],
    )
    def test_named_cases(self, text, diagnostics):
        assert parse_outcome(parse_flat, text) == diagnostics


def json_text(tree) -> str:
    """The JSON text of a drawn ``("object", pairs)``, ``("array", items)`` or ``("value", v)``.

    An object is written from its pairs, so a key may repeat.
    """
    kind, body = tree
    if kind == "object":
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v)}" for k, v in body) + "}"
    if kind == "array":
        return "[" + ", ".join(json_text(v) for v in body) + "]"
    return json.dumps(body)


# Keys that are names, and near-names: a newline inside or at the end, empty,
# a space, a dot, a non-ASCII letter. A small pool, so keys repeat.
json_keys_st = st.sampled_from(["a", "b", "x_1", "a\nb", "a\n", "", "b c", "a.b", "é"])
json_values_st = st.recursive(
    st.sampled_from([0, 1, -2, 1.5, None, True, "s"]).map(lambda v: ("value", v)),
    lambda inner: st.one_of(
        st.lists(st.tuples(json_keys_st, inner), max_size=4).map(lambda p: ("object", p)),
        st.lists(inner, max_size=3).map(lambda items: ("array", items)),
    ),
    max_leaves=10,
)
json_documents_st = st.lists(st.tuples(json_keys_st, json_values_st), max_size=5).map(
    lambda pairs: json_text(("object", pairs))
)


class TestNestedParserAgainstNamePerKey:
    @given(json_documents_st)
    @example(json.dumps({"x": {"a\nb": 1}}))
    @example(json.dumps({"x": {"a\n": 1, "b": 2}}))
    @example('{"b": {}, "a": [{"c": 1, "c": 2}], "a": 3, "": {"b c": 1}}')
    # Objects whose keys are all names, which are read as their own nodes'
    # entries, around each kind of failure below them.
    @example('{"a": {"b": {}, "c": 1}, "d": 2}')
    @example('{"a": {"b": {"c": 1, "c": 2}}, "d": 3}')
    @example('{"a": {"b": {"c": 1, "b c": 2}}, "d": 3}')
    @example('{"a": {"b": NaN, "c": 1}}')
    @example('{"a": {"b": {"c": 1e400}}, "d": 2}')
    @example('{"a": {"b": [{"c": 1, "c": 2}, 3]}}')
    # Bad keys among good ones: each reported in key order, between the
    # diagnostics of the subtrees beside it, and no value under one read.
    @example('{"a b": 1, "c": {"d e": 2, "f": {}}, "g h": {"i": 1}, "j": [{"k": 1, "k": 2}]}')
    @example('{"a b": {}, "c": 1}')
    @example('{"a b": {"c": NaN}}')
    @example('{"a b": 1, "a b": 2}')
    @example('{"": 1, "b": {"": 2}}')
    # A repeated key: each value only the last one walked, whatever its kind.
    @example('{"a": 1, "a": {"b": 1}}')
    @example('{"a": {"b": 1}, "a": 2}')
    @example('{"a": {"b b": 1}, "a": {"c": 1}}')
    # Objects held in arrays, at the root and under a key, nested, repeating
    # a key, and empty.
    @example('[{"a": 1, "a": 2}, {"b": {"c": 1, "c": 2}}]')
    @example('{"v": [{"b": 1, "a": [{"d": 2, "c": 3}]}, [{}]]}')
    def test_same_directory_or_diagnostics(self, text):
        got = parse_outcome(parse_nested, text)
        want = parse_outcome(reference_parse_nested, text)
        assert got == want
        if isinstance(want, Dtry):  # and each value of the same type, its keys in the same order
            assert value_texts(got) == value_texts(want)

    def test_an_object_in_an_array_is_a_plain_dict_in_text_key_order(self):
        (value,) = parse_nested('{"v": [{"b": 1, "a": 2}]}').lookup("v").value
        assert type(value) is dict and list(value) == ["b", "a"]
        (value,) = parse_nested('[{"b": {"d": 1, "c": 2}, "a": [{"z": 1, "y": 2}]}]').value
        assert type(value) is dict and list(value) == ["b", "a"]
        assert type(value["b"]) is dict and list(value["b"]) == ["d", "c"]
        assert type(value["a"][0]) is dict and list(value["a"][0]) == ["z", "y"]


def value_texts(directory: Dtry) -> list:
    """Each path's value as its type and its JSON text, keys in the value's own order."""
    return [(p, type(v), json.dumps(v)) for p, v in directory.path_map().items()]


def path_map_emit_flat(directory):
    """The flat writer as it was when it went through ``Dtry.path_map``."""
    parts = []
    for path, value in directory.path_map().items():
        if not isinstance(value, str):
            raise TypeError(f"flat emission needs string values, got {value!r}")
        if "\n" in value or value != value.strip():
            shown = f"'{path}'" if len(path) else "the root"
            raise ValueError(f"value at {shown} is not representable on a flat line: {value!r}")
        parts.append(f"{path} = {value}\n")
    return "".join(parts)


def outcome(write, directory):
    """What ``write`` returns for ``directory``, or the type and message it raises."""
    try:
        return write(directory)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Mostly writable strings; sometimes one with a newline or padding, or no string.
flat_values_st = st.one_of(
    st.sampled_from(["0", "x y", "#note", "= v", "é"]),
    st.text(alphabet="ab \t\n=", max_size=4),
    st.integers(),
    st.none(),
)


def dtries_of(values, names):
    """Directories of ``values`` under ``names``, each entry a value held bare or in a ``Leaf``."""
    return st.one_of(
        st.just(Dtry.empty()),
        st.recursive(
            values.map(Leaf),
            lambda child: st.dictionaries(
                names, st.one_of(child, values), min_size=1, max_size=4
            ).map(lambda d: Node(NonEmptyRecord(d))),
            max_leaves=12,
        ).map(Dtry),
    )


flat_dtries_st = dtries_of(flat_values_st, st.from_regex(r"[a-c_0-9]{1,2}", fullmatch=True))


class TestFlatEmission:
    @given(flat_dtries_st)
    def test_matches_the_path_map_writer(self, d):
        assert outcome(emit_flat, d) == outcome(path_map_emit_flat, d)

    def test_worked_example(self):
        d = Dtry.from_path_map({"b": "3", "a.x": "2"})
        assert emit_flat(d) == "a.x = 2\nb = 3\n"

    def test_lines_are_lex_sorted_and_lf(self):
        text = emit_flat(example_directory())
        assert text == EXAMPLE_FLAT
        assert "\r" not in text

    def test_empty_directory_emits_nothing(self):
        assert emit_flat(Dtry.empty()) == ""

    def test_parse_after_emit_is_identity(self):
        rng = random.Random(89)
        for _ in range(300):
            d = random_dtry(rng, values=("0", "1", "x y", "#note"))
            assert parse_flat(emit_flat(d)) == d

    def test_canonical_twice(self):
        rng = random.Random(97)
        for _ in range(100):
            d = random_dtry(rng, values=("0", "1"))
            once = emit_flat(d)
            assert emit_flat(parse_flat(once)) == once

    def test_rejects_unrepresentable_values(self):
        with pytest.raises(ValueError):
            emit_flat(Dtry.leaf("two\nlines"))
        with pytest.raises(ValueError):
            emit_flat(Dtry.leaf(" padded "))
        with pytest.raises(TypeError):
            emit_flat(Dtry.leaf(5))


class TestNestedFormat:
    def test_worked_example(self):
        text = '{"oscillator": {"mass": {"momentum": 0.0}, "spring": {"displacement": 1.0}}, "thermal_capacity": {"entropy": 16.56}}'
        d = parse_nested(text)
        assert d.path_map() == {
            Path("oscillator.mass.momentum"): 0.0,
            Path("oscillator.spring.displacement"): 1.0,
            Path("thermal_capacity.entropy"): 16.56,
        }

    def test_top_level_scalar_is_a_leaf(self):
        assert parse_nested("5") == Dtry.leaf(5)
        assert emit_nested(Dtry.leaf(5)) == "5\n"

    def test_top_level_empty_object_is_the_empty_directory(self):
        assert parse_nested("{}") == Dtry.empty()
        assert emit_nested(Dtry.empty()) == "{}\n"

    def test_arrays_and_null_are_leaves(self):
        d = parse_nested('{"a": [1, {"k": 2}], "b": null, "c": true}')
        assert d.path_map() == {Path("a"): [1, {"k": 2}], Path("b"): None, Path("c"): True}

    def test_empty_subdir_below_root_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_nested('{"a": {}}')
        assert [d.code for d in exc.value.diagnostics] == ["E_EMPTY_SUBDIR"]
        assert "'a'" in exc.value.diagnostics[0].message

    def test_bad_key_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_nested('{"a b": 1}')
        assert [d.code for d in exc.value.diagnostics] == ["E_BAD_NAME"]

    def test_json_syntax_error_carries_the_line(self):
        with pytest.raises(ParseError) as exc:
            parse_nested('{\n  "a": 1,\n}')
        (diag,) = exc.value.diagnostics
        assert diag.code == "E_SYNTAX"
        assert diag.line == 3

    def test_multiple_semantic_errors_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_nested('{"a b": 1, "c": {}, "d": {"x!": 2}}')
        found = sorted(d.code for d in exc.value.diagnostics)
        assert found == ["E_BAD_NAME", "E_BAD_NAME", "E_EMPTY_SUBDIR"]

    def test_object_valued_leaf_is_unrepresentable(self):
        with pytest.raises(ValueError):
            emit_nested(Dtry.leaf({"k": 1}))

    def test_parse_after_emit_is_identity(self):
        rng = random.Random(101)
        for _ in range(300):
            d = random_dtry(rng, values=(0, 1.5, "s", None, True, [1, 2]))
            assert parse_nested(emit_nested(d)) == d

    def test_emitted_keys_are_sorted(self):
        d = Dtry.from_path_map({"b": 1, "a": 2, "z": 0})
        obj = json.loads(emit_nested(d))
        assert list(obj) == ["a", "b", "z"]

    def test_agrees_with_path_map_route(self):
        rng = random.Random(103)
        for _ in range(200):
            d = random_dtry(rng, values=(0, 1, "v"))
            rebuilt = Dtry.from_path_map(d.path_map())
            assert parse_nested(emit_nested(d)) == rebuilt

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": 1, "a": 2}', "duplicate path 'a'"),
            ('{"x": {"b": 1, "a": 2, "b": 3}}', "duplicate path 'x.b'"),
            ('{"x": [1, {"k": 1, "k": 2}]}', "duplicate key 'k' in the value at 'x'"),
        ],
        ids=("root", "below", "in_array"),
    )
    def test_repeated_key_is_a_duplicate_path(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_nested(text)
        assert [str(d) for d in exc.value.diagnostics] == [f"1:E_DUPLICATE_PATH:{message}"]

    @pytest.mark.parametrize(
        "constant",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e400",
            "-1e999",
            pytest.param("7" * 5000, id="5000_digits"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, constant):
        text = '{\n  "s": "NaN Infinity 1e400",\n  "v": [1, ' + constant + "]\n}"
        with pytest.raises(ParseError) as exc:
            parse_nested(text)
        if constant.isdigit():
            limit = sys.get_int_max_str_digits()
            message = f"an integer of 5000 digits exceeds Python's limit of {limit}"
        elif "e" in constant:
            message = f"{constant} is out of range for a float"
        else:
            message = f"{constant} is not a JSON number"
        assert [str(d) for d in exc.value.diagnostics] == [f"3:E_SYNTAX:{message}"]
        with pytest.raises(ValueError):
            emit_nested(Dtry.leaf(float(constant)))

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            ('{"a": 1e400,\n "b": NaN}', "1:E_SYNTAX:1e400 is out of range for a float"),
            ('{"a": NaN,\n "b": 1e400}', "1:E_SYNTAX:NaN is not a JSON number"),
            ('{"a": NaN, "b": }', "1:E_SYNTAX:Expecting value"),
            ('{"a": 1e400, "b": }', "1:E_SYNTAX:Expecting value"),
            (
                '{"a": NaN, "b": ' + '{"s": ' * 5000 + "1" + "}" * 5001,
                "1:E_TOO_DEEP:nesting too deep for Python's recursion limit"
                f" of {sys.getrecursionlimit()}",
            ),
        ],
        ids=(
            "overflow_first",
            "nan_first",
            "nan_then_syntax",
            "overflow_then_syntax",
            "nan_then_too_deep",
        ),
    )
    def test_refused_numbers_are_reported_in_one_order(self, text, diagnostic):
        # the read's first error (a JSON syntax error, nesting too deep),
        # else the first refused literal in the text
        with pytest.raises(ParseError) as exc:
            parse_nested(text)
        assert [str(d) for d in exc.value.diagnostics] == [diagnostic]

    def test_nesting_within_the_bound_round_trips(self):
        d = Dtry.from_path_map({".".join(["s"] * 400): 1})
        assert parse_nested(emit_nested(d)) == d

    def test_nesting_past_the_bound_is_too_deep(self):
        with pytest.raises(ParseError) as exc:
            parse_nested('{"s": ' * 5000 + "1" + "}" * 5000)
        assert codes(exc.value) == [(1, "E_TOO_DEEP")]
        with pytest.raises(ParseError) as exc:
            emit_nested(Dtry.from_path_map({".".join(["s"] * 3000): 1}))
        assert codes(exc.value) == [(1, "E_TOO_DEEP")]


class Color(enum.IntEnum):
    RED = 1
    DEEP = -(2**70)


class Label(str):
    pass


strings_st = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t\u2028éß€😀 a'),
)
scalars_st = st.one_of(
    strings_st,
    st.integers(),
    st.sampled_from([2**100, -(2**70), -1, 0]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 0.1]),
    st.sampled_from(list(Color)),
    strings_st.map(Label),
)
# Arrays hold scalars, arrays and objects; hypothesis makes the keys of an
# object in no particular order, and the writer must sort them.
json_st = st.recursive(
    scalars_st,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
leaf_values_st = st.one_of(scalars_st, st.lists(json_st, max_size=3))
writer_names_st = st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)
nested_dtries_st = dtries_of(leaf_values_st, writer_names_st)


class TestNestedWriter:
    @given(nested_dtries_st)
    @example(Dtry.from_path_map({"a": [1, True]}))
    @example(Dtry.from_path_map({"a.b": [100000000000000000000, -1]}))
    @example(Dtry.from_path_map({"a": [0]}))
    @example(Dtry.from_path_map({"a": []}))
    @example(Dtry.from_path_map({"a.b": [], "c": [[]]}))
    @example(Dtry.from_path_map({"a.b": [" ", '"']}))
    @example(Dtry.from_path_map({"a": ["x", 1.5, True, False, None, -0.0]}))
    @example(Dtry.from_path_map({"a.b": [[1, 2], ["x", [None]]], "c": [[[]]]}))
    @example(Dtry.from_path_map({"a.b": [1.5, 2]}))
    @example(Dtry.from_path_map({"a": -0.0}))
    @example(Dtry.leaf(-0.0))
    def test_matches_json_dumps_byte_for_byte(self, d):
        assert emit_nested(d) == oracle_emit_nested(d)

    @pytest.mark.parametrize(
        "entries",
        [
            {"a.b": {"k": 1}},
            {"a": 1, "b.c": [1, float("nan")]},
            {"x.y": float("inf")},
            {"x": -float("inf")},
        ],
        ids=("object", "nan_in_array", "infinity", "negative_infinity"),
    )
    def test_refuses_what_json_dumps_refuses(self, entries):
        d = Dtry.from_path_map(entries)
        with pytest.raises(ValueError) as expected:
            oracle_emit_nested(d)
        with pytest.raises(ValueError) as got:
            emit_nested(d)
        assert str(got.value) == str(expected.value)

    def test_reads_back_up_to_a_few_levels_short_of_the_reader(self):
        def reads(depth):
            try:
                parse_nested('{"s": ' * depth + "1" + "}" * depth)
            except ParseError:
                return False
            return True

        read = deepest(reads)
        written = deepest(lambda depth: emits(chain(depth)))
        assert read - 10 <= written <= read
        assert parse_nested(emit_nested(chain(written))) == chain(written)

    def test_an_array_leaf_counts_toward_the_bound(self):
        plain = deepest(lambda depth: emits(chain(depth)))
        twice = deepest(lambda depth: emits(chain(depth, [[1]])))
        empty = deepest(lambda depth: emits(chain(depth, [[], 2])))
        assert twice == empty == plain - 2
        # arrays of scalars take a fast path, which still counts their level
        assert deepest(lambda depth: emits(chain(depth, [1]))) == plain - 1
        assert deepest(lambda depth: emits(chain(depth, ["s", None]))) == plain - 1

    def test_past_the_bound_is_refused_before_any_text_is_built(self):
        deep = chain(3000)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                emit_nested(deep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert codes(exc.value) == [(1, "E_TOO_DEEP")]
        assert peak < 1_000_000


class TestScan:
    def test_scan_keeps_document_order_and_lines(self):
        entries, diags = scan_flat("b = 1\n\na = 2\n")
        assert [(e.line, str(e.path), e.value) for e in entries] == [
            (1, "b", "1"),
            (3, "a", "2"),
        ]
        assert diags == []

    def test_scan_reports_without_stopping(self):
        entries, diags = scan_flat("?\na = 1\n??\n")
        assert len(entries) == 1
        assert [d.line for d in diags] == [1, 3]


def reaches_a_fixpoint(parse, emit, text) -> bool:
    """Whether parse → emit → parse from ``text`` gives back the directory and the text.

    True as well for a ``text`` that does not parse.
    """
    try:
        directory = parse(text)
    except ParseError:
        return True
    once = emit(directory)
    again = parse(once)
    return again == directory and emit(again) == once


# Strings a flat line holds: no newline and no whitespace at either end.
flat_strings_st = st.text(alphabet='ab #=\t\r"\\é\u2028', max_size=4).filter(
    lambda v: v == v.strip()
)
string_dtries_st = dtries_of(flat_strings_st, writer_names_st)


class TestFixpoints:
    @given(st.lists(flat_lines_st, max_size=8).map("\n".join))
    @example("b = 2\r\na.x = 1\r\n# c\r\n")
    @example(" = x")
    def test_flat_parse_emit_parse(self, text):
        assert reaches_a_fixpoint(parse_flat, emit_flat, text)

    @given(st.one_of(json_documents_st, nested_dtries_st.map(emit_nested)))
    @example('{"b": [1, {"y": 2, "x": null}], "a": {"c": -0.0}}')
    @example(emit_nested(chain(300)))
    def test_nested_parse_emit_parse(self, text):
        assert reaches_a_fixpoint(parse_nested, emit_nested, text)

    @given(string_dtries_st)
    @example(Dtry.leaf("x"))
    @example(Dtry.from_path_map({"a.b": "1 2", "a.c": "# v", "b": "a\rb"}))
    def test_both_formats_read_back_a_directory_of_flat_strings(self, d):
        assert parse_flat(emit_flat(d)) == d == parse_nested(emit_nested(d))
