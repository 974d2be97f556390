"""End-to-end checks for the dtry command line, run in process."""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtry import cli
from dtry.cli import main
from dtry.errors import BadPathError
from dtry.formats import ParseError, emit_nested, parse_nested
from dtry.paths import Path

from helpers import (
    EXAMPLE_FLAT,
    chain,
    deepest,
    emits,
    reference_cmd_convert,
    reference_cmd_get,
    reference_cmd_merge,
    reference_cmd_validate,
    reference_flat_text,
)

CONFLICTED = "a.b = 1\na.b = 2\na = 3\n"


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def stdin_bytes(data):
    # Like the real stdin: a text stream over a binary buffer.
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


class TestValidate:
    def test_valid_file(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "ok.dtry", EXAMPLE_FLAT)]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_invalid_file_reports_each_problem(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "bad.dtry", CONFLICTED)]) == 1
        err = capsys.readouterr().err
        assert "2:E_DUPLICATE_PATH:" in err
        assert "3:E_PREFIX_CONFLICT:" in err

    def test_a_conflict_with_the_root_names_it_the_root(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "root.dtry", " = x\na = 1\n")]) == 1
        out = capsys.readouterr()
        assert out.err == "2:E_PREFIX_CONFLICT:path 'a' extends the bound path the root\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.dtry"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nested_format(self, tmp_path, capsys):
        good = write(tmp_path, "ok.json", '{"a": {"b": 1}}')
        assert main(["validate", "--format", "nested", good]) == 0
        bad = write(tmp_path, "bad.json", '{"a": {}}')
        assert main(["validate", "--format", "nested", bad]) == 1
        assert "E_EMPTY_SUBDIR" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_bytes(b"a = 1\n"))
        assert main(["validate", "-"]) == 0


class TestConvert:
    def test_flat_to_nested(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["convert", "--from", "flat", "--to", "nested", src]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["oscillator"]["mass"]["momentum"] == "0.0"

    def test_nested_to_flat(self, tmp_path, capsys):
        src = write(tmp_path, "in.json", '{"b": {"x": 2}, "a": [1, 2], "keep": "as is"}')
        assert main(["convert", "--from", "nested", "--to", "flat", src]) == 0
        assert capsys.readouterr().out == "a = [1, 2]\nb.x = 2\nkeep = as is\n"

    def test_flat_output_is_sorted(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", "z = 1\na.b = 2\na.a = 3\n")
        assert main(["convert", "--from", "flat", "--to", "flat", src]) == 0
        assert capsys.readouterr().out == "a.a = 3\na.b = 2\nz = 1\n"

    def test_invalid_input(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", CONFLICTED)
        assert main(["convert", "--from", "flat", "--to", "nested", src]) == 1
        assert capsys.readouterr().out == ""

    def test_round_trip_through_nested(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        main(["convert", "--from", "flat", "--to", "nested", src])
        nested = write(tmp_path, "mid.json", capsys.readouterr().out)
        main(["convert", "--from", "nested", "--to", "flat", nested])
        assert capsys.readouterr().out == EXAMPLE_FLAT


class TestGet:
    def test_complete_path_prints_the_bare_value(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["get", "oscillator.mass.momentum", src]) == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_interior_path_prints_the_subdirectory(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["get", "oscillator", src]) == 0
        assert capsys.readouterr().out == (
            "mass.momentum = 0.0\nspring.displacement = 1.0\n"
        )

    def test_root_path_prints_everything(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["get", "", src]) == 0
        assert capsys.readouterr().out == EXAMPLE_FLAT

    def test_absent_path(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["get", "oscillator.damper", src]) == 3
        assert "no entry" in capsys.readouterr().err

    def test_malformed_path(self, tmp_path, capsys):
        src = write(tmp_path, "in.dtry", EXAMPLE_FLAT)
        assert main(["get", "a..b", src]) == 1
        assert "E_BAD_PATH" in capsys.readouterr().err


class TestMerge:
    def test_two_files(self, tmp_path, capsys):
        one = write(tmp_path, "one.dtry", "x = 1\n")
        two = write(tmp_path, "two.dtry", "y = 2\n")
        code = main(["merge", "--prefix", f"left={one}", "--prefix", f"right={two}"])
        assert code == 0
        assert capsys.readouterr().out == "left.x = 1\nright.y = 2\n"

    def test_same_file_twice_under_different_names(self, tmp_path, capsys):
        one = write(tmp_path, "one.dtry", "x = 1\n")
        code = main(["merge", "--prefix", f"a={one}", "--prefix", f"b={one}"])
        assert code == 0
        assert capsys.readouterr().out == "a.x = 1\nb.x = 1\n"

    def test_duplicate_prefix_rejected(self, tmp_path, capsys):
        one = write(tmp_path, "one.dtry", "x = 1\n")
        assert main(["merge", "--prefix", f"a={one}", "--prefix", f"a={one}"]) == 1
        assert "duplicate prefix" in capsys.readouterr().err

    def test_bad_prefix_name(self, tmp_path, capsys):
        one = write(tmp_path, "one.dtry", "x = 1\n")
        assert main(["merge", "--prefix", f"no.dots={one}"]) == 1
        assert "E_BAD_NAME" in capsys.readouterr().err

    def test_missing_separator(self, tmp_path, capsys):
        assert main(["merge", "--prefix", "justaname"]) == 1
        assert "NAME=FILE" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["merge", "--prefix", "a=/no/such/file"]) == 2


class TestCheck:
    def test_clean_file(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "ok.dtry", EXAMPLE_FLAT)]) == 0
        assert capsys.readouterr().err == ""

    def test_reports_every_offending_pair(self, tmp_path, capsys):
        text = "a.b = 1\na.b = 2\na = 3\nq = 4\n"
        assert main(["check", write(tmp_path, "bad.dtry", text)]) == 1
        err = capsys.readouterr().err.splitlines()
        # a.b/a.b duplicate, then a against both earlier a.b lines
        assert len(err) == 3
        assert err[0].startswith("2:E_DUPLICATE_PATH:")
        assert err[1].startswith("3:E_PREFIX_CONFLICT:")
        assert err[2].startswith("3:E_PREFIX_CONFLICT:")

    def test_syntax_problems_are_included(self, tmp_path, capsys):
        text = "a = 1\nnot a binding\n"
        assert main(["check", write(tmp_path, "bad.dtry", text)]) == 1
        assert "2:E_SYNTAX:" in capsys.readouterr().err

    def test_conflicts_with_the_root_name_it_the_root(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "root.dtry", " = x\na = 1\n = y\n")]) == 1
        assert capsys.readouterr().err == (
            "2:E_PREFIX_CONFLICT:paths the root (line 1) and 'a' conflict\n"
            "3:E_DUPLICATE_PATH:duplicate path the root; first bound at line 1\n"
            "3:E_PREFIX_CONFLICT:paths 'a' (line 2) and the root conflict\n"
        )


NON_UTF8 = b"sec.key = 1\nsec.other = caf\xe9\n\xff = 2\n"
NON_UTF8_IDS = ("validate", "validate_nested", "convert", "get", "merge", "check")


def non_utf8_argvs(source):
    return [
        ["validate", source],
        ["validate", "--format", "nested", source],
        ["convert", "--from", "flat", "--to", "nested", source],
        ["get", "sec", source],
        ["merge", "--prefix", f"a={source}"],
        ["check", source],
    ]


class TestInputFailures:
    @pytest.mark.parametrize("argv", non_utf8_argvs("FILE"), ids=NON_UTF8_IDS)
    def test_non_utf8_file(self, tmp_path, capsys, argv):
        target = tmp_path / "raw.dtry"
        target.write_bytes(NON_UTF8)
        argv = [a.replace("FILE", str(target)) for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "2:E_ENCODING:not UTF-8 at byte offset 27: invalid continuation byte"
        ]

    @pytest.mark.parametrize("argv", non_utf8_argvs("-"), ids=NON_UTF8_IDS)
    def test_non_utf8_stdin(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", stdin_bytes(NON_UTF8))
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("2:E_ENCODING:")

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--from", "nested", "--to", "flat"], ["get", "", "--format", "nested"]],
        ids=("convert", "get"),
    )
    def test_padded_nested_value_has_no_flat_form(self, tmp_path, capsys, argv):
        src = write(tmp_path, "in.json", '{"a": {"b": " x"}}')
        assert main(argv + [src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("1:E_UNREPRESENTABLE:")
        assert "'a.b'" in out.err

    @pytest.mark.parametrize("value", [" x", "x\ny"], ids=("padded", "newline"))
    def test_leaf_without_flat_form(self, tmp_path, capsys, value):
        # get prints a leaf bare, but only a value a flat line can hold
        src = write(tmp_path, "in.json", json.dumps({"a": {"b": value}}))
        assert main(["get", "a.b", "--format", "nested", src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "1:E_UNREPRESENTABLE:value at the root is not representable "
            f"on a flat line: {value!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--format", "nested"],
            ["get", "s", "--format", "nested"],
            ["convert", "--from", "nested", "--to", "flat"],
        ],
        ids=("validate", "get", "convert"),
    )
    def test_nested_input_too_deep(self, tmp_path, capsys, argv):
        src = write(tmp_path, "deep.json", '{"s": ' * 5000 + "1" + "}" * 5000)
        assert main(argv + [src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "1:E_TOO_DEEP:nesting too deep for Python's recursion limit of "
            f"{sys.getrecursionlimit()}\n"
        )

    @pytest.mark.parametrize("literal", ["1e400", "7" * 5000], ids=("float", "int_5000_digits"))
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--format", "nested"],
            ["convert", "--from", "nested", "--to", "nested"],
            ["convert", "--from", "nested", "--to", "flat"],
        ],
        ids=("validate", "to_nested", "to_flat"),
    )
    def test_number_literal_out_of_range(self, tmp_path, capsys, argv, literal):
        src = write(tmp_path, "big.json", '{\n  "a": ' + literal + "\n}\n")
        assert main(argv + [src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("2:E_SYNTAX:") and out.err.count("\n") == 1
        assert "Traceback" not in out.err

    def test_nested_output_too_deep(self, tmp_path, capsys):
        # the flat form holds the deep path; its nested form is past the bound
        src = write(tmp_path, "deep.dtry", ".".join(["s"] * 3000) + " = v\n")
        assert main(["validate", src]) == 0
        assert main(["convert", "--from", "flat", "--to", "flat", src]) == 0
        capsys.readouterr()
        assert main(["convert", "--from", "flat", "--to", "nested", src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("1:E_TOO_DEEP:")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, argv, where",
        [
            ('{"a": "\\ud800"}', ["convert", "--from", "nested", "--to", "nested"], "'a'"),
            ('{"a": "\\ud800"}', ["convert", "--from", "nested", "--to", "flat"], "'a'"),
            ('{"a": "\\ud800"}', ["get", "a", "--format", "nested"], "the root"),
            ('{"a": {"b": "x\\udc00"}}', ["get", "a", "--format", "nested"], "'b'"),
            # flat writes the array as ASCII JSON: the value it cannot write is b's
            (
                '{"a": ["\\ud800"], "b": "\\ud800"}',
                ["convert", "--from", "nested", "--to", "flat"],
                "'b'",
            ),
            ('{"a": ["\\ud800"], "b": "\\ud800"}', ["get", "", "--format", "nested"], "'b'"),
            (
                '{"a": 1, "b": {"c": [2, ["\\ud800"]]}}',
                ["convert", "--from", "nested", "--to", "nested"],
                "'b.c'",
            ),
        ],
        ids=(
            "to_nested", "to_flat", "get_leaf", "get_subtree", "to_flat_after_an_array",
            "get_after_an_array", "in_array",
        ),
    )
    def test_lone_surrogate_has_no_utf8_form(self, tmp_path, capsys, text, argv, where):
        src = write(tmp_path, "in.json", text)
        assert main(argv + [src]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"1:E_ENCODING:value at {where} holds the lone surrogate ")
        assert out.err.count("\n") == 1

    def test_escaped_surrogate_in_a_flat_array_value_is_written(self, tmp_path, capsys):
        # the flat form writes an array as ASCII JSON, where the surrogate stays escaped
        src = write(tmp_path, "in.json", '{"a": ["\\ud800"]}')
        assert main(["convert", "--from", "nested", "--to", "flat", src]) == 0
        assert capsys.readouterr().out == 'a = ["\\ud800"]\n'


class TestDeepNested:
    def test_700_levels_round_trip(self, tmp_path, capsys):
        src = write(tmp_path, "deep.json", '{"s": ' * 700 + "1" + "}" * 700)
        assert main(["validate", "--format", "nested", src]) == 0
        assert main(["convert", "--from", "nested", "--to", "nested", src]) == 0
        text = capsys.readouterr().out
        assert text == emit_nested(chain(700))
        again = write(tmp_path, "again.json", text)
        assert main(["validate", "--format", "nested", again]) == 0
        assert capsys.readouterr() == ("", "")

    def test_a_trie_at_the_writers_bound_reads_back(self, tmp_path, capsys):
        bound = deepest(lambda depth: emits(chain(depth)))
        assert bound > 700
        src = write(tmp_path, "deep.json", emit_nested(chain(bound)))
        assert main(["validate", "--format", "nested", src]) == 0
        assert main(["get", ".".join(["s"] * bound), "--format", "nested", src]) == 0
        assert capsys.readouterr() == ("1\n", "")


# Near-grammar documents: pieces of the flat and the nested grammar, good
# and bad, joined at random. Each piece is short, so the documents stay
# small and the defects dense.
FLAT_PIECES = (
    "a", "b", "a.b", "a.b.c", "a.", ".a", "a..b", "a-b", "", " ", " = ", "=", "#",
    "x", "1", "caf\u00e9", "\ud800", "\t", "\r", "\n", "\r\n",
)
NESTED_PIECES = (
    "{", "}", "[", "]", ":", ",", " ", "\n", '"a"', '"b"', '"a b"', '""', '"\\ud800"',
    "1", "-0.5", "1e400", "7" * 30, "NaN", "-Infinity", "null", "true", "{}", "[]", '"x',
)
flat_line_st = st.tuples(
    st.sampled_from(["a", "a.b", "a.b.c", "b", "", "a-b", "a..b", "# a"]),
    st.sampled_from([" = ", "=", " "]),
    st.sampled_from(["1", "", "x y", "#"]),
).map("".join)
flat_text_st = st.one_of(
    st.lists(st.sampled_from(FLAT_PIECES), max_size=30).map("".join),
    st.lists(flat_line_st, max_size=8).map("\n".join),
)
nested_text_st = st.one_of(
    st.lists(st.sampled_from(NESTED_PIECES), max_size=30).map("".join),
    st.recursive(
        st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["v", " v", "\n"])),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(["a", "b", "a.b", "a b", ""]), inner, max_size=3),
        ),
        max_leaves=8,
    ).map(json.dumps),
)
input_st = st.one_of(
    st.binary(max_size=60),
    flat_text_st.map(lambda t: t.encode("utf-8", "surrogatepass")),
    nested_text_st.map(lambda t: t.encode("utf-8", "surrogatepass")),
)
# A path argument argparse takes as such: none starts with '-'.
get_path_st = st.sampled_from(["", "a", "a.b", "b", "a-b", "a..b", "x y"])


def outcome_on(data: bytes, argv) -> tuple[int, str, str]:
    """``main(argv)`` with ``data`` as stdin: the exit code, stdout and stderr."""
    saved = sys.stdin
    sys.stdin = stdin_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_on(data: bytes, argv) -> int:
    """``main(argv)`` with ``data`` as stdin and its output dropped."""
    return outcome_on(data, argv)[0]


def is_path(text: str) -> bool:
    try:
        Path.parse(text)
    except BadPathError:
        return False
    return True


class TestRepeatedCalls:
    def test_each_call_gives_the_same_result(self, tmp_path, capsys):
        # main builds its parser once; nothing of one call carries to the next
        good = write(tmp_path, "ok.dtry", EXAMPLE_FLAT)
        bad = write(tmp_path, "bad.dtry", CONFLICTED)
        for argv in (["nope"], ["validate", "--help"], ["validate", good], ["validate", bad]):
            results = []
            for _ in range(2):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                results.append((code, *capsys.readouterr()))
            assert results[0] == results[1], argv
            if argv == ["nope"]:
                code, out, err = results[0]
                assert code == ("exit", 2) and out == "" and err.startswith("usage: dtry")


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(input_st, get_path_st)
    def test_every_subcommand_ends_in_a_documented_exit_code(self, data, path):
        argvs = [
            ["validate", "-"],
            ["validate", "--format", "nested", "-"],
            ["check", "-"],
            ["get", path, "-"],
            ["get", path, "-", "--format", "nested"],
            ["merge", "--prefix", "a=-"],
        ] + [
            ["convert", "--from", source, "--to", target, "-"]
            for source in ("flat", "nested")
            for target in ("flat", "nested")
        ]
        for argv in argvs:
            assert run_on(data, argv) in (0, 1, 2, 3), argv

    @settings(max_examples=200, deadline=None)
    @given(flat_text_st)
    def test_validate_accepts_exactly_what_check_accepts(self, text):
        data = text.encode("utf-8", "surrogatepass")
        assert (run_on(data, ["validate", "-"]) == 0) == (run_on(data, ["check", "-"]) == 0)


class TestFlatCommandsAgainstTheWholeTrie:
    """Flat commands that build less than they did print what they printed then.

    The references in ``helpers`` are the commands as they were: the whole
    trie, ``Dtry.lookup``, and flat text through a ``map_values`` copy.
    """

    @settings(max_examples=200, deadline=None)
    @given(flat_text_st, get_path_st)
    @example("", "")
    @example("# a comment\n", "")
    @example("a.b = 1\n", "a.b.c")
    @example(" = x\n", "")
    @example(CONFLICTED, "a")
    @example(EXAMPLE_FLAT, "oscillator")
    def test_same_outcome_as_the_whole_trie_route(self, text, path):
        data = text.encode("utf-8", "surrogatepass")
        outcomes = {}
        for argv, reference in (
            (["validate", "-"], reference_cmd_validate),
            (["get", path, "-"], reference_cmd_get),
        ):
            outcomes[argv[0]] = outcome_on(data, argv)
            with mock.patch.object(cli, f"cmd_{argv[0]}", reference):
                assert outcome_on(data, argv) == outcomes[argv[0]], argv
        # an invalid file gives get the diagnostics it gives validate
        if outcomes["validate"][0] == 1 and is_path(path):
            assert outcomes["get"] == outcomes["validate"]

    # '.' < '/' < '0' < 'A' < '_' < 'a' < 'b': the keys under 'a' sort apart
    # from 'a_' and 'a0', between which 'a.b' and 'ab.c' fall.
    BISECTED = "a.b = 1\na_ = 2\na0 = 3\nab.c = 4\nA.x = 5\n"

    @pytest.mark.parametrize(
        "text, path",
        [(BISECTED, "a"), (BISECTED, "a_"), (BISECTED, "a.b.c"), (BISECTED, ""), ("", "")],
        ids=["subtree", "leaf", "past_a_leaf", "root", "root_of_an_empty_file"],
    )
    def test_get_finds_a_range_of_the_sorted_keys(self, text, path):
        data = text.encode()
        outcome = outcome_on(data, ["get", path, "-"])
        with mock.patch.object(cli, "cmd_get", reference_cmd_get):
            assert outcome_on(data, ["get", path, "-"]) == outcome
        assert outcome[0] == (3 if path == "a.b.c" else 0)

    @settings(max_examples=200, deadline=None)
    @given(nested_text_st)
    @example('{"a": {"b": "x", "c": 1}, "d": "y"}')
    @example('{"a": " v"}')
    @example('"v"')
    def test_flat_text_matches_the_map_values_copy(self, text):
        try:
            directory = parse_nested(text)
        except ParseError:
            return
        outcomes = []
        for flat_text in (lambda d: cli._flat_text(d)[0], reference_flat_text):
            try:
                outcomes.append(flat_text(directory))
            except ParseError as exc:
                outcomes.append(exc.diagnostics)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "text, path, want",
        [
            ("", "", (0, "", "")),
            ("# a comment\n", "", (0, "", "")),
            ("a.b = 1\n", "a.b.c", (3, "", "error: no entry at 'a.b.c'\n")),
            (" = x\n", "", (0, "x\n", "")),
            (
                CONFLICTED,
                "a",
                (
                    1,
                    "",
                    "2:E_DUPLICATE_PATH:duplicate path 'a.b'; first bound at line 1\n"
                    "3:E_PREFIX_CONFLICT:path 'a' is a prefix of the bound path 'a.b'\n",
                ),
            ),
        ],
        ids=("empty", "comment_only", "past_a_leaf", "root_leaf", "conflicts"),
    )
    def test_pinned_outcomes(self, text, path, want):
        assert outcome_on(text.encode(), ["get", path, "-"]) == want


# Flat documents over names of characters on both sides of '.' in byte
# order ('0' < 'Z' < '_' < 'a' < 'b'), with root lines, values that JSON
# escapes, and empty files. Half of them keep only keys that are no prefix
# of another, so that most files convert.
route_key_st = st.lists(st.text(alphabet="ab_0Z", min_size=1, max_size=2), max_size=3).map(
    ".".join
)
route_value_st = st.sampled_from(
    ["v", "x y", 'say "hi"', "back\\slash", "\x01", "caf\u00e9", "a\u2028b"]
)


def related(a: str, b: str) -> bool:
    """Whether the dotted paths ``a`` and ``b`` are equal or one is a prefix of the other."""
    return a == b or not a or not b or a.startswith(b + ".") or b.startswith(a + ".")


def prefix_free(lines):
    """The lines whose key no other line's key equals, extends or is a prefix of."""
    return [(key, value) for key, value in lines if sum(related(key, k) for k, _ in lines) == 1]


route_lines_st = st.lists(st.tuples(route_key_st, route_value_st), max_size=8)
route_doc_st = st.one_of(route_lines_st, route_lines_st.map(prefix_free)).map(
    lambda lines: "".join(f"{key} = {value}\n" for key, value in lines)
)
TO_NESTED = ["convert", "--from", "flat", "--to", "nested", "-"]
TO_FLAT = ["convert", "--from", "flat", "--to", "flat", "-"]
ESCAPED = 'a = say "hi"\nb = back\\slash\nc = \x01\nd = caf\u00e9\ne = a\u2028b\n'


def against_the_trie(data: bytes, argv, reference):
    """The outcome of ``main(argv)`` on ``data``, asserted equal to the reference command's."""
    outcome = outcome_on(data, argv)
    with mock.patch.object(cli, f"cmd_{argv[0]}", reference):
        assert outcome_on(data, argv) == outcome, argv
    return outcome


def get_paths(text: str) -> set:
    """Every prefix of every key of ``text``, and one path past each key."""
    paths = {""}
    for line in text.split("\n"):
        key = line.partition(" = ")[0]
        segments = key.split(".") if key else []
        paths.update(".".join(segments[:i]) for i in range(len(segments) + 1))
        paths.add(f"{key}.a" if key else "a")
    return paths


class TestFlatRouteAgainstTheTrie:
    """Flat ``convert``, ``merge`` and ``get`` write from the sorted keys what the trie route wrote.

    The references in ``helpers`` build the trie with ``parse_flat`` and
    write it with ``emit_nested``, ``emit_flat`` after ``merge_disjoint``,
    or ``Dtry.lookup``.
    """

    @settings(max_examples=200, deadline=None)
    @given(route_doc_st)
    @example("")
    @example(" = root\n")
    @example(ESCAPED)
    @example("a.b = 1\na_ = 2\na0 = 3\nab.c = 4\nZ.x = 5\n")
    def test_convert_and_get(self, text):
        data = text.encode()
        for argv in (TO_NESTED, TO_FLAT):
            against_the_trie(data, argv, reference_cmd_convert)
        for path in sorted(get_paths(text)):
            against_the_trie(data, ["get", path, "-"], reference_cmd_get)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(route_doc_st, min_size=1, max_size=3),
        st.permutations(["a", "b", "_", "0", "Z"]),
    )
    @example(["", " = root\n", "a.b = 1\n"], ["b", "a", "_", "0", "Z"])
    def test_merge(self, texts, names):
        with tempfile.TemporaryDirectory() as folder:
            argv = ["merge"]
            for name, text in zip(names, texts):
                source = os.path.join(folder, f"{name}.dtry")
                with open(source, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv += ["--prefix", f"{name}={source}"]
            against_the_trie(b"", argv, reference_cmd_merge)

    def test_values_that_json_escapes(self):
        want = {"a": 'say "hi"', "b": "back\\slash", "c": "\x01", "d": "caf\u00e9", "e": "a\u2028b"}
        nested = json.dumps(want, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        data = ESCAPED.encode()
        assert against_the_trie(data, TO_NESTED, reference_cmd_convert) == (0, nested, "")
        assert against_the_trie(data, TO_FLAT, reference_cmd_convert) == (0, ESCAPED, "")

    @pytest.mark.parametrize(
        "text, nested, flat, got",
        [(" = root\n", '"root"\n', " = root\n", "root\n"), ("", "{}\n", "", "")],
        ids=("root_leaf", "empty"),
    )
    def test_a_root_leaf_and_an_empty_file(self, tmp_path, text, nested, flat, got):
        data = text.encode()
        assert against_the_trie(data, TO_NESTED, reference_cmd_convert) == (0, nested, "")
        assert against_the_trie(data, TO_FLAT, reference_cmd_convert) == (0, flat, "")
        assert against_the_trie(data, ["get", "", "-"], reference_cmd_get) == (0, got, "")
        source = write(tmp_path, "in.dtry", text)
        merged = "x = root\n" if text else ""
        argv = ["merge", "--prefix", f"x={source}"]
        assert against_the_trie(b"", argv, reference_cmd_merge) == (0, merged, "")

    def test_the_deepest_key_that_converts_still_converts(self):
        # Both routes run at each depth the bisection tries, from the same
        # frame, so each meets the same recursion limit.
        seen = {}

        def converts(depth):
            data = (".".join(["s"] * depth) + " = v\n").encode()
            seen[depth] = against_the_trie(data, TO_NESTED, reference_cmd_convert)
            return seen[depth][0] == 0

        bound = deepest(converts)
        assert bound > 700
        code, out, err = seen[bound]
        assert (code, err) == (0, "") and json.loads(out)
        code, out, err = seen[bound + 1]
        assert (code, out) == (1, "") and err.startswith("1:E_TOO_DEEP:") and err.count("\n") == 1
