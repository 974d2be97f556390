"""Names, dotted paths, ordering, and prefix discipline."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dtry.core import Dtry
from dtry.errors import BadNameError, BadPathError, PrefixConflictError
from dtry.paths import Name, Path, _are_dotted, _is_dotted

from helpers import NAME_POOL, oracle_prefix_free, random_path

names_st = st.text(alphabet="abcxyz_019", min_size=1, max_size=4).map(Name)
paths_st = st.lists(names_st, max_size=4).map(Path)


class TestName:
    def test_accepts_word_characters(self):
        assert Name("oscillator") == "oscillator"
        assert Name("x_1") == "x_1"
        assert Name("_") == "_"
        assert Name("0") == "0"
        text = type("Text", (str,), {})("x_1")  # a str subclass, made a plain Name
        assert Name(text) == "x_1" and type(Name(text)) is Name

    def test_rejects_empty(self):
        with pytest.raises(BadNameError) as exc:
            Name("")
        assert exc.value.code == "E_BAD_NAME"
        assert exc.value.index == 0

    @pytest.mark.parametrize(
        "text,index", [("a.b", 1), ("a b", 1), ("-x", 0), ("déjà", 1), ("x!", 1)]
    )
    def test_rejects_bad_characters_with_index(self, text, index):
        with pytest.raises(BadNameError) as exc:
            Name(text)
        assert exc.value.index == index

    @pytest.mark.parametrize(
        "text,index,reason",
        [
            ("é", 0, "invalid character 'é'"),
            ("٣", 0, "invalid character '٣'"),  # a digit, but not an ASCII one
            ("ａ", 0, "invalid character 'ａ'"),  # fullwidth a
            ("a\n", 1, "invalid character '\\n'"),  # no trailing newline slips through
            ("a-b", 1, "invalid character '-'"),
            ("", 0, "name is empty"),
        ],
    )
    def test_rejection_names_the_first_bad_character(self, text, index, reason):
        with pytest.raises(BadNameError) as exc:
            Name(text)
        assert (exc.value.index, exc.value.reason) == (index, reason)
        assert str(exc.value) == f"bad name {text!r} at character {index}: {reason}"


class TestPathParsing:
    def test_example_path(self):
        p = Path.parse("oscillator.mass.momentum")
        assert tuple(p) == ("oscillator", "mass", "momentum")

    def test_empty_string_is_root(self):
        assert Path.parse("") == Path()
        assert str(Path()) == ""

    def test_lone_dot_is_an_error(self):
        # "." would denote two empty segments.
        with pytest.raises(BadPathError) as exc:
            Path.parse(".")
        assert exc.value.code == "E_BAD_PATH"
        assert exc.value.segment == 0

    def test_empty_segment_reports_its_index(self):
        with pytest.raises(BadPathError) as exc:
            Path.parse("a..b")
        assert exc.value.segment == 1

    def test_round_trip_through_text(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_path(rng)
            assert Path.parse(str(p)) == p

    def test_constructor_accepts_segments_and_text(self):
        assert Path(["a", "b"]) == Path("a.b")


# Names' characters, the '.' that joins the texts, and characters no name
# holds: ASCII ones, the newline among them, and a letter and a digit that
# are not ASCII.
dotted_texts_st = st.lists(st.text(alphabet="aZ0_.\n\r -é٣", max_size=6), max_size=8)


class TestBulkMatch:
    @given(dotted_texts_st)
    @example([])
    @example([""])
    @example(["", "a"])
    @example(["a\nb"])
    @example(["a\n", "b"])
    @example(["a."])
    @example([".a"])
    @example(["a..b"])
    @example(["."])
    @example(["a", "b."])
    @example([".a", "b"])
    @example(["", ""])
    @example(["a", ""])
    @example(["a", "", "b"])
    @example(["", "", "a"])
    @example(["a", "\n"])
    @example(["é"])
    @example(["a\nb", "c"])
    @example(["a", "\udcff"])
    def test_matches_each_text_alone(self, texts):
        assert _are_dotted(texts) == all(_is_dotted(t) is not None for t in texts)


class TestConcat:
    def test_examples(self):
        assert Path("a.b") + Path("c") == Path("a.b.c")
        assert Path() + Path("a") == Path("a")
        assert Path("a") + Path() == Path("a")

    def test_result_stays_a_path(self):
        assert isinstance(Path("a") + Path("b"), Path)

    def test_a_str_or_sequence_is_parsed_and_checked(self):
        assert Path("a") + "b.c" == Path("a").concat(("b", "c")) == Path("a.b.c")
        assert type(Path("a") + ["b"]) is Path and Path("a") + "" == Path("a")
        with pytest.raises(BadPathError):
            Path("a") + "b..c"
        with pytest.raises(BadNameError):
            Path("a").concat(["b c"])

    @given(paths_st, paths_st, paths_st)
    def test_associative_with_root_unit(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert Path() + p == p
        assert p + Path() == p


class TestPrefix:
    def test_examples(self):
        assert Path("a").is_prefix_of(Path("a.b"))
        assert Path().is_prefix_of(Path("a"))
        assert Path("a").is_prefix_of(Path("a"))  # reflexive
        assert not Path("a.b").is_prefix_of(Path("a"))
        assert not Path("b").is_prefix_of(Path("a.b"))

    def test_dotted_string_argument_is_parsed_as_a_path(self):
        assert not Path("a").is_prefix_of("ab")
        assert Path("a.b").is_prefix_of("a.b.c")
        assert Path("a").is_prefix_of(("a", "b"))

    @given(paths_st, paths_st)
    def test_antisymmetry(self, p, q):
        if p.is_prefix_of(q) and q.is_prefix_of(p):
            assert p == q

    @given(paths_st, paths_st)
    def test_prefix_iff_concat(self, p, q):
        # p is a prefix of r exactly when r = p + something.
        assert p.is_prefix_of(p + q)
        if p.is_prefix_of(q):
            assert p + Path(tuple(q)[len(p):]) == q


class TestLexOrder:
    def test_examples(self):
        assert Path("a") < Path("a.b")  # proper prefix first
        assert Path("a.b") < Path("a.c")
        assert Path("b") > Path("a.z.z")
        assert Path("a") == Path("a")

    def test_byte_order_on_names(self):
        # ASCII order: digits < uppercase < '_' < lowercase.
        assert Path("B") < Path("a")
        assert Path("_") < Path("a")
        assert Path("9") < Path("A")

    def test_total_order_on_many_random_pairs(self):
        rng = random.Random(11)
        pairs = [(random_path(rng), random_path(rng)) for _ in range(10_000)]
        for p, q in pairs:
            lt, eq, gt = p < q, p == q, p > q
            assert lt + eq + gt == 1
            assert (q < p, q > p) == (gt, lt)
            assert eq == (not lt and not gt)

    def test_transitivity_sampled(self):
        rng = random.Random(13)
        for _ in range(2_000):
            p, q, r = (random_path(rng) for _ in range(3))
            ordered = sorted([p, q, r])
            assert ordered[0] <= ordered[1]
            assert ordered[1] <= ordered[2]
            assert ordered[0] <= ordered[2]


def builds(paths) -> bool:
    """True when the paths bind as one directory, i.e. are prefix-free."""
    try:
        Dtry.from_path_map({p: None for p in paths})
    except PrefixConflictError:
        return False
    return True


class TestPrefixFree:
    def test_examples(self):
        assert builds({Path("a.b"), Path("a.c"), Path("b")})
        assert not builds({Path("a"), Path("a.b")})
        assert builds(set())
        assert builds({Path()})
        assert not builds({Path(), Path("a")})  # root prefixes everything

    def test_agrees_with_quadratic_oracle(self):
        rng = random.Random(17)
        for _ in range(500):
            paths = {random_path(rng, max_len=3) for _ in range(rng.randint(0, 32))}
            assert builds(paths) == oracle_prefix_free(paths)
