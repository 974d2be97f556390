"""The benchmark's tracer still sees what it measures in ``dtry``.

The tracer (``bench/tracing.py``) wraps functions and methods by name, so
renaming one of them breaks a traced run, and it counts records by
wrapping ``NonEmptyRecord.__init__``, so building a record another way
blinds its counter; these tests notice either in a fraction of a second.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import dtry
import dtry.cli  # the tracer wraps targets in every module

from helpers import nodes

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracing().TARGETS


def test_record_counter_sees_every_record_built():
    # 30 groups of four values; the filter drops the "tmp" ones: all of
    # ten groups, one value of ten more, and none of the last ten
    document = {
        f"g{g}": {
            f"k{k}": "tmp" if g % 3 == 0 or (g % 3 == 1 and k == g % 4) else "v" for k in range(4)
        }
        for g in range(30)
    }
    tracer = load_tracing().Tracer()
    with tracer.installed(dtry):
        parsed = dtry.formats.parse_nested(json.dumps(document))
        kept = parsed.filter(lambda v: v != "tmp")
        dtry.formats.emit_flat(kept)
    calls, _, entries = tracer.reduce()[0]["core.record_init"]
    # parsing builds every node; filtering builds the ones it changed
    seen = set(map(id, nodes(parsed.root)))
    built = list(nodes(parsed.root)) + [n for n in nodes(kept.root) if id(n) not in seen]
    assert len(built) == 31 + 11  # the root and the ten groups that lost one value
    assert (calls, entries) == (len(built), sum(len(n) for n in built))


def test_flat_parser_makes_a_path_only_for_a_rejected_line():
    clean = "".join(f"s{i % 7}.k{i} = v\n" for i in range(1000))
    # bad segments past a bound leaf, and at a new edge
    bad = [f"s{i % 7}.k{i}.b-c = v\n" for i in range(0, 40, 4)] + [f"t{i}.b c = v\n" for i in range(5)]
    tracer = load_tracing().Tracer()
    with tracer.installed(dtry):
        dtry.formats.parse_flat(clean)
        stats = tracer.reduce()[0]
    assert stats["paths.parse"][0] == 0
    assert stats["formats.scan_flat"][0] == 0
    tracer = load_tracing().Tracer()
    with tracer.installed(dtry):
        with pytest.raises(dtry.formats.ParseError) as exc:
            dtry.formats.parse_flat(clean + "".join(bad))
        stats = tracer.reduce()[0]
    assert [d.code for d in exc.value.diagnostics] == ["E_BAD_PATH"] * len(bad)
    assert stats["paths.parse"][0] == len(bad)


def test_check_makes_no_path_and_scans_no_flatline(tmp_path, capsys):
    source = tmp_path / "clean.dtry"
    source.write_text("".join(f"s{i % 7}.k{i} = v\n" for i in range(1000)), encoding="utf-8")
    tracer = load_tracing().Tracer()
    with tracer.installed(dtry):
        assert dtry.cli.main(["check", str(source)]) == 0
        stats = tracer.reduce()[0]
    assert capsys.readouterr() == ("", "")
    assert stats["cli.check"][0] == 1
    assert stats["paths.parse"][0] == 0
    assert stats["formats.scan_flat"][0] == 0


def test_check_parses_only_the_bad_key(tmp_path, capsys):
    lines = [f"s{i % 7}.k{i} = v\n" for i in range(1000)]
    lines[500] = "s1.b-c = v\n"
    source = tmp_path / "mixed.dtry"
    source.write_text("".join(lines), encoding="utf-8")
    tracer = load_tracing().Tracer()
    with tracer.installed(dtry):
        assert dtry.cli.main(["check", str(source)]) == 1
        stats = tracer.reduce()[0]
    want = "501:E_BAD_PATH:bad path 's1.b-c' at segment 1: invalid character '-'\n"
    assert capsys.readouterr() == ("", want)
    assert stats["paths.parse"][0] == 1


def test_flat_validate_makes_each_diagnostic_once(tmp_path, capsys):
    lines = [f"s{i % 7}.k{i} = v\n" for i in range(1000)]
    # a syntax error, a duplicate, a prefix conflict and a bad segment
    lines[100] = "no binding\n"
    lines[200] = lines[7]
    lines[300] = "s1 = v\n"
    lines[400] = "s2.b-c = v\n"
    reported = {}
    for name, text in (("clean", "".join(lines[:100])), ("failing", "".join(lines))):
        source = tmp_path / f"{name}.dtry"
        source.write_text(text, encoding="utf-8")
        tracer = load_tracing().Tracer()
        with tracer.installed(dtry):
            dtry.cli.main(["validate", str(source)])
            stats = tracer.reduce()[0]
        reported[name] = capsys.readouterr().err.splitlines()
        assert stats["formats.diagnostic"][0] == len(reported[name])
    assert reported["clean"] == []
    assert [line.split(":")[:2] for line in reported["failing"]] == [
        ["101", "E_SYNTAX"],
        ["201", "E_DUPLICATE_PATH"],
        ["301", "E_PREFIX_CONFLICT"],
        ["401", "E_BAD_PATH"],
    ]


@pytest.mark.parametrize("span, module_name, owner, attr", load_targets())
def test_target_resolves(span, module_name, owner, attr):
    module = importlib.import_module(f"dtry.{module_name}")
    if owner is None:
        assert callable(getattr(module, attr))
    else:
        assert attr in getattr(module, owner).__dict__
