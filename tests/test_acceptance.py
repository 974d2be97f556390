"""Acceptance suite: one test per shipped guarantee.

Every test carries a ``criterion`` marker; the conftest hook turns those
into one ``acceptance NN <label>: PASS/FAIL`` line each in the terminal
summary. Scales (trial counts, pool sizes, depth bounds) are part of the
contract and are not tuned down here.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product as cartesian

import pytest

from dtry.core import Dtry, NonEmptyRecord, filter_nothings
from dtry.errors import PrefixConflictError
from dtry.fincat import (
    DtryMor,
    DtryObj,
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
from dtry.formats import emit_flat, emit_nested, parse_flat, parse_nested
from dtry.maybe import NOTHING, Just
from dtry.paths import Path

from helpers import (
    EXAMPLE_FLAT,
    check_representation,
    join_maybe,
    naive_flatten,
    oracle_position_set,
    oracle_prefix_free,
    random_dtry,
    random_dtry_obj,
    random_maybe_maybe_record,
    random_mor_from,
)

SKEL = FinSetSkeleton()
ALG = finset_coproduct_algebra(SKEL)

SIX_NAMES = ("a", "b", "c", "x", "y", "z")
FOUR_VALUES = (0, 1, 2, 3)


# ------------------------------------------------------------ 1: monad laws


@pytest.mark.criterion(1, "monad laws, 1000 nested directories")
def test_monad_laws_on_random_nested_directories():
    rng = random.Random(1001)
    started = time.monotonic()
    for _ in range(1000):
        plain = random_dtry(
            rng, depth=4, branching=4, names=SIX_NAMES, values=FOUR_VALUES
        )
        assert Dtry.leaf(plain).flatten() == plain
        assert plain.map_values(Dtry.leaf).flatten() == plain

        triple = random_dtry(
            rng, depth=2, branching=3, names=SIX_NAMES, values=(None,)
        ).map_values(
            lambda _: random_dtry(
                rng, depth=2, branching=3, names=SIX_NAMES, values=(None,)
            ).map_values(
                lambda _: random_dtry(
                    rng, depth=2, branching=3, names=SIX_NAMES, values=FOUR_VALUES
                )
            )
        )
        outer_first = triple.flatten().flatten()
        inner_first = triple.map_values(Dtry.flatten).flatten()
        assert outer_first == inner_first
        check_representation(outer_first)
    assert time.monotonic() - started < 10.0


# ------------------------------------- 2: absence distribution coherence


def route_join_first(record: NonEmptyRecord):
    return filter_nothings(record.map_values(join_maybe))


def route_filter_twice(record: NonEmptyRecord):
    outer = filter_nothings(record)
    return None if outer is None else filter_nothings(outer)


@pytest.mark.criterion(2, "distribution triangle and pentagon, 1000 records")
def test_absence_distribution_coherence():
    rng = random.Random(1002)
    for i in range(1000):
        if i % 10 == 7:
            # all entries absent at the outer level
            names = SIX_NAMES[: 1 + i % 5]
            record = NonEmptyRecord({n: NOTHING for n in names})
        elif i % 10 == 8:
            # all present but absent inside
            names = SIX_NAMES[: 1 + i % 5]
            record = NonEmptyRecord({n: Just(NOTHING) for n in names})
        else:
            record = random_maybe_maybe_record(rng)

        # triangle: wrapping every entry as present then filtering is a no-op
        plain = record.map_values(lambda _: rng.choice(FOUR_VALUES))
        assert filter_nothings(plain.map_values(Just)) == plain

        # pentagon: collapsing the two layers commutes with filtering
        assert route_join_first(record) == route_filter_twice(record)


# --------------------------------------------- 3: path-map isomorphism


def random_prefix_free_paths(rng, *, count: int, names=SIX_NAMES) -> list[Path]:
    kept: list[tuple] = []
    while len(kept) < count:
        raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
        if oracle_prefix_free(kept + [raw]):
            kept.append(raw)
    return [Path(raw) for raw in kept]


def expected_conflict_pair(paths) -> tuple[Path, Path]:
    ordered = sorted(Path(p) for p in paths)
    for j, incoming in enumerate(ordered):
        earlier = [
            p
            for p in ordered[:j]
            if p.is_prefix_of(incoming) or incoming.is_prefix_of(p)
        ]
        if earlier:
            return min(earlier), incoming
    raise AssertionError("no conflict planted")


@pytest.mark.criterion(3, "path-map round trip and 500 planted conflicts")
def test_path_map_isomorphism():
    rng = random.Random(1003)
    for _ in range(500):
        paths = random_prefix_free_paths(rng, count=rng.randint(1, 10))
        mapping = {p: rng.choice(FOUR_VALUES) for p in paths}
        built = Dtry.from_path_map(mapping)
        assert built.path_map() == mapping
        assert list(built.path_map()) == sorted(mapping)
        assert oracle_prefix_free(built.path_map().keys())
        check_representation(built, built=True)

        # plant exactly one conflicting key and demand the exact pair back
        victim = rng.choice(paths)
        if len(victim) >= 1 and rng.random() < 0.5:
            planted = Path(tuple(victim)[: rng.randint(0, len(victim) - 1)])
        else:
            planted = victim.concat(Path((rng.choice(SIX_NAMES),)))
        poisoned = dict(mapping)
        poisoned[planted] = "planted"
        want = expected_conflict_pair(poisoned)
        try:
            Dtry.from_path_map(poisoned)
        except PrefixConflictError as exc:
            assert (exc.existing, exc.incoming) == want
        else:
            raise AssertionError(f"conflict {want} went undetected")


# ------------------------------------------------------ 4: position law


@pytest.mark.criterion(4, "flatten position sets, 1000 nested directories")
def test_position_law_for_flatten():
    rng = random.Random(1004)
    for _ in range(1000):
        nested = random_dtry(
            rng, depth=2, branching=3, names=SIX_NAMES, values=(None,)
        ).map_values(
            lambda _: random_dtry(
                rng, depth=2, branching=3, names=SIX_NAMES, values=FOUR_VALUES
            )
        )
        flat = nested.flatten()
        got = {tuple(p) for p in flat.paths()}
        assert got == oracle_position_set(nested)

        # unique decomposition, brute forced on small cases
        pairs = [
            (n, m)
            for n, inner in nested.path_map().items()
            for m in inner.paths()
        ]
        if len(pairs) <= 20:
            for target in flat.paths():
                matches = [
                    (n, m)
                    for n, m in pairs
                    if tuple(n) + tuple(m) == tuple(target)
                ]
                assert len(matches) == 1


# -------------------------------------- 5: concatenation associativity


@pytest.mark.criterion(5, "concat associativity, all 64000 short triples")
def test_concat_associativity_exhaustive():
    names = ("a", "b", "c")
    pool = [
        Path(raw)
        for length in range(4)
        for raw in cartesian(names, repeat=length)
    ]
    assert len(pool) == 40
    for p in pool:
        for q in pool:
            pq = p.concat(q)
            for r in pool:
                assert pq.concat(r) == p.concat(q.concat(r))


# --------------------------------------------- 6: category laws


@pytest.mark.criterion(6, "identity and associativity, 600 composable triples")
def test_category_laws_for_all_variants():
    rng = random.Random(1006)
    for variant in (Variant.GENERAL, Variant.ISO, Variant.PRODUCT):
        for _ in range(200):
            w = random_dtry_obj(rng, SKEL, max_leaves=3, sizes=(1, 2, 3))
            f = random_mor_from(rng, w, variant)
            g = random_mor_from(rng, f.dst, variant)
            h = random_mor_from(rng, g.dst, variant)
            assert compose_mor(identity_mor(w, variant), f) == f
            assert compose_mor(f, identity_mor(f.dst, variant)) == f
            assert compose_mor(compose_mor(f, g), h) == compose_mor(
                f, compose_mor(g, h)
            )


# --------------------------------------------- 7: full faithfulness


def all_small_objects():
    leaf = None
    shapes = [
        Dtry.empty(),
        Dtry.leaf(leaf),
        Dtry.from_path_map({"a": leaf}),
        Dtry.from_path_map({"a.b": leaf}),
        Dtry.from_path_map({"a": leaf, "b": leaf}),
        Dtry.from_path_map({"a.x": leaf, "a.y": leaf}),
        Dtry.from_path_map({"a.x": leaf, "b": leaf}),
        Dtry.from_path_map({"a": leaf, "b.y": leaf}),
    ]
    for shape in shapes:
        paths = shape.paths()
        for sizes in cartesian((0, 1, 2), repeat=len(paths)):
            yield DtryObj.of(SKEL, dict(zip(paths, sizes)))


def count_general_morphisms(src: DtryObj, dst: DtryObj) -> int:
    seen = set()
    src_paths, dst_paths = src.paths(), dst.paths()
    for images in cartesian(dst_paths, repeat=len(src_paths)):
        f0 = dict(zip(src_paths, images))
        hom_lists = [SKEL.hom(src.assign[p], dst.assign[f0[p]]) for p in src_paths]
        for combo in cartesian(*hom_lists):
            mor = DtryMor(Variant.GENERAL, src, dst, f0, dict(zip(src_paths, combo)))
            seen.add((tuple(mor.f0.items()), tuple(mor.f1.items())))
    return len(seen)


def count_family_morphisms(src: DtryObj, dst: DtryObj) -> int:
    # in a category of finite indexed families: sum over reindexings of
    # the product of hom-set sizes, written with no directory machinery
    src_sizes = [v for _, v in sorted(src.assign.items())]
    dst_sizes = [v for _, v in sorted(dst.assign.items())]
    total = 0
    for images in cartesian(range(len(dst_sizes)), repeat=len(src_sizes)):
        product = 1
        for i, j in enumerate(images):
            product *= dst_sizes[j] ** src_sizes[i]
        total += product
    return total


@pytest.mark.criterion(7, "morphism counts match over all small object pairs")
def test_full_faithfulness_morphism_counts():
    objects = list(all_small_objects())
    assert len(objects) == 46
    discrepancies = 0
    for src in objects:
        for dst in objects:
            if count_general_morphisms(src, dst) != count_family_morphisms(src, dst):
                discrepancies += 1
    assert discrepancies == 0


# --------------------------------------- 8: essential surjectivity


@pytest.mark.criterion(8, "shapes with exactly n leaves for n = 0..16")
def test_every_leaf_count_is_realized():
    for n in range(17):
        shape = shape_with_n_leaves(n)
        assert len(shape.paths()) == n
        check_representation(shape)


# --------------------------------------------- 9: strict algebra laws


@pytest.mark.criterion(9, "algebra unit, associativity square, block swap")
def test_strict_algebra_laws():
    rng = random.Random(1009)
    # unit: a one-leaf directory evaluates to its own object
    for n in range(5):
        singleton = DtryObj(SKEL, Dtry.leaf(n))
        assert algebra_eval_obj(ALG, singleton) == n

    # associativity square, objects and morphisms
    for _ in range(100):
        dd = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
            lambda _: random_dtry_obj(rng, SKEL, max_leaves=3, sizes=(0, 1, 2, 3))
        )
        evaluated = DtryObj(SKEL, dd.map_values(lambda o: algebra_eval_obj(ALG, o)))
        assert algebra_eval_obj(ALG, evaluated) == algebra_eval_obj(
            ALG, mu_obj(dd, cat=SKEL)
        )

        dm = random_dtry(rng, depth=2, branching=2, values=(None,)).map_values(
            lambda _: random_mor_from(rng, random_dtry_obj(rng, SKEL), Variant.ISO)
        )
        inner = dm.path_map()
        ta_mor = DtryMor(
            Variant.ISO,
            DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.src))),
            DtryObj(SKEL, dm.map_values(lambda m: algebra_eval_obj(ALG, m.dst))),
            {p: p for p in inner},
            {p: algebra_eval_mor(ALG, m) for p, m in inner.items()},
        )
        flattened = mu_mor(dm, cat=SKEL, variant=Variant.ISO)
        assert algebra_eval_mor(ALG, ta_mor) == algebra_eval_mor(ALG, flattened)

    # the worked block swap: sizes 1 and 2, factors exchanged
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


# --------------------------------------------- 10: format round trips


def flat_corpus(rng, count: int) -> list[str]:
    texts = []
    for _ in range(count):
        d = random_dtry(rng, names=SIX_NAMES, values=("0", "1 2", "x#y", "true"))
        texts.append(emit_flat(d))
    return texts


def nested_corpus(rng, count: int) -> list[str]:
    pool = (0, 1.5, "text", True, None, [1, 2], ["a", {"k": 1}])
    texts = []
    for _ in range(count):
        d = random_dtry(rng, names=SIX_NAMES, values=pool)
        texts.append(emit_nested(d))
    return texts


@pytest.mark.criterion(10, "format round trips, worked file, CLI exit codes")
def test_format_round_trips_and_cli_contract(tmp_path):
    rng = random.Random(1010)
    # fixed-size corpus: parse then emit reproduces every file exactly
    for text in flat_corpus(rng, 25):
        assert emit_flat(parse_flat(text)) == text
    for text in nested_corpus(rng, 25):
        assert emit_nested(parse_nested(text)) == text

    # plus fresh random directories in both directions
    for _ in range(500):
        d = random_dtry(rng, names=SIX_NAMES, values=("0", "a b", "z"))
        assert parse_flat(emit_flat(d)) == d
        j = random_dtry(rng, names=SIX_NAMES, values=(0, "s", None, [3]))
        assert parse_nested(emit_nested(j)) == j

    # the worked oscillator file survives a full conversion cycle
    parsed = parse_flat(EXAMPLE_FLAT)
    nested = emit_nested(parsed)
    assert emit_flat(parse_nested(nested)) == EXAMPLE_FLAT

    # exit-code contract, driven through the installed entry point
    good = tmp_path / "good.dtry"
    good.write_text(EXAMPLE_FLAT, encoding="utf-8")
    bad = tmp_path / "bad.dtry"
    bad.write_text("a = 1\na.b = 2\n", encoding="utf-8")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dtry", *argv],
            capture_output=True,
            text=True,
        )

    assert run("validate", str(good)).returncode == 0
    assert run("validate", str(bad)).returncode == 1
    assert run("validate", str(tmp_path / "absent.dtry")).returncode == 2
    assert run("get", "oscillator.mass.momentum", str(good)).returncode == 0
    assert run("get", "no.such.path", str(good)).returncode == 3
    converted = run("convert", "--from", "flat", "--to", "nested", str(good))
    assert converted.returncode == 0
    assert json.loads(converted.stdout)["thermal_capacity"]["entropy"] == "16.56"
    checked = run("check", str(bad))
    assert checked.returncode == 1
    assert "E_PREFIX_CONFLICT" in checked.stderr


# ------------------------------------- 11: flat-key conflation pitfall


@pytest.mark.criterion(11, "dotted-string flatten conflates, tries reject")
def test_string_keyed_flatten_conflates_where_tries_reject():
    outer = {"a": {"b.c": 1}, "a.b": {"c": 2}}

    # the naive route: joining strings silently merges two distinct keys
    conflated = naive_flatten(outer)
    assert list(conflated) == ["a.b.c"]

    # the structured route: the same configuration cannot even be built
    try:
        Dtry.from_path_map(
            {
                Path("a"): Dtry.from_path_map({"b.c": 1}),
                Path("a.b"): Dtry.from_path_map({"c": 2}),
            }
        )
    except PrefixConflictError as exc:
        assert (exc.existing, exc.incoming) == (Path("a"), Path("a.b"))
    else:
        raise AssertionError("conflicting systems were accepted")
