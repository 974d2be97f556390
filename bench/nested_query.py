"""Workload ``nested_query``: one library session per nested JSON document.

Each op parses a document of 10^3 to 10^4 leaves with ``parse_nested``,
runs a batch of lookups (leaf and subtree hits, misses), a value filter
that empties some subtrees, ``merge_disjoint`` with two small companion
documents, ``path_map``/``len``, and emits the result in both formats.
Shapes: configuration-like, one wide node, balanced binary, deep chain.

The nested parser builds the trie in one linear pass and never calls
``Dtry.insert``, so a faster insert should leave this workload flat; a
change that moves cost from build into lookup or traversal shows here.
"""

from __future__ import annotations

import json
import random

import oracle
from common import Op, correct_or_rejected, fresh_name, gen_paths, json_value

# Leaf counts of the sessions of one pass, per shape. Most documents have
# 10^3 leaves so that a pass holds 100 sessions. Balanced and chain paths
# are longer and cost about twice as much per leaf; their 28 sessions of
# 10^3 leaves hold latency_p90_ms, with the four larger documents above.
SIZES = {
    "realistic": (1000,) * 34 + (10000,),
    "wide": (1000,) * 33 + (5000,),
    "balanced": (1000,) * 14 + (3000,),
    "chain": (1000,) * 14 + (3000,),
}
PASSES = 4  # passes per measuring run
CHAIN_DEPTH = 40
COMPANION_SIZE = 100
LEAF_LOOKUPS, SUBTREE_LOOKUPS, MISS_LOOKUPS = 24, 8, 16
SUBTREE_MAX_LEAVES = 64
DEEP_LEVELS = 5000
HOSTILE = ("deep_nested_parse",)


def _keep(value) -> bool:
    """The filter predicate: drops the ``tmp...`` strings the generator plants."""
    return not (isinstance(value, str) and value.startswith("tmp"))


def _value(rng, drop):
    return f"tmp{rng.randint(0, 9999)}" if drop else json_value(rng)


def _realistic(rng, n):
    paths = gen_paths(rng, n)
    dropped_groups = {p[:2] for p in paths if rng.random() < 0.02}
    return [(p, _value(rng, p[:2] in dropped_groups or rng.random() < 0.1)) for p in paths]


def _wide(rng, n):
    used = set()
    meta = [(("meta", fresh_name(rng, used)), _value(rng, False)) for _ in range(8)]
    used = set()
    items = [(("items", fresh_name(rng, used)), _value(rng, rng.random() < 0.2)) for _ in range(n - 8)]
    return meta + items


def _balanced(rng, n):
    # Binary l/r splitting like shape_with_n_leaves; whole subtrees of 16
    # leaves are dropped together so the filter prunes inner nodes.
    out = []

    def split(prefix, count, drop):
        if count == 1:
            out.append((prefix, _value(rng, drop)))
            return
        if count <= 16 and not drop:
            drop = rng.random() < 0.15
        half = count // 2
        split(prefix + ("l",), half, drop)
        split(prefix + ("r",), count - half, drop)

    split((), n, False)
    return out


def _chain(rng, n):
    out = []
    per_level = n // CHAIN_DEPTH
    at = ()
    for level in range(CHAIN_DEPTH):
        used = {"down"}
        count = per_level if level < CHAIN_DEPTH - 1 else n - len(out)
        drop = level == CHAIN_DEPTH - 1
        out.extend(
            (at + (fresh_name(rng, used),), _value(rng, drop or rng.random() < 0.1))
            for _ in range(count)
        )
        at += ("down",)
    return out


GENERATORS = {"realistic": _realistic, "wide": _wide, "balanced": _balanced, "chain": _chain}


def _prefix_counts(pairs):
    """Leaves under every proper prefix of a path, the root included."""
    counts: dict[tuple, int] = {}
    for segs, _ in pairs:
        for k in range(len(segs)):
            counts[segs[:k]] = counts.get(segs[:k], 0) + 1
    return counts


def _queries(rng, pairs, counts):
    """Lookup targets: leaf hits, small subtree hits, and misses."""
    small = sorted(p for p, c in counts.items() if p and c <= SUBTREE_MAX_LEAVES)
    queries = [rng.choice(pairs)[0] for _ in range(LEAF_LOOKUPS)]
    if small:
        queries += [rng.choice(small) for _ in range(SUBTREE_LOOKUPS)]
    for _ in range(MISS_LOOKUPS):
        base = rng.choice(pairs)[0]
        cut = rng.randint(0, len(base))
        tail = ("zz" + fresh_name(rng, set()),) if cut < len(base) else ("below",)
        queries.append(base[:cut] + tail)
    rng.shuffle(queries)
    return queries


def _expected(pairs, counts, companions, queries):
    values = dict(pairs)
    looked = []
    for q in queries:
        if q in values:
            looked.append(("leaf", values[q]))
        elif q in counts:
            looked.append(("sub", counts[q]))
        else:
            looked.append(None)
    ordered = sorted(pairs, key=lambda p: p[0])
    kept = [p for p in ordered if _keep(p[1])]
    merged = len(pairs) + sum(len(c) for c in companions)
    return (
        looked,
        kept,
        merged,
        ordered,
        len(pairs),
        oracle.nested_text(pairs),
        oracle.flat_text(pairs),
    )


def _session(formats, core, text, companion_texts, queries):
    d = formats.parse_nested(text)
    looked = []
    for q in queries:
        found = d.lookup(".".join(q))
        if found is None:
            looked.append(None)
        elif found.is_leaf:
            looked.append(("leaf", found.value))
        else:
            looked.append(("sub", len(found)))
    kept = [(tuple(p), v) for p, v in d.filter(_keep).path_map().items()]
    companions = [formats.parse_nested(t) for t in companion_texts]
    merged = core.merge_disjoint({"main": d, "aux1": companions[0], "aux2": companions[1]})
    ordered = [(tuple(p), v) for p, v in d.path_map().items()]
    return (
        looked,
        kept,
        len(merged),
        ordered,
        len(d),
        formats.emit_nested(d),
        formats.emit_flat(d.map_values(oracle.flat_value)),
    )


def _deep_session(formats, text, depth):
    d = formats.parse_nested(text)
    deepest = d.lookup(("s",) * depth)
    return (len(d), deepest.value, formats.emit_flat(d.map_values(oracle.flat_value)))


def build(seed, workdir, dtry):
    """Generate the seeded documents and return one pass of sessions."""
    formats, core = dtry.formats, dtry.core
    rng = random.Random(seed)
    ops = []
    for shape, sizes in SIZES.items():
        for n in sizes:
            pairs = GENERATORS[shape](rng, n)
            text = json.dumps(oracle.nested_obj(pairs))
            comp = [
                [(p, json_value(rng)) for p in gen_paths(rng, COMPANION_SIZE)] for _ in range(2)
            ]
            comp_texts = [json.dumps(oracle.nested_obj(c)) for c in comp]
            counts = _prefix_counts(pairs)
            queries = _queries(rng, pairs, counts)
            ops.append(
                Op(
                    f"session_{shape}",
                    n + 2 * COMPANION_SIZE,
                    lambda t=text, ct=comp_texts, q=queries: _session(formats, core, t, ct, q),
                    lambda p=pairs, n=counts, c=comp, q=queries: _expected(p, n, c, q),
                )
            )
    deep_text = '{"s": ' * DEEP_LEVELS + "1" + "}" * DEEP_LEVELS
    deep = Op(
        "hostile",
        1,
        lambda: _deep_session(formats, deep_text, DEEP_LEVELS),
        lambda: (1, 1, ".".join(["s"] * DEEP_LEVELS) + " = 1\n"),
        hostile="deep_nested_parse",
        judge=correct_or_rejected(dtry.DtryError),
    )
    ops.append(deep)
    rng.shuffle(ops)
    return ops
