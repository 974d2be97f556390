"""Workload ``families``: path-indexed families over finite sets.

One pass is a fixed mix of 105 tasks, each starting from plain data:
``DtryObj.of`` on 100 to 1000 configuration-like paths; ISO morphisms
with random bijections composed with their inverse; GENERAL and PRODUCT
composites over the explicit category ``truncate(2)`` built at set-up;
``mu_obj`` and ``mu_mor`` over directories of objects and morphisms;
``algebra_eval_mor`` with the coproduct algebra; and table tasks
(``FinCat.from_json`` of string-id tables, ``truncate(k)`` + ``validate``
for k <= 3). ``truncate(4)`` is left out: validating it takes minutes.

This is the only workload where ``dtry.fincat`` does most of the work.
"""

from __future__ import annotations

import itertools
import json
import random

from common import Op, correct_or_rejected, gen_paths
from oracle import dotted

OBJ_OF_SIZES = (
    100, 100, 150, 150, 200, 250, 300, 300, 400, 400, 500, 600, 600, 700, 800, 1000, 1000, 1000
)
ISO_SIZES = (100, 100, 150, 150, 200, 200, 250, 300, 400, 400, 500, 600)
COMPOSE_SIZES = (100, 100, 150, 200, 250, 300, 400, 500, 600)
MU_OBJ_OUTER = (10, 10, 15, 15, 20, 20, 25, 30, 35, 40)
MU_MOR_OUTER = (10, 15, 20, 25, 30, 40)
ALGEBRA_SIZES = (100, 100, 150, 200, 200, 250, 300, 300, 400, 500, 600)
FROM_JSON_K = (2,) * 5 + (3,) * 5
# truncate(3) + validate is the slowest task. It is 16 of the 105 tasks, so
# that latency_p90_ms falls in the middle of these identical tasks.
TRUNCATE_K = (1, 2, 2) + (3,) * 16
TABLE_K = 2  # the explicit category built at set-up
PASSES = 5  # passes per measuring run
DEEP_SEGMENTS = 3000
HOSTILE = ("deep_path_obj",)


def _sizes(rng, n, lo=0, hi=3):
    return [rng.randint(lo, hi) for _ in range(n)]


def _perm(rng, size):
    images = list(range(1, size + 1))
    rng.shuffle(images)
    return tuple(images)


def _inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images, 1):
        inv[j - 1] = i
    return tuple(inv)


def _functions(m, n):
    """All functions {1..m} -> {1..n} as image tuples, in itertools order."""
    return list(itertools.product(range(1, n + 1), repeat=m))


def _iso_data(rng, n):
    """Source and destination families of ``n`` paths and a random ISO between them."""
    src_paths = gen_paths(rng, n)
    dst_paths = gen_paths(rng, n)
    sizes = _sizes(rng, n)
    target = list(dst_paths)
    rng.shuffle(target)
    src = dict(zip(src_paths, sizes))
    f0 = dict(zip(src_paths, target))
    dst = {f0[p]: src[p] for p in src_paths}
    f1 = {p: _perm(rng, src[p]) for p in src_paths}
    return src, dst, f0, f1


def _obj_of_task(fc, skel, assign):
    obj = fc.DtryObj.of(skel, {dotted(p): v for p, v in assign.items()})
    return [(tuple(p), v) for p, v in obj.assign.items()]


def _iso_inverse_task(fc, skel, src, dst, f0, f1):
    FinFn = fc.FinFn
    x = fc.DtryObj.of(skel, src)
    y = fc.DtryObj.of(skel, dst)
    m = fc.DtryMor(fc.Variant.ISO, x, y, f0, {p: FinFn(len(im), im) for p, im in f1.items()})
    back = {q: p for p, q in f0.items()}
    inv = fc.DtryMor(
        fc.Variant.ISO, y, x, back, {q: FinFn(len(f1[p]), _inverse(f1[p])) for q, p in back.items()}
    )
    c = fc.compose_mor(m, inv)
    return [(tuple(p), tuple(c.f0[p]), c.f1[p].images) for p in c.f0]


def _iso_inverse_expect(src):
    return [(p, p, tuple(range(1, src[p] + 1))) for p in sorted(src)]


def _random_fn(rng, dom, cod):
    """A random function {1..dom} -> {1..cod} as (cod, images)."""
    return cod, tuple(rng.randint(1, cod) for _ in range(dom))


def _composable_data(rng, n, variant):
    """Three families over objects {1, 2} and two composable index maps with components."""
    xs, ys, zs = (dict(zip(gen_paths(rng, n), _sizes(rng, n, 1, 2))) for _ in range(3))
    if variant == "GENERAL":
        maps = [(xs, ys), (ys, zs)]
    else:  # PRODUCT index maps run from the destination back to the source
        maps = [(ys, xs), (zs, ys)]
    mors = []
    for index, target in maps:
        t_paths = sorted(target)
        f0 = {p: rng.choice(t_paths) for p in index}
        if variant == "GENERAL":  # components X[p] -> Y[f0(p)]
            f1 = {p: _random_fn(rng, index[p], target[f0[p]]) for p in index}
        else:  # components X[f0(q)] -> Y[q]
            f1 = {p: _random_fn(rng, target[f0[p]], index[p]) for p in index}
        mors.append((f0, f1))
    return (xs, ys, zs), mors


def _compose_task(fc, cat, variant, objs, mors):
    var = fc.Variant[variant]
    x, y, z = (fc.DtryObj.of(cat, o) for o in objs)
    built = []
    for (src, dst), (f0, f1) in zip(((x, y), (y, z)), mors):
        built.append(
            fc.DtryMor(var, src, dst, f0, {p: fc.FinFn(cod, im) for p, (cod, im) in f1.items()})
        )
    c = fc.compose_mor(*built)
    return [(tuple(p), tuple(c.f0[p]), c.f1[p].cod, c.f1[p].images) for p in c.f0]


def _compose_expect(variant, objs, mors):
    (f0, f1), (g0, g1) = mors
    out = []
    if variant == "GENERAL":
        for p in sorted(f0):
            cod, images = g1[f0[p]]
            out.append((p, g0[f0[p]], cod, tuple(images[i - 1] for i in f1[p][1])))
    else:
        for r in sorted(g0):
            q = g0[r]
            cod, images = g1[r]
            out.append((r, f0[q], cod, tuple(images[i - 1] for i in f1[q][1])))
    return out


def _mu_obj_data(rng, outer_n):
    outer = gen_paths(rng, outer_n)
    inner = {}
    for i, p in enumerate(outer):
        n = 0 if i == 0 else rng.randint(5, 40)
        inner[p] = dict(zip(gen_paths(rng, n), _sizes(rng, n))) if n else {}
    return inner


def _mu_obj_task(fc, core, skel, inner):
    objs = {dotted(p): fc.DtryObj.of(skel, a) for p, a in inner.items()}
    flat = fc.mu_obj(core.Dtry.from_path_map(objs), cat=skel)
    return [(tuple(p), v) for p, v in flat.assign.items()]


def _mu_obj_expect(inner):
    return sorted((p + q, v) for p, a in inner.items() for q, v in a.items())


def _mu_mor_task(fc, core, skel, parts):
    mors = {}
    for p, (src, dst, f0, f1) in parts.items():
        x = fc.DtryObj.of(skel, src)
        y = fc.DtryObj.of(skel, dst)
        mors[dotted(p)] = fc.DtryMor(
            fc.Variant.ISO, x, y, f0, {q: fc.FinFn(len(im), im) for q, im in f1.items()}
        )
    m = fc.mu_mor(core.Dtry.from_path_map(mors), cat=skel)
    return [(tuple(q), tuple(m.f0[q]), m.f1[q].images) for q in m.f0]


def _mu_mor_expect(parts):
    return sorted(
        (p + q, p + f0[q], f1[q]) for p, (_, _, f0, f1) in parts.items() for q in f0
    )


def _algebra_task(fc, skel, alg, src, dst, f0, f1):
    x = fc.DtryObj.of(skel, src)
    y = fc.DtryObj.of(skel, dst)
    m = fc.DtryMor(fc.Variant.ISO, x, y, f0, {p: fc.FinFn(len(im), im) for p, im in f1.items()})
    result = fc.algebra_eval_mor(alg, m)
    return (result.cod, result.images)


def _algebra_expect(src, dst, f0, f1):
    """Tensor of the components, then blocks moved into destination path order."""
    dst_order = sorted(dst)
    offset, out_offset = 0, {}
    for q in dst_order:
        out_offset[q] = offset
        offset += dst[q]
    images = []
    for p in sorted(src):
        images.extend(out_offset[f0[p]] + t for t in f1[p])
    return (offset, tuple(images))


def _table_json(rng, k):
    """The category of functions between {1..m}, m <= k, as string-id JSON tables."""
    objects = list(range(k + 1))
    fns = [(m, n, im) for m in objects for n in objects for im in _functions(m, n)]
    labels = [f"f{i}" for i in range(len(fns))]
    rng.shuffle(labels)
    ident = dict(zip(fns, labels))
    morphisms = [{"id": ident[f], "dom": str(f[0]), "cod": str(f[1])} for f in fns]
    rng.shuffle(morphisms)
    compose = []
    for f in fns:
        for g in fns:
            if f[1] == g[0]:
                composite = (f[0], g[1], tuple(g[2][i - 1] for i in f[2]))
                compose.append([ident[f], ident[g], ident[composite]])
    rng.shuffle(compose)
    identity = {str(n): ident[(n, n, tuple(range(1, n + 1)))] for n in objects}
    data = {
        "objects": [str(n) for n in objects],
        "morphisms": morphisms,
        "identity": identity,
        "compose": compose,
    }
    samples = [tuple(c) for c in rng.sample(compose, 24)]
    return json.dumps(data), samples, len(fns)


def _from_json_task(fc, text, k, samples):
    cat = fc.FinCat.from_json(text)
    homs = [len(cat.hom(str(m), str(n))) for m in range(k + 1) for n in range(k + 1)]
    return (len(cat.morphisms()), homs, [cat.compose(f, g) for f, g, _ in samples])


def _hom_counts(k):
    return [n**m for m in range(k + 1) for n in range(k + 1)]


def _truncate_task(skel, k):
    cat = skel.truncate(k, check_laws=False)
    cat.validate()
    return (len(cat.morphisms()), [len(cat.hom(m, n)) for m in range(k + 1) for n in range(k + 1)])


def build(seed, workdir, dtry):
    """Generate the seeded families and the set-up category; return one pass of tasks."""
    fc, core = dtry.fincat, dtry.core
    skel = fc.FinSetSkeleton()
    table = skel.truncate(TABLE_K)
    alg = fc.finset_coproduct_algebra(skel)
    rng = random.Random(seed)
    ops = []

    for n in OBJ_OF_SIZES:
        assign = dict(zip(gen_paths(rng, n), _sizes(rng, n)))
        ops.append(
            Op(
                "obj_of",
                n,
                lambda a=assign: _obj_of_task(fc, skel, a),
                lambda a=assign: sorted(a.items()),
            )
        )
    for n in ISO_SIZES:
        src, dst, f0, f1 = _iso_data(rng, n)
        ops.append(
            Op(
                "iso_inverse",
                2 * n,
                lambda d=(src, dst, f0, f1): _iso_inverse_task(fc, skel, *d),
                lambda s=src: _iso_inverse_expect(s),
            )
        )
    for variant in ("GENERAL", "PRODUCT"):
        for n in COMPOSE_SIZES:
            objs, mors = _composable_data(rng, n, variant)
            ops.append(
                Op(
                    f"compose_{variant.lower()}",
                    3 * n,
                    lambda v=variant, o=objs, m=mors: _compose_task(fc, table, v, o, m),
                    lambda v=variant, o=objs, m=mors: _compose_expect(v, o, m),
                )
            )
    for outer_n in MU_OBJ_OUTER:
        inner = _mu_obj_data(rng, outer_n)
        ops.append(
            Op(
                "mu_obj",
                sum(len(a) for a in inner.values()),
                lambda i=inner: _mu_obj_task(fc, core, skel, i),
                lambda i=inner: _mu_obj_expect(i),
            )
        )
    for outer_n in MU_MOR_OUTER:
        parts = {p: _iso_data(rng, rng.randint(5, 30)) for p in gen_paths(rng, outer_n)}
        ops.append(
            Op(
                "mu_mor",
                sum(2 * len(d[0]) for d in parts.values()),
                lambda ps=parts: _mu_mor_task(fc, core, skel, ps),
                lambda ps=parts: _mu_mor_expect(ps),
            )
        )
    for n in ALGEBRA_SIZES:
        data = _iso_data(rng, n)
        ops.append(
            Op(
                "algebra_eval",
                2 * n,
                lambda d=data: _algebra_task(fc, skel, alg, *d),
                lambda d=data: _algebra_expect(*d),
            )
        )
    for k in FROM_JSON_K:
        text, samples, count = _table_json(rng, k)
        ops.append(
            Op(
                "from_json",
                count,
                lambda t=text, k=k, s=samples: _from_json_task(fc, t, k, s),
                lambda k=k, s=samples: (sum(_hom_counts(k)), _hom_counts(k), [h for _, _, h in s]),
            )
        )
    for k in TRUNCATE_K:
        ops.append(
            Op(
                "truncate_validate",
                sum(_hom_counts(k)),
                lambda k=k: _truncate_task(skel, k),
                lambda k=k: (sum(_hom_counts(k)), _hom_counts(k)),
            )
        )

    deep = tuple(["s"] * DEEP_SEGMENTS)
    ops.append(
        Op(
            "hostile",
            1,
            lambda: _obj_of_task(fc, skel, {deep: 2}),
            lambda: [(deep, 2)],
            hostile="deep_path_obj",
            judge=correct_or_rejected(dtry.DtryError),
        )
    )
    rng.shuffle(ops)
    return ops
