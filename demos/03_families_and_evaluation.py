"""Directory-indexed objects over a category, and tensor evaluation.

A directory can index things other than configuration values: here its
leaves hold objects of a small category (finite sets, skeletally: the
sizes 0, 1, 2, ...), and morphisms between such directories carry an
index map plus one component morphism per leaf. Evaluating a directory
of sets with the coproduct tensor turns path order into block layout.

Run with: python3 demos/03_families_and_evaluation.py
"""

from dtry import (
    Dtry,
    DtryMor,
    DtryObj,
    FinSetSkeleton,
    Path,
    Variant,
    algebra_eval_mor,
    algebra_eval_obj,
    compose_mor,
    finset_coproduct_algebra,
    identity_mor,
    mu_obj,
)

skel = FinSetSkeleton()

# An object: one directory whose values are sizes (objects of the category).
state = DtryObj.of(skel, {"oscillator.mass": 1, "oscillator.spring": 1, "tank": 2})
print("object, as a path family:")
for path, size in state.assign.items():
    print("  ", path, "->", size)

# Nested directories of objects flatten just like directories of values:
# mu_obj is the flatten of the inner directories.
grouped = Dtry.from_path_map(
    {
        "left": DtryObj.of(skel, {"a": 2}),
        "right": DtryObj.of(skel, {"b": 1, "c": 3}),
    }
)
flat = mu_obj(grouped)
assert flat.objs == grouped.map_values(lambda o: o.objs).flatten()
print("\nflattened family:", {str(p): n for p, n in flat.assign.items()})

# A morphism: an index map between path sets and a component for each
# indexed pair. The ISO variant demands a bijective index map.
src = DtryObj.of(skel, {"a": 1, "b": 2})
dst = DtryObj.of(skel, {"a": 2, "b": 1})
swap = DtryMor(
    Variant.ISO,
    src,
    dst,
    {Path("a"): Path("b"), Path("b"): Path("a")},
    {Path("a"): skel.identity(1), Path("b"): skel.identity(2)},
)
unswap = DtryMor(
    Variant.ISO,
    dst,
    src,
    {Path("a"): Path("b"), Path("b"): Path("a")},
    {Path("a"): skel.identity(2), Path("b"): skel.identity(1)},
)
undone = compose_mor(swap, unswap) == identity_mor(src, Variant.ISO)
print("\nswap then unswap is the identity:", undone)

# Evaluation with the coproduct algebra: leaves become blocks laid out
# in path order, and the index map moves each block onto its image.
alg = finset_coproduct_algebra(skel)
print("\ntotal size of the state object:", algebra_eval_obj(alg, state))
fn = algebra_eval_mor(alg, swap)
print("the swap evaluates to the function", tuple(fn.images), "on {1..3}")
print("which moves the single 'a' element after the two 'b' elements")

# A GENERAL morphism may send two leaves to one: both blocks land on the
# same destination block, element for element (the codiagonal).
pair = DtryObj.of(skel, {"left": 2, "right": 2})
merge = DtryMor(
    Variant.GENERAL,
    pair,
    DtryObj.of(skel, {"both": 2}),
    {Path("left"): Path("both"), Path("right"): Path("both")},
    {Path("left"): skel.identity(2), Path("right"): skel.identity(2)},
)
fn = algebra_eval_mor(alg, merge)
print("\nmerging 'left' and 'right' into 'both' evaluates to", tuple(fn.images), f"into {{1..{fn.cod}}}")
