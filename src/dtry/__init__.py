"""Directories: values bound to prefix-free sets of dotted paths.

The core type is :class:`Dtry`, an immutable trie whose internal nodes
are nonempty records. Around it sit validated names and paths, two
canonical text formats (flat ``path = value`` lines and nested JSON),
and directory-indexed families of objects in a finite category with a
strictly associative tensor evaluation.
"""

from .core import Dtry, Leaf, Node, NonEmptyRecord, distrib, filter_nothings, merge_disjoint
from .errors import (
    BadNameError,
    BadPathError,
    DtryError,
    NotACategoryError,
    NotComposableError,
    PrefixConflictError,
)
from .fincat import (
    DtryMor,
    DtryObj,
    FinCat,
    FinFn,
    FinSetSkeleton,
    StrictAlgebra,
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
from .formats import (
    Diagnostic,
    FlatLine,
    ParseError,
    emit_flat,
    emit_nested,
    parse_flat,
    parse_nested,
    scan_flat,
)
from .maybe import NOTHING, Just
from .paths import Name, Path

__all__ = [
    "Dtry",
    "Leaf",
    "Node",
    "NonEmptyRecord",
    "distrib",
    "filter_nothings",
    "merge_disjoint",
    "Name",
    "Path",
    "Just",
    "NOTHING",
    "Diagnostic",
    "ParseError",
    "FlatLine",
    "scan_flat",
    "parse_flat",
    "emit_flat",
    "parse_nested",
    "emit_nested",
    "FinCat",
    "FinFn",
    "FinSetSkeleton",
    "Variant",
    "DtryObj",
    "DtryMor",
    "identity_mor",
    "compose_mor",
    "mu_obj",
    "mu_mor",
    "shape_with_n_leaves",
    "StrictAlgebra",
    "finset_coproduct_algebra",
    "algebra_eval_obj",
    "algebra_eval_mor",
    "DtryError",
    "BadNameError",
    "BadPathError",
    "PrefixConflictError",
    "NotACategoryError",
    "NotComposableError",
]

__version__ = "0.1.0"
