"""Directories: values bound to prefix-free sets of dotted paths.

The core type is :class:`Dtry`, an immutable trie whose internal nodes
are nonempty records. Around it sit validated names and paths, two
canonical text formats (flat ``path = value`` lines and nested JSON),
and directory-indexed families of objects in a finite category with a
strictly associative tensor evaluation.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import core, errors, fincat, formats, maybe, paths
from .core import *
from .errors import *
from .fincat import *
from .formats import *
from .maybe import *
from .paths import *

__all__ = [
    *core.__all__, *paths.__all__, *maybe.__all__, *formats.__all__, *fincat.__all__, *errors.__all__
]

__version__ = "0.1.0"
