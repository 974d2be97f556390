"""Directories: values bound to prefix-free sets of dotted paths.

The core type is :class:`Dtry`, an immutable trie whose internal nodes
are nonempty records. Around it sit validated names and paths, two
canonical text formats (flat ``path = value`` lines and nested JSON),
and directory-indexed families of objects in a finite category with a
strictly associative tensor evaluation.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all. ``import dtry`` loads the document side;
:mod:`dtry.fincat`, which no CLI command runs, loads on the first use of
it, of one of its names or of ``__all__``.
"""

from . import core, errors, formats, maybe, paths
from .core import *
from .errors import *
from .formats import *
from .maybe import *
from .paths import *

__version__ = "0.1.0"


def __getattr__(name):
    """Serve ``fincat``, its names and ``__all__``, importing it on first use (PEP 562)."""
    if name == "__all__" or name[:1] != "_" and name != "cli":  # `from dtry import cli` probes for cli
        from .fincat import __all__ as names

        package = globals()  # the import bound the package's "fincat"
        package.update((n, getattr(package["fincat"], n)) for n in names)
        package["__all__"] = [*core.__all__, *paths.__all__, *maybe.__all__, *formats.__all__, *names, *errors.__all__]
        if name in package:
            return package[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
