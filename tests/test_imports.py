"""``import dtry`` and a CLI call load the document side only.

``dtry.fincat`` loads on the first use of it or of its names, and no
module of the document side imports ``dataclasses``, which would bring
in ``inspect`` and its own imports. Each check runs a fresh
``python -S``, so that no ``site`` preload hides an import.
"""

import subprocess
import sys

import pytest

import dtry

NOT_LOADED = {"dtry.fincat", "dataclasses", "inspect"}


def run(*argv):
    """Run a fresh ``python -S -X importtime`` on ``argv``; the process and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv], capture_output=True, text=True, timeout=60
    )
    lines = proc.stderr.splitlines()
    return proc, {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}


@pytest.mark.parametrize(
    "statement, module", [("import dtry", "dtry"), ("import dtry.cli", "dtry.cli"), ("from dtry import cli", "dtry.cli")]
)
def test_an_import_loads_the_document_side_only(statement, module):
    proc, modules = run("-c", statement)
    assert proc.returncode == 0, proc.stderr
    assert {"dtry.core", "dtry.formats", module} <= modules
    assert modules & NOT_LOADED == set()


def test_a_cli_call_loads_the_document_side_only(tmp_path):
    document = tmp_path / "two.flat"
    document.write_text("a.x = 1\na.y = 2\n")
    proc, modules = run("-m", "dtry", "validate", str(document))
    assert proc.returncode == 0, proc.stderr
    assert "dtry.cli" in modules
    assert modules & NOT_LOADED == set()


def test_family_names_load_on_first_use():
    script = (
        "import sys\n"
        "import dtry\n"
        "assert 'dtry.fincat' not in sys.modules\n"
        "assert dtry.DtryObj is dtry.fincat.DtryObj is sys.modules['dtry.fincat'].DtryObj\n"
    )
    proc, _ = run("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_a_star_import_binds_every_public_name():
    script = (
        "from dtry import *\n"
        "import dtry\n"
        "missing = [name for name in dtry.__all__ if globals().get(name) is not getattr(dtry, name)]\n"
        "assert 'DtryObj' in dtry.__all__ and not missing, missing\n"
    )
    proc, _ = run("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_no_other_name_is_served():
    for name in ("no_such_name", "_private", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(dtry, name)
