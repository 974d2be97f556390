"""Every span target of the benchmark's tracer names an attribute of ``dtry``.

The tracer (``bench/tracing.py``) wraps functions and methods by name, so
renaming one of them breaks a traced run; this test notices it in a
fraction of a second.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span, module_name, owner, attr", load_targets())
def test_target_resolves(span, module_name, owner, attr):
    module = importlib.import_module(f"dtry.{module_name}")
    if owner is None:
        assert callable(getattr(module, attr))
    else:
        assert attr in getattr(module, owner).__dict__
