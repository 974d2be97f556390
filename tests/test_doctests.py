"""The examples in the docstrings of every ``dtry`` module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import dtry

# dtry.__main__ runs the command line when imported.
MODULES = ["dtry"] + sorted(
    info.name
    for info in pkgutil.iter_modules(dtry.__path__, "dtry.")
    if info.name != "dtry.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


@pytest.mark.parametrize("name", ["dtry.core", "dtry.fincat", "dtry.formats", "dtry.paths"])
def test_examples_are_found(name):
    assert doctest.testmod(importlib.import_module(name)).attempted > 0
