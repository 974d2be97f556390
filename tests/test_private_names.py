"""Every module-level private name of ``dtry`` is used outside its own definition, and
every public name is stated once: in its module's ``__all__``, which the package re-exports."""

import ast
import importlib
from pathlib import Path

import dtry

MODULES = {path.name: ast.parse(path.read_text()) for path in Path(dtry.__file__).parent.glob("*.py")}


def definitions(module):
    """``(name, node)`` for each module-level function, class and constant."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(module):
    """``(name, node)`` for each module-level ``_private`` function, class and constant."""
    for name, node in definitions(module):
        if name.startswith("_") and not name.startswith("__"):
            yield name, node


def read_names(tree, skip):
    """The names read in ``tree``, as a variable or an attribute, outside the subtree ``skip``."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        pending.extend(ast.iter_child_nodes(node))


def test_every_private_name_is_used_outside_its_definition():
    unused = [
        f"{file}:{name}"
        for file, module in MODULES.items()
        for name, definition in private_definitions(module)
        if not any(name in read_names(tree, definition) for tree in MODULES.values())
    ]
    assert unused == []


def test_the_scan_finds_the_definitions():
    names = {name for module in MODULES.values() for name, _ in private_definitions(module)}
    assert {"_conflicts", "_from_sorted", "_Sorted", "_text", "_is_name"} <= names


# The modules that state public names, each in its own __all__.
EXPORTERS = {
    file: importlib.import_module(f"dtry.{file.removesuffix('.py')}")
    for file, module in MODULES.items()
    if file != "__init__.py" and "__all__" in dict(definitions(module))
}


def test_each_public_name_is_defined_in_the_module_that_lists_it():
    undefined = [
        f"{file}:{name}"
        for file, module in EXPORTERS.items()
        for name in module.__all__
        if name not in dict(definitions(MODULES[file]))
    ]
    assert undefined == []


def test_the_package_reexports_each_public_name_once():
    assert len(dtry.__all__) == len(set(dtry.__all__))
    assert sorted(dtry.__all__) == sorted(name for module in EXPORTERS.values() for name in module.__all__)
    for module in EXPORTERS.values():
        for name in module.__all__:
            assert getattr(dtry, name) is getattr(module, name), name


def test_the_exporters_are_found():
    assert {"core.py", "errors.py", "fincat.py", "formats.py", "maybe.py", "paths.py"} <= set(EXPORTERS)
