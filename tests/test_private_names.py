"""Every module-level private name of ``dtry`` is used outside its own definition."""

import ast
from pathlib import Path

import dtry

MODULES = {path.name: ast.parse(path.read_text()) for path in Path(dtry.__file__).parent.glob("*.py")}


def private_definitions(module):
    """``(name, node)`` for each module-level ``_private`` function, class and constant."""
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
