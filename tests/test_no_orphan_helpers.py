"""Every private helper in src/eqpi1 has a caller.

A private helper is a function or method whose own name starts with a
single underscore, or a method of a class whose name does.  It counts as
used when its name appears (as a name, an attribute or an import)
somewhere in src/eqpi1 outside its own body.  A helper left behind when a
caller switches to another copy fails this test.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "eqpi1")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _scan(tree, module, helpers, refs):
    """Record private helpers as (qualified name, node) and every name
    reference as (name, ids of the enclosing function nodes)."""

    def visit(node, enclosing, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_private_class = owner is not None and _private(owner)
            if _private(node.name) or (
                in_private_class and not node.name.startswith("__")
            ):
                qual = f"{owner}.{node.name}" if owner else node.name
                helpers.append((f"{module}:{qual}", node))
            enclosing = enclosing | {id(node)}
            owner = None
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            refs.append((node.name, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, owner)

    visit(tree, frozenset(), None)


def test_every_private_helper_has_a_caller():
    helpers, refs = [], []
    for module, tree in _modules():
        _scan(tree, module, helpers, refs)
    assert helpers  # the scan sees the package
    orphans = [
        qual
        for qual, node in helpers
        if not any(
            name == node.name and id(node) not in enclosing
            for name, enclosing in refs
        )
    ]
    assert orphans == []
