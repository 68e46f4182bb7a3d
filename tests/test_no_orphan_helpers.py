"""Every helper in src/eqpi1 has a caller.

A private helper is a function or method whose own name starts with a
single underscore, or a method of a class whose name does.  Any other
function or method, dunders aside, is public.  A function counts as used
when its name appears (as a name, an attribute or an import) somewhere
in src/eqpi1 outside its own body.  A private helper left behind when a
caller switches to another copy fails this test, and so does a public
function or method that nothing in the package calls and that
eqpi1/__init__.py does not export.
"""

import ast
import os

import eqpi1

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "eqpi1")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _scan(tree, module, helpers, public, refs):
    """Record private helpers and public functions and methods as
    (qualified name, node), and every name reference as (name, ids of the
    enclosing function nodes)."""

    def visit(node, enclosing, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_private_class = owner is not None and _private(owner)
            name = f"{owner}.{node.name}" if owner else node.name
            qual = f"{module}:{name}"
            if _private(node.name) or (
                in_private_class and not node.name.startswith("__")
            ):
                helpers.append((qual, node))
            elif not node.name.startswith("__"):
                public.append((qual, node))
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


def _orphans(functions, refs):
    return [
        qual
        for qual, node in functions
        if not any(
            name == node.name and id(node) not in enclosing
            for name, enclosing in refs
        )
    ]


def _package():
    helpers, public, refs = [], [], []
    for module, tree in _modules():
        _scan(tree, module, helpers, public, refs)
    return helpers, public, refs


def test_every_private_helper_has_a_caller():
    helpers, _, refs = _package()
    assert helpers  # the scan sees the package
    assert _orphans(helpers, refs) == []


def test_every_unexported_public_function_has_a_caller():
    _, public, refs = _package()
    exported = set(eqpi1.__all__)
    assert public and "build_space" in exported  # the scan sees the package
    # a method is never exported: its qualified name has its class in it
    unexported = [
        (qual, node)
        for qual, node in public
        if qual.split(":")[1] not in exported
    ]
    assert _orphans(unexported, refs) == []
