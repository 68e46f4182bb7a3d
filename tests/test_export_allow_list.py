"""Every export that nothing in the package reaches is listed, with why.

A name in eqpi1.__all__ (submodules aside) is reached when it appears (as
a name, an attribute or an import) in a module of src/eqpi1 other than
__init__.py, outside the body of its own definition.  An exported name
that nothing reaches is library surface that only callers outside the
package use.  Each such name must be in ALLOWED with its reason, so a new
one is a deliberate choice; a listed name that gains a caller or leaves
__all__ must leave ALLOWED too.
"""

import ast
import os
import types

import eqpi1

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "eqpi1")

ALLOWED = {
    "cyclic_group": "group constructor for library callers; documents "
    "give groups as tables or permutations",
    "symmetric_group": "group constructor for library callers; documents "
    "give groups as tables or permutations",
    "homology": "homology of bare boundary matrices, with the d.d = 0 "
    "check; complexes reach homology through homology_of_complex",
}


def _unreached():
    refs = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            refs.append((node.name, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), filename=name), frozenset())
    exported = [
        name for name in eqpi1.__all__
        if not isinstance(getattr(eqpi1, name), types.ModuleType)
    ]
    assert "build_space" in exported  # the scan sees the package
    return {
        name for name in exported
        if not any(r == name and name not in enclosing for r, enclosing in refs)
    }


def test_every_unreached_export_is_listed():
    assert sorted(_unreached() - set(ALLOWED)) == []


def test_every_listed_export_is_exported_and_unreached():
    assert sorted(set(ALLOWED) - _unreached()) == []
