"""Every test module that is not a test file is imported by a test file.

The oracles (naive_*, dense_*), the helpers (document_render,
homotopy_coend, presentation_complex) and conftest live beside the test
files.  A module none of the test_*.py files imports runs in no test: an
oracle whose last caller left checks nothing and rots unnoticed, like a
helper in src/eqpi1 without a caller (test_no_orphan_helpers.py).
"""

import ast
import os

TESTS = os.path.dirname(__file__)


def _imported_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_every_support_module_is_imported_by_a_test():
    names = sorted(n[:-3] for n in os.listdir(TESTS) if n.endswith(".py"))
    tests = [n for n in names if n.startswith("test_")]
    support = [n for n in names if not n.startswith("test_")]
    assert "naive_validate" in support and tests  # the scan sees the tests
    imported = set()
    for name in tests:
        imported.update(_imported_modules(os.path.join(TESTS, name + ".py")))
    assert [n for n in support if n not in imported] == []
