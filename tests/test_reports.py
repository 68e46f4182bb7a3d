"""Report.exit_code: the counted verdicts of a report go through the one
verdict policy; informational nodes and everything below them never
count, and strict mode turns Undecided into failure."""

import pytest

from eqpi1.reports import EXIT_OK, EXIT_REFUTED, EXIT_UNDECIDED, Report
from eqpi1.verdicts import LEVEL_ABELIANIZED, LEVEL_SYNTACTIC, Verdict

SYN = Verdict.verified(LEVEL_SYNTACTIC)
ABEL = Verdict.verified(LEVEL_ABELIANIZED)
OPEN = Verdict.undecided("word problem")
NO = Verdict.refuted({"check": "d2*d3 = 0"})


def tree(verdict, *, holder=None, informational=False):
    """A verified root and node, and a leaf with the verdict below the
    node; with holder (an informational flag) the leaf hangs one level
    lower, under a node without a verdict and with that flag."""
    root = Report("root", SYN)
    parent = root.add(Report("node", SYN))
    if holder is not None:
        parent = parent.add(Report("holder", informational=holder))
    parent.add(Report("leaf", verdict, informational=informational))
    return root


@pytest.mark.parametrize(
    "verdict, strict, code",
    [
        (None, False, EXIT_OK),
        (None, True, EXIT_OK),
        (SYN, False, EXIT_OK),
        (ABEL, True, EXIT_OK),
        (OPEN, False, EXIT_UNDECIDED),
        (OPEN, True, EXIT_REFUTED),
        (NO, False, EXIT_REFUTED),
        (NO, True, EXIT_REFUTED),
    ],
)
def test_exit_code_of_each_status(verdict, strict, code):
    assert Report("only", verdict).exit_code(strict) == code
    assert tree(verdict).exit_code(strict) == code
    assert tree(verdict, holder=False).exit_code(strict) == code


@pytest.mark.parametrize("verdict", [OPEN, NO])
@pytest.mark.parametrize("strict", [False, True])
def test_informational_nodes_do_not_count(verdict, strict):
    assert tree(verdict, informational=True).exit_code(strict) == EXIT_OK
    assert tree(verdict, holder=True).exit_code(strict) == EXIT_OK
    assert Report("root", verdict, informational=True).exit_code(strict) == EXIT_OK


def test_a_refutation_outranks_an_undecided_node():
    root = tree(OPEN)
    root.add(Report("later", NO))
    assert root.exit_code() == EXIT_REFUTED
    root = Report("root", NO)
    root.add(Report("later", OPEN))
    assert root.exit_code() == EXIT_REFUTED
