"""Hypothesis properties of the document reader.

The tokenizer is checked against the former one in tests/naive_tokenize.py
on random texts.

Parser robustness and round trips run on token-level mutants of the
shipped documents: tokens deleted, inserted from the documents' own
vocabulary, or the token list cut short.  The action closure is checked
against the former all-pairs closure in tests/naive_action.py.
"""

import os
import re
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st
from document_render import documents_equal, render_document
from naive_action import naive_complete_action
from naive_tokenize import naive_tokenize

import eqpi1
from eqpi1.documents import (
    DanglingReference,
    DocumentSyntaxError,
    SchemaViolation,
    _complete_action,
    parse_document,
    tokenize,
)
from eqpi1.groups import cyclic_group, symmetric_group

DATA = os.path.join(os.path.dirname(eqpi1.__file__), "data")
SHIPPED = [
    open(os.path.join(DATA, name), encoding="utf-8").read()
    for name in ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")
]
KEYWORDS = (
    "group family groupoid functor complex table permutations row perm all "
    "trivial fin objects gen rel value arrow obj vertices edge face solid action"
).split()
VOCABULARY = sorted(
    {t.value for text in SHIPPED for t in tokenize(text)}
    | set(KEYWORDS)
    | set("{}()@^")
    | {"->"}
)


@st.composite
def mutants(draw):
    tokens = [t.value for t in tokenize(draw(st.sampled_from(SHIPPED)))]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "insert", "truncate")))
        i = draw(st.integers(0, len(tokens)))
        if op == "delete":
            del tokens[i:i + 1]
        elif op == "insert":
            tokens.insert(i, draw(st.sampled_from(VOCABULARY)))
        else:
            del tokens[i:]
    return " ".join(tokens)


def parse_or_refusal(text):
    """The parsed document, or None when it is refused with one of the
    three documented errors; anything else propagates."""
    try:
        return parse_document(text)
    except (DocumentSyntaxError, DanglingReference, SchemaViolation) as e:
        assert type(e) in (DocumentSyntaxError, DanglingReference, SchemaViolation)
        return None


@given(mutants())
@settings(deadline=None)
@example("group table { row")
@example("group permutations 3 { perm")
@example("complex c { vertices v } group table { row 0 1 row 1 0 }")
def test_mutants_parse_or_raise_a_documented_error(text):
    parse_or_refusal(text)


@given(mutants())
@settings(deadline=None)
def test_parsed_mutants_round_trip(text):
    doc = parse_or_refusal(text)
    if doc is not None:
        assert documents_equal(parse_document(render_document(doc)), doc)


# tokens, whitespace of several kinds (Unicode too), comments, a '-' not
# followed by a digit, and characters no token starts with
LINE_PIECES = (
    "a", "b1", "x_.y", "_", "0", "12", "-3", "-", "->", "-x", "^", "{", "}",
    "(", ")", "@", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c",
    "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "#", "# c } $ \n", "$",
    "\xe9", "\u0663", "!", ",", "ab-2",
)


def _tokens_or_refusal(tokenize, text):
    try:
        return tokenize(text)
    except DocumentSyntaxError as e:
        return str(e), e.line, e.col


@given(st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join) | st.text())
@settings(max_examples=300, deadline=None)
@example("gen a u v\n\trel a^-2 # c\n  x -> y\u3000@ z - 1")
def test_tokenize_matches_naive_tokenizer(text):
    assert _tokens_or_refusal(tokenize, text) == _tokens_or_refusal(naive_tokenize, text)


Z4 = cyclic_group(4)
S3 = symmetric_group(3)
# S3 permutes three cells the way its elements permute 0, 1, 2; elements
# are numbered in the lexicographic order of their image tuples
S3_ON_POINTS = {
    g: {f"c{x}": (f"c{img[x]}", 1) for x in range(3)}
    for g, img in enumerate(sorted(permutations(range(3))))
}


@st.composite
def partial_actions(draw):
    """(group, {element: table}, cells): tables for a few elements, each
    cell sent to a cell with a sign; bijections and positive signs are
    drawn often enough that many partial actions are consistent."""
    group = draw(st.sampled_from((Z4, S3)))
    cells = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    elements = draw(st.lists(st.sampled_from(group.elements()), max_size=3, unique=True))
    given = {}
    for el in elements:
        if draw(st.booleans()):
            images = draw(st.permutations(cells))
        else:
            images = draw(st.lists(st.sampled_from(cells), min_size=len(cells),
                                   max_size=len(cells)))
        signs = [1] * len(cells)
        if draw(st.booleans()):
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(cells),
                                  max_size=len(cells)))
        given[el] = {c: (img, s) for c, img, s in zip(cells, images, signs)}
    return group, given, cells


def _completion(complete, group, given, cells):
    try:
        return complete(group, given, cells)
    except SchemaViolation as e:
        return re.sub(r"inconsistent at element \d+", "inconsistent at element N", str(e))


@given(partial_actions())
@settings(deadline=None)
@example((S3, {2: S3_ON_POINTS[2], 3: S3_ON_POINTS[3]}, ["c0", "c1", "c2"]))
@example((Z4, {1: {"c0": ("c1", 1), "c1": ("c0", -1)}}, ["c0", "c1"]))
@example((Z4, {1: {"c0": ("c1", 1), "c1": ("c0", 1)}, 2: {"c0": ("c1", 1), "c1": ("c0", 1)}},
          ["c0", "c1"]))
def test_action_closure_matches_naive_closure(case):
    group, given, cells = case
    want = _completion(naive_complete_action, group, given, cells)
    got = _completion(_complete_action, group, given, cells)
    assert got == want


def test_action_closure_from_generators():
    got = _complete_action(S3, {2: S3_ON_POINTS[2], 3: S3_ON_POINTS[3]}, ["c0", "c1", "c2"])
    assert got == S3_ON_POINTS
