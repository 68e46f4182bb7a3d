import pytest
from naive_open_face import naive_open_face
from presentation_complex import presentation_complex

from eqpi1.complexes import (
    Edge,
    Face,
    GCellComplex,
    InvalidComplex,
    Solid,
    boundary_matrices,
    fixed_subcomplex,
    fundamental_groupoid,
    homology_of_complex,
    trivial_action,
    validate_complex,
)
from eqpi1.groupoids import Gen, PresentedGroupoid, Word
from eqpi1.groups import Subgroup, cyclic_group, trivial_group
from eqpi1.intlinalg import NotAChainComplex
from eqpi1.verdicts import VERIFIED

TORUS_RELATOR = (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def torus_groupoid():
    return PresentedGroupoid(
        ("u",),
        (Gen("a", "u", "u"), Gen("b", "u", "u")),
        (Word(TORUS_RELATOR, at="u"),),
    )


def homology_strings(x, max_dim=3):
    return [str(h.group) for h in homology_of_complex(x, max_dim=max_dim)]


def refusal(vertices, edges=(), faces=(), solids=(), action=None) -> str:
    """The InvalidComplex message of constructing these cells over the
    trivial group, with the trivial action unless one is given."""
    labels = [*vertices, *(c.label for c in (*edges, *faces, *solids))]
    with pytest.raises(InvalidComplex) as e:
        GCellComplex(
            trivial_group(), tuple(vertices), tuple(edges), tuple(faces),
            tuple(solids), trivial_action(labels) if action is None else action,
        )
    return str(e.value)


LOOP_A = Edge("a", "v", "v")


def test_structural_validation():
    assert refusal(("v", "v")) == "duplicate cell label 'v'"
    assert refusal(("v",), (Edge("v", "v", "v"),)) == "duplicate cell label 'v'"
    assert refusal(("v",), (Edge("a", "v", "w"),)) == "edge 'a' has a missing endpoint"
    assert (
        refusal(("v",), (), (Face("c", Word.gen("a")),))
        == "face 'c' uses unknown edge 'a'"
    )
    assert (
        refusal(("v",), (LOOP_A,), (Face("c", Word((("a", 2),))),))
        == "face 'c' has a letter with exponent 2"
    )
    assert (
        refusal(("v",), (), (Face("c", Word((), at="zz")),))
        == "face 'c' has an empty word without a vertex anchor"
    )
    assert (
        refusal(("v",), (), (), (Solid("s", ((1, "c"),)),))
        == "solid 's' uses unknown face 'c'"
    )
    assert refusal(("v",), action={}) == "action of element 0 is missing"
    assert (
        refusal(("v",), action={0: {}})
        == "action of element 0 is not defined on every cell"
    )
    # a vertex may not pick up a sign
    assert refusal(("v",), action={0: {"v": ("v", -1)}}) == "action of 0 on 'v' has sign -1"
    # dimension mixing
    assert (
        refusal(("v",), (LOOP_A,), action={0: {"v": ("a", 1), "a": ("v", 1)}})
        == "action of 0 sends 'v' to 'a' of a different dimension"
    )


@pytest.mark.parametrize(
    "cells, message",
    [
        # the first repeated label in all_labels() order: v b b v
        ((("v", "b"), (Edge("b", "v", "v"), Edge("v", "v", "v"))),
         "duplicate cell label 'b'"),
        # a duplicate before a broken edge
        ((("v",), (Edge("a", "v", "w"), Edge("a", "v", "v"))),
         "duplicate cell label 'a'"),
        # an endpoint must be a vertex, not some other cell
        ((("v",), (Edge("a", "v", "a"),)), "edge 'a' has a missing endpoint"),
        ((("v",), (Edge("a", "v", "v"), Edge("b", "w", "v"), Edge("c", "v", "w"))),
         "edge 'b' has a missing endpoint"),
        # a broken edge before a broken face
        ((("v",), (Edge("a", "v", "w"),), (Face("c", Word.gen("zz")),)),
         "edge 'a' has a missing endpoint"),
        # an empty word's anchor must be a vertex
        ((("v",), (LOOP_A,), (Face("c", Word((), at="a")),)),
         "face 'c' has an empty word without a vertex anchor"),
        ((("v",), (), (Face("c", Word(())),)),
         "face 'c' has an empty word without a vertex anchor"),
        # a letter must name an edge, not some other cell
        ((("v",), (LOOP_A,), (Face("c", Word.gen("v")),)),
         "face 'c' uses unknown edge 'v'"),
        ((("v",), (LOOP_A,), (Face("c", Word.gen("c")),)),
         "face 'c' uses unknown edge 'c'"),
        # letter by letter: an exponent before a later unknown edge ...
        ((("v",), (LOOP_A,), (Face("c", Word((("a", 2), ("zz", 1)))),)),
         "face 'c' has a letter with exponent 2"),
        # ... and within one letter the edge before its exponent
        ((("v",), (LOOP_A,), (Face("c", Word((("a", 1), ("zz", 0)))),)),
         "face 'c' uses unknown edge 'zz'"),
        # faces in order, each one whole before the next
        ((("v",), (LOOP_A,),
          (Face("c", Word((("a", 1), ("a", -1)))), Face("d", Word((("a", 3),))),
           Face("f", Word.gen("zz")))),
         "face 'd' has a letter with exponent 3"),
        # a broken face before a broken solid
        ((("v",), (LOOP_A,), (Face("c", Word.gen("zz")),), (Solid("s", ((1, "y"),)),)),
         "face 'c' uses unknown edge 'zz'"),
        # a chain must name faces, not some other cell
        ((("v",), (LOOP_A,), (), (Solid("s", ((1, "a"),)),)),
         "solid 's' uses unknown face 'a'"),
        ((("v",), (LOOP_A,), (Face("c", Word.gen("a")),),
          (Solid("s", ((1, "c"), (0, "y"))), Solid("t", ((1, "z"),)))),
         "solid 's' uses unknown face 'y'"),
        # the cells before the action
        ((("v",), (Edge("a", "v", "w"),), (), (), {}), "edge 'a' has a missing endpoint"),
    ],
)
def test_structural_refusals_keep_their_messages_and_order(cells, message):
    assert refusal(*cells) == message


def test_cell_bookkeeping():
    x = presentation_complex(torus_groupoid())
    assert x.cell_counts() == (1, 2, 1, 0)
    assert x.euler_characteristic() == 0
    assert list(x.all_labels()) == ["u", "a", "b", "rel0"]
    assert x.action[0]["a"] == ("a", 1)


def test_validate_face_words():
    tg = trivial_group()
    bad = GCellComplex(
        tg, ("p", "q"),
        (Edge("a", "p", "q"), Edge("b", "p", "q")),
        (Face("c", Word((("a", 1), ("b", 1)))),),
        (),
        trivial_action(["p", "q", "a", "b", "c"]),
    )
    v = validate_complex(bad)
    assert v.is_refuted and v.witness["check"] == "face word composable"
    open_ended = GCellComplex(
        tg, ("p", "q"), (Edge("a", "p", "q"),),
        (Face("c", Word.gen("a")),), (),
        trivial_action(["p", "q", "a", "c"]),
    )
    v = validate_complex(open_ended)
    assert v.is_refuted and v.witness["check"] == "face word closed"


P_Q = ("p", "q"), (Edge("a", "p", "q"), Edge("b", "p", "q"))


@pytest.mark.parametrize(
    "words, witness",
    [
        ([(("a", 1), ("b", 1))],
         {"check": "face word composable", "face": "c0", "letter": ("b", 1)}),
        ([(("a", -1), ("a", -1))],
         {"check": "face word composable", "face": "c0", "letter": ("a", -1)}),
        ([(("a", 1),)], {"check": "face word closed", "face": "c0", "ends": ("p", "q")}),
        ([(("b", -1),)], {"check": "face word closed", "face": "c0", "ends": ("q", "p")}),
        ([(("a", 1), ("b", -1)), (("a", -1), ("b", 1)), ()], None),
        # the first open face names the witness
        ([(("a", 1), ("b", -1)), (("b", 1),), (("a", 1), ("a", 1))],
         {"check": "face word closed", "face": "c1", "ends": ("p", "q")}),
    ],
    ids=["composable", "composable-inverse", "closed", "closed-inverse", "none", "first"],
)
def test_open_face_reads_the_index(words, witness):
    faces = tuple(
        Face(f"c{i}", Word(w, at=None if w else "p")) for i, w in enumerate(words)
    )
    x = GCellComplex(
        trivial_group(), *P_Q, faces, (),
        trivial_action(["p", "q", "a", "b", *(f.label for f in faces)]),
    )
    assert x._open_face == naive_open_face(x) == witness


def test_validate_action_checks():
    tg = trivial_group()
    z2 = cyclic_group(2)

    flipped_identity = GCellComplex(
        tg, ("v",), (Edge("a", "v", "v"),), (), (),
        {0: {"v": ("v", 1), "a": ("a", -1)}},
    )
    v = validate_complex(flipped_identity)
    assert v.is_refuted and v.witness["check"] == "identity acts trivially"

    squash = GCellComplex(
        z2, ("p", "q"), (), (), (),
        {
            0: {"p": ("p", 1), "q": ("q", 1)},
            1: {"p": ("p", 1), "q": ("p", 1)},
        },
    )
    v = validate_complex(squash)
    assert v.is_refuted and v.witness["check"] == "action bijective"

    sign_drift = GCellComplex(
        z2, ("v",), (Edge("a", "v", "v"), Edge("b", "v", "v")), (), (),
        {
            0: {"v": ("v", 1), "a": ("a", 1), "b": ("b", 1)},
            1: {"v": ("v", 1), "a": ("b", 1), "b": ("a", -1)},
        },
    )
    v = validate_complex(sign_drift)
    assert v.is_refuted and v.witness["check"] == "action is a homomorphism"

    wrong_edge = GCellComplex(
        z2, ("p", "q"),
        (Edge("a", "p", "p"), Edge("b", "q", "q")),
        (), (),
        {
            0: {"p": ("p", 1), "q": ("q", 1), "a": ("a", 1), "b": ("b", 1)},
            1: {"p": ("p", 1), "q": ("q", 1), "a": ("b", 1), "b": ("a", 1)},
        },
    )
    v = validate_complex(wrong_edge)
    assert v.is_refuted and v.witness["check"] == "action respects edge endpoints"

    wrong_face = GCellComplex(
        z2, ("v",),
        (Edge("a", "v", "v"), Edge("b", "v", "v")),
        (
            Face("c1", Word((("a", 1), ("a", 1)))),
            Face("c2", Word.gen("b")),
        ),
        (),
        {
            0: {lab: (lab, 1) for lab in ("v", "a", "b", "c1", "c2")},
            1: {
                "v": ("v", 1), "a": ("b", 1), "b": ("a", 1),
                "c1": ("c2", 1), "c2": ("c1", 1),
            },
        },
    )
    v = validate_complex(wrong_face)
    assert v.is_refuted and v.witness["check"] == "action respects attaching words"

    wrong_solid = GCellComplex(
        z2, ("v",),
        (Edge("a", "v", "v"), Edge("b", "v", "v")),
        (
            Face("c1", Word((("a", 1), ("a", -1)))),
            Face("c2", Word((("b", 1), ("b", -1)))),
        ),
        (
            Solid("s1", ((1, "c1"),)),
            Solid("s2", ((2, "c2"),)),
        ),
        {
            0: {lab: (lab, 1) for lab in ("v", "a", "b", "c1", "c2", "s1", "s2")},
            1: {
                "v": ("v", 1), "a": ("b", 1), "b": ("a", 1),
                "c1": ("c2", 1), "c2": ("c1", 1),
                "s1": ("s2", 1), "s2": ("s1", 1),
            },
        },
    )
    v = validate_complex(wrong_solid)
    assert v.is_refuted and v.witness["check"] == "action respects solid boundaries"

    unfixed = GCellComplex(
        z2, ("v",), (Edge("a", "v", "v"),), (), (),
        {
            0: {"v": ("v", 1), "a": ("a", 1)},
            1: {"v": ("v", 1), "a": ("a", -1)},
        },
    )
    v = validate_complex(unfixed)
    assert v.is_refuted and v.witness["check"] == "fixed cells keep orientation"


def test_validate_boundary_of_boundary():
    tg = trivial_group()
    bad = GCellComplex(
        tg, ("p", "q"),
        (Edge("a", "p", "q"), Edge("b", "p", "q")),
        (Face("c", Word((("a", 1), ("b", -1)))),),
        (Solid("s", ((1, "c"),)),),
        trivial_action(["p", "q", "a", "b", "c", "s"]),
    )
    v = validate_complex(bad)
    assert v.is_refuted and v.witness["check"] == "d2*d3 = 0"
    # homology raises only for a failing degree below max_dim
    with pytest.raises(NotAChainComplex) as caught:
        homology_of_complex(bad)
    assert caught.value.degree == 2
    assert homology_strings(bad, max_dim=2) == ["Z", "0", "0"]
    open_face = GCellComplex(
        tg, ("p", "q"), (Edge("a", "p", "q"),), (Face("c", Word.gen("a")),), (),
        trivial_action(["p", "q", "a", "c"]),
    )
    # d1 * d2 is multiplied only for a face word that is not a closed edge
    # path, here one that does not close and one that does not compose
    broken_face = GCellComplex(
        tg, ("p", "q"), (Edge("a", "p", "q"), Edge("b", "p", "q")),
        (Face("c", Word((("a", 1), ("b", 1)))),), (),
        trivial_action(["p", "q", "a", "b", "c"]),
    )
    for x in (open_face, broken_face):
        with pytest.raises(NotAChainComplex) as caught:
            homology_of_complex(x, max_dim=2)
        assert caught.value.degree == 1


def test_boundary_matrices():
    x = presentation_complex(torus_groupoid())
    d1, d2, d3 = boundary_matrices(x)
    assert d1.rows == 1 and d1.cols == 2 and d1.is_zero()
    assert d2.rows == 2 and d2.cols == 1 and d2.is_zero()
    assert d3.rows == 1 and d3.cols == 0
    assert len(boundary_matrices(x, max_dim=2)) == 2


def test_boundary_matrices_are_built_once_per_complex():
    x = presentation_complex(torus_groupoid())
    first = boundary_matrices(x)
    again = boundary_matrices(x, max_dim=2)
    assert len(again) == 2
    assert all(a is b for a, b in zip(first, again))
    first.pop()  # the returned list is the caller's own
    assert len(boundary_matrices(x)) == 3


def test_presentation_complex_homologies():
    torus = presentation_complex(torus_groupoid())
    assert homology_strings(torus, max_dim=2) == ["Z", "Z^2", "Z"]
    half = PresentedGroupoid(
        ("u",), (Gen("a", "u", "u"),),
        (Word((("a", 1), ("a", 1)), at="u"),),
    )
    assert homology_strings(presentation_complex(half), max_dim=2) == [
        "Z", "Z/2", "0",
    ]
    free2 = PresentedGroupoid(
        ("u",), (Gen("a", "u", "u"), Gen("b", "u", "u")), ()
    )
    assert homology_strings(presentation_complex(free2), max_dim=2) == [
        "Z", "Z^2", "0",
    ]


def test_fundamental_groupoid_round_trip():
    for p in (
        torus_groupoid(),
        PresentedGroupoid(("u",), (Gen("a", "u", "u"),), ()),
        PresentedGroupoid(
            ("p", "q"),
            (Gen("a", "p", "q"), Gen("b", "p", "q")),
            (Word((("a", 1), ("b", -1)), at=None),),
        ),
    ):
        x = presentation_complex(p)
        assert fundamental_groupoid(x) == p
        # an edge is a generator: both directions pass the tuple through
        assert x.edges is p.generators
        assert fundamental_groupoid(x).generators is x.edges


def test_presentation_complex_avoids_label_collision():
    p = PresentedGroupoid(
        ("rel0",), (Gen("a", "rel0", "rel0"),),
        (Word((("a", 1), ("a", -1)), at="rel0"),),
    )
    x = presentation_complex(p)
    assert [f.label for f in x.faces] == ["rel0_"]
    assert fundamental_groupoid(x) == p


def test_fixed_subcomplex():
    z2 = cyclic_group(2)
    x = GCellComplex(
        z2, ("v1", "v2"),
        (
            Edge("e1", "v2", "v1"), Edge("e2", "v2", "v1"),
            Edge("l1", "v1", "v1"), Edge("l2", "v2", "v2"),
        ),
        (
            Face("c1", Word((("e1", 1), ("l1", 1), ("e1", -1), ("l2", -1)))),
            Face("c2", Word((("e2", 1), ("l1", 1), ("e2", -1), ("l2", -1)))),
        ),
        (),
        {
            0: {lab: (lab, 1) for lab in
                ("v1", "v2", "e1", "e2", "l1", "l2", "c1", "c2")},
            1: {
                "v1": ("v1", 1), "v2": ("v2", 1),
                "e1": ("e2", 1), "e2": ("e1", 1),
                "l1": ("l1", 1), "l2": ("l2", 1),
                "c1": ("c2", 1), "c2": ("c1", 1),
            },
        },
    )
    assert validate_complex(x).status == VERIFIED
    fixed = fixed_subcomplex(x, Subgroup((0, 1)))
    assert fixed.vertices == ("v1", "v2")
    assert [e.label for e in fixed.edges] == ["l1", "l2"]
    assert fixed.faces == () and fixed.group.order == 1
    assert homology_strings(fixed, max_dim=1) == ["Z^2", "Z^2"]
    whole = fixed_subcomplex(x, Subgroup((0,)))
    assert whole.cell_counts() == x.cell_counts()


def test_fixed_subcomplex_must_close():
    z2 = cyclic_group(2)
    x = GCellComplex(
        z2, ("v",),
        (Edge("a", "v", "v"), Edge("b", "v", "v")),
        (Face("c", Word((("a", 1), ("b", 1)))),),
        (),
        {
            0: {lab: (lab, 1) for lab in ("v", "a", "b", "c")},
            1: {"v": ("v", 1), "a": ("b", 1), "b": ("a", 1), "c": ("c", 1)},
        },
    )
    assert validate_complex(x).status == VERIFIED
    with pytest.raises(InvalidComplex):
        fixed_subcomplex(x, Subgroup((0, 1)))


def swapped(vertices, edges, faces, solids, moves):
    """Cells over Z/2 whose generator makes the given moves, each a cell
    label to (label, sign), and fixes every other cell; the action is not
    validated."""
    cells = [*vertices, *(c.label for c in (*edges, *faces, *solids))]
    one = {lab: moves.get(lab, (lab, 1)) for lab in cells}
    return GCellComplex(
        cyclic_group(2), vertices, edges, faces, solids,
        {0: {lab: (lab, 1) for lab in cells}, 1: one},
    )


VW = {"v": ("w", 1), "w": ("v", 1)}


@pytest.mark.parametrize(
    "x, message",
    [
        (swapped(("v", "w"), (Edge("a", "v", "w"),), (), (), VW),
         "edge 'a' has an unfixed endpoint"),
        (swapped(("v", "w"), (), (Face("c", Word((), at="v")),), (), VW),
         "face 'c' anchored off the fixed part"),
        (swapped(("v",), (Edge("a", "v", "v"), Edge("b", "v", "v")),
                 (Face("c", Word((("a", 1), ("b", 1)))),), (),
                 {"a": ("b", 1), "b": ("a", 1)}),
         "face 'c' uses unfixed edge 'a'"),
        (swapped(("v",), (Edge("a", "v", "v"),),
                 (Face("c1", Word.gen("a")), Face("c2", Word.gen("a")),
                  Face("c3", Word.gen("a"))),
                 (Solid("s", ((1, "c3"), (1, "c2"), (-1, "c1"))),),
                 {"c1": ("c2", 1), "c2": ("c1", 1)}),
         "solid 's' uses unfixed face 'c2'"),
        # the first kept cell in index order: an edge before a face
        (swapped(("v", "w"), (Edge("a", "v", "v"), Edge("b", "v", "w")),
                 (Face("c", Word((), at="w")),), (), VW),
         "edge 'a' has an unfixed endpoint"),
    ],
)
def test_fixed_cells_that_do_not_close_keep_their_messages(x, message):
    with pytest.raises(InvalidComplex) as e:
        fixed_subcomplex(x, Subgroup((0, 1)))
    assert str(e.value) == "fixed cells are not a subcomplex: " + message
