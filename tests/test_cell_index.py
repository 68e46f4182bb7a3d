"""The integer cell index of a G-complex.

GCellComplex builds one index per complex when it is constructed: every
cell at a position (vertices, edges, faces, solids, each in order), per
cell its boundary terms over those positions, per element a permutation
and a sign list of those positions, and per cell the bitmask of the
elements that fix it with sign +1.  Both ways of making a complex, the
dict front end and GCellComplex.from_positions, end in the one check
that builds it; it refuses with the messages of the former label-keyed
checks, pinned below and in tests/test_complexes.py.  The boundary matrices read
the stored terms; they are compared with the former label-keyed
construction in tests/naive_boundaries.py.  GCellComplex._open_face walks
the stored face and edge terms; it is compared with the label walk of
tests/naive_open_face.py.

fixed_parts takes the cells whose stabilizer mask contains the subgroup
and checks that they close up on the stored terms; fixed_subcomplex
wraps them in a complex.  It is compared with the former construction in
tests/naive_fixed.py on realized cones, the S4 point, the shipped
documents and the corrupted actions of tests/test_action_generators.py.
"""

import pytest
from conftest import data_file
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_boundaries import naive_boundaries
from naive_fixed import naive_fixed_subcomplex
from naive_open_face import naive_open_face
from test_action_generators import cell_labels, corrupt, s3_triangle, twist
from test_law_generators import s4_swapped_loops

from eqpi1 import complexes
from eqpi1.complexes import (
    Edge,
    Face,
    GCellComplex,
    InvalidComplex,
    fixed_subcomplex,
    homology_of_complex,
    validate_complex,
)
from eqpi1.documents import parse_document, parse_path
from eqpi1.functors import induced_functor_from_complex
from eqpi1.groupoids import Word
from eqpi1.groups import cyclic_group, family_all, trivial_group
from eqpi1.intlinalg import SparseMatrix
from eqpi1.realize import build_space, verify_fundamental_functor
from eqpi1.verdicts import VERIFIED

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")


LOOP = (Edge("a", "v", "v"),)


def pinched_loops():
    """Loops a, b at v and a face c along a b; the generator of Z/2 swaps
    a and b and turns c, so c is fixed over edges that are not."""
    return GCellComplex(
        cyclic_group(2), ("v",), LOOP + (Edge("b", "v", "v"),),
        (Face("c", Word((("a", 1), ("b", 1)))),), (),
        {
            0: {lab: (lab, 1) for lab in ("v", "a", "b", "c")},
            1: {"v": ("v", 1), "a": ("b", 1), "b": ("a", 1), "c": ("c", 1)},
        },
    )


def realized(x):
    return build_space(induced_functor_from_complex(x, family_all(x.group))).space


@pytest.fixture(scope="module")
def spaces(bench_inputs):
    """Realized cones C_n (n = 2..6, with and without Z/3 loops), the S4
    point and its realized space, the complexes of the shipped documents,
    the S3 triangle, the S4 swapped loops and the pinched loops."""
    out = []
    for loop_power in (None, 3):
        for n in range(2, 7):
            text = bench_inputs.cone(n, 0, loop_power=loop_power)
            (x,) = parse_document(text).complexes.values()
            out.append(realized(x))
    (point,) = parse_document(bench_inputs.point_s4(0)).complexes.values()
    out += [point, realized(point)]
    for name in SHIPPED:
        out.extend(parse_path(data_file(name)).complexes.values())
    out += [s3_triangle(), s4_swapped_loops(), pinched_loops()]
    return out


def fixed_outcome(fixed, x, h):
    try:
        y = fixed(x, h)
    except InvalidComplex as e:
        return str(e)
    return y.vertices, y.edges, y.faces, y.solids, y.group.order, y.action


def same_fixed(x):
    """Every subgroup's fixed subcomplex, or refusal, against the oracle;
    returns the number of refusals."""
    refused = 0
    for h in x.group.subgroups:
        got = fixed_outcome(fixed_subcomplex, x, h)
        assert got == fixed_outcome(naive_fixed_subcomplex, x, h)
        refused += isinstance(got, str)
    return refused


def same_boundaries(x):
    """The boundary matrices against the label-keyed oracle."""
    got, want = x._boundaries, naive_boundaries(x)
    assert [(d.rows, d.cols, d.data) for d in got] == [
        (d.rows, d.cols, d.data) for d in want
    ]


def test_boundaries_match_the_oracle(spaces):
    for x in spaces:
        same_boundaries(x)


def with_word(x, i, letters):
    """x with the word of face i replaced; the action is kept as it is."""
    faces = list(x.faces)
    faces[i] = Face(faces[i].label, Word(tuple(letters)))
    return GCellComplex(x.group, x.vertices, x.edges, tuple(faces), x.solids, x.action)


def test_open_faces_match_the_oracle(spaces):
    """Each space, and each with its first, middle or last face word cut
    short or with one letter turned round, against the label walk."""
    outcomes = set()
    for x in spaces:
        assert x._open_face is None and naive_open_face(x) is None
        n = len(x.faces)
        for i in sorted({0, n // 2, n - 1} if n else ()):
            letters = x.faces[i].word.letters
            if len(letters) < 2:
                continue
            (lab, exp), *rest = letters
            for y in (with_word(x, i, letters[:-1]), with_word(x, i, [(lab, -exp), *rest])):
                witness = y._open_face
                assert witness == naive_open_face(y)
                outcomes.add(witness and witness["check"])
    assert outcomes == {"face word closed", "face word composable", None}


def test_index_reads_like_the_action(spaces):
    assert len(spaces) == 18
    for x in spaces:
        idx = x._index
        assert idx.labels == list(x.all_labels())
        assert idx.start[-1] == len(idx.labels)
        for g in x.group.elements():
            for i, lab in enumerate(idx.labels):
                img, sign = x.action[g][lab]
                assert (idx.labels[idx.perm[g][i]], idx.sign[g][i]) == (img, sign)
                assert bool(idx.stab[i] >> g & 1) == ((img, sign) == (lab, 1))
        assert idx.flipped is None
        for d in range(4):
            assert cell_labels(x, d) == idx.labels[idx.start[d]:idx.start[d + 1]]


def test_fixed_subcomplexes_match_the_oracle(spaces):
    refused = sum(same_fixed(x) for x in spaces)
    assert refused == 1  # the pinched loops under Z/2


@given(data=st.data())
@settings(deadline=None)
def test_corrupted_fixed_subcomplexes_match_the_oracle(spaces, data):
    x = data.draw(st.sampled_from(spaces))
    g = data.draw(st.sampled_from(list(x.group.elements())))
    dims = [d for d in range(4) if cell_labels(x, d)]
    positive = [lab for d in dims if d > 0 for lab in cell_labels(x, d)]
    halves = [h for h in x.group.subgroups if 2 * h.order == x.group.order]
    kinds = ["swap", "merge"]
    if positive:
        kinds.append("flip")
        if halves:
            kinds.append("twist")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "twist":
        h = data.draw(st.sampled_from(halves))
        y = twist(x, h, data.draw(st.sampled_from(positive)))
    elif kind == "flip":
        y = corrupt(x, g, kind, data.draw(st.sampled_from(positive)))
    else:
        cells = cell_labels(x, data.draw(st.sampled_from(dims)))
        a, b = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2))
        y = corrupt(x, g, kind, a, b)
    same_fixed(y)


@pytest.mark.parametrize(
    "group, action, message",
    [
        (cyclic_group(2), {0: {"v": ("v", 1), "a": ("a", 1)}},
         "action of element 1 is missing"),
        (trivial_group(), {0: {"v": ("v", 1)}},
         "action of element 0 is not defined on every cell"),
        (trivial_group(), {0: {"v": ("v", 1), "a": ("a", 1), "b": ("a", 1)}},
         "action of element 0 is not defined on every cell"),
        (trivial_group(), {0: {"v": ("a", 1), "a": ("v", 1)}},
         "action of 0 sends 'v' to 'a' of a different dimension"),
        (trivial_group(), {0: {"v": ("v", 1), "a": ("z", 1)}},
         "action of 0 sends 'a' to 'z' of a different dimension"),
        (trivial_group(), {0: {"v": ("v", -1), "a": ("a", 1)}},
         "action of 0 on 'v' has sign -1"),
        (trivial_group(), {0: {"v": ("v", 1), "a": ("a", 2)}},
         "action of 0 on 'a' has sign 2"),
        # the first offending entry in action-table order, not cell order
        (trivial_group(), {0: {"a": ("a", 0), "v": ("v", -1)}},
         "action of 0 on 'a' has sign 0"),
        (trivial_group(), {0: {"a": ("a", 0), "v": ("a", 1)}},
         "action of 0 on 'a' has sign 0"),
        # one entry: the dimension before the sign
        (trivial_group(), {0: {"v": ("a", -1), "a": ("a", 1)}},
         "action of 0 sends 'v' to 'a' of a different dimension"),
        # the first offending element, before a later missing one
        (cyclic_group(3), {0: {"v": ("v", 1), "a": ("a", 1)},
                           1: {"v": ("v", 1), "a": ("a", 3)}},
         "action of 1 on 'a' has sign 3"),
    ],
)
def test_construction_refusals_keep_their_messages(group, action, message):
    with pytest.raises(InvalidComplex) as e:
        GCellComplex(group, ("v",), LOOP, (), (), action)
    assert str(e.value) == message


def test_cell_index_is_built_once(bench_inputs, monkeypatch):
    # one cone C6 pipeline indexes one complex, the realized space, which
    # the builder writes over positions: the dict front end never runs,
    # and the induced functors of the cone and of the space read their
    # fixed sets as masks over the index they already have
    (x,) = parse_document(bench_inputs.cone(6, 0)).complexes.values()
    translations, checks = [], []
    translate, check = complexes._dict_index, complexes._checked_index

    def counted_translate(*args, **kwargs):
        translations.append(args)
        return translate(*args, **kwargs)

    def counted_check(*args, **kwargs):
        checks.append(check(*args, **kwargs))
        return checks[-1]

    monkeypatch.setattr(complexes, "_dict_index", counted_translate)
    monkeypatch.setattr(complexes, "_checked_index", counted_check)
    f = induced_functor_from_complex(x, family_all(x.group))
    result = build_space(f)
    space = result.space
    assert space.cell_counts() == (7, 72, 468, 216)
    assert validate_complex(space).status == VERIFIED
    assert verify_fundamental_functor(f, result).combined.status == VERIFIED
    assert translations == []
    assert len(checks) == 1 and checks[0] is space._index
    assert "action" not in vars(space)  # the action view is never built


def test_chain_check_multiplies_once(bench_inputs, monkeypatch):
    # the face words of the realized cone C6 are closed edge paths, so
    # validation and homology multiply d2 * d3 and never d1 * d2
    (x,) = parse_document(bench_inputs.cone(6, 0)).complexes.values()
    space = realized(x)
    products = []
    mul = SparseMatrix.mul

    def counted_mul(a, b):
        products.append((a.rows, b.cols))
        return mul(a, b)

    monkeypatch.setattr(SparseMatrix, "mul", counted_mul)
    assert validate_complex(space).status == VERIFIED
    assert [str(h) for h in homology_of_complex(space)] == ["Z", "0", "Z^186", "0"]
    assert products == [(72, 216)]
