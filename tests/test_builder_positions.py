"""The realization builder writes its complex over positions.

`realize._build` writes each cell at its position, from the offsets of
its counting pass `plan_cells`, with its boundary terms, and the action
as one permutation row and one sign row per element.  The index it gets
from `GCellComplex.from_positions` must equal the one the dict front end
builds from the same cells and the action view, field by field; the view
must send each copy cell prefix.g<rep>.suffix to the copy at the
representative of g*rep.  The digests pin the action tables in insertion
order, the cell labels and the homology strings of every realization
below as they were when the builder still wrote label dicts.  Arrays
corrupted at one entry are refused with the message that names it.  The
stabilizer masks and the first flipped cell equal those of the
cell-by-cell loop, also when the identity's row flips or moves a cell.
conftest.py checks every realization that any test builds against
`plan_cells`.
"""

import hashlib
import json

import pytest
from conftest import data_file

from eqpi1.complexes import GCellComplex, InvalidComplex, homology_of_complex, validate_complex
from eqpi1.documents import parse_document, parse_path
from eqpi1.functors import induced_functor_from_complex, make_functor, validate_functoriality
from eqpi1.groupoids import Gen, GroupoidMorphism, PresentedGroupoid, Word
from eqpi1.groups import cyclic_group, family_all
from eqpi1.orbit import OrbitCategory
from eqpi1.realize import build_space
from eqpi1.verdicts import VERIFIED

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")

# sha256 over every realization below, in order, at max_dim 2 and 3
DIGESTS = {
    2: "08b17a70bb535cc183927e41a8ee3c8dafcb0ad03393971fe9e92f28a2e03fdb",
    3: "e079640cce680a05ce7febd73103e7908e3e931ae217c67dd89b38f3d87fd40f",
}


@pytest.fixture(scope="module")
def functors(bench_inputs):
    """The induced functors of the cones C2..C6, without and with Z/3
    loops, and of the S4 point, then every functor of the shipped
    documents."""
    texts = [
        bench_inputs.cone(n, 0, loop_power=loop_power)
        for loop_power in (None, 3) for n in range(2, 7)
    ]
    out = []
    for text in texts + [bench_inputs.point_s4(0)]:
        (x,) = parse_document(text).complexes.values()
        out.append(induced_functor_from_complex(x, family_all(x.group)))
    for name in SHIPPED:
        out.extend(parse_path(data_file(name)).functors.values())
    return out


def label_rule_action(result):
    """element -> {label: (label, sign)} by the labels alone: a class moves
    as the coend says, and a copy cell prefix.g<rep>.suffix goes to the
    copy at the representative of g*rep, with sign +1."""
    cat = result.functor.category
    group, morphisms = cat.group, cat.morphisms()
    x = result.space
    action = {}
    for g in group.elements():
        table = {v: (result.coend.action[g][v], 1) for v in x.vertices}
        for lab in list(x.all_labels())[len(x.vertices):]:
            prefix, rep, suffix = lab.split(".", 2)
            n = int(prefix[1:])
            hid = n if prefix[0] == "o" else morphisms[n].source
            moved = cat.coset_rep[hid][group.mul(g, int(rep[1:]))]
            table[lab] = (f"{prefix}.g{moved}.{suffix}", 1)
        action[g] = table
    return action


@pytest.mark.parametrize("max_dim", [2, 3])
def test_builder_index_equals_the_dict_front_end(functors, max_dim):
    digest = hashlib.sha256()
    for f in functors:
        result = build_space(f, max_dim)
        x = result.space
        y = GCellComplex(x.group, x.vertices, x.edges, x.faces, x.solids, x.action)
        for field in x._index._fields:
            assert getattr(x._index, field) == getattr(y._index, field), field
        assert x.action == label_rule_action(result)
        tables = [
            [g, [[lab, img, s] for lab, (img, s) in x.action[g].items()]]
            for g in x.group.elements()
        ]
        homology = [str(h) for h in homology_of_complex(x)]
        digest.update(json.dumps([list(x.all_labels()), tables, homology]).encode())
    assert digest.hexdigest() == DIGESTS[max_dim]


def test_a_value_without_cells_under_squares_and_solids():
    # Z/2 with a point at the trivial subgroup and a loop a with relator
    # a^2 at Z/2: the morphism G/1 -> G/(Z/2) sends a to the empty word,
    # so its squares and its solid meet no copy of the point's value
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    point = PresentedGroupoid(("p",), (), ())
    loop = PresentedGroupoid(("u",), (Gen("a", "u", "u"),), (Word((("a", 1),) * 2, at="u"),))
    m = {str(m): m for m in cat.morphisms()}
    f = make_functor(cat, {0: point, 1: loop}, {
        m["H0->H0:g1"]: GroupoidMorphism(point, point, {"p": "p"}, {}),
        m["H0->H1:g0"]: GroupoidMorphism(loop, point, {"u": "p"}, {"a": Word((), at="p")}),
    })
    assert validate_functoriality(f).status == VERIFIED
    x = build_space(f).space
    assert x.cell_counts() == (1, 1, 4, 3)
    assert validate_complex(x).status == VERIFIED
    y = GCellComplex(x.group, x.vertices, x.edges, x.faces, x.solids, x.action)
    assert y._index == x._index
    assert x.action == label_rule_action(build_space(f))


def test_every_realization_matches_its_predicted_cells(realized_cells, bench_inputs):
    (x,) = parse_document(bench_inputs.cone(6, 0)).complexes.values()
    f = induced_functor_from_complex(x, family_all(x.group))
    before = len(realized_cells)
    for max_dim in (2, 3):
        build_space(f, max_dim)
    assert realized_cells[before:] == [(7, 72, 468, 0), (7, 72, 468, 216)]


def loop_marks(idx, elements):
    """(stab, flipped) as the cell-by-cell loop computes them: bit g of
    stab[i] when g fixes cell i with sign +1, and the first (g, i) that
    fixes cell i with sign -1."""
    stab, flipped = [0] * len(idx.labels), None
    for g, row, signs in zip(elements, idx.perm, idx.sign):
        for i, j in enumerate(row):
            if j == i and signs[i] == 1:
                stab[i] |= 1 << g
            elif j == i and flipped is None:
                flipped = (g, i)
    return stab, flipped


def test_stabilizers_equal_the_loop(functors):
    for f in functors:
        for max_dim in (2, 3):
            x = build_space(f, max_dim).space
            idx = x._index
            assert (idx.stab, idx.flipped) == loop_marks(idx, x.group.elements())


@pytest.fixture(scope="module")
def cone(bench_inputs):
    """The realized cone C3: its complex and its arrays, to corrupt."""
    (x,) = parse_document(bench_inputs.cone(3, 0)).complexes.values()
    return build_space(induced_functor_from_complex(x, family_all(x.group))).space


def corrupted(x, field, i, value, g=None):
    """x from its arrays, with entry i of field (of element g's row for
    perm and sign) replaced by value."""
    idx = x._index
    arrays = {"terms": list(idx.terms), "perm": list(idx.perm), "sign": list(idx.sign)}
    if g is None:
        arrays[field][i] = value
    else:
        arrays[field][g] = list(arrays[field][g])
        arrays[field][g][i] = value
    return GCellComplex.from_positions(
        x.group, x.vertices, x.edges, x.faces, x.solids,
        arrays["terms"], idx.anchor, arrays["perm"], arrays["sign"], x._listed,
    )


def test_the_arrays_give_the_same_index(cone):
    _, _, f0, _, _ = cone._index.start
    y = corrupted(cone, "terms", f0, cone._index.terms[f0])
    assert y._index == cone._index
    assert [list(t.items()) for t in y.action.values()] == [
        list(t.items()) for t in cone.action.values()
    ]


@pytest.mark.parametrize(
    "kind", ["perm dimension", "sign 0", "vertex sign", "face term", "solid term"]
)
def test_array_refusals(cone, kind):
    idx = cone._index
    labels, terms = idx.labels, idx.terms
    _, e0, f0, s0, _ = idx.start
    (_, exp), *letters = terms[f0]
    (_, coef), *rest = terms[s0]
    field, i, value, g, message = {
        "perm dimension": ("perm", e0, 0, 1, f"action of 1 sends {labels[e0]!r} "
                           f"to {labels[0]!r} of a different dimension"),
        "sign 0": ("sign", f0, 0, 1, f"action of 1 on {labels[f0]!r} has sign 0"),
        "vertex sign": ("sign", 0, -1, 1, f"action of 1 on {labels[0]!r} has sign -1"),
        "face term": ("terms", f0, ((0, exp), *letters), None,
                      f"face {labels[f0]!r} uses unknown edge {labels[0]!r}"),
        "solid term": ("terms", s0, ((e0, coef), *rest), None,
                       f"solid {labels[s0]!r} uses unknown face {labels[e0]!r}"),
    }[kind]
    with pytest.raises(InvalidComplex) as e:
        corrupted(cone, field, i, value, g)
    assert str(e.value) == message


@pytest.mark.parametrize("change", ["flip an edge", "swap two edges"])
def test_an_identity_that_does_not_fix_every_cell(cone, change):
    # the identity's row is no longer range(n) with signs +1, so its bit
    # is set cell by cell
    idx = cone._index
    _, e0, _, _, _ = idx.start
    unit = cone.group.identity
    perm, sign = [list(p) for p in idx.perm], [list(s) for s in idx.sign]
    if change == "flip an edge":
        sign[unit][e0] = -1
    else:
        perm[unit][e0], perm[unit][e0 + 1] = e0 + 1, e0
    y = GCellComplex.from_positions(
        cone.group, cone.vertices, cone.edges, cone.faces, cone.solids,
        idx.terms, idx.anchor, perm, sign, cone._listed,
    )
    stab, flipped = loop_marks(y._index, y.group.elements())
    assert (y._index.stab, y._index.flipped) == (stab, flipped)
    assert not stab[e0] >> unit & 1
    assert flipped == ((unit, e0) if change == "flip an edge" else None)
