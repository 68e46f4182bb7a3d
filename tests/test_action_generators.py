"""validate_complex checks the group action on a generating set.

The verdicts are compared with the former all-elements validation in
tests/naive_validate.py, on valid complexes and on complexes whose action
is corrupted.  A corruption at one chosen element, generators and
non-generators alike, swaps the images of two cells of one dimension,
gives one cell the image of another of its dimension, or flips the sign
of a cell of dimension at least one.  A twist negates the signs of one
cell orbit under every element outside an index-2 subgroup: the action
stays a homomorphism, so the refutation comes from a boundary or
orientation check.  Either way the complex is still well-typed and only
validate_complex can refuse it.

The rescan of every element matters for the bijectivity check: an
element outside the generating set that merges two cells is named by
the full scan as "action bijective", while the generators alone only
show a broken homomorphism.  The elements that pass the homomorphism
check, or a boundary check once the action is a homomorphism, form a
subgroup, and the greedy generating set keeps the first element outside
any subgroup; orientation is checked on every element either way.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import data_file
from naive_validate import naive_validate_complex

from eqpi1.complexes import (
    Edge,
    Face,
    GCellComplex,
    validate_complex,
)
from eqpi1.documents import parse_document, parse_path
from eqpi1.functors import induced_functor_from_complex
from eqpi1.groupoids import Word
from eqpi1.groups import cyclic_group, family_all, symmetric_group
from eqpi1.realize import build_space
from eqpi1.verdicts import VERIFIED

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")


def s3_triangle() -> GCellComplex:
    """The barycentric subdivision of a triangle under S3 permuting its
    corners: corners v_i, edge midpoints m_ij, a centre c, and six small
    triangles c -> v_i -> m_ij -> c, each oriented by the kind of its
    vertices, so every element acts with sign +1."""
    group = symmetric_group(3)
    perms = sorted(permutations(range(3)))  # the element order of the table
    pairs = [(0, 1), (0, 2), (1, 2)]

    def mid(i, j):
        return "m%d%d" % tuple(sorted((i, j)))

    vertices = ["c"] + [f"v{i}" for i in range(3)] + [mid(*p) for p in pairs]
    edges = [Edge(f"cv{i}", "c", f"v{i}") for i in range(3)]
    edges += [Edge("c" + mid(*p), "c", mid(*p)) for p in pairs]
    edges += [
        Edge(f"h{i}{j}", f"v{i}", mid(i, j))
        for i in range(3) for j in range(3) if i != j
    ]
    faces = [
        Face(
            f"t{i}{j}",
            Word(((f"cv{i}", 1), (f"h{i}{j}", 1), ("c" + mid(i, j), -1))),
        )
        for i in range(3) for j in range(3) if i != j
    ]

    def move(p, lab):
        kind, digits = lab.rstrip("0123456789"), lab.lstrip("cvmht")
        moved = "".join(str(p[int(d)]) for d in digits)
        if kind in ("m", "cm"):
            moved = "".join(sorted(moved))
        return kind + moved

    labels = vertices + [e.label for e in edges] + [f.label for f in faces]
    action = {
        g: {lab: (move(p, lab), 1) for lab in labels}
        for g, p in enumerate(perms)
    }
    return GCellComplex(
        group, tuple(vertices), tuple(edges), tuple(faces), (), action
    )


@pytest.fixture(scope="module")
def inputs(bench_inputs):
    """Realized cones C_n (n = 2..6, with and without Z/3 loops), the
    complexes of the shipped documents, and the S3 triangle."""
    out = []
    for loop_power in (None, 3):
        for n in range(2, 7):
            (x,) = parse_document(
                bench_inputs.cone(n, 0, loop_power=loop_power)
            ).complexes.values()
            f = induced_functor_from_complex(x, family_all(x.group))
            out.append(build_space(f).space)
    for name in SHIPPED:
        out.extend(parse_path(data_file(name)).complexes.values())
    out.append(s3_triangle())
    return out


def same_verdict(x):
    got, want = validate_complex(x), naive_validate_complex(x)
    assert (got.status, got.witness, got.level) == (
        want.status, want.witness, want.level
    )
    return got


def cell_labels(x, dim) -> list:
    """The labels of the cells of x of one dimension, in the order x lists
    them."""
    cells = (x.vertices, x.edges, x.faces, x.solids)[dim]
    return [c if dim == 0 else c.label for c in cells]


def corrupt(x, g, kind, a, b=None) -> GCellComplex:
    """x with the action table of g changed: "swap" exchanges the images
    of cells a and b, "merge" gives a the image of b, "flip" negates the
    sign of a's image."""
    table = dict(x.action[g])
    if kind == "swap":
        table[a], table[b] = table[b], table[a]
    elif kind == "merge":
        table[a] = table[b]
    else:
        img, sign = table[a]
        table[a] = (img, -sign)
    action = dict(x.action)
    action[g] = table
    return GCellComplex(x.group, x.vertices, x.edges, x.faces, x.solids, action)


def twist(x, h, cell) -> GCellComplex:
    """x with the signs of the orbit of cell negated under every element
    outside the index-2 subgroup h."""
    orbit = {x.action[g][cell][0] for g in x.group.elements()}
    action = dict(x.action)
    for g in x.group.elements():
        if g not in h:
            table = dict(action[g])
            for lab in orbit:
                img, sign = table[lab]
                table[lab] = (img, -sign)
            action[g] = table
    return GCellComplex(x.group, x.vertices, x.edges, x.faces, x.solids, action)


def test_inputs_verify_like_the_oracle(inputs):
    assert len(inputs) == 14
    for x in inputs:
        assert same_verdict(x).status == VERIFIED
    triangle = inputs[-1]
    assert triangle.cell_counts() == (7, 12, 6, 0)
    assert len(triangle.group.generators) == 2


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_action_matches_oracle(inputs, data):
    x = data.draw(st.sampled_from(inputs))
    g = data.draw(st.sampled_from(list(x.group.elements())))
    positive = [lab for d in (1, 2, 3) for lab in cell_labels(x, d)]
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
    elif kind in ("swap", "merge"):
        dim = data.draw(st.sampled_from([d for d in range(4) if cell_labels(x, d)]))
        a, b = data.draw(
            st.lists(st.sampled_from(cell_labels(x, dim)), min_size=2, max_size=2)
        )
        y = corrupt(x, g, kind, a, b)
    else:
        y = corrupt(x, g, kind, data.draw(st.sampled_from(positive)))
    same_verdict(y)


def test_orientation_is_checked_off_the_generators():
    # C4 turning two loops a -> b -> a^-1: a homomorphism that respects
    # every boundary, but the square of the generator fixes a and b with
    # their orientation reversed
    x = GCellComplex(
        cyclic_group(4), ("v",), (Edge("a", "v", "v"), Edge("b", "v", "v")),
        (), (),
        {
            0: {"v": ("v", 1), "a": ("a", 1), "b": ("b", 1)},
            1: {"v": ("v", 1), "a": ("b", 1), "b": ("a", -1)},
            2: {"v": ("v", 1), "a": ("a", -1), "b": ("b", -1)},
            3: {"v": ("v", 1), "a": ("b", -1), "b": ("a", 1)},
        },
    )
    assert x.group.generators == (1,)
    v = same_verdict(x)
    assert v.witness == {
        "check": "fixed cells keep orientation", "element": 2, "cell": "a"
    }


def test_corruption_off_the_generators_is_refuted(inputs):
    # every element outside the generating set, on every input with one:
    # the generator check must still refuse it, with the oracle's witness
    checked = 0
    for x in inputs:
        for g in x.group.elements():
            if g == x.group.identity or g in x.group.generators:
                continue
            face = x.faces[0].label if x.faces else None
            if face is not None:
                assert same_verdict(corrupt(x, g, "flip", face)).is_refuted
            edges = cell_labels(x, 1)
            if len(edges) > 1:
                y = corrupt(x, g, "swap", edges[0], edges[-1])
                assert same_verdict(y).is_refuted
                y = corrupt(x, g, "merge", edges[0], edges[-1])
                assert same_verdict(y).witness == {
                    "check": "action bijective", "element": g
                }
            checked += 1
    assert checked == 20
