"""Generated G-CW complexes: validation, fixed subcomplexes and homology.

A complex of dimension at most 3 is built orbit by orbit over Z/n
(n <= 6) or S3 (tom Dieck, Transformation Groups, II.1).  Each cell
orbit is G/H for a drawn isotropy group H: the cell at the coset rH is
the r-translate of the cell at H, and g sends it to the cell at the
coset g*rH.  The attaching data of the cell at H is H-invariant:

- an edge joins two vertices fixed by H;
- a face with cyclic isotropy <h> of order m runs along s, h(s), ...,
  h^(m-1)(s) for a path s from a vertex u to h(u), so h rotates its
  word; a face with non-cyclic isotropy runs along edges fixed by H;
- a solid's chain is the H-orbit sum of a 2-cycle: a face with an empty
  word, or the difference of two faces with the same word.

Then some cells are reversed, which changes edge ends, words, chains and
action signs but not the space.  So every generated complex is valid.
A corruption changes the action of one element at one or two cells, as
in tests/test_action_generators.py.

The properties: validate_complex agrees with tests/naive_validate.py,
fixed_subcomplex agrees with tests/naive_fixed.py for every subgroup,
the boundary matrices agree with tests/naive_boundaries.py,
and the Euler characteristic is the alternating sum of the free ranks of
H_0..H_3.  When every fixed set is a subcomplex, the induced functor
obeys the functor laws, and its realization validates, induces a functor
that the comparison never refutes, and has the H_3 of the homotopy
coend (tests/homotopy_coend.py).
"""

from collections import deque

from hypothesis import event, given, reject, settings
from hypothesis import strategies as st
from homotopy_coend import build_homotopy_coend
from test_action_generators import cell_labels, corrupt, same_verdict
from test_cell_index import same_boundaries, same_fixed

from eqpi1.complexes import (
    Edge,
    Face,
    GCellComplex,
    InvalidComplex,
    Solid,
    homology_of_complex,
    validate_complex,
)
from eqpi1.functors import induced_functor_from_complex, validate_functoriality
from eqpi1.groupoids import Word, invert_letters
from eqpi1.groups import cyclic_group, subgroup_closure, symmetric_group
from eqpi1.realize import build_space, verify_fundamental_functor
from eqpi1.verdicts import VERIFIED

GROUPS = tuple(cyclic_group(n) for n in range(1, 7)) + (symmetric_group(3),)


def _cyclic_generator(group, h):
    """An element generating the subgroup h, or None."""
    for k in h.elements:
        if subgroup_closure(group, (k,)).order == h.order:
            return k
    return None


@st.composite
def g_complexes(draw):
    group = draw(st.sampled_from(GROUPS))
    subs = group.subgroups
    trivial = subs[0]
    e = group.identity
    where = {}  # label -> (coset rep of each element, labels by coset rep, rep)

    def orbit(kind, k, h):
        """The labels of a new cell orbit of isotropy h, by coset rep."""
        reps = [min(group.mul(x, y) for y in h.elements) for x in group.elements()]
        labels = {r: f"{kind}{k}.{r}" for r in sorted(set(reps))}
        for r, lab in labels.items():
            where[lab] = (reps, labels, r)
        return labels

    def act(g, lab):
        reps, labels, r = where[lab]
        return labels[reps[group.mul(g, r)]]

    def fixed(h, lab):
        return all(act(y, lab) == lab for y in h.elements)

    def moves(v, allowed):
        return [(lab, 1, t) for lab, s, t in allowed if s == v] + [
            (lab, -1, s) for lab, s, t in allowed if t == v
        ]

    def path(u, v, allowed):
        """A shortest edge path from u to v, or None."""
        back, todo = {u: None}, deque([u])
        while todo:
            w = todo.popleft()
            for lab, exp, z in moves(w, allowed):
                if z not in back:
                    back[z] = (w, (lab, exp))
                    todo.append(z)
        if v not in back:
            return None
        out = []
        while back[v] is not None:
            v, letter = back[v]
            out.append(letter)
        return out[::-1]

    vertices = []
    for k in range(draw(st.integers(1, 3))):
        vertices += orbit("v", k, draw(st.sampled_from(subs))).values()

    edges = []
    for k in range(draw(st.integers(0, 3))):
        h = draw(st.sampled_from(subs))
        ends = [v for v in vertices if fixed(h, v)] or vertices
        if ends is vertices:
            h = trivial
        src, tgt = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
        edges += [
            (lab, act(r, src), act(r, tgt)) for r, lab in orbit("e", k, h).items()
        ]

    faces, cycles = [], []
    for k in range(draw(st.integers(0, 3))):
        h = draw(st.sampled_from(subs))
        gen = _cyclic_generator(group, h)
        allowed, starts, rounds = edges, vertices, h.order
        if gen is None:  # non-cyclic: a closed path through fixed cells
            allowed = [c for c in edges if fixed(h, c[0])]
            starts = [v for v in vertices if fixed(h, v)] or vertices
            gen, rounds = e, 1
            if starts is vertices:
                h, allowed = trivial, edges
        u = draw(st.sampled_from(starts))
        walk, at = [], u
        for _ in range(draw(st.integers(0, 3))):
            options = moves(at, allowed)
            if not options:
                break
            lab, exp, at = draw(st.sampled_from(options))
            walk.append((lab, exp))
        rest = path(at, act(gen, u), allowed)
        if rest is None:  # h(u) is out of reach: walk back instead
            h, gen, rounds, rest = trivial, e, 1, list(invert_letters(walk))
        segment, word = walk + rest, []
        for _ in range(rounds):
            word += segment
            segment = [(act(gen, lab), exp) for lab, exp in segment]
        twins = 2 if draw(st.booleans()) else 1
        names = [orbit("f", f"{k}{'ab'[i]}", h) for i in range(twins)]
        for labels in names:
            faces += [
                (lab, [(act(r, c), exp) for c, exp in word], act(r, u))
                for r, lab in labels.items()
            ]
        base = [labels[min(h.elements)] for labels in names]
        if not word:
            cycles += [{f: 1} for f in base]
        if twins == 2:
            cycles.append({base[0]: 1, base[1]: -1})

    solids = []
    for k in range(draw(st.integers(0, 2)) if cycles else 0):
        h = draw(st.sampled_from(subs))
        cycle = draw(st.sampled_from(cycles))
        scale = draw(st.sampled_from((1, -1, 2)))
        chain = {}
        for y in h.elements:
            for f, coef in cycle.items():
                chain[act(y, f)] = chain.get(act(y, f), 0) + scale * coef
        solids += [
            (lab, [(coef, act(r, f)) for f, coef in chain.items() if coef])
            for r, lab in orbit("s", k, h).items()
        ]

    others = [c[0] for c in edges + faces + solids]
    flipped = set(
        draw(st.lists(st.sampled_from(others), unique=True)) if others else ()
    )

    def eps(lab):
        return -1 if lab in flipped else 1

    def oriented(letters, lab):
        letters = tuple((c, exp * eps(c)) for c, exp in letters)
        return invert_letters(letters) if lab in flipped else letters

    action = {
        g: {lab: (act(g, lab), eps(lab) * eps(act(g, lab))) for lab in vertices + others}
        for g in group.elements()
    }
    return GCellComplex(
        group,
        tuple(vertices),
        tuple(Edge(lab, t, s) if lab in flipped else Edge(lab, s, t)
              for lab, s, t in edges),
        tuple(
            Face(lab, Word(oriented(word, lab), at=None if word else u))
            for lab, word, u in faces
        ),
        tuple(
            Solid(lab, tuple((coef * eps(f) * eps(lab), f) for coef, f in chain))
            for lab, chain in solids
        ),
        action,
    )


@given(x=g_complexes())
@settings(deadline=None)
def test_generated_complexes_verify_like_the_oracle(x):
    assert same_verdict(x).status == VERIFIED
    same_fixed(x)
    same_boundaries(x)


@given(x=g_complexes())
@settings(deadline=None)
def test_euler_characteristic_is_the_alternating_sum_of_ranks(x):
    ranks = [h.group.rank for h in homology_of_complex(x)]
    assert x.euler_characteristic() == ranks[0] - ranks[1] + ranks[2] - ranks[3]


@given(x=g_complexes())
@settings(deadline=None, max_examples=60)  # about 1 s
def test_realization_of_the_induced_functor(x):
    try:
        f = induced_functor_from_complex(x)
    except InvalidComplex as e:
        # a face with rotational isotropy is fixed while its edges are not
        assert str(e).startswith("fixed cells are not a subcomplex")
        reject()
    assert not validate_functoriality(f).is_refuted
    result = build_space(f)
    assert validate_complex(result.space).status == VERIFIED
    combined = verify_fundamental_functor(f, result).combined
    event(f"comparison {combined.status}")
    assert not combined.is_refuted
    h3 = homology_of_complex(result.space)[3].group
    assert h3 == homology_of_complex(build_homotopy_coend(f))[3].group


@given(data=st.data())
@settings(deadline=None)
def test_corrupted_generated_complexes_match_the_oracles(data):
    x = data.draw(g_complexes())
    g = data.draw(st.sampled_from(list(x.group.elements())))
    dims = [d for d in range(4) if cell_labels(x, d)]
    positive = [lab for d in dims if d > 0 for lab in cell_labels(x, d)]
    kind = data.draw(st.sampled_from(["swap", "merge"] + ["flip"] * bool(positive)))
    if kind == "flip":
        y = corrupt(x, g, kind, data.draw(st.sampled_from(positive)))
    else:
        cells = cell_labels(x, data.draw(st.sampled_from(dims)))
        a, b = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2))
        y = corrupt(x, g, kind, a, b)
    same_verdict(y)
    same_fixed(y)
