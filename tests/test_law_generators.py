"""validate_functoriality checks the composition law on generating morphisms.

The verdicts are compared with the former every-pair check in
tests/naive_laws.py, on induced functors and on induced functors
corrupted at one chosen morphism.  A corruption inverts one generator
image, puts a relator of the target groupoid in front of one generator
image, or sends one object somewhere else.  The relator keeps the arrow
equal to the old one in the presented groupoid but not in the free one,
so the generating pairs no longer settle the laws and the every-pair scan
decides, at whatever level it reaches.  An inverted image or a moved
object need not keep the endpoints of the generator images; the law
check must refuse such an arrow like any other.

The point under S4 has one object and no generators at every subgroup,
so no corruption applies to it; the S4 corruptions run on the point
beside two loops that odd permutations swap.
"""

import copy
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_laws import naive_validate_functoriality
from test_action_generators import s3_triangle

from eqpi1.complexes import Edge, Face, GCellComplex
from eqpi1.documents import parse_document
from eqpi1.functors import (
    OrbFunctor,
    _same_as_composite,
    induced_functor_from_complex,
    validate_functoriality,
)
from eqpi1.groupoids import (
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    identity_morphism,
    invert_letters,
)
from eqpi1.groups import family_all, symmetric_group, trivial_group
from eqpi1.orbit import OrbitCategory
from eqpi1.realize import build_space
from eqpi1.verdicts import LEVEL_SYNTACTIC, VERIFIED, Verdict


def s4_swapped_loops() -> GCellComplex:
    """A point w beside a vertex v with loops a, b and faces c = [a, b],
    d = [b, a]; odd permutations swap a with b and c with d."""
    group = symmetric_group(4)
    perms = sorted(permutations(range(4)))  # the element order of the table

    def odd(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2

    swap = {"a": "b", "b": "a", "c": "d", "d": "c"}
    action = {
        g: {lab: (swap.get(lab, lab) if odd(p) else lab, 1)
            for lab in ("v", "w", "a", "b", "c", "d")}
        for g, p in enumerate(perms)
    }
    a, b = ("a", 1), ("b", 1)
    return GCellComplex(
        group, ("v", "w"), (Edge("a", "v", "v"), Edge("b", "v", "v")),
        (
            Face("c", Word((a, b, ("a", -1), ("b", -1)))),
            Face("d", Word((b, a, ("b", -1), ("a", -1)))),
        ),
        (), action,
    )


@pytest.fixture(scope="module")
def functors(bench_inputs):
    """Induced functors of the S4 point, the S4 swapped loops, the S3
    triangle and the realized cones C2..C6, by name."""
    (point,) = parse_document(bench_inputs.point_s4(0)).complexes.values()
    spaces = {"s4-point": point, "s4-loops": s4_swapped_loops(),
              "s3-triangle": s3_triangle()}
    for n in range(2, 7):
        (x,) = parse_document(bench_inputs.cone(n, 0)).complexes.values()
        cone = induced_functor_from_complex(x, family_all(x.group))
        spaces[f"c{n}"] = build_space(cone).space
    return {
        name: induced_functor_from_complex(x, family_all(x.group))
        for name, x in spaces.items()
    }


def same_verdict(f):
    got, want = validate_functoriality(f), naive_validate_functoriality(f)
    assert (got.status, got.witness, got.level) == (
        want.status, want.witness, want.level
    )
    return got


def corrupt(f, m, kind, key, other=None) -> OrbFunctor:
    """f with the arrow at m replaced by corrupted_arrow(f.arrows[m], ...);
    any other morphism that shared the old arrow keeps it."""
    return OrbFunctor(
        f.category, f.values,
        {**f.arrows, m: corrupted_arrow(f.arrows[m], kind, key, other)},
    )


def corrupted_arrow(t, kind, key, other=None) -> GroupoidMorphism:
    """A copy of the arrow t, changed: "invert" inverts the image of
    generator key, "relator" puts the loop `other` in front of it, and
    "object" sends object key to object other.  The copy is changed in
    place, so its endpoints are not checked again; t itself, which other
    morphisms may share, is left alone."""
    t = copy.copy(t)
    if kind == "object":
        t.object_map = {**t.object_map, key: other}
    else:
        w = t.generator_map[key]
        letters = (
            invert_letters(w.letters) if kind == "invert"
            else other + w.letters
        )
        t.generator_map = {**t.generator_map, key: Word(letters, at=w.at)}
    return t


def relator_loops(p) -> dict:
    """object -> each relator of p rotated to start there, once per visit."""
    out = {x: [] for x in p.objects}
    for r in p.relators:
        for i, (lab, e) in enumerate(r.letters):
            g = p.gen(lab)
            out[g.source if e == 1 else g.target].append(
                r.letters[i:] + r.letters[:i]
            )
    return out


def corruptions(t) -> dict:
    """kind -> every (key, other) that corrupt() takes for the arrow t,
    leaving out kinds with none."""
    loops = relator_loops(t.target)
    gens = t.source.generators
    out = {
        "invert": [(g.label, None) for g in gens],
        "relator": [
            (g.label, r) for g in gens for r in loops[t.object_map[g.source]]
        ],
        "object": [
            (x, z) for x, y in t.object_map.items()
            for z in t.target.objects if z != y
        ],
    }
    return {kind: options for kind, options in out.items() if options}


@pytest.fixture(scope="module")
def corruptible(functors):
    """name -> the morphisms whose arrow has a corruption, for every
    functor with one."""
    out = {}
    for name, f in functors.items():
        ms = [m for m in f.category.morphisms() if corruptions(f.arrows[m])]
        if ms:
            out[name] = ms
    return out


def test_induced_functors_verify_like_the_oracle(functors, corruptible):
    assert len(functors) == 8
    for f in functors.values():
        assert same_verdict(f).status == VERIFIED
    assert len(functors["s4-point"].category.morphisms()) == 714
    assert sorted(set(functors) - set(corruptible)) == ["s4-point"]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_functor_matches_oracle(functors, corruptible, data):
    name = data.draw(st.sampled_from(sorted(corruptible)))
    f = functors[name]
    m = data.draw(st.sampled_from(corruptible[name]))
    options = corruptions(f.arrows[m])
    kind = data.draw(st.sampled_from(sorted(options)))
    key, other = data.draw(st.sampled_from(options[kind]))
    same_verdict(corrupt(f, m, kind, key, other))


def test_equality_modulo_a_relator_is_not_free_equality(functors):
    # the identity arrow of the free orbit with the face t01 in front of
    # the image of cv0: the identity check verifies it at the syntactic
    # level, by a relator match, yet a composite with it needs more than
    # one relator and verifies only in the abelianization; a fast path
    # that took every verified[syntactic] pair as settled would report
    # verified[syntactic]
    f = functors["s3-triangle"]
    m = f.category.identity(0)
    g = corrupt(f, m, "relator", "cv0", (("cv0", 1), ("h01", 1), ("cm01", -1)))
    ident = identity_morphism(f.values[0])
    assert _same_as_composite(g.arrows[m], ident, ident) == Verdict.verified(
        LEVEL_SYNTACTIC
    )
    assert str(same_verdict(g)) == "verified[abelianized]"


def test_identity_law_without_generating_morphisms():
    # the trivial group has no generating morphisms, so the identity check
    # alone keeps a wrong identity arrow off the fast path
    g = trivial_group()
    cat = OrbitCategory(g, family_all(g))
    assert cat.generating_morphisms == ()
    circle = PresentedGroupoid(("u",), (Gen("x", "u", "u"),), ())
    flip = GroupoidMorphism(circle, circle, {"u": "u"}, {"x": Word.gen("x", -1)})
    f = OrbFunctor(cat, {0: circle}, {cat.identity(0): flip})
    assert same_verdict(f).witness["check"] == "identity law"
