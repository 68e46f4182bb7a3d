from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from naive_cyclic_reduce import naive_cyclic_reduce_letters
from naive_forest import naive_component_of, naive_components, naive_isotropy_data
from naive_relator_match import naive_match_relator
from naive_tietze import naive_canonical_cyclic, naive_simplify_presentation

from eqpi1 import groupoids, intlinalg
from eqpi1.documents import parse_document
from eqpi1.functors import induced_functor_from_complex
from eqpi1.groups import family_all
from eqpi1.realize import verify_fundamental_functor

from eqpi1.groupoids import (
    EMPTY_GROUPOID,
    Gen,
    GroupPresentation,
    GroupoidMorphism,
    NotComposable,
    ObjectNotFound,
    PresentedGroupoid,
    Word,
    abelianized_isotropy_map,
    canonical_cyclic,
    certified_abelian,
    compose_morphisms,
    cyclic_reduce_letters,
    empty_morphism,
    equivalence_report,
    exponent_vector,
    free_reduce_letters,
    identity_morphism,
    invert_letters,
    isotropy_image_map,
    rotation_equal,
    simplify_presentation,
    strict_isomorphism_report,
    substitute_letters,
    words_equal_verdict,
)
from eqpi1.groupoids import _loop_vanishes
from eqpi1.verdicts import REFUTED, VERIFIED

letters_strategy = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
    max_size=8,
).map(tuple)


def loop_groupoid(*relators):
    """One object, generators a and b, given relator letter tuples."""
    return PresentedGroupoid(
        ("u",),
        (Gen("a", "u", "u"), Gen("b", "u", "u")),
        tuple(Word(r, at="u") for r in relators),
    )


TORUS_RELATOR = (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def torus_groupoid():
    return loop_groupoid(TORUS_RELATOR)


def circle_pair():
    return PresentedGroupoid(
        ("v1", "v2"),
        (Gen("m1", "v1", "v1"), Gen("m2", "v2", "v2")),
        (),
    )


def two_point_circle():
    # two vertices joined by two parallel edges; one component, isotropy Z
    return PresentedGroupoid(
        ("p", "q"),
        (Gen("a", "p", "q"), Gen("b", "p", "q")),
        (),
    )


def test_word_basics():
    w = Word.gen("a").concat(Word.gen("b", -1))
    assert w.letters == (("a", 1), ("b", -1))
    assert str(w) == "a b^-1"
    assert w.inverse().letters == (("b", 1), ("a", -1))
    assert not w.is_empty
    e = Word((), at="u")
    assert e.is_empty and e.at == "u"
    assert str(e) == "@ u"
    assert e.concat(w).at == "u"


def test_letter_helpers():
    ab = (("a", 1), ("b", 1))
    assert invert_letters(ab) == (("b", -1), ("a", -1))
    assert free_reduce_letters((("a", 1), ("a", -1))) == ()
    assert free_reduce_letters((("a", 1), ("b", 1), ("b", -1), ("a", 1))) == (
        ("a", 1),
        ("a", 1),
    )
    assert cyclic_reduce_letters((("a", 1), ("b", 1), ("a", -1))) == (("b", 1),)
    assert exponent_vector((("a", 1), ("b", -1), ("a", 1)), ("a", "b")) == [2, -1]
    assert substitute_letters(
        (("c", 1), ("a", -1)), {"c": (("a", 1), ("b", 1)), "a": (("a", 1),)}
    ) == (("a", 1), ("b", 1), ("a", -1))


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=11
    ).map(tuple)
)
@settings(max_examples=500)
def test_cyclic_reduce_matches_the_repeated_reduction(letters):
    assert cyclic_reduce_letters(letters) == naive_cyclic_reduce_letters(letters)


@given(letters_strategy)
@settings(max_examples=200)
def test_free_reduce_idempotent(letters):
    once = free_reduce_letters(letters)
    assert free_reduce_letters(once) == once
    assert free_reduce_letters(once + invert_letters(once)) == ()


@given(letters_strategy, st.integers(0, 7), st.booleans())
@settings(max_examples=200)
def test_canonical_cyclic_invariance(letters, rot, invert):
    moved = letters
    if letters:
        rot = rot % len(letters)
        moved = letters[rot:] + letters[:rot]
    if invert:
        moved = invert_letters(moved)
    assert canonical_cyclic(moved) == canonical_cyclic(letters)


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1, 2, -2))),
        max_size=8,
    ).map(tuple)
)
@settings(max_examples=500)
@example((("a", 2),))
@example((("b", 1), ("a", -2)))
@example((("a", 1), ("b", 1), ("a", -1), ("b", -1)))
def test_canonical_cyclic_matches_all_rotations(letters):
    # one letter, two letters and the least-letter rotations against the
    # least of all 2n rotations
    assert canonical_cyclic(letters) == naive_canonical_cyclic(letters)


def test_rotation_equal():
    ab = (("a", 1), ("b", 1))
    assert rotation_equal(ab, (("b", 1), ("a", 1)))
    assert not rotation_equal(ab, invert_letters(ab))
    assert not rotation_equal(ab, (("a", 1),))
    assert rotation_equal((), ())


def test_group_presentation_abelianization():
    torus = GroupPresentation(("a", "b"), (TORUS_RELATOR,))
    m = torus.relator_matrix()
    assert (m.rows, m.cols, m.data) == (2, 1, [()])
    assert str(torus.abelianization()) == "Z^2"
    half = GroupPresentation(("a",), ((("a", 1), ("a", 1)),))
    assert half.relator_matrix().data == [((0, 2),)]
    assert str(half.abelianization()) == "Z/2"
    free2 = GroupPresentation(("a", "b"), ())
    assert str(free2.abelianization()) == "Z^2"


def test_simplify_eliminates_single_occurrence():
    pres = GroupPresentation(
        ("a", "b", "c"),
        ((("c", 1), ("b", -1)), TORUS_RELATOR),
    )
    simp, subst = simplify_presentation(pres)
    assert simp.generators == ("a", "b")
    assert [canonical_cyclic(r) for r in simp.relators] == [
        canonical_cyclic(TORUS_RELATOR)
    ]
    assert free_reduce_letters(subst["c"]) == (("b", 1),)


def test_simplify_prefers_early_generators():
    pres = GroupPresentation(("a", "b"), ((("a", 1), ("b", -1)),))
    simp, subst = simplify_presentation(pres)
    assert simp.generators == ("a",)
    assert simp.relators == ()
    assert subst["b"] == (("a", 1),)
    assert subst["a"] == (("a", 1),)


def test_simplify_drops_duplicate_relators():
    r = TORUS_RELATOR
    rotated = r[1:] + r[:1]
    pres = GroupPresentation(("a", "b"), (r, rotated, invert_letters(r)))
    simp, _ = simplify_presentation(pres)
    assert len(simp.relators) == 1


@st.composite
def presentations(draw):
    """Random presentations, with relators repeated up to rotation or
    inversion, cancelling pairs inserted, and empty relators."""
    gens = tuple("abcde"[: draw(st.integers(0, 5))])
    word = st.lists(
        st.tuples(st.sampled_from(gens or "a"), st.sampled_from((1, -1))),
        max_size=7 if gens else 0,
    ).map(tuple)
    relators = draw(st.lists(word, max_size=6))
    for r in list(relators):
        kind = draw(st.sampled_from(("none", "rotate", "invert", "pair", "empty")))
        if kind == "rotate" and r:
            k = draw(st.integers(0, len(r) - 1))
            relators.append(r[k:] + r[:k])
        elif kind == "invert":
            relators.append(invert_letters(r))
        elif kind == "pair" and gens:
            k = draw(st.integers(0, len(r)))
            g = draw(st.sampled_from(gens))
            relators.append(r[:k] + ((g, 1), (g, -1)) + r[k:])
        elif kind == "empty":
            relators.append(())
    return GroupPresentation(gens, tuple(draw(st.permutations(relators))))


def assert_matches_naive(pres):
    simp, subst = simplify_presentation(pres)
    want, want_subst = naive_simplify_presentation(pres)
    assert simp == want
    assert list(subst.items()) == list(want_subst.items())


@given(presentations())
@settings(max_examples=300, deadline=None)
@example(  # b = a empties the commutator [a, b]
    GroupPresentation(
        ("a", "b"), ((("a", 1), ("b", 1), ("a", -1), ("b", -1)), (("b", 1), ("a", -1)))
    )
)
def test_simplify_matches_naive_oracle(pres):
    assert_matches_naive(pres)


def one_object_groupoid(pres):
    """pres as a groupoid on one object u, every generator a loop at u."""
    return PresentedGroupoid(
        ("u",),
        tuple(Gen(g, "u", "u") for g in pres.generators),
        tuple(Word(r, at="u") for r in pres.relators),
    )


@st.composite
def relator_match_cases(draw):
    """A one-object groupoid and closed words that collapse, equal a
    relator up to rotation, equal a relator's inverse up to rotation, or
    are arbitrary (and mostly match nothing)."""
    pres = draw(presentations())
    gens = pres.generators or ("a",)
    word = st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
        max_size=6 if pres.generators else 0,
    ).map(tuple)
    live = [r for r in pres.relators if r]
    words = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("collapse", "relator", "inverse", "any")))
        w = draw(word)
        if kind == "collapse":
            w = w + invert_letters(w)
        elif kind in ("relator", "inverse") and live:
            w = draw(st.sampled_from(live))
            if kind == "inverse":
                w = invert_letters(w)
        if w:
            k = draw(st.integers(0, len(w) - 1))
            w = w[k:] + w[:k]
        words.append(w)
    return one_object_groupoid(pres), words


def match_relator_as_before(p, letters):
    """PresentedGroupoid.match_relator, answered in the oracle's terms."""
    reduced = cyclic_reduce_letters(letters)
    if not reduced:
        return "zero", None
    match = p.match_relator(reduced)
    return ("none", reduced) if match is None else ("face", match)


@given(relator_match_cases())
@settings(max_examples=200, deadline=None)
@example(  # only the inverse of relator 1 matches; relator 0 is empty
    (
        one_object_groupoid(
            GroupPresentation(("a", "b"), ((), (("a", 1), ("a", 1), ("b", 1))))
        ),
        [(("b", -1), ("a", -1), ("a", -1)), (("a", 1), ("b", 1), ("a", 1))],
    )
)
def test_match_relator_matches_naive_oracle(case):
    p, words = case
    assert set(p._relator_index) == {canonical_cyclic(r.letters) for r in p.relators}
    for w in words:
        assert match_relator_as_before(p, w) == naive_match_relator(p, w)


@st.composite
def random_groupoids(draw):
    """Random groupoids with isolated objects, loops and parallel
    generators, and relators read off random walks up to their last return
    to the start (an empty one stays anchored there)."""
    n = draw(st.integers(1, 6))
    objects = tuple(draw(st.permutations([f"o{i}" for i in range(n)])))
    ends = st.sampled_from(objects)
    gens = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("any", "loop", "parallel")))
        if kind == "parallel" and gens:
            _, s, t = draw(st.sampled_from(gens))
            if draw(st.booleans()):
                s, t = t, s
        else:
            s = draw(ends)
            t = s if kind == "loop" else draw(ends)
        gens.append(Gen(f"g{i}", s, t))
    relators = []
    for _ in range(draw(st.integers(0, 4))):
        start = cur = draw(ends)
        letters, closed = [], 0
        for _ in range(draw(st.integers(0, 8))):
            steps = [(g.label, 1, g.target) for g in gens if g.source == cur]
            steps += [(g.label, -1, g.source) for g in gens if g.target == cur]
            if not steps:
                break
            lab, e, cur = draw(st.sampled_from(steps))
            letters.append((lab, e))
            if cur == start:
                closed = len(letters)
        at = start if closed == 0 or draw(st.booleans()) else None
        relators.append(Word(tuple(letters[:closed]), at=at))
    return PresentedGroupoid(objects, tuple(gens), tuple(relators))


@given(random_groupoids())
@settings(max_examples=300, deadline=None)
def test_spanning_forest_matches_naive_oracle(p):
    assert p.components() == naive_components(p)[0]
    for x in p.objects:
        assert p.component_of(x) == naive_component_of(p, x)
        data, want = p.isotropy_data(x), naive_isotropy_data(p, x)
        assert data == want  # base, component, tree and presentation
        for lab in want.presentation.generators:
            assert data.hat_loop_word(lab) == want.hat_loop_word(lab)


@pytest.mark.parametrize(
    "args, size, simplified",
    [((6, 0), (66, 468), (0, 0)), ((5, 0, 3), (70, 425), (5, 5))],
    ids=["cone6", "cone5-loops"],
)
def test_simplify_matches_naive_on_cone_comparisons(
    bench_inputs, monkeypatch, args, size, simplified
):
    # every presentation the closing functor comparison simplifies,
    # including the one large isotropy presentation of the realization
    (x,) = parse_document(bench_inputs.cone(*args)).complexes.values()
    f = induced_functor_from_complex(x, family_all(x.group))
    seen = []

    def record(pres):
        seen.append(pres)
        return simplify_presentation(pres)

    monkeypatch.setattr(groupoids, "simplify_presentation", record)
    verify_fundamental_functor(f)
    monkeypatch.undo()
    big = max(seen, key=lambda p: len(p.relators))
    assert (len(big.generators), len(big.relators)) == size
    simp, _ = simplify_presentation(big)
    assert (len(simp.generators), len(simp.relators)) == simplified
    for pres in seen:
        assert_matches_naive(pres)


def test_certified_abelian():
    assert certified_abelian(GroupPresentation(("a",), ()))
    assert certified_abelian(GroupPresentation((), ()))
    assert certified_abelian(GroupPresentation(("a", "b"), (TORUS_RELATOR,)))
    inverted = invert_letters(TORUS_RELATOR)
    assert certified_abelian(GroupPresentation(("a", "b"), (inverted,)))
    assert not certified_abelian(GroupPresentation(("a", "b"), ()))
    assert not certified_abelian(
        GroupPresentation(("a", "b", "c"), (TORUS_RELATOR,))
    )
    # any one of [p^+-1, q^+-1], for either order of the pair, certifies it
    for gens in (("a", "b"), ("b", "a"), ("x1", "a0")):
        for (p, q), ea, eb in product((gens, gens[::-1]), (1, -1), (1, -1)):
            rel = ((p, ea), (q, eb), (p, -ea), (q, -eb))
            assert certified_abelian(GroupPresentation(gens, (rel,)))


def test_groupoid_validation():
    with pytest.raises(ValueError):
        PresentedGroupoid(("u", "u"), (), ())
    with pytest.raises(ValueError):
        PresentedGroupoid(
            ("u",), (Gen("a", "u", "u"), Gen("a", "u", "u")), ()
        )
    with pytest.raises(ObjectNotFound):
        PresentedGroupoid(("u",), (Gen("a", "u", "v"),), ())
    with pytest.raises(NotComposable):
        PresentedGroupoid(
            ("p", "q"),
            (Gen("a", "p", "q"),),
            (Word.gen("a"),),
        )


def test_word_endpoints():
    g = two_point_circle()
    assert g.word_endpoints(Word.gen("a")) == ("p", "q")
    assert g.word_endpoints(Word.gen("a", -1)) == ("q", "p")
    loop = Word.gen("a").concat(Word.gen("b", -1))
    assert g.word_source(loop) == "p"
    assert g.word_endpoints(loop)[1] == "p"
    assert g.word_endpoints(Word((), at="q")) == ("q", "q")
    # the message names the first letter that breaks the walk
    errors = [
        ((("a", 1), ("a", 1)), None, NotComposable,
         "word a a: letter a^1 starts at p, expected q"),
        ((), None, ObjectNotFound, "empty word has no valid anchor: @ None"),
        ((), "nope", ObjectNotFound, "empty word has no valid anchor: @ nope"),
        ((("z", 1),), None, ObjectNotFound, "no generator 'z'"),
        ((("a", 1), ("z", 1)), None, ObjectNotFound, "no generator 'z'"),
        ((("a", 2),), None, ValueError, "letter exponent must be +-1: a^2"),
        ((("b", 1), ("a", 2)), None, ValueError, "letter exponent must be +-1: a^2"),
    ]
    for letters, at, error, message in errors:
        with pytest.raises(error) as caught:
            g.word_endpoints(Word(letters, at=at))
        assert str(caught.value) == message


def test_free_reduce_keeps_anchor():
    g = two_point_circle()
    w = Word((("a", 1), ("a", -1)))
    r = g.free_reduce(w)
    assert r.is_empty and r.at == "p"


def test_components():
    g = circle_pair()
    assert g.components() == (("v1",), ("v2",))
    assert g.component_of("v2") == ("v2",)
    assert two_point_circle().components() == (("p", "q"),)
    with pytest.raises(ObjectNotFound):
        g.component_of("v3")
    assert EMPTY_GROUPOID.components() == ()
    assert EMPTY_GROUPOID.is_empty


def test_isotropy_two_point_circle():
    g = two_point_circle()
    data = g.isotropy_data("q")
    assert data.base == "p"
    assert data.tree == frozenset({"a"})
    assert data.presentation.generators == ("b",)
    assert data.presentation.relators == ()
    hat = data.hat_loop_word("b")
    assert hat.letters == (("b", 1), ("a", -1))
    assert hat.at == "p"
    assert data.rewrite_loop(Word((("a", 1), ("b", -1)))) == (("b", -1),)
    assert str(g.abelianized_isotropy("p")) == "Z"


def test_isotropy_torus():
    g = torus_groupoid()
    pres = g.isotropy_presentation("u")
    assert pres.generators == ("a", "b")
    assert str(g.abelianized_isotropy("u")) == "Z^2"


def test_isotropy_two_object_torus():
    # the same torus with its loops spread over two objects
    g = PresentedGroupoid(
        ("v1", "v2"),
        (
            Gen("e1", "v2", "v1"),
            Gen("e2", "v2", "v1"),
            Gen("l1", "v1", "v1"),
            Gen("l2", "v2", "v2"),
        ),
        (
            Word((("e1", 1), ("l1", 1), ("e1", -1), ("l2", -1)), at=None),
            Word((("e2", 1), ("l1", 1), ("e2", -1), ("l2", -1)), at=None),
        ),
    )
    data = g.isotropy_data("v1")
    assert data.base == "v1"
    assert data.tree == frozenset({"e1"})
    assert data.presentation.generators == ("e2", "l1", "l2")
    simp, subst = simplify_presentation(data.presentation)
    assert simp.generators == ("e2", "l1")
    assert free_reduce_letters(subst["l2"]) == (("l1", 1),)
    assert certified_abelian(simp)
    assert str(g.abelianized_isotropy("v1")) == "Z^2"


def test_loop_vanishes_ladder():
    g = torus_groupoid()
    # free reduction decides
    v = _loop_vanishes(g, Word((("a", 1), ("a", -1))))
    assert v.status == VERIFIED and v.level == "syntactic"
    # relator match decides, up to rotation and inversion
    v = _loop_vanishes(g, Word(TORUS_RELATOR))
    assert v.status == VERIFIED and v.level == "syntactic"
    v = _loop_vanishes(g, Word(invert_letters(TORUS_RELATOR)[1:] + invert_letters(TORUS_RELATOR)[:1]))
    assert v.status == VERIFIED and v.level == "syntactic"
    # certified abelian decides squares of relators
    double = TORUS_RELATOR + TORUS_RELATOR
    v = _loop_vanishes(g, Word(double))
    assert v.status == VERIFIED and v.level == "abelianized"
    # nonzero exponent vector refutes
    v = _loop_vanishes(g, Word.gen("a"))
    assert v.is_refuted and v.level == "abelianized"
    assert v.witness["abelianized"] == [1, 0]
    # free group of rank two: commutators stay undecided
    free = loop_groupoid()
    v = _loop_vanishes(free, Word(TORUS_RELATOR))
    assert v.is_undecided


def test_loop_checks_reduce_the_isotropy_lattice_once(monkeypatch):
    # k loops decided at the lattice level on one groupoid: one reduction
    # of the isotropy relator lattice, shared, and one per loop killed
    relators = ((("a", 1), ("a", 1)), TORUS_RELATOR)
    loops = [
        Word.gen("b"),
        Word.gen("a"),
        Word((("a", 1), ("b", 1), ("b", 1))),
        Word((("a", 1),) * 4),
        Word(TORUS_RELATOR + TORUS_RELATOR),
    ]
    want = [_loop_vanishes(loop_groupoid(*relators), w) for w in loops]
    assert {v.status for v in want} == {VERIFIED, REFUTED}
    built = []

    class Counting(intlinalg._ChainReduction):
        def __init__(self, mats):
            built.append(mats)
            super().__init__(mats)

    monkeypatch.setattr(intlinalg, "_ChainReduction", Counting)
    g = loop_groupoid(*relators)
    got = [_loop_vanishes(g, w) for w in loops]
    assert len(built) == len(loops) + 1
    assert [(v.status, v.level, v.witness) for v in got] == [
        (v.status, v.level, v.witness) for v in want
    ]


def test_words_equal_verdict():
    g = torus_groupoid()
    assert words_equal_verdict(g, Word.gen("a"), Word.gen("a")).status == VERIFIED
    ab = Word.gen("a").concat(Word.gen("b"))
    ba = Word.gen("b").concat(Word.gen("a"))
    v = words_equal_verdict(g, ab, ba)
    assert v.status == VERIFIED and v.level == "syntactic"
    v = words_equal_verdict(g, Word.gen("a"), Word.gen("b"))
    assert v.is_refuted
    pair = circle_pair()
    v = words_equal_verdict(pair, Word.gen("m1"), Word.gen("m2"))
    assert v.is_refuted and "endpoints" in v.witness


def test_morphism_validation():
    g = two_point_circle()
    with pytest.raises(ObjectNotFound):
        GroupoidMorphism(g, g, {"p": "p"}, {"a": Word.gen("a"), "b": Word.gen("b")})
    with pytest.raises(ObjectNotFound):
        GroupoidMorphism(
            g, g, {"p": "p", "q": "zz"}, {"a": Word.gen("a"), "b": Word.gen("b")}
        )
    with pytest.raises(ObjectNotFound):
        GroupoidMorphism(g, g, {"p": "p", "q": "q"}, {"a": Word.gen("a")})
    with pytest.raises(NotComposable):
        GroupoidMorphism(
            g,
            g,
            {"p": "p", "q": "q"},
            {"a": Word.gen("a"), "b": Word.gen("a", -1)},
        )


def test_morphism_apply():
    g = torus_groupoid()
    flip = GroupoidMorphism(
        g, g, {"u": "u"}, {"a": Word.gen("a", -1), "b": Word.gen("b")}
    )
    w = Word.gen("a").concat(Word.gen("a", -1))
    assert flip.apply(w).letters == (("a", -1), ("a", 1))
    reduced = g.free_reduce(flip.apply(w))
    assert reduced.is_empty and reduced.at == "u"
    assert [v.status for v in relator_verdicts(flip)] == [VERIFIED]


def test_identity_empty_compose():
    g = torus_groupoid()
    ident = identity_morphism(g)
    assert g.free_reduce(ident.apply(Word.gen("a"))).letters == (("a", 1),)
    flip = GroupoidMorphism(
        g, g, {"u": "u"}, {"a": Word.gen("a", -1), "b": Word.gen("b")}
    )
    twice = compose_morphisms(flip, flip)
    assert twice.generator_map["a"].letters == (("a", 1),)
    e = empty_morphism(g)
    assert e.source.is_empty
    crush = GroupoidMorphism(
        circle_pair(), g,
        {"v1": "u", "v2": "u"},
        {"m1": Word.gen("a"), "m2": Word.gen("b")},
    )
    assert compose_morphisms(flip, crush).generator_map["m1"].letters == (
        ("a", -1),
    )
    with pytest.raises(NotComposable):
        compose_morphisms(crush, flip)


def relator_verdicts(t):
    """Per relator of t's source: is its image the identity at its image
    point?"""
    images = [t.apply(r) for r in t.source.relators]
    return [
        words_equal_verdict(t.target, w, Word((), at=t.target.word_source(w)))
        for w in images
    ]


def test_check_respects_relations_refuted():
    g = torus_groupoid()
    free = loop_groupoid()
    # sending the commutator relator to a single letter cannot work
    bad = GroupoidMorphism(
        g, free, {"u": "u"}, {"a": Word.gen("a"), "b": Word((), at="u")}
    )
    # image of the relator reduces to nothing here, so it passes
    assert [v.status for v in relator_verdicts(bad)] == [VERIFIED]
    worse = GroupoidMorphism(
        g, loop_groupoid(), {"u": "u"},
        {"a": Word.gen("a"), "b": Word.gen("a")},
    )
    # a b a^-1 b^-1 maps to a a a^-1 a^-1 which reduces away
    assert [v.status for v in relator_verdicts(worse)] == [VERIFIED]
    z2 = PresentedGroupoid(
        ("u",), (Gen("x", "u", "u"),), (Word((("x", 1), ("x", 1)), at="u"),)
    )
    z = PresentedGroupoid(("u",), (Gen("x", "u", "u"),), ())
    unroll = GroupoidMorphism(z2, z, {"u": "u"}, {"x": Word.gen("x")})
    (v,) = relator_verdicts(unroll)  # relator 0 is refuted
    assert v.is_refuted
    # commutator into a non-abelian target stays undecided
    undecidable = GroupoidMorphism(
        torus_groupoid(), loop_groupoid((("a", 1), ("a", 1))),
        {"u": "u"},
        {"a": Word.gen("a"), "b": Word.gen("b")},
    )
    (v,) = relator_verdicts(undecidable)
    assert v.is_undecided


def test_abelianized_isotropy_map_flip():
    g = torus_groupoid()
    flip = GroupoidMorphism(
        g, g, {"u": "u"}, {"a": Word.gen("a", -1), "b": Word.gen("b")}
    )
    mat, ab_s, ab_t = abelianized_isotropy_map(flip, "u")
    assert mat.data == [[-1, 0], [0, 1]]
    assert str(ab_s) == "Z^2" and str(ab_t) == "Z^2"


def test_isotropy_image_map_across_objects():
    g = two_point_circle()
    swap = GroupoidMorphism(
        g,
        g,
        {"p": "p", "q": "q"},
        {"a": Word.gen("b"), "b": Word.gen("a")},
    )
    cmpd = isotropy_image_map(swap, "p")
    assert cmpd.source_pres.generators == ("b",)
    # the hat loop b a^-1 maps to a b^-1, which rewrites to the inverse hat
    assert cmpd.images["b"] == (("b", -1),)


def test_equivalence_report_ladder():
    g = torus_groupoid()
    assert equivalence_report(identity_morphism(g)).level == "abelianized"
    assert equivalence_report(identity_morphism(g)).status == VERIFIED
    free = loop_groupoid()
    v = equivalence_report(identity_morphism(free))
    assert v.status == VERIFIED and v.level == "syntactic"
    # doubling on a free rank one group is not recognized either way
    z = PresentedGroupoid(("u",), (Gen("x", "u", "u"),), ())
    double = GroupoidMorphism(
        z, z, {"u": "u"}, {"x": Word((("x", 1), ("x", 1)))}
    )
    assert equivalence_report(double).is_undecided
    # abelianization mismatch refutes
    z2 = PresentedGroupoid(
        ("u",), (Gen("x", "u", "u"),), (Word((("x", 1), ("x", 1)), at="u"),)
    )
    tozmod = GroupoidMorphism(z, z2, {"u": "u"}, {"x": Word.gen("x")})
    v = equivalence_report(tozmod)
    assert v.is_refuted and "abelianizations" in v.witness
    # squaring both torus generators is not surjective
    sq = GroupoidMorphism(
        g, g, {"u": "u"},
        {"a": Word((("a", 1), ("a", 1))), "b": Word.gen("b")},
    )
    v = equivalence_report(sq)
    assert v.is_refuted and v.level == "abelianized"


def test_equivalence_report_components():
    pair = circle_pair()
    g = torus_groupoid()
    crush = GroupoidMorphism(
        pair, g, {"v1": "u", "v2": "u"},
        {"m1": Word.gen("b"), "m2": Word.gen("b")},
    )
    v = equivalence_report(crush)
    assert v.is_refuted
    assert v.witness["components_identified"] == ("v1", "v2")
    dot = PresentedGroupoid(("w",), (), ())
    incl = GroupoidMorphism(dot, pair, {"w": "v1"}, {})
    v = equivalence_report(incl)
    assert v.is_refuted
    assert v.witness["component_counts"] == (1, 2)


def test_strict_isomorphism_report():
    g = torus_groupoid()
    assert strict_isomorphism_report(identity_morphism(g)).status == VERIFIED
    pair = circle_pair()
    dot = PresentedGroupoid(("w",), (), ())
    v = strict_isomorphism_report(
        GroupoidMorphism(dot, pair, {"w": "v1"}, {})
    )
    assert v.is_refuted and v.witness["object_counts"] == (1, 2)
    squash = GroupoidMorphism(
        pair, pair, {"v1": "v1", "v2": "v1"},
        {"m1": Word.gen("m1"), "m2": Word.gen("m1")},
    )
    v = strict_isomorphism_report(squash)
    assert v.is_refuted and v.witness["detail"] == "object map not injective"
    z = PresentedGroupoid(("u",), (Gen("x", "u", "u"),), ())
    double = GroupoidMorphism(
        z, z, {"u": "u"}, {"x": Word((("x", 1), ("x", 1)))}
    )
    assert strict_isomorphism_report(double).is_refuted
    wide = PresentedGroupoid(
        ("u",), (Gen("x", "u", "u"), Gen("y", "u", "u")), ()
    )
    narrow = GroupoidMorphism(z, wide, {"u": "u"}, {"x": Word.gen("x")})
    v = strict_isomorphism_report(narrow)
    assert v.is_refuted and v.witness["generator_counts"] == (1, 2)


def test_verdict_combinators():
    from eqpi1.verdicts import Verdict, combine

    ok = Verdict.verified()
    weak = Verdict.verified("abelianized")
    bad = Verdict.refuted({"x": 1})
    dunno = Verdict.undecided("why")
    assert combine([ok, weak]).level == "abelianized"
    assert combine([ok, bad, dunno]).is_refuted
    assert combine([ok, dunno]).is_undecided
    assert combine([]).status == VERIFIED
    assert str(bad) == "refuted[syntactic] witness={'x': 1}"
    assert "reason=why" in str(dunno)
