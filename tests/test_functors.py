import pytest
from naive_arrow_compare import _same_morphism, naive_naturality
from naive_laws import naive_validate_functoriality

from eqpi1.complexes import (
    Edge,
    GCellComplex,
    trivial_action,
)
from eqpi1.documents import parse_document
from eqpi1.functors import (
    MissingArrow,
    MissingValue,
    NaturalTransformation,
    OrbFunctor,
    induced_functor_from_complex,
    make_functor,
    validate_functoriality,
)
from eqpi1.functors import _same_as_composite
from eqpi1.groupoids import (
    EMPTY_GROUPOID,
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    compose_morphisms,
    equivalence_report,
    identity_morphism,
)
from eqpi1.groups import (
    cyclic_group,
    family_all,
    family_trivial,
    symmetric_group,
    trivial_group,
)
from eqpi1.orbit import OrbitCategory
from eqpi1.verdicts import REFUTED, VERIFIED


def circle_groupoid():
    return PresentedGroupoid(("u",), (Gen("x", "u", "u"),), ())


def point_groupoid():
    return PresentedGroupoid(("u",), (), ())


def flip_on(g):
    return GroupoidMorphism(g, g, {"u": "u"}, {"x": Word.gen("x", -1)})


def find_morphism(cat, text):
    for m in cat.morphisms():
        if str(m) == text:
            return m
    raise AssertionError(f"no morphism {text}")


def test_make_functor_fills_identities_and_validates():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    circ = circle_groupoid()
    point = point_groupoid()
    flip = find_morphism(cat, "H0->H0:g1")
    proj = find_morphism(cat, "H0->H1:g0")
    f = make_functor(
        cat,
        {0: circ, 1: point},
        {flip: flip_on(circ), proj: GroupoidMorphism(point, circ, {"u": "u"}, {})},
    )
    assert set(f.arrows) == set(cat.morphisms())
    assert validate_functoriality(f).status == VERIFIED
    assert f.value(0) is circ
    assert f.value(cat.subgroups[1]) is point
    with pytest.raises(MissingValue):
        f.value(99)
    ident = f.arrow(cat.identity(0))
    assert ident.generator_map["x"].letters == (("x", 1),)


def test_make_functor_missing_value():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    with pytest.raises(MissingValue):
        make_functor(cat, {0: circle_groupoid()}, {})


def test_make_functor_missing_arrow():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    circ = circle_groupoid()
    flip = find_morphism(cat, "H0->H0:g1")
    with pytest.raises(MissingArrow) as err:
        make_functor(cat, {0: circ, 1: circ}, {flip: flip_on(circ)})
    assert "H0->H1:g0" in str(err.value)


def test_make_functor_empty_values_need_no_arrows():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    circ = circle_groupoid()
    flip = find_morphism(cat, "H0->H0:g1")
    f = make_functor(
        cat, {0: circ, 1: EMPTY_GROUPOID}, {flip: flip_on(circ)}
    )
    proj = find_morphism(cat, "H0->H1:g0")
    assert f.arrows[proj].source is EMPTY_GROUPOID
    assert validate_functoriality(f).status == VERIFIED


def test_make_functor_derives_composites():
    z4 = cyclic_group(4)
    cat = OrbitCategory(z4, family_all(z4))
    assert len(list(cat.morphisms())) == 11
    circ = circle_groupoid()
    point = point_groupoid()
    values = {0: circ, 1: circ, 2: point}
    arrows = {
        find_morphism(cat, "H0->H0:g1"): flip_on(circ),
        find_morphism(cat, "H0->H1:g0"): identity_morphism(circ),
        find_morphism(cat, "H1->H1:g1"): flip_on(circ),
        find_morphism(cat, "H1->H2:g0"): GroupoidMorphism(
            point, circ, {"u": "u"}, {}
        ),
    }
    f = make_functor(cat, values, arrows)
    assert len(f.arrows) == 11
    # the quarter turn composed with itself gives the half turn
    half = f.arrows[find_morphism(cat, "H0->H0:g2")]
    assert half.generator_map["x"].letters == (("x", 1),)
    assert validate_functoriality(f).status == VERIFIED


def test_declared_identity_violation_is_caught():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_trivial(z2))
    circ = circle_groupoid()
    ident = cat.identity(0)
    other = find_morphism(cat, "H0->H0:g1")
    f = make_functor(
        cat, {0: circ}, {ident: flip_on(circ), other: identity_morphism(circ)}
    )
    v = validate_functoriality(f)
    assert v.is_refuted and v.witness["check"] == "identity law"


def test_validate_arrow_endpoints():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_trivial(z2))
    circ = circle_groupoid()
    wrong = {m: identity_morphism(point_groupoid()) for m in cat.morphisms()}
    f = OrbFunctor(cat, {0: circ}, wrong)
    v = validate_functoriality(f)
    assert v.is_refuted and v.witness["check"] == "arrow endpoints"


def test_arrow_endpoints_compare_by_value():
    # the scan tests identity before equality: an arrow whose endpoint is
    # an equal copy of the value passes, an unequal one is refuted at the
    # morphism where the value-by-value scan refutes it
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    circ, point = circle_groupoid(), point_groupoid()
    proj = find_morphism(cat, "H0->H1:g0")
    f = make_functor(
        cat,
        {0: circ, 1: point},
        {find_morphism(cat, "H0->H0:g1"): flip_on(circ),
         proj: GroupoidMorphism(point, circ, {"u": "u"}, {})},
    )
    copies = point_groupoid(), circle_groupoid()
    assert copies == (point, circ) and copies[0] is not point and copies[1] is not circ
    for source, target, status in (
        (*copies, VERIFIED),
        (PresentedGroupoid(("w",), (), ()), circ, REFUTED),
        (point, PresentedGroupoid(("u", "w"), (Gen("x", "u", "u"),), ()), REFUTED),
    ):
        arrow = GroupoidMorphism(source, target, {x: "u" for x in source.objects}, {})
        g = OrbFunctor(cat, f.values, {**f.arrows, proj: arrow})
        v = validate_functoriality(g)
        assert v.status == status
        assert str(v) == str(naive_validate_functoriality(g))
    assert v.witness == {"check": "arrow endpoints", "at": str(proj)}


def test_induced_functors_from_documents(torus_doc, reflection_doc, free_doc):
    for doc in (torus_doc, reflection_doc, free_doc):
        for x in doc.complexes.values():
            f = induced_functor_from_complex(x)
            v = validate_functoriality(f)
            assert not v.is_refuted


def test_induced_functor_values(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    f = induced_functor_from_complex(x)
    free_level = f.values[0]
    fixed_level = f.values[1]
    assert set(free_level.objects) == {"v1", "v2"}
    assert len(free_level.components()) == 1
    assert set(fixed_level.objects) == {"v1", "v2"}
    assert len(fixed_level.components()) == 2
    assert {g.label for g in fixed_level.generators} == {"l1", "l2"}


def reflection_pair_complex():
    z2 = cyclic_group(2)
    return GCellComplex(
        z2, ("p", "q"),
        (Edge("a", "p", "q"), Edge("b", "p", "q")),
        (), (),
        {
            0: {lab: (lab, 1) for lab in ("p", "q", "a", "b")},
            1: {"p": ("p", 1), "q": ("q", 1), "a": ("b", 1), "b": ("a", 1)},
        },
    )


def map_transformation(x, y, vertex_map, edge_map):
    """The natural transformation of fixed-point functors that a G-map
    x -> y with these vertex and edge images induces: its component at H
    is the map restricted to the H-fixed cells.  The map is not checked."""
    source, target = induced_functor_from_complex(x), induced_functor_from_complex(y)
    components = {
        hid: GroupoidMorphism(
            value, target.values[hid],
            {v: vertex_map[v] for v in value.objects},
            {e.label: edge_map[e.label] for e in value.generators},
        )
        for hid, value in source.values.items()
    }
    return NaturalTransformation(source, target, components)


def equivalence_reports(eta):
    return {hid: equivalence_report(c) for hid, c in eta.components.items()}


def test_induced_transformation_identity(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    eta = map_transformation(
        x, x, {v: v for v in x.vertices}, {e.label: Word.gen(e.label) for e in x.edges}
    )
    assert eta.naturality().status == VERIFIED
    reports = equivalence_reports(eta)
    assert len(reports) == 2
    assert all(v.status == VERIFIED for v in reports.values())


def test_induced_transformation_swap():
    x = reflection_pair_complex()
    eta = map_transformation(
        x, x, {"p": "p", "q": "q"}, {"a": Word.gen("b"), "b": Word.gen("a")}
    )
    assert eta.naturality().status == VERIFIED
    assert all(v.status == VERIFIED for v in equivalence_reports(eta).values())
    images = eta.components[0].generator_map
    assert images["a"].letters == (("b", 1),)


def test_equivalence_of_functors_refuted_on_collapse():
    circle = GCellComplex(
        trivial_group(), ("v",), (Edge("a", "v", "v"),), (), (),
        trivial_action(["v", "a"]),
    )
    point = GCellComplex(
        trivial_group(), ("w",), (), (), (), trivial_action(["w"])
    )
    eta = map_transformation(circle, point, {"v": "w"}, {"a": Word((), at="w")})
    assert eta.naturality().status == VERIFIED
    reports = equivalence_reports(eta)
    assert [hid for hid, v in reports.items() if v.is_refuted] == [0]
    assert "abelianizations" in reports[0].witness


def test_naturality_guards(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    f = induced_functor_from_complex(x)
    missing = NaturalTransformation(f, f, {})
    v = missing.naturality()
    assert v.is_refuted and v.witness["check"] == "component missing"
    wrong = NaturalTransformation(
        f, f, {hid: identity_morphism(point_groupoid()) for hid in f.values}
    )
    v = wrong.naturality()
    assert v.is_refuted and v.witness["check"] == "component endpoints"


def test_broken_functor_keeps_its_refuting_pair():
    # pairs are visited beta-major in morphisms() order, alpha in into[]
    # order; the first failing pair is the witness and must stay put
    s3 = symmetric_group(3)
    cat = OrbitCategory(s3, family_all(s3))
    circ = circle_groupoid()
    ident = identity_morphism(circ)
    arrows = {m: ident for m in cat.morphisms()}
    arrows[find_morphism(cat, "H0->H3:g0")] = flip_on(circ)
    v = validate_functoriality(OrbFunctor(cat, {h: circ for h in cat.objects}, arrows))
    assert v.is_refuted
    assert v.witness["check"] == "composition law"
    assert v.witness["pair"] == ("H0->H3:g0", "H0->H0:g1")


def test_completion_order_and_refuting_pair():
    # arrows out of the free orbit with a nontrivial representative are
    # derived by composition, first definition wins; the given data
    # disagree, so which composite wins shows the pair order
    s3 = symmetric_group(3)
    cat = OrbitCategory(s3, family_all(s3))
    circ = circle_groupoid()
    derived = [
        m for m in cat.morphisms()
        if m.source == 0 and m.target != 0 and m.representative != 0
    ]
    flip, ident = flip_on(circ), identity_morphism(circ)
    given = {
        m: flip if (m.representative + m.target) % 2 else ident
        for m in cat.morphisms()
        if m not in derived and not cat.is_identity(m)
    }
    f = make_functor(cat, {h: circ for h in cat.objects}, given)
    flipped = [
        str(m) for m in derived
        if f.arrows[m].generator_map["x"].letters == (("x", -1),)
    ]
    assert flipped == [
        "H0->H1:g2", "H0->H1:g4", "H0->H2:g1", "H0->H2:g3", "H0->H3:g2", "H0->H4:g1",
    ]
    v = validate_functoriality(f)
    assert v.is_refuted
    assert v.witness["pair"] == ("H0->H0:g2", "H0->H0:g1")


def test_composite_check_matches_built_composite():
    # the law and naturality checks compare generator images without
    # building composites; on every composable pair, identity and square
    # they must give the verdict the built composites give: equal reduced
    # words, words equal only modulo the relator x x, words that differ in
    # the abelianization, and object maps that differ
    p = PresentedGroupoid(
        ("u", "v"),
        (Gen("x", "u", "u"), Gen("y", "u", "v")),
        (Word((("x", 1), ("x", 1))),),
    )
    fixed = {"u": "u", "v": "v"}
    flip = GroupoidMorphism(
        p, p, fixed, {"x": Word.gen("x", -1), "y": Word.gen("y")}
    )
    swap = GroupoidMorphism(
        p, p, {"u": "v", "v": "u"},
        {"x": Word((("y", -1), ("x", 1), ("y", 1))), "y": Word.gen("y", -1)},
    )
    twist = GroupoidMorphism(
        p, p, fixed, {"x": Word.gen("x"), "y": Word((("x", 1), ("y", 1)))}
    )
    ident = identity_morphism(p)
    choices = (ident, flip, swap, twist)
    for t in choices:
        assert str(_same_as_composite(t, ident, ident)) == str(
            _same_morphism(t, ident)
        )
    s3 = symmetric_group(3)
    cat = OrbitCategory(s3, family_all(s3))
    values = {h: p for h in cat.objects}
    functors = []
    for step in (1, 2, 3, 5):
        arrows = {m: choices[i * step % 7 % 4] for i, m in enumerate(cat.morphisms())}
        for beta in cat.morphisms():
            for alpha in cat.into[beta.source]:
                direct = arrows[cat.compose(beta, alpha)]
                built = compose_morphisms(arrows[alpha], arrows[beta])
                assert _same_as_composite(
                    direct, arrows[beta], arrows[alpha]
                ) == _same_morphism(direct, built)
        functors.append(OrbFunctor(cat, values, arrows))
    functors.append(OrbFunctor(cat, values, {m: ident for m in cat.morphisms()}))
    functors.append(OrbFunctor(cat, values, {m: flip for m in cat.morphisms()}))
    for i, f in enumerate(functors):
        for j, g in enumerate(functors):
            # four constant components, and one choice varying by object
            for k in range(5):
                components = {
                    h: choices[(h + i + 2 * j) % 4 if k == 4 else k]
                    for h in cat.objects
                }
                eta = NaturalTransformation(f, g, components)
                assert str(eta.naturality()) == str(naive_naturality(eta))


@pytest.mark.parametrize(
    "relators, expected",
    [
        # x^2 = 1 follows from x^6 and x^4 only in the abelian group Z/2
        ("rel x^6  rel x^4", "verified[abelianized]"),
        # x^2 is a commutator here, and the group is not certified abelian
        ("gen y u u  rel x^2 y x y^-1 x^-1",
         "undecided[undecided] reason=word problem: loop not decided at "
         "abelianized level"),
    ],
)
def test_weaker_verdicts_survive_the_law_checks(relators, expected):
    # the law checks keep only verdicts weaker than verified[syntactic]; a
    # square that commutes only modulo the relators must still show its level
    ys = "  gen y y" if "y" in relators else ""
    doc = parse_document(
        "group table { row 0 1  row 1 0 }\n"
        f"groupoid g {{ objects u  gen x u u  {relators} }}\n"
        "functor f { value 0 g  value 1 g\n"
        f"  arrow 0 0 1 {{ obj u u  gen x x^-1{ys} }}\n"
        f"  arrow 0 1 0 {{ obj u u  gen x x{ys} }} }}"
    )
    f = doc.functors["f"]
    assert str(validate_functoriality(f)) == expected
    g = f.values[0]
    images = {"x": Word((("x", 1),) * 3)}
    if ys:
        images["y"] = Word.gen("y")
    cube = GroupoidMorphism(g, g, {"u": "u"}, images)
    eta = NaturalTransformation(f, f, {0: cube, 1: identity_morphism(g)})
    assert str(eta.naturality()) == expected
