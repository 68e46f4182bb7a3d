import pytest

from eqpi1.complexes import (
    CellularMap,
    Edge,
    GCellComplex,
    identity_cellular_map,
    trivial_action,
)
from eqpi1.functors import (
    MissingArrow,
    MissingValue,
    NaturalTransformation,
    NotEquivariant,
    OrbFunctor,
    equivalence_of_functors,
    induced_functor_from_complex,
    induced_transformation,
    make_functor,
    validate_functoriality,
)
from eqpi1.groupoids import (
    EMPTY_GROUPOID,
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    identity_morphism,
)
from eqpi1.groups import cyclic_group, family_all, family_trivial, trivial_group
from eqpi1.orbit import OrbitCategory


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
    assert validate_functoriality(f).is_verified
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
    assert validate_functoriality(f).is_verified


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
    assert validate_functoriality(f).is_verified


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


def test_induced_transformation_identity(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    eta = induced_transformation(identity_cellular_map(x))
    assert eta.naturality().is_verified
    v = equivalence_of_functors(eta)
    assert v.is_verified


def test_induced_transformation_swap():
    x = reflection_pair_complex()
    swap = CellularMap(
        x, x,
        {"p": "p", "q": "q"},
        {"a": Word.gen("b"), "b": Word.gen("a")},
        {},
    )
    eta = induced_transformation(swap)
    assert eta.naturality().is_verified
    assert equivalence_of_functors(eta).is_verified
    images = eta.components[0].generator_map
    assert images["a"].letters == (("b", 1),)


def test_induced_transformation_rejects_nonequivariant():
    x = reflection_pair_complex()
    collapse = CellularMap(
        x, x,
        {"p": "p", "q": "q"},
        {"a": Word.gen("a"), "b": Word.gen("a")},
        {},
    )
    with pytest.raises(NotEquivariant):
        induced_transformation(collapse)


def test_induced_transformation_needs_same_group():
    circle = GCellComplex(
        trivial_group(), ("v",), (Edge("a", "v", "v"),), (), (),
        trivial_action(["v", "a"]),
    )
    x = reflection_pair_complex()
    bad = CellularMap(x, circle, {"p": "v", "q": "v"}, {}, {})
    with pytest.raises(NotEquivariant):
        induced_transformation(bad)


def test_equivalence_of_functors_refuted_on_collapse():
    circle = GCellComplex(
        trivial_group(), ("v",), (Edge("a", "v", "v"),), (), (),
        trivial_action(["v", "a"]),
    )
    point = GCellComplex(
        trivial_group(), ("w",), (), (), (), trivial_action(["w"])
    )
    crush = CellularMap(circle, point, {"v": "w"}, {"a": Word.empty("w")}, {})
    eta = induced_transformation(crush)
    assert eta.naturality().is_verified
    v = equivalence_of_functors(eta)
    assert v.is_refuted
    assert v.witness["component"] == 0
    assert "abelianizations" in v.witness


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
