import pytest

from eqpi1.complexes import homology_of_complex, validate_complex
from eqpi1.documents import parse_document
from eqpi1.functors import (
    induced_functor_from_complex,
    make_functor,
    validate_functoriality,
)
from eqpi1.groupoids import (
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    identity_morphism,
)
from eqpi1.groups import cyclic_group, family_all, trivial_group
from eqpi1.orbit import OrbitCategory
from eqpi1.realize import (
    STEP2_BIJECTION,
    STEP2_DEFICIT,
    STEP2_QUOTIENT,
    StepTwoReport,
    build_homotopy_coend,
    build_space,
    comparison_transformation,
    verify_fundamental_functor,
    verify_step2,
    zero_skeleton_coend,
)


def homology_strings(x, max_dim=3):
    return [str(h.group) for h in homology_of_complex(x, max_dim=max_dim)]


def find_morphism(cat, text):
    for m in cat.morphisms():
        if str(m) == text:
            return m
    raise AssertionError(f"no morphism {text}")


def torus_functor(doc):
    return next(iter(doc.functors.values()))


def deficit_functor():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    pair = PresentedGroupoid(("u", "v"), (), ())
    point = PresentedGroupoid(("p",), (), ())
    proj = GroupoidMorphism(point, pair, {"p": "u"}, {})
    return make_functor(
        cat,
        {0: pair, 1: point},
        {
            find_morphism(cat, "H0->H0:g1"): identity_morphism(pair),
            find_morphism(cat, "H0->H1:g0"): proj,
        },
    )


def nonrigid_functor():
    z2 = cyclic_group(2)
    cat = OrbitCategory(z2, family_all(z2))
    x3 = PresentedGroupoid(
        ("u",), (Gen("x", "u", "u"),), (Word((("x", 1),) * 3, at="u"),)
    )
    a6 = PresentedGroupoid(
        ("u",), (Gen("a", "u", "u"),), (Word((("a", 1),) * 6, at="u"),)
    )
    halve = GroupoidMorphism(a6, x3, {"u": "u"}, {"a": Word((("x", 1), ("x", 1)))})
    return make_functor(
        cat,
        {0: x3, 1: a6},
        {
            find_morphism(cat, "H0->H0:g1"): identity_morphism(x3),
            find_morphism(cat, "H0->H1:g0"): halve,
        },
    )


def trivial_torus_functor():
    tg = trivial_group()
    cat = OrbitCategory(tg, family_all(tg))
    torus = PresentedGroupoid(
        ("u",),
        (Gen("a", "u", "u"), Gen("b", "u", "u")),
        (Word((("a", 1), ("b", 1), ("a", -1), ("b", -1)), at="u"),),
    )
    return make_functor(cat, {0: torus}, {})


def test_coend_of_shipped_torus(torus_doc):
    f = torus_functor(torus_doc)
    co = zero_skeleton_coend(f)
    assert co.classes == ("x0",)
    assert co.members["x0"] == ((0, 0, "u"), (0, 1, "u"), (1, 0, "v1"), (1, 0, "v2"))
    assert co.class_of(0, 1, "u") == "x0"
    assert co.action == {0: {"x0": "x0"}, 1: {"x0": "x0"}}


def test_coend_classes_of_deficit_functor():
    co = zero_skeleton_coend(deficit_functor())
    assert co.classes == ("x0", "x1")
    assert co.members["x0"] == ((0, 0, "u"), (0, 1, "u"), (1, 0, "p"))
    assert co.members["x1"] == ((0, 0, "v"), (0, 1, "v"))


def test_step2_reports():
    assert str(StepTwoReport(STEP2_BIJECTION)) == "Bijection"
    assert (
        str(StepTwoReport(STEP2_QUOTIENT, ("v1", "v2")))
        == "ProperQuotient witness=('v1', 'v2')"
    )


def test_step2_on_shipped_torus(torus_doc):
    rep = verify_step2(torus_functor(torus_doc))
    assert rep[0].status == STEP2_BIJECTION and rep[0].witness is None
    assert rep[1].status == STEP2_QUOTIENT
    assert rep[1].witness == ("v1", "v2")


def test_step2_deficit():
    rep = verify_step2(deficit_functor())
    assert rep[0].status == STEP2_BIJECTION
    assert rep[1].status == STEP2_DEFICIT
    assert rep[1].witness == ("x1",)


def test_step2_honest_functor_is_bijective(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    f = induced_functor_from_complex(x)
    rep = verify_step2(f)
    assert all(r.status == STEP2_BIJECTION for r in rep.values())


def test_build_space_shipped_torus(torus_doc):
    f = torus_functor(torus_doc)
    r = build_space(f)
    assert r.space.cell_counts() == (1, 6, 16, 4)
    assert r.nonrigid == ()
    assert validate_complex(r.space).is_verified
    assert homology_strings(r.space) == ["Z", "Z^2", "Z^11", "Z^3"]
    assert r.step2[0].status == STEP2_BIJECTION
    assert r.step2[1].status == STEP2_QUOTIENT
    assert r.functor is f and r.coend.classes == ("x0",)


def test_build_space_respects_max_dim(torus_doc):
    f = torus_functor(torus_doc)
    r = build_space(f, max_dim=2)
    assert r.space.solids == ()
    assert r.nonrigid == ()


def test_homotopy_coend_shipped_torus(torus_doc):
    f = torus_functor(torus_doc)
    w = build_homotopy_coend(f)
    assert w.cell_counts() == (4, 16, 16, 4)
    assert validate_complex(w).is_verified
    assert homology_strings(w) == ["Z", "Z^9", "Z^11", "Z^3"]


def cross_check_functors(source, torus_doc, bench_inputs):
    if source == "torus":
        honest = next(iter(torus_doc.complexes.values()))
        return [torus_functor(torus_doc), induced_functor_from_complex(honest)]
    if source == "cone3":
        text = bench_inputs.cone(3, 0)
    else:
        text = bench_inputs.cone(4, 0, loop_power=3)  # Z/3 torsion below degree 3
    (x,) = parse_document(text).complexes.values()
    return [induced_functor_from_complex(x, family_all(x.group))]


@pytest.mark.parametrize(
    "source, h3",
    [("torus", "Z^3"), ("cone3", "0"), ("cone4-loops", "0")],
    ids=["torus", "cone3", "cone4-loops"],
)
def test_degree_three_homology_agrees(source, h3, torus_doc, bench_inputs):
    for f in cross_check_functors(source, torus_doc, bench_inputs):
        x = build_space(f).space
        w = build_homotopy_coend(f)
        assert validate_complex(x).is_verified
        assert validate_complex(w).is_verified
        assert homology_strings(x)[3] == homology_strings(w)[3] == h3


def test_trivial_group_torus_realization():
    f = trivial_torus_functor()
    assert validate_functoriality(f).is_verified
    r = build_space(f)
    assert r.space.cell_counts() == (1, 2, 3, 1)
    assert homology_strings(r.space) == ["Z", "Z^2", "Z^3", "Z"]
    w = build_homotopy_coend(f)
    assert w.cell_counts() == (1, 3, 3, 1)
    assert homology_strings(w) == ["Z", "Z^3", "Z^3", "Z"]


def test_nonrigid_functor_skips_solids():
    f = nonrigid_functor()
    assert validate_functoriality(f).is_verified
    r = build_space(f)
    assert r.nonrigid == (("H0->H1:g0", 0),)
    assert len(r.space.solids) == 5
    assert not any(s.label.startswith("s2.") for s in r.space.solids)
    assert validate_complex(r.space).is_verified
    # solid detection only runs when 3-cells are requested
    assert build_space(f, max_dim=2).nonrigid == ()


def test_honest_realization_valid(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    f = induced_functor_from_complex(x)
    r = build_space(f)
    assert r.space.cell_counts() == (2, 10, 26, 8)
    assert r.nonrigid == ()
    assert validate_complex(r.space).is_verified
    assert homology_strings(r.space) == ["Z", "Z^2", "Z^14", "Z^3"]
    assert build_homotopy_coend(f).cell_counts() == (6, 24, 26, 8)


def test_comparison_transformation_natural(torus_doc):
    f = torus_functor(torus_doc)
    r = build_space(f)
    eta = comparison_transformation(f, r)
    assert eta.naturality().is_verified
    comp = eta.components[0]
    assert comp.object_map == {"u": "x0"}
    assert comp.generator_map["a"].letters == (("o0.g0.a", 1),)


def test_verify_fundamental_functor_compressed(torus_doc):
    f = torus_functor(torus_doc)
    ver = verify_fundamental_functor(f)
    assert ver.naturality.is_verified
    assert ver.equivalence[0].is_verified
    assert ver.equivalence[0].level == "abelianized"
    assert ver.equivalence[1].is_refuted
    assert ver.equivalence[1].witness == {"components_identified": ("v1", "v2")}
    assert ver.strict[0].witness == {"generator_counts": (2, 6)}
    assert ver.strict[1].witness == {"object_counts": (2, 1)}
    assert ver.combined.is_refuted


def test_verify_fundamental_functor_honest(torus_doc):
    x = next(iter(torus_doc.complexes.values()))
    f = induced_functor_from_complex(x)
    ver = verify_fundamental_functor(f)
    assert ver.naturality.is_verified
    assert ver.equivalence[0].is_verified
    assert ver.equivalence[1].is_verified
    assert ver.combined.is_verified
    assert ver.combined.level == "abelianized"


def test_verify_fundamental_functor_trivial_torus():
    f = trivial_torus_functor()
    ver = verify_fundamental_functor(f)
    assert ver.combined.is_verified


def test_deficit_functor_still_realizes():
    f = deficit_functor()
    r = build_space(f)
    assert validate_complex(r.space).is_verified
    assert r.space.cell_counts() == (2, 0, 0, 0)
    assert homology_strings(r.space) == ["Z^2", "0", "0", "0"]
