import pytest

from eqpi1.groups import (
    Subgroup,
    cyclic_group,
    enumerate_subgroups,
    family_all,
    family_trivial,
    left_coset,
    left_cosets,
    symmetric_group,
    validate_family,
)
from eqpi1.orbit import (
    NotComposable,
    ObjectNotInFamily,
    OrbitCategory,
    OrbitMorphism,
)

GROUPS = {
    "z2": cyclic_group(2),
    "z4": cyclic_group(4),
    "s3": symmetric_group(3),
}


def fixed_cosets(group, h, k):
    """Cosets of k fixed by left translation by every element of h; the
    morphism sets must be in bijection with these."""
    out = []
    for c in left_cosets(group, k):
        cset = set(c.elements)
        if all({group.mul(x, y) for y in cset} == cset for x in h.elements):
            out.append(c)
    return out


def test_z2_category_shape():
    g = GROUPS["z2"]
    cat = OrbitCategory(g, family_all(g))
    assert cat.objects == (0, 1)
    assert [str(m) for m in cat.morphisms()] == [
        "H0->H0:g0",
        "H0->H0:g1",
        "H0->H1:g0",
        "H1->H1:g0",
    ]


def test_s3_category_shape():
    g = GROUPS["s3"]
    cat = OrbitCategory(g, family_all(g))
    assert len(cat.objects) == 6
    assert len(cat.morphisms()) == 34


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_hom_sets_match_fixed_cosets(name):
    g = GROUPS[name]
    cat = OrbitCategory(g, family_all(g))
    for hid in cat.objects:
        for kid in cat.objects:
            expected = fixed_cosets(g, cat.subgroup(hid), cat.subgroup(kid))
            got = cat.hom(hid, kid)
            assert [m.coset for m in got] == [c.elements for c in expected]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_free_orbit_hom_size_is_the_index(name):
    g = GROUPS[name]
    cat = OrbitCategory(g, family_all(g))
    for kid in cat.objects:
        k = cat.subgroup(kid)
        assert len(cat.hom(0, kid)) == g.order // k.order


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_identity_and_unit_laws(name):
    g = GROUPS[name]
    cat = OrbitCategory(g, family_all(g))
    for hid in cat.objects:
        e = cat.identity(hid)
        assert e.source == e.target == hid
        assert cat.is_identity(e)
        assert e.representative == min(e.coset)
    for m in cat.morphisms():
        assert cat.compose(cat.identity(m.target), m) == m
        assert cat.compose(m, cat.identity(m.source)) == m
        assert cat.is_identity(m) == (m == cat.identity(m.source))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_composition_closed_and_associative(name):
    g = GROUPS[name]
    cat = OrbitCategory(g, family_all(g))
    ms = cat.morphisms()
    by_source = {}
    for m in ms:
        by_source.setdefault(m.source, []).append(m)
    for a in ms:
        for b in by_source.get(a.target, ()):
            ba = cat.compose(b, a)
            assert ba.source == a.source and ba.target == b.target
            assert ba in cat.hom(ba.source, ba.target)
            for c in by_source.get(b.target, ()):
                assert cat.compose(c, ba) == cat.compose(cat.compose(c, b), a)


def test_compose_coset_arithmetic():
    g = GROUPS["z4"]
    cat = OrbitCategory(g, family_all(g))
    # two self-maps of the free orbit compose by multiplying representatives
    free = cat.hom(0, 0)
    for a in free:
        for b in free:
            got = cat.compose(b, a)
            prod = g.mul(a.representative, b.representative)
            assert got.coset == left_coset(g, prod, cat.subgroup(0)).elements


def test_compose_mismatch_raises():
    g = GROUPS["z2"]
    cat = OrbitCategory(g, family_all(g))
    down = cat.hom(0, 1)[0]
    with pytest.raises(NotComposable):
        cat.compose(down, down)


def test_apply_is_equivariant():
    g = GROUPS["s3"]
    cat = OrbitCategory(g, family_all(g))
    for m in cat.morphisms():
        src = cat.subgroup(m.source)
        tgt = cat.subgroup(m.target)
        for c in left_cosets(g, src):
            r = c.representative
            image = cat.apply(m, r)
            # the image coset is (r * rep) K
            assert (
                image
                == left_coset(
                    g, g.mul(r, m.representative), tgt
                ).representative
            )
            for a in g.elements():
                moved = left_coset(g, g.mul(a, r), src).representative
                assert cat.apply(m, moved) == left_coset(
                    g, g.mul(a, g.mul(r, m.representative)), tgt
                ).representative


def test_proper_family():
    g = GROUPS["s3"]
    subs = enumerate_subgroups(g)
    order3 = [s for s in subs if s.order == 3][0]
    fam = validate_family(g, [subs[0], order3])
    cat = OrbitCategory(g, fam)
    assert cat.objects == (0, 4)
    assert len(cat.hom(0, 4)) == 2
    with pytest.raises(ObjectNotInFamily):
        cat.hom(0, 5)


def test_family_trivial_category():
    g = GROUPS["s3"]
    cat = OrbitCategory(g, family_trivial(g))
    assert cat.objects == (0,)
    # the one object has G worth of self-maps
    assert len(cat.hom(0, 0)) == 6


def test_morphism_str_and_coset():
    m = OrbitMorphism(0, 1, (0, 1))
    assert m.representative == 0
    assert str(m) == "H0->H1:g0"
