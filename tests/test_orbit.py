import pytest

from eqpi1.groups import (
    Subgroup,
    cyclic_group,
    enumerate_subgroups,
    family_all,
    family_trivial,
    symmetric_group,
    trivial_group,
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
    "c6": cyclic_group(6),
    "s3": symmetric_group(3),
    # order 24: beyond the construction-time associativity self-check
    "s4": symmetric_group(4),
}


def left_coset(group, g, h):
    """g*H as a sorted element tuple; its least element, first, is the
    coset's canonical representative."""
    return tuple(sorted(group.mul(g, x) for x in h.elements))


def left_cosets(group, h):
    """Every left coset of h, in the order of their representatives."""
    return sorted({left_coset(group, g, h) for g in group.elements()})


def fixed_cosets(group, h, k):
    """Cosets of k fixed by left translation by every element of h; the
    morphism sets must be in bijection with these."""
    out = []
    for c in left_cosets(group, k):
        cset = set(c)
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
            assert [m.representative for m in got] == [
                c[0] for c in expected
            ]


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
        assert (
            e.representative
            == left_coset(g, g.identity, cat.subgroup(hid))[0]
        )
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
            # the indexed lookup agrees with coset arithmetic: (a*b)K
            prod = g.mul(a.representative, b.representative)
            coset = left_coset(g, prod, cat.subgroup(b.target))
            assert ba == OrbitMorphism(a.source, b.target, coset[0])
            assert ba in cat.hom(ba.source, ba.target)
            for c in by_source.get(b.target, ()):
                assert cat.compose(c, ba) == cat.compose(cat.compose(c, b), a)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_composite_representatives_match_compose(name):
    g = GROUPS[name]
    cat = OrbitCategory(g, family_all(g))
    for b in cat.morphisms():
        reps = cat.composite_representatives(b)
        assert reps == [cat.compose(b, a).representative for a in cat.into[b.source]]


def test_compose_coset_arithmetic():
    g = GROUPS["z4"]
    cat = OrbitCategory(g, family_all(g))
    # two self-maps of the free orbit compose by multiplying representatives
    free = cat.hom(0, 0)
    for a in free:
        for b in free:
            got = cat.compose(b, a)
            prod = g.mul(a.representative, b.representative)
            assert (
                got.representative
                == left_coset(g, prod, cat.subgroup(0))[0]
            )


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
            r = c[0]
            image = cat.apply(m, r)
            # the image coset is (r * rep) K
            assert (
                image
                == left_coset(
                    g, g.mul(r, m.representative), tgt
                )[0]
            )
            for a in g.elements():
                moved = left_coset(g, g.mul(a, r), src)[0]
                assert cat.apply(m, moved) == left_coset(
                    g, g.mul(a, g.mul(r, m.representative)), tgt
                )[0]


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
    m = OrbitMorphism(0, 1, 0)
    assert m._fields == ("source", "target", "representative")
    assert m.representative == 0
    assert str(m) == "H0->H1:g0"


def test_index_matches_scans():
    g = symmetric_group(4)
    cat = OrbitCategory(g, family_all(g))
    ms = cat.morphisms()
    assert cat.morphisms() is ms
    for kid in cat.objects:
        assert cat.into[kid] == tuple(m for m in ms if m.target == kid)
        ident = cat.identity(kid)
        assert (
            ident.representative
            == left_coset(g, g.identity, cat.subgroup(kid))[0]
        )
        assert cat.identity(cat.subgroup(kid)) == ident


def closure_of_identities(cat):
    """Every morphism reached from an identity by composing generating
    morphisms on the outside."""
    by_source = {}
    for gamma in cat.generating_morphisms:
        by_source.setdefault(gamma.source, []).append(gamma)
    seen = {cat.identity(h) for h in cat.objects}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for gamma in by_source.get(m.target, ()):
            c = cat.compose(gamma, m)
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return seen


def order_at_most_4(g):
    return validate_family(g, [s for s in enumerate_subgroups(g) if s.order <= 4])


@pytest.mark.parametrize(
    "group, family",
    [
        (trivial_group(), family_all),
        *((cyclic_group(n), family_all) for n in range(2, 7)),
        *((symmetric_group(n), family_all) for n in (3, 4, 5)),
        (symmetric_group(4), family_trivial),
        (symmetric_group(4), order_at_most_4),
    ],
    ids=["1", "c2", "c3", "c4", "c5", "c6", "s3", "s4", "s5", "s4-trivial",
         "s4-order-4"],
)
def test_generating_morphisms_generate(group, family):
    cat = OrbitCategory(group, family(group))
    gens = cat.generating_morphisms
    assert cat.generating_morphisms is gens
    order = {m: i for i, m in enumerate(cat.morphisms())}
    assert [order[m] for m in gens] == sorted(order[m] for m in gens)
    assert closure_of_identities(cat) == set(cat.morphisms())


def test_generating_pairs_are_few_on_s4():
    # the law check compares one pair per generating morphism and morphism
    # into its source, instead of every composable pair
    g = symmetric_group(4)
    cat = OrbitCategory(g, family_all(g))
    pairs = sum(len(cat.into[m.source]) for m in cat.morphisms())
    gamma_pairs = sum(len(cat.into[m.source]) for m in cat.generating_morphisms)
    assert (gamma_pairs, pairs) == (3010, 16830)
    assert 4 * gamma_pairs < pairs
