"""The orbit category read from the subgroup lattice against the former
element-by-element construction (tests/naive_orbit.py), and the integer
self-check of the coset tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqpi1.groups import (
    SubgroupFamily,
    conjugate_subgroup,
    cycles_to_permutation,
    cyclic_group,
    enumerate_subgroups,
    family_all,
    family_trivial,
    group_from_permutations,
    is_subgroup_of,
    symmetric_group,
    trivial_group,
    validate_family,
)
from eqpi1.orbit import OrbitCategory
from naive_orbit import NaiveOrbitCategory, naive_generating_morphisms
from test_orbit import order_at_most_4

S4 = symmetric_group(4)


def dihedral_4():
    return group_from_permutations(
        [cycles_to_permutation([(0, 1, 2, 3)], 4), cycles_to_permutation([(0, 2)], 4)],
        4,
    )


def assert_same_category(group, family):
    cat = OrbitCategory(group, family)
    old = NaiveOrbitCategory(group, family)
    assert cat.objects == old.objects
    assert cat._homs == old._homs
    assert cat.morphisms() == old.morphisms()
    assert cat.into == old.into
    assert cat.coset_rep == old.coset_rep
    assert cat.transversal == old.transversal
    return cat, old


def assert_same_closed_category(group, family):
    # generating morphisms need a family closed under conjugation
    cat, old = assert_same_category(group, family)
    assert cat.generating_morphisms == tuple(
        m for m in naive_generating_morphisms(old) if not old.is_identity(m)
    )


@pytest.mark.parametrize(
    "group, family",
    [
        (trivial_group(), family_all),
        *((cyclic_group(n), family_all) for n in range(2, 7)),
        (symmetric_group(3), family_all),
        (dihedral_4(), family_all),
        (S4, family_all),
        (symmetric_group(5), family_all),
        (S4, family_trivial),
        (S4, order_at_most_4),
    ],
    ids=["1", "c2", "c3", "c4", "c5", "c6", "s3", "d4", "s4", "s5",
         "s4-trivial", "s4-order-4"],
)
def test_lattice_build_matches_element_scan(group, family):
    assert_same_closed_category(group, family(group))


def closed_family(group, seeds):
    """The family generated by some subgroups: their conjugates, and every
    subgroup of those."""
    subs = enumerate_subgroups(group)
    conjugates = {
        conjugate_subgroup(group, g, subs[i]) for i in seeds for g in group.elements()
    }
    return validate_family(
        group, [s for s in subs if any(is_subgroup_of(s, c) for c in conjugates)]
    )


def unvalidated_family(group, ids):
    """Some subgroups taken as they are, closed under nothing."""
    members = tuple(enumerate_subgroups(group)[i] for i in sorted(set(ids)))
    return SubgroupFamily(group, members, frozenset(m.elements for m in members))


@given(seeds=st.lists(st.integers(0, len(S4.subgroups) - 1), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_lattice_build_matches_on_random_s4_families(seeds):
    assert_same_closed_category(S4, closed_family(S4, seeds))


@given(ids=st.lists(st.integers(0, len(S4.subgroups) - 1), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_lattice_build_matches_on_unvalidated_s4_families(ids):
    # a conjugate rKr^-1 need not be an object here; the hom sets still
    # hold every object inside it
    assert_same_category(S4, unvalidated_family(S4, ids))


def test_identity_law_self_check_fires():
    cat = OrbitCategory(S4, family_all(S4))
    kid = cat.objects[1]
    r1, r2 = cat.transversal[kid][1:3]
    reps = list(cat.coset_rep[kid])
    reps[r1], reps[r2] = reps[r2], reps[r1]
    cat.coset_rep[kid] = tuple(reps)
    first = next(
        m for m in cat.morphisms()
        if m.target == kid and m.representative in (r1, r2)
    )
    with pytest.raises(AssertionError) as err:
        cat._check_laws()
    assert str(err.value) == f"identity law fails at {first}"


def test_associativity_self_check_fires():
    # C6 and its subgroup {0, 3}: its transversal is 0, 1, 2, so the
    # identity laws read only those entries of its coset table; sending
    # 3 to the coset of 1 breaks composites through 3 alone
    g = cyclic_group(6)
    cat = OrbitCategory(g, family_all(g))
    kid = cat.id_of(next(s for s in cat.subgroups if s.elements == (0, 3)))
    assert cat.transversal[kid] == (0, 1, 2)
    reps = list(cat.coset_rep[kid])
    reps[3] = 1
    cat.coset_rep[kid] = tuple(reps)
    with pytest.raises(AssertionError) as err:
        cat._check_laws()
    assert str(err.value) == (
        "associativity fails on (H0->H1:g0, H0->H0:g3, H0->H0:g1)"
    )
