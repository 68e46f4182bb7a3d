import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqpi1.groups import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotConjugationClosed,
    NotSubgroupClosed,
    Subgroup,
    conjugate_subgroup,
    cycles_to_permutation,
    cyclic_group,
    enumerate_subgroups,
    family_all,
    family_trivial,
    group_from_permutations,
    group_from_table,
    is_subgroup,
    subgroup_closure,
    symmetric_group,
    trivial_group,
    validate_family,
)


def element_order(g, a):
    n, x = 1, a
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    return n


def test_trivial_group():
    g = trivial_group()
    assert g.order == 1
    assert g.identity == 0
    assert g.mul(0, 0) == 0
    assert g.inv(0) == 0


def test_cyclic_group_tables():
    g = cyclic_group(4)
    assert g.order == 4
    for a, b in itertools.product(range(4), repeat=2):
        assert g.mul(a, b) == (a + b) % 4
    assert g.inv(3) == 1
    assert g.inv(0) == 0


def test_bad_tables_rejected():
    # a loop with two-sided inverses that is not associative
    with pytest.raises(NotAssociative):
        group_from_table(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
    with pytest.raises(NoInverse):
        group_from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(NoIdentity):
        group_from_table([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1]])
    with pytest.raises(NoIdentity):
        group_from_table([])


def test_identity_found_anywhere_in_table():
    # same group as cyclic_group(2) but with the identity listed second
    g = group_from_table([[1, 0], [0, 1]])
    assert g.identity == 1
    assert g.inv(0) == 0


def test_cycles_to_permutation():
    assert cycles_to_permutation([(0, 1, 2)], 3) == (1, 2, 0)
    assert cycles_to_permutation([(0, 1)], 3) == (1, 0, 2)
    assert cycles_to_permutation([(0, 1), (2, 3)], 4) == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        cycles_to_permutation([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError):
        cycles_to_permutation([(0, 5)], 3)


def test_permutation_composition_convention():
    # elements of a permutation group are its image tuples in lex order and
    # the table realizes (p*q)(x) = p(q(x))
    g = symmetric_group(3)
    ordered = sorted(itertools.permutations(range(3)))
    assert g.order == len(ordered)
    assert ordered[g.identity] == (0, 1, 2)
    for a, b in itertools.product(range(6), repeat=2):
        pa, pb = ordered[a], ordered[b]
        composed = tuple(pa[pb[x]] for x in range(3))
        assert ordered[g.mul(a, b)] == composed


def test_symmetric_group_s3_structure():
    g = symmetric_group(3)
    assert g.order == 6
    orders = sorted(element_order(g, a) for a in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))


def test_group_from_permutations():
    klein = group_from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
    assert klein.order == 4
    for a in range(4):
        assert klein.mul(a, a) == klein.identity
    with pytest.raises(ValueError):
        group_from_permutations([(0, 0, 1)], 3)


def test_group_from_permutations_closes():
    g = group_from_permutations([(1, 2, 0)], 3)
    assert g.order == 3


def test_permutation_groups_equal_their_checked_tables():
    # permutation input skips group_from_table's checks; the checked table
    # must give the same group, identity and inverses included
    for g in (symmetric_group(4), group_from_permutations([(1, 0, 3, 2)], 4)):
        assert g == group_from_table(g.table)


def test_symmetric_group_s6_builds_quickly():
    start = time.perf_counter()
    g = symmetric_group(6)
    assert g.order == 720
    assert time.perf_counter() - start < 10
    assert g.identity == 0
    assert all(g.mul(a, g.inv(a)) == 0 for a in g.elements())


def test_mul_inv_conj():
    g = symmetric_group(3)
    for a in range(6):
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.inv(a), a) == g.identity
    for a, x in itertools.product(range(6), repeat=2):
        assert g.conj(a, x) == g.mul(g.mul(g.inv(a), x), a)


def test_enumerate_subgroups_orders():
    assert [s.elements for s in enumerate_subgroups(cyclic_group(2))] == [
        (0,),
        (0, 1),
    ]
    z4 = enumerate_subgroups(cyclic_group(4))
    assert [s.elements for s in z4] == [(0,), (0, 2), (0, 1, 2, 3)]
    s3 = enumerate_subgroups(symmetric_group(3))
    assert [s.order for s in s3] == [1, 2, 2, 2, 3, 6]
    assert s3 == sorted(s3, key=lambda s: (s.order, s.elements))


def test_subgroups_contain_identity_and_close():
    g = symmetric_group(3)
    for s in enumerate_subgroups(g):
        assert g.identity in s
        assert is_subgroup(g, s.elements)


def test_subgroup_closure():
    g = cyclic_group(6)
    assert subgroup_closure(g, {2}).elements == (0, 2, 4)
    assert subgroup_closure(g, {2, 3}).elements == (0, 1, 2, 3, 4, 5)


def test_conjugate_subgroup():
    g = symmetric_group(3)
    subs = enumerate_subgroups(g)
    order2 = [s for s in subs if s.order == 2]
    images = set()
    for a in g.elements():
        images.add(conjugate_subgroup(g, a, order2[0]).elements)
    # the three reflections form one conjugacy class
    assert images == {s.elements for s in order2}
    order3 = [s for s in subs if s.order == 3][0]
    for a in g.elements():
        assert conjugate_subgroup(g, a, order3).elements == order3.elements


def test_families():
    g = symmetric_group(3)
    fam = family_all(g)
    assert len(fam) == 6
    triv = family_trivial(g)
    assert len(triv) == 1
    assert Subgroup((0,)) in triv
    assert Subgroup((0, 1)) not in triv


def test_validate_family_accepts_closed_families():
    g = symmetric_group(3)
    subs = enumerate_subgroups(g)
    fam = validate_family(g, subs)
    assert fam.members == family_all(g).members
    # trivial plus the normal order 3 subgroup is closed both ways
    order3 = [s for s in subs if s.order == 3][0]
    small = validate_family(g, [subs[0], order3])
    assert len(small) == 2


def test_validate_family_rejects_unclosed():
    g = symmetric_group(3)
    subs = enumerate_subgroups(g)
    refl = [s for s in subs if s.order == 2][0]
    with pytest.raises(NotConjugationClosed):
        validate_family(g, [subs[0], refl])
    whole = subs[-1]
    with pytest.raises(NotSubgroupClosed):
        validate_family(g, [whole])
    with pytest.raises(ValueError):
        validate_family(g, [Subgroup((0, 1, 2))])


def naive_closure(g, elems):
    """The all-pairs closure subgroup_closure used before its search."""
    current = {g.identity, *elems}
    while True:
        extra = {g.mul(a, b) for a in current for b in current} - current
        if not extra:
            return tuple(sorted(current))
        current |= extra


S4 = symmetric_group(4)


@given(st.lists(st.integers(0, S4.order - 1), max_size=4))
def test_subgroup_closure_matches_naive_closure(gens):
    assert subgroup_closure(S4, gens).elements == naive_closure(S4, gens)


def test_enumerate_subgroups_s4_matches_naive_enumeration():
    # the enumeration before subgroups were cached: join each subgroup with
    # each element under the naive closure, then order by (order, elements)
    found = {(S4.identity,)}
    frontier = [(S4.identity,)]
    while frontier:
        base = frontier.pop()
        for x in S4.elements():
            bigger = naive_closure(S4, set(base) | {x})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    want = sorted(found, key=lambda t: (len(t), t))
    subs = enumerate_subgroups(S4)
    assert len(subs) == 30
    assert [s.elements for s in subs] == want


def element_by_element_subgroups(g):
    """The subgroup search before it tried one element per left coset:
    join each subgroup found with every element outside it."""
    found = {(g.identity,)}
    frontier = [(g.identity,)]
    while frontier:
        base = frontier.pop()
        for x in g.elements():
            if x in base:
                continue
            bigger = subgroup_closure(g, base + (x,)).elements
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda t: (len(t), t))


@pytest.mark.parametrize("n, count", [(4, 30), (5, 156)])
def test_subgroups_match_element_by_element_search(n, count):
    g = symmetric_group(n)
    subs = [s.elements for s in g.subgroups]
    assert len(subs) == count
    assert subs == element_by_element_subgroups(g)


def test_enumerate_subgroups_is_cached_per_group():
    g = symmetric_group(4)
    first = enumerate_subgroups(g)
    first.clear()
    again = enumerate_subgroups(g)
    assert len(again) == 30 and again is not first
    assert g.subgroups is g.subgroups
    # the cache is not a field: equality and hashing ignore it
    fresh = symmetric_group(4)
    assert fresh == g and hash(fresh) == hash(g)
    assert "subgroups" not in fresh.__dict__


def test_generators_are_greedy():
    groups = [trivial_group()] + [cyclic_group(n) for n in range(2, 7)]
    groups += [symmetric_group(n) for n in (3, 4, 5)]
    for g in groups:
        gens = g.generators
        assert subgroup_closure(g, gens).order == g.order
        for i, s in enumerate(gens):
            assert s not in subgroup_closure(g, gens[:i])
        assert g.generators is gens
    assert [len(g.generators) for g in groups] == [0, 1, 1, 1, 1, 1, 2, 3, 4]
    # the cache is not a field: equality and hashing ignore it
    fresh = symmetric_group(4)
    assert "generators" not in fresh.__dict__
    assert fresh == groups[-2] and hash(fresh) == hash(groups[-2])


def test_trivial_group_is_one_shared_instance():
    # fixed subcomplexes are complexes over the trivial group, one per
    # subgroup and complex; the 1x1 table is validated once
    g = trivial_group()
    assert g is trivial_group()
    assert [s.elements for s in g.subgroups] == [(0,)]
