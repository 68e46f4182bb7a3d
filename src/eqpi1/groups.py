"""Finite groups presented by multiplication tables.

Elements are integer indices into the table.  Conventions, pinned once and
used everywhere: composition (g*h)(x) = g(h(x)) for permutations, cycles
(a b c) mean a -> b -> c -> a, conjugation of subgroups is g^-1 H g, and
cosets are left cosets gH with the minimal element as canonical
representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property


class NoIdentity(ValueError):
    def __init__(self):
        super().__init__("multiplication table has no two-sided identity")


class NoInverse(ValueError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no inverse")


class NotAssociative(ValueError):
    def __init__(self, triple):
        self.triple = triple
        a, b, c = triple
        super().__init__(f"associativity fails on triple ({a}, {b}, {c})")


class NotConjugationClosed(ValueError):
    def __init__(self, g: int, subgroup):
        self.g = g
        self.subgroup = subgroup
        super().__init__(
            f"family is not closed under conjugation: g={g}, H={subgroup.elements}"
        )


class NotSubgroupClosed(ValueError):
    def __init__(self, parent, missing):
        self.parent = parent
        self.missing = missing
        super().__init__(
            f"family member {parent.elements} has subgroup {missing.elements} "
            "outside the family"
        )


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple
    identity: int
    inverse: tuple

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self):
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    @cached_property
    def subgroups(self) -> tuple:
        """Every subgroup, ordered by (order, element tuple), enumerated once
        per group.  The cache lives in the instance __dict__, not in a
        field, so equality and hashing are unchanged.  Each subgroup found
        is extended by one element per left coset outside it: every element
        of g*base generates the same subgroup together with base."""
        found = {(self.identity,)}
        frontier = [(self.identity,)]
        while frontier:
            base = frontier.pop()
            covered = set(base)
            for g in self.elements():
                if g in covered:
                    continue
                covered.update(self.table[g][h] for h in base)
                bigger = subgroup_closure(self, base + (g,)).elements
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        ordered = sorted(found, key=lambda t: (len(t), t))
        return tuple(Subgroup(t) for t in ordered)

    @cached_property
    def generators(self) -> tuple:
        """A greedy generating set, computed once per group: the elements
        in order, keeping each one outside the closure of those kept
        before it."""
        kept = []
        reached = {self.identity}
        for g in self.elements():
            if g not in reached:
                kept.append(g)
                reached = set(subgroup_closure(self, kept).elements)
        return tuple(kept)


def group_from_table(table) -> FiniteGroup:
    """Validate a multiplication table and wrap it: identity, inverses,
    then associativity by Light's test over the greedy generating set S
    (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2).
    The elements s with (x*s)*y = x*(s*y) for all x and y are closed
    under products, so when every s in S passes, so does every product
    of them, which is every element; that is n^2*|S| comparisons instead
    of n^3.  When some s fails, all triples are scanned in order, so
    NotAssociative names the first failing one."""
    rows = tuple(tuple(r) for r in table)
    n = len(rows)
    if n == 0:
        raise NoIdentity()
    for r in rows:
        if len(r) != n or any(not (0 <= x < n) for x in r):
            raise ValueError("table is not square over element indices")
    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if rows[a][b] == identity and rows[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise NoInverse(a)
    group = FiniteGroup(rows, identity, tuple(inverse))
    if not all(_light_holds(rows, s) for s in group.generators):
        raise NotAssociative(next(
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]
        ))
    return group


def _light_holds(rows, s: int) -> bool:
    """(x*s)*y == x*(s*y) for every x and y: n^2 comparisons, row by row."""
    s_row = rows[s]
    return all(rows[row[s]] == tuple(map(row.__getitem__, s_row)) for row in rows)


@cache
def trivial_group() -> FiniteGroup:
    """The group of order one, built once and shared: a FiniteGroup is
    frozen, and its subgroup cache holds one subgroup."""
    return group_from_table([[0]])


def cyclic_group(n: int) -> FiniteGroup:
    return group_from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def _compose_perm(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[x] for x in q)


def cycles_to_permutation(cycles, degree: int):
    """Cycle notation to an image tuple; (a b c) sends a->b, b->c, c->a."""
    img = list(range(degree))
    for cyc in cycles:
        for pos, a in enumerate(cyc):
            b = cyc[(pos + 1) % len(cyc)]
            if not (0 <= a < degree):
                raise ValueError(f"cycle point {a} out of range")
            img[a] = b
    seen = sorted(img)
    if seen != list(range(degree)):
        raise ValueError("cycles do not define a permutation")
    return tuple(img)


def group_from_permutations(
    generators, degree: int, max_order: int | None = None
) -> FiniteGroup:
    """Close a set of permutations (image tuples) under composition and build
    the multiplication table.  Elements are ordered lexicographically by
    image tuple, which places the identity first.  The table is not checked
    again: composition of permutations is associative, and each element's
    inverse is where the identity appears in its row.  With max_order, the
    closure stops with ValueError as soon as it holds more elements, before
    any table is built."""
    idp = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    elems = {idp}
    frontier = [idp]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = _compose_perm(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
                if max_order is not None and len(elems) > max_order:
                    raise ValueError(
                        f"the permutations generate more than {max_order} elements"
                    )
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    table = tuple(
        tuple(index[_compose_perm(a, b)] for b in ordered) for a in ordered
    )
    identity = index[idp]
    inverse = tuple(row.index(identity) for row in table)
    return FiniteGroup(table, identity, inverse)


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return trivial_group()
    swap = cycles_to_permutation([(0, 1)], n)
    cycle = tuple(list(range(1, n)) + [0])
    return group_from_permutations([swap, cycle], n)


@dataclass(frozen=True)
class Subgroup:
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __str__(self):
        return "{" + ",".join(map(str, self.elements)) + "}"


def subgroup_closure(group: FiniteGroup, elems) -> Subgroup:
    """The subgroup generated by elems: a breadth-first search from the
    identity, right-multiplying by each generator (in a finite group the
    generated monoid is the generated subgroup), O(|H|*|elems|)."""
    gens = tuple(set(elems))
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        row = group.table[frontier.pop()]
        for g in gens:
            c = row[g]
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return Subgroup(tuple(sorted(seen)))


def is_subgroup(group: FiniteGroup, elems) -> bool:
    s = set(elems)
    if group.identity not in s:
        return False
    return all(group.mul(a, b) in s for a in s for b in s)


def enumerate_subgroups(group: FiniteGroup) -> list:
    """All subgroups, ordered by (order, element tuple); this ordering
    defines the subgroup ids used in documents and reports.  A fresh list
    of the per-group cache `FiniteGroup.subgroups`."""
    return list(group.subgroups)


def conjugate_subgroup(group: FiniteGroup, g: int, h: Subgroup) -> Subgroup:
    """g^-1 H g, in canonical (sorted) form."""
    return Subgroup(tuple(sorted(group.conj(g, x) for x in h.elements)))


def is_subgroup_of(small: Subgroup, big: Subgroup) -> bool:
    return set(small.elements) <= set(big.elements)


@dataclass(frozen=True)
class SubgroupFamily:
    """A set of subgroups closed under conjugation and under taking
    subgroups, as validate_family enforces."""

    group: FiniteGroup
    members: tuple
    member_set: frozenset = field(compare=False)

    def __contains__(self, h: Subgroup) -> bool:
        return h.elements in self.member_set

    def __len__(self):
        return len(self.members)


def validate_family(group: FiniteGroup, members) -> SubgroupFamily:
    members = sorted({m.elements for m in members})
    subs = [Subgroup(t) for t in members]
    member_set = frozenset(members)
    for h in subs:
        if not is_subgroup(group, h.elements):
            raise ValueError(f"{h} is not a subgroup")
        for g in group.elements():
            c = conjugate_subgroup(group, g, h)
            if c.elements not in member_set:
                raise NotConjugationClosed(g, h)
    all_subs = enumerate_subgroups(group)
    for h in subs:
        for k in all_subs:
            if is_subgroup_of(k, h) and k.elements not in member_set:
                raise NotSubgroupClosed(h, k)
    ordered = sorted(subs, key=lambda s: (s.order, s.elements))
    return SubgroupFamily(group, tuple(ordered), member_set)


def family_all(group: FiniteGroup) -> SubgroupFamily:
    subs = enumerate_subgroups(group)
    return SubgroupFamily(
        group, tuple(subs), frozenset(s.elements for s in subs)
    )


def family_trivial(group: FiniteGroup) -> SubgroupFamily:
    t = Subgroup((group.identity,))
    return SubgroupFamily(group, (t,), frozenset({t.elements}))

