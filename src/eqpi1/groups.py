"""Finite groups presented by multiplication tables.

Elements are integer indices into the table.  Conventions, pinned once and
used everywhere: composition (g*h)(x) = g(h(x)) for permutations, cycles
(a b c) mean a -> b -> c -> a, conjugation of subgroups is g^-1 H g, and
cosets are left cosets gH with the minimal element as canonical
representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


def group_from_table(table) -> FiniteGroup:
    """Validate a multiplication table and wrap it.  The whole table is
    checked: identity, inverses, and associativity on all triples (group
    orders here are small enough that exhaustive is cheap)."""
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
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAssociative((a, b, c))
    return FiniteGroup(rows, identity, tuple(inverse))


def trivial_group() -> FiniteGroup:
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


def group_from_permutations(generators, degree: int) -> FiniteGroup:
    """Close a set of permutations (image tuples) under composition and build
    the multiplication table.  Elements are ordered lexicographically by
    image tuple, which places the identity first."""
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
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    table = [
        [index[_compose_perm(a, b)] for b in ordered] for a in ordered
    ]
    return group_from_table(table)


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
    current = {group.identity}
    current.update(elems)
    while True:
        extra = set()
        for a in current:
            for b in current:
                c = group.mul(a, b)
                if c not in current:
                    extra.add(c)
        if not extra:
            break
        current.update(extra)
    return Subgroup(tuple(sorted(current)))


def is_subgroup(group: FiniteGroup, elems) -> bool:
    s = set(elems)
    if group.identity not in s:
        return False
    return all(group.mul(a, b) in s for a in s for b in s)


def enumerate_subgroups(group: FiniteGroup) -> list:
    """All subgroups, ordered by (order, element tuple); this ordering
    defines the subgroup ids used in documents and reports."""
    found = {(group.identity,)}
    frontier = [(group.identity,)]
    while frontier:
        base = frontier.pop()
        for g in group.elements():
            if g in base:
                continue
            bigger = subgroup_closure(group, set(base) | {g}).elements
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    ordered = sorted(found, key=lambda t: (len(t), t))
    return [Subgroup(t) for t in ordered]


def conjugate_subgroup(group: FiniteGroup, g: int, h: Subgroup) -> Subgroup:
    """g^-1 H g, in canonical (sorted) form."""
    return Subgroup(tuple(sorted(group.conj(g, x) for x in h.elements)))


def is_subgroup_of(small: Subgroup, big: Subgroup) -> bool:
    return set(small.elements) <= set(big.elements)


@dataclass(frozen=True)
class Coset:
    """Left coset g*H, canonically represented by its minimal element."""

    subgroup: Subgroup
    representative: int
    elements: tuple

    def __str__(self):
        return f"{self.representative}{self.subgroup}"


def left_coset(group: FiniteGroup, g: int, h: Subgroup) -> Coset:
    elems = tuple(sorted(group.mul(g, x) for x in h.elements))
    return Coset(h, elems[0], elems)


def left_cosets(group: FiniteGroup, h: Subgroup) -> list:
    seen = set()
    out = []
    for g in group.elements():
        c = left_coset(group, g, h)
        if c.elements not in seen:
            seen.add(c.elements)
            out.append(c)
    out.sort(key=lambda c: c.representative)
    return out


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

