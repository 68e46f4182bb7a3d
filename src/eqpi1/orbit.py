"""The orbit category of a finite group relative to a family of subgroups.

Objects are the cosets spaces G/H for H in the family; a morphism
G/H -> G/K is the G-map xH -> xgK determined by a coset gK with
g^-1 H g contained in K, that is with H inside the conjugate gKg^-1.
Composing xH -> xaK with xK -> xbL gives xH -> x(ab)L.  A coset is named
only by its least element, read from one table per object, so a morphism
is the triple (source id, target id, representative) and composition and
identities are computed from that table.  The hom sets come from the
subgroup lattice: one conjugate per coset of each target, and the objects
inside it.  Everything is enumerated eagerly, once, and ordered
deterministically: objects by subgroup id, morphisms by
(source id, target id, coset representative).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupFamily,
    conjugate_subgroup,
    enumerate_subgroups,
)


class ObjectNotInFamily(ValueError):
    def __init__(self, subgroup):
        self.subgroup = subgroup
        super().__init__(f"subgroup {subgroup} is not in the family")


class NotComposable(ValueError):
    pass


class OrbitMorphism(NamedTuple):
    """G/source -> G/target, named by the least element of the coset (of the
    target subgroup) that the identity coset maps to."""

    source: int
    target: int
    representative: int

    def __str__(self):
        return f"H{self.source}->H{self.target}:g{self.representative}"


class OrbitCategory:
    def __init__(self, group: FiniteGroup, family: SubgroupFamily):
        self.group = group
        self.family = family
        self.subgroups = enumerate_subgroups(group)
        self._id_of = {s.elements: i for i, s in enumerate(self.subgroups)}
        self.objects = tuple(
            self._id_of[m.elements] for m in family.members
        )
        self._homs = {}
        # coset_rep[hid][g] is the least element of the coset g*H_hid, the
        # canonical representative that names the coset everywhere;
        # transversal[hid] lists those representatives in increasing order
        self.coset_rep = {}
        self.transversal = {}
        self._build()
        self._check_laws()

    def subgroup(self, sid: int) -> Subgroup:
        return self.subgroups[sid]

    def id_of(self, h: Subgroup) -> int:
        return self._id_of[h.elements]

    def _as_id(self, h) -> int:
        if isinstance(h, Subgroup):
            return self.id_of(h)
        return h

    def _build(self):
        # A morphism H -> K with representative r exists exactly when
        # r^-1 H r <= K, i.e. when H lies in the conjugate rKr^-1, which
        # depends only on the coset rK.  So each coset of K costs one
        # conjugate, and its sources are the objects inside that conjugate
        # (|objects| * |G| products in all).  A validated family is closed
        # under conjugation and under subgroups, so these are the objects
        # below rKr^-1 in the lattice; `inside` tests every object against
        # any subgroup id, so an unvalidated family gets the same hom sets.
        table, inverse = self.group.table, self.group.inverse
        members = {
            hid: frozenset(self.subgroup(hid).elements) for hid in self.objects
        }
        inside = {}
        homs = {(hid, kid): [] for hid in self.objects for kid in self.objects}
        for kid in self.objects:
            k = self.subgroup(kid).elements
            # walking g upwards, an element not yet placed is the least of
            # its coset gK, so the transversal comes out increasing
            reps = [None] * len(table)
            transversal = []
            for r in self.group.elements():
                if reps[r] is not None:
                    continue
                transversal.append(r)
                row = table[r]
                coset = [row[y] for y in k]
                for x in coset:
                    reps[x] = r
                back = inverse[r]
                c = self._id_of[tuple(sorted(table[x][back] for x in coset))]
                if c not in inside:
                    conj = frozenset(self.subgroup(c).elements)
                    inside[c] = [h for h in self.objects if members[h] <= conj]
                for hid in inside[c]:
                    homs[(hid, kid)].append(OrbitMorphism(hid, kid, r))
            self.coset_rep[kid] = tuple(reps)
            self.transversal[kid] = tuple(transversal)
        self._homs = {key: tuple(ms) for key, ms in homs.items()}
        self._morphisms = tuple(
            m for hid in self.objects for kid in self.objects
            for m in self._homs[(hid, kid)]
        )
        # into[kid]: the morphisms with target kid, in morphisms() order
        into = {kid: [] for kid in self.objects}
        for m in self._morphisms:
            into[m.target].append(m)
        self.into = {kid: tuple(ms) for kid, ms in into.items()}

    def hom(self, h, k) -> tuple:
        hid, kid = self._as_id(h), self._as_id(k)
        if hid not in self.objects:
            raise ObjectNotInFamily(self.subgroup(hid))
        if kid not in self.objects:
            raise ObjectNotInFamily(self.subgroup(kid))
        return self._homs[(hid, kid)]

    def identity(self, h) -> OrbitMorphism:
        hid = self._as_id(h)
        return OrbitMorphism(hid, hid, self.coset_rep[hid][self.group.identity])

    def is_identity(self, m: OrbitMorphism) -> bool:
        return (
            m.source == m.target
            and m.representative == self.coset_rep[m.source][self.group.identity]
        )

    def compose(self, beta: OrbitMorphism, alpha: OrbitMorphism) -> OrbitMorphism:
        """beta after alpha: target(alpha) must equal source(beta).  The
        composite's coset is (a*b)L, named by its least element."""
        if alpha.target != beta.source:
            raise NotComposable(
                f"cannot compose {beta} after {alpha}: object mismatch"
            )
        prod = self.group.table[alpha.representative][beta.representative]
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(OrbitMorphism, (
            alpha.source, beta.target, self.coset_rep[beta.target][prod]
        ))

    def composite_representatives(self, beta: OrbitMorphism) -> list:
        """The representative of beta after alpha for each alpha in
        into[beta.source], in that order, as compose names it; the
        composite itself is (alpha.source, beta.target, representative)."""
        table, b = self.group.table, beta.representative
        to_l = self.coset_rep[beta.target]
        return [to_l[table[a.representative][b]] for a in self.into[beta.source]]

    def morphisms(self) -> tuple:
        """All morphisms in deterministic order."""
        return self._morphisms

    @cached_property
    def generating_morphisms(self) -> tuple:
        """Morphisms that generate the category under composition, in
        morphisms() order: H -> s^-1 H s with representative s, for each
        object H and each group generator s outside H, and the inclusion
        H -> K of each cover H < K in the family (no member strictly
        between).  A morphism with representative r factors as conjugation
        by r, a product of generators (a finite group needs no inverses),
        then a chain of covers up to its target (tom Dieck, Transformation
        Groups, I.10).  Conjugation by a generator inside H is the identity
        of H, so it is left out."""
        group = self.group
        members = {h: frozenset(self.subgroup(h).elements) for h in self.objects}
        gens = set()
        for hid in self.objects:
            for s in group.generators:
                if s in members[hid]:
                    continue
                kid = self.id_of(conjugate_subgroup(group, s, self.subgroup(hid)))
                gens.add(OrbitMorphism(hid, kid, self.coset_rep[kid][s]))
        below = {
            kid: {hid for hid in self.objects if members[hid] < k}
            for kid, k in members.items()
        }
        unit = group.identity
        for kid, inside in below.items():
            for hid in inside.difference(*(below[lid] for lid in inside)):
                gens.add(OrbitMorphism(hid, kid, self.coset_rep[kid][unit]))
        return tuple(m for m in self._morphisms if m in gens)

    def apply(self, m: OrbitMorphism, coset_rep: int) -> int:
        """The underlying G-map on cosets: the coset (rep)H maps to the coset
        (rep * g)K; returns the canonical representative."""
        return self.coset_rep[m.target][self.group.mul(coset_rep, m.representative)]

    def _check_laws(self):
        # identities act as units; associativity is checked exhaustively for
        # small groups only (both follow from the group laws, so this is a
        # self-check of the coset tables, not a user-facing validation).
        # It works on integers: a then b, with representatives x and y,
        # has representative coset_rep[target of b][x*y], as in compose.
        table, reps = self.group.table, self.coset_rep
        unit = self.group.identity
        for m in self._morphisms:
            h, k, r = m
            to_k = reps[k]
            if to_k[table[r][to_k[unit]]] != r or to_k[table[reps[h][unit]][r]] != r:
                raise AssertionError(f"identity law fails at {m}")
        if self.group.order <= 12:
            for c in self._morphisms:
                to_c, z = reps[c.target], c.representative
                for b in self.into[c.source]:
                    to_b, y = reps[b.target], b.representative
                    cb = to_c[table[y][z]]
                    for a in self.into[b.source]:
                        x = a.representative
                        if to_c[table[to_b[table[x][y]]][z]] != to_c[table[x][cb]]:
                            raise AssertionError(
                                f"associativity fails on ({c}, {b}, {a})"
                            )
