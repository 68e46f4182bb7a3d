"""The orbit category of a finite group relative to a family of subgroups.

Objects are the cosets spaces G/H for H in the family; a morphism
G/H -> G/K is the G-map xH -> xgK determined by a coset gK with
g^-1 H g contained in K.  Composing xH -> xaK with xK -> xbL gives
xH -> x(ab)L.  Everything is enumerated eagerly and ordered
deterministically: objects by subgroup id, morphisms by
(source id, target id, coset representative).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupFamily,
    enumerate_subgroups,
    left_coset,
    left_cosets,
)


class ObjectNotInFamily(ValueError):
    def __init__(self, subgroup):
        self.subgroup = subgroup
        super().__init__(f"subgroup {subgroup} is not in the family")


class NotComposable(ValueError):
    pass


@dataclass(frozen=True)
class OrbitMorphism:
    """G/source -> G/target, encoded by the coset (of the target subgroup)
    that the identity coset maps to."""

    source: int
    target: int
    coset: tuple

    @property
    def representative(self) -> int:
        return self.coset[0]

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
        g = self.group
        cosets = {kid: left_cosets(g, self.subgroup(kid)) for kid in self.objects}
        for kid, cs in cosets.items():
            table = [0] * g.order
            for coset in cs:
                for x in coset.elements:
                    table[x] = coset.representative
            self.coset_rep[kid] = tuple(table)
            self.transversal[kid] = tuple(c.representative for c in cs)
        for hid in self.objects:
            h = self.subgroup(hid)
            for kid in self.objects:
                kset = set(self.subgroup(kid).elements)
                ms = []
                for coset in cosets[kid]:
                    rep = coset.representative
                    if all(g.conj(rep, x) in kset for x in h.elements):
                        ms.append(OrbitMorphism(hid, kid, coset.elements))
                ms.sort(key=lambda m: m.representative)
                self._homs[(hid, kid)] = tuple(ms)

    def hom(self, h, k) -> tuple:
        hid, kid = self._as_id(h), self._as_id(k)
        if hid not in self.objects:
            raise ObjectNotInFamily(self.subgroup(hid))
        if kid not in self.objects:
            raise ObjectNotInFamily(self.subgroup(kid))
        return self._homs[(hid, kid)]

    def identity(self, h) -> OrbitMorphism:
        hid = self._as_id(h)
        sub = self.subgroup(hid)
        cos = left_coset(self.group, self.group.identity, sub)
        return OrbitMorphism(hid, hid, cos.elements)

    def is_identity(self, m: OrbitMorphism) -> bool:
        return m.source == m.target and m == self.identity(m.source)

    def compose(self, beta: OrbitMorphism, alpha: OrbitMorphism) -> OrbitMorphism:
        """beta after alpha: target(alpha) must equal source(beta)."""
        if alpha.target != beta.source:
            raise NotComposable(
                f"cannot compose {beta} after {alpha}: object mismatch"
            )
        g = self.group
        prod = g.mul(alpha.representative, beta.representative)
        cos = left_coset(g, prod, self.subgroup(beta.target))
        return OrbitMorphism(alpha.source, beta.target, cos.elements)

    def morphisms(self) -> list:
        """All morphisms in deterministic order."""
        out = []
        for hid in self.objects:
            for kid in self.objects:
                out.extend(self._homs[(hid, kid)])
        return out

    def apply(self, m: OrbitMorphism, coset_rep: int) -> int:
        """The underlying G-map on cosets: the coset (rep)H maps to the coset
        (rep * g)K; returns the canonical representative."""
        return self.coset_rep[m.target][self.group.mul(coset_rep, m.representative)]

    def _check_laws(self):
        # identities act as units; composition closed; associativity is
        # checked exhaustively for small groups only (it is implied by the
        # group laws, so this is a self-check, not a user-facing validation)
        ms = self.morphisms()
        for m in ms:
            left = self.compose(self.identity(m.target), m)
            right = self.compose(m, self.identity(m.source))
            if left != m or right != m:
                raise AssertionError(f"identity law fails at {m}")
            if m not in self._homs[(m.source, m.target)]:
                raise AssertionError(f"composition not closed at {m}")
        if self.group.order <= 12:
            by_source = {}
            for m in ms:
                by_source.setdefault(m.source, []).append(m)
            for a in ms:
                for b in by_source.get(a.target, ()):
                    ba = self.compose(b, a)
                    for c in by_source.get(b.target, ()):
                        if self.compose(c, ba) != self.compose(
                            self.compose(c, b), a
                        ):
                            raise AssertionError(
                                f"associativity fails on ({c}, {b}, {a})"
                            )

