"""The former orbit-category construction, kept as a test oracle.

`NaiveOrbitCategory._build` decides each hom set by testing every element
of H against every coset of K, and `naive_generating_morphisms` is the
former generating set, which still holds the identities that conjugation
by a generator inside H gives.  `OrbitCategory` in `eqpi1.orbit` reads the
hom sets from one conjugate per coset and the subgroup lattice; the tests
require the same hom sets, morphism order, `into` and coset tables.
"""

from eqpi1.groups import conjugate_subgroup
from eqpi1.orbit import OrbitCategory, OrbitMorphism


class NaiveOrbitCategory(OrbitCategory):
    def _build(self):
        table = self.group.table
        for kid in self.objects:
            k = self.subgroup(kid).elements
            reps = tuple(min(row[y] for y in k) for row in table)
            self.coset_rep[kid] = reps
            self.transversal[kid] = tuple(sorted(set(reps)))
        for hid in self.objects:
            h = self.subgroup(hid).elements
            for kid in self.objects:
                # rK is a morphism target exactly when H fixes it: x*r in rK
                # for every x in H, i.e. r^-1 H r lies in K
                reps = self.coset_rep[kid]
                self._homs[(hid, kid)] = tuple(
                    OrbitMorphism(hid, kid, r)
                    for r in self.transversal[kid]
                    if all(reps[table[x][r]] == r for x in h)
                )
        self._morphisms = tuple(
            m for hid in self.objects for kid in self.objects
            for m in self._homs[(hid, kid)]
        )
        # into[kid]: the morphisms with target kid, in morphisms() order
        into = {kid: [] for kid in self.objects}
        for m in self._morphisms:
            into[m.target].append(m)
        self.into = {kid: tuple(ms) for kid, ms in into.items()}


def naive_generating_morphisms(cat) -> tuple:
    group = cat.group
    gens = set()
    for hid in cat.objects:
        for s in group.generators:
            kid = cat.id_of(conjugate_subgroup(group, s, cat.subgroup(hid)))
            gens.add(OrbitMorphism(hid, kid, cat.coset_rep[kid][s]))
    members = {h: frozenset(cat.subgroup(h).elements) for h in cat.objects}
    below = {
        kid: {hid for hid in cat.objects if members[hid] < k}
        for kid, k in members.items()
    }
    unit = group.identity
    for kid, inside in below.items():
        for hid in inside.difference(*(below[lid] for lid in inside)):
            gens.add(OrbitMorphism(hid, kid, cat.coset_rep[kid][unit]))
    return tuple(m for m in cat._morphisms if m in gens)
