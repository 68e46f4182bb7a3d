"""The former unshared induced functor and comparison, kept as test oracles.

`naive_induced_functor` builds one value per subgroup and one arrow per
orbit morphism.  `naive_comparison` builds one comparison component per
subgroup over that functor.  `naive_naturality` compares every square
afresh with an eagerly built context, and `naive_reports` judges every
component separately.  In `eqpi1`, subgroups with equal fixed cells share
one value, equal arrows and components are shared, and each check runs
once per distinct tuple of shared objects; the tests require equal values
and arrows and the same verdicts, witnesses and levels.
"""

from eqpi1.complexes import fixed_subcomplex, fundamental_groupoid
from eqpi1.functors import NaturalTransformation, OrbFunctor, _same_as_composite
from eqpi1.groupoids import (
    GroupoidMorphism,
    Word,
    check_composable,
    compose_morphisms,
    equivalence_report,
    strict_isomorphism_report,
)
from eqpi1.realize import _label
from eqpi1.verdicts import first_refuted


def naive_induced_functor(x, cat):
    """The functor of fixed-point fundamental groupoids, one value per
    subgroup and one arrow per morphism."""
    values = {}
    for hid in cat.objects:
        sub = cat.subgroups[hid]
        fixed = fixed_subcomplex(x, sub)
        values[hid] = fundamental_groupoid(fixed)
    arrows = {}
    for m in cat.morphisms():
        g = m.representative
        src_value = values[m.target]
        dst_value = values[m.source]
        object_map = {v: x.action[g][v][0] for v in src_value.objects}
        generator_map = {}
        for e in src_value.generators:
            img, sign = x.action[g][e.label]
            generator_map[e.label] = Word(((img, sign),))
        arrows[m] = GroupoidMorphism(src_value, dst_value, object_map, generator_map)
    return OrbFunctor(cat, values, arrows)


def naive_comparison(f, result):
    """The comparison from f to the unshared induced functor of the
    realized space, one component per subgroup."""
    computed = naive_induced_functor(result.space, f.category)
    cat = f.category
    components = {}
    for hid in cat.objects:
        base = cat.coset_rep[hid][cat.group.identity]
        val = f.values[hid]
        object_map = {
            x: result.coend.class_of(hid, base, x) for x in val.objects
        }
        generator_map = {
            g.label: Word(((_label(f"o{hid}", base, g.label), 1),))
            for g in val.generators
        }
        components[hid] = GroupoidMorphism(
            val, computed.values[hid], object_map, generator_map
        )
    return NaturalTransformation(f, computed, components)


def naive_naturality(eta):
    """NaturalTransformation.naturality with every square compared."""
    cat = eta.source.category
    for hid in cat.objects:
        if hid not in eta.components:
            return NaturalTransformation.naturality(eta)
        c = eta.components[hid]
        if c.source != eta.source.values[hid] or c.target != eta.target.values[hid]:
            return NaturalTransformation.naturality(eta)

    def squares():
        for m in cat.morphisms():
            left = compose_morphisms(eta.components[m.source], eta.source.arrows[m])
            c_k, g_m = eta.components[m.target], eta.target.arrows[m]
            check_composable(g_m, c_k)
            yield (
                {"check": "naturality square", "at": str(m)},
                _same_as_composite(left, c_k, g_m),
            )

    return first_refuted(squares())


def naive_reports(eta):
    """(equivalence, strict): subgroup id -> verdict, each component
    judged on its own."""
    equivalence, strict = {}, {}
    for hid in eta.source.category.objects:
        equivalence[hid] = equivalence_report(eta.components[hid])
        strict[hid] = strict_isomorphism_report(eta.components[hid])
    return equivalence, strict
