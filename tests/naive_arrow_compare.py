"""The former arrow comparison of the functor law and naturality checks,
kept as a test oracle.

`_same_morphism` compares two built groupoid morphisms generator by
generator, so the naturality check built both sides of every square and
the identity law built the identity.  `eqpi1.functors._same_as_composite`
compares an arrow with a composite it never builds, and the tests require
both to give the same verdict.
"""

from eqpi1.groupoids import GroupoidMorphism, compose_morphisms, words_equal_verdict
from eqpi1.verdicts import LEVEL_SYNTACTIC, Verdict, combine

_SYNTACTICALLY_EQUAL = Verdict.verified(LEVEL_SYNTACTIC)


def _images_differ(label: str, v: Verdict) -> Verdict:
    return Verdict.refuted(
        {"detail": "generator images differ", "generator": label,
         **(v.witness or {})},
        v.level,
    )


def _same_morphism(a: GroupoidMorphism, b: GroupoidMorphism) -> Verdict:
    if a.object_map != b.object_map:
        return Verdict.refuted(
            {"detail": "object maps differ", "maps": (a.object_map, b.object_map)},
            LEVEL_SYNTACTIC,
        )
    if a.generator_map == b.generator_map:  # equal words are equal arrows
        return _SYNTACTICALLY_EQUAL
    verdicts = []
    for g in a.source.generators:
        v = words_equal_verdict(
            a.target, a.generator_map[g.label], b.generator_map[g.label]
        )
        if v.is_refuted:
            return _images_differ(g.label, v)
        verdicts.append(v)
    return combine(verdicts)


def naive_naturality(eta) -> Verdict:
    """The former NaturalTransformation.naturality: both sides of every
    square are built and compared with _same_morphism."""
    cat = eta.source.category
    for hid in cat.objects:
        if hid not in eta.components:
            return Verdict.refuted(
                {"check": "component missing", "id": hid}, LEVEL_SYNTACTIC
            )
        c = eta.components[hid]
        if c.source != eta.source.values[hid] or c.target != eta.target.values[hid]:
            return Verdict.refuted(
                {"check": "component endpoints", "id": hid}, LEVEL_SYNTACTIC
            )
    verdicts = []
    for m in cat.morphisms():
        hid, kid = m.source, m.target
        left = compose_morphisms(eta.components[hid], eta.source.arrows[m])
        right = compose_morphisms(eta.target.arrows[m], eta.components[kid])
        v = _same_morphism(left, right)
        if v.is_refuted:
            return Verdict.refuted(
                {"check": "naturality square", "at": str(m), **(v.witness or {})},
                v.level,
            )
        if v != _SYNTACTICALLY_EQUAL:
            verdicts.append(v)
    return combine(verdicts)
