"""The former functor law check, kept as a test oracle.

`naive_validate_functoriality` compares the arrow of every composable
pair with the composite of its factors.  `validate_functoriality` in
`eqpi1.functors` first compares only the pairs whose outer factor is a
generating morphism, and scans every pair only when those are not all
equal as maps of free groupoids; the tests require the same status,
witness and level.
"""

from eqpi1.functors import _same_as_composite
from eqpi1.groupoids import identity_morphism
from eqpi1.verdicts import LEVEL_SYNTACTIC, Verdict, combine

_SYNTACTICALLY_EQUAL = Verdict.verified(LEVEL_SYNTACTIC)


def naive_validate_functoriality(f) -> Verdict:
    """Identity and composition laws, checked on every composable pair."""
    cat = f.category
    for hid in cat.objects:
        if hid not in f.values:
            return Verdict.refuted({"check": "value missing", "id": hid}, LEVEL_SYNTACTIC)
    for m in cat.morphisms():
        if m not in f.arrows:
            return Verdict.refuted({"check": "arrow missing", "at": str(m)}, LEVEL_SYNTACTIC)
        t = f.arrows[m]
        if t.source != f.values[m.target] or t.target != f.values[m.source]:
            return Verdict.refuted(
                {"check": "arrow endpoints", "at": str(m)}, LEVEL_SYNTACTIC
            )
    verdicts = []
    for hid in cat.objects:
        t = f.arrows[cat.identity(hid)]
        ident = identity_morphism(f.values[hid])
        v = _same_as_composite(t, ident, ident)
        if v.is_refuted:
            return Verdict.refuted(
                {"check": "identity law", "id": hid, **(v.witness or {})}, v.level
            )
        if v != _SYNTACTICALLY_EQUAL:
            verdicts.append(v)
    for beta in cat.morphisms():
        t_beta = f.arrows[beta]
        for alpha in cat.into[beta.source]:
            direct = f.arrows[cat.compose(beta, alpha)]
            v = _same_as_composite(direct, t_beta, f.arrows[alpha])
            if v.is_refuted:
                return Verdict.refuted(
                    {"check": "composition law", "pair": (str(beta), str(alpha)),
                     **(v.witness or {})},
                    v.level,
                )
            if v != _SYNTACTICALLY_EQUAL:
                verdicts.append(v)
    return combine(verdicts)
