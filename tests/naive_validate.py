"""The former complex validation, kept as a test oracle.

`naive_validate_complex` checks the action on every element: the
homomorphism law on all |G|^2 pairs and each equivariance check on every
element.  `eqpi1.complexes.validate_complex` checks the action on a
generating set and scans every element only to name the witness of a
refutation; the tests require the same status, witness and level.
"""

from naive_open_face import naive_open_face

from eqpi1.complexes import _chain_normal
from eqpi1.groupoids import invert_letters, rotation_equal
from eqpi1.verdicts import LEVEL_SYNTACTIC, Verdict, combine


def _translate_chain(x, g, chain, sign=1) -> tuple:
    """The former GCellComplex.translate_chain: g applied to a chain of
    faces, times sign, in normal form."""
    table = x.action[g]
    return _chain_normal(
        (sign * table[lab][1] * coef, table[lab][0]) for coef, lab in chain
    )


def naive_validate_complex(x) -> Verdict:
    """Mathematical well-formedness: face words are closed paths, the action
    is a sign-respecting permutation action commuting with all boundaries,
    setwise-fixed cells keep orientation, and the boundary of a boundary
    vanishes."""
    verdicts = []

    open_face = naive_open_face(x)
    if open_face is not None:
        return Verdict.refuted(open_face, LEVEL_SYNTACTIC)
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    labels = list(x.all_labels())
    e = x.group.identity
    for lab in labels:
        if x.action[e][lab] != (lab, 1):
            return Verdict.refuted(
                {"check": "identity acts trivially", "cell": lab},
                LEVEL_SYNTACTIC,
            )
    for g in x.group.elements():
        images = [x.action[g][lab][0] for lab in labels]
        if len(set(images)) != len(labels):
            return Verdict.refuted(
                {"check": "action bijective", "element": g}, LEVEL_SYNTACTIC
            )
    for g in x.group.elements():
        for h in x.group.elements():
            gh = x.group.mul(g, h)
            for lab in labels:
                img_h, s_h = x.action[h][lab]
                img_gh, s_gh = x.action[g][img_h]
                if (img_gh, s_h * s_gh) != x.action[gh][lab]:
                    return Verdict.refuted(
                        {
                            "check": "action is a homomorphism",
                            "pair": (g, h),
                            "cell": lab,
                        },
                        LEVEL_SYNTACTIC,
                    )

    edge_by_label = {e.label: e for e in x.edges}
    face_by_label = {f.label: f for f in x.faces}
    solid_by_label = {s.label: s for s in x.solids}
    for g in x.group.elements():
        for e_ in x.edges:
            img, sign = x.action[g][e_.label]
            ie = edge_by_label[img]
            src = x.action[g][e_.source][0]
            tgt = x.action[g][e_.target][0]
            want = (src, tgt) if sign == 1 else (tgt, src)
            if (ie.source, ie.target) != want:
                return Verdict.refuted(
                    {"check": "action respects edge endpoints", "element": g,
                     "edge": e_.label},
                    LEVEL_SYNTACTIC,
                )
        for f in x.faces:
            img, sign = x.action[g][f.label]
            table = x.action[g]
            translated = tuple(
                (table[lab][0], exp * table[lab][1]) for lab, exp in f.word.letters
            )
            want = translated if sign == 1 else invert_letters(translated)
            got = face_by_label[img].word.letters
            if not rotation_equal(got, want):
                return Verdict.refuted(
                    {"check": "action respects attaching words", "element": g,
                     "face": f.label},
                    LEVEL_SYNTACTIC,
                )
        for s in x.solids:
            img, sign = x.action[g][s.label]
            want = _translate_chain(x, g, s.chain, sign)
            got = _chain_normal(solid_by_label[img].chain)
            if got != want:
                return Verdict.refuted(
                    {"check": "action respects solid boundaries", "element": g,
                     "solid": s.label},
                    LEVEL_SYNTACTIC,
                )
    for g in x.group.elements():
        for lab in labels:
            img, sign = x.action[g][lab]
            if img == lab and sign != 1:
                return Verdict.refuted(
                    {"check": "fixed cells keep orientation", "element": g,
                     "cell": lab},
                    LEVEL_SYNTACTIC,
                )
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    bad = x._chain_defect
    if bad is not None:
        return Verdict.refuted({"check": f"d{bad}*d{bad + 1} = 0"}, LEVEL_SYNTACTIC)
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    return combine(verdicts)
