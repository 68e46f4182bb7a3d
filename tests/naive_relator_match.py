"""The former relator match of the realization builder, kept as a test
oracle.

It rescans and re-canonicalizes every relator of the target on each call.
`eqpi1.groupoids.PresentedGroupoid.match_relator` answers the same
question from a cached canonical-key index, and the tests require both to
agree.
"""

from naive_tietze import naive_canonical_cyclic

from eqpi1.groupoids import cyclic_reduce_letters, rotation_equal


def naive_match_relator(target, image_letters):
    """(kind, data): ('zero', None) when the image collapses, ('face', (j, sign))
    when it lands on relator j up to rotation/inversion, ('none', reduced)."""
    reduced = cyclic_reduce_letters(image_letters)
    if not reduced:
        return "zero", None
    for j, rel in enumerate(target.relators):
        rl = cyclic_reduce_letters(rel.letters)
        if naive_canonical_cyclic(rl) != naive_canonical_cyclic(reduced):
            continue
        if rotation_equal(rl, reduced):
            return "face", (j, 1)
        return "face", (j, -1)
    return "none", reduced
