"""The former Tietze simplification, kept as a test oracle.

Every elimination round it cyclically reduces, re-keys and deduplicates
every relator, re-sorts them all to pick the victim, and rewrites every
relator and every substitution entry through a dict of all generators.
That is quadratic in the presentation size, but independent of the
incremental bookkeeping in `eqpi1.groupoids.simplify_presentation`, which
the tests require to return exactly the same presentation and
substitution.  It keys relators with its own copy of the former
`canonical_cyclic`, so the library's key is checked, not reused.
"""

from eqpi1.groupoids import (
    GroupPresentation,
    cyclic_reduce_letters,
    invert_letters,
    substitute_letters,
)


def naive_canonical_cyclic(letters) -> tuple:
    """The former relator key: the least of all 2n rotations of the
    cyclically reduced word and of its inverse."""
    w = cyclic_reduce_letters(letters)
    if not w:
        return ()
    candidates = []
    for base in (w, invert_letters(w)):
        for i in range(len(base)):
            candidates.append(base[i:] + base[:i])
    return min(candidates)


def naive_simplify_presentation(pres: GroupPresentation):
    """Deterministic Tietze simplification.

    Repeatedly: cyclically reduce and deduplicate relators, then eliminate a
    generator that occurs exactly once in some relator (shortest relator
    first; among candidates the latest-declared generator is eliminated, so
    early generators survive as the preferred basis).  Returns the reduced
    presentation and a substitution expressing every original generator as a
    word in the surviving ones.
    """
    gens = list(pres.generators)
    order = {g: i for i, g in enumerate(pres.generators)}
    relators = [cyclic_reduce_letters(r) for r in pres.relators]
    subst = {g: ((g, 1),) for g in pres.generators}

    while True:
        relators = [r for r in (cyclic_reduce_letters(r) for r in relators) if r]
        seen = set()
        dedup = []
        for r in relators:
            key = naive_canonical_cyclic(r)
            if key and key not in seen:
                seen.add(key)
                dedup.append(r)
        relators = dedup

        victim = None
        for r in sorted(relators, key=lambda r: (len(r), r)):
            counts = {}
            for lab, _ in r:
                counts[lab] = counts.get(lab, 0) + 1
            once = [lab for lab, c in counts.items() if c == 1]
            if once:
                lab = max(once, key=order.__getitem__)
                victim = (r, lab)
                break
        if victim is None:
            break

        r, lab = victim
        pos = next(i for i, (l, _) in enumerate(r) if l == lab)
        rot = r[pos + 1:] + r[:pos]  # r rotated so the victim letter is last
        exp = r[pos][1]
        # r = 1 solves to lab = rot^-1 (exp +1) or lab = rot (exp -1)
        replacement = invert_letters(rot) if exp == 1 else rot
        repl_map = {lab: replacement}
        step = {
            g: substitute_letters(w, {**{x: ((x, 1),) for x in gens}, **repl_map})
            for g, w in subst.items()
        }
        subst = step
        relators = [
            substitute_letters(
                rr, {**{x: ((x, 1),) for x in gens}, **repl_map}
            )
            for rr in relators
            if rr is not r
        ]
        gens.remove(lab)

    return GroupPresentation(tuple(gens), tuple(relators)), subst
