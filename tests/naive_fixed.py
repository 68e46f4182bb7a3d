"""The former fixed-subcomplex construction, kept as a test oracle.

`naive_fixed_subcomplex` asks the action table of every element of the
subgroup about every cell.  `eqpi1.complexes.fixed_subcomplex` reads the
stabilizer masks of the cell index instead; the tests require the same
complex, or the same InvalidComplex message.
"""

from eqpi1.complexes import InvalidComplex, _plain_complex


def naive_fixed_subcomplex(x, h):
    """Cells fixed (with orientation) by every element of h, as a complex
    without group action.  Raises InvalidComplex when the fixed cells do not
    close up under boundaries."""

    def fixed(lab):
        return all(x.action[g][lab] == (lab, 1) for g in h.elements)

    vs = tuple(v for v in x.vertices if fixed(v))
    es = tuple(e for e in x.edges if fixed(e.label))
    fs = tuple(f for f in x.faces if fixed(f.label))
    ss = tuple(s for s in x.solids if fixed(s.label))
    vset = set(vs)
    eset = {e.label for e in es}
    fset = {f.label for f in fs}
    for e in es:
        if e.source not in vset or e.target not in vset:
            raise InvalidComplex(
                f"fixed cells are not a subcomplex: edge {e.label!r} has an unfixed endpoint"
            )
    for f in fs:
        if not f.word.letters and f.word.at not in vset:
            raise InvalidComplex(
                f"fixed cells are not a subcomplex: face {f.label!r} anchored off the fixed part"
            )
        for lab, _ in f.word.letters:
            if lab not in eset:
                raise InvalidComplex(
                    f"fixed cells are not a subcomplex: face {f.label!r} uses unfixed edge {lab!r}"
                )
    for s in ss:
        for _, lab in s.chain:
            if lab not in fset:
                raise InvalidComplex(
                    f"fixed cells are not a subcomplex: solid {s.label!r} uses unfixed face {lab!r}"
                )
    return _plain_complex(vs, es, fs, ss)
