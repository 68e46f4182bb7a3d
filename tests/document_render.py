"""The canonical document renderer and semantic document equality, kept
for the tests.

No command writes a document back as text; the round-trip properties do:
`parse_document(render_document(doc))` must equal `doc` under
`documents_equal`.
"""

from itertools import groupby

from eqpi1.complexes import GCellComplex
from eqpi1.documents import InputDocument
from eqpi1.functors import OrbFunctor
from eqpi1.groupoids import PresentedGroupoid, Word
from eqpi1.groups import enumerate_subgroups


def render_word(w: Word) -> str:
    if not w.letters:
        return f"@ {w.at}"
    parts = []
    for (lab, e), run in groupby(w.letters):
        exp = e * len(list(run))
        parts.append(lab if exp == 1 else f"{lab}^{exp}")
    return " ".join(parts)


def render_document(doc: InputDocument) -> str:
    out = []
    if doc.group_declared:
        out.append("group table {")
        for g in doc.group.elements():
            row = " ".join(str(doc.group.mul(g, h)) for h in doc.group.elements())
            out.append(f"  row {row}")
        out.append("}")
        out.append("")
    if doc.family is not None:
        subs = enumerate_subgroups(doc.group)
        if len(doc.family) == len(subs):
            out.append("family all")
        elif len(doc.family) == 1 and doc.family.members[0].order == 1:
            out.append("family trivial")
        else:
            ids = sorted(subs.index(s) for s in doc.family.members)
            out.append("family { " + " ".join(str(i) for i in ids) + " }")
        out.append("")
    for kind, name in doc.order:
        if kind == "groupoid":
            out.extend(_render_groupoid(name, doc.groupoids[name]))
        elif kind == "functor":
            out.extend(_render_functor(name, doc.functors[name]))
        else:
            out.extend(_render_complex(name, doc.complexes[name]))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _render_groupoid(name, g: PresentedGroupoid):
    out = [f"groupoid {name} {{"]
    if g.objects:
        out.append("  objects " + " ".join(g.objects))
    for gen in g.generators:
        out.append(f"  gen {gen.label} {gen.source} {gen.target}")
    for r in g.relators:
        out.append("  rel " + render_word(r))
    out.append("}")
    return out


def _render_functor(name, f: OrbFunctor):
    out = [f"functor {name} {{"]
    cat = f.category
    names = f.value_names
    if names is None:
        raise ValueError(
            f"functor {name!r} was not parsed from a document; "
            "export its JSON mirror instead"
        )
    for hid in cat.objects:
        out.append(f"  value {hid} {names[hid]}")
    for m in cat.morphisms():
        if cat.is_identity(m):
            continue
        t = f.arrows[m]
        out.append(f"  arrow {m.source} {m.target} {m.representative} {{")
        for x in t.source.objects:
            out.append(f"    obj {x} {t.object_map[x]}")
        for gen in t.source.generators:
            out.append(f"    gen {gen.label} {render_word(t.generator_map[gen.label])}")
        out.append("  }")
    out.append("}")
    return out


def _render_complex(name, x: GCellComplex):
    out = [f"complex {name} {{"]
    if x.vertices:
        out.append("  vertices " + " ".join(x.vertices))
    for e in x.edges:
        out.append(f"  edge {e.label} {e.source} {e.target}")
    for f in x.faces:
        out.append("  face " + f.label + " " + render_word(f.word))
    for s in x.solids:
        terms = " ".join(f"{c} {lab}" for c, lab in s.chain)
        out.append(f"  solid {s.label} {{ {terms} }}")
    for g in x.group.elements():
        if g == x.group.identity:
            continue
        moves = []
        for lab in x.all_labels():
            img, sign = x.action[g][lab]
            if (img, sign) == (lab, 1):
                continue
            moves.append(f"{lab} -> {img}" + ("" if sign == 1 else "^-1"))
        out.append(f"  action {g} {{ " + "  ".join(moves) + " }")
    out.append("}")
    return out


def complexes_equal(a: GCellComplex, b: GCellComplex) -> bool:
    if a != b:
        return False
    return all(a.action[g] == b.action[g] for g in a.group.elements())


def functors_equal(a: OrbFunctor, b: OrbFunctor) -> bool:
    if a.category.group != b.category.group:
        return False
    if a.category.family.members != b.category.family.members:
        return False
    return a.values == b.values and a.arrows == b.arrows


def documents_equal(a: InputDocument, b: InputDocument) -> bool:
    """Semantic equality, used for round-trip checks."""
    if a.group != b.group:
        return False
    fa = a.family.members if a.family else None
    fb = b.family.members if b.family else None
    if fa != fb:
        return False
    if a.groupoids != b.groupoids:
        return False
    if set(a.functors) != set(b.functors) or set(a.complexes) != set(b.complexes):
        return False
    for name in a.functors:
        if not functors_equal(a.functors[name], b.functors[name]):
            return False
    for name in a.complexes:
        if not complexes_equal(a.complexes[name], b.complexes[name]):
            return False
    return True
