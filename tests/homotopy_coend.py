"""The uncollapsed realization, kept as a test oracle.

`build_homotopy_coend` realizes a functor without merging copy objects
through the 0-skeleton coend: one vertex o<hid>.g<rep>.<object> per coset
copy of each object, a vertical edge v<mi>.g<rep>.<object> from each
object's copy downstairs to its image's copy upstairs, squares bordered
by the verticals, and the solids of `eqpi1.realize.build_space`.  Its
degree-3 homology agrees with that of `build_space`; lower degrees may
not.  The tests compare the two in degree 3 and pin its cell counts.
"""

from eqpi1.complexes import Edge, Face, GCellComplex, Solid, _chain_normal
from eqpi1.groupoids import Word, cyclic_reduce_letters, invert_letters
from eqpi1.realize import _label


def _copy_word(hid: int, rep: int, w: Word, point=None) -> Word:
    letters = tuple((_label(f"o{hid}", rep, lab), e) for lab, e in w.letters)
    at = None
    if not letters and point is not None:
        at = point
    return Word(letters, at=at)


def build_homotopy_coend(f, max_dim=3) -> GCellComplex:
    cat = f.category
    group = cat.group
    vertices, edges, faces, solids = [], [], [], []
    moves = {}  # label -> (subgroup id, prefix, coset rep, suffix)

    def emit(cells, cell, hid, prefix, r, suffix):
        moves[_label(prefix, r, suffix)] = (hid, prefix, r, suffix)
        cells.append(cell)

    for hid in cat.objects:
        for r in cat.transversal[hid]:
            for x in f.values[hid].objects:
                emit(vertices, _label(f"o{hid}", r, x), hid, f"o{hid}", r, x)
    for hid in cat.objects:
        val = f.values[hid]
        for r in cat.transversal[hid]:
            for gen in val.generators:
                edge = Edge(
                    _label(f"o{hid}", r, gen.label),
                    _label(f"o{hid}", r, gen.source),
                    _label(f"o{hid}", r, gen.target),
                )
                emit(edges, edge, hid, f"o{hid}", r, gen.label)
            for k, rel in enumerate(val.relators):
                at = _label(f"o{hid}", r, rel.at) if not rel.letters else None
                face = Face(_label(f"o{hid}", r, f"rel{k}"), _copy_word(hid, r, rel, at))
                emit(faces, face, hid, f"o{hid}", r, f"rel{k}")
    for mi, m in enumerate(cat.morphisms()):
        arrow = f.arrows[m]
        hid, kid = m.source, m.target
        down = f.values[kid]
        matches = {}  # relator k of down -> (j, sign), or None if it collapses
        for k, rel in enumerate(down.relators if max_dim >= 3 else ()):
            reduced = cyclic_reduce_letters(arrow.apply(rel).letters)
            match = f.values[hid].match_relator(reduced) if reduced else None
            if not reduced or match is not None:
                matches[k] = match
        for r in cat.transversal[hid]:
            ir = cat.apply(m, r)
            for x in down.objects:
                edge = Edge(
                    _label(f"v{mi}", r, x),
                    _label(f"o{kid}", ir, x),
                    _label(f"o{hid}", r, arrow.object_map[x]),
                )
                emit(edges, edge, hid, f"v{mi}", r, x)
            for gen in down.generators:
                img = arrow.generator_map[gen.label]
                word = (
                    ((_label(f"o{kid}", ir, gen.label), 1), (_label(f"v{mi}", r, gen.target), 1))
                    + invert_letters(_copy_word(hid, r, img).letters)
                    + ((_label(f"v{mi}", r, gen.source), -1),)
                )
                face = Face(_label(f"q{mi}", r, gen.label), Word(word))
                emit(faces, face, hid, f"q{mi}", r, gen.label)
            for k, match in matches.items():
                chain = [(1, _label(f"o{kid}", ir, f"rel{k}"))]
                if match is not None:
                    j, sign = match
                    chain.append((-sign, _label(f"o{hid}", r, f"rel{j}")))
                for lab, e in down.relators[k].letters:
                    chain.append((-e, _label(f"q{mi}", r, lab)))
                solid = Solid(_label(f"s{mi}", r, f"r{k}"), _chain_normal(chain))
                emit(solids, solid, hid, f"s{mi}", r, f"r{k}")
    # g sends the cell emitted at coset rep r to the one emitted at the
    # representative of g*r, with sign +1
    action = {
        g: {
            lab: (_label(prefix, cat.coset_rep[hid][group.mul(g, r)], suffix), 1)
            for lab, (hid, prefix, r, suffix) in moves.items()
        }
        for g in group.elements()
    }
    return GCellComplex(
        group, tuple(vertices), tuple(edges), tuple(faces), tuple(solids), action
    )
