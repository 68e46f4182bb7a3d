"""Finite cell complexes with a group action, in dimensions 0 through 3.

Cells are named by string labels (unique across all dimensions).  Edges
carry source and target vertices.  A 2-cell is attached along a closed
edge word; a 3-cell is attached along an integer chain of 2-cells.  The
group acts by permuting cells with an orientation sign (+1 or -1); the
rigidity convention is that a cell mapped to itself must keep its
orientation.

Boundary conventions:
  d1(edge) = target - source
  d2(face) = exponent sum of its attaching word
  d3(solid) = its chain

Everything downstream (homology, fixed subcomplexes, fundamental
groupoids, mapping cylinders, gluing) works with these conventions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress
from operator import eq, mul
from typing import NamedTuple

from .groups import FiniteGroup, Subgroup, trivial_group
from .groupoids import (
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    check_respects_relations,
    cyclic_reduce_letters,
    expand_letters,
    invert_letters,
    rotation_equal,
    walk_word,
)
from .intlinalg import NotAChainComplex, SparseMatrix, unchecked_homology
from .verdicts import LEVEL_SYNTACTIC, Verdict, combine


class InvalidComplex(ValueError):
    pass


class IncompatibleIdentification(ValueError):
    pass


class MissingFaceMap(ValueError):
    pass


class RelationsRefuted(ValueError):
    def __init__(self, witness):
        super().__init__(f"morphism does not respect relations: {witness}")
        self.witness = witness


Edge = Gen  # an edge of a complex is a generator of its fundamental groupoid


class Face(NamedTuple):
    label: str
    word: Word


class Solid(NamedTuple):
    label: str
    chain: tuple  # ((coef, face_label), ...)


@dataclass(frozen=True)
class GCellComplex:
    """A cell complex with a group action.  Construction checks the cells
    and builds the integer cell index (_index), once per complex: every
    cell at a position, in the order vertices, edges, faces, solids; per
    element the image position and sign of each position; per cell the
    bitmask of the elements that fix it with sign +1.  Building the index
    refuses an action that misses an element or a cell, changes a cell's
    dimension, or has a sign other than +-1 (+1 on vertices).  The action
    dict must not be changed afterwards."""

    group: FiniteGroup
    vertices: tuple
    edges: tuple
    faces: tuple
    solids: tuple
    action: dict = field(compare=False)  # element -> {label: (label, sign)}

    def __post_init__(self):
        labels = set()
        for lab in self.all_labels():
            if lab in labels:
                raise InvalidComplex(f"duplicate cell label {lab!r}")
            labels.add(lab)
        vset = set(self.vertices)
        for e in self.edges:
            if e.source not in vset or e.target not in vset:
                raise InvalidComplex(f"edge {e.label!r} has a missing endpoint")
        eset = {e.label for e in self.edges}
        for f in self.faces:
            if not f.word.letters:
                if f.word.at not in vset:
                    raise InvalidComplex(
                        f"face {f.label!r} has an empty word without a vertex anchor"
                    )
            for lab, exp in f.word.letters:
                if lab not in eset:
                    raise InvalidComplex(
                        f"face {f.label!r} uses unknown edge {lab!r}"
                    )
                if exp not in (1, -1):
                    raise InvalidComplex(
                        f"face {f.label!r} has a letter with exponent {exp}"
                    )
        fset = {f.label for f in self.faces}
        for s in self.solids:
            for coef, lab in s.chain:
                if lab not in fset:
                    raise InvalidComplex(
                        f"solid {s.label!r} uses unknown face {lab!r}"
                    )
        self._index  # builds the cell index, which checks the action

    def all_labels(self):
        for v in self.vertices:
            yield v
        for e in self.edges:
            yield e.label
        for f in self.faces:
            yield f.label
        for s in self.solids:
            yield s.label

    @cached_property
    def _index(self) -> "CellIndex":
        """The integer cell index, built and checked once per complex."""
        return _cell_index(self)

    def dimension_of(self, label: str) -> int:
        idx = self._index
        try:
            return bisect_right(idx.start, idx.pos[label]) - 1
        except KeyError:
            raise InvalidComplex(f"no cell {label!r}") from None

    @cached_property
    def edge_by_label(self):
        return {e.label: e for e in self.edges}

    @cached_property
    def face_by_label(self):
        return {f.label: f for f in self.faces}

    def cell_counts(self) -> tuple:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.solids))

    def euler_characteristic(self) -> int:
        n0, n1, n2, n3 = self.cell_counts()
        return n0 - n1 + n2 - n3

    def translate_word(self, g, word: Word) -> Word:
        """Apply g to an edge word letter by letter."""
        out = []
        for lab, exp in word.letters:
            img, sign = self.action[g][lab]
            out.append((img, exp * sign))
        at = None
        if word.at is not None:
            at = self.action[g][word.at][0]
        return Word(tuple(out), at=at)

    @cached_property
    def _boundaries(self) -> list:
        """Sparse matrices of d1, d2, d3, built once per complex; callers
        must not mutate them."""
        pos, start = self._index.pos, self._index.start
        n1, n2 = start[1], start[2]
        return [
            SparseMatrix.from_terms(
                (((pos[e.target], 1), (pos[e.source], -1)) for e in self.edges),
                n1,
            ),
            SparseMatrix.from_terms(
                (((pos[lab] - n1, exp) for lab, exp in f.word.letters) for f in self.faces),
                n2 - n1,
            ),
            SparseMatrix.from_terms(
                (((pos[lab] - n2, coef) for coef, lab in s.chain) for s in self.solids),
                start[3] - n2,
            ),
        ]

    @cached_property
    def _chain_defect(self):
        """The least degree i with d_i * d_{i+1} != 0, or None; checked once
        per complex."""
        d = self._boundaries
        for i in (1, 2):
            if not (d[i - 1] * d[i]).is_zero():
                return i
        return None


class CellIndex(NamedTuple):
    """The cells of a complex at dense integer positions, in all_labels()
    order, and the action on those positions."""

    labels: list  # position -> label
    start: tuple  # the first position of each dimension 0..3, then the cell count
    pos: dict  # label -> position
    perm: list  # element -> image position of each position
    sign: list  # element -> sign of the image of each position
    stab: list  # position -> bitmask of the elements fixing the cell with sign +1
    flipped: tuple | None  # the first (element, position) fixed with sign -1


def _cell_index(x: GCellComplex) -> CellIndex:
    """Check that every element acts on every cell, by a cell of the same
    dimension with sign +-1 (+1 on vertices), and index the action.  An
    element's entries are checked in action-table order, so the first
    offending entry names the refusal."""
    labels = list(x.all_labels())
    n = len(labels)
    pos = dict(zip(labels, range(n)))
    counts = x.cell_counts()
    start = (0, *accumulate(counts))
    dims = []  # position -> dimension
    for d, c in enumerate(counts):
        dims += [d] * c
    perm, sign, stab, flipped = [], [], [0] * n, None
    for g in x.group.elements():
        table = x.action.get(g)
        if table is None:
            raise InvalidComplex(f"action of element {g} is missing")
        entries = list(map(table.get, labels)) if len(table) == n else [None]
        if None in entries:
            raise InvalidComplex(f"action of element {g} is not defined on every cell")
        images = [img for img, _ in entries]
        signs = [s for _, s in entries]
        row = list(map(pos.get, images))
        if (
            None in row
            or list(map(dims.__getitem__, row)) != dims
            or signs.count(1) + signs.count(-1) != n
            or signs[: start[1]].count(1) != start[1]
        ):  # some entry is refused: name the first
            for lab, (img, s) in table.items():
                d = dims[pos[lab]]
                if img not in pos or dims[pos[img]] != d:
                    raise InvalidComplex(
                        f"action of {g} sends {lab!r} to {img!r} of a different dimension"
                    )
                if s not in (1, -1) or (d == 0 and s != 1):
                    raise InvalidComplex(f"action of {g} on {lab!r} has sign {s}")
        perm.append(row)
        sign.append(signs)
        bit = 1 << g
        for i in compress(range(n), map(eq, row, range(n))):
            if signs[i] == 1:
                stab[i] |= bit
            elif flipped is None:
                flipped = (g, i)
    return CellIndex(labels, start, pos, perm, sign, stab, flipped)


def _chain_normal(chain) -> tuple:
    """Sum the terms (coef, label) per label, drop zeros, sort."""
    out = {}
    for coef, lab in chain:
        out[lab] = out.get(lab, 0) + coef
    return tuple(sorted((c, lab) for lab, c in out.items() if c != 0))


def trivial_action(cells) -> dict:
    return {0: {lab: (lab, 1) for lab in cells}}


def _plain_complex(vertices, edges, faces, solids) -> GCellComplex:
    """A complex over the trivial group."""
    cells = list(vertices) + [c.label for c in (*edges, *faces, *solids)]
    return GCellComplex(
        trivial_group(), tuple(vertices), tuple(edges), tuple(faces),
        tuple(solids), trivial_action(cells),
    )


def _relabel_word(w: Word, name) -> Word:
    return Word(
        tuple((name(lab), exp) for lab, exp in w.letters),
        at=name(w.at) if w.at is not None else None,
    )


def _relabel_cells(x: GCellComplex, name) -> tuple:
    """x's vertices, edges, faces and solids, as lists, with every label
    passed through name."""
    return (
        [name(v) for v in x.vertices],
        [Edge(name(e.label), name(e.source), name(e.target)) for e in x.edges],
        [Face(name(f.label), _relabel_word(f.word, name)) for f in x.faces],
        [
            Solid(name(s.label), tuple((c, name(lab)) for c, lab in s.chain))
            for s in x.solids
        ],
    )


def _action_refutation(x: GCellComplex, gs):
    """The first failing action check as a refuted Verdict, or None.  The
    action is checked to be bijective, a homomorphism (g*h for g in gs and
    every h) and to respect edge endpoints, attaching words and solid
    boundaries, each for the elements g in gs; fixed cells keep
    orientation is checked for every element, since it is not closed under
    composition.  Every check reads the cell index."""
    idx = x._index
    labels, perm, sign = idx.labels, idx.perm, idx.sign
    for g in gs:
        if len(set(perm[g])) != len(labels):
            return Verdict.refuted(
                {"check": "action bijective", "element": g}, LEVEL_SYNTACTIC
            )
    for g in gs:
        pg, sg = perm[g], sign[g]
        row = x.group.table[g]
        for h in x.group.elements():
            ph, sh = perm[h], sign[h]
            p_gh, s_gh = perm[row[h]], sign[row[h]]
            moved = list(map(pg.__getitem__, ph))
            signs = list(map(mul, map(sg.__getitem__, ph), sh))
            if moved != p_gh or signs != s_gh:
                i = next(
                    i for i in range(len(labels))
                    if (moved[i], signs[i]) != (p_gh[i], s_gh[i])
                )
                return Verdict.refuted(
                    {"check": "action is a homomorphism", "pair": (g, h),
                     "cell": labels[i]},
                    LEVEL_SYNTACTIC,
                )

    pos, (_, e0, f0, s0, _) = idx.pos, idx.start
    ends = [(pos[e.source], pos[e.target]) for e in x.edges]
    words = [tuple((pos[lab], exp) for lab, exp in f.word.letters) for f in x.faces]
    chains = [dict(col) for col in x._boundaries[2].data]  # face offset -> coef
    for g in gs:
        pg, sg = perm[g], sign[g]
        for i, (a, b) in enumerate(ends, e0):
            want = (pg[a], pg[b]) if sg[i] == 1 else (pg[b], pg[a])
            if ends[pg[i] - e0] != want:
                return Verdict.refuted(
                    {"check": "action respects edge endpoints", "element": g,
                     "edge": labels[i]},
                    LEVEL_SYNTACTIC,
                )
        for i, word in enumerate(words, f0):
            want = tuple((pg[j], exp * sg[j]) for j, exp in word)
            if sg[i] != 1:
                want = invert_letters(want)
            got = words[pg[i] - f0]
            if got != want and not rotation_equal(got, want):
                return Verdict.refuted(
                    {"check": "action respects attaching words", "element": g,
                     "face": labels[i]},
                    LEVEL_SYNTACTIC,
                )
        for i, chain in enumerate(chains, s0):
            want = {
                pg[f0 + k] - f0: sg[i] * sg[f0 + k] * coef
                for k, coef in chain.items()
            }
            if chains[pg[i] - s0] != want:
                return Verdict.refuted(
                    {"check": "action respects solid boundaries", "element": g,
                     "solid": labels[i]},
                    LEVEL_SYNTACTIC,
                )
    if idx.flipped is not None:
        g, i = idx.flipped
        return Verdict.refuted(
            {"check": "fixed cells keep orientation", "element": g,
             "cell": labels[i]},
            LEVEL_SYNTACTIC,
        )
    return None


def validate_complex(x: GCellComplex) -> Verdict:
    """Mathematical well-formedness: face words are closed paths, the action
    is a sign-respecting permutation action commuting with all boundaries,
    setwise-fixed cells keep orientation, and the boundary of a boundary
    vanishes.

    The action is checked on the greedy generating set S of the group
    (tom Dieck, Transformation Groups, II.1): with the identity acting
    trivially, rho(s*h) = rho(s)rho(h) for every s in S and every h makes
    rho a homomorphism, by induction on word length, and bijectivity and
    the edge, face and solid checks are closed under composition, so they
    extend from S to every element.  That costs |S|*|G|*cells instead of
    |G|^2*cells.  When the check on S fails, every element is checked
    again in the same order, so a refutation names the first failing
    element or pair of the full scan.

    The checks read the cell index: rho(s*h) = rho(s)rho(h) compares the
    composed permutation and sign lists with those of s*h, and the
    identity and orientation checks read the stabilizer masks and the
    first cell fixed with sign -1 found when the index was built."""
    verdicts = []

    for f in x.faces:
        first, last, broken = walk_word(x.edge_by_label, f.word)
        if broken is not None:
            return Verdict.refuted(
                {"check": "face word composable", "face": f.label, "letter": broken},
                LEVEL_SYNTACTIC,
            )
        if first != last:
            return Verdict.refuted(
                {"check": "face word closed", "face": f.label, "ends": (first, last)},
                LEVEL_SYNTACTIC,
            )
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    e_bit = 1 << x.group.identity
    for i, mask in enumerate(x._index.stab):
        if not mask & e_bit:
            return Verdict.refuted(
                {"check": "identity acts trivially", "cell": x._index.labels[i]},
                LEVEL_SYNTACTIC,
            )
    if _action_refutation(x, x.group.generators) is not None:
        return _action_refutation(x, x.group.elements())
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    bad = x._chain_defect
    if bad is not None:
        return Verdict.refuted({"check": f"d{bad}*d{bad + 1} = 0"}, LEVEL_SYNTACTIC)
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    return combine(verdicts)


def boundary_matrices(x: GCellComplex, max_dim: int = 3):
    """Sparse matrices of d1 .. d_max_dim; row and column indices follow
    the order of the cells in x.  The matrices are built once per complex
    and shared, so they must not be mutated."""
    return x._boundaries[:max_dim]


def homology_of_complex(x: GCellComplex, max_dim: int = 3):
    """Integral homology H_0..H_max_dim; generating chains are computed
    when first read.  Raises NotAChainComplex when d_i * d_{i+1} != 0 for
    some i < max_dim."""
    bad = x._chain_defect
    if bad is not None and bad < max_dim:
        raise NotAChainComplex(bad, "d.d != 0")
    return unchecked_homology(boundary_matrices(x, max_dim=max_dim))


def cell_names(x: GCellComplex, dim: int):
    start = x._index.start
    return x._index.labels[start[dim]:start[dim + 1]]


def describe_homology(x: GCellComplex, max_dim: int = 3):
    """[(degree, HomologyGroup, [generator descriptions])]."""
    out = []
    for i, hg in enumerate(homology_of_complex(x, max_dim=max_dim)):
        names = cell_names(x, i)
        gens = [_chain_string(vec, names) for vec in hg.free_generators]
        tors = [
            (d, _chain_string(vec, names)) for vec, d in hg.torsion_generators
        ]
        out.append((i, hg, gens, tors))
    return out


def _chain_string(vec, names) -> str:
    parts = []
    for c, name in zip(vec, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+ {name}" if parts else name)
        elif c == -1:
            parts.append(f"- {name}" if parts else f"-{name}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign} {mag}*{name}" if parts else f"{c}*{name}")
    return " ".join(parts) if parts else "0"


def fixed_subcomplex(x: GCellComplex, h: Subgroup) -> GCellComplex:
    """Cells fixed (with orientation) by every element of h, as a complex
    without group action.  Raises InvalidComplex when the fixed cells do not
    close up under boundaries.  The fixed cells are those whose stabilizer
    in the cell index contains h."""
    idx = x._index
    hmask = 0
    for g in h.elements:
        hmask |= 1 << g
    keep = [mask & hmask == hmask for mask in idx.stab]
    start = idx.start
    vs, es, fs, ss = (
        tuple(compress(cells, keep[lo:hi]))
        for cells, lo, hi in zip(
            (x.vertices, x.edges, x.faces, x.solids), start, start[1:]
        )
    )
    if not all(keep):  # when every cell is fixed, x itself is closed
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


def fundamental_groupoid(x: GCellComplex) -> PresentedGroupoid:
    """Presentation of the fundamental groupoid of the underlying space on
    all vertices: edges generate, attaching words are relators.  Solids and
    the group action play no part."""
    return PresentedGroupoid(
        x.vertices,
        x.edges,
        tuple(f.word for f in x.faces),
    )


def presentation_complex(p: PresentedGroupoid) -> GCellComplex:
    """The inverse construction: one vertex per object, one edge per
    generator, one face per relator."""
    used = set(p.objects) | {g.label for g in p.generators}
    faces = []
    for i, r in enumerate(p.relators):
        lab = f"rel{i}"
        while lab in used:
            lab += "_"
        used.add(lab)
        faces.append(Face(lab, r))
    return _plain_complex(p.objects, p.generators, faces, ())


@dataclass
class CellularMap:
    """A map of complexes defined on the 0-, 1-, and 2-skeleton.

    vertex_map sends vertices to vertices, edge_map sends each edge to an
    edge word between the image vertices, and face_map (when present) sends
    each face to (face label, sign) or None for a face whose image word
    collapses.  face_map is what makes 3-dimensional constructions
    (cylinders) possible.
    """

    source: GCellComplex
    target: GCellComplex
    vertex_map: dict
    edge_map: dict
    face_map: dict | None = None

    def validate(self) -> Verdict:
        tgt_v = set(self.target.vertices)
        for v in self.source.vertices:
            if self.vertex_map.get(v) not in tgt_v:
                return Verdict.refuted(
                    {"check": "vertex image", "vertex": v}, LEVEL_SYNTACTIC
                )
        for e in self.source.edges:
            w = self.edge_map.get(e.label)
            if w is None:
                return Verdict.refuted(
                    {"check": "edge image missing", "edge": e.label},
                    LEVEL_SYNTACTIC,
                )
            first, last, broken = walk_word(self.target.edge_by_label, w)
            if broken is not None or first is None:
                return Verdict.refuted(
                    {"check": "edge image composable", "edge": e.label},
                    LEVEL_SYNTACTIC,
                )
            want = (self.vertex_map[e.source], self.vertex_map[e.target])
            if (first, last) != want:
                return Verdict.refuted(
                    {"check": "edge image endpoints", "edge": e.label,
                     "got": (first, last), "want": want},
                    LEVEL_SYNTACTIC,
                )
        if self.face_map is None:
            if self.source.faces:
                return Verdict.undecided(
                    "no face data: map is defined only on the 1-skeleton"
                )
            return Verdict.verified(LEVEL_SYNTACTIC)
        for f in self.source.faces:
            image_word = self.push_word(f.word)
            reduced = cyclic_reduce_letters(image_word.letters)
            entry = self.face_map.get(f.label)
            if entry is None:
                if reduced:
                    return Verdict.refuted(
                        {"check": "collapsed face has nontrivial image word",
                         "face": f.label},
                        LEVEL_SYNTACTIC,
                    )
                continue
            lab, sign = entry
            tf = self.target.face_by_label.get(lab)
            if tf is None or sign not in (1, -1):
                return Verdict.refuted(
                    {"check": "face image", "face": f.label}, LEVEL_SYNTACTIC
                )
            want = tf.word.letters if sign == 1 else invert_letters(tf.word.letters)
            if not rotation_equal(cyclic_reduce_letters(want), reduced):
                return Verdict.refuted(
                    {"check": "face image word", "face": f.label,
                     "got": reduced, "want": want},
                    LEVEL_SYNTACTIC,
                )
        return Verdict.verified(LEVEL_SYNTACTIC)

    def push_word(self, w: Word) -> Word:
        at = self.vertex_map[w.at] if w.at is not None else None
        return Word(expand_letters(w.letters, self.edge_map), at=at)


def _inclusion(x: GCellComplex, into: GCellComplex, name) -> CellularMap:
    """The map sending each cell of x to the cell of into labelled name(label)."""
    return CellularMap(
        x,
        into,
        {v: name(v) for v in x.vertices},
        {e.label: Word.gen(name(e.label)) for e in x.edges},
        {c.label: (name(c.label), 1) for c in x.faces},
    )


def identity_cellular_map(x: GCellComplex) -> CellularMap:
    return _inclusion(x, x, lambda lab: lab)


def realize_morphism(t: GroupoidMorphism) -> CellularMap:
    """Turn a groupoid morphism into a cellular map of presentation
    complexes.  The face data exists exactly when the morphism is rigid:
    every relator image either collapses or lands on a relator up to
    rotation and inversion.  A morphism whose relator image is refutably
    nontrivial raises RelationsRefuted."""
    check = check_respects_relations(t)
    if check.is_refuted:
        raise RelationsRefuted(check.witness)
    src = presentation_complex(t.source)
    tgt = presentation_complex(t.target)
    face_map = {}
    rigid = True
    for f, r in zip(src.faces, t.source.relators):
        reduced = cyclic_reduce_letters(t.apply(r).letters)
        if not reduced:
            face_map[f.label] = None
            continue
        match = t.target.match_relator(reduced)
        if match is None:
            rigid = False
            break
        j, sign = match
        face_map[f.label] = (tgt.faces[j].label, sign)
    return CellularMap(
        src,
        tgt,
        dict(t.object_map),
        {g.label: t.generator_map[g.label] for g in t.source.generators},
        face_map if rigid else None,
    )


def mapping_cylinder(f: CellularMap):
    """The mapping cylinder of a cellular map between complexes without
    symmetry: the target, a relabeled copy of the source on top, vertical
    edges, one square per source edge, one solid per source face.

    Returns (cylinder, source inclusion, target inclusion).
    """
    if f.source.group.order != 1 or f.target.group.order != 1:
        raise InvalidComplex(
            "mapping cylinders need complexes without group action; "
            "pass quotiented or fixed-point complexes"
        )
    if f.source.solids:
        raise InvalidComplex("mapping cylinder of a source with 3-cells needs 4-cells")
    if f.source.faces and f.face_map is None:
        raise MissingFaceMap(
            "cylinder over a source with faces needs face data on the map"
        )
    bad = f.validate()
    if bad.is_refuted:
        raise InvalidComplex(f"cellular map invalid: {bad.witness}")

    top = "top."
    vert = "cyl."
    top_v, top_e, top_f, _ = _relabel_cells(f.source, top.__add__)
    vertices = list(f.target.vertices) + top_v
    edges = list(f.target.edges) + top_e
    edges += [
        Edge(vert + v, top + v, f.vertex_map[v]) for v in f.source.vertices
    ]
    faces = list(f.target.faces) + top_f
    for e in f.source.edges:
        boundary = (
            ((top + e.label, 1), (vert + e.target, 1))
            + invert_letters(f.edge_map[e.label].letters)
            + ((vert + e.source, -1),)
        )
        faces.append(Face(vert + e.label, Word(boundary)))
    solids = list(f.target.solids)
    for c in f.source.faces:
        chain = [(1, top + c.label)]
        entry = f.face_map[c.label] if f.face_map else None
        if entry is not None:
            lab, sign = entry
            chain.append((-sign, lab))
        chain += [(-exp, vert + lab) for lab, exp in c.word.letters]
        solids.append(Solid(vert + c.label, _chain_normal(chain)))
    cyl = _plain_complex(vertices, edges, faces, solids)
    src_end = _inclusion(f.source, cyl, top.__add__)
    tgt_end = _inclusion(f.target, cyl, lambda lab: lab)
    return cyl, src_end, tgt_end


class UnionFind:
    """Disjoint sets of hashable, ordered keys; the smaller root wins a union."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # the smaller label wins, so representatives are deterministic
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def glue(parts, identifications) -> GCellComplex:
    """Quotient one or more complexes (over the same group) by identifying
    same-dimension cells.  With several parts, labels are namespaced
    "c0.", "c1.", ...  Identified cells are given as (label, label) pairs in
    the namespaced labels; the identification is closed under the group
    action.  Geometric incompatibility (mismatched dimensions or boundaries)
    raises IncompatibleIdentification."""
    if not parts:
        raise ValueError("nothing to glue")
    group = parts[0].group
    for p in parts[1:]:
        if p.group is not group and p.group != group:
            raise IncompatibleIdentification("parts have different groups")

    if len(parts) == 1:
        x = parts[0]
    else:
        cells = ([], [], [], [])
        action = {g: {} for g in group.elements()}
        for i, p in enumerate(parts):
            pre = f"c{i}."
            for into, part in zip(cells, _relabel_cells(p, pre.__add__)):
                into += part
            for g in group.elements():
                for lab, (img, sign) in p.action[g].items():
                    action[g][pre + lab] = (pre + img, sign)
        x = GCellComplex(group, *map(tuple, cells), action)

    pos = x._index.pos
    uf = UnionFind()
    for lab in x.all_labels():
        uf.add(lab)
    queue = list(identifications)
    while queue:
        a, b = queue.pop()
        if a not in pos or b not in pos:
            raise IncompatibleIdentification(f"unknown cell in pair ({a!r}, {b!r})")
        if x.dimension_of(a) != x.dimension_of(b):
            raise IncompatibleIdentification(
                f"cells {a!r} and {b!r} have different dimensions"
            )
        if uf.union(a, b):
            for g in x.group.elements():
                ia, sa = x.action[g][a]
                ib, sb = x.action[g][b]
                if sa != sb:
                    raise IncompatibleIdentification(
                        f"orientation conflict gluing {a!r} and {b!r} under element {g}"
                    )
                queue.append((ia, ib))

    rep = uf.find
    rep_vertices, rep_edges, rep_faces, rep_solids = _relabel_cells(x, rep)

    vertices, seen = [], set()
    for r in rep_vertices:
        if r not in seen:
            seen.add(r)
            vertices.append(r)
    edges, emap = [], {}
    for cand in rep_edges:
        r = cand.label
        if r in emap:
            if emap[r] != cand[1:]:
                raise IncompatibleIdentification(
                    f"edge {r!r} would get two different endpoint pairs"
                )
        else:
            emap[r] = cand[1:]
            edges.append(cand)
    faces, fmap = [], {}
    for r, w in rep_faces:
        if r in fmap:
            if not rotation_equal(fmap[r].letters, w.letters):
                raise IncompatibleIdentification(
                    f"face {r!r} would get two different attaching words"
                )
        else:
            fmap[r] = w
            faces.append(Face(r, w))
    solids, smap = [], {}
    for r, chain in rep_solids:
        chain = _chain_normal(chain)
        if r in smap:
            if smap[r] != chain:
                raise IncompatibleIdentification(
                    f"solid {r!r} would get two different boundary chains"
                )
        else:
            smap[r] = chain
            solids.append(Solid(r, chain))
    action = {}
    for g in x.group.elements():
        table = {}
        for lab in x.all_labels():
            r = rep(lab)
            img, sign = x.action[g][lab]
            entry = (rep(img), sign)
            if r in table and table[r] != entry:
                raise IncompatibleIdentification(
                    f"action of {g} is inconsistent on glued cell {r!r}"
                )
            table[r] = entry
        action[g] = table
    glued = GCellComplex(
        x.group, tuple(vertices), tuple(edges), tuple(faces), tuple(solids), action
    )
    check = validate_complex(glued)
    if check.is_refuted:
        raise IncompatibleIdentification(f"glued complex invalid: {check.witness}")
    return glued


def mapping_torus(f: CellularMap) -> GCellComplex:
    """Mapping torus of a cellular self-map: the cylinder with its top glued
    back onto the bottom."""
    if f.source is not f.target and f.source != f.target:
        raise InvalidComplex("mapping torus needs a self-map")
    cyl, src_end, _ = mapping_cylinder(f)
    pairs = [(src_end.vertex_map[v], v) for v in f.source.vertices]
    pairs += [
        (src_end.edge_map[e.label].letters[0][0], e.label) for e in f.source.edges
    ]
    pairs += [
        (src_end.face_map[c.label][0], c.label) for c in f.source.faces
    ]
    return glue([cyl], pairs)
