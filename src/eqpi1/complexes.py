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

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .groups import FiniteGroup, Subgroup, trivial_group
from .groupoids import (
    Gen,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    canonical_cyclic,
    check_respects_relations,
    cyclic_reduce_letters,
    free_reduce_letters,
    invert_letters,
    rotation_equal,
)
from .intlinalg import SparseMatrix, homology
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


class Edge(NamedTuple):
    label: str
    source: str
    target: str


class Face(NamedTuple):
    label: str
    word: Word


class Solid(NamedTuple):
    label: str
    chain: tuple  # ((coef, face_label), ...)


@dataclass(frozen=True)
class GCellComplex:
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
        by_dim = [set(self.vertices), eset, fset, {s.label for s in self.solids}]
        dim_of = self.dimension_of
        for g in self.group.elements():
            table = self.action.get(g)
            if table is None:
                raise InvalidComplex(f"action of element {g} is missing")
            if set(table) != labels:
                raise InvalidComplex(
                    f"action of element {g} is not defined on every cell"
                )
            for lab, (img, sign) in table.items():
                if img not in by_dim[dim_of(lab)]:
                    raise InvalidComplex(
                        f"action of {g} sends {lab!r} to {img!r} of a different dimension"
                    )
                if sign not in (1, -1) or (dim_of(lab) == 0 and sign != 1):
                    raise InvalidComplex(
                        f"action of {g} on {lab!r} has sign {sign}"
                    )

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
    def _dims(self):
        d = {v: 0 for v in self.vertices}
        d.update({e.label: 1 for e in self.edges})
        d.update({f.label: 2 for f in self.faces})
        d.update({s.label: 3 for s in self.solids})
        return d

    def dimension_of(self, label: str) -> int:
        try:
            return self._dims[label]
        except KeyError:
            raise InvalidComplex(f"no cell {label!r}") from None

    @cached_property
    def edge_by_label(self):
        return {e.label: e for e in self.edges}

    @cached_property
    def face_by_label(self):
        return {f.label: f for f in self.faces}

    @cached_property
    def solid_by_label(self):
        return {s.label: s for s in self.solids}

    def cell_counts(self) -> tuple:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.solids))

    def euler_characteristic(self) -> int:
        n0, n1, n2, n3 = self.cell_counts()
        return n0 - n1 + n2 - n3

    def act(self, g, label: str) -> tuple:
        return self.action[g][label]

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

    def translate_chain(self, g, chain, sign: int = 1) -> tuple:
        out = {}
        for coef, lab in chain:
            img, s = self.action[g][lab]
            out[img] = out.get(img, 0) + sign * s * coef
        return tuple(sorted((c, lab) for lab, c in out.items() if c != 0))


def _chain_normal(chain) -> tuple:
    out = {}
    for coef, lab in chain:
        out[lab] = out.get(lab, 0) + coef
    return tuple(sorted((c, lab) for lab, c in out.items() if c != 0))


def trivial_action(cells) -> dict:
    return {0: {lab: (lab, 1) for lab in cells}}


def validate_complex(x: GCellComplex) -> Verdict:
    """Mathematical well-formedness: face words are closed paths, the action
    is a sign-respecting permutation action commuting with all boundaries,
    setwise-fixed cells keep orientation, and the boundary of a boundary
    vanishes."""
    verdicts = []

    endpoint = {e.label: (e.source, e.target) for e in x.edges}
    for f in x.faces:
        cur = None
        first = None
        broken = None
        for lab, exp in f.word.letters:
            s, t = endpoint[lab] if exp == 1 else endpoint[lab][::-1]
            if cur is None:
                first = s
            elif cur != s:
                broken = (lab, exp)
                break
            cur = t
        if broken is not None:
            return Verdict.refuted(
                {"check": "face word composable", "face": f.label, "letter": broken},
                LEVEL_SYNTACTIC,
            )
        if f.word.letters and first != cur:
            return Verdict.refuted(
                {"check": "face word closed", "face": f.label, "ends": (first, cur)},
                LEVEL_SYNTACTIC,
            )
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

    for g in x.group.elements():
        for e_ in x.edges:
            img, sign = x.action[g][e_.label]
            ie = x.edge_by_label[img]
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
            translated = x.translate_word(g, f.word)
            want = translated.letters if sign == 1 else invert_letters(translated.letters)
            got = x.face_by_label[img].word.letters
            if not rotation_equal(got, want):
                return Verdict.refuted(
                    {"check": "action respects attaching words", "element": g,
                     "face": f.label},
                    LEVEL_SYNTACTIC,
                )
        for s in x.solids:
            img, sign = x.action[g][s.label]
            want = x.translate_chain(g, s.chain, sign)
            got = _chain_normal(x.solid_by_label[img].chain)
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

    d1, d2, d3 = boundary_matrices(x)
    if not (d1 * d2).is_zero():
        return Verdict.refuted({"check": "d1*d2 = 0"}, LEVEL_SYNTACTIC)
    if not (d2 * d3).is_zero():
        return Verdict.refuted({"check": "d2*d3 = 0"}, LEVEL_SYNTACTIC)
    verdicts.append(Verdict.verified(LEVEL_SYNTACTIC))

    return combine(verdicts)


def boundary_matrices(x: GCellComplex, max_dim: int = 3):
    """Sparse matrices of d1 .. d_max_dim; row and column indices follow
    the order of the cells in x."""
    v_idx = {v: i for i, v in enumerate(x.vertices)}
    e_idx = {e.label: i for i, e in enumerate(x.edges)}
    f_idx = {f.label: i for i, f in enumerate(x.faces)}
    mats = [
        SparseMatrix.from_terms(
            (((v_idx[e.target], 1), (v_idx[e.source], -1)) for e in x.edges),
            len(x.vertices),
        ),
        SparseMatrix.from_terms(
            (((e_idx[lab], exp) for lab, exp in f.word.letters) for f in x.faces),
            len(x.edges),
        ),
        SparseMatrix.from_terms(
            (((f_idx[lab], coef) for coef, lab in s.chain) for s in x.solids),
            len(x.faces),
        ),
    ]
    return mats[:max_dim]


def homology_of_complex(x: GCellComplex, max_dim: int = 3):
    """Integral homology H_0..H_max_dim; generating chains are computed
    when first read."""
    return homology(boundary_matrices(x, max_dim=max_dim))


def cell_names(x: GCellComplex, dim: int):
    if dim == 0:
        return list(x.vertices)
    if dim == 1:
        return [e.label for e in x.edges]
    if dim == 2:
        return [f.label for f in x.faces]
    return [s.label for s in x.solids]


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
    cells = list(vs) + [e.label for e in es] + [f.label for f in fs] + [
        s.label for s in ss
    ]
    return GCellComplex(trivial_group(), vs, es, fs, ss, trivial_action(cells))


def fundamental_groupoid(x: GCellComplex) -> PresentedGroupoid:
    """Presentation of the fundamental groupoid of the underlying space on
    all vertices: edges generate, attaching words are relators.  Solids and
    the group action play no part."""
    return PresentedGroupoid(
        x.vertices,
        tuple(Gen(e.label, e.source, e.target) for e in x.edges),
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
    edges = tuple(Edge(g.label, g.source, g.target) for g in p.generators)
    cells = list(p.objects) + [e.label for e in edges] + [f.label for f in faces]
    return GCellComplex(
        trivial_group(), p.objects, edges, tuple(faces), (), trivial_action(cells)
    )


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
        endpoint = {e.label: (e.source, e.target) for e in self.target.edges}
        for e in self.source.edges:
            w = self.edge_map.get(e.label)
            if w is None:
                return Verdict.refuted(
                    {"check": "edge image missing", "edge": e.label},
                    LEVEL_SYNTACTIC,
                )
            ends = _word_endpoints(endpoint, w)
            if ends is None:
                return Verdict.refuted(
                    {"check": "edge image composable", "edge": e.label},
                    LEVEL_SYNTACTIC,
                )
            want = (self.vertex_map[e.source], self.vertex_map[e.target])
            if ends != want:
                return Verdict.refuted(
                    {"check": "edge image endpoints", "edge": e.label,
                     "got": ends, "want": want},
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
        out = []
        for lab, exp in w.letters:
            img = self.edge_map[lab]
            out.extend(img.letters if exp == 1 else invert_letters(img.letters))
        at = self.vertex_map[w.at] if w.at is not None else None
        return Word(tuple(out), at=at)


def _word_endpoints(endpoint, w: Word):
    if not w.letters:
        return (w.at, w.at) if w.at is not None else None
    cur = None
    first = None
    for lab, exp in w.letters:
        if lab not in endpoint:
            return None
        s, t = endpoint[lab] if exp == 1 else endpoint[lab][::-1]
        if cur is None:
            first = s
        elif cur != s:
            return None
        cur = t
    return first, cur


def identity_cellular_map(x: GCellComplex) -> CellularMap:
    return CellularMap(
        x,
        x,
        {v: v for v in x.vertices},
        {e.label: Word.gen(e.label) for e in x.edges},
        {f.label: (f.label, 1) for f in x.faces},
    )


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
    canon = {}
    for f in tgt.faces:
        canon.setdefault(canonical_cyclic(f.word.letters), []).append(f)
    face_map = {}
    rigid = True
    for f, r in zip(src.faces, t.source.relators):
        image = t.apply(r)
        reduced = cyclic_reduce_letters(image.letters)
        if not reduced:
            face_map[f.label] = None
            continue
        hit = canon.get(canonical_cyclic(reduced))
        if not hit:
            rigid = False
            break
        tf = hit[0]
        if rotation_equal(cyclic_reduce_letters(tf.word.letters), reduced):
            face_map[f.label] = (tf.label, 1)
        else:
            face_map[f.label] = (tf.label, -1)
    return CellularMap(
        src,
        tgt,
        dict(t.object_map),
        {g.label: t.generator_map[g.label] for g in t.source.generators},
        face_map if rigid else None,
    )


def mapping_cylinder(f: CellularMap, prefix: str = "top."):
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

    top = prefix
    vert = "cyl."
    vertices = list(f.target.vertices) + [top + v for v in f.source.vertices]
    edges = list(f.target.edges)
    edges += [
        Edge(top + e.label, top + e.source, top + e.target) for e in f.source.edges
    ]
    edges += [
        Edge(vert + v, top + v, f.vertex_map[v]) for v in f.source.vertices
    ]
    faces = list(f.target.faces)
    faces += [
        Face(top + c.label, Word(
            tuple((top + lab, exp) for lab, exp in c.word.letters),
            at=(top + c.word.at) if c.word.at is not None else None,
        ))
        for c in f.source.faces
    ]
    for e in f.source.edges:
        boundary = (
            ((top + e.label, 1), (vert + e.target, 1))
            + invert_letters(f.edge_map[e.label].letters)
            + ((vert + e.source, -1),)
        )
        faces.append(Face(vert + e.label, Word(boundary)))
    solids = list(f.target.solids)
    for c in f.source.faces:
        chain = {(top + c.label): 1}
        entry = f.face_map[c.label] if f.face_map else None
        if entry is not None:
            lab, sign = entry
            chain[lab] = chain.get(lab, 0) - sign
        for lab, exp in c.word.letters:
            key = vert + lab
            chain[key] = chain.get(key, 0) - exp
        solids.append(
            Solid(vert + c.label, tuple(sorted(
                (coef, lab) for lab, coef in chain.items() if coef != 0
            )))
        )
    cells = (
        vertices
        + [e.label for e in edges]
        + [c.label for c in faces]
        + [s.label for s in solids]
    )
    cyl = GCellComplex(
        trivial_group(),
        tuple(vertices),
        tuple(edges),
        tuple(faces),
        tuple(solids),
        trivial_action(cells),
    )
    src_end = CellularMap(
        f.source,
        cyl,
        {v: top + v for v in f.source.vertices},
        {e.label: Word.gen(top + e.label) for e in f.source.edges},
        {c.label: (top + c.label, 1) for c in f.source.faces},
    )
    tgt_end = CellularMap(
        f.target,
        cyl,
        {v: v for v in f.target.vertices},
        {e.label: Word.gen(e.label) for e in f.target.edges},
        {c.label: (c.label, 1) for c in f.target.faces},
    )
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
        vertices, edges, faces, solids = [], [], [], []
        action = {g: {} for g in group.elements()}
        for i, p in enumerate(parts):
            pre = f"c{i}."
            vertices += [pre + v for v in p.vertices]
            edges += [Edge(pre + e.label, pre + e.source, pre + e.target) for e in p.edges]
            faces += [
                Face(pre + f.label, Word(
                    tuple((pre + lab, exp) for lab, exp in f.word.letters),
                    at=(pre + f.word.at) if f.word.at is not None else None,
                ))
                for f in p.faces
            ]
            solids += [
                Solid(pre + s.label, tuple((c, pre + lab) for c, lab in s.chain))
                for s in p.solids
            ]
            for g in group.elements():
                for lab, (img, sign) in p.action[g].items():
                    action[g][pre + lab] = (pre + img, sign)
        x = GCellComplex(
            group, tuple(vertices), tuple(edges), tuple(faces), tuple(solids), action
        )

    dims = x._dims
    uf = UnionFind()
    for lab in x.all_labels():
        uf.add(lab)
    queue = list(identifications)
    while queue:
        a, b = queue.pop()
        if a not in dims or b not in dims:
            raise IncompatibleIdentification(f"unknown cell in pair ({a!r}, {b!r})")
        if dims[a] != dims[b]:
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

    def rep_word(w: Word) -> Word:
        return Word(
            tuple((rep(lab), exp) for lab, exp in w.letters),
            at=rep(w.at) if w.at is not None else None,
        )

    vertices, seen = [], set()
    for v in x.vertices:
        r = rep(v)
        if r not in seen:
            seen.add(r)
            vertices.append(r)
    edges, emap = [], {}
    for e in x.edges:
        r = rep(e.label)
        cand = Edge(r, rep(e.source), rep(e.target))
        if r in emap:
            if emap[r] != cand[1:]:
                raise IncompatibleIdentification(
                    f"edge {r!r} would get two different endpoint pairs"
                )
        else:
            emap[r] = cand[1:]
            edges.append(cand)
    faces, fmap = [], {}
    for f in x.faces:
        r = rep(f.label)
        w = rep_word(f.word)
        if r in fmap:
            if not rotation_equal(fmap[r].letters, w.letters):
                raise IncompatibleIdentification(
                    f"face {r!r} would get two different attaching words"
                )
        else:
            fmap[r] = w
            faces.append(Face(r, w))
    solids, smap = [], {}
    for s in x.solids:
        r = rep(s.label)
        chain = _chain_normal((c, rep(lab)) for c, lab in s.chain)
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
