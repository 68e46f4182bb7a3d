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
groupoids) works with these conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from operator import eq, mul
from typing import NamedTuple

from .groups import FiniteGroup, Subgroup, trivial_group
from .groupoids import Gen, PresentedGroupoid, Word, invert_letters, rotation_equal
from .intlinalg import NotAChainComplex, SparseMatrix, unchecked_homology
from .verdicts import LEVEL_SYNTACTIC, Verdict


class InvalidComplex(ValueError):
    pass


Edge = Gen  # an edge of a complex is a generator of its fundamental groupoid


class Face(NamedTuple):
    label: str
    word: Word


class Solid(NamedTuple):
    label: str
    chain: tuple  # ((coef, face_label), ...)


@dataclass(frozen=True, init=False)
class GCellComplex:
    """A cell complex with a group action.  Every complex holds its integer
    cell index (_index), made once, with the complex, by the one check of
    _checked_index: every cell at a position, in the order vertices,
    edges, faces, solids; per cell its boundary terms over those
    positions; per element the image position and sign of each position;
    per cell the bitmask of the elements that fix it with sign +1.

    The one construction path is over positions (from_positions), which
    the realization builder takes.  GCellComplex(group, vertices, edges,
    faces, solids, action), with action element -> {label: (label, sign)},
    is its front end for documents and tests: it translates the labels
    into positions for the same check and keeps the dict as the action.
    Otherwise action is a view of the index, built when first read.
    Neither may be changed afterwards."""

    group: FiniteGroup
    vertices: tuple
    edges: tuple
    faces: tuple
    solids: tuple

    def __init__(self, group, vertices, edges, faces, solids, action: dict):
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(group=group, vertices=vertices, edges=edges, faces=faces,
                             solids=solids, action=action)
        self.__dict__["_index"] = _dict_index(self, action)

    @classmethod
    def from_positions(cls, group, vertices, edges, faces, solids, terms, anchor,
                       perm, sign, listed) -> "GCellComplex":
        """The complex of the given cells, whose boundaries are terms and
        anchor, and on which element g acts by perm[g] and sign[g], all
        over positions as in CellIndex; listed holds the positions in the
        order the action view lists them."""
        x = cls.__new__(cls)
        x.__dict__.update(group=group, vertices=vertices, edges=edges, faces=faces,
                          solids=solids, _listed=listed)
        x.__dict__["_index"] = _checked_index(
            group, list(x.all_labels()), x.cell_counts(), terms, anchor, zip(perm, sign)
        )
        return x

    @cached_property
    def action(self) -> dict:
        """element -> {label: (label, sign)}, read off the index."""
        labels, perm, sign = self._index.labels, self._index.perm, self._index.sign
        return {
            g: {labels[i]: (labels[p[i]], s[i]) for i in self._listed}
            for g, p, s in zip(self.group.elements(), perm, sign)
        }

    def all_labels(self):
        for v in self.vertices:
            yield v
        for e in self.edges:
            yield e.label
        for f in self.faces:
            yield f.label
        for s in self.solids:
            yield s.label

    def cell_counts(self) -> tuple:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.solids))

    def euler_characteristic(self) -> int:
        n0, n1, n2, n3 = self.cell_counts()
        return n0 - n1 + n2 - n3

    @cached_property
    def _boundaries(self) -> list:
        """Sparse matrices of d1, d2, d3, built once per complex from the
        boundary terms of the cell index; callers must not mutate them."""
        terms, start = self._index.terms, self._index.start
        return [  # the rows of d_k are the cells of dimension k - 1, from position lo
            SparseMatrix.from_terms(([(j - lo, c) for j, c in t] for t in terms[hi:top]), hi - lo)
            for lo, hi, top in zip(start, start[1:], start[2:])
        ]

    @cached_property
    def _open_face(self):
        """The witness of the first face whose attaching word is not a
        closed edge path, or None; walked once per complex over the
        positions of the cell index, which has already refused letters
        that name no edge or have an exponent other than +-1.  An empty
        word stands at its anchor and is closed."""
        idx = self._index
        labels, terms = idx.labels, idx.terms
        _, _, f0, s0, _ = idx.start
        for i in range(f0, s0):
            if not terms[i]:
                continue
            first = here = None
            for j, exp in terms[i]:
                (head, _), (tail, _) = terms[j]  # an edge's terms: (target, 1), (source, -1)
                if exp == -1:
                    head, tail = tail, head
                if here is None:
                    first = tail
                elif here != tail:
                    return {"check": "face word composable", "face": labels[i],
                            "letter": (labels[j], exp)}
                here = head
            if first != here:
                return {"check": "face word closed", "face": labels[i],
                        "ends": (labels[first], labels[here])}
        return None

    @cached_property
    def _chain_defect(self):
        """The least degree i with d_i * d_{i+1} != 0, or None; checked once
        per complex.  d1 * d2 is multiplied only when a face word is open:
        d1 of a closed edge path telescopes to zero."""
        d = self._boundaries
        for i in (1, 2) if self._open_face else (2,):
            if not (d[i - 1] * d[i]).is_zero():
                return i
        return None


class CellIndex(NamedTuple):
    """The cells of a complex at dense integer positions, in all_labels()
    order, their boundaries over those positions, and the action on them.
    It is what _checked_index returns, and what every check, boundary
    matrix, fixed set and induced functor reads."""

    labels: list  # position -> label
    start: tuple  # the first position of each dimension 0..3, then the cell count
    # position -> boundary terms (position, coef): () for a vertex,
    # (target, 1), (source, -1) for an edge, the attaching word's letters
    # in order for a face, the chain's terms in order for a solid
    terms: list
    anchor: dict  # face position -> vertex position, for an empty face word
    perm: list  # element -> image position of each position
    sign: list  # element -> sign of the image of each position
    stab: list  # position -> bitmask of the elements fixing the cell with sign +1
    flipped: tuple | None  # the first (element, position) fixed with sign -1


def _checked_index(group, labels, counts, terms, anchor, rows, order=None) -> CellIndex:
    """The one check of every complex's cells and action, over positions;
    returns the index.  labels names the positions; labels past the
    last cell name what a term or image refers to that is no cell, and
    are refused where they are used.  rows yields the (perm, sign) rows
    of the elements in order; it is read one element at a time, after
    the cells are checked.

    The cells are refused at the first duplicate label, then at the first
    edge whose terms are not (target, 1), (source, -1) over vertices, then
    face by face (an empty word anchored off the vertices, then letter by
    letter: a position off the edges, an exponent other than +-1), then at
    the first solid term off the faces.  Every element must send every
    cell to a cell of the same dimension with sign +-1 (+1 on vertices).
    A refused element's entries are named in the order order(g) gives,
    position order by default, so the first offending entry names the
    refusal."""
    n = sum(counts)
    if len(set(labels[:n])) != n:
        seen = set()
        for lab in labels:
            if lab in seen:
                raise InvalidComplex(f"duplicate cell label {lab!r}")
            seen.add(lab)
    start = (0, *accumulate(counts))
    _, e0, f0, s0, _ = start
    for i in range(e0, f0):
        (b, one), (a, minus) = terms[i]
        if not (0 <= a < e0 and 0 <= b < e0 and one == 1 and minus == -1):
            raise InvalidComplex(f"edge {labels[i]!r} has a missing endpoint")
    for i in range(f0, s0):
        if not terms[i] and not 0 <= anchor.get(i, -1) < e0:
            raise InvalidComplex(f"face {labels[i]!r} has an empty word without a vertex anchor")
        for j, exp in terms[i]:
            if not e0 <= j < f0:
                raise InvalidComplex(f"face {labels[i]!r} uses unknown edge {labels[j]!r}")
            if exp != 1 and exp != -1:
                raise InvalidComplex(f"face {labels[i]!r} has a letter with exponent {exp}")
    for i in range(s0, n):
        for j, _ in terms[i]:
            if not f0 <= j < s0:
                raise InvalidComplex(f"solid {labels[i]!r} uses unknown face {labels[j]!r}")
    # the positions of each dimension that has cells
    spans = [(lo, hi) for lo, hi in zip(start, start[1:]) if lo < hi]
    perm, sign, stab, flipped = [], [], [0] * n, None
    ident = list(range(n))
    for g in group.elements():
        row, signs = next(rows, (None, None))
        if row is None:
            raise InvalidComplex(f"action of element {g} is missing")
        if len(row) != n or len(signs) != n:
            raise InvalidComplex(f"action of element {g} is not defined on every cell")
        kept = signs.count(1) + signs.count(-1) == n and signs[:e0].count(1) == e0
        for lo, hi in spans:
            if not kept:
                break
            kept = lo <= min(row[lo:hi]) and max(row[lo:hi]) < hi
        if not kept:  # some entry is refused: name the first
            dims = [d for d, (lo, hi) in enumerate(spans) for _ in range(lo, hi)]
            for i in order(g) if order else range(n):
                j, s = row[i], signs[i]
                if not 0 <= j < n or dims[j] != dims[i]:
                    img = labels[j] if 0 <= j < len(labels) else j
                    raise InvalidComplex(
                        f"action of {g} sends {labels[i]!r} to {img!r} of a different dimension"
                    )
                if s not in (1, -1) or (i < e0 and s != 1):
                    raise InvalidComplex(f"action of {g} on {labels[i]!r} has sign {s}")
        perm.append(row)
        sign.append(signs)
        bit = 1 << g
        if row == ident and signs.count(1) == n:  # it fixes every cell
            stab = [s | bit for s in stab]
            continue
        for i in compress(range(n), map(eq, row, range(n))):
            if signs[i] == 1:
                stab[i] |= bit
            elif flipped is None:
                flipped = (g, i)
    return CellIndex(labels[:n], start, terms, anchor, perm, sign, stab, flipped)


def _dict_index(x: GCellComplex, action: dict) -> CellIndex:
    """The dict front end: the labels of x and of action translated into
    positions, then _checked_index.  A label that names no cell gets a
    position past the cells.  An element's table is translated when the
    check reaches it: it is refused as missing, or as not defined on
    every cell unless it lists exactly the cells, and its entries are
    named in table order."""
    labels = list(x.all_labels())
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}

    def at(lab):
        if lab not in pos:
            pos[lab] = len(labels)
            labels.append(lab)
        return pos[lab]

    terms, anchor, letter = [()] * len(x.vertices), {}, {}  # letter: (edge, +-1) -> (i, +-1)
    for i, e in enumerate(x.edges, len(terms)):
        terms.append(((at(e.target), 1), (at(e.source), -1)))
        letter[e.label, 1], letter[e.label, -1] = (i, 1), (i, -1)
    for i, f in enumerate(x.faces, len(terms)):
        if not f.word.letters:
            anchor[i] = pos.get(f.word.at, n)
        word = tuple(map(letter.get, f.word.letters))
        if None in word:  # a letter that is not an edge with exponent +-1
            word = tuple((at(lab), exp) for lab, exp in f.word.letters)
        terms.append(word)
    terms += [tuple((at(lab), coef) for coef, lab in s.chain) for s in x.solids]
    cells = labels[:n]

    def rows():
        for g in x.group.elements():
            table = action.get(g)
            if table is None:
                return
            entries = list(map(table.get, cells)) if len(table) == n else [None]
            if None in entries:
                raise InvalidComplex(f"action of element {g} is not defined on every cell")
            images = [img for img, _ in entries]
            row = list(map(pos.get, images))
            yield list(map(at, images)) if None in row else row, [s for _, s in entries]

    return _checked_index(
        x.group, labels, x.cell_counts(), terms, anchor, rows(),
        order=lambda g: map(pos.__getitem__, action[g]),
    )


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


def _action_refutation(x: GCellComplex, gs):
    """The first failing action check as a refuted Verdict, or None.  The
    action is checked to be bijective, a homomorphism (g*h for g in gs and
    every h) and to respect edge endpoints, attaching words and solid
    boundaries, each for the elements g in gs; fixed cells keep
    orientation is checked for every element, since it is not closed under
    composition.  Every check reads the cell index and its boundary terms."""
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

    _, e0, f0, s0, _ = idx.start
    ends = [(a, b) for (b, _), (a, _) in idx.terms[e0:f0]]
    words = idx.terms[f0:s0]
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
    if x._open_face is not None:
        return Verdict.refuted(x._open_face, LEVEL_SYNTACTIC)
    e_bit = 1 << x.group.identity
    for i, mask in enumerate(x._index.stab):
        if not mask & e_bit:
            return Verdict.refuted(
                {"check": "identity acts trivially", "cell": x._index.labels[i]},
                LEVEL_SYNTACTIC,
            )
    if _action_refutation(x, x.group.generators) is not None:
        return _action_refutation(x, x.group.elements())
    bad = x._chain_defect
    if bad is not None:
        return Verdict.refuted({"check": f"d{bad}*d{bad + 1} = 0"}, LEVEL_SYNTACTIC)
    return Verdict.verified(LEVEL_SYNTACTIC)


def boundary_matrices(x: GCellComplex, max_dim: int = 3):
    """Sparse matrices of d1 .. d_max_dim; row and column indices follow
    the order of the cells in x.  The matrices are built once per complex
    and shared, so they must not be mutated."""
    return x._boundaries[:max_dim]


def homology_of_complex(x: GCellComplex, max_dim: int = 3):
    """The integral homology groups H_0..H_max_dim.  Raises
    NotAChainComplex when d_i * d_{i+1} != 0 for some i < max_dim."""
    bad = x._chain_defect
    if bad is not None and bad < max_dim:
        raise NotAChainComplex(bad, "d.d != 0")
    return unchecked_homology(boundary_matrices(x, max_dim=max_dim))


def fixed_cells(x: GCellComplex, h: Subgroup) -> tuple:
    """The keep-mask of h: per position of the cell index, is the cell
    fixed (with orientation) by every element of h, that is, does its
    stabilizer mask contain h?  Subgroups with equal masks have the same
    fixed subcomplex."""
    hmask = 0
    for g in h.elements:
        hmask |= 1 << g
    return tuple([mask & hmask == hmask for mask in x._index.stab])


def fixed_parts(x: GCellComplex, keep) -> tuple:
    """The cells of x at the positions keep selects, as (vertices, edges,
    faces, solids).  Raises InvalidComplex when they do not close up under
    boundaries, naming the first kept cell in index order whose boundary
    reaches a cell that is not kept."""
    if all(keep):  # x itself is closed
        return x.vertices, x.edges, x.faces, x.solids
    idx = x._index
    labels, terms, anchor, start = idx.labels, idx.terms, idx.anchor, idx.start
    _, e0, f0, s0, n = start
    for i in compress(range(e0, n), keep[e0:]):
        outside = [j for j, _ in terms[i] if not keep[j]]
        if i in anchor and not keep[anchor[i]]:
            problem = "anchored off the fixed part"
        elif not outside:
            continue
        elif i < f0:
            problem = "has an unfixed endpoint"
        else:
            problem = f"uses unfixed {'edge' if i < s0 else 'face'} {labels[outside[0]]!r}"
        kind = "edge" if i < f0 else "face" if i < s0 else "solid"
        raise InvalidComplex(f"fixed cells are not a subcomplex: {kind} {labels[i]!r} {problem}")
    return tuple(
        tuple(compress(cells, keep[lo:hi]))
        for cells, lo, hi in zip((x.vertices, x.edges, x.faces, x.solids), start, start[1:])
    )


def fixed_subcomplex(x: GCellComplex, h: Subgroup) -> GCellComplex:
    """Cells fixed (with orientation) by every element of h, as a complex
    without group action.  Raises InvalidComplex when the fixed cells do not
    close up under boundaries."""
    return _plain_complex(*fixed_parts(x, fixed_cells(x, h)))


def fundamental_groupoid(x: GCellComplex) -> PresentedGroupoid:
    """Presentation of the fundamental groupoid of the underlying space on
    all vertices: edges generate, attaching words are relators.  Solids and
    the group action play no part."""
    return PresentedGroupoid(
        x.vertices,
        x.edges,
        tuple(f.word for f in x.faces),
    )

