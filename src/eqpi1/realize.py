"""Realizing a groupoid-valued orbit functor as a cell complex with action.

The construction runs in stages:

  1. the 0-skeleton: classes of pairs (coset of H, object of value(H))
     under the relations generated by the orbit morphisms.  The relation
     is G-invariant, so a morphism whose pairs at the identity coset are
     already joined is skipped, and any other is joined at every coset;
  2. a diagnostic comparing value(H) objects with H-fixed classes;
  3. one edge and one relator face per cell of each coset copy of each
     value groupoid, attached to the classes;
  4. one square per orbit morphism, coset, and generator, filling the
     square that compares a generator's copy upstairs with its image word
     downstairs;
  5. one solid per orbit morphism, coset, and relator, whenever the image
     of the relator collapses or lands on a relator (rigid case).

One builder writes every cell of stages 3 to 5 once, labelled
"prefix.g<rep>.suffix", in blocks: per subgroup and per orbit morphism,
the same row of cells at every coset representative.  A counting pass
(plan_cells) first gives the cells per dimension, so each cell is
written straight at its position in the complex, with its boundary
terms over positions (GCellComplex.from_positions).  The group permutes
copies by left translation of cosets and all cells keep orientation, so
g sends the row at rep to the row at the representative of g*rep, cell
for cell, with sign +1; merged vertices move as the 0-skeleton says.

The final verification builds the induced fixed-point functor of the
realized complex and compares it with the input functor through the
canonical comparison maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .functors import NaturalTransformation, OrbFunctor, _induced_functor
from .groupoids import (
    Word,
    cyclic_reduce_letters,
    equivalence_report,
    GroupoidMorphism,
    invert_letters,
    strict_isomorphism_report,
)
from .complexes import Edge, Face, GCellComplex, Solid, _chain_normal
from .verdicts import Verdict, combine


STEP2_BIJECTION = "Bijection"
STEP2_QUOTIENT = "ProperQuotient"
STEP2_DEFICIT = "Deficit"


@dataclass(frozen=True)
class StepTwoReport:
    status: str
    witness: tuple | None = None

    def __str__(self):
        if self.witness is None:
            return self.status
        return f"{self.status} witness={self.witness}"


@dataclass(frozen=True)
class CoendResult:
    classes: tuple  # labels in order
    members: dict = field(compare=False)  # label -> ordered member triples
    point_class: dict = field(compare=False)  # (hid, coset rep, object) -> label
    action: dict = field(compare=False)  # element -> {label: label}

    def class_of(self, hid: int, rep: int, obj: str) -> str:
        return self.point_class[(hid, rep, obj)]


def zero_skeleton_coend(f: OrbFunctor) -> CoendResult:
    """Classes of pairs (coset of H, object of value(H)) under the relation
    joining (m(rH), x) with (rH, value(m) x) for each orbit morphism
    m: G/H -> G/K, each coset rH and each object x of value(K).

    The relation is G-invariant: m is a G-map, m(rH) = r m(H), so the pairs
    m adds at rH are the r-translates of those it adds at the identity
    coset.  Each morphism is either joined at every coset, which adds a
    whole orbit of pairs, or skipped, so the partition stays G-invariant
    throughout.  A morphism whose identity-coset pairs are already joined
    therefore has every translate joined too and is skipped.  The classes
    are those of the full relation, whatever laws f satisfies; they are
    ordered by their least member (subgroup id, coset rep, object index).

    The points are numbered in that order, so the least number of a class
    is its least member; the classes are kept in a parent list whose roots
    are those least numbers.  The morphisms are walked hom-set by hom-set,
    and the pairs of object numbers an arrow joins are listed once in
    each hom-set that shares it."""
    cat = f.category
    group = cat.group
    table = group.table
    points, start = [], {}  # start[hid][g]: the first point at the coset gH
    for hid in sorted(cat.objects):
        objects = f.values[hid].objects
        first = {}
        for r in cat.transversal[hid]:
            first[r] = len(points)
            points += [(hid, r, x) for x in objects]
        start[hid] = [first[r] for r in cat.coset_rep[hid]]
    parent = list(range(len(points)))

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]  # path halving
        return p

    unit = group.identity
    for (hid, kid), ms in groupby(cat.morphisms(), itemgetter(0, 1)):
        to_k, to_h = start[kid], start[hid]
        base = cat.coset_rep[hid][unit]
        times_base, h0 = table[base], to_h[base]
        objects, number = f.values[kid].objects, f.values[hid]._obj_index
        pairs_of = {}  # id(arrow) -> (object number in value(K), its image's in value(H))
        for m in ms:
            arrow = f.arrows[m]  # value(K) -> value(H)
            pairs = pairs_of.get(id(arrow))
            if pairs is None:
                images = arrow.object_map
                pairs = pairs_of[id(arrow)] = [
                    (i, number[images[x]]) for i, x in enumerate(objects)
                ]
            s = m.representative
            k0 = to_k[times_base[s]]
            for i, j in pairs:
                if find(k0 + i) != find(h0 + j):
                    break
            else:
                continue  # joined at the identity coset, so at every coset
            for r in cat.transversal[hid]:
                k, h = to_k[table[r][s]], to_h[r]
                for i, j in pairs:
                    ri, rj = find(k + i), find(h + j)
                    parent[max(ri, rj)] = min(ri, rj)  # the least point is the root
    grouped, root_of = {}, []  # root -> the triples of its class, in point order
    for p, trip in enumerate(points):
        root = find(p)
        root_of.append(root)
        grouped.setdefault(root, []).append(trip)
    classes = tuple(f"x{i}" for i in range(len(grouped)))
    label = dict(zip(grouped, classes))
    members = {lab: tuple(mem) for lab, mem in zip(classes, grouped.values())}
    point_class = {trip: lab for lab, mem in members.items() for trip in mem}
    # g moves a class's least point p, at the coset rH, to the point of the
    # same object at the coset (g r)H
    firsts = [(p, start[points[p][0]], points[p][1]) for p in grouped]
    action = {}
    for g in group.elements():
        row = table[g]
        action[g] = {label[p]: label[root_of[at[row[r]] + p - at[r]]] for p, at, r in firsts}
    return CoendResult(classes, members, point_class, action)


def verify_step2(f: OrbFunctor, coend: CoendResult | None = None) -> dict:
    """Per subgroup: do the value's objects match the fixed classes of the
    0-skeleton one for one?  A repeated class is a ProperQuotient (first
    offending object pair as witness); an unhit fixed class is a Deficit."""
    if coend is None:
        coend = zero_skeleton_coend(f)
    cat = f.category
    out = {}
    for hid in cat.objects:
        sub = cat.subgroups[hid]
        val = f.values[hid]
        base_rep = cat.coset_rep[hid][cat.group.identity]
        hit = {}
        witness = None
        for x in val.objects:
            c = coend.point_class[(hid, base_rep, x)]
            if c in hit:
                witness = (hit[c], x)
                break
            hit[c] = x
        if witness is not None:
            out[hid] = StepTwoReport(STEP2_QUOTIENT, witness)
            continue
        fixed = [
            c
            for c in coend.classes
            if all(coend.action[h][c] == c for h in sub.elements)
        ]
        unhit = [c for c in fixed if c not in hit]
        if unhit:
            out[hid] = StepTwoReport(STEP2_DEFICIT, (unhit[0],))
        else:
            out[hid] = StepTwoReport(STEP2_BIJECTION)
    return out


@dataclass
class RealizationResult:
    functor: OrbFunctor
    coend: CoendResult
    space: GCellComplex
    nonrigid: tuple  # (morphism string, relator index) pairs without solids
    step2: dict


def _label(prefix: str, rep: int, suffix: str) -> str:
    return f"{prefix}.g{rep}.{suffix}"


class CellPlan(NamedTuple):
    counts: tuple  # the cells of the realization per dimension 0..3
    # (index, morphism, {relator k downstairs: (j, sign) or None}) of each
    # morphism that gets squares or solids
    emitting: list
    nonrigid: tuple  # (morphism string, relator index) pairs without solids


def plan_cells(f: OrbFunctor, max_dim: int, coend: CoendResult) -> CellPlan:
    """The builder's counting pass: the cells _build writes per dimension,
    and which relators get solids.  Per subgroup H there are |G/H| copies
    of each generator (edges) and relator (faces) of value(H); per orbit
    morphism m: G/H -> G/K, |G/H| squares per generator of value(K) and,
    at max_dim 3, |G/H| solids per relator of value(K) whose image
    collapses or matches a relator of value(H) (its matches entry is that
    relator and its sign, or None when it collapses)."""
    cat = f.category
    n_edges = n_faces = n_solids = 0
    for hid in cat.objects:
        copies = len(cat.transversal[hid])
        n_edges += copies * len(f.values[hid].generators)
        n_faces += copies * len(f.values[hid].relators)
    emitting, nonrigid = [], []
    for mi, m in enumerate(cat.morphisms()):
        down = f.values[m.target]
        matches = {}
        for k, rel in enumerate(down.relators if max_dim >= 3 else ()):
            reduced = cyclic_reduce_letters(f.arrows[m].apply(rel).letters)
            match = f.values[m.source].match_relator(reduced) if reduced else None
            if reduced and match is None:
                nonrigid.append((str(m), k))
            else:
                matches[k] = match
        if down.generators or matches:
            copies = len(cat.transversal[m.source])
            n_faces += copies * len(down.generators)
            n_solids += copies * len(matches)
            emitting.append((mi, m, matches))
    counts = (len(coend.classes), n_edges, n_faces, n_solids)
    return CellPlan(counts, emitting, tuple(nonrigid))


def _build(f: OrbFunctor, max_dim: int, coend: CoendResult):
    """Stages 3 to 5 over the 0-skeleton coend: the copy cells attach to
    the classes of their objects, and each square runs from a generator's
    copy downstairs back along its image word upstairs.  Each cell is
    written at its position, from the offsets of the counting pass,
    together with its boundary terms over positions.  Returns the complex
    and the nonrigid pairs."""
    cat = f.category
    group = cat.group
    plan = plan_cells(f, max_dim, coend)
    n0, n1, n2, _ = plan.counts
    e0, f0, s0 = n0, n0 + n1, n0 + n1 + n2
    vertex = {lab: i for i, lab in enumerate(coend.classes)}
    point = {trip: vertex[lab] for trip, lab in coend.point_class.items()}
    edges, faces, solids = [], [], []
    edge_terms, face_terms, solid_terms, anchor = [], [], [], {}
    blocks = []  # (hid, the positions written at each coset rep, in transversal order)
    # (hid, rep) -> the letters of its copy edges, (generator, +-1) ->
    # ((label, +-1), (position, +-1)), and its relator copies (label, position)
    copies = {}

    for hid in cat.objects:
        val = f.values[hid]
        if not val.generators and not val.relators:
            continue  # no copies, as on a point
        rows = []
        for r in cat.transversal[hid]:
            row, letter, rels = [], {}, []
            at_r = _label(f"o{hid}", r, "")  # a copy's label: at_r, then its name
            for gen in val.generators:
                a, b = point[hid, r, gen.source], point[hid, r, gen.target]
                lab, i = at_r + gen.label, e0 + len(edges)
                letter[gen.label, 1] = ((lab, 1), (i, 1))
                letter[gen.label, -1] = ((lab, -1), (i, -1))
                row.append(i)
                edges.append(Edge(lab, coend.classes[a], coend.classes[b]))
                edge_terms.append(((b, 1), (a, -1)))
            for k, rel in enumerate(val.relators):
                lab, i = f"{at_r}rel{k}", f0 + len(faces)
                rels.append((lab, i))
                row.append(i)
                if rel.letters:
                    word, t = zip(*map(letter.__getitem__, rel.letters))
                    faces.append(Face(lab, Word(word)))
                else:
                    anchor[i] = point[hid, r, rel.at]
                    faces.append(Face(lab, Word((), at=coend.classes[anchor[i]])))
                    t = ()
                face_terms.append(t)
            copies[hid, r] = letter, rels
            rows.append(row)
        blocks.append((hid, rows))
    for mi, m, matches in plan.emitting:
        arrow = f.arrows[m]
        hid, kid = m.source, m.target
        down = f.values[kid]
        # a square's word after its first letter: its generator's image, inverted
        backs = [
            (gen.label, invert_letters(arrow.generator_map[gen.label].letters))
            for gen in down.generators
        ]
        # a solid's chain: its relator's copy downstairs, its match's copy
        # upstairs and its squares, with the squares' coefficients summed
        shapes = [
            (k, f"r{k}", match, _chain_normal([(-e, gen) for gen, e in down.relators[k].letters]))
            for k, match in matches.items()
        ]
        rows = []
        for r in cat.transversal[hid]:
            up, up_rels = copies[kid, cat.apply(m, r)]
            here, here_rels = copies.get((hid, r), ({}, []))  # value(H) may have no cells
            row, squares = [], {}
            square_at_r, solid_at_r = _label(f"q{mi}", r, ""), _label(f"s{mi}", r, "")
            for gen, back in backs:
                lab, i = square_at_r + gen, f0 + len(faces)
                squares[gen] = (lab, i)
                row.append(i)
                word, t = zip(up[gen, 1], *map(here.__getitem__, back))
                faces.append(Face(lab, Word(word)))
                face_terms.append(t)
            for k, name, match, sq in shapes:
                chain = [(1, *up_rels[k])]
                if match is not None:
                    j, sign = match
                    if here_rels[j] == up_rels[k]:  # one relator copy: sum
                        chain = [(1 - sign, *up_rels[k])] if sign != 1 else []
                    else:
                        chain.append((-sign, *here_rels[j]))
                chain = sorted(chain + [(c, *squares[gen]) for c, gen in sq])
                row.append(s0 + len(solids))
                solids.append(Solid(solid_at_r + name,
                                    tuple([(c, lab) for c, lab, _ in chain])))
                solid_terms.append(tuple([(i, c) for c, _, i in chain]))
            rows.append(row)
        blocks.append((hid, rows))

    # g sends the cells written at coset rep r to those written at the
    # representative of g*r, in the same order, all with sign +1; the
    # classes move as the coend says
    listed = list(range(n0))
    images = {g: [vertex[coend.action[g][lab]] for lab in coend.classes]
              for g in group.elements()}
    for hid, rows in blocks:
        for row in rows:
            listed += row
        reps, coset_rep = cat.transversal[hid], cat.coset_rep[hid]
        at = {r: k for k, r in enumerate(reps)}
        for g, out in images.items():
            mul = group.table[g]
            for r in reps:
                out += rows[at[coset_rep[mul[r]]]]
    where = [0] * len(listed)  # position -> its place in listed
    for k, i in enumerate(listed):
        where[i] = k
    perm = [list(map(out.__getitem__, where)) for out in images.values()]
    ones = [1] * len(listed)
    space = GCellComplex.from_positions(
        group, coend.classes, tuple(edges), tuple(faces), tuple(solids),
        [()] * n0 + edge_terms + face_terms + solid_terms, anchor,
        perm, [ones] * len(perm), listed,
    )
    return space, plan.nonrigid


def build_space(f: OrbFunctor, max_dim: int = 3) -> RealizationResult:
    """Realize f: the 0-skeleton coend, then a counting pass and one pass
    that writes the copy cells, squares and solids over its classes
    (stages 3 to 5), and the stage-2 diagnostic.  max_dim 2 leaves out
    the solids."""
    coend = zero_skeleton_coend(f)
    space, nonrigid = _build(f, max_dim, coend)
    return RealizationResult(f, coend, space, nonrigid, verify_step2(f, coend))


@dataclass
class FunctorVerification:
    naturality: Verdict
    equivalence: dict  # subgroup id -> Verdict
    strict: dict  # subgroup id -> Verdict
    combined: Verdict


def comparison_transformation(
    f: OrbFunctor, result: RealizationResult
) -> NaturalTransformation:
    """The canonical comparison from the input functor to the induced
    functor of the realized space: objects go to their classes, generators
    to their copy edges in the identity-coset copy.  Subgroups whose
    components have the same endpoint values and the same images share
    one component."""
    computed = _induced_functor(result.space, f.category)
    cat = f.category
    components, shared = {}, {}
    for hid in cat.objects:
        base = cat.coset_rep[hid][cat.group.identity]
        val, target = f.values[hid], computed.values[hid]
        object_images = tuple([
            result.coend.class_of(hid, base, x) for x in val.objects
        ])
        edge_images = tuple([
            _label(f"o{hid}", base, g.label) for g in val.generators
        ])
        key = (id(val), id(target), object_images, edge_images)
        if key not in shared:
            shared[key] = GroupoidMorphism(
                val, target,
                dict(zip(val.objects, object_images)),
                {g.label: Word(((lab, 1),))
                 for g, lab in zip(val.generators, edge_images)},
            )
        components[hid] = shared[key]
    return NaturalTransformation(f, computed, components)


def verify_fundamental_functor(
    f: OrbFunctor, result: RealizationResult | None = None
) -> FunctorVerification:
    """Does the realized space induce the functor it was built from?  The
    comparison maps are checked for naturality, then judged per subgroup as
    equivalences and (separately, stricter) as isomorphisms of
    presentations."""
    if result is None:
        result = build_space(f)
    eta = comparison_transformation(f, result)
    naturality = eta.naturality()
    equivalence, strict, reports = {}, {}, {}
    for hid in f.category.objects:
        c = eta.components[hid]  # a shared component is judged once
        if id(c) not in reports:
            reports[id(c)] = equivalence_report(c), strict_isomorphism_report(c)
        equivalence[hid], strict[hid] = reports[id(c)]
    combined = combine([naturality] + list(equivalence.values()))
    return FunctorVerification(naturality, equivalence, strict, combined)

