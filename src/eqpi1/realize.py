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

One builder emits every cell of stages 3 to 5 once, labelled
"prefix.g<rep>.suffix", in blocks: per subgroup and per orbit morphism,
the same row of cells at every coset representative.  The group permutes
copies by left translation of cosets and all cells keep orientation, so
g sends the row at rep to the row at the representative of g*rep, cell
for cell; merged vertices move as the 0-skeleton says.

The final verification builds the induced fixed-point functor of the
realized complex and compares it with the input functor through the
canonical comparison maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .functors import NaturalTransformation, OrbFunctor, _induced_functor
from .groupoids import (
    Word,
    cyclic_reduce_letters,
    equivalence_report,
    GroupoidMorphism,
    invert_letters,
    strict_isomorphism_report,
)
from .complexes import Edge, Face, GCellComplex, Solid, UnionFind, _chain_normal
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
    coset.  Each morphism is either unioned at every coset, which adds a
    whole orbit of pairs, or skipped, so the partition stays G-invariant
    throughout.  A morphism whose identity-coset pairs are already joined
    therefore has every translate joined too and is skipped.  The classes
    are those of the full relation, whatever laws f satisfies; they are
    ordered by their least member (subgroup id, coset rep, object index)."""
    cat = f.category
    group = cat.group
    merge = UnionFind()
    obj_index = {}
    for hid in cat.objects:
        val = f.values[hid]
        obj_index[hid] = {x: i for i, x in enumerate(val.objects)}
        for r in cat.transversal[hid]:
            for x in val.objects:
                merge.add((hid, r, x))
    for m in cat.morphisms():
        arrow = f.arrows[m]  # value(target) -> value(source)
        objects = f.values[m.target].objects
        base = cat.coset_rep[m.source][group.identity]
        ir = cat.apply(m, base)
        if all(
            merge.find((m.target, ir, x))
            == merge.find((m.source, base, arrow.object_map[x]))
            for x in objects
        ):
            continue
        for r in cat.transversal[m.source]:
            ir = cat.apply(m, r)
            for x in objects:
                merge.union(
                    (m.target, ir, x), (m.source, r, arrow.object_map[x])
                )
    groups_of = {}
    for key in merge.parent:
        groups_of.setdefault(merge.find(key), []).append(key)

    def member_key(trip):
        hid, rep, x = trip
        return (hid, rep, obj_index[hid][x])

    ordered = sorted(
        (sorted(v, key=member_key) for v in groups_of.values()),
        key=lambda mem: member_key(mem[0]),
    )
    classes = tuple(f"x{i}" for i in range(len(ordered)))
    members = {lab: tuple(mem) for lab, mem in zip(classes, ordered)}
    point_class = {}
    for lab, mem in members.items():
        for trip in mem:
            point_class[trip] = lab
    action = {}
    for g in group.elements():
        table = {}
        for lab, mem in members.items():
            hid, rep, x = mem[0]
            moved = cat.coset_rep[hid][group.mul(g, rep)]
            table[lab] = point_class[(hid, moved, x)]
        action[g] = table
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


def _copy_word(hid: int, rep: int, w: Word, point=None) -> Word:
    letters = tuple((_label(f"o{hid}", rep, lab), e) for lab, e in w.letters)
    at = None
    if not letters and point is not None:
        at = point
    return Word(letters, at=at)


def _build(f: OrbFunctor, max_dim: int, coend: CoendResult):
    """Stages 3 to 5 over the 0-skeleton coend: the copy cells attach to
    the classes of their objects, and each square runs from a generator's
    copy downstairs back along its image word upstairs.  Returns the
    complex and the nonrigid pairs."""
    cat = f.category
    group = cat.group
    blocks = []  # (hid, the labels emitted at each coset rep, in transversal order)

    def block(hid):
        rows = [[] for _ in cat.transversal[hid]]
        blocks.append((hid, rows))
        return zip(cat.transversal[hid], rows)

    def emit(row, prefix, r, suffix):
        lab = _label(prefix, r, suffix)
        row.append(lab)
        return lab

    vertex = coend.class_of
    edges, faces, solids, nonrigid = [], [], [], []
    for hid in cat.objects:
        val = f.values[hid]
        for r, row in block(hid):
            for gen in val.generators:
                edges.append(
                    Edge(
                        emit(row, f"o{hid}", r, gen.label),
                        vertex(hid, r, gen.source),
                        vertex(hid, r, gen.target),
                    )
                )
            for k, rel in enumerate(val.relators):
                at = vertex(hid, r, rel.at) if not rel.letters else None
                label = emit(row, f"o{hid}", r, f"rel{k}")
                faces.append(Face(label, _copy_word(hid, r, rel, at)))
    for mi, m in enumerate(cat.morphisms()):
        arrow = f.arrows[m]
        hid, kid = m.source, m.target
        down = f.values[kid]
        matches = {}  # relator k of down -> (j, sign), or None if it collapses
        for k, rel in enumerate(down.relators if max_dim >= 3 else ()):
            reduced = cyclic_reduce_letters(arrow.apply(rel).letters)
            match = f.values[hid].match_relator(reduced) if reduced else None
            if reduced and match is None:
                nonrigid.append((str(m), k))
            else:
                matches[k] = match
        if not down.generators and not matches:
            continue  # no square or solid at any coset
        for r, row in block(hid):
            ir = cat.apply(m, r)
            for gen in down.generators:
                img = arrow.generator_map[gen.label]
                word = ((_label(f"o{kid}", ir, gen.label), 1),) + invert_letters(
                    _copy_word(hid, r, img).letters
                )
                faces.append(
                    Face(emit(row, f"q{mi}", r, gen.label), Word(word))
                )
            for k, match in matches.items():
                chain = [(1, _label(f"o{kid}", ir, f"rel{k}"))]
                if match is not None:
                    j, sign = match
                    chain.append((-sign, _label(f"o{hid}", r, f"rel{j}")))
                for lab, e in down.relators[k].letters:
                    chain.append((-e, _label(f"q{mi}", r, lab)))
                label = emit(row, f"s{mi}", r, f"r{k}")
                solids.append(Solid(label, _chain_normal(chain)))

    # g sends the cells emitted at coset rep r to those emitted at the
    # representative of g*r, in the same order, all with sign +1; the
    # classes move as the coend says
    labels = list(coend.classes)
    pair = {lab: (lab, 1) for lab in labels}
    images = {
        g: [pair[coend.action[g][lab]] for lab in labels]
        for g in group.elements()
    }
    for hid, rows in blocks:
        if not rows[0]:
            continue  # a block without cells, such as a value with no generators
        reps = cat.transversal[hid]
        at = {r: i for i, r in enumerate(reps)}
        pairs = [[(lab, 1) for lab in row] for row in rows]
        for row in rows:
            labels += row
        coset_rep = cat.coset_rep[hid]
        for g, out in images.items():
            mul = group.table[g]
            for r in reps:
                out += pairs[at[coset_rep[mul[r]]]]
    action = {g: dict(zip(labels, out)) for g, out in images.items()}
    space = GCellComplex(
        group, coend.classes, tuple(edges), tuple(faces), tuple(solids), action
    )
    return space, tuple(nonrigid)


def build_space(f: OrbFunctor, max_dim: int = 3) -> RealizationResult:
    """Realize f: the 0-skeleton coend, then one pass that emits the
    copy cells, squares and solids over its classes (stages 3 to 5), and
    the stage-2 diagnostic.  max_dim 2 leaves out the solids."""
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

