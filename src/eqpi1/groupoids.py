"""Finitely presented groupoids and their morphisms.

A groupoid is presented by objects, generating arrows, and relator words
(closed edge paths).  Words compose left to right: the first letter is
traversed first.  Isotropy groups are presented via a deterministic
spanning tree (breadth-first from the first-declared object of the
component, edges scanned in declaration order); the non-tree generators
survive as free generators and relators are rewritten by dropping tree
letters.

Word-problem-adjacent checks escalate through decidable levels: reduced
words, then abelianized exponent vectors, then Undecided.  To certify that
an isotropy group is abelian (which upgrades abelianized evidence to a
Verified verdict) presentations are first simplified by Tietze
eliminations and then required to contain a commutator for every pair of
surviving generators.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SparseMatrix,
    induced_free_matrix,
    quotient_invariants,
)
from .verdicts import (
    LEVEL_ABELIANIZED,
    LEVEL_SYNTACTIC,
    Verdict,
    combine,
)


class ObjectNotFound(ValueError):
    pass


class NotComposable(ValueError):
    pass


class Gen(NamedTuple):
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Word:
    """A composable sequence of generator letters (label, +-1).  The empty
    word needs an anchor object `at`; nonempty words may carry one too."""

    letters: tuple
    at: str | None = None

    @staticmethod
    def gen(label: str, exp: int = 1) -> "Word":
        return Word(((label, exp),))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def inverse(self) -> "Word":
        return Word(invert_letters(self.letters), at=self.at)

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters, at=self.at or other.at)

    def __str__(self):
        if not self.letters:
            return f"@ {self.at}"
        return " ".join(
            lab if e == 1 else f"{lab}^{e}" for lab, e in self.letters
        )


def invert_letters(letters) -> tuple:
    return tuple((lab, -e) for lab, e in reversed(letters))


def free_reduce_letters(letters) -> tuple:
    out = []
    for lab, e in letters:
        if out and out[-1][0] == lab and out[-1][1] == -e:
            out.pop()
        else:
            out.append((lab, e))
    return tuple(out)


def cyclic_reduce_letters(letters) -> tuple:
    w = free_reduce_letters(letters)  # its interior stays reduced as ends are stripped
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
        i, j = i + 1, j - 1
    return w[i:j + 1]


def canonical_cyclic(letters) -> tuple:
    """Canonical form of a cyclic word up to rotation and inversion: the
    least rotation of the cyclically reduced word or of its inverse.  Used
    to compare relators."""
    return _least_rotation(cyclic_reduce_letters(letters))


def _least_rotation(w: tuple) -> tuple:
    """canonical_cyclic of a cyclically reduced word.  Two letters get the
    least of their four rotations and inversions; any other word only tries
    the rotations that start at its least letter, as the least rotation
    must."""
    n = len(w)
    if n == 2:
        x, y = w
        ix, iy = (x[0], -x[1]), (y[0], -y[1])
        return min(w, (y, x), (iy, ix), (ix, iy))
    if not n:
        return ()
    inv = invert_letters(w)
    first = min(min(w), min(inv))
    return min(
        base[i:] + base[:i]
        for base in (w, inv)
        for i, x in enumerate(base)
        if x == first
    )


def rotation_equal(a, b) -> bool:
    """Are two letter sequences equal up to rotation (not inversion)?"""
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[i:] + b[:i] == a for i in range(len(b)))


def walk_word(gens, w: Word):
    """Follow a word along arrows, gens mapping a label to its Gen.  Returns
    (start, end, None), the anchor twice for an empty word, or (start, end
    so far, letter) at the first letter that is not a generator, has an
    exponent other than +-1, or does not start where the path stands."""
    if not w.letters:
        return w.at, w.at, None
    first = cur = None
    for lab, exp in w.letters:
        g = gens.get(lab)
        if g is None or exp not in (1, -1):
            return first, cur, (lab, exp)
        _, s, t = g
        if exp == -1:
            s, t = t, s
        if cur is None:
            first = s
        elif cur != s:
            return first, cur, (lab, exp)
        cur = t
    return first, cur, None


@dataclass(frozen=True)
class GroupPresentation:
    """A group given by generators and relator words (letters only)."""

    generators: tuple
    relators: tuple

    def relator_matrix(self) -> SparseMatrix:
        """The exponent sums of the relators, one column each."""
        idx = {g: i for i, g in enumerate(self.generators)}
        return SparseMatrix.from_terms(
            (((idx[lab], e) for lab, e in r) for r in self.relators),
            len(self.generators),
        )

    @cached_property
    def _abelianization(self) -> AbelianGroup:
        return quotient_invariants(self.relator_matrix())

    def abelianization(self) -> AbelianGroup:
        """Computed once per presentation."""
        return self._abelianization


def exponent_vector(letters, generators) -> list:
    """Exponent sums of letters over generators, in their order."""
    idx = {g: i for i, g in enumerate(generators)}
    v = [0] * len(idx)
    for lab, e in letters:
        v[idx[lab]] += e
    return v


def expand_letters(letters, images) -> tuple:
    """Replace each letter by the letters of its image word (images maps a
    label to a Word), inverted for exponent -1."""
    out = []
    for lab, e in letters:
        img = images[lab].letters
        out.extend(img if e == 1 else invert_letters(img))
    return tuple(out)


def substitute_letters(letters, subst) -> tuple:
    out = []
    for lab, e in letters:
        rep = subst[lab]
        out.extend(rep if e == 1 else invert_letters(rep))
    return free_reduce_letters(out)


def _occurring_once(letters) -> list:
    counts = {}
    for lab, _ in letters:
        counts[lab] = counts.get(lab, 0) + 1
    return [lab for lab, c in counts.items() if c == 1]


def simplify_presentation(pres: GroupPresentation):
    """Deterministic Tietze simplification.

    Relators are cyclically reduced and deduplicated up to rotation and
    inversion, the earliest-listed copy surviving.  Then, repeatedly, a
    generator that occurs exactly once in some relator is eliminated: the
    first relator in (length, letters) order that has such a generator is
    used, and among its candidates the latest-declared generator goes, so
    early generators survive as the preferred basis.

    The pass is incremental: each relator's canonical key is computed when
    the relator changes, an occurrence index finds the relators that contain
    the eliminated generator, and only those are rewritten, re-reduced and
    re-keyed.  Eliminations are logged, and the substitution expressing
    every original generator as a word in the surviving ones is composed
    once at the end by back-substituting the log in reverse (free reduction
    is confluent, so this equals rewriting the substitution every round).
    Returns the reduced presentation and that substitution.
    """
    order = {g: i for i, g in enumerate(pres.generators)}
    rels = []  # relator index -> letters, None once dropped
    keys = []  # relator index -> canonical_cyclic key of its letters
    holder = {}  # key -> index of the live relator holding it
    occurs = defaultdict(set)  # generator -> indices of relators containing it
    ready = []  # heap of (len, letters, index) of relators with a candidate

    def unlink(i):
        del holder[keys[i]]
        for lab, _ in rels[i]:
            occurs[lab].discard(i)

    def install(i, letters):
        """Make letters (cyclically reduced) relator i, unless it is empty
        or an earlier relator already holds its key."""
        rels[i] = None
        if not letters:
            return
        key = _least_rotation(letters)
        other = holder.get(key)
        if other is not None:
            if other < i:
                return
            unlink(other)
            rels[other] = None
        rels[i], keys[i], holder[key] = letters, key, i
        for lab, _ in letters:
            occurs[lab].add(i)
        if _occurring_once(letters):
            heapq.heappush(ready, (len(letters), letters, i))

    for i, r in enumerate(pres.relators):
        rels.append(None)
        keys.append(None)
        install(i, cyclic_reduce_letters(r))

    log = []
    while ready:
        _, r, i = heapq.heappop(ready)
        if rels[i] != r:
            continue  # the relator changed or was dropped after this push
        lab = max(_occurring_once(r), key=order.__getitem__)
        pos = next(k for k, (l, _) in enumerate(r) if l == lab)
        rot = r[pos + 1:] + r[:pos]  # r rotated so the victim letter is last
        # r = 1 solves to lab = rot^-1 (exp +1) or lab = rot (exp -1)
        replacement = invert_letters(rot) if r[pos][1] == 1 else rot
        log.append((lab, replacement))
        unlink(i)
        rels[i] = None

        inverse = invert_letters(replacement)
        touched = sorted(occurs.pop(lab, ()))
        # release every old key first, so that a rewritten relator is
        # compared only against current letters
        for j in touched:
            unlink(j)
        for j in touched:
            out = []
            for l, e in rels[j]:
                if l == lab:
                    out.extend(replacement if e == 1 else inverse)
                else:
                    out.append((l, e))
            install(j, cyclic_reduce_letters(out))

    resolved = {}  # eliminated generator -> word in the survivors
    for lab, replacement in reversed(log):
        out = []
        for l, e in replacement:
            w = resolved.get(l, ((l, 1),))
            out.extend(w if e == 1 else invert_letters(w))
        resolved[lab] = free_reduce_letters(out)
    subst = {g: resolved.get(g, ((g, 1),)) for g in pres.generators}
    gens = tuple(g for g in pres.generators if g not in resolved)
    relators = tuple(r for r in rels if r is not None)
    return GroupPresentation(gens, relators), subst


def certified_abelian(pres: GroupPresentation) -> bool:
    """True only when the presentation visibly forces commutativity: at most
    one generator, or an explicit commutator relator for every pair."""
    have = {canonical_cyclic(r) for r in pres.relators}
    # the four commutators [a^+-1, b^+-1] are rotations or inversions of
    # one another, so they share the key of [a, b]
    gens = pres.generators
    return all(
        canonical_cyclic(((a, 1), (b, 1), (a, -1), (b, -1))) in have
        for i, a in enumerate(gens)
        for b in gens[i + 1:]
    )


@dataclass(frozen=True)
class PresentedGroupoid:
    objects: tuple
    generators: tuple
    relators: tuple

    def __post_init__(self):
        seen = set()
        for x in self.objects:
            if x in seen:
                raise ValueError(f"duplicate object {x!r}")
            seen.add(x)
        obj = set(self.objects)
        labels = set()
        for g in self.generators:
            if g.label in labels:
                raise ValueError(f"duplicate generator {g.label!r}")
            labels.add(g.label)
            if g.source not in obj or g.target not in obj:
                raise ObjectNotFound(
                    f"generator {g.label!r} has endpoint outside objects"
                )
        for r in self.relators:
            s, t = self.word_endpoints(r)
            if s != t:
                raise NotComposable(f"relator {r} is not a closed path")

    @cached_property
    def _gen(self):
        return {g.label: g for g in self.generators}

    @cached_property
    def _obj_index(self):
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def _relator_index(self) -> dict:
        """canonical_cyclic key -> index of the first relator with that key."""
        index = {}
        for j, r in enumerate(self.relators):
            index.setdefault(canonical_cyclic(r.letters), j)
        return index

    @property
    def is_empty(self) -> bool:
        return not self.objects

    def gen(self, label: str) -> Gen:
        try:
            return self._gen[label]
        except KeyError:
            raise ObjectNotFound(f"no generator {label!r}") from None

    def match_relator(self, reduced):
        """Which relator is a closed word, given by its cyclically reduced,
        nonempty letters?  (j, 1) when relator j equals it up to rotation,
        (j, -1) when only up to rotation and inversion, None when no relator
        does; the first matching relator wins."""
        j = self._relator_index.get(canonical_cyclic(reduced))
        if j is None:
            return None
        rel = cyclic_reduce_letters(self.relators[j].letters)
        return j, 1 if rotation_equal(rel, reduced) else -1

    def word_endpoints(self, w: Word):
        """(source, target) of a word; checks composability letter by letter."""
        first, last, broken = walk_word(self._gen, w)
        if broken is not None:
            lab, e = broken
            g = self.gen(lab)
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1: {lab}^{e}")
            s = g.source if e == 1 else g.target
            raise NotComposable(
                f"word {w}: letter {lab}^{e} starts at {s}, expected {last}"
            )
        if not w.letters and w.at not in self._obj_index:
            raise ObjectNotFound(f"empty word has no valid anchor: {w}")
        return first, last

    def word_source(self, w: Word) -> str:
        return self.word_endpoints(w)[0]

    def free_reduce(self, w: Word) -> Word:
        src, _ = self.word_endpoints(w)
        reduced = free_reduce_letters(w.letters)
        return Word(reduced, at=src)

    @cached_property
    def _components(self):
        """The spanning forest: a breadth-first search from the
        first-declared object of each component, edges scanned in
        declaration order.  Returns the components (objects in declaration
        order), object -> component index, object -> letters of its tree
        path from the component's base, and component index -> tree
        labels."""
        adj = {x: [] for x in self.objects}
        for g in self.generators:
            adj[g.source].append((g.label, 1, g.target))
            adj[g.target].append((g.label, -1, g.source))
        seen = {}
        paths = {}
        comps = []
        trees = []
        for x in self.objects:
            if x in seen:
                continue
            comp = []
            tree = set()
            queue = deque([x])
            seen[x] = len(comps)
            paths[x] = ()
            while queue:
                y = queue.popleft()
                comp.append(y)
                for lab, e, z in adj[y]:
                    if z not in seen:
                        seen[z] = len(comps)
                        paths[z] = paths[y] + ((lab, e),)
                        tree.add(lab)
                        queue.append(z)
            comp.sort(key=self._obj_index.__getitem__)
            comps.append(tuple(comp))
            trees.append(frozenset(tree))
        return tuple(comps), seen, paths, trees

    def components(self) -> tuple:
        return self._components[0]

    def component_of(self, x: str) -> tuple:
        comps, seen, _, _ = self._components
        if x not in seen:
            raise ObjectNotFound(f"no object {x!r}")
        return comps[seen[x]]

    @cached_property
    def _isotropy(self) -> dict:
        """component base -> its isotropy presentation, filled as they are
        read.  It holds no IsotropyData, which would refer back to the
        groupoid and keep it alive until a cycle collection."""
        return {}

    def isotropy_data(self, x: str) -> "IsotropyData":
        """The isotropy presentation of x's component, built once per
        component."""
        comp = self.component_of(x)
        _, seen, paths, trees = self._components
        i = seen[x]
        tree = trees[i]
        pres = self._isotropy.get(comp[0])
        if pres is None:
            hat_gens = tuple(
                g.label
                for g in self.generators
                if g.label not in tree and seen[g.source] == i
            )
            # a validated relator is closed: it starts at its anchor when
            # empty, else in the component of its first letter
            relators = tuple(
                self._rewrite_letters(r.letters, tree)
                for r in self.relators
                if seen[self._gen[r.letters[0][0]].source if r.letters else r.at] == i
            )
            pres = self._isotropy[comp[0]] = GroupPresentation(hat_gens, relators)
        return IsotropyData(self, comp[0], comp, paths, tree, pres)

    @staticmethod
    def _rewrite_letters(letters, tree) -> tuple:
        return free_reduce_letters(
            (lab, e) for lab, e in letters if lab not in tree
        )

    def isotropy_presentation(self, x: str) -> GroupPresentation:
        return self.isotropy_data(x).presentation

    def abelianized_isotropy(self, x: str) -> AbelianGroup:
        return self.isotropy_presentation(x).abelianization()


@dataclass(frozen=True)
class IsotropyData:
    groupoid: PresentedGroupoid
    base: str
    component: tuple
    paths: dict = field(compare=False)  # object -> tree path from its base
    tree: frozenset
    presentation: GroupPresentation

    def rewrite_loop(self, w: Word) -> tuple:
        """Express a loop anywhere in the component as hat-generator letters
        (the conjugated loop at the base)."""
        return self.groupoid._rewrite_letters(w.letters, self.tree)

    def hat_loop_word(self, label: str) -> Word:
        """The loop at the base that a surviving generator stands for."""
        g = self.groupoid.gen(label)
        letters = (
            self.paths[g.source]
            + ((label, 1),)
            + invert_letters(self.paths[g.target])
        )
        return Word(free_reduce_letters(letters), at=self.base)


EMPTY_GROUPOID = PresentedGroupoid((), (), ())


@dataclass
class GroupoidMorphism:
    source: PresentedGroupoid
    target: PresentedGroupoid
    object_map: dict
    generator_map: dict

    def __post_init__(self):
        tgt_objects = self.target._obj_index
        for x in self.source.objects:
            if x not in self.object_map:
                raise ObjectNotFound(f"object {x!r} has no image")
            if self.object_map[x] not in tgt_objects:
                raise ObjectNotFound(
                    f"image {self.object_map[x]!r} of {x!r} is not a target object"
                )
        for g in self.source.generators:
            if g.label not in self.generator_map:
                raise ObjectNotFound(f"generator {g.label!r} has no image")
            w = self.generator_map[g.label]
            s, t = self.target.word_endpoints(w)
            if s != self.object_map[g.source] or t != self.object_map[g.target]:
                raise NotComposable(
                    f"image of {g.label!r} runs {s}->{t}, expected "
                    f"{self.object_map[g.source]}->{self.object_map[g.target]}"
                )

    def apply(self, w: Word) -> Word:
        src, _ = self.source.word_endpoints(w)
        return Word(
            expand_letters(w.letters, self.generator_map), at=self.object_map[src]
        )


def identity_morphism(p: PresentedGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(
        p,
        p,
        {x: x for x in p.objects},
        {g.label: Word.gen(g.label) for g in p.generators},
    )


def empty_morphism(target: PresentedGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(EMPTY_GROUPOID, target, {}, {})


def check_composable(t2: GroupoidMorphism, t1: GroupoidMorphism):
    """Raise NotComposable unless t1's target equals t2's source
    (structurally)."""
    if t1.target is not t2.source and t1.target != t2.source:
        raise NotComposable("morphism composition: middle groupoid mismatch")


def compose_morphisms(t2: GroupoidMorphism, t1: GroupoidMorphism) -> GroupoidMorphism:
    """t2 after t1."""
    check_composable(t2, t1)
    return GroupoidMorphism(
        t1.source,
        t2.target,
        {x: t2.object_map[y] for x, y in t1.object_map.items()},
        {
            lab: t2.target.free_reduce(t2.apply(w))
            for lab, w in t1.generator_map.items()
        },
    )


def _loop_vanishes(p: PresentedGroupoid, w: Word) -> Verdict:
    """Is the loop w trivial in its component's isotropy?  Verified needs the
    loop to reduce to nothing, match a relator, or die in a certified-abelian
    group; a nonzero abelianized class refutes.  The class is zero exactly
    when adding the loop as a relator leaves the abelianization unchanged,
    which the sparse reduction of homology decides."""
    reduced = p.free_reduce(w)
    if reduced.is_empty:
        return Verdict.verified(LEVEL_SYNTACTIC)
    if canonical_cyclic(reduced.letters) in p._relator_index:
        return Verdict.verified(LEVEL_SYNTACTIC)
    data = p.isotropy_data(p.word_source(w))
    hat = data.rewrite_loop(reduced)
    if not hat:
        return Verdict.verified(LEVEL_SYNTACTIC)
    pres = data.presentation
    # Z^n/L maps onto Z^n/(L + Z hat), and a finitely generated abelian
    # group is isomorphic to no proper quotient of itself: hat lies in the
    # relator lattice L exactly when the invariants agree
    killed = GroupPresentation(pres.generators, pres.relators + (hat,))
    if killed.abelianization() != pres.abelianization():
        vec = exponent_vector(hat, pres.generators)
        return Verdict.refuted(
            {"loop": str(reduced), "abelianized": vec}, LEVEL_ABELIANIZED
        )
    simp, _ = simplify_presentation(pres)
    if certified_abelian(simp):
        return Verdict.verified(LEVEL_ABELIANIZED)
    return Verdict.undecided("word problem: loop not decided at abelianized level")


def words_equal_verdict(p: PresentedGroupoid, w1: Word, w2: Word) -> Verdict:
    """Do two words with equal endpoints represent the same arrow of p?"""
    e1 = p.word_endpoints(w1)
    e2 = p.word_endpoints(w2)
    if e1 != e2:
        return Verdict.refuted(
            {"endpoints": (e1, e2)}, LEVEL_SYNTACTIC
        )
    r1 = p.free_reduce(w1)
    r2 = p.free_reduce(w2)
    if r1.letters == r2.letters:
        return Verdict.verified(LEVEL_SYNTACTIC)
    return _loop_vanishes(p, r1.concat(r2.inverse()))


@dataclass(frozen=True)
class IsotropyComparison:
    source_pres: GroupPresentation
    target_pres: GroupPresentation
    images: dict  # surviving source generator -> letters in target hat gens


def isotropy_image_map(t: GroupoidMorphism, x0: str) -> IsotropyComparison:
    src = t.source.isotropy_data(x0)
    tgt = t.target.isotropy_data(t.object_map[src.base])
    images = {}
    for lab in src.presentation.generators:
        loop = src.hat_loop_word(lab)
        img = t.apply(loop)
        images[lab] = tgt.rewrite_loop(img)
    return IsotropyComparison(src.presentation, tgt.presentation, images)


def abelianized_isotropy_map(t: GroupoidMorphism, x0: str):
    """Matrix of the induced map on free parts of the abelianized isotropy
    groups, in the deterministic bases of the simplified presentations.
    Returns (matrix, source invariants, target invariants)."""
    sp, tp, images = _simplified_images(t, x0)
    cols = [exponent_vector(images[g], tp.generators) for g in sp.generators]
    f = IntMatrix.from_columns(cols, nrows=len(tp.generators))
    m = induced_free_matrix(
        sp.relator_matrix().to_dense(), tp.relator_matrix().to_dense(), f
    )
    return m, sp.abelianization(), tp.abelianization()


def _component_refutation(t: GroupoidMorphism):
    """A Refuted verdict when t is not a bijection on components, else
    None."""
    scomps = t.source.components()
    tcomps = t.target.components()
    t_index = {}
    for i, comp in enumerate(tcomps):
        for x in comp:
            t_index[x] = i
    hit = {}
    for i, comp in enumerate(scomps):
        j = t_index[t.object_map[comp[0]]]
        if j in hit:
            return Verdict.refuted(
                {
                    "components_identified": (
                        scomps[hit[j]][0],
                        comp[0],
                    )
                },
                LEVEL_SYNTACTIC,
            )
        hit[j] = i
    if len(scomps) != len(tcomps):
        return Verdict.refuted(
            {"component_counts": (len(scomps), len(tcomps))}, LEVEL_SYNTACTIC
        )
    return None


def equivalence_report(t: GroupoidMorphism) -> Verdict:
    """Is t an equivalence: bijective on components and an isomorphism on an
    isotropy group per component?  Only the decidable classes produce a
    Verified/Refuted answer (abelianization mismatch always refutes; free
    presentations need a strict generator bijection; certified-abelian
    presentations are decided by surjectivity plus finite-generation)."""
    bad = _component_refutation(t)
    if bad is not None:
        return bad
    verdicts = []
    for comp in t.source.components():
        verdicts.append(_component_iso_verdict(t, comp[0]))
    return combine(verdicts)


def _simplified_images(t: GroupoidMorphism, x0: str):
    """The simplified isotropy presentations at x0 and at its image, and
    each surviving source generator's image in the surviving target ones."""
    cmpd = isotropy_image_map(t, x0)
    sp, _ = simplify_presentation(cmpd.source_pres)
    tp, tsub = simplify_presentation(cmpd.target_pres)
    images = {
        g: substitute_letters(cmpd.images[g], tsub) for g in sp.generators
    }
    return sp, tp, images


def _component_iso_verdict(t: GroupoidMorphism, x0: str) -> Verdict:
    sp, tp, images = _simplified_images(t, x0)
    ab_s = sp.abelianization()
    ab_t = tp.abelianization()
    if ab_s != ab_t:
        return Verdict.refuted(
            {"at": x0, "abelianizations": (str(ab_s), str(ab_t))},
            LEVEL_ABELIANIZED,
        )
    if not sp.relators and not tp.relators:
        # free against free: decidable only via a generator bijection
        letters = [images[g] for g in sp.generators]
        if (
            all(len(w) == 1 for w in letters)
            and len({w[0][0] for w in letters}) == len(letters)
            and len(letters) == len(tp.generators)
        ):
            return Verdict.verified(LEVEL_SYNTACTIC)
        return Verdict.undecided(
            "free-group automorphism recognition beyond generator bijections"
        )
    if certified_abelian(sp) and certified_abelian(tp):
        # the cokernel of the abelianized map is the target with the
        # source images killed; the map is onto when that is trivial
        images_killed = GroupPresentation(
            tp.generators, tp.relators + tuple(images[g] for g in sp.generators)
        )
        if images_killed.abelianization() == AbelianGroup(0):
            # surjection between isomorphic finitely generated abelian
            # groups is an isomorphism
            return Verdict.verified(LEVEL_ABELIANIZED)
        return Verdict.refuted(
            {"at": x0, "detail": "abelianized map is not surjective"},
            LEVEL_ABELIANIZED,
        )
    return Verdict.undecided("word problem: isotropy not in a decidable class")


def strict_isomorphism_report(t: GroupoidMorphism) -> Verdict:
    """Object bijection plus generator-to-generator bijection; the blunt
    companion to equivalence_report."""
    n_obj_s = len(t.source.objects)
    n_obj_t = len(t.target.objects)
    if n_obj_s != n_obj_t:
        return Verdict.refuted(
            {"object_counts": (n_obj_s, n_obj_t)}, LEVEL_SYNTACTIC
        )
    if len(set(t.object_map.values())) != n_obj_s:
        return Verdict.refuted({"detail": "object map not injective"}, LEVEL_SYNTACTIC)
    images = [t.target.free_reduce(w) for w in t.generator_map.values()]
    if any(len(w.letters) != 1 for w in images):
        return Verdict.refuted(
            {"detail": "a generator image is not a single generator"},
            LEVEL_SYNTACTIC,
        )
    labels = {w.letters[0][0] for w in images}
    if len(labels) != len(images) or len(images) != len(t.target.generators):
        return Verdict.refuted(
            {
                "generator_counts": (
                    len(t.source.generators),
                    len(t.target.generators),
                )
            },
            LEVEL_SYNTACTIC,
        )
    return Verdict.verified(LEVEL_SYNTACTIC)
