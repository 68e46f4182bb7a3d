"""Contravariant groupoid-valued functors on an orbit category.

A functor assigns a presented groupoid to each subgroup in the family and a
groupoid morphism value(K) -> value(H) to each orbit morphism G/H -> G/K,
reversing direction.  Functors are built from generating data by a
completion step (identities, arrows out of empty groupoids, composites),
and functor laws are then checked at the word level, escalating through
the usual verdict ladder when words cannot be compared syntactically.
The composition law is first checked with a generating morphism of the
orbit category as the outer factor; every composable pair is compared
only when one of those pairs is not an equality of free-groupoid maps.

The central construction is the functor induced by a complex with a group
action: value(H) is the fundamental groupoid presentation of the H-fixed
subcomplex, and the arrow for a morphism with coset representative g moves
fixed cells by g.  Subgroups with the same fixed cells share one value,
and equal arrows are one shared object.  Values, arrows and the components
of a natural transformation may therefore be shared between subgroups or
morphisms and must not be mutated in place; copy one before changing it.
The law and naturality checks compare each distinct tuple of shared
objects once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress

from .complexes import GCellComplex, fixed_cells, fixed_parts
from .groups import Subgroup, family_all
from .groupoids import (
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    check_composable,
    compose_morphisms,
    empty_morphism,
    expand_letters,
    free_reduce_letters,
    identity_morphism,
    words_equal_verdict,
)
from .orbit import OrbitCategory, OrbitMorphism
from .verdicts import LEVEL_SYNTACTIC, Verdict, first_refuted


class MissingValue(ValueError):
    pass


class MissingArrow(ValueError):
    pass


# a refusal that lists what is missing names at most this many items
ITEMS_NAMED = 5


def name_first(items) -> str:
    """The first ITEMS_NAMED items, comma-separated, then
    ' ... and N more' when there are N others."""
    items = [str(x) for x in items]
    more = len(items) - ITEMS_NAMED
    return ", ".join(items[:ITEMS_NAMED]) + (
        f" ... and {more} more" if more > 0 else ""
    )


@dataclass
class OrbFunctor:
    """A functor on an orbit category.  Several subgroups may hold the
    same value object, and several morphisms the same arrow object, so
    neither is mutated in place."""

    category: OrbitCategory
    values: dict  # subgroup id -> PresentedGroupoid
    arrows: dict  # OrbitMorphism -> GroupoidMorphism
    # subgroup id -> groupoid name, set when parsed from a document
    value_names: dict | None = field(default=None, compare=False)

    def value(self, h) -> PresentedGroupoid:
        hid = self.category.id_of(h) if isinstance(h, Subgroup) else h
        try:
            return self.values[hid]
        except KeyError:
            raise MissingValue(f"no value at subgroup id {hid}") from None

    def arrow(self, m: OrbitMorphism) -> GroupoidMorphism:
        try:
            return self.arrows[m]
        except KeyError:
            raise MissingArrow(f"no arrow at {m}") from None


def make_functor(category: OrbitCategory, values: dict, arrows: dict) -> OrbFunctor:
    """Complete generating data to a functor on every orbit morphism.

    Identities are filled in, arrows out of an empty groupoid are the unique
    empty morphisms, and remaining arrows are generated by composition
    (first definition wins; disagreements surface in
    validate_functoriality).  Raises MissingValue or MissingArrow when the
    data cannot be completed; MissingArrow names the first
    ITEMS_NAMED underivable morphisms and counts the rest.
    """
    vals = dict(values)
    for hid in category.objects:
        if hid not in vals:
            raise MissingValue(f"no groupoid for subgroup id {hid}")
    done = dict(arrows)
    for hid in category.objects:
        m = category.identity(hid)
        if m not in done:
            done[m] = identity_morphism(vals[hid])
    for m in category.morphisms():
        if m in done:
            continue
        source_value = vals[m.target]  # arrows reverse direction
        if source_value.is_empty:
            done[m] = empty_morphism(vals[m.source])
    changed = True
    while changed:
        changed = False
        for beta in category.morphisms():
            for alpha in category.into[beta.source]:
                comp = category.compose(beta, alpha)
                if comp in done or beta not in done or alpha not in done:
                    continue
                done[comp] = compose_morphisms(done[alpha], done[beta])
                changed = True
    missing = [m for m in category.morphisms() if m not in done]
    if missing:
        raise MissingArrow(
            "arrows not derivable from the given generators: "
            + name_first(missing)
        )
    return OrbFunctor(category, vals, done)


def _images_off_composite(
    direct: GroupoidMorphism, first: GroupoidMorphism, second: GroupoidMorphism
):
    """(label, image under first) for each generator whose image under
    direct differs, as reduced letters, from its image under second after
    first.  The composite is valid by construction and is not built."""
    for g in direct.source.generators:
        w = first.generator_map[g.label]
        out = expand_letters(w.letters, second.generator_map)
        d = direct.generator_map[g.label]
        if free_reduce_letters(out) != free_reduce_letters(d.letters):
            yield g.label, w


def _same_as_composite(
    direct: GroupoidMorphism, first: GroupoidMorphism, second: GroupoidMorphism
) -> Verdict:
    """Is direct the same arrow as second after first?  A composite word is
    built only for a generator whose reduced image letters differ.  The
    syntactic level covers equal reduced letters, and also a difference
    loop that matches a relator up to rotation or whose spanning-tree
    rewrite is empty (groupoids.words_equal_verdict); only
    _equal_as_free tells free equality apart."""
    object_map = {x: second.object_map[y] for x, y in first.object_map.items()}
    if direct.object_map != object_map:
        return Verdict.refuted(
            {"detail": "object maps differ",
             "maps": (direct.object_map, object_map)},
            LEVEL_SYNTACTIC,
        )
    # equal reduced letters verify at the syntactic level, the level
    # first_refuted() reports when no generator is compared
    return first_refuted(
        ({"detail": "generator images differ", "generator": label},
         words_equal_verdict(
             direct.target, direct.generator_map[label],
             second.target.free_reduce(second.apply(w)),
         ))
        for label, w in _images_off_composite(direct, first, second)
    )


def _equal_as_free(
    direct: GroupoidMorphism, first: GroupoidMorphism, second: GroupoidMorphism
) -> bool:
    """Is direct second after first as a map of free groupoids: the same
    object map and the same reduced generator images?  Equality modulo a
    relator, which _same_as_composite also verifies at the syntactic
    level, does not count."""
    object_map = {x: second.object_map[y] for x, y in first.object_map.items()}
    return (
        direct.object_map == object_map
        and next(_images_off_composite(direct, first, second), None) is None
    )


def _laws_hold_freely(f: OrbFunctor) -> bool:
    """Are the identity arrows identities, and F(gamma after alpha) equal to
    F(alpha) after F(gamma) for every generating morphism gamma and every
    alpha into its source, all as maps of free groupoids?  Then every
    composition law holds the same way: with beta = gamma after beta',
    induction on the number of generating factors of beta gives
    F(beta alpha) = F(beta' alpha) F(gamma) = F(alpha) F(beta') F(gamma)
    = F(alpha) F(beta), composites read right to left.

    Arrows and values may be shared, so each distinct tuple of objects is
    compared once, keyed by their ids."""
    cat, arrows, values = f.category, f.arrows, f.values
    done = set()
    for hid in cat.objects:
        t, p = arrows[cat.identity(hid)], values[hid]
        key = (id(t), id(p))
        if key not in done:
            ident = identity_morphism(p)
            if not _equal_as_free(t, ident, ident):
                return False
            done.add(key)
    for gamma in cat.generating_morphisms:
        kid, t_gamma = gamma.target, arrows[gamma]
        reps = cat.composite_representatives(gamma)
        for alpha, rep in zip(cat.into[gamma.source], reps):
            direct, t_alpha = arrows[alpha.source, kid, rep], arrows[alpha]
            key = (id(direct), id(t_gamma), id(t_alpha))
            if key not in done:
                if not _equal_as_free(direct, t_gamma, t_alpha):
                    return False
                done.add(key)
    return True


def validate_functoriality(f: OrbFunctor) -> Verdict:
    """Identity and composition laws.  When the laws hold on the
    generating morphisms as equalities of free-groupoid maps, they hold on
    every composable pair and the check ends there.  Otherwise every
    composable pair is compared, beta-major in morphisms() order, so a
    refutation names the first failing pair and a weaker verdict keeps
    its level."""
    cat, values, arrows = f.category, f.values, f.arrows
    for hid in cat.objects:
        if hid not in values:
            return Verdict.refuted({"check": "value missing", "id": hid}, LEVEL_SYNTACTIC)
    for m in cat.morphisms():
        if m not in arrows:
            return Verdict.refuted({"check": "arrow missing", "at": str(m)}, LEVEL_SYNTACTIC)
        t = arrows[m]
        # a shared value is its own endpoint: identity first, since
        # dataclass equality builds the field tuples of both sides
        source, target = values[m.target], values[m.source]
        if (t.source is not source and t.source != source) or (
            t.target is not target and t.target != target
        ):
            return Verdict.refuted(
                {"check": "arrow endpoints", "at": str(m)}, LEVEL_SYNTACTIC
            )
    if _laws_hold_freely(f):
        return Verdict.verified(LEVEL_SYNTACTIC)
    return first_refuted(_law_checks(f))


def _law_checks(f: OrbFunctor):
    """(context, verdict) of every identity law, then of every composition
    law, beta-major in morphisms() order, each compared when reached.  A
    composition law's context is built only if its pair refutes."""
    cat, arrows = f.category, f.arrows
    for hid in cat.objects:
        ident = identity_morphism(f.values[hid])
        yield (
            {"check": "identity law", "id": hid},
            _same_as_composite(arrows[cat.identity(hid)], ident, ident),
        )
    for beta in cat.morphisms():
        for alpha in cat.into[beta.source]:
            yield (
                partial(_pair_context, beta, alpha),
                _same_as_composite(
                    arrows[cat.compose(beta, alpha)], arrows[beta], arrows[alpha]
                ),
            )


def _pair_context(beta: OrbitMorphism, alpha: OrbitMorphism) -> dict:
    return {"check": "composition law", "pair": (str(beta), str(alpha))}


def induced_functor_from_complex(x: GCellComplex, family=None) -> OrbFunctor:
    """The functor of fixed-point fundamental groupoids of a complex."""
    if family is None:
        family = family_all(x.group)
    return _induced_functor(x, OrbitCategory(x.group, family))


def _induced_functor(x: GCellComplex, cat: OrbitCategory) -> OrbFunctor:
    """induced_functor_from_complex on an orbit category already built for
    the complex's group.  Each value is the fundamental groupoid of the
    cells its subgroup's keep-mask selects; subgroups with the same
    keep-mask share one value, and morphisms with the same endpoint values
    and the same object and generator images share one arrow."""
    idx = x._index
    _, e0, f0, _, _ = idx.start
    values, at, by_keep = {}, {}, {}  # at: the vertex and edge positions of a value
    for hid in cat.objects:
        keep = fixed_cells(x, cat.subgroups[hid])
        if keep not in by_keep:
            vs, es, fs, _ = fixed_parts(x, keep)
            by_keep[keep] = PresentedGroupoid(vs, es, tuple(f.word for f in fs)), (
                list(compress(range(e0), keep)), list(compress(range(e0, f0), keep[e0:f0]))
            )
        values[hid], at[hid] = by_keep[keep]
    arrows, shared = {}, {}
    labels = idx.labels
    for m in cat.morphisms():
        perm, sign = idx.perm[m.representative], idx.sign[m.representative]
        src_value, (objects, gens) = values[m.target], at[m.target]
        dst_value = values[m.source]
        object_images = tuple([labels[perm[i]] for i in objects])
        generator_images = tuple([(labels[perm[i]], sign[i]) for i in gens])
        key = (id(src_value), id(dst_value), object_images, generator_images)
        arrow = shared.get(key)
        if arrow is None:
            arrow = shared[key] = GroupoidMorphism(
                src_value, dst_value,
                dict(zip(src_value.objects, object_images)),
                {e.label: Word((img,)) for e, img in
                 zip(src_value.generators, generator_images)},
            )
        arrows[m] = arrow
    return OrbFunctor(cat, values, arrows)


@dataclass
class NaturalTransformation:
    source: OrbFunctor
    target: OrbFunctor
    components: dict  # subgroup id -> GroupoidMorphism

    def naturality(self) -> Verdict:
        cat = self.source.category
        for hid in cat.objects:
            if hid not in self.components:
                return Verdict.refuted(
                    {"check": "component missing", "id": hid}, LEVEL_SYNTACTIC
                )
            c = self.components[hid]
            if c.source != self.source.values[hid] or c.target != self.target.values[hid]:
                return Verdict.refuted(
                    {"check": "component endpoints", "id": hid}, LEVEL_SYNTACTIC
                )
        return first_refuted(self._squares())

    def _squares(self):
        """(context, verdict) of the square of each distinct tuple of
        components and arrows, at its first m: G/H -> G/K in morphisms():
        is eta_H after F(m) the same arrow as G(m) after eta_K?  The left
        side is built, the right is not.  A later m with that tuple has the
        same verdict, so the first refuted or undecided m is a first one."""
        comps, f_arrows, g_arrows = (
            self.components, self.source.arrows, self.target.arrows
        )
        seen = set()
        for m in self.source.category.morphisms():
            c_h, f_m = comps[m.source], f_arrows[m]
            c_k, g_m = comps[m.target], g_arrows[m]
            key = (id(c_h), id(f_m), id(c_k), id(g_m))
            if key in seen:
                continue
            seen.add(key)
            left = compose_morphisms(c_h, f_m)
            check_composable(g_m, c_k)
            yield (
                {"check": "naturality square", "at": str(m)},
                _same_as_composite(left, c_k, g_m),
            )
