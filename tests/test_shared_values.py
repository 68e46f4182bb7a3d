"""Equal fixed sets share one value, and equal arrows are checked once.

The induced functor gives subgroups with the same fixed cells one shared
value and morphisms with equal arrows one shared arrow; the comparison
transformation shares equal components; the law, naturality, equivalence
and strict checks then run once per distinct tuple of shared objects.
Everything is compared with the unshared oracles of tests/naive_shared.py:
values, arrows and components must be equal, and every verdict must have
the same status, witness and level.  The inputs are the S4 point, the S4
swapped loops, the S3 triangle, the cones C2..C6 with and without Z/3
loops, the complexes of the shipped documents, and the corruptions of
tests/test_law_generators.py, applied to a copy of one arrow or component
that other morphisms or subgroups still share, or to every morphism that
shares an arrow.
"""

import pytest
from naive_laws import naive_validate_functoriality
from naive_shared import (
    naive_comparison,
    naive_induced_functor,
    naive_naturality,
    naive_reports,
)
from test_action_generators import s3_triangle
from test_law_generators import (
    corrupt,
    corrupted_arrow,
    corruptions,
    s4_swapped_loops,
)

from eqpi1 import functors, intlinalg, realize
from eqpi1.documents import parse_document, parse_path
from eqpi1.functors import (
    NaturalTransformation,
    OrbFunctor,
    induced_functor_from_complex,
    validate_functoriality,
)
from eqpi1.groups import family_all
from eqpi1.realize import (
    build_space,
    comparison_transformation,
    verify_fundamental_functor,
)
from eqpi1.verdicts import LEVEL_ABELIANIZED, REFUTED, combine

from conftest import data_file

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")


def key(v):
    return v.status, v.witness, v.level


class Case:
    """A complex's shared induced functor f, its unshared twin g, and the
    comparison transformations of their realizations."""

    def __init__(self, x, family):
        self.f = induced_functor_from_complex(x, family)
        self.g = naive_induced_functor(x, self.f.category)
        self.result = build_space(self.f)
        self.eta = comparison_transformation(self.f, self.result)
        self.eta0 = naive_comparison(self.g, build_space(self.g))


@pytest.fixture(scope="module")
def cases(bench_inputs):
    """name -> Case, for every input named in the module docstring."""
    (point,) = parse_document(bench_inputs.point_s4(0)).complexes.values()
    spaces = {
        "s4-point": (point, None),
        "s4-loops": (s4_swapped_loops(), None),
        "s3-triangle": (s3_triangle(), None),
    }
    for n in range(2, 7):
        for loops in (None, 3):
            (x,) = parse_document(bench_inputs.cone(n, 0, loops)).complexes.values()
            spaces[f"c{n}" + ("-loops" if loops else "")] = (x, None)
    for name in SHIPPED:
        doc = parse_path(data_file(name))
        for cname, x in doc.complexes.items():
            spaces[f"{name}:{cname}"] = (x, doc.family)
    return {
        name: Case(x, family if family is not None else family_all(x.group))
        for name, (x, family) in spaces.items()
    }


def test_values_arrows_and_components_equal_the_unshared_ones(cases):
    assert len(cases) == 16
    for name, c in cases.items():
        for f, g in ((c.f, c.g), (c.eta.target, c.eta0.target)):
            assert f.values.keys() == g.values.keys(), name
            for hid, value in f.values.items():
                assert value == g.values[hid], (name, hid)
            assert f.arrows.keys() == g.arrows.keys(), name
            for m, arrow in f.arrows.items():
                assert arrow == g.arrows[m], (name, str(m))
        for hid, comp in c.eta.components.items():
            assert comp == c.eta0.components[hid], (name, hid)
    point = cases["s4-point"].f
    assert len({id(v) for v in point.values.values()}) == 1
    assert len({id(a) for a in point.arrows.values()}) == 1
    # C2, C3 and C6 fix only the apex of the hexagon's cone
    cone = cases["c6"].f
    assert len(cone.values) == 4
    assert len({id(v) for v in cone.values.values()}) == 2


def test_verdicts_equal_the_unshared_checks(cases):
    for name, c in cases.items():
        laws = validate_functoriality(c.f)
        assert key(laws) == key(naive_validate_functoriality(c.g)), name
        check = verify_fundamental_functor(c.f, c.result)
        naturality = naive_naturality(c.eta0)
        equivalence, strict = naive_reports(c.eta0)
        assert key(check.naturality) == key(naturality), name
        assert {h: key(v) for h, v in check.equivalence.items()} == {
            h: key(v) for h, v in equivalence.items()
        }, name
        assert {h: key(v) for h, v in check.strict.items()} == {
            h: key(v) for h, v in strict.items()
        }, name
        assert check.combined == combine([naturality] + list(equivalence.values()))


def test_the_shipped_functor_verifies_like_the_unshared_checks():
    # a functor read from a document shares nothing; its realization's
    # induced functor does
    doc = parse_path(data_file("torus_z2.eqp"))
    (f,) = doc.functors.values()
    result = build_space(f)
    check = verify_fundamental_functor(f, result)
    eta0 = naive_comparison(f, result)
    equivalence, strict = naive_reports(eta0)
    assert key(check.naturality) == key(naive_naturality(eta0))
    assert check.equivalence == equivalence
    assert check.strict == strict


def holders(items) -> dict:
    """id of each object in the dict items -> the keys holding it, in order."""
    out = {}
    for k, t in items.items():
        out.setdefault(id(t), []).append(k)
    return out


def shared_corruptions(f):
    """(m, kind, key, other) of the first option of each kind, at the first
    and at the last morphism holding each arrow that morphisms share."""
    return [
        (m, kind, *options[0])
        for ms in holders(f.arrows).values() if len(ms) > 1
        for m in (ms[0], ms[-1])
        for kind, options in sorted(corruptions(f.arrows[m]).items())
    ]


@pytest.fixture(scope="module")
def law_functors(cases):
    """name -> (shared, unshared) induced functors: those of
    tests/test_law_generators.py, whose cones are realized spaces."""
    out = {
        name: (cases[name].f, cases[name].g)
        for name in ("s4-point", "s4-loops", "s3-triangle")
    }
    for n in range(2, 7):
        c = cases[f"c{n}"]
        out[f"c{n}"] = (c.eta.target, c.eta0.target)
    return out


def test_a_corrupted_shared_arrow_refutes_where_the_unshared_one_does(law_functors):
    seen = 0
    for name, (f, g) in law_functors.items():
        for m, kind, k, other in shared_corruptions(f):
            shared = f.arrows[m]
            got = validate_functoriality(corrupt(f, m, kind, k, other))
            want = naive_validate_functoriality(corrupt(g, m, kind, k, other))
            assert key(got) == key(want), (name, str(m), kind)
            assert f.arrows[m] is shared  # the shared arrow is untouched
            seen += got.status == REFUTED
    assert seen >= 15


# the comparisons whose squares are corrupted, with every corruption kind
NATURALITY_CASES = (
    "s3-triangle", "c2", "c3", "c4", "c5", "c6", "c4-loops", "c6-loops",
)


def corrupted_squares(eta, where, m, kind, k, other):
    """eta with its source arrow at m ("arrow") or its component at m
    ("component") replaced by a corrupted copy."""
    if where == "arrow":
        return NaturalTransformation(
            corrupt(eta.source, m, kind, k, other), eta.target, eta.components
        )
    components = {
        **eta.components, m: corrupted_arrow(eta.components[m], kind, k, other)
    }
    return NaturalTransformation(eta.source, eta.target, components)


def naturality_corruptions(eta):
    """(where, m, kind, key, other, shared): the first option of each kind
    at every arrow and every component, and whether other morphisms or
    subgroups share the original."""
    out = []
    for where, items in (("arrow", eta.source.arrows), ("component", eta.components)):
        held = holders(items)
        for m, t in items.items():
            for kind, options in sorted(corruptions(t).items()):
                out.append((where, m, kind, *options[0], len(held[id(t)]) > 1))
    return out


def outcome(check):
    """The verdict's key, or the type and message of what check raised: a
    corrupted arrow need not compose with a component."""
    try:
        return key(check())
    except Exception as e:  # compared with the oracle's, not judged
        return type(e), str(e)


def test_corrupted_squares_refute_where_the_unshared_ones_do(cases):
    refuted = shared = 0
    for name in NATURALITY_CASES:
        c = cases[name]
        for where, m, kind, k, other, was_shared in naturality_corruptions(c.eta):
            got = outcome(
                corrupted_squares(c.eta, where, m, kind, k, other).naturality
            )
            want = outcome(lambda: naive_naturality(
                corrupted_squares(c.eta0, where, m, kind, k, other)
            ))
            assert got == want, (name, where, str(m), kind)
            refuted += got[0] == REFUTED
            shared += was_shared and got[0] == REFUTED
    assert refuted > 20 and shared > 10


def test_one_square_per_tuple_equals_every_square_on_s4(cases):
    for name in ("s4-point", "s4-loops"):
        eta = cases[name].eta
        assert str(eta.naturality()) == str(naive_naturality(eta)), name


def test_a_corrupted_arrow_shared_by_several_morphisms_is_named_at_the_first(cases):
    # the one corrupted copy replaces the arrow at every morphism that
    # shared it, so those squares have one tuple: it is compared once, at
    # the first of them in morphisms() order, and the witness names it.
    # A relator put in front of an image verifies, through seconds of
    # word-problem work, so that kind is left out
    eta = cases["s4-loops"].eta
    f = eta.source
    refuted = 0
    for ms in holders(f.arrows).values():
        if len(ms) < 2:
            continue
        options = corruptions(f.arrows[ms[0]])
        for kind in ("invert", "object"):
            if kind not in options:
                continue
            bad = corrupted_arrow(f.arrows[ms[0]], kind, *options[kind][0])
            g = OrbFunctor(f.category, f.values, {**f.arrows, **dict.fromkeys(ms, bad)})
            broken = NaturalTransformation(g, eta.target, eta.components)
            got = outcome(broken.naturality)
            assert got == outcome(lambda: naive_naturality(broken)), (str(ms[0]), kind)
            if got[0] == REFUTED:
                assert got[1]["at"] == str(ms[0])
                refuted += 1
    assert refuted == 4


def test_s4_point_work_counts(bench_inputs, monkeypatch):
    # per operation of the benchmark's s4-point workload: 30 subgroups
    # and 714 morphisms, one fixed set, one value and one arrow
    (x,) = parse_document(bench_inputs.point_s4(0)).complexes.values()
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (functors, "fixed_parts"),
        (functors, "_equal_as_free"),
        (realize, "equivalence_report"),
        (realize, "strict_isomorphism_report"),
    ):
        counted(module, name)
    f = induced_functor_from_complex(x, family_all(x.group))
    assert validate_functoriality(f).status == "verified"
    result = build_space(f)
    counted(functors, "_same_as_composite")  # from here on, the squares only
    check = verify_fundamental_functor(f, result)
    assert check.combined.status == "verified"
    assert len(f.category.morphisms()) == 714
    assert counts["fixed_parts"] <= 2  # one per induced functor
    assert counts["_equal_as_free"] <= 40
    assert counts["_same_as_composite"] <= 2
    assert counts["equivalence_report"] == 1
    assert counts["strict_isomorphism_report"] == 1


def test_a_refuting_square_on_the_realized_s4_loops_is_cheap(cases, monkeypatch):
    # the realized S4 swapped loops, with the arrow H0->H10:g1 of the
    # source functor inverting a: the square fails in abelianization.  Its
    # loop is decided by the sparse reduction of the isotropy relator
    # matrix (200 x 7,184 at H0), so no Smith form sees more than a
    # residual block of that reduction
    eta = cases["s4-loops"].eta
    (m,) = [m for m in eta.source.arrows if str(m) == "H0->H10:g1"]
    bad = NaturalTransformation(
        corrupt(eta.source, m, "invert", "a"), eta.target, eta.components
    )
    blocks, singles, shapes = [], [], []
    components, smith = intlinalg._components, intlinalg.smith_normal_form

    def recording_components(columns):
        out = components(columns)
        # a 1x1 block comes as its entry; any other is densified
        singles.extend(a for a in out if isinstance(a, int))
        blocks.extend((a.rows, a.cols) for a in out if not isinstance(a, int))
        return out

    def recording_smith(a):
        shapes.append((a.rows, a.cols))
        return smith(a)

    monkeypatch.setattr(intlinalg, "_components", recording_components)
    monkeypatch.setattr(intlinalg, "smith_normal_form", recording_smith)
    v = bad.naturality()
    assert (v.status, v.level) == (REFUTED, LEVEL_ABELIANIZED)
    assert (v.witness["at"], v.witness["generator"]) == ("H0->H10:g1", "a")
    assert singles
    rows, cols = max((r for r, _ in blocks), default=1), max((c for _, c in blocks), default=1)
    assert (rows, cols) == (1, 1)
    assert len(shapes) <= 2
    assert all(r <= rows and c <= cols for r, c in shapes)
