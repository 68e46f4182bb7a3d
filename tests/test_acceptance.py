"""End-to-end checks, one per shipped guarantee.

Each test exercises a complete path through the package (documents, orbit
categories, realization, homology, CLI) and pins the exact expected numbers.
"""

import math
import os
import random
import time

from presentation_complex import presentation_complex

import eqpi1
from eqpi1.cli import main
from eqpi1.complexes import (
    fundamental_groupoid,
    homology_of_complex,
    validate_complex,
)
from eqpi1.documents import parse_document
from eqpi1.functors import induced_functor_from_complex, make_functor, validate_functoriality
from eqpi1.groupoids import Gen, PresentedGroupoid, Word, abelianized_isotropy_map
from eqpi1.groups import cyclic_group, family_all, symmetric_group, trivial_group
from eqpi1.intlinalg import IntMatrix, smith_normal_form
from eqpi1.orbit import OrbitCategory
from eqpi1.realize import (
    STEP2_BIJECTION,
    STEP2_QUOTIENT,
    build_space,
    verify_fundamental_functor,
    verify_step2,
)
from eqpi1.verdicts import VERIFIED


def data_file(name):
    return os.path.join(os.path.dirname(eqpi1.__file__), "data", name)


def torus_groupoid():
    return PresentedGroupoid(
        ("u",),
        (Gen("a", "u", "u"), Gen("b", "u", "u")),
        (Word((("a", 1), ("b", 1), ("a", -1), ("b", -1)), at="u"),),
    )


def homology_strings(x, max_dim=3):
    return [str(h.group) for h in homology_of_complex(x, max_dim=max_dim)]


def test_realized_torus_has_top_homology_rank_three(capsys):
    start = time.monotonic()
    code = main(["realize", data_file("torus_z2.eqp")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "H_3 = Z^3" in out
    assert "H^3 = Z^3" in out
    assert elapsed < 5.0


def test_torus_fixed_set_functor_structure(torus_doc):
    x = torus_doc.complexes["torus"]
    fun = induced_functor_from_complex(x)
    assert validate_functoriality(fun).status == VERIFIED

    free_level = fun.values[0]
    comps = free_level.components()
    assert len(comps) == 1
    assert str(free_level.abelianized_isotropy(comps[0][0])) == "Z^2"

    fixed_level = fun.values[1]
    comps = fixed_level.components()
    assert len(comps) == 2
    for comp in comps:
        assert str(fixed_level.abelianized_isotropy(comp[0])) == "Z"

    flip = next(
        m for m in fun.category.morphisms()
        if str(m) == "H0->H0:g1"
    )
    mat, ab_s, ab_t = abelianized_isotropy_map(fun.arrows[flip], "v1")
    assert mat.data == [[-1, 0], [0, 1]]
    assert str(ab_s) == "Z^2" and str(ab_t) == "Z^2"


def test_point_class_comparison_separates_functors(torus_doc):
    x = torus_doc.complexes["torus"]
    honest = induced_functor_from_complex(x)
    rep = verify_step2(honest)
    assert all(r.status == STEP2_BIJECTION for r in rep.values())

    compressed = torus_doc.functors["torus_pi"]
    rep = verify_step2(compressed)
    assert rep[0].status == STEP2_BIJECTION
    assert rep[1].status == STEP2_QUOTIENT
    assert rep[1].witness == ("v1", "v2")


def test_single_object_realizations_recover_classifying_spaces():
    half = PresentedGroupoid(
        ("u",), (Gen("a", "u", "u"),), (Word((("a", 1), ("a", 1)), at="u"),)
    )
    free2 = PresentedGroupoid(
        ("u",), (Gen("a", "u", "u"), Gen("b", "u", "u")), ()
    )
    expected = {
        "torus": ["Z", "Z^2", "Z"],
        "half": ["Z", "Z/2", "0"],
        "free2": ["Z", "Z^2", "0"],
    }
    cases = {"torus": torus_groupoid(), "half": half, "free2": free2}
    tg = trivial_group()
    cat = OrbitCategory(tg, family_all(tg))
    for name, g in cases.items():
        fun = make_functor(cat, {0: g}, {})
        res = build_space(fun)
        assert validate_complex(res.space).status == VERIFIED
        ver = verify_fundamental_functor(fun)
        assert ver.combined.status == VERIFIED
        pre = presentation_complex(g)
        assert homology_strings(pre, max_dim=2) == expected[name]


def test_orbit_category_laws_exhaustively():
    start = time.monotonic()
    groups = (cyclic_group(2), cyclic_group(4), symmetric_group(3))
    for g in groups:
        cat = OrbitCategory(g, family_all(g))
        ms = cat.morphisms()
        for m in ms:
            assert cat.compose(m, cat.identity(m.source)) == m
            assert cat.compose(cat.identity(m.target), m) == m
        composable = [(b, a) for a in ms for b in ms if b.source == a.target]
        for b, a in composable:
            ba = cat.compose(b, a)
            assert ba in cat.hom(ba.source, ba.target)
        for c in ms:
            for b, a in composable:
                if c.source != b.target:
                    continue
                assert cat.compose(c, cat.compose(b, a)) == cat.compose(
                    cat.compose(c, b), a
                )
        for kid in cat.objects:
            k = cat.subgroup(kid)
            assert len(cat.hom(0, kid)) == g.order // k.order
    assert time.monotonic() - start < 1.0


def test_smith_form_certificates_and_euler_identity(
    torus_doc, reflection_doc, free_doc
):
    rng = random.Random(20260816)
    for _ in range(50):
        a = IntMatrix(
            4, 4, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        )
        s = smith_normal_form(a)
        assert s.u.mul(a).mul(s.v) == s.d
        assert s.u.mul(s.uinv) == IntMatrix.identity(4)
        assert s.uinv.mul(s.u) == IntMatrix.identity(4)
        assert s.v.mul(s.vinv) == IntMatrix.identity(4)
        assert s.vinv.mul(s.v) == IntMatrix.identity(4)
        for i in range(s.rank - 1):
            assert s.diagonal[i + 1] % s.diagonal[i] == 0
        g = math.gcd(*(abs(e) for row in a.data for e in row))
        if g == 0:
            assert s.rank == 0
        else:
            assert s.diagonal[0] == g

    for doc in (torus_doc, reflection_doc, free_doc):
        for x in doc.complexes.values():
            ranks = [h.group.rank for h in homology_of_complex(x)]
            assert x.euler_characteristic() == sum(
                (-1) ** i * r for i, r in enumerate(ranks)
            )


def random_presented_groupoid(rng):
    objects = tuple(f"o{i}" for i in range(rng.randint(1, 3)))
    gens = tuple(
        Gen(f"g{i}", rng.choice(objects), rng.choice(objects))
        for i in range(rng.randint(1, 4))
    )
    relators = []
    for _ in range(rng.randint(0, 3)):
        start = rng.choice(objects)
        at = start
        letters = []
        for _ in range(rng.randint(2, 6)):
            moves = [(g.label, 1, g.target) for g in gens if g.source == at]
            moves += [(g.label, -1, g.source) for g in gens if g.target == at]
            if not moves:
                break
            lab, e, nxt = rng.choice(moves)
            letters.append((lab, e))
            at = nxt
        if letters and at == start:
            relators.append(Word(tuple(letters), at=None))
    return PresentedGroupoid(objects, gens, tuple(relators))


def test_round_trips_through_spaces(torus_doc, reflection_doc, free_doc):
    for doc in (torus_doc, reflection_doc, free_doc):
        for x in doc.complexes.values():
            fun = induced_functor_from_complex(x)
            assert not validate_functoriality(fun).is_refuted

    rng = random.Random(1441)
    for _ in range(20):
        p = random_presented_groupoid(rng)
        assert fundamental_groupoid(presentation_complex(p)) == p


def test_cone_c8_realization_at_scale(bench_inputs):
    # 1088 faces and 512 solids: homology reduces to 456 free 2-cells
    (x,) = parse_document(bench_inputs.cone(8, 0)).complexes.values()
    result = build_space(induced_functor_from_complex(x, family_all(x.group)))
    assert tuple(result.space.cell_counts()) == (9, 128, 1088, 512)
    assert homology_strings(result.space) == ["Z", "0", "Z^456", "0"]
