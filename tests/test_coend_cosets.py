"""zero_skeleton_coend settles each morphism at the identity coset first.

The classes, members, point classes and action are compared with the
former union over every morphism and coset in tests/naive_coend.py, on
induced functors, on the functors of the shipped documents, and on
induced functors whose object maps are corrupted at one or two morphisms.
A corrupted functor usually breaks the functor laws; the coend is still
the classes of the relation its arrows generate, and must not change
with the order in which the relation is joined.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_coend import naive_zero_skeleton_coend
from test_action_generators import s3_triangle
from test_law_generators import corrupt, corruptions, s4_swapped_loops

from eqpi1.documents import parse_document, parse_path
from eqpi1.functors import induced_functor_from_complex, validate_functoriality
from eqpi1.groups import family_all
from eqpi1.realize import build_space, zero_skeleton_coend
from eqpi1.verdicts import REFUTED

from conftest import data_file

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")


def induced(x):
    return induced_functor_from_complex(x, family_all(x.group))


@pytest.fixture(scope="module")
def functors(bench_inputs):
    """Induced functors of the S4 point, the S4 swapped loops, the S3
    triangle, the cones C2..C6 with and without Z/3 loops and the cones'
    realized spaces, by name."""
    (point,) = parse_document(bench_inputs.point_s4(0)).complexes.values()
    out = {
        "s4-point": induced(point),
        "s4-loops": induced(s4_swapped_loops()),
        "s3-triangle": induced(s3_triangle()),
    }
    for n in range(2, 7):
        for power, suffix in ((None, ""), (3, "-z3")):
            text = bench_inputs.cone(n, 0, loop_power=power)
            (x,) = parse_document(text).complexes.values()
            cone = out[f"c{n}{suffix}"] = induced(x)
            out[f"c{n}{suffix}-realized"] = induced(build_space(cone).space)
    return out


def coend_view(c):
    return c.classes, c.members, c.point_class, c.action


def same_coend(f):
    got = zero_skeleton_coend(f)
    assert coend_view(got) == coend_view(naive_zero_skeleton_coend(f))
    return got


def object_corruptions(f) -> list:
    """Every (morphism, object, new image) that corrupt() takes with
    "object" for f, in morphisms() order."""
    return [
        (m, x, z)
        for m in f.category.morphisms()
        for x, z in corruptions(f.arrows[m]).get("object", ())
    ]


@pytest.fixture(scope="module")
def corruptible(functors):
    return {
        name: options
        for name, f in functors.items()
        if (options := object_corruptions(f))
    }


def test_induced_functors_match_the_oracle(functors):
    assert len(functors) == 23
    for f in functors.values():
        same_coend(f)


def test_shipped_document_functors_match_the_oracle():
    seen = 0
    for name in SHIPPED:
        doc = parse_path(data_file(name))
        for f in doc.functors.values():
            same_coend(f)
            seen += 1
        for x in doc.complexes.values():
            same_coend(induced_functor_from_complex(x, doc.family))
            seen += 1
    assert seen == 4


def test_refuted_laws_keep_the_oracle_coend(functors, corruptible):
    # every single object corruption of the realized C3 cone: the coend
    # agrees whether or not the laws hold, and some corruptions both
    # refute the laws and change the classes
    f = functors["c3-realized"]
    clean = coend_view(zero_skeleton_coend(f))
    refuted = changed = 0
    for m, x, z in corruptible["c3-realized"]:
        g = corrupt(f, m, "object", x, z)
        got = same_coend(g)
        refuted += validate_functoriality(g).status == REFUTED
        changed += coend_view(got) != clean
    assert refuted > 0 and changed > 0


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_object_maps_match_the_oracle(functors, corruptible, data):
    name = data.draw(st.sampled_from(sorted(corruptible)))
    f = functors[name]
    picks = data.draw(
        st.lists(st.sampled_from(corruptible[name]), min_size=1, max_size=2)
    )
    for m, x, z in picks:
        f = corrupt(f, m, "object", x, z)
    same_coend(f)


class CountedReads(dict):
    """A dict that counts the reads of each key."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_unions_are_few_on_s4(functors, monkeypatch):
    # the coend reads an object's transversal once to number its points,
    # and once more for each morphism it joins at every coset; joining
    # them all would read it 714 more times, the identity-coset check
    # leaves 32
    f = functors["s4-point"]
    cat = f.category
    reads = CountedReads(cat.transversal)
    monkeypatch.setattr(cat, "transversal", reads)
    got = zero_skeleton_coend(f)
    joined = reads.reads - len(cat.objects)
    monkeypatch.undo()
    assert coend_view(got) == coend_view(naive_zero_skeleton_coend(f))
    assert len(cat.morphisms()) == 714
    assert 0 < joined <= 50
