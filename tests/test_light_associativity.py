"""group_from_table checks associativity by Light's test.

(x*s)*y = x*(s*y) is compared for s in the greedy generating set only;
the full scan of every triple runs when that fails, so a refusal names
the same first triple.  The outcomes are compared with the former n^3
check in tests/naive_group_table.py on the shipped tables, on group
tables, on relabeled and perturbed group tables, and on random small
magmas; the cost is pinned by counting comparisons.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_group_table import naive_group_from_table

from eqpi1 import groups
from eqpi1.documents import parse_path
from eqpi1.groups import (
    NotAssociative,
    cyclic_group,
    group_from_permutations,
    group_from_table,
    symmetric_group,
)

from conftest import data_file

SHIPPED = ("torus_z2.eqp", "reflection_circle_z2.eqp", "free_s0_z2.eqp")


def outcome(build, table):
    """The group build makes of table, or the type and arguments of its
    refusal."""
    try:
        return build(table)
    except ValueError as e:
        return type(e), e.args, getattr(e, "triple", None)


def same_outcome(table):
    got = outcome(group_from_table, table)
    assert got == outcome(naive_group_from_table, table)
    return got


def klein():
    return group_from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)], 4)


def test_shipped_and_group_tables_match_the_oracle():
    tables = [parse_path(data_file(name)).group.table for name in SHIPPED]
    tables += [cyclic_group(n).table for n in range(1, 13)]
    tables += [symmetric_group(n).table for n in (3, 4)]
    tables.append(klein().table)
    for table in tables:
        assert isinstance(same_outcome(table), groups.FiniteGroup)


def relabeled(table, perm):
    """table with element i renamed perm[i]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


BASES = [cyclic_group(n).table for n in range(2, 7)] + [
    symmetric_group(3).table, klein().table,
]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_perturbed_group_tables_match_the_oracle(data):
    # a relabeled group table with up to three entries overwritten keeps
    # its identity and inverses often enough to reach associativity
    table = data.draw(st.sampled_from(BASES))
    n = len(table)
    perm = data.draw(st.permutations(range(n)))
    rows = relabeled(table, perm)
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[a][b] = data.draw(st.integers(0, n - 1))
    same_outcome(rows)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_random_magmas_with_an_identity_match_the_oracle(data):
    n = data.draw(st.integers(1, 5))
    e = data.draw(st.integers(0, n - 1))
    rows = [
        [data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)
    ]
    for x in range(n):
        rows[e][x] = rows[x][e] = x
    same_outcome(rows)


def test_refusal_names_the_first_failing_triple():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as got:
        group_from_table(loop)
    with pytest.raises(NotAssociative) as want:
        naive_group_from_table(loop)
    assert got.value.triple == want.value.triple


@pytest.mark.parametrize("table, comparisons", [
    (cyclic_group(400).table, 400 ** 2),  # 64,000,000 triples
    (relabeled(cyclic_group(200).table, random.Random(0).sample(range(200), 200)),
     2 * 200 ** 2),
    (symmetric_group(4).table, 3 * 24 ** 2),
    (symmetric_group(5).table, 4 * 120 ** 2),
])
def test_comparisons_are_n_squared_per_generator(table, comparisons, monkeypatch):
    # each _light_holds call compares n rows of n entries, once per
    # element of the greedy generating set
    calls = []
    light = groups._light_holds
    monkeypatch.setattr(
        groups, "_light_holds", lambda rows, s: calls.append(s) or light(rows, s)
    )
    g = group_from_table(table)
    assert calls == list(g.generators)
    assert len(calls) * g.order ** 2 == comparisons <= g.order ** 3 // 5
