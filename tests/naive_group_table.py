"""The former multiplication-table check, kept as a test oracle.

`naive_group_from_table` checks associativity on all n^3 triples.
`eqpi1.groups.group_from_table` runs Light's test over a generating set
and scans every triple only when that test fails; the tests require the
same group, or the same refusal naming the same triple.
"""

from eqpi1.groups import FiniteGroup, NoIdentity, NoInverse, NotAssociative


def naive_group_from_table(table) -> FiniteGroup:
    """Validate a multiplication table and wrap it: identity, inverses,
    and associativity on all triples."""
    rows = tuple(tuple(r) for r in table)
    n = len(rows)
    if n == 0:
        raise NoIdentity()
    for r in rows:
        if len(r) != n or any(not (0 <= x < n) for x in r):
            raise ValueError("table is not square over element indices")
    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if rows[a][b] == identity and rows[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise NoInverse(a)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAssociative((a, b, c))
    return FiniteGroup(rows, identity, tuple(inverse))
