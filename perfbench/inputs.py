"""Seeded input documents for the benchmark workloads.

Every input is generated here as document text, which is what the program
receives.  A seed only permutes the order in which cells are listed,
relabels cells, and relabels group elements (cyclic groups) or the points
a permutation group acts on (S4).  None of that changes the pinned
invariants in run.py, so a seed that changes one is a finding about the
program, not a reason to pick another seed.
"""

from __future__ import annotations

import random


def _labels(rng, prefix, n):
    """n distinct seeded labels; digits only after the prefix letter, so a
    label never collides with a document keyword."""
    return [f"{prefix}{k}" for k in rng.sample(range(100 * n + 100), n)]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def cyclic_table(n, rng):
    """Table of the cyclic group of order n with elements relabeled by a
    seeded permutation; returns (rows, label of rotation by one)."""
    label = list(range(n))
    rng.shuffle(label)
    index = {lab: i for i, lab in enumerate(label)}
    rows = [
        [label[(index[a] + index[b]) % n] for b in range(n)] for a in range(n)
    ]
    return rows, label[1]


def cone(n, seed, loop_power=None):
    """The cone on an n-gon with the cyclic group of order n rotating it.

    With loop_power k, each rim vertex also carries a loop a_i and a face
    a_i^k, which puts Z/k torsion into the realized homology."""
    rng = random.Random(f"cone-{n}-{loop_power}-{seed}")
    rows, rotation = cyclic_table(n, rng)
    apex = _labels(rng, "p", 1)[0]
    rim = _labels(rng, "v", n)
    spoke = _labels(rng, "s", n)
    side = _labels(rng, "r", n)
    tri = _labels(rng, "t", n)
    loop = _labels(rng, "a", n) if loop_power else []
    disk = _labels(rng, "b", n) if loop_power else []

    edges = [f"edge {spoke[i]} {apex} {rim[i]}" for i in range(n)]
    edges += [f"edge {side[i]} {rim[i]} {rim[(i + 1) % n]}" for i in range(n)]
    edges += [f"edge {loop[i]} {rim[i]} {rim[i]}" for i in range(len(loop))]
    faces = [
        f"face {tri[i]} {spoke[i]} {side[i]} {spoke[(i + 1) % n]}^-1"
        for i in range(n)
    ]
    faces += [
        f"face {disk[i]} " + " ".join([loop[i]] * loop_power)
        for i in range(len(disk))
    ]
    moves = []
    for cells in (rim, spoke, side, tri, loop, disk):
        moves += [f"{cells[i]} -> {cells[(i + 1) % n]}" for i in range(len(cells))]

    out = ["group table {"]
    out += ["  row " + " ".join(map(str, r)) for r in rows]
    out += ["}", "", "complex cone {"]
    out.append("  vertices " + " ".join(_shuffled(rng, [apex] + rim)))
    out += ["  " + line for line in _shuffled(rng, edges)]
    out += ["  " + line for line in _shuffled(rng, faces)]
    out.append(f"  action {rotation} {{ " + "  ".join(_shuffled(rng, moves)) + " }")
    out.append("}")
    return "\n".join(out) + "\n"


def point_s4(seed):
    """One point with the trivial action of S4, given by a transposition and
    a 4-cycle on seeded point labels (the group is built from permutations)."""
    rng = random.Random(f"point-s4-{seed}")
    pts = list(range(4))
    rng.shuffle(pts)
    vertex = _labels(rng, "p", 1)[0]
    out = [
        "group permutations 4 {",
        f"  perm ({pts[0]} {pts[1]})",
        f"  perm ({pts[0]} {pts[1]} {pts[2]} {pts[3]})",
        "}",
        "",
        "complex point {",
        f"  vertices {vertex}",
    ]
    # an action statement per element: unlisted elements must be products of
    # listed ones, and element ids depend on the permutation order
    out += [f"  action {g} {{ }}" for g in range(1, 24)]
    out.append("}")
    return "\n".join(out) + "\n"


def probe(seed):
    """A complex whose boundary maps do not compose to zero: a solid whose
    chain is one face, attached along a loop that does not bound."""
    rng = random.Random(f"probe-{seed}")
    v, e, f, s = (_labels(rng, p, 1)[0] for p in "vefs")
    return (
        "complex probe {\n"
        f"  vertices {v}\n"
        f"  edge {e} {v} {v}\n"
        f"  face {f} {e}\n"
        f"  solid {s} {{ 1 {f} }}\n"
        "}\n"
    )
