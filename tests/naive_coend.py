"""The former 0-skeleton coend, kept as a test oracle.

`naive_zero_skeleton_coend` unions every orbit morphism at every coset,
in a union-find keyed by the (subgroup id, coset rep, object) triples.
`zero_skeleton_coend` in `eqpi1.realize` numbers those triples, keeps
their classes in a parent list and skips a morphism whose pairs at the
identity coset are already joined; the tests require the same classes,
members, point classes and action.
"""

from eqpi1.realize import CoendResult


class UnionFind:
    """Disjoint sets of hashable, ordered keys; the smaller root wins a union."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # the smaller label wins, so representatives are deterministic
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def naive_zero_skeleton_coend(f) -> CoendResult:
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
        for r in cat.transversal[m.source]:
            ir = cat.apply(m, r)
            for x in f.values[m.target].objects:
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
