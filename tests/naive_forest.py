"""The former component search and isotropy construction of presented
groupoids, kept as a test oracle.

`naive_components` and `naive_isotropy_data` run two breadth-first
searches over the same generator graph, and the isotropy search rescans
every generator for every object it reaches and walks every relator to
find its source.  `eqpi1.groupoids.PresentedGroupoid` answers both from
one cached spanning forest, and the tests require the same components,
bases, trees and presentations.
"""

from collections import deque

from eqpi1.groupoids import GroupPresentation, IsotropyData, ObjectNotFound


def naive_components(p):
    adj = {x: [] for x in p.objects}
    for g in p.generators:
        adj[g.source].append(g.target)
        adj[g.target].append(g.source)
    seen = {}
    comps = []
    for x in p.objects:
        if x in seen:
            continue
        comp = []
        queue = deque([x])
        seen[x] = len(comps)
        while queue:
            y = queue.popleft()
            comp.append(y)
            for z in adj[y]:
                if z not in seen:
                    seen[z] = len(comps)
                    queue.append(z)
        comp.sort(key=p._obj_index.__getitem__)
        comps.append(tuple(comp))
    return tuple(comps), seen


def naive_component_of(p, x):
    comps, seen = naive_components(p)
    if x not in seen:
        raise ObjectNotFound(f"no object {x!r}")
    return comps[seen[x]]


def naive_isotropy_data(p, x) -> IsotropyData:
    comp = naive_component_of(p, x)
    base = comp[0]
    paths = {base: ()}
    tree = set()
    queue = deque([base])
    while queue:
        y = queue.popleft()
        for g in p.generators:
            if g.source == y and g.target not in paths:
                paths[g.target] = paths[y] + ((g.label, 1),)
                tree.add(g.label)
                queue.append(g.target)
            elif g.target == y and g.source not in paths:
                paths[g.source] = paths[y] + ((g.label, -1),)
                tree.add(g.label)
                queue.append(g.source)
    comp_set = set(comp)
    hat_gens = tuple(
        g.label
        for g in p.generators
        if g.label not in tree and g.source in comp_set
    )
    relators = []
    for r in p.relators:
        s, _ = p.word_endpoints(r)
        if s in comp_set:
            relators.append(p._rewrite_letters(r.letters, tree))
    pres = GroupPresentation(hat_gens, tuple(relators))
    return IsotropyData(p, base, comp, paths, frozenset(tree), pres)
