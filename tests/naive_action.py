"""The former action completion, kept as a test oracle.

Every round it composes every pair of known elements and compares or
records the product, until a round adds nothing: |G|^2 compositions per
round, independent of the breadth-first closure in
`eqpi1.documents._complete_action`, which the tests require to build the
same tables and to refuse the same partial actions.
"""

from eqpi1.documents import SchemaViolation
from eqpi1.groups import FiniteGroup


def naive_complete_action(group: FiniteGroup, given: dict, cells) -> dict:
    """Close a partial action (identity plus any listed elements) under
    composition; unlisted group elements must be reachable as products."""
    identity_table = {c: (c, 1) for c in cells}
    known = {group.identity: identity_table}
    for el, table in given.items():
        if el == group.identity:
            if table != identity_table:
                raise SchemaViolation("the identity element must act trivially")
            continue
        known[el] = table
    changed = True
    while changed:
        changed = False
        for g in list(known):
            for h in list(known):
                gh = group.mul(g, h)
                composed = {}
                for c in cells:
                    ih, sh = known[h][c]
                    ig, sg = known[g][ih]
                    composed[c] = (ig, sg * sh)
                if gh in known:
                    if known[gh] != composed:
                        raise SchemaViolation(
                            f"action statements are inconsistent at element {gh}"
                        )
                else:
                    known[gh] = composed
                    changed = True
    missing = [g for g in group.elements() if g not in known]
    if missing:
        raise SchemaViolation(
            "action statements do not generate the group; missing elements "
            + ", ".join(str(g) for g in missing)
        )
    return known
