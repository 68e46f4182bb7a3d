"""The former open-face check, kept as a test oracle.

`naive_open_face` walks every face word by label with
`eqpi1.groupoids.walk_word`.  `GCellComplex._open_face` walks the face
and edge terms of the cell index by position; the tests require the same
witness dict, or None for both.
"""

from eqpi1.groupoids import walk_word


def naive_open_face(x):
    """The witness of the first face whose attaching word is not a closed
    edge path, or None."""
    edge_by_label = {e.label: e for e in x.edges}
    for f in x.faces:
        first, last, broken = walk_word(edge_by_label, f.word)
        if broken is not None:
            return {"check": "face word composable", "face": f.label, "letter": broken}
        if first != last:
            return {"check": "face word closed", "face": f.label, "ends": (first, last)}
    return None
