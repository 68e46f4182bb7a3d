"""The presentation complex of a presented groupoid, kept for the tests.

It is the inverse of `eqpi1.complexes.fundamental_groupoid`: one vertex
per object, one edge per generator and one face per relator.  The tests
use it for the round trip through spaces and for torus fixtures.
"""

from eqpi1.complexes import Face, GCellComplex, _plain_complex
from eqpi1.groupoids import PresentedGroupoid


def presentation_complex(p: PresentedGroupoid) -> GCellComplex:
    """Faces are labelled rel<i>, with underscores appended to a label
    that is already a vertex or an edge."""
    used = set(p.objects) | {g.label for g in p.generators}
    faces = []
    for i, r in enumerate(p.relators):
        lab = f"rel{i}"
        while lab in used:
            lab += "_"
        used.add(lab)
        faces.append(Face(lab, r))
    return _plain_complex(p.objects, p.generators, faces, ())
