"""The former label-keyed boundary construction, kept as a test oracle.

`naive_boundaries` looks up by label the position of every cell that a
boundary names.  `GCellComplex._boundaries` reads the boundary terms the
cell index stored while checking the cells; the tests require matrices
with equal data.
"""

from eqpi1.intlinalg import SparseMatrix


def naive_boundaries(x) -> list:
    """Sparse matrices of d1, d2, d3 of x."""
    labels = list(x.all_labels())
    pos = dict(zip(labels, range(len(labels))))
    n1 = len(x.vertices)
    n2 = n1 + len(x.edges)
    n3 = n2 + len(x.faces)
    return [
        SparseMatrix.from_terms(
            (((pos[e.target], 1), (pos[e.source], -1)) for e in x.edges),
            n1,
        ),
        SparseMatrix.from_terms(
            (((pos[lab] - n1, exp) for lab, exp in f.word.letters) for f in x.faces),
            n2 - n1,
        ),
        SparseMatrix.from_terms(
            (((pos[lab] - n2, coef) for coef, lab in s.chain) for s in x.solids),
            n3 - n2,
        ),
    ]
