"""The former dense homology routine, kept as a test oracle.

It runs three certified Smith forms per degree on dense matrices (kernel,
exact solve, then the quotient) and lifts every generator eagerly.  It is
far too slow for realized complexes, but independent of the sparse
reduction in `eqpi1.intlinalg.homology`, which the property tests compare
against it on small complexes.
"""

from dataclasses import dataclass

from eqpi1.intlinalg import (
    AbelianGroup,
    IntMatrix,
    NotAChainComplex,
    kernel_basis,
    smith_normal_form,
    solve_columns,
)


@dataclass
class HomologyGroup:
    group: AbelianGroup
    free_generators: list
    torsion_generators: list  # (chain vector, order)

    def __str__(self):
        return str(self.group)


def dense_homology(boundaries: list) -> list:
    """Homology of a chain complex from its boundary matrices.

    boundaries[i] is the matrix of d_{i+1}: C_{i+1} -> C_i (rows = C_i).
    Returns HomologyGroup for degrees 0 .. len(boundaries), including chain
    representatives for free and torsion generators.
    """
    n = len(boundaries)
    for i in range(n - 1):
        if boundaries[i].cols != boundaries[i + 1].rows:
            raise NotAChainComplex(i + 1, "boundary matrix dimensions mismatch")
        if not boundaries[i].mul(boundaries[i + 1]).is_zero():
            raise NotAChainComplex(i + 1, "d.d != 0")

    dims = [boundaries[0].rows] + [b.cols for b in boundaries] if n else []
    out = []
    for i in range(n + 1):
        dim_i = dims[i] if dims else 0
        if i == 0:
            kernel = IntMatrix.identity(dim_i)
        else:
            kernel = kernel_basis(boundaries[i - 1])
        img = boundaries[i] if i < n else IntMatrix(dim_i, 0)
        k = kernel.cols
        if k == 0:
            out.append(HomologyGroup(AbelianGroup(0), [], []))
            continue
        # cycles contain boundaries, so this solve is exact
        y = solve_columns(kernel, img)
        s = smith_normal_form(y)
        torsion = []
        free = []
        for j in range(k):
            d = s.diagonal[j] if j < len(s.diagonal) else 0
            coords = s.uinv.column(j)
            chain = kernel.mul_vector(coords)
            if d == 0 or j >= s.rank:
                free.append(chain)
            elif d > 1:
                torsion.append((chain, d))
        grp = AbelianGroup(len(free), tuple(d for _, d in torsion))
        out.append(HomologyGroup(grp, free, torsion))
    return out
