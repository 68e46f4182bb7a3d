"""Dense IntMatrix helpers that only the tests use.

The library never builds a dense matrix from rows, transposes, copies,
stacks, takes determinants or kernel bases of, or applies one to a
vector, and it never solves a linear system; the tests do, to check Smith
certificates, homology and abelianization independently of the code under
test.  solve_columns, in_column_span, abelian_map_surjective and
dense_quotient_invariants are the library's former dense lattice routines,
each one certified Smith form of a whole matrix, kept as oracles for the
sparse reduction that replaced them.
"""

from eqpi1.intlinalg import AbelianGroup, IntMatrix, smith_normal_form


def from_rows(rows) -> IntMatrix:
    rows = [list(r) for r in rows]
    if not rows:
        return IntMatrix(0, 0)
    return IntMatrix(len(rows), len(rows[0]), rows)


def copy(a: IntMatrix) -> IntMatrix:
    return IntMatrix(a.rows, a.cols, a.data)


def transpose(a: IntMatrix) -> IntMatrix:
    t = IntMatrix(a.cols, a.rows)
    for i in range(a.rows):
        for j in range(a.cols):
            t.data[j][i] = a.data[i][j]
    return t


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    return IntMatrix(
        a.rows, a.cols + b.cols, [x + y for x, y in zip(a.data, b.data)]
    )


def mul_vector(a: IntMatrix, vec) -> list:
    if a.cols != len(vec):
        raise ValueError("dimension mismatch in matrix-vector product")
    return [sum(x * y for x, y in zip(row, vec)) for row in a.data]


def det(a: IntMatrix) -> int:
    """Fraction-free Bareiss elimination; exact for any size."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [row[:] for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and det(a) in (1, -1)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(a) over Z (a primitive sublattice)."""
    s = smith_normal_form(a)
    cols = [s.v.column(j) for j in range(s.rank, a.cols)]
    return IntMatrix.from_columns(cols, nrows=a.cols)


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a * Y = b exactly over Z; raises ValueError if unsolvable."""
    s = smith_normal_form(a)
    ub = s.u.mul(b)
    y0 = IntMatrix(a.cols, b.cols)
    for j in range(b.cols):
        for i in range(a.rows):
            x = ub.data[i][j]
            if i < s.rank:
                q, r = divmod(x, s.diagonal[i])
                if r != 0:
                    raise ValueError("no integer solution")
                y0.data[i][j] = q
            elif x != 0:
                raise ValueError("no integer solution")
    return s.v.mul(y0)


def in_column_span(a: IntMatrix, vec) -> bool:
    try:
        solve_columns(a, IntMatrix.from_columns([list(vec)]))
        return True
    except ValueError:
        return False


def abelian_map_surjective(f: IntMatrix, r_tgt: IntMatrix) -> bool:
    """Whether f induces a surjection onto Z^m/im(r_tgt): the columns of f
    together with the target relators must span Z^m."""
    s = smith_normal_form(hstack(f, r_tgt))
    return s.rank == f.rows and all(d == 1 for d in s.diagonal[: s.rank])


def dense_quotient_invariants(relators: IntMatrix) -> AbelianGroup:
    """Invariants of Z^n / column-span(relators) from one Smith form."""
    s = smith_normal_form(relators)
    torsion = tuple(d for d in s.diagonal if d > 1)
    return AbelianGroup(relators.rows - s.rank, torsion)
