"""Dense IntMatrix helpers that only the tests use.

The library never builds a dense matrix from rows, transposes, copies,
takes determinants or kernel bases of, or applies one to a vector; the
tests do, to check Smith certificates and homology independently of the
code under test.
"""

from eqpi1.intlinalg import IntMatrix, smith_normal_form


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
