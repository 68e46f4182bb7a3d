"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints: Smith normal form
with unimodular transformation certificates, integer kernels and exact
solving, finitely generated abelian group invariants, sparse boundary
matrices, and chain-complex homology by unit-pivot reduction, with
generators lifted back to the original cells on request.  No floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class NotAChainComplex(ValueError):
    """Boundary matrices fail d_i . d_{i+1} = 0 (or dimensions mismatch)."""

    def __init__(self, degree: int, detail: str):
        self.degree = degree
        self.detail = detail
        super().__init__(f"not a chain complex at degree {degree}: {detail}")


class IntMatrix:
    """Dense integer matrix; entries are plain Python ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data shape mismatch")
            self.data = [list(r) for r in data]

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return IntMatrix(0, 0)
        return IntMatrix(len(rows), len(rows[0]), rows)

    @staticmethod
    def from_columns(cols, nrows=None) -> "IntMatrix":
        cols = [list(c) for c in cols]
        if not cols:
            return IntMatrix(nrows or 0, 0)
        n = len(cols[0])
        m = IntMatrix(n, len(cols))
        for j, c in enumerate(cols):
            for i in range(n):
                m.data[i][j] = c[i]
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        t = IntMatrix(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                t.data[j][i] = self.data[i][j]
        return t

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        orow[j] += a * brow[j]
        return out

    def __mul__(self, other):
        return self.mul(other)

    def mul_vector(self, vec) -> list:
        if self.cols != len(vec):
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.data]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            [self.data[i] + other.data[i] for i in range(self.rows)],
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def det(self) -> int:
        """Fraction-free Bareiss elimination; exact for any size."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [row[:] for row in self.data]
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

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data!r})"


class SparseMatrix:
    """Integer matrix stored by columns, the form of boundary maps.

    data[j] is column j as a tuple of (row, coef) pairs, coef != 0, each
    row at most once."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_terms(columns, nrows: int) -> "SparseMatrix":
        """One iterable of (row, coef) terms per column; terms on the same
        row add up, and zero sums are dropped."""
        data = []
        for terms in columns:
            col = {}
            for r, c in terms:
                col[r] = col.get(r, 0) + c
            data.append(tuple((r, c) for r, c in col.items() if c))
        return SparseMatrix(nrows, len(data), data)

    @staticmethod
    def from_dense(m: IntMatrix) -> "SparseMatrix":
        return SparseMatrix.from_terms(
            (enumerate(m.column(j)) for j in range(m.cols)), m.rows
        )

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return SparseMatrix.from_terms(
            (
                ((r, c * x) for j, c in col for r, x in self.data[j])
                for col in other.data
            ),
            self.rows,
        )

    def __mul__(self, other):
        return self.mul(other)

    def is_zero(self) -> bool:
        return not any(self.data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {self.data!r})"


@dataclass
class SmithForm:
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    uinv and vinv are the exact inverses, maintained during elimination; they
    are what lets homology generators be lifted back to chains.
    """

    d: IntMatrix
    u: IntMatrix
    uinv: IntMatrix
    v: IntMatrix
    vinv: IntMatrix
    diagonal: list
    rank: int


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over Z.  Pivot choice: smallest nonzero absolute value,
    ties broken by (row, col); deterministic for reproducible bases.
    The factorization is re-verified on every call before returning."""
    m, n = a.rows, a.cols
    d = [row[:] for row in a.data]
    u = IntMatrix.identity(m)
    uinv = IntMatrix.identity(m)
    v = IntMatrix.identity(n)
    vinv = IntMatrix.identity(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u.data[i], u.data[j] = u.data[j], u.data[i]
        for r in uinv.data:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v.data:
            r[i], r[j] = r[j], r[i]
        vinv.data[i], vinv.data[j] = vinv.data[j], vinv.data[i]

    def row_add(i, j, c):
        # row i += c * row j ; uinv column j -= c * column i
        if c == 0:
            return
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u.data[i] = [x + c * y for x, y in zip(u.data[i], u.data[j])]
        for r in uinv.data:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        # col i += c * col j ; vinv row j -= c * row i
        if c == 0:
            return
        for r in d:
            r[i] += c * r[j]
        for r in v.data:
            r[i] += c * r[j]
        vinv.data[j] = [x - c * y for x, y in zip(vinv.data[j], vinv.data[i])]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u.data[i] = [-x for x in u.data[i]]
        for r in uinv.data:
            r[i] = -r[i]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0:
                    key = (abs(x), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    limit = min(m, n)
    while t < limit:
        loc = find_pivot(t)
        if loc is None:
            break
        pi, pj = loc
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # clear column and row below/right of the pivot; repeat while
        # remainders reintroduce entries
        while True:
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // p
                    row_add(i, t, -q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // p
                    col_add(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if not dirty:
                break
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a_i, a_j = d[i][i], d[i + 1][i + 1]
            if a_i != 0 and a_j % a_i != 0:
                # fold d_{i+1} into row i, then gcd-clean the 2x2 block
                row_add(i, i + 1, 1)
                while d[i][i + 1] != 0 or d[i + 1][i] != 0:
                    while d[i][i + 1] != 0:
                        p, q = d[i][i], d[i][i + 1]
                        if p == 0 or abs(q) < abs(p):
                            col_swap(i, i + 1)
                        else:
                            col_add(i + 1, i, -(q // p))
                    while d[i + 1][i] != 0:
                        p, q = d[i][i], d[i + 1][i]
                        if p == 0 or abs(q) < abs(p):
                            row_swap(i, i + 1)
                        else:
                            row_add(i + 1, i, -(q // p))
                if d[i][i] < 0:
                    row_negate(i)
                if d[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True

    diag = [d[i][i] for i in range(limit)]
    rank = sum(1 for x in diag if x != 0)
    dm = IntMatrix(m, n, d)

    result = SmithForm(dm, u, uinv, v, vinv, diag, rank)
    _verify_smith(a, result)
    return result


def _verify_smith(a: IntMatrix, s: SmithForm):
    if s.u.mul(a).mul(s.v) != s.d:
        raise AssertionError("smith normal form reconstruction failed")
    if s.u.mul(s.uinv) != IntMatrix.identity(a.rows):
        raise AssertionError("U inverse certificate failed")
    if s.v.mul(s.vinv) != IntMatrix.identity(a.cols):
        raise AssertionError("V inverse certificate failed")
    for i in range(s.rank - 1):
        if s.diagonal[i + 1] % s.diagonal[i] != 0:
            raise AssertionError("divisibility chain violated")
    for i, x in enumerate(s.diagonal):
        if (x != 0) != (i < s.rank):
            raise AssertionError("nonzero invariant factors must come first")
        if x < 0:
            raise AssertionError("invariant factors must be nonnegative")
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j and s.d.data[i][j] != 0:
                raise AssertionError("smith form is not diagonal")


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


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form: Z^rank + sum of Z/d with d_i | d_{i+1}, d_i > 1."""

    rank: int
    torsion: tuple = ()

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion


def quotient_invariants(relators: IntMatrix) -> AbelianGroup:
    """Invariants of Z^n / column-span(relators); rows index the generators."""
    s = smith_normal_form(relators)
    torsion = tuple(d for d in s.diagonal if d > 1)
    return AbelianGroup(relators.rows - s.rank, torsion)


def free_quotient_data(relators: IntMatrix):
    """Coordinates for the free part of Z^n / im(relators).

    Returns (smith, free_rows): the class of x has free coordinates
    (U x)[i] for i in free_rows, in that order.
    """
    s = smith_normal_form(relators)
    free_rows = list(range(s.rank, relators.rows))
    return s, free_rows


def induced_free_matrix(r_src: IntMatrix, r_tgt: IntMatrix, f: IntMatrix) -> IntMatrix:
    """Matrix of the map induced by f on free parts of the two quotients.

    f maps generator exponent vectors of the source presentation to the
    target's (columns = source generators).  Requires that f send relators
    into the target relator lattice; the free-part block is then well
    defined and independent of representatives.
    """
    s_src, free_src = free_quotient_data(r_src)
    s_tgt, free_tgt = free_quotient_data(r_tgt)
    full = s_tgt.u.mul(f).mul(s_src.uinv)
    # torsion source coordinates must die in the free target coordinates
    for j in range(s_src.rank):
        if s_src.diagonal[j] > 1:
            for i in free_tgt:
                if full.data[i][j] != 0:
                    raise ValueError("map does not respect relator lattices")
    out = IntMatrix(len(free_tgt), len(free_src))
    for oi, i in enumerate(free_tgt):
        for oj, j in enumerate(free_src):
            out.data[oi][oj] = full.data[i][j]
    return out


def abelian_map_surjective(f: IntMatrix, r_tgt: IntMatrix) -> bool:
    """Whether f induces a surjection Z^n/im(r_src) -> Z^m/im(r_tgt):
    the columns of f together with the target relators must span Z^m."""
    stacked = f.hstack(r_tgt)
    s = smith_normal_form(stacked)
    return s.rank == f.rows and all(d == 1 for d in s.diagonal[: s.rank])


class HomologyGroup:
    """H_k of a chain complex.  The group is computed with the complex;
    chain representatives of its generators are computed, and lifted back
    to the original cells, the first time either list is read."""

    def __init__(self, group: AbelianGroup, source: _ChainReduction, degree: int):
        self.group = group
        self.degree = degree
        self._source = source

    @cached_property
    def _generators(self):
        return self._source.generators(self.degree)

    @property
    def free_generators(self) -> list:
        return self._generators[0]

    @property
    def torsion_generators(self) -> list:
        """[(chain vector, order)]"""
        return self._generators[1]

    def __str__(self):
        return str(self.group)


def homology(boundaries: list) -> list:
    """Homology of a chain complex from its boundary matrices.

    boundaries[i] is the matrix of d_{i+1}: C_{i+1} -> C_i (rows = C_i),
    an IntMatrix or a SparseMatrix.  Returns a HomologyGroup for each degree
    0 .. len(boundaries).

    After checking d.d = 0, pairs of cells (a, b) with <d b, a> = +-1 are
    removed by sparse elimination, which preserves integral homology.  Each
    nonzero residual boundary then gets one certified Smith form, whose
    rank and diagonal give the invariants.  Generators are found on the
    residual complex and lifted through the removed pairs only when asked
    for.
    """
    mats = [m if isinstance(m, SparseMatrix) else SparseMatrix.from_dense(m)
            for m in boundaries]
    for i in range(len(mats) - 1):
        if mats[i].cols != mats[i + 1].rows:
            raise NotAChainComplex(i + 1, "boundary matrix dimensions mismatch")
        if not mats[i].mul(mats[i + 1]).is_zero():
            raise NotAChainComplex(i + 1, "d.d != 0")
    red = _ChainReduction(mats)
    return [HomologyGroup(red.group(k), red, k) for k in range(len(mats) + 1)]


class _ChainReduction:
    """A chain complex reduced by unit pivots, with the removed pairs
    recorded so that residual chains can be lifted back.

    Removing a pair (a, b), b in C_k, a in C_{k-1}, <d b, a> = u = +-1, is
    one step of Gaussian elimination: every other k-cell c becomes
    c - (<d c, a>/u) b, which clears row a of d_k; the basis of C_{k-1}
    trades a for d b / u.  What is left is a chain complex on the other
    cells with the same homology, in which d_{k+1} loses row b and d_{k-1}
    column a.  A residual k-chain z lifts to z - (<d z, a>/u) b, with the
    boundary as it was when the pair was removed; the row of a at that
    moment is recorded for that."""

    def __init__(self, mats: list):
        n = len(mats)
        self.n = n
        self.dims = [mats[0].rows] + [m.cols for m in mats] if n else [0]
        # boundary i is d_{i+1}: column -> {row: coef}, row -> columns using it
        self.cols = [{j: dict(col) for j, col in enumerate(m.data)} for m in mats]
        self.row_users = []
        for m in mats:
            users = {r: set() for r in range(m.rows)}
            for j, col in enumerate(m.data):
                for r, _ in col:
                    users[r].add(j)
            self.row_users.append(users)
        self.removed = [set() for _ in self.dims]
        self.pairs = [[] for _ in mats]  # per boundary: (a, b, u, row of a)
        for i in reversed(range(n)):
            self._reduce(i)
        self.residual = [
            [j for j in range(d) if j not in gone]
            for d, gone in zip(self.dims, self.removed)
        ]
        # residual boundaries, dense, and their Smith forms; None when zero
        self.d = [self._residual_matrix(i) for i in range(n)]
        self.smith = [None if a is None else smith_normal_form(a) for a in self.d]
        del self.cols, self.row_users  # elimination state, not needed to lift

    def _reduce(self, i: int):
        """Remove unit pivots of boundary i until none is left, taking in
        each column the unit entry whose row is shortest (least fill)."""
        cols, users = self.cols[i], self.row_users[i]
        found = True
        while found:
            found = False
            for b in list(cols):
                best = None
                for r, x in cols[b].items():
                    if x in (1, -1) and (best is None or len(users[r]) < best[0]):
                        best = (len(users[r]), r)
                if best is not None:
                    self._remove_pair(i, best[1], b)
                    found = True

    def _remove_pair(self, i: int, a: int, b: int):
        cols, users = self.cols[i], self.row_users[i]
        col_b = cols.pop(b)
        u = col_b.pop(a)
        for r in col_b:
            users[r].discard(b)
        row = []
        for c in users.pop(a) - {b}:
            col = cols[c]
            x = col.pop(a)
            row.append((c, x))
            f = x * u  # x / u, as u = +-1
            for r, y in col_b.items():
                v = col.get(r, 0) - f * y
                if v:
                    if r not in col:
                        users[r].add(c)
                    col[r] = v
                else:
                    del col[r]
                    users[r].discard(c)
        self.pairs[i].append((a, b, u, row))
        self.removed[i].add(a)
        self.removed[i + 1].add(b)
        if i + 1 < self.n:  # row b of d_{i+2}
            for e in self.row_users[i + 1].pop(b):
                del self.cols[i + 1][e][b]
        if i > 0:  # column a of d_i
            for r in self.cols[i - 1].pop(a):
                self.row_users[i - 1][r].discard(a)

    def _residual_matrix(self, i: int):
        """Residual boundary i as a dense matrix, or None when it is zero."""
        rows, cols = self.residual[i], self.residual[i + 1]
        if not any(self.cols[i][b] for b in cols):
            return None
        where = {r: k for k, r in enumerate(rows)}
        dense = IntMatrix(len(rows), len(cols))
        for j, b in enumerate(cols):
            for r, x in self.cols[i][b].items():
                dense.data[where[r]][j] = x
        return dense

    def group(self, k: int) -> AbelianGroup:
        s_out = self.smith[k - 1] if k > 0 else None
        s_in = self.smith[k] if k < self.n else None
        rank = len(self.residual[k])
        rank -= (s_out.rank if s_out else 0) + (s_in.rank if s_in else 0)
        torsion = tuple(d for d in s_in.diagonal if d > 1) if s_in else ()
        return AbelianGroup(rank, torsion)

    def generators(self, k: int):
        """(free, torsion) chain representatives of H_k in original cells.

        With U A V = D the Smith form of the residual d_{k+1}, the columns
        of U^-1 are a basis of the residual C_k whose first rank members
        span the boundaries up to the factors d_i; those with d_i > 1 are
        the torsion generators (they are cycles, since d_i times them is).
        The free generators are the cycles among combinations of the
        remaining columns: a kernel basis of the residual d_k on them."""
        m = len(self.residual[k])
        s_in = self.smith[k] if k < self.n else None
        basis = s_in.uinv if s_in else IntMatrix.identity(m)
        r = s_in.rank if s_in else 0
        torsion = [
            (self._lift(k, basis.column(j)), s_in.diagonal[j])
            for j in range(r) if s_in.diagonal[j] > 1
        ]
        rest = IntMatrix.from_columns(
            [basis.column(j) for j in range(r, m)], nrows=m
        )
        d_k = self.d[k - 1] if k > 0 else None
        if d_k is not None:
            rest = rest.mul(kernel_basis(d_k.mul(rest)))
        free = [self._lift(k, rest.column(j)) for j in range(rest.cols)]
        return free, torsion

    def _lift(self, k: int, coords: list) -> list:
        """A residual k-chain as a chain on all k-cells."""
        z = {c: x for c, x in zip(self.residual[k], coords) if x}
        if k > 0:
            for _, b, u, row in reversed(self.pairs[k - 1]):
                s = sum(z.get(c, 0) * x for c, x in row)
                if s:
                    z[b] = -s * u
        vec = [0] * self.dims[k]
        for c, x in z.items():
            vec[c] = x
        return vec


def cohomology_ranks(homology_groups: list) -> list:
    """Universal coefficients over Z: rank H^n = rank H_n, torsion H^n =
    torsion H_{n-1}.  Input and output are ordered by degree."""
    out = []
    for i, h in enumerate(homology_groups):
        grp = h.group if isinstance(h, HomologyGroup) else h
        prev = homology_groups[i - 1] if i > 0 else None
        prev_t = ()
        if prev is not None:
            prev_t = (prev.group if isinstance(prev, HomologyGroup) else prev).torsion
        out.append(AbelianGroup(grp.rank, tuple(prev_t)))
    return out
