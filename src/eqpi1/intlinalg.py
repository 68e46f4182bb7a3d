"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints: Smith normal form
with unimodular transformation certificates, finitely generated abelian
group invariants, sparse boundary matrices, and the groups of chain-complex
homology by unit-pivot reduction followed by one certified Smith form per
connected block of each residual boundary larger than 1x1 (a single entry
is its own Smith form).  Abelianization shares that
reduction: Z^n modulo a relator lattice is H_0 of the one-boundary complex
of its relator matrix.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

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

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

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

    def to_dense(self) -> IntMatrix:
        m = IntMatrix(self.rows, self.cols)
        for j, col in enumerate(self.data):
            for r, c in col:
                m.data[r][j] = c
        return m

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

    uinv and vinv are the exact inverses, maintained during elimination and
    checked with the factorization: they certify that U and V are
    unimodular.  induced_free_matrix also reads uinv.
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


def quotient_invariants(relators) -> AbelianGroup:
    """Invariants of Z^n / column-span(relators); rows index the generators.

    relators is an IntMatrix or a SparseMatrix.  The quotient is H_0 of the
    complex whose one boundary is relators, so it is read off the same
    unit-pivot and block reduction as homology."""
    if not isinstance(relators, SparseMatrix):
        relators = SparseMatrix.from_dense(relators)
    return _ChainReduction([relators]).group(0)


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


@dataclass(frozen=True)
class HomologyGroup:
    """H_k of a chain complex."""

    group: AbelianGroup

    def __str__(self):
        return str(self.group)


def homology(boundaries: list) -> list:
    """Homology of a chain complex from its boundary matrices.

    boundaries[i] is the matrix of d_{i+1}: C_{i+1} -> C_i (rows = C_i),
    an IntMatrix or a SparseMatrix.  Returns a HomologyGroup for each degree
    0 .. len(boundaries).

    After checking d.d = 0, pairs of cells (a, b) with <d b, a> = +-1 are
    removed by sparse elimination, which preserves integral homology.  Each
    residual boundary is then split into the connected components of its
    row-column graph (Dumas, Saunders and Villard, JSC 2001), and each
    component larger than 1x1 gets its own certified Smith form; a single
    entry a is its own, with U = (sign a) and V = (1).  The ranks add up,
    and the non-unit factors are merged into one divisibility chain.  The
    residual is never densified whole.
    """
    mats = [m if isinstance(m, SparseMatrix) else SparseMatrix.from_dense(m)
            for m in boundaries]
    for i in range(len(mats) - 1):
        if mats[i].cols != mats[i + 1].rows:
            raise NotAChainComplex(i + 1, "boundary matrix dimensions mismatch")
        if not mats[i].mul(mats[i + 1]).is_zero():
            raise NotAChainComplex(i + 1, "d.d != 0")
    return unchecked_homology(mats)


def unchecked_homology(mats: list) -> list:
    """homology() of SparseMatrix boundaries already known to form a chain
    complex; nothing is checked."""
    red = _ChainReduction(mats)
    return [HomologyGroup(red.group(k)) for k in range(len(mats) + 1)]


class _ChainReduction:
    """A chain complex reduced by unit pivots, and the invariant factors
    of the connected blocks of each residual boundary: |a| for a 1x1 block
    (a), else the diagonal of the block's certified Smith form.

    Removing a pair (a, b), b in C_k, a in C_{k-1}, <d b, a> = u = +-1, is
    one step of Gaussian elimination: every other k-cell c becomes
    c - (<d c, a>/u) b, which clears row a of d_k; the basis of C_{k-1}
    trades a for d b / u.  What is left is a chain complex on the other
    cells with the same homology, in which d_{k+1} loses row b and d_{k-1}
    column a."""

    def __init__(self, mats: list):
        n = len(mats)
        self.n = n
        # boundary i is d_{i+1}: column -> {row: coef}, row -> columns using it
        self.cols = [{j: dict(col) for j, col in enumerate(m.data)} for m in mats]
        self.row_users = []
        for m in mats:
            users = {r: set() for r in range(m.rows)}
            for j, col in enumerate(m.data):
                for r, _ in col:
                    users[r].add(j)
            self.row_users.append(users)
        # cells per degree, less those removed in pairs
        self.residual = [mats[0].rows] + [m.cols for m in mats] if n else [0]
        for i in reversed(range(n)):
            self._reduce(i)
        # boundary i -> the nonzero invariant factors of its blocks
        self.factors = [
            [d for a in _components(cols) for d in _diagonal(a) if d]
            for cols in self.cols
        ]

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
        for c in users.pop(a) - {b}:
            col = cols[c]
            f = col.pop(a) * u  # <d c, a> / u, as u = +-1
            for r, y in col_b.items():
                v = col.get(r, 0) - f * y
                if v:
                    if r not in col:
                        users[r].add(c)
                    col[r] = v
                else:
                    del col[r]
                    users[r].discard(c)
        self.residual[i] -= 1
        self.residual[i + 1] -= 1
        if i + 1 < self.n:  # row b of d_{i+2}
            for e in self.row_users[i + 1].pop(b):
                del self.cols[i + 1][e][b]
        if i > 0:  # column a of d_i
            for r in self.cols[i - 1].pop(a):
                self.row_users[i - 1][r].discard(a)

    def group(self, k: int) -> AbelianGroup:
        rank = self.residual[k] - sum(  # the ranks of d_k and d_{k+1}
            len(ds) for ds in self.factors[max(k - 1, 0):k + 1]
        )
        if k == self.n:
            return AbelianGroup(rank)
        ds = sorted(d for d in self.factors[k] if d > 1)
        if any(y % x for x, y in zip(ds, ds[1:])):
            # not a divisibility chain: merge them through the Smith form
            # of their diagonal matrix (Z/2 + Z/3 is Z/6)
            diag = IntMatrix(len(ds), len(ds))
            for t, d in enumerate(ds):
                diag.data[t][t] = d
            ds = [d for d in smith_normal_form(diag).diagonal if d > 1]
        return AbelianGroup(rank, tuple(ds))


def _diagonal(a) -> list:
    """The Smith diagonal of a block.  A 1x1 block, given as its single
    entry a, is its own Smith form: U = (sign a) and V = (1) give
    U (a) V = (|a|)."""
    if isinstance(a, int):
        return [abs(a)]
    return smith_normal_form(a).diagonal


def _components(columns: dict) -> list:
    """The connected blocks of the row-column graph of a sparse matrix
    {column: {row: coef}}, in the order of their least column: a 1x1
    block as its single entry, any other as a dense IntMatrix with its
    rows and columns sorted.  Zero rows and columns belong to no block."""
    users = {}
    for c, col in columns.items():
        for r in col:
            users.setdefault(r, []).append(c)
    seen = set()
    blocks = []
    for b in sorted(columns):
        if b in seen or not columns[b]:
            continue
        seen.add(b)
        if len(columns[b]) == 1:
            (r, x), = columns[b].items()
            if len(users[r]) == 1:  # row r meets column b only
                blocks.append(x)
                continue
        block_rows, block_cols, stack = set(), [b], [b]
        while stack:
            for r in columns[stack.pop()]:
                if r not in block_rows:
                    block_rows.add(r)
                    for c in users[r]:
                        if c not in seen:
                            seen.add(c)
                            block_cols.append(c)
                            stack.append(c)
        rows = sorted(block_rows)
        block_cols.sort()
        where = {r: k for k, r in enumerate(rows)}
        a = IntMatrix(len(rows), len(block_cols))
        for j, c in enumerate(block_cols):
            for r, x in columns[c].items():
                a.data[where[r]][j] = x
        blocks.append(a)
    return blocks


def cohomology_ranks(homology_groups: list) -> list:
    """Universal coefficients over Z: rank H^n = rank H_n, torsion H^n =
    torsion H_{n-1}.  Takes and returns AbelianGroups ordered by degree."""
    return [
        AbelianGroup(h.rank, homology_groups[i - 1].torsion if i else ())
        for i, h in enumerate(homology_groups)
    ]
