import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_homology import dense_homology

from eqpi1.intlinalg import (
    AbelianGroup,
    IntMatrix,
    NotAChainComplex,
    SparseMatrix,
    abelian_map_surjective,
    cohomology_ranks,
    free_quotient_data,
    homology,
    in_column_span,
    induced_free_matrix,
    kernel_basis,
    quotient_invariants,
    smith_normal_form,
    solve_columns,
)

matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(IntMatrix.from_rows)
    )
)


def minor_gcd(a, k):
    """gcd of all k x k minors; 0 when there are none or all vanish."""
    g = 0
    for ri in itertools.combinations(range(a.rows), k):
        for ci in itertools.combinations(range(a.cols), k):
            sub = IntMatrix.from_rows(
                [[a.data[i][j] for j in ci] for i in ri]
            )
            g = math.gcd(g, sub.det())
    return g


def test_matrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.rows == 2 and a.cols == 2
    assert a.column(1) == [2, 4]
    assert a.transpose().data == [[1, 3], [2, 4]]
    assert a.mul_vector([1, 1]) == [3, 7]
    assert a.mul(IntMatrix.identity(2)) == a
    assert (a * a).data == [[7, 10], [15, 22]]
    assert a.hstack(a).cols == 4
    assert not a.is_zero()
    assert IntMatrix(2, 3).is_zero()
    b = a.copy()
    b.data[0][0] = 99
    assert a.data[0][0] == 1
    assert a != b
    assert "IntMatrix" in repr(a)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]).mul(IntMatrix.from_rows([[1, 2]]))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]).mul_vector([1])
    with pytest.raises(ValueError):
        IntMatrix(2, 1).hstack(IntMatrix(3, 1))
    with pytest.raises(ValueError):
        IntMatrix(2, 3).det()


def test_from_columns():
    m = IntMatrix.from_columns([[1, 2], [3, 4]])
    assert m.data == [[1, 3], [2, 4]]
    empty = IntMatrix.from_columns([], nrows=3)
    assert empty.rows == 3 and empty.cols == 0


def test_det():
    assert IntMatrix(0, 0).det() == 1
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert a.det() == 624
    assert not a.is_unimodular()
    assert IntMatrix.from_rows([[1, 5], [0, -1]]).is_unimodular()


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_det_alternating_in_rows(a):
    if a.rows != a.cols or a.rows < 2:
        return
    swapped = [r[:] for r in a.data]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert IntMatrix.from_rows(swapped).det() == -a.det()


def check_smith_certificates(a):
    s = smith_normal_form(a)
    assert s.u.is_unimodular()
    assert s.v.is_unimodular()
    assert s.u.mul(a).mul(s.v) == s.d
    assert s.u.mul(s.uinv) == IntMatrix.identity(a.rows)
    assert s.v.mul(s.vinv) == IntMatrix.identity(a.cols)
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d.data[i][j] == 0
    assert all(d > 0 for d in s.diagonal[: s.rank])
    assert all(d == 0 for d in s.diagonal[s.rank :])
    for i in range(s.rank - 1):
        assert s.diagonal[i + 1] % s.diagonal[i] == 0
    return s


def test_smith_fixed_cases():
    s = check_smith_certificates(
        IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    )
    assert s.diagonal[: s.rank] == [2, 2, 156]
    assert check_smith_certificates(IntMatrix(3, 2)).rank == 0
    assert check_smith_certificates(IntMatrix(0, 4)).rank == 0
    assert check_smith_certificates(IntMatrix.identity(4)).diagonal == [1] * 4
    s = check_smith_certificates(IntMatrix.from_rows([[6, 10, 15]]))
    assert s.diagonal[:1] == [1]
    s = check_smith_certificates(IntMatrix.from_rows([[4], [6]]))
    assert s.diagonal[:1] == [2]


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_smith_certificates_random(a):
    check_smith_certificates(a)


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_smith_matches_minor_gcds(a):
    s = smith_normal_form(a)
    prod = 1
    for k in range(1, min(a.rows, a.cols, 3) + 1):
        g = minor_gcd(a, k)
        if k <= s.rank:
            prod *= s.diagonal[k - 1]
            assert g == prod
        else:
            assert g == 0


def test_kernel_basis():
    a = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(a)
    assert k.cols == 2
    assert a.mul(k).is_zero()
    # the kernel basis is primitive: its Smith diagonal is all ones
    s = smith_normal_form(k)
    assert s.diagonal[: s.rank] == [1] * k.cols
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


def test_solve_columns():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    b = IntMatrix.from_columns([[4, 9]])
    y = solve_columns(a, b)
    assert a.mul(y) == b
    with pytest.raises(ValueError):
        solve_columns(a, IntMatrix.from_columns([[1, 0]]))
    with pytest.raises(ValueError):
        solve_columns(IntMatrix(2, 0), IntMatrix.from_columns([[1, 0]]))


@given(matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_solve_columns_round_trip(a, data):
    y = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=2, max_size=2),
            min_size=a.cols,
            max_size=a.cols,
        )
    )
    b = a.mul(IntMatrix(a.cols, 2, y))
    solved = solve_columns(a, b)
    assert a.mul(solved) == b


def test_in_column_span():
    a = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert in_column_span(a, [4, -2])
    assert not in_column_span(a, [1, 0])
    assert in_column_span(IntMatrix(2, 0), [0, 0])
    assert not in_column_span(IntMatrix(2, 0), [0, 1])


def test_abelian_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3)) == "Z^3"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert str(AbelianGroup(0, (4,))) == "Z/4"
    assert AbelianGroup(0).is_trivial
    assert not AbelianGroup(0, (2,)).is_trivial


def test_quotient_invariants():
    assert quotient_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])) == AbelianGroup(0, (6,))
    assert quotient_invariants(IntMatrix.from_rows([[2, 0], [0, 2]])) == AbelianGroup(0, (2, 2))
    assert quotient_invariants(IntMatrix(2, 0)) == AbelianGroup(2)
    assert quotient_invariants(IntMatrix.from_rows([[1], [0]])) == AbelianGroup(1)
    assert quotient_invariants(IntMatrix.from_rows([[0], [0]])) == AbelianGroup(2)


def test_free_quotient_data_kills_relators():
    r = IntMatrix.from_rows([[2, 1], [0, 3], [4, 0]])
    s, free_rows = free_quotient_data(r)
    assert len(free_rows) == 3 - s.rank
    # relator columns have zero free coordinates
    ur = s.u.mul(r)
    for j in range(r.cols):
        for i in free_rows:
            assert ur.data[i][j] == 0


def test_induced_free_matrix():
    # source and target Z + Z/2 on generators (x, y) with relator 2y
    r = IntMatrix.from_rows([[0], [2]])
    f = IntMatrix.from_rows([[1, 0], [1, 2]])
    out = induced_free_matrix(r, r, f)
    assert out.rows == 1 and out.cols == 1
    assert abs(out.data[0][0]) == 1
    # a torsion generator cannot map to a free generator
    with pytest.raises(ValueError):
        induced_free_matrix(
            IntMatrix.from_rows([[2]]), IntMatrix(1, 0), IntMatrix.from_rows([[1]])
        )


def test_abelian_map_surjective():
    none = IntMatrix(1, 0)
    assert abelian_map_surjective(IntMatrix.from_rows([[1]]), none)
    assert not abelian_map_surjective(IntMatrix.from_rows([[2]]), none)
    # doubling hits everything mod 3
    assert abelian_map_surjective(
        IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])
    )
    assert not abelian_map_surjective(
        IntMatrix.from_rows([[2, 0], [0, 1]]), IntMatrix(2, 0)
    )


def test_homology_circle():
    hs = homology([IntMatrix(1, 1)])
    assert [str(h.group) for h in hs] == ["Z", "Z"]
    assert hs[1].free_generators == [[1]]


def test_homology_torus_cw():
    hs = homology([IntMatrix(1, 2), IntMatrix(2, 1)])
    assert [str(h.group) for h in hs] == ["Z", "Z^2", "Z"]


def test_homology_projective_plane():
    hs = homology([IntMatrix(1, 1), IntMatrix.from_rows([[2]])])
    assert [str(h.group) for h in hs] == ["Z", "Z/2", "0"]
    (chain, order) = hs[1].torsion_generators[0]
    assert order == 2 and chain == [1]


def test_homology_two_spheres_wedge():
    # one vertex, no edges, two 2-cells with zero boundary
    hs = homology([IntMatrix(1, 0), IntMatrix(0, 2)])
    assert [str(h.group) for h in hs] == ["Z", "0", "Z^2"]


def test_homology_rejects_non_complexes():
    with pytest.raises(NotAChainComplex):
        homology([IntMatrix.from_rows([[1, 0]]), IntMatrix.from_rows([[1], [0]])])
    with pytest.raises(NotAChainComplex):
        homology([IntMatrix(1, 2), IntMatrix(3, 1)])


def test_cohomology_ranks():
    rp2 = [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)]
    cs = cohomology_ranks(rp2)
    assert [str(c) for c in cs] == ["Z", "0", "Z/2"]
    torus = homology([IntMatrix(1, 2), IntMatrix(2, 1)])
    assert [str(c) for c in cohomology_ranks(torus)] == ["Z", "Z^2", "Z"]


@given(matrices, matrices)
@settings(max_examples=100, deadline=None)
def test_sparse_matrix_agrees_with_dense(a, b):
    sa = SparseMatrix.from_dense(a)
    assert (sa.rows, sa.cols) == (a.rows, a.cols)
    assert sa.is_zero() == a.is_zero()
    if a.cols == b.rows:
        product = sa * SparseMatrix.from_dense(b)
        want = SparseMatrix.from_dense(a.mul(b))
        assert [dict(c) for c in product.data] == [dict(c) for c in want.data]


@st.composite
def unimodular(draw, n):
    """(P, P^-1) for a random product of integer row operations on n rows."""
    p, p_inv = IntMatrix.identity(n), IntMatrix.identity(n)
    if n == 0:
        return p, p_inv
    index = st.integers(0, n - 1)
    for i, j, c in draw(
        st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=6)
    ):
        if i == j:  # negate row i; the inverse negates column i
            p.data[i] = [-x for x in p.data[i]]
            for row in p_inv.data:
                row[i] = -row[i]
        else:  # row i += c * row j; the inverse: column j -= c * column i
            p.data[i] = [x + c * y for x, y in zip(p.data[i], p.data[j])]
            for row in p_inv.data:
                row[j] -= c * row[i]
    return p, p_inv


@st.composite
def chain_complexes(draw):
    """Boundary matrices of a random chain complex: a direct sum of free
    cells and blocks Z --e--> Z with e in 1, 2, 3, 6, in random bases.
    Degrees may be empty."""
    n = draw(st.integers(1, 3))
    free = draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1))
    blocks = draw(
        st.lists(
            st.lists(st.sampled_from([1, 2, 3, 6]), max_size=2),
            min_size=n, max_size=n,
        )
    )
    # C_k: free cells, then targets of blocks[k], then sources of blocks[k-1]
    up = [len(blocks[k]) if k < n else 0 for k in range(n + 1)]
    dims = [free[k] + up[k] + (len(blocks[k - 1]) if k else 0) for k in range(n + 1)]
    bases = [draw(unimodular(d)) for d in dims]
    mats = []
    for k in range(n):
        d = IntMatrix(dims[k], dims[k + 1])
        for t, e in enumerate(blocks[k]):
            d.data[free[k] + t][free[k + 1] + up[k + 1] + t] = e
        mats.append(bases[k][0].mul(d).mul(bases[k + 1][1]))
    return mats


@given(chain_complexes())
@settings(max_examples=200, deadline=None)
def test_homology_matches_dense_oracle(mats):
    got = homology(mats)
    assert [h.group for h in got] == [h.group for h in dense_homology(mats)]
    for k, h in enumerate(got):
        assert len(h.free_generators) == h.group.rank
        assert [d for _, d in h.torsion_generators] == list(h.group.torsion)
        if k > 0:
            d_k = mats[k - 1]
            for z in h.free_generators + [z for z, _ in h.torsion_generators]:
                assert d_k.mul_vector(z) == [0] * d_k.rows
        if k == len(mats):
            continue
        image = mats[k]
        for z, d in h.torsion_generators:
            assert in_column_span(image, [d * x for x in z])
            assert not any(
                in_column_span(image, [m * x for x in z]) for m in range(1, d)
            )
        # free generators stay independent modulo boundaries
        both = image.hstack(
            IntMatrix.from_columns(h.free_generators, nrows=image.rows)
        )
        assert smith_normal_form(both).rank == (
            smith_normal_form(image).rank + h.group.rank
        )
