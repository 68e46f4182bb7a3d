import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_homology import dense_homology
from dense_matrix import (
    abelian_map_surjective,
    copy,
    dense_quotient_invariants,
    det,
    from_rows,
    hstack,
    in_column_span,
    is_unimodular,
    kernel_basis,
    mul_vector,
    solve_columns,
    transpose,
)

from eqpi1 import intlinalg
from eqpi1.complexes import homology_of_complex
from eqpi1.documents import parse_document
from eqpi1.functors import induced_functor_from_complex
from eqpi1.groupoids import (
    Gen,
    GroupPresentation,
    PresentedGroupoid,
    Word,
    words_equal_verdict,
)
from eqpi1.groups import family_all
from eqpi1.realize import build_space
from eqpi1.intlinalg import (
    AbelianGroup,
    IntMatrix,
    NotAChainComplex,
    SparseMatrix,
    cohomology_ranks,
    free_quotient_data,
    homology,
    induced_free_matrix,
    quotient_invariants,
    smith_normal_form,
)
from eqpi1.verdicts import LEVEL_ABELIANIZED, REFUTED

matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(from_rows)
    )
)


def minor_gcd(a, k):
    """gcd of all k x k minors; 0 when there are none or all vanish."""
    g = 0
    for ri in itertools.combinations(range(a.rows), k):
        for ci in itertools.combinations(range(a.cols), k):
            sub = from_rows(
                [[a.data[i][j] for j in ci] for i in ri]
            )
            g = math.gcd(g, det(sub))
    return g


def test_matrix_basics():
    a = from_rows([[1, 2], [3, 4]])
    assert a.rows == 2 and a.cols == 2
    assert a.column(1) == [2, 4]
    assert transpose(a).data == [[1, 3], [2, 4]]
    assert mul_vector(a, [1, 1]) == [3, 7]
    assert a.mul(IntMatrix.identity(2)) == a
    assert (a * a).data == [[7, 10], [15, 22]]
    assert hstack(a, a).cols == 4
    assert not a.is_zero()
    assert IntMatrix(2, 3).is_zero()
    b = copy(a)
    b.data[0][0] = 99
    assert a.data[0][0] == 1
    assert a != b
    assert "IntMatrix" in repr(a)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        from_rows([[1, 2]]).mul(from_rows([[1, 2]]))
    with pytest.raises(ValueError):
        mul_vector(from_rows([[1, 2]]), [1])
    with pytest.raises(ValueError):
        hstack(IntMatrix(2, 1), IntMatrix(3, 1))
    with pytest.raises(ValueError):
        det(IntMatrix(2, 3))


def test_from_columns():
    m = IntMatrix.from_columns([[1, 2], [3, 4]])
    assert m.data == [[1, 3], [2, 4]]
    empty = IntMatrix.from_columns([], nrows=3)
    assert empty.rows == 3 and empty.cols == 0


def test_det():
    assert det(IntMatrix(0, 0)) == 1
    assert det(IntMatrix.identity(3)) == 1
    assert det(from_rows([[2, 0], [0, 3]])) == 6
    assert det(from_rows([[0, 1], [1, 0]])) == -1
    a = from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert det(a) == 624
    assert not is_unimodular(a)
    assert is_unimodular(from_rows([[1, 5], [0, -1]]))


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_det_alternating_in_rows(a):
    if a.rows != a.cols or a.rows < 2:
        return
    swapped = [r[:] for r in a.data]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert det(from_rows(swapped)) == -det(a)


def check_smith_certificates(a):
    s = smith_normal_form(a)
    assert is_unimodular(s.u)
    assert is_unimodular(s.v)
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
        from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    )
    assert s.diagonal[: s.rank] == [2, 2, 156]
    assert check_smith_certificates(IntMatrix(3, 2)).rank == 0
    assert check_smith_certificates(IntMatrix(0, 4)).rank == 0
    assert check_smith_certificates(IntMatrix.identity(4)).diagonal == [1] * 4
    s = check_smith_certificates(from_rows([[6, 10, 15]]))
    assert s.diagonal[:1] == [1]
    s = check_smith_certificates(from_rows([[4], [6]]))
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
    a = from_rows([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(a)
    assert k.cols == 2
    assert a.mul(k).is_zero()
    # the kernel basis is primitive: its Smith diagonal is all ones
    s = smith_normal_form(k)
    assert s.diagonal[: s.rank] == [1] * k.cols
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


# solve_columns, in_column_span and abelian_map_surjective are the dense
# oracles of tests/dense_matrix.py; these tests check the oracles
def test_solve_columns():
    a = from_rows([[2, 0], [0, 3]])
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
    a = from_rows([[2, 0], [0, 2]])
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
    trivial = AbelianGroup(0)
    assert trivial.rank == 0 and not trivial.torsion
    cyclic = AbelianGroup(0, (2,))
    assert not (cyclic.rank == 0 and not cyclic.torsion)


def test_quotient_invariants():
    assert quotient_invariants(from_rows([[2, 0], [0, 3]])) == AbelianGroup(0, (6,))
    assert quotient_invariants(from_rows([[2, 0], [0, 2]])) == AbelianGroup(0, (2, 2))
    assert quotient_invariants(IntMatrix(2, 0)) == AbelianGroup(2)
    assert quotient_invariants(from_rows([[1], [0]])) == AbelianGroup(1)
    assert quotient_invariants(from_rows([[0], [0]])) == AbelianGroup(2)
    sparse = SparseMatrix.from_dense(from_rows([[2, 0], [0, 3]]))
    assert quotient_invariants(sparse) == AbelianGroup(0, (6,))


def test_free_quotient_data_kills_relators():
    r = from_rows([[2, 1], [0, 3], [4, 0]])
    s, free_rows = free_quotient_data(r)
    assert len(free_rows) == 3 - s.rank
    # relator columns have zero free coordinates
    ur = s.u.mul(r)
    for j in range(r.cols):
        for i in free_rows:
            assert ur.data[i][j] == 0


def test_induced_free_matrix():
    # source and target Z + Z/2 on generators (x, y) with relator 2y
    r = from_rows([[0], [2]])
    f = from_rows([[1, 0], [1, 2]])
    out = induced_free_matrix(r, r, f)
    assert out.rows == 1 and out.cols == 1
    assert abs(out.data[0][0]) == 1
    # a torsion generator cannot map to a free generator
    with pytest.raises(ValueError):
        induced_free_matrix(
            from_rows([[2]]), IntMatrix(1, 0), from_rows([[1]])
        )


def test_abelian_map_surjective():
    none = IntMatrix(1, 0)
    assert abelian_map_surjective(from_rows([[1]]), none)
    assert not abelian_map_surjective(from_rows([[2]]), none)
    # doubling hits everything mod 3
    assert abelian_map_surjective(
        from_rows([[2]]), from_rows([[3]])
    )
    assert not abelian_map_surjective(
        from_rows([[2, 0], [0, 1]]), IntMatrix(2, 0)
    )


# small integer matrices with many zero entries, rows and columns; no
# rows or no columns (an empty relator set) included
entries = st.one_of(st.just(0), st.integers(-6, 6))


def matrix_of(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: IntMatrix(rows, cols, data))


def word_of(vec):
    """A word whose exponent sums over g0, g1, ... are vec."""
    return tuple(
        (f"g{i}", 1 if x > 0 else -1)
        for i, x in enumerate(vec)
        for _ in range(abs(x))
    )


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_questions_agree_with_the_dense_oracles(n, k, m, data):
    # n generators, k relators, m images of a map into Z^n / relators
    rels = data.draw(matrix_of(n, k))
    vec = data.draw(st.lists(entries, min_size=n, max_size=n))
    f = data.draw(matrix_of(n, m))
    gens = tuple(f"g{i}" for i in range(n))
    words = tuple(word_of(rels.column(j)) for j in range(k))
    # abelianization by the sparse reduction
    pres = GroupPresentation(gens, words)
    want = dense_quotient_invariants(rels)
    assert quotient_invariants(rels) == want
    assert pres.abelianization() == want
    # loop membership, the way words_equal_verdict decides it on a
    # one-object groupoid whose isotropy is pres
    p = PresentedGroupoid(
        ("x",), tuple(Gen(g, "x", "x") for g in gens),
        tuple(Word(w, at="x") for w in words),
    )
    v = words_equal_verdict(p, Word(word_of(vec), at="x"), Word((), at="x"))
    assert (v.status == REFUTED) == (not in_column_span(rels, vec))
    if v.status == REFUTED:
        assert v.level == LEVEL_ABELIANIZED
        assert v.witness["abelianized"] == vec
    # surjectivity: the target with the images killed is trivial
    images = tuple(word_of(f.column(j)) for j in range(m))
    onto = GroupPresentation(gens, words + images).abelianization()
    assert (onto == AbelianGroup(0)) == abelian_map_surjective(f, rels)


def test_homology_circle():
    hs = homology([IntMatrix(1, 1)])
    assert [str(h.group) for h in hs] == ["Z", "Z"]


def test_homology_torus_cw():
    hs = homology([IntMatrix(1, 2), IntMatrix(2, 1)])
    assert [str(h.group) for h in hs] == ["Z", "Z^2", "Z"]


def test_homology_projective_plane():
    hs = homology([IntMatrix(1, 1), from_rows([[2]])])
    assert [str(h.group) for h in hs] == ["Z", "Z/2", "0"]


def test_homology_two_spheres_wedge():
    # one vertex, no edges, two 2-cells with zero boundary
    hs = homology([IntMatrix(1, 0), IntMatrix(0, 2)])
    assert [str(h.group) for h in hs] == ["Z", "0", "Z^2"]


def test_homology_rejects_non_complexes():
    with pytest.raises(NotAChainComplex):
        homology([from_rows([[1, 0]]), from_rows([[1], [0]])])
    with pytest.raises(NotAChainComplex):
        homology([IntMatrix(1, 2), IntMatrix(3, 1)])


def test_cohomology_ranks():
    rp2 = [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)]
    cs = cohomology_ranks(rp2)
    assert [str(c) for c in cs] == ["Z", "0", "Z/2"]
    torus = homology([IntMatrix(1, 2), IntMatrix(2, 1)])
    assert [str(c) for c in cohomology_ranks([h.group for h in torus])] == [
        "Z", "Z^2", "Z",
    ]


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
def chain_complexes(draw, length=st.integers(1, 3), factors=(1, 2, 3, 6),
                    max_free=2):
    """Boundary matrices of a random chain complex of the drawn length: a
    direct sum of free cells and blocks Z --e--> Z with e in factors, in
    random bases.  Degrees may be empty."""
    n = draw(length)
    free = draw(
        st.lists(st.integers(0, max_free), min_size=n + 1, max_size=n + 1)
    )
    blocks = draw(
        st.lists(
            st.lists(st.sampled_from(factors), max_size=2),
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


@st.composite
def block_sums(draw):
    """Boundary matrices of a direct sum of small random chain complexes,
    each in its own random basis, with the cells of every degree shuffled;
    the residual then splits into several blocks.  Factors 2, 3, 4 and 6
    in different summands give torsion that is no divisibility chain until
    merged.  Summands may have zero boundaries, and degrees may be empty."""
    n = draw(st.integers(1, 3))
    parts = draw(st.lists(
        chain_complexes(st.just(n), (1, 2, 3, 4, 6), max_free=1), max_size=4
    ))
    sizes = [[p[0].rows] + [m.cols for m in p] for p in parts]
    dims = [sum(s[k] for s in sizes) for k in range(n + 1)]
    perms = [draw(st.permutations(range(d))) for d in dims]
    mats = [IntMatrix(dims[k], dims[k + 1]) for k in range(n)]
    offset = [0] * (n + 1)
    for p, s in zip(parts, sizes):
        for k, m in enumerate(p):
            for i, row in enumerate(m.data):
                for j, x in enumerate(row):
                    r = perms[k][offset[k] + i]
                    mats[k].data[r][perms[k + 1][offset[k + 1] + j]] = x
        offset = [o + d for o, d in zip(offset, s)]
    return mats


def check_homology(mats):
    """homology(mats) has the dense oracle's groups."""
    got = homology(mats)
    assert [h.group for h in got] == [h.group for h in dense_homology(mats)]
    return got


@given(chain_complexes())
@settings(max_examples=200, deadline=None)
def test_homology_matches_dense_oracle(mats):
    check_homology(mats)


@given(block_sums())
@settings(max_examples=100, deadline=None)
def test_block_sum_homology_matches_dense_oracle(mats):
    check_homology(mats)


@pytest.mark.parametrize("factors, want", [
    ((2, 3), "Z + Z/6"),
    ((4, 6), "Z + Z/2 + Z/12"),
    ((6, 4, 2), "Z + Z/2 + Z/2 + Z/12"),
    ((3, 3), "Z + Z/3 + Z/3"),
])
def test_torsion_merges_across_blocks(factors, want):
    # d_2 is diag(factors) between a zero row and a zero column: every
    # factor is its own block, and the free cells lie in none
    t = len(factors)
    d2 = IntMatrix(t + 1, t + 1)
    for i, e in enumerate(factors):
        d2.data[i + 1][i] = e
    for d1 in (IntMatrix(0, t + 1), IntMatrix(1, t + 1)):
        hs = check_homology([d1, d2])
        assert str(hs[1].group) == want
        assert str(hs[2].group) == "Z"


def test_zero_and_empty_boundaries():
    for mats in (
        [IntMatrix(0, 3)],
        [IntMatrix(3, 0)],
        [IntMatrix(0, 0), IntMatrix(0, 2)],
        [IntMatrix(2, 3), IntMatrix(3, 0)],
    ):
        hs = check_homology(mats)
        assert all(not h.group.torsion for h in hs)


def record_smith_shapes(monkeypatch) -> list:
    """The shapes of the matrices smith_normal_form is called on, from now."""
    shapes = []
    original = intlinalg.smith_normal_form

    def recording(a):
        shapes.append((a.rows, a.cols))
        return original(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    return shapes


def test_residual_is_never_densified_whole(monkeypatch):
    # 105 disjoint -3 entries spread over 215 rows: 105 blocks of 1x1,
    # each its own Smith form
    rows = [2 * j + 1 for j in range(105)]
    d1 = SparseMatrix(215, 105, [((r, -3),) for r in rows])
    shapes = record_smith_shapes(monkeypatch)
    hs = homology([d1])
    assert [str(h) for h in hs] == ["Z^110" + " + Z/3" * 105, "0"]
    assert shapes == []


def test_blocks_larger_than_one_entry_take_a_certified_smith_form(monkeypatch):
    # rows 0, 1 and columns 0, 1 form a connected 2x2 block with no unit
    # entry; row 2 and column 2 a 1x1 block.  Z/2 + Z/4 + Z/3 is no
    # divisibility chain, so the factors merge through a 3x3 Smith form
    d1 = IntMatrix(3, 3, [[2, 0, 0], [2, 4, 0], [0, 0, 3]])
    shapes = record_smith_shapes(monkeypatch)
    hs = check_homology([d1])
    assert [str(h) for h in hs] == ["Z/2 + Z/12", "0"]
    assert shapes == [(2, 2), (3, 3)]


@pytest.fixture(scope="module")
def torsion_cone(bench_inputs):
    """The realized C5 cone with Z/3 loops, as the torsion-c5 workload
    builds it."""
    doc = parse_document(bench_inputs.cone(5, 0, loop_power=3))
    (x,) = doc.complexes.values()
    return build_space(induced_functor_from_complex(x, family_all(x.group))).space


def test_generators_densify_no_more_than_a_block(monkeypatch, torsion_cone):
    # the torsion cone n=5: unit pivots leave every residual block 1x1,
    # each its own Smith form, so homology takes no Smith form at all
    shapes = record_smith_shapes(monkeypatch)
    hs = homology_of_complex(torsion_cone)
    assert [(h.group.rank, h.group.torsion) for h in hs] == [
        (1, ()), (0, (3,) * 5), (105, (3,) * 105), (0, ()),
    ]
    assert shapes == []


def test_benchmark_reads_groups_off_homology(torsion_cone):
    # what perfbench/run.py does with a realized space's homology
    hom = homology_of_complex(torsion_cone)
    assert all(str(h) == str(h.group) for h in hom)
    coh = cohomology_ranks([h.group for h in hom])
    assert [str(c) for c in coh] == [
        "Z", "0", "Z^105" + " + Z/3" * 5, " + ".join(["Z/3"] * 105),
    ]
