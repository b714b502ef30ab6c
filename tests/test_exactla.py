from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import fraction_exactla as fx
from pairwise_oracles import basis_vectors, lincomb, solve_many, vec_add, \
    vec_scale, zero_vec
from spencerkit import exactla
from spencerkit.errors import DimensionMismatch, OracleMismatch
from spencerkit.exactla import ExactMatrix, HomAction, NoSolution, \
    Subspace, block_diag, flatten_columns, is_positive_definite, kron, \
    ldlt_pivots, pair_action, pair_embedding, pair_map, rat, rat_str, \
    solve_affine, solve_matrix, tensor_index_maps, vec, vec_is_zero, vstack
from column_actions import apply_columns
from kron_differentials import cyclic_embedding


def _rows(m):
    """The entries of a matrix as a list of rows."""
    return [list(m.row_tuple(i)) for i in range(m.rows)]


def test_rational_serialisation():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-7, 2)) == "-7/2"
    assert rat_str(Fraction(5)) == "5"
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert ExactMatrix.identity(3).kernel().dim == 0

    def test_zero_map_kernel_full(self):
        assert ExactMatrix.zeros(2, 5).kernel().dim == 5

    def test_rank_one_kernel(self):
        # hand Gaussian elimination: kernel spanned by (-2, 1)
        k = ExactMatrix.from_rows([[1, 2], [2, 4]]).kernel()
        assert k.dim == 1
        assert _rows(k.basis) == [[Fraction(1), Fraction(-1, 2)]]


def assert_certifies(sol, A, b):
    """y = sol.combination has y^T A = 0 and y . b = sol.rhs = 1."""
    y = sol.combination
    assert len(y) == A.rows
    assert vec_is_zero(A.transpose().apply(y))
    assert sum((c * q for c, q in zip(y, b)), Fraction(0)) == sol.rhs == 1


class TestSolveAffine:
    def test_identity(self):
        sol = solve_affine(ExactMatrix.identity(3), vec([5, -2, 7]))
        assert sol == vec([5, -2, 7])
        assert all(type(x) is Fraction for x in sol)

    def test_trivial_system(self):
        sol = solve_affine(ExactMatrix.zeros(2, 2), vec([0, 0]))
        assert sol == vec([0, 0])

    def test_back_substitution(self):
        sol = solve_affine(ExactMatrix.from_rows([[1, 1], [0, 1]]),
                           vec([3, 1]))
        assert sol == vec([2, 1])

    def test_inconsistent(self):
        A = ExactMatrix.from_rows([[1, 1], [1, 1]])
        b = vec([1, 2])
        sol = solve_affine(A, b)
        assert isinstance(sol, NoSolution)
        assert_certifies(sol, A, b)
        assert sol.combination == vec([-1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_affine(ExactMatrix.identity(2), vec([1, 2, 3]))


class TestNoSolutionCertificate:
    # an infeasible system whose certificate y is read off by solve_matrix
    # like any solution, and checked by its product: a wrong y raises
    A = ExactMatrix.from_rows([[1, 1], [1, 1], [0, 2]])
    b = vec([1, 2, 0])

    def _read_certificate(self, monkeypatch, change):
        # `change` is applied to the X that solve_matrix reads off for the
        # certificate system [A^T; b^T] y = e_last, the second solve
        read, calls = exactla._read_solutions, []

        def patched(A, Y):
            calls.append(A)
            X = read(A, Y)
            return change(X) if len(calls) == 2 else X

        monkeypatch.setattr(exactla, "_read_solutions", patched)
        sol = solve_affine(self.A, self.b)
        assert len(calls) == 2
        return sol

    def test_a_true_certificate_passes(self, monkeypatch):
        sol = self._read_certificate(monkeypatch, lambda X: X)
        assert isinstance(sol, NoSolution)
        assert_certifies(sol, self.A, self.b)
        assert sol.combination == vec([-1, 1, 0])

    @pytest.mark.parametrize("change", [
        # y . b = 2, and y^T A = 0 still
        lambda X: X.scale(2),
        # y^T A != 0
        lambda X: X + ExactMatrix(3, 1, [(2, 0, 1)]),
        # the zero vector
        lambda X: ExactMatrix(3, 1)])
    def test_a_wrong_certificate_raises(self, monkeypatch, change):
        with pytest.raises(OracleMismatch, match="inconsistency certificate"):
            self._read_certificate(monkeypatch, change)


class TestIndexTables:
    def test_sym2(self):
        table = tensor_index_maps(2, "sym2")
        assert table.tuples == ((0, 0), (0, 1), (1, 1))
        assert table.index(1, 0) == 1  # sorted lookup

    def test_wedge2(self):
        assert tensor_index_maps(3, "wedge2").size == 3

    def test_sym3_count(self):
        assert tensor_index_maps(4, "sym3").size == 20

    def test_full2_count(self):
        assert tensor_index_maps(3, "full2").size == 9

    def test_wedge3_is_lexicographic(self):
        table = tensor_index_maps(5, "wedge3")
        assert table.size == 10  # C(5, 3)
        assert list(table.tuples) == sorted(combinations(range(5), 3))
        assert table.index(2, 0, 1) == table.index(0, 1, 2) == 0

    def test_wedge_sign(self):
        table = tensor_index_maps(4, "wedge2")
        assert table.sign(0, 1) == 1
        assert table.sign(1, 0) == -1
        assert table.sign(2, 2) == 0


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))
    return ExactMatrix.from_rows(data, cols=cols)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_is_annihilated(m):
    kernel = m.kernel()
    for i in range(kernel.dim):
        assert vec_is_zero(m.apply(kernel.basis.row_tuple(i)))


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + m.kernel().dim == m.cols


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r = m.rref()
    assert r.rref() == r


@settings(max_examples=120, deadline=None)
@given(matrices(max_dim=4),
       st.lists(small_entries, min_size=0, max_size=4))
def test_solvability_matches_rank_criterion(m, rhs):
    rhs = rhs[:m.rows] + [0] * (m.rows - len(rhs))
    b = vec(rhs)
    augmented = ExactMatrix.from_rows(
        [list(m.row_tuple(i)) + [b[i]] for i in range(m.rows)],
        cols=m.cols + 1)
    sol = solve_affine(m, b)
    if isinstance(sol, NoSolution):
        assert augmented.rank() > m.rank()
        assert_certifies(sol, m, b)
    else:
        assert augmented.rank() == m.rank()
        assert m.apply(sol) == b


small_rationals = st.fractions(min_value=-4, max_value=4,
                                max_denominator=5)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(
        st.tuples(small_rationals, st.lists(small_rationals, min_size=dim,
                                            max_size=dim)),
        max_size=5))))
def test_lincomb_equals_scale_and_add_fold(dim_terms):
    dim, terms = dim_terms
    fold = zero_vec(dim)
    for c, v in terms:
        fold = vec_add(fold, vec_scale(v, c))
    got = lincomb(terms, dim)
    assert got == fold
    assert all(type(x) is Fraction for x in got)


class TestLincomb:
    def test_zero_coefficient_never_reads_its_vector(self):
        class Unreadable:
            def __len__(self):
                raise AssertionError("vector of a zero coefficient was read")

            def __iter__(self):
                raise AssertionError("vector of a zero coefficient was read")

        terms = [(Fraction(0), Unreadable()), (2, (1, 0)), (0, Unreadable())]
        assert lincomb(iter(terms), 2) == (Fraction(2), Fraction(0))

    def test_empty_sum_is_zero_vector(self):
        assert lincomb([], 3) == zero_vec(3)
        assert lincomb(iter(()), 0) == ()

    def test_entries_are_fractions(self):
        out = lincomb([(1, (1, 2)), (3, (0, -1))], 2)
        assert out == (Fraction(1), Fraction(-1))
        assert all(type(x) is Fraction for x in out)
        assert all(type(x) is Fraction for x in lincomb([], 2))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            lincomb([(1, (1, 2, 3))], 2)


@st.composite
def systems(draw, max_dim=5, min_rhs=1):
    """A (possibly rank-deficient, possibly empty) A = L R and at least
    `min_rhs` right-hand sides, each either A x (consistent) or arbitrary
    (mostly not)."""
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    inner = draw(st.integers(min_value=0, max_value=max_dim))
    denominators = st.integers(min_value=1, max_value=4)
    left = [[Fraction(draw(small_entries), draw(denominators))
             for _ in range(inner)] for _ in range(rows)]
    right = draw(st.lists(st.lists(small_entries, min_size=cols,
                                   max_size=cols),
                          min_size=inner, max_size=inner))
    A = ExactMatrix.from_rows(
        [[sum((l[k] * right[k][j] for k in range(inner)), Fraction(0))
          for j in range(cols)] for l in left], cols=cols)
    rhs = []
    for consistent in draw(st.lists(st.booleans(), min_size=min_rhs,
                                    max_size=4)):
        if consistent:
            x = draw(st.lists(small_rationals, min_size=cols, max_size=cols))
            rhs.append(A.apply(x))
        else:
            rhs.append(tuple(draw(st.lists(small_rationals, min_size=rows,
                                           max_size=rows))))
    return A, rhs


def _oracle(m):
    """An ExactMatrix as the Fraction oracle's matrix."""
    return fx.FractionMatrix.from_rows(
        [m.row_tuple(i) for i in range(m.rows)], cols=m.cols)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_affine_equals_the_fraction_oracle(system):
    # one column at a time, through solve_matrix and through solve_affine,
    # certificates included
    A, rhs = system
    for b in rhs:
        x, = solve_many(A, ExactMatrix.from_columns([b], A.rows))
        sol = fx.solve_affine(_oracle(A), b)
        assert x == (None if isinstance(sol, NoSolution) else sol)
        assert solve_affine(A, b) == sol


@settings(max_examples=150, deadline=None)
@given(systems(min_rhs=0))
def test_solve_many_equals_the_fraction_oracle(system):
    A, rhs = system
    Y = ExactMatrix.from_columns(rhs, A.rows)
    got = solve_many(A, Y)
    assert len(got) == len(rhs)
    assert got == fx.FractionAffineSolver(_oracle(A)).solve_many(_oracle(Y))


class TestSolveMany:
    def test_consistent_and_inconsistent_columns(self):
        A = ExactMatrix.from_rows([[1, 1], [1, 1], [0, 2]])
        Y = ExactMatrix.from_columns([vec([1, 1, 0]), vec([1, 2, 0]),
                                      vec(["1/2", "1/2", "1/3"])], 3)
        assert solve_many(A, Y) == [
            vec([1, 0]), None, vec(["1/3", "1/6"])]

    def test_solve_matrix_columns_and_failures(self):
        # the same solutions as the columns of one matrix, with the columns
        # that have none named
        A = ExactMatrix.from_rows([[1, 1], [1, 1], [0, 2]])
        Y = ExactMatrix.from_columns([vec([1, 1, 0]), vec([1, 2, 0]),
                                      vec(["1/2", "1/2", "1/3"])], 3)
        X, failed = solve_matrix(A, Y)
        assert failed == {1}
        assert X.select_columns([0, 2]) == ExactMatrix.from_columns(
            [vec([1, 0]), vec(["1/3", "1/6"])], 2)
        assert (A @ X).select_columns([0, 2]) == Y.select_columns([0, 2])

    def test_no_columns(self):
        A = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert solve_many(A, ExactMatrix(2, 0)) == []

    def test_no_columns_need_no_elimination(self, monkeypatch):
        def refused(self):
            raise AssertionError("an empty batch was eliminated")

        monkeypatch.setattr(ExactMatrix, "_rref_data", refused)
        A = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        X, failed = solve_matrix(A, ExactMatrix(3, 0))
        assert (X.rows, X.cols, failed) == (2, 0, set())
        assert A._rref is None

    def test_rank_zero(self):
        Y = ExactMatrix.from_columns([vec([0, 0]), vec([0, "1/2"])], 2)
        assert solve_many(ExactMatrix.zeros(2, 3), Y) == [vec([0, 0, 0]),
                                                           None]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_many(ExactMatrix.identity(2), ExactMatrix(3, 1))


@st.composite
def rational_matrices(draw, rows, cols):
    return ExactMatrix.from_rows(
        draw(st.lists(st.lists(small_rationals, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)), cols=cols)


@st.composite
def hom_blocks(draw):
    """(T, D) pairs of random square blocks, some of size 0, and a matrix M
    whose columns fit them, one cochain per row."""
    sizes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          max_size=3))
    blocks = [(draw(rational_matrices(tgt, tgt)),
               draw(rational_matrices(src, src))) for tgt, src in sizes]
    cols = sum(tgt * src for tgt, src in sizes)
    M = draw(rational_matrices(draw(st.integers(0, 3)), cols))
    return blocks, M


@settings(max_examples=50, deadline=None)
@given(hom_blocks())
def test_hom_apply_equals_the_kron_matrix(blocks_and_M):
    blocks, M = blocks_and_M
    matrix = block_diag([kron(ExactMatrix.identity(D.rows), T) -
                         kron(D.transpose(), ExactMatrix.identity(T.rows))
                         for T, D in blocks])
    assert HomAction(blocks).apply_rows(M) == M @ matrix.transpose()


@settings(max_examples=80, deadline=None)
@given(hom_blocks())
def test_row_apply_equals_the_column_apply(blocks_and_M):
    # the row form against the column form it replaced, on the transpose
    blocks, M = blocks_and_M
    assert HomAction(blocks).apply_rows(M).transpose() == \
        apply_columns(blocks, M.transpose())


def test_hom_apply_rejects_rows_that_do_not_fit():
    with pytest.raises(DimensionMismatch):
        HomAction([(ExactMatrix.identity(2),
                    ExactMatrix.identity(2))]).apply_rows(ExactMatrix(1, 3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_flatten_columns_reads_each_matrix_row_by_row(rows, cols, data):
    mats = data.draw(st.lists(rational_matrices(rows, cols), max_size=3))
    flat = [[m.entry(a, x) for a in range(rows) for x in range(cols)]
            for m in mats]
    assert flatten_columns(mats, rows, cols) == \
        ExactMatrix.from_columns(flat, rows * cols)


def test_flatten_columns_rejects_a_wrong_shape():
    with pytest.raises(DimensionMismatch):
        flatten_columns([ExactMatrix.identity(2)], 2, 3)


def test_int_rows_put_every_row_over_the_lcm():
    M = ExactMatrix.from_rows([["1/2", 0, 1], [0, 0, 0], ["2/3", 1, 0]])
    D, rows = M.int_rows()
    assert D == 6
    assert rows == [{0: 3, 2: 6}, {}, {0: 4, 1: 6}]
    assert ExactMatrix(0, 3).int_rows() == (1, [])


def test_from_int_rows_gives_the_canonical_matrix():
    # rows over denominators that share a factor with every entry, or not
    M = ExactMatrix.from_int_rows(3, [({0: 3, 2: 6}, 6), ({}, 4),
                                      ({0: 4, 1: 6}, 6), ({1: -5}, 1)])
    assert M == ExactMatrix.from_rows([["1/2", 0, 1], [0, 0, 0],
                                       ["2/3", 1, 0], [0, -5, 0]])
    D, rows = M.int_rows()
    assert ExactMatrix.from_int_rows(3, [(r, D) for r in rows]) == M


class TestSolveMatrix:
    def test_rank_deficient_canonical_solution(self):
        A = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        b = vec([1, 2, 5])
        x, = solve_many(A, ExactMatrix.from_columns([b], 3))
        assert x == solve_affine(A, b)
        assert x == vec([-14, 0, 5])     # free column 1 set to zero

    def test_none_where_solve_affine_has_a_certificate(self):
        A = ExactMatrix.from_rows([[1, 1], [1, 1], [0, 2]])
        rhs = (vec([1, 2, 0]), vec([1, 1, "1/3"]))
        got = solve_many(A, ExactMatrix.from_columns(rhs, 3))
        assert got[0] is None
        assert isinstance(solve_affine(A, rhs[0]), NoSolution)
        assert got[1] == solve_affine(A, rhs[1])

    def test_a_repeated_infeasible_column_fails_too(self):
        # the second copy of an infeasible column is no pivot of [A | Y],
        # and the product check still finds it
        A = ExactMatrix.from_rows([[1, 0], [0, 0]])
        y = vec([1, 1])
        Y = ExactMatrix.from_columns([y, y, vec([2, 0])], 2)
        X, failed = solve_matrix(A, Y)
        assert failed == {0, 1}
        assert solve_many(A, Y)[2] == vec([2, 0])

    def test_empty_shapes(self):
        assert solve_many(ExactMatrix(0, 3),
                          ExactMatrix(0, 1)) == [vec([0, 0, 0])]
        assert solve_many(ExactMatrix(2, 0), ExactMatrix.from_columns(
            [vec([0, 0]), vec([0, 1])], 2)) == [(), None]

    def test_accepts_rational_likes(self):
        A = ExactMatrix.from_rows([[2, 0], [0, 3]])
        x, = solve_many(A, ExactMatrix.from_columns([[1, "1/2"]], 2))
        assert x == (Fraction(1, 2), Fraction(1, 6))


class TestSubspace:
    def test_from_vectors_rejects_short_vectors(self):
        with pytest.raises(DimensionMismatch):
            Subspace.from_vectors(3, [[1, 0, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            Subspace.from_vectors(2, [[1, 0, 0]])

    def test_coordinates_and_containment(self):
        sub = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
        assert sub.contains([1, 1, 2])
        assert not sub.contains([1, 1, 0])
        coords = sub.coordinates([2, -1, 1])
        assert coords == (Fraction(2), Fraction(-1))

    def test_sum_and_intersection(self):
        a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
        assert Subspace.from_vectors(
            3, basis_vectors(a) + basis_vectors(b)).dim == 3
        meet = a.intersect(b)
        assert meet.dim == 1
        assert meet.contains([0, 1, 0])

    def test_canonical_equality(self):
        a = Subspace.from_vectors(2, [[2, 4]])
        b = Subspace.from_vectors(2, [[1, 2]])
        assert a == b
        assert _rows(a.basis) == _rows(b.basis)

    def test_matrix_ops(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert (m @ ExactMatrix.identity(2)) == m
        assert (m - m).is_zero()
        assert m.transpose().transpose() == m
        assert m.trace() == 5
        stacked = vstack([m, ExactMatrix.identity(2)])
        assert stacked.rows == 4

    def test_row_and_column_selection(self):
        m = ExactMatrix.from_rows([[1, 2, 0], [0, 3, 4], [5, 0, 6]])
        assert m.select_rows([2, 0]) == \
            ExactMatrix.from_rows([[5, 0, 6], [1, 2, 0]])
        assert m.select_columns(range(1, 3)) == \
            ExactMatrix.from_rows([[2, 0], [3, 4], [0, 6]])
        assert m.select_rows([]) == ExactMatrix(0, 3)
        assert m.select_columns([]) == ExactMatrix(3, 0)
        # the selection is a copy: its row 0 is the int row {0: 1, 1: 2}
        # over the denominator 1
        picked = m.select_rows([0])
        assert (picked._rows[0], picked._dens[0]) == ({0: 1, 1: 2}, 1)
        picked._rows[0][0] = 7
        assert m.entry(0, 0) == 1


class TestPositiveDefiniteness:
    def test_positive_definite(self):
        m = ExactMatrix.from_rows([[2, 1], [1, 2]])
        assert is_positive_definite(m)
        assert all(p > 0 for p in ldlt_pivots(m))

    def test_indefinite(self):
        m = ExactMatrix.from_rows([[1, 2], [2, 1]])
        assert not is_positive_definite(m)

    def test_semi_definite_rejected(self):
        m = ExactMatrix.from_rows([[1, 1], [1, 1]])
        assert not is_positive_definite(m)


def _sq(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(ExactMatrix.from_rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sym2", "wedge2"]),
       st.integers(min_value=0, max_value=4).flatmap(
           lambda n: st.tuples(_sq(n), _sq(n))))
def test_pair_map_is_functorial(kind, mats):
    M, N = mats
    t = tensor_index_maps(M.rows, kind)
    assert pair_map(t, t, M, M) @ pair_map(t, t, N, N) == \
        pair_map(t, t, M @ N, M @ N)
    eye = ExactMatrix.identity(M.rows)
    assert pair_map(t, t, eye, eye) == ExactMatrix.identity(t.size)
    # the action is the derivative of the induced map: a Lie homomorphism
    assert pair_action(t, M).commutator(pair_action(t, N)) == \
        pair_action(t, M.commutator(N))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sym2", "wedge2"]),
       st.integers(min_value=0, max_value=4).flatmap(
           lambda n: st.lists(st.lists(
               st.builds(Fraction, small_entries, st.integers(1, 4)),
               min_size=n, max_size=n), min_size=n, max_size=n)))
def test_pair_action_is_pair_map_with_the_identity_on_either_side(kind,
                                                                  rows):
    # the one-pass action against its definition, columns over different
    # denominators
    M = ExactMatrix.from_rows(rows, cols=len(rows))
    t = tensor_index_maps(M.rows, kind)
    eye = ExactMatrix.identity(M.rows)
    assert pair_action(t, M) == \
        pair_map(t, t, M, eye) + pair_map(t, t, eye, M)


@settings(max_examples=60, deadline=None)
@given(_sq(3))
def test_wedge_pair_map_entries_are_minors(M):
    t = tensor_index_maps(3, "wedge2")
    W = pair_map(t, t, M, M)
    for col, (i, j) in enumerate(t.tuples):
        for row, (k, l) in enumerate(t.tuples):
            assert W.entry(row, col) == (M.entry(k, i) * M.entry(l, j) -
                                         M.entry(l, i) * M.entry(k, j))


class TestPairMap:
    def test_wedge_sign_on_a_swap(self):
        # e0 <-> e1: e0^e1 -> -e0^e1, e0^e2 -> e1^e2, e1^e2 -> e0^e2
        t = tensor_index_maps(3, "wedge2")
        swap = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert pair_map(t, t, swap, swap) == ExactMatrix.from_rows(
            [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_wedge_of_equal_images_vanishes(self):
        t = tensor_index_maps(3, "wedge2")
        collapse = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        W = pair_map(t, t, collapse, collapse)
        assert vec_is_zero(W.transpose().row_tuple(t.index(0, 1)))

    def test_sym2_between_tables(self):
        # (e0 + e1) sym e0 from a 1-dimensional source into Sym^2 of 2 dims
        t_in, t_out = tensor_index_maps(1, "sym2"), tensor_index_maps(2, "sym2")
        A = ExactMatrix.from_rows([[1], [1]])
        B = ExactMatrix.from_rows([[1], [0]])
        assert _rows(pair_map(t_out, t_in, A, B)) == [[1], [1], [0]]
        assert _rows(pair_map(t_out, t_in, A, A)) == [[1], [2], [1]]

    def test_rejects_mismatched_tables_and_shapes(self):
        sym, wedge = tensor_index_maps(2, "sym2"), tensor_index_maps(2, "wedge2")
        eye = ExactMatrix.identity(2)
        with pytest.raises(DimensionMismatch):
            pair_map(sym, wedge, eye, eye)
        with pytest.raises(DimensionMismatch):
            pair_map(sym, sym, ExactMatrix.identity(3), eye)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sym2", "wedge2"]),
       st.integers(min_value=0, max_value=4).flatmap(_sq))
def test_pair_embedding_is_natural(kind, M):
    # M (x) M on the tensor square restricts to the induced map
    t = tensor_index_maps(M.rows, kind)
    E = pair_embedding(t)
    assert kron(M, M) @ E == E @ pair_map(t, t, M, M)


class TestEmbeddings:
    def test_pair_embedding_columns(self):
        # e_i (x) e_j sits at 2 i + j
        assert _rows(pair_embedding(tensor_index_maps(2, "sym2"))) == \
            [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]]
        assert _rows(pair_embedding(tensor_index_maps(2, "wedge2"))) == \
            [[0], [1], [-1], [0]]

    def test_cyclic_embedding_sym3(self):
        # (0,0,1) -> e_00 (x) e_1 + e_01 (x) e_0 + e_10 (x) e_0, with e_p (x)
        # e_k at 2 p + k over the sym2 pairs (0,0), (0,1), (1,1)
        s3 = tensor_index_maps(2, "sym3")
        T = cyclic_embedding(s3, tensor_index_maps(2, "sym2"))
        assert (T.rows, T.cols) == (6, 4)
        assert T.transpose().row_tuple(s3.index(0, 0, 1)) == \
            (0, 1, 2, 0, 0, 0)
        # (0,0,0) -> 3 e_00 (x) e_0
        assert T.transpose().row_tuple(s3.index(0, 0, 0)) == \
            (3, 0, 0, 0, 0, 0)

    def test_cyclic_embedding_wedge3(self):
        # (0,1,2) -> e_01 (x) e_2 + e_12 (x) e_0 + e_20 (x) e_1, e_20 = -e_02,
        # with e_p (x) e_k at 3 p + k over the pairs (0,1), (0,2), (1,2)
        T = cyclic_embedding(tensor_index_maps(3, "wedge3"),
                             tensor_index_maps(3, "wedge2"))
        col = T.transpose().row_tuple(0)
        assert {k: c for k, c in enumerate(col) if c} == \
            {2: 1, 6: 1, 4: -1}

    def test_mismatched_tables_are_rejected(self):
        with pytest.raises(DimensionMismatch):
            pair_embedding(tensor_index_maps(2, "sym3"))
        with pytest.raises(DimensionMismatch):
            cyclic_embedding(tensor_index_maps(3, "sym3"),
                             tensor_index_maps(3, "wedge2"))
        with pytest.raises(DimensionMismatch):
            cyclic_embedding(tensor_index_maps(3, "wedge3"),
                             tensor_index_maps(4, "wedge2"))
