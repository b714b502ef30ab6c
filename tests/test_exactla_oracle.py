"""Every matrix operation of `spencerkit.exactla`, which stores a row as
ints over one denominator, equals the Fraction-storage oracle in
`fraction_exactla` entrywise, on random rational matrices with negative
entries, denominators up to 12, and zero rows and columns; and every
matrix it returns is in the canonical integer form.  Kernels are checked
in both orders, before the RREF (one elimination of the transpose) and
after it (read off the kept RREF)."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import fraction_exactla as fx
from pairwise_oracles import basis_vectors, lincomb, solve_many
from rref_kernel import ascending_kernel, fresh
from spencerkit.exactla import AffineSolver, ExactMatrix, HomAction, \
    Subspace, block_diag, hstack, kron, pair_map, solve_affine, \
    tensor_index_maps, vstack

EXAMPLES = settings(max_examples=150, deadline=None)

nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 12))
entries = st.one_of(st.just(Fraction(0)), nonzero)
dims = st.integers(0, 5)


@st.composite
def dense(draw, rows, cols):
    """A rows x cols list of rational rows, some rows and columns zero."""
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            data[i] = [Fraction(0)] * cols
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in data:
                row[j] = Fraction(0)
    return data


@st.composite
def pairs(draw, rows=None, cols=None):
    """The same random matrix as an ExactMatrix and as the oracle's."""
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    data = draw(dense(rows, cols))
    return (ExactMatrix.from_rows(data, cols=cols),
            fx.FractionMatrix.from_rows(data, cols=cols))


def assert_canonical(m):
    """Row i is _rows[i] / _dens[i]: int entries, none zero, on columns in
    range, over a positive int denominator sharing no factor with all of
    them; an empty row has denominator 1."""
    assert len(m._rows) == len(m._dens) == m.rows
    for row, d in zip(m._rows, m._dens):
        assert type(d) is int and d > 0
        assert all(type(j) is int and 0 <= j < m.cols for j in row)
        assert all(type(v) is int and v != 0 for v in row.values())
        g = d
        for v in row.values():
            g = gcd(g, v)
        assert g == 1
        assert row or d == 1


def assert_same(m, oracle):
    """m is canonical and equals the oracle's matrix entrywise, with
    Fraction entries at the API boundary."""
    assert_canonical(m)
    assert (m.rows, m.cols) == (oracle.rows, oracle.cols)
    for i in range(m.rows):
        got = m.row_tuple(i)
        assert all(type(v) is Fraction for v in got)
        assert got == oracle.row_tuple(i)
        assert all(m.entry(i, j) == got[j] for j in range(m.cols))
    assert m.to_serialisable() == oracle.to_serialisable()


@EXAMPLES
@given(st.data(), dims, dims, dims)
def test_matmul(data, r, k, c):
    (a, ao), (b, bo) = data.draw(pairs(r, k)), data.draw(pairs(k, c))
    assert_same(a @ b, ao @ bo)


@EXAMPLES
@given(st.data(), dims, dims, entries)
def test_add_sub_and_scale(data, r, c, q):
    (a, ao), (b, bo) = data.draw(pairs(r, c)), data.draw(pairs(r, c))
    assert_same(a + b, ao + bo)
    assert_same(a - b, ao - bo)
    for factor in (q, -q, 1, -1, 3):
        assert_same(a.scale(factor), ao.scale(factor))


@EXAMPLES
@given(st.data(), dims, dims, dims, dims)
def test_kron_and_transpose(data, r1, c1, r2, c2):
    (a, ao), (b, bo) = data.draw(pairs(r1, c1)), data.draw(pairs(r2, c2))
    assert_same(kron(a, b), fx.kron(ao, bo))
    assert_same(a.transpose(), ao.transpose())


@EXAMPLES
@given(st.data(), dims, dims, st.lists(st.tuples(dims, dims), max_size=3))
def test_stacks_and_selections(data, r, c, shapes):
    same_cols = [data.draw(pairs(data.draw(dims), c)) for _ in shapes]
    same_rows = [data.draw(pairs(r, data.draw(dims))) for _ in shapes]
    any_shape = [data.draw(pairs(*shape)) for shape in shapes]
    if shapes:
        assert_same(vstack([m for m, _ in same_cols]),
                    fx.vstack([o for _, o in same_cols]))
        assert_same(hstack([m for m, _ in same_rows]),
                    fx.hstack([o for _, o in same_rows]))
    assert_same(block_diag([m for m, _ in any_shape]),
                fx.block_diag([o for _, o in any_shape]))
    a, ao = data.draw(pairs(r, c))
    cols = data.draw(st.permutations(range(c)))[:data.draw(st.integers(0, c))]
    assert_same(a.select_columns(cols), ao.select_columns(cols))
    rows = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
    assert_same(a.select_rows(rows), ao.select_rows(rows))


@EXAMPLES
@given(pairs(), st.data())
def test_apply_and_trace(pair, data):
    a, ao = pair
    v = data.draw(st.lists(entries, min_size=a.cols, max_size=a.cols))
    got = a.apply(v)
    assert got == ao.apply(v) and all(type(x) is Fraction for x in got)
    if a.rows == a.cols:
        assert a.trace() == ao.trace()


def greedy_rows(oracle):
    """The indices of the rows each independent of the rows before it,
    by the oracle's rank."""
    kept = []
    for i in range(oracle.rows):
        if oracle.select_rows(kept + [i]).rank() > len(kept):
            kept.append(i)
    return tuple(kept)


def assert_same_elimination(a, ao):
    """RREF, pivot columns, rank, kernel and kept row basis equal the
    oracle's, in both orders: on a fresh copy of `a` the kernel comes first,
    from its own elimination of the transpose, and on `a` the RREF comes
    first and the kernel is read off it."""
    twin = ExactMatrix.from_rows([a.row_tuple(i) for i in range(a.rows)],
                                 cols=a.cols)
    kernel = ao.kernel().basis
    assert_same(twin.kernel().basis, kernel)
    for m in (twin, a):
        assert m.rank() == ao.rank()
        assert_same(m.rref(), ao.rref())
        assert m.pivot_columns() == ao.pivot_columns()
        assert m.row_basis() == greedy_rows(ao)
        assert_same(m.kernel().basis, kernel)


@EXAMPLES
@given(pairs())
def test_rref_and_kernel(pair):
    a, ao = pair
    assert_same_elimination(a, ao)
    assert_same(a.column_space().basis, ao.column_space().basis)


@st.composite
def tall(draw):
    """A matrix with 2 to 4 times as many rows as columns and a drawn rank,
    from 0 to full column rank: that many independent rows, with zero rows,
    scaled copies and sums of two rows put in at random places; as an
    ExactMatrix and as the oracle's."""
    cols = draw(st.integers(1, 5))
    rank = draw(st.integers(0, cols))
    # independent: row k is zero on the columns order[:k], not on order[k]
    order = draw(st.permutations(range(cols)))
    data = []
    for k in range(rank):
        row = [draw(entries) for _ in range(cols)]
        for j in order[:k]:
            row[j] = Fraction(0)
        row[order[k]] = draw(nonzero)
        data.insert(draw(st.integers(0, len(data))), row)
    for _ in range(draw(st.integers(2 * cols, 4 * cols)) - rank):
        kind = draw(st.sampled_from(("zero", "scaled", "sum")))
        if kind == "zero" or not data:
            row = [Fraction(0)] * cols
        elif kind == "scaled":
            q = draw(nonzero)
            row = [q * x for x in draw(st.sampled_from(data))]
        else:
            row = [x + y for x, y in zip(draw(st.sampled_from(data)),
                                         draw(st.sampled_from(data)))]
        data.insert(draw(st.integers(0, len(data))), row)
    return (rank, ExactMatrix.from_rows(data, cols=cols),
            fx.FractionMatrix.from_rows(data, cols=cols))


@EXAMPLES
@given(tall())
def test_tall_rref_kernel_and_row_basis(drawn):
    # most of these matrices take the short side, eliminating only the rows
    # that the transpose's echelon picks
    rank, a, ao = drawn
    assert_same_elimination(a, ao)
    assert a.rank() == rank


@st.composite
def with_dependent_columns(draw):
    """A matrix of up to 14 rows and 12 columns, tall or wide: random
    columns, with zero columns, scaled copies and sums of two earlier
    columns among them, in a random order; then zero rows, and each row
    over a drawn denominator.  The shapes 0 x n and n x 0 and the all-zero
    matrix are drawn too.  As an ExactMatrix and as the oracle's."""
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 12))
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(("random", "zero", "scaled", "sum")))
        if kind == "zero":
            col = [Fraction(0)] * rows
        elif kind == "scaled" and columns:
            q = draw(nonzero)
            col = [q * x for x in draw(st.sampled_from(columns))]
        elif kind == "sum" and columns:
            col = [x + y for x, y in zip(draw(st.sampled_from(columns)),
                                         draw(st.sampled_from(columns)))]
        else:
            col = [draw(entries) for _ in range(rows)]
        columns.append(col)
    columns = draw(st.permutations(columns))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=3)) \
        if rows else set()
    if draw(st.integers(0, 9)) == 0:
        zero_rows = set(range(rows))
    data = []
    for i in range(rows):
        q = Fraction(1, draw(st.integers(1, 12)))
        data.append([Fraction(0) if i in zero_rows else q * col[i]
                     for col in columns])
    return (ExactMatrix.from_rows(data, cols=cols),
            fx.FractionMatrix.from_rows(data, cols=cols))


@EXAMPLES
@given(with_dependent_columns())
def test_kernel_with_dependent_columns(pair):
    # the kernels of these come from the dependent and zero columns, and
    # from the columns past the rank of a wide matrix
    a, ao = pair
    assert_same_elimination(a, ao)
    assert a.kernel().dim == a.cols - ao.rank()


@EXAMPLES
@given(st.one_of(pairs(), tall().map(lambda d: d[1:]),
                 with_dependent_columns()))
def test_kernel_equals_the_ascending_column_order(pair):
    # the transpose's columns enter with ties in nonzero count broken by
    # descending index; the order they entered in before, by ascending
    # index, gives the same canonical kernel
    a, _ = pair
    assert fresh(a).kernel() == ascending_kernel(a)


@EXAMPLES
@given(tall(), st.integers(1, 4), st.data())
def test_tall_solve_many(drawn, k, data):
    # the solver's P is the kept row basis at the pivot columns; consistent
    # columns A x, and arbitrary ones
    _, a, ao = drawn
    y = (a @ ExactMatrix.from_rows(data.draw(dense(a.cols, k)), cols=k)) + \
        ExactMatrix.from_rows(data.draw(dense(a.rows, k)), cols=k).scale(
            data.draw(st.sampled_from((0, 1))))
    yo = fx.FractionMatrix.from_rows(
        [list(y.row_tuple(i)) for i in range(a.rows)], cols=k)
    assert solve_many(AffineSolver(a), y) == \
        fx.FractionAffineSolver(ao).solve_many(yo)


@EXAMPLES
@given(st.integers(1, 3), st.integers(3, 6), st.data())
def test_coordinates(r, c, data):
    # wide matrices without zeros: RREF rows whose free columns sit over
    # different denominators, all read by the combination below
    rows = data.draw(st.lists(st.lists(nonzero, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    a, ao = (ExactMatrix.from_rows(rows, cols=c),
             fx.FractionMatrix.from_rows(rows, cols=c))
    space, oracle = a.row_space(), ao.row_space()
    # a vector of the span, and one that is mostly not in it
    coeffs = data.draw(st.lists(nonzero, min_size=space.dim,
                                max_size=space.dim))
    inside = lincomb(zip(coeffs, basis_vectors(space)), a.cols)
    other = data.draw(st.lists(entries, min_size=a.cols, max_size=a.cols))
    for v in (inside, other):
        got = space.coordinates(v)
        assert got == oracle.coordinates(v)
        assert got is None or all(type(x) is Fraction for x in got)
    assert space.coordinates(inside) == tuple(coeffs)


@EXAMPLES
@given(st.data(), dims, dims, dims, dims)
def test_intersect_and_contains_subspace(data, n, r1, r2, k):
    # the product routes against the oracle's vector by vector ones, on two
    # random row spaces, a subspace of the first, the trivial and the full
    # space, each paired with every other and with itself
    (a, ao), (b, bo) = data.draw(pairs(r1, n)), data.draw(pairs(r2, n))
    (c, co) = data.draw(pairs(k, r1))
    spaces = [(a.row_space(), ao.row_space()), (b.row_space(), bo.row_space()),
              ((c @ a).row_space(), (co @ ao).row_space()),
              (Subspace.trivial(n), fx.FractionSubspace.trivial(n)),
              (Subspace.full(n), fx.FractionSubspace.full(n))]
    for x, xo in spaces:
        for y, yo in spaces:
            meet = x.intersect(y)
            assert_same(meet.basis, xo.intersect(yo).basis)
            assert meet == y.intersect(x)
            assert x.contains_subspace(y) == xo.contains_subspace(yo)
            assert x.contains_subspace(meet)
        assert x.intersect(x) == x and x.contains_subspace(x)
    assert spaces[0][0].contains_subspace(spaces[2][0])


@EXAMPLES
@given(st.data(), dims, dims, st.integers(0, 4))
def test_solve_many(data, r, c, k):
    (a, ao) = data.draw(pairs(r, c))
    # consistent columns A x, and arbitrary ones
    xs = data.draw(dense(c, k))
    y = (a @ ExactMatrix.from_rows(xs, cols=k)) + \
        ExactMatrix.from_rows(data.draw(dense(r, k)), cols=k).scale(
            data.draw(st.sampled_from((0, 1))))
    yo = fx.FractionMatrix.from_rows(
        [list(y.row_tuple(i)) for i in range(r)], cols=k)
    got = solve_many(AffineSolver(a), y)
    assert got == fx.FractionAffineSolver(ao).solve_many(yo)
    assert all(x is None or all(type(v) is Fraction for v in x)
               for x in got)
    for j in range(k):
        b = [y.entry(i, j) for i in range(r)]
        assert solve_affine(a, b) == fx.solve_affine(ao, b)


@st.composite
def hom_blocks(draw):
    """(T, D) pairs of square blocks and a matrix M whose rows fit them,
    each as an ExactMatrix and as the oracle's."""
    sizes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          max_size=3))
    blocks = [(draw(pairs(tgt, tgt)), draw(pairs(src, src)))
              for tgt, src in sizes]
    M = draw(pairs(sum(tgt * src for tgt, src in sizes), draw(dims)))
    return blocks, M


@settings(max_examples=80, deadline=None)
@given(hom_blocks())
def test_hom_apply(blocks_and_M):
    blocks, (M, Mo) = blocks_and_M
    # the row form on M^T, one cochain per row, against the Fraction
    # oracle's columns
    got = HomAction([(T, D) for (T, _), (D, _) in blocks]).apply_rows(
        M.transpose()).transpose()
    assert_same(got, fx.hom_apply([(To, Do) for (_, To), (_, Do) in blocks],
                                  Mo))


@settings(max_examples=80, deadline=None)
@given(hom_blocks(), st.data())
def test_hom_apply_on_mostly_zero_rows(blocks_and_M, data):
    # HomAction.apply_rows reads only the nonzero entries of each row of
    # M^T: keep at most two rows of M, M = 0 included
    blocks, (M, _) = blocks_and_M
    keep = data.draw(st.sets(st.integers(0, M.rows - 1), max_size=2)) \
        if M.rows else set()
    rows = [M.row_tuple(i) if i in keep else [0] * M.cols
            for i in range(M.rows)]
    sparse = ExactMatrix.from_rows(rows, cols=M.cols)
    exact_blocks = [(T, D) for (T, _), (D, _) in blocks]
    got = HomAction(exact_blocks).apply_rows(sparse.transpose()).transpose()
    assert_same(got, fx.hom_apply([(To, Do) for (_, To), (_, Do) in blocks],
                                  fx.FractionMatrix.from_rows(rows,
                                                              cols=M.cols)))
    assert got == block_diag([kron(ExactMatrix.identity(D.rows), T) -
                              kron(D.transpose(),
                                   ExactMatrix.identity(T.rows))
                              for T, D in exact_blocks]) @ sparse


@EXAMPLES
@given(st.data(), st.sampled_from(("sym2", "wedge2")), st.integers(0, 4),
       st.integers(0, 4))
def test_pair_map(data, kind, m, n):
    out_table, in_table = tensor_index_maps(m, kind), tensor_index_maps(n,
                                                                        kind)
    (a, ao), (b, bo) = data.draw(pairs(m, n)), data.draw(pairs(m, n))
    assert_same(pair_map(out_table, in_table, a, b),
                fx.pair_map(out_table, in_table, ao, bo))


@EXAMPLES
@given(st.data(), dims, dims, dims, dims)
def test_equal_by_different_routes(data, r, k, l, c):
    (a, _), (b, _), (d, _) = (data.draw(pairs(r, k)), data.draw(pairs(k, l)),
                              data.draw(pairs(l, c)))
    left, right = (a @ b) @ d, a @ (b @ d)
    assert left == right and hash(left) == hash(right)
    e, _ = data.draw(pairs(r, k))
    back = (a + e) - e
    assert back == a and hash(back) == hash(a)
    assert_canonical(back)
    # the same subspace from different spanning sets
    doubled = vstack([a, a.scale(Fraction(-3, 7))])
    assert doubled.row_space() == a.row_space()
    assert hash(doubled.row_space()) == hash(a.row_space())


def test_fraction_inputs_are_stored_over_one_denominator():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-2, 3), 0],
                               [0, 0, 0], [4, "6/4", 2]])
    assert m._rows == [{0: 3, 1: -4}, {}, {0: 8, 1: 3, 2: 4}]
    assert m._dens == [6, 1, 2]
    assert m.rref()._rows[0][0] == m.rref()._dens[0]
    assert_canonical(m.rref())
    assert isinstance(Subspace.full(2).coordinates([1, "1/2"])[1], Fraction)
