"""The Fraction-storage implementation of `spencerkit.exactla`, kept as
the oracle of its integer-scaled matrices: every entry here is a
`fractions.Fraction`, eliminations convert rows to integers and back, and
each operation is the entrywise definition.  `test_exactla_oracle.py`
checks that every matrix operation of the package equals the one here.

Only the matrix layer is here; vectors, index tables and the NoSolution
certificate are shared with the package."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from pairwise_oracles import basis_vec, lincomb
from spencerkit.errors import DimensionMismatch, OracleMismatch
from spencerkit.exactla import IndexTable, NoSolution, RationalLike, rat, \
    rat_str

_ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# integer sparse row helpers (elimination core)
# ---------------------------------------------------------------------------


def _axpy(arow: dict, brow: dict, a: int, b: int) -> dict:
    """a*arow + b*brow over integer sparse rows."""
    out = {c: a * v for c, v in arow.items()}
    for c, v in brow.items():
        w = out.get(c, 0) + b * v
        if w:
            out[c] = w
        elif c in out:
            del out[c]
    return out


def _strip_row(row: dict) -> dict:
    """Divide by the content and make the leading entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


def _to_int_row(row: dict) -> dict:
    """Scale a sparse row of Fractions to a stripped integer row."""
    return _strip_row(_scaled_row(row)[1])


def _echelon(int_rows: Iterable[dict]) -> dict:
    """Forward elimination; maps pivot column -> stripped integer row."""
    pivots: dict = {}
    for row in int_rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _strip_row(row)
                break
            row = _strip_row(_axpy(row, piv, piv[lead], -row[lead]))
        # fully reduced rows vanish and are dropped
    return pivots


def greedy_rows(M: "FractionMatrix") -> tuple:
    """The indices of the rows of M each independent of the rows before it,
    a basis of its row space: a row is kept when forward elimination
    against the rows kept before it leaves it nonzero."""
    pivots, kept = {}, []
    for i, row in enumerate(M._rows):
        row = _to_int_row(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                kept.append(i)
                break
            row = _strip_row(_axpy(row, piv, piv[lead], -row[lead]))
    return tuple(kept)


def _back_substitute(pivots: dict) -> dict:
    cols = sorted(pivots)
    for idx in range(len(cols) - 1, -1, -1):
        c = cols[idx]
        prow = pivots[c]
        for c2 in cols[:idx]:
            r = pivots[c2]
            if c in r:
                pivots[c2] = _strip_row(_axpy(r, prow, prow[c], -r[c]))
    return pivots


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class FractionMatrix:
    """Immutable dense-semantics matrix of exact rationals, stored sparsely."""

    __slots__ = ("rows", "cols", "_rows", "_rref")

    def __init__(self, rows: int, cols: int,
                 entries: Optional[Iterable[tuple]] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data = [dict() for _ in range(rows)]
        if entries:
            for i, j, v in entries:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) out of range")
                q = rat(v)
                if q:
                    data[i][j] = q
                elif j in data[i]:
                    del data[i][j]
        self._rows = data
        self._rref = None

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[RationalLike]],
                  cols: Optional[int] = None) -> "FractionMatrix":
        nrows = len(rows_data)
        ncols = cols if cols is not None else (len(rows_data[0]) if nrows else 0)
        entries = []
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, v in enumerate(row):
                entries.append((i, j, v))
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RationalLike]],
                     rows: int) -> "FractionMatrix":
        """The rows x len(columns) matrix with the given columns."""
        return cls.from_rows(columns, cols=rows).transpose()

    @classmethod
    def identity(cls, n: int) -> "FractionMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "FractionMatrix":
        return cls(rows, cols)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i].get(j, _ZERO)

    def row_tuple(self, i: int) -> tuple:
        rd = self._rows[i]
        return tuple(rd.get(j, _ZERO) for j in range(self.cols))

    def select_rows(self, indices: Iterable[int]) -> "FractionMatrix":
        """The rows at `indices`, in that order."""
        picked = [dict(self._rows[i]) for i in indices]
        out = FractionMatrix(len(picked), self.cols)
        out._rows = picked
        return out

    def select_columns(self, indices: Iterable[int]) -> "FractionMatrix":
        """The columns at `indices` (distinct), in that order."""
        where = {j: k for k, j in enumerate(indices)}
        out = FractionMatrix(self.rows, len(where))
        out._rows = [{where[j]: v for j, v in r.items() if j in where}
                     for r in self._rows]
        return out

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self):
        return f"FractionMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "FractionMatrix") -> "FractionMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        out = FractionMatrix(self.rows, self.cols)
        for i in range(self.rows):
            row = dict(self._rows[i])
            for j, v in other._rows[i].items():
                w = row.get(j, Fraction(0)) + v
                if w:
                    row[j] = w
                elif j in row:
                    del row[j]
            out._rows[i] = row
        return out

    def __sub__(self, other: "FractionMatrix") -> "FractionMatrix":
        return self + other.scale(-1)

    def scale(self, factor: RationalLike) -> "FractionMatrix":
        q = rat(factor)
        out = FractionMatrix(self.rows, self.cols)
        if q:
            for i in range(self.rows):
                out._rows[i] = {j: v * q for j, v in self._rows[i].items()}
        return out

    def __matmul__(self, other: "FractionMatrix") -> "FractionMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        out = FractionMatrix(self.rows, other.cols)
        orows = other._rows
        for i in range(self.rows):
            acc: dict = {}
            for k, v in self._rows[i].items():
                for j, w in orows[k].items():
                    t = acc.get(j, Fraction(0)) + v * w
                    if t:
                        acc[j] = t
                    elif j in acc:
                        del acc[j]
            out._rows[i] = acc
        return out

    def apply(self, vec: Sequence[RationalLike]) -> tuple:
        """Matrix-vector product, returning a tuple of Fractions."""
        if len(vec) != self.cols:
            raise DimensionMismatch("apply: vector length mismatch")
        v = [rat(x) for x in vec]
        out = []
        for i in range(self.rows):
            acc = Fraction(0)
            for j, w in self._rows[i].items():
                if v[j]:
                    acc += w * v[j]
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "FractionMatrix":
        out = FractionMatrix(self.cols, self.rows)
        for i in range(self.rows):
            for j, v in self._rows[i].items():
                out._rows[j][i] = v
        return out

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        return sum((self._rows[i].get(i, Fraction(0)) for i in range(self.rows)),
                   Fraction(0))

    def commutator(self, other: "FractionMatrix") -> "FractionMatrix":
        return self @ other - other @ self

    def anticommutator(self, other: "FractionMatrix") -> "FractionMatrix":
        return self @ other + other @ self

    # -- canonical forms -----------------------------------------------------

    def rref(self) -> "FractionMatrix":
        """Reduced row echelon form with pivots sorted by column (canonical)."""
        return self._rref_data()[0]

    def pivot_columns(self) -> tuple:
        return self._rref_data()[1]

    def _rref_data(self):
        if self._rref is None:
            pivots = _back_substitute(_echelon(
                _to_int_row(r) for r in self._rows if r))
            cols = sorted(pivots)
            out = FractionMatrix(len(cols), self.cols)
            for i, c in enumerate(cols):
                prow = pivots[c]
                lead = prow[c]
                out._rows[i] = {j: Fraction(v, lead) for j, v in prow.items()}
            out._rref = (out, tuple(cols))
            self._rref = (out, tuple(cols))
        return self._rref

    def rank(self) -> int:
        return len(self.pivot_columns())

    def kernel(self) -> "FractionSubspace":
        """Canonical basis of the right kernel {x : Mx = 0}."""
        rref, pivots = self._rref_data()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis_rows = []
        for f in free:
            vec = {f: Fraction(1)}
            for i, pc in enumerate(pivots):
                coef = rref._rows[i].get(f)
                if coef:
                    vec[pc] = -coef
            basis_rows.append(vec)
        mat = FractionMatrix(len(basis_rows), self.cols)
        for i, rd in enumerate(basis_rows):
            mat._rows[i] = rd
        return FractionSubspace(self.cols, mat.rref())

    def row_space(self) -> "FractionSubspace":
        return FractionSubspace(self.cols, self.rref())

    def column_space(self) -> "FractionSubspace":
        return self.transpose().row_space()

    def to_serialisable(self) -> list:
        return [[rat_str(self.entry(i, j)) for j in range(self.cols)]
                for i in range(self.rows)]


def vstack(mats: Sequence[FractionMatrix]) -> FractionMatrix:
    if not mats:
        return FractionMatrix(0, 0)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack: column counts differ")
    out = FractionMatrix(sum(m.rows for m in mats), cols)
    i = 0
    for m in mats:
        for r in range(m.rows):
            out._rows[i] = dict(m._rows[r])
            i += 1
    return out


def hstack(mats: Sequence[FractionMatrix]) -> FractionMatrix:
    if not mats:
        return FractionMatrix(0, 0)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack: row counts differ")
    out = FractionMatrix(rows, sum(m.cols for m in mats))
    for i in range(rows):
        row: dict = {}
        off = 0
        for m in mats:
            for j, v in m._rows[i].items():
                row[off + j] = v
            off += m.cols
        out._rows[i] = row
    return out


def block_diag(mats: Sequence[FractionMatrix]) -> FractionMatrix:
    out = FractionMatrix(sum(m.rows for m in mats), sum(m.cols for m in mats))
    roff = coff = 0
    for m in mats:
        for i in range(m.rows):
            out._rows[roff + i] = {coff + j: v for j, v in m._rows[i].items()}
        roff += m.rows
        coff += m.cols
    return out


def kron(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    out = FractionMatrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j, v in a._rows[i].items():
            for k in range(b.rows):
                row = out._rows[i * b.rows + k]
                for l, w in b._rows[k].items():
                    row[j * b.cols + l] = v * w
    return out


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class FractionSubspace:
    """A linear subspace held by its canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: FractionMatrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis vectors have the wrong length")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Sequence[Sequence[RationalLike]]
                     ) -> "FractionSubspace":
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatch("basis vectors have the wrong length")
        mat = FractionMatrix(len(vectors), ambient_dim,
                          [(i, j, v) for i, row in enumerate(vectors)
                           for j, v in enumerate(row)])
        return cls(ambient_dim, mat.rref())

    @classmethod
    def full(cls, ambient_dim: int) -> "FractionSubspace":
        return cls(ambient_dim, FractionMatrix.identity(ambient_dim))

    @classmethod
    def trivial(cls, ambient_dim: int) -> "FractionSubspace":
        return cls(ambient_dim, FractionMatrix(0, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list:
        return [self.basis.row_tuple(i) for i in range(self.dim)]

    def coordinates(self, vector: Sequence[RationalLike]) -> Optional[tuple]:
        """Coefficients of `vector` against the RREF basis, or None."""
        v = [rat(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong length")
        pivots = self.basis.pivot_columns()
        coords = tuple(v[c] for c in pivots)
        residual = list(v)
        for i, c in enumerate(coords):
            if c:
                for j, w in self.basis._rows[i].items():
                    residual[j] -= c * w
        if any(residual):
            return None
        return coords

    def contains(self, vector: Sequence[RationalLike]) -> bool:
        return self.coordinates(vector) is not None

    def contains_subspace(self, other: "FractionSubspace") -> bool:
        return all(self.contains(other.basis.row_tuple(i))
                   for i in range(other.dim))

    def intersect(self, other: "FractionSubspace") -> "FractionSubspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("intersection: ambient dims differ")
        # x = B1^T u = B2^T w; solve for (u, w) in the kernel of [B1^T | -B2^T]
        joint = hstack([self.basis.transpose(),
                        other.basis.transpose().scale(-1)])
        sol = joint.kernel()
        own = self.basis_vectors()
        vectors = [lincomb(zip(sol.basis.row_tuple(k)[: self.dim], own),
                           self.ambient_dim)
                   for k in range(sol.dim)]
        return FractionSubspace.from_vectors(self.ambient_dim, vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionSubspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"FractionSubspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# affine solving
# ---------------------------------------------------------------------------


def _augmented(A: FractionMatrix,
               b: Sequence[RationalLike]) -> FractionMatrix:
    """[A | b]."""
    aug = FractionMatrix(A.rows, A.cols + 1)
    for i, row in enumerate(A._rows):
        q = rat(b[i])
        aug._rows[i] = {**row, A.cols: q} if q else dict(row)
    return aug


def _canonical_solution(aug: FractionMatrix) -> Optional[tuple]:
    """x with [A | b] (x, -1) = 0 and the free variables (relative to the
    sorted-pivot RREF of A) zero, or None when the system is inconsistent."""
    bcol = aug.cols - 1
    rref, pivots = aug._rref_data()
    if bcol in pivots:
        return None
    x = [_ZERO] * bcol
    for i, pc in enumerate(pivots):
        x[pc] = rref._rows[i].get(bcol, _ZERO)
    return tuple(x)


def solve_affine(A: FractionMatrix, b: Sequence[RationalLike]):
    """Exact x with Ax = b, as a tuple, or a NoSolution certificate.

    The particular solution is canonical: free variables (relative to the
    sorted-pivot RREF) are set to zero.  The certificate y is computed only
    when there is no x, as the canonical solution of [A^T; b^T] y = e_last.
    """
    if A.rows != len(b):
        raise DimensionMismatch("solve_affine: rhs length differs from rows")
    aug = _augmented(A, b)
    x = _canonical_solution(aug)
    if x is not None:
        return x
    y = _canonical_solution(_augmented(aug.transpose(),
                                       basis_vec(A.cols + 1, A.cols)))
    if y is None:
        raise OracleMismatch("solve_affine: neither a solution nor an "
                             "inconsistency certificate exists")
    return NoSolution(combination=y, rhs=Fraction(1))


def scaled_rows(rows: Iterable[dict]) -> tuple:
    """Sparse rational rows over one common denominator: (L, int_rows) with
    row[j] == int_rows[k][j] / L for the k-th row, L the lcm of every
    denominator.  The keys of a row may be anything hashable."""
    rows = list(rows)
    L = 1
    for row in rows:
        for v in row.values():
            if v.denominator != 1:
                L = L // gcd(L, v.denominator) * v.denominator
    return L, [{j: v.numerator * (L // v.denominator) for j, v in row.items()}
               for row in rows]


def _scaled_row(row: dict) -> tuple:
    """(d, ints) with row[j] == ints[j] / d, d the lcm of the denominators."""
    d, (ints,) = scaled_rows((row,))
    return d, ints


class FractionAffineSolver:
    """Factor A once, then solve Ax = b for many right-hand sides.

    Let P be A restricted to r independent rows and to the pivot columns of
    its RREF; P is invertible.  The canonical solution (free variables zero)
    of a consistent system is unique, so it is x[pivots] = P^-1 b[rows].
    `solve_many` computes that for a batch of right-hand sides and certifies
    the whole batch with one exact product A X == Y.  A is factored at the
    first solve, so a solver that is never asked costs nothing.
    """

    __slots__ = ("A", "_pivots", "_rows", "_inv", "_scaled")

    def __init__(self, A: FractionMatrix):
        self.A = A
        self._inv = None

    def _factor(self) -> None:
        A = self.A
        pivots = A.pivot_columns()
        r = len(pivots)
        sub = FractionMatrix(A.rows, r)
        for i, row in enumerate(A._rows):
            sub._rows[i] = {k: row[pc] for k, pc in enumerate(pivots)
                            if pc in row}
        rows = sub.transpose().pivot_columns()
        aug = FractionMatrix(r, 2 * r)
        for i, ri in enumerate(rows):
            aug._rows[i] = {**sub._rows[ri], r + i: Fraction(1)}
        # RREF of [P | I] is [I | P^-1]; rows of P^-1 kept integer-scaled
        self._inv = [_scaled_row({j - r: v for j, v in row.items() if j >= r})
                     for row in aug.rref()._rows]
        self._pivots = pivots
        self._rows = rows
        self._scaled = [_scaled_row(row) for row in A._rows]

    def solve_many(self, Y: FractionMatrix) -> list:
        """The canonical solution of A x = y for each column y of Y, or None
        for a column that has none.

        X[pivots] = P^-1 Y[rows] is computed on integer-scaled rows, and one
        exact product A X == Y, checked on every column, certifies the
        batch.  A column that fails the check has no solution: had it one,
        the canonical one would be unique and equal to P^-1 y[rows]."""
        A = self.A
        if Y.rows != A.rows:
            raise DimensionMismatch("solve_many: right-hand sides differ in "
                                    "length from the rows")
        if self._inv is None:
            self._factor()
        dens, yn = _scaled_columns(Y)
        # row k of P^-1 is inv_row / d, so X[pc, j] = (inv_row . yn[rows])_j
        # / (d dens[j]); over L, the lcm of the d, it is xn[pc][j] /
        # (L dens[j])
        L = lcm(*(d for d, _ in self._inv))
        xn = {}
        for pc, (d, inv_row) in zip(self._pivots, self._inv):
            x = _combination((v, yn[self._rows[i]])
                             for i, v in inv_row.items())
            xn[pc] = {j: s * (L // d) for j, s in x.items()}
        # the certificate A X == Y: with row i of A equal to a / d, it holds
        # on column j iff (a . xn)_j == yn[i][j] d L
        failed = set()
        for (d, row), yrow in zip(self._scaled, yn):
            ax = _combination((v, xn[c]) for c, v in row.items() if c in xn)
            failed.update(j for j in ax.keys() | yrow.keys()
                          if ax.get(j, 0) != yrow.get(j, 0) * d * L)
        out = [None if j in failed else [_ZERO] * A.cols
               for j in range(Y.cols)]
        for pc, col in xn.items():
            for j, s in col.items():
                if out[j] is not None:
                    out[j][pc] = Fraction(s, L * dens[j])
        return [None if x is None else tuple(x) for x in out]


def _scaled_columns(M: FractionMatrix) -> tuple:
    """M scaled to integers column by column: (dens, rows) with M[i, j] ==
    rows[i][j] / dens[j], dens[j] the lcm of the denominators of column j."""
    dens = [1] * M.cols
    for row in M._rows:
        for j, v in row.items():
            if v.denominator != 1:
                dens[j] = lcm(dens[j], v.denominator)
    return dens, [{j: v.numerator * (dens[j] // v.denominator)
                   for j, v in row.items()} for row in M._rows]


def hom_apply(blocks: Sequence[tuple], M: FractionMatrix) -> FractionMatrix:
    """phi -> T phi - phi D on every column of M, with the rows of M cut
    into source-major Hom(source, target) blocks, one per (T, D) pair: the
    product of M with the block diagonal of kron(I, T) - kron(D^T, I),
    without forming it.  Entry (s, t) of a block is
    sum_u T[t, u] phi[s, u] - sum_u D[u, s] phi[u, t], a combination of
    rows of M, summed on integer-scaled rows."""
    if M.rows != sum(T.rows * D.rows for T, D in blocks):
        raise DimensionMismatch("hom_apply: rows do not fit the blocks")
    dens, rows = _scaled_columns(M)
    out = FractionMatrix(M.rows, M.cols)
    off = 0
    for T, D in blocks:
        nt = T.rows
        # row t of T is tn / td and column s of D is dn / dd
        t_rows = [_scaled_row(r) for r in T._rows]
        for s, (dd, dn) in enumerate(map(_scaled_row, D.transpose()._rows)):
            base = off + s * nt
            for t, (td, tn) in enumerate(t_rows):
                acc = _combination(
                    [(c * dd, rows[base + u]) for u, c in tn.items()] +
                    [(-c * td, rows[off + u * nt + t]) for u, c in dn.items()])
                out._rows[base + t] = {j: Fraction(v, td * dd * dens[j])
                                       for j, v in acc.items()}
        off += D.rows * nt
    return out


def _combination(terms: Iterable[tuple]) -> dict:
    """The sparse integer row sum of c * row over (c, row) pairs, without
    zero entries."""
    acc: dict = {}
    for c, row in terms:
        for j, v in row.items():
            acc[j] = acc.get(j, 0) + c * v
    return {j: v for j, v in acc.items() if v}


def pair_map(out_table: IndexTable, in_table: IndexTable,
             A: FractionMatrix, B: FractionMatrix) -> FractionMatrix:
    """Matrix of e_i * e_j -> (A e_i) * (B e_j) between two sym2 or two
    wedge2 tables, * the symmetric or the wedge product.

    pair_map(t_out, t_in, M, M) is the induced map Sym^2 M or Wedge^2 M."""
    kind = in_table.kind
    if kind not in ("sym2", "wedge2") or out_table.kind != kind:
        raise DimensionMismatch("pair_map expects two sym2 or two wedge2 "
                                "tables")
    shape = (out_table.dims[0], in_table.dims[0])
    if (A.rows, A.cols) != shape or (B.rows, B.cols) != shape:
        raise DimensionMismatch("pair_map: matrices do not fit the tables")
    a_cols, b_cols = A.transpose()._rows, B.transpose()._rows
    index, sign = out_table.index, out_table.sign
    out = FractionMatrix(out_table.size, in_table.size)
    for col, (i, j) in enumerate(in_table.tuples):
        acc: dict = {}
        for k, a in a_cols[i].items():
            for l, b in b_cols[j].items():
                s = sign(k, l)
                if s:
                    p = index(k, l)
                    acc[p] = acc.get(p, _ZERO) + s * a * b
        for p, c in acc.items():
            if c:
                out._rows[p][col] = c
    return out
