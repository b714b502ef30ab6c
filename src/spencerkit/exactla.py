"""Exact rational sparse linear algebra on integer-scaled rows.

Row i of an `ExactMatrix` is a sparse dict of ints over one positive int
denominator, `_rows[i] / _dens[i]`, and the denominator shares no factor
with all of the row's entries (an empty row has denominator 1).  That form
is canonical, so equality of matrices is literal equality of rationals.
Every operation works on it: eliminations are fraction-free, canonical
forms are reduced row echelon with sorted pivot columns, so equality of
subspaces is literal equality of entries, and `fractions.Fraction` appears
only at the API boundary: the constructors take ints, Fractions and "p/q"
strings, and `entry`, `row_tuple`, `apply` and `solve_affine` return
Fractions.  No floating point appears anywhere.

Every linear system is solved one way: `solve_matrix` reads the canonical
solution of each right-hand side off one RREF of [A | Y] and certifies the
batch with one exact product A X == Y; `solve_affine` is that on one
column, with its inconsistency certificate solved and checked the same way.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, OracleMismatch

Rational = Fraction

_ZERO = Fraction(0)

RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "/" in value:
            p, q = value.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction) -> str:
    """Canonical serialisation: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fraction(v: int, d: int) -> Fraction:
    """The Fraction v / d, for d > 0."""
    return Fraction(v) if d == 1 else Fraction(v, d)


# ---------------------------------------------------------------------------
# integer sparse row helpers
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


def _normal(row: dict, den: int) -> tuple:
    """The canonical (ints, den) of the rational row `row / den`, den > 0:
    both divided by the gcd of den and the entries."""
    if den == 1 or not row:
        return row, 1
    g = den
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row, den
    return {j: v // g for j, v in row.items()}, den // g


def _rational_row(values: Iterable) -> tuple:
    """A sequence of rational-likes as a canonical sparse (ints, den)."""
    row = {}
    for j, x in enumerate(values):
        if x:
            q = rat(x)
            if q:
                row[j] = q
    den, (ints,) = scaled_rows((row,))
    return ints, den


def _echelon(rows: Iterable[dict]) -> dict:
    """Forward elimination of integer rows, in order: maps pivot column ->
    stripped integer row."""
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _strip_row(row)
                break
            row = _strip_row(_axpy(row, piv, piv[lead], -row[lead]))
        # fully reduced rows vanish and are dropped
    return pivots


def _back_substitute(pivots: dict) -> None:
    """Clear every pivot row at the other pivot columns, bottom-up.  The rows
    below a row are reduced by then, so subtracting them adds entries on
    free columns only: one combination over the pivot columns the row
    itself meets reduces it."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        hits = [(v, pivots[c2], pivots[c2][c2]) for c2, v in row.items()
                if c2 != c and c2 in pivots]
        if hits:
            L = lcm(*[lead for _, _, lead in hits])
            pivots[c] = _strip_row(_combination(
                [(L, row)] + [(-v * (L // lead), prow)
                              for v, prow, lead in hits]))


def _combination(terms: Iterable[tuple]) -> dict:
    """The sparse integer row sum of c * row over (c, row) pairs, without
    zero entries."""
    acc: dict = {}
    for c, row in terms:
        for j, v in row.items():
            acc[j] = acc.get(j, 0) + c * v
    return {j: v for j, v in acc.items() if v}


def _null_vectors(rows: Sequence[dict], cols: int) -> list:
    """Integer vectors spanning {x : M x = 0} for the M with integer rows
    `rows` (a row's denominator does not change the kernel), from one
    forward elimination of M^T.  Column j of M enters as a row of M^T
    tagged with e_j; the row and its tag are reduced together, so the tag
    is always the combination of M's columns that the row is, and a column
    that reduces to zero leaves its tag in the kernel.  The order follows
    M's sparsity: lead positions are M's rows by ascending nonzero count,
    ties by index, and columns enter by ascending nonzero count, ties by
    descending index.  A tag holds its own column and the columns that
    entered before it, so within a count the tag's lowest column is its
    own: the null tags come out nearly in echelon form, and the RREF that
    kernel() closes with has little left to eliminate."""
    ranked = sorted((i for i, r in enumerate(rows) if r),
                    key=lambda i: len(rows[i]))
    tcols = [dict() for _ in range(cols)]
    for k, i in enumerate(ranked):
        for j, v in rows[i].items():
            tcols[j][k] = v
    pivots: dict = {}
    null = []
    for j in sorted(range(cols), key=lambda j: (len(tcols[j]), -j)):
        # the row and its tag are this loop's own until the row is stored
        # as a pivot, so they are reduced in place
        row, tag = tcols[j], {j: 1}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (row, tag)
                break
            prow, ptag = piv
            a, b = prow[lead], -row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            _scale_add(row, prow, a, b)
            _scale_add(tag, ptag, a, b)
            if a != 1:
                # scaling is what puts a common factor on the pair
                _strip_pair(row, tag)
        else:
            null.append(tag)
    return null


def _scale_add(row: dict, other: dict, a: int, b: int) -> None:
    """row <- a*row + b*other, in place, over integer sparse rows."""
    if a != 1:
        for c in row:
            row[c] *= a
    get = row.get
    for c, v in other.items():
        w = get(c, 0) + b * v
        if w:
            row[c] = w
        else:
            del row[c]


def _strip_pair(row: dict, tag: dict) -> None:
    """Divide both rows, in place, by the content they have in common."""
    g = 0
    for part in (row, tag):
        for v in part.values():
            g = gcd(g, v)
            if g == 1:
                return
    for part in (row, tag):
        for c in part:
            part[c] //= g


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable dense-semantics matrix of exact rationals, stored sparsely
    as integer rows over one denominator each (see the module docstring).
    A row dict is never changed once its matrix is built, so matrices may
    share them."""

    __slots__ = ("rows", "cols", "_rows", "_dens", "_rref", "_kernel")

    def __init__(self, rows: int, cols: int,
                 entries: Optional[Iterable[tuple]] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data = [dict() for _ in range(rows)]
        dens = [1] * rows
        if entries:
            for i, j, v in entries:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) out of range")
                q = v if type(v) is int else rat(v)
                if q:
                    data[i][j] = q
                elif j in data[i]:
                    del data[i][j]
            for i, row in enumerate(data):
                if any(type(v) is not int for v in row.values()):
                    # over the lcm of the denominators, which is canonical
                    dens[i], (data[i],) = scaled_rows((row,))
        self._rows = data
        self._dens = dens
        self._rref = None
        self._kernel = None

    @classmethod
    def _of(cls, rows: int, cols: int, pairs: list) -> "ExactMatrix":
        """The matrix whose row i is pairs[i] = (ints, den), which must be
        canonical; unchecked."""
        out = object.__new__(cls)
        out.rows = rows
        out.cols = cols
        out._rows = [row for row, _ in pairs]
        out._dens = [den for _, den in pairs]
        out._rref = None
        out._kernel = None
        return out

    @classmethod
    def from_int_rows(cls, cols: int, pairs: Iterable[tuple]
                      ) -> "ExactMatrix":
        """The matrix whose row i is pairs[i] = (ints, den): an int dict
        with no zero values over a denominator den > 0, brought to canonical
        form."""
        pairs = [_normal(row, den) for row, den in pairs]
        return cls._of(len(pairs), cols, pairs)

    def int_rows(self) -> tuple:
        """(D, rows): row i is rows[i] / D, for D the lcm of the row
        denominators and rows[i] an int dict.  A row already over D is the
        matrix's own dict, which must not be changed."""
        D = lcm(*self._dens)
        return D, [r if d == D else {j: v * (D // d) for j, v in r.items()}
                   for r, d in zip(self._rows, self._dens)]

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[RationalLike]],
                  cols: Optional[int] = None) -> "ExactMatrix":
        nrows = len(rows_data)
        ncols = cols if cols is not None else (len(rows_data[0]) if nrows else 0)
        if any(len(row) != ncols for row in rows_data):
            raise DimensionMismatch("ragged rows")
        return cls._of(nrows, ncols, [_rational_row(row) for row in rows_data])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RationalLike]],
                     rows: int) -> "ExactMatrix":
        """The rows x len(columns) matrix with the given columns."""
        return cls.from_rows(columns, cols=rows).transpose()

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        v = self._rows[i].get(j)
        return _ZERO if v is None else _fraction(v, self._dens[i])

    def row_tuple(self, i: int) -> tuple:
        d = self._dens[i]
        out = [_ZERO] * self.cols
        for j, v in self._rows[i].items():
            out[j] = _fraction(v, d)
        return tuple(out)

    def select_rows(self, indices: Iterable[int]) -> "ExactMatrix":
        """The rows at `indices`, in that order."""
        pairs = [(dict(self._rows[i]), self._dens[i]) for i in indices]
        return ExactMatrix._of(len(pairs), self.cols, pairs)

    def select_columns(self, indices: Iterable[int]) -> "ExactMatrix":
        """The columns at `indices` (distinct), in that order."""
        where = {j: k for k, j in enumerate(indices)}
        return ExactMatrix._of(self.rows, len(where), [
            _normal({where[j]: v for j, v in r.items() if j in where}, d)
            for r, d in zip(self._rows, self._dens)])

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The rows x cols matrix with the same entries, read row by row."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch("reshape: the sizes differ")
        # each new row over the lcm of the denominators of the rows it reads
        parts = [dict() for _ in range(rows)]
        for i, (r, d) in enumerate(zip(self._rows, self._dens)):
            base = i * self.cols
            for j, v in r.items():
                k, m = divmod(base + j, cols)
                parts[k][m] = (v, d)
        pairs = []
        for part in parts:
            L = lcm(*[d for _, d in part.values()])
            pairs.append(_normal({m: v * (L // d)
                                  for m, (v, d) in part.items()}, L))
        return ExactMatrix._of(rows, cols, pairs)

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._dens == other._dens and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._dens),
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        pairs = []
        for a, da, b, db in zip(self._rows, self._dens,
                                other._rows, other._dens):
            if not a or not b:
                pairs.append((b, db) if not a else (a, da))
                continue
            L = lcm(da, db)
            pairs.append(_normal(_combination(((L // da, a), (L // db, b))),
                                 L))
        return ExactMatrix._of(self.rows, self.cols, pairs)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, factor: RationalLike) -> "ExactMatrix":
        q = rat(factor)
        if not q:
            return ExactMatrix(self.rows, self.cols)
        p, s = q.numerator, q.denominator
        return ExactMatrix._of(self.rows, self.cols, [
            _normal({j: v * p for j, v in r.items()}, d * s)
            for r, d in zip(self._rows, self._dens)])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        return ExactMatrix._of(self.rows, other.cols, _product(self, other))

    def apply(self, vec: Sequence[RationalLike]) -> tuple:
        """Matrix-vector product, returning a tuple of Fractions."""
        if len(vec) != self.cols:
            raise DimensionMismatch("apply: vector length mismatch")
        v, dv = _rational_row(vec)
        out = []
        for row, d in zip(self._rows, self._dens):
            acc = 0
            for j, w in row.items():
                x = v.get(j)
                if x:
                    acc += w * x
            out.append(Fraction(acc, d * dv) if acc else _ZERO)
        return tuple(out)

    def transpose(self) -> "ExactMatrix":
        rows = [dict() for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                rows[j][i] = v
        # column j over the lcm of the denominators of the rows it meets
        dens = [1] * self.cols
        for r, d in zip(self._rows, self._dens):
            if d != 1:
                for j in r:
                    if dens[j] % d:
                        dens[j] = lcm(dens[j], d)
        for j, d in enumerate(dens):
            if d != 1:
                rows[j] = {i: v * (d // self._dens[i])
                           for i, v in rows[j].items()}
        return ExactMatrix._of(self.cols, self.rows,
                               list(map(_normal, rows, dens)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), _ZERO)

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self @ other - other @ self

    def anticommutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self @ other + other @ self

    # -- canonical forms -----------------------------------------------------

    def rref(self) -> "ExactMatrix":
        """Reduced row echelon form with pivots sorted by column (canonical)."""
        return self._rref_data()[0]

    def pivot_columns(self) -> tuple:
        return self._rref_data()[1]

    def _rref_data(self):
        """(RREF, its pivot columns)."""
        if self._rref is None:
            # the rows' denominators do not change the row space
            rows = [i for i, r in enumerate(self._rows) if r]
            if len(rows) > self.cols:
                # tall: the pivot columns of the transpose's echelon are
                # independent rows that span the row space, and only those
                # rows are eliminated
                tcols = [dict() for _ in range(self.cols)]
                for i in rows:
                    for j, v in self._rows[i].items():
                        tcols[j][i] = v
                rows = sorted(_echelon(tcols))
            pivots = _echelon(self._rows[i] for i in rows)
            # row k of the RREF is the stripped pivot row over its leading
            # entry
            _back_substitute(pivots)
            cols = sorted(pivots)
            out = ExactMatrix._of(len(cols), self.cols,
                                  [(pivots[c], pivots[c][c]) for c in cols])
            out._rref = self._rref = (out, tuple(cols))
        return self._rref

    def rank(self) -> int:
        if self._rref is None and self._kernel is not None:
            # rank-nullity spares an elimination after kernel()
            return self.cols - self._kernel.dim
        return len(self.pivot_columns())

    def kernel(self) -> "Subspace":
        """Canonical basis of the right kernel {x : Mx = 0}, kept on the
        matrix.  It is read off the RREF when that is kept, and otherwise
        comes from one forward elimination of the transpose
        (`_null_vectors`)."""
        if self._kernel is None:
            if self._rref is None:
                pairs = [(v, 1) for v in _null_vectors(self._rows, self.cols)]
            else:
                pairs = self._null_vectors_from_rref()
            mat = ExactMatrix._of(len(pairs), self.cols, pairs)
            self._kernel = Subspace(self.cols, mat.rref())
        return self._kernel

    def _null_vectors_from_rref(self) -> list:
        """One kernel vector per free column, as (ints, den), off the kept
        RREF."""
        rref, pivots = self._rref
        # x_f = 1 on a free column f, and x_pc = -rref[k, f] on the pivot
        # column pc of row k; every entry of row k off pc is on a free column
        hits = {f: [] for f in range(self.cols)}
        for pc, row, d in zip(pivots, rref._rows, rref._dens):
            for f, v in row.items():
                if f != pc:
                    hits[f].append((pc, v, d))
        for pc in pivots:
            del hits[pc]
        pairs = []
        for f, col in hits.items():
            L = lcm(*[d for _, _, d in col])
            vec = {f: L}
            for pc, v, d in col:
                vec[pc] = -v * (L // d)
            pairs.append(_normal(vec, L))
        return pairs

    def row_space(self) -> "Subspace":
        return Subspace(self.cols, self.rref())

    def column_space(self) -> "Subspace":
        return self.transpose().row_space()

    def to_serialisable(self) -> list:
        return [[rat_str(v) for v in self.row_tuple(i)]
                for i in range(self.rows)]


def _product(a: ExactMatrix, b: ExactMatrix) -> list:
    """The rows (ints, den) of a b: row i is sum_k a_ik b_k over the lcm of
    the denominators of the rows b_k it reads."""
    b_rows, b_dens = b._rows, b._dens
    pairs = []
    for arow, d in zip(a._rows, a._dens):
        if not arow:
            pairs.append(({}, 1))
            continue
        L = lcm(*[b_dens[k] for k in arow])
        # _combination inlined: this loop is the hot path of every product
        acc: dict = {}
        get = acc.get
        for k, v in arow.items():
            if L != 1:
                v *= L // b_dens[k]
            for j, w in b_rows[k].items():
                acc[j] = get(j, 0) + v * w
        pairs.append(_normal({j: v for j, v in acc.items() if v}, d * L))
    return pairs


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    if not mats:
        return ExactMatrix(0, 0)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack: column counts differ")
    return ExactMatrix._of(sum(m.rows for m in mats), cols,
                           [(dict(r), d) for m in mats
                            for r, d in zip(m._rows, m._dens)])


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    if not mats:
        return ExactMatrix(0, 0)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack: row counts differ")
    pairs = []
    for i in range(rows):
        # pieces on disjoint columns: the lcm of their canonical
        # denominators is the canonical denominator of the whole row
        L = lcm(*[m._dens[i] for m in mats])
        row: dict = {}
        off = 0
        for m in mats:
            f = L // m._dens[i]
            for j, v in m._rows[i].items():
                row[off + j] = v * f
            off += m.cols
        pairs.append((row, L))
    return ExactMatrix._of(rows, sum(m.cols for m in mats), pairs)


def block_diag(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    pairs = []
    coff = 0
    for m in mats:
        pairs += [({coff + j: v for j, v in r.items()}, d)
                  for r, d in zip(m._rows, m._dens)]
        coff += m.cols
    return ExactMatrix._of(len(pairs), coff, pairs)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    pairs = []
    for ra, da in zip(a._rows, a._dens):
        shifted = [(j * b.cols, v) for j, v in ra.items()]
        pairs += [_normal({o + l: v * w for o, v in shifted
                           for l, w in rb.items()}, da * db)
                  for rb, db in zip(b._rows, b._dens)]
    return ExactMatrix._of(a.rows * b.rows, a.cols * b.cols, pairs)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def vec(values: Sequence[RationalLike]) -> tuple:
    return tuple(rat(v) for v in values)


def vec_is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace held by its canonical RREF basis (one vector per row)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis vectors have the wrong length")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Sequence[Sequence[RationalLike]]) -> "Subspace":
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatch("basis vectors have the wrong length")
        return cls(ambient_dim,
                   ExactMatrix.from_rows(vectors, cols=ambient_dim).rref())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.identity(ambient_dim))

    @classmethod
    def trivial(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix(0, ambient_dim))

    @classmethod
    def direct_sum(cls, spaces: Sequence["Subspace"]) -> "Subspace":
        """The sum of `spaces` in the sum of their ambient spaces, taken one
        after the other: its RREF basis is the block diagonal of theirs."""
        return cls(sum(s.ambient_dim for s in spaces),
                   block_diag([s.basis for s in spaces]))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def coordinates(self, vector: Sequence[RationalLike]) -> Optional[tuple]:
        """Coefficients of `vector` against the RREF basis, or None."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector has the wrong length")
        coords = coordinate_rows(self, ExactMatrix.from_rows([vector]))
        return None if coords is None else coords.row_tuple(0)

    def contains(self, vector: Sequence[RationalLike]) -> bool:
        return self.coordinates(vector) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return coordinate_rows(self, other.basis) is not None

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("intersection: ambient dims differ")
        # x = B1^T u = B2^T w; solve for (u, w) in the kernel of [B1^T | -B2^T]
        # and expand every u at once: the rows u^T B1
        joint = hstack([self.basis.transpose(),
                        other.basis.transpose().scale(-1)])
        own = joint.kernel().basis.select_columns(range(self.dim))
        return Subspace(self.ambient_dim, (own @ self.basis).rref())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def coordinate_rows(space: Subspace, images: ExactMatrix,
                    stack: int = 1) -> Optional[ExactMatrix]:
    """The coordinates in `space` of the rows of `images`, each row `stack`
    ambient vectors one after the other, in the same layout, or None when a
    vector leaves `space`.  Against the RREF basis the coordinates are the
    entries at its pivot columns, and one product with the basis certifies
    all of them; the basis of the whole space is the identity, so there the
    coordinates are the rows themselves."""
    amb = space.ambient_dim
    if images.cols != stack * amb:
        raise DimensionMismatch("coordinate_rows: rows do not fit the space")
    if space.dim == amb:
        return images
    pivots = space.basis.pivot_columns()
    coords = images.select_columns([k * amb + p for k in range(stack)
                                    for p in pivots])
    basis = space.basis if stack == 1 else kron(ExactMatrix.identity(stack),
                                                space.basis)
    if coords @ basis != images:
        return None
    return coords


def coordinate_matrix(space: Subspace, images: ExactMatrix,
                      stack: int = 1) -> Optional[ExactMatrix]:
    """coordinate_rows on the columns of `images`: the coordinates of each
    column as a column, or None when a vector leaves `space`."""
    if space.dim == space.ambient_dim and images.rows == stack * space.dim:
        return images
    coords = coordinate_rows(space, images.transpose(), stack)
    return None if coords is None else coords.transpose()


def first_row_outside(space: Subspace, images: ExactMatrix) -> Optional[int]:
    """The index of the first row of `images` that leaves `space`, or None:
    the first nonzero row of the residual after the pivot coordinates."""
    residual = images - images.select_columns(
        space.basis.pivot_columns()) @ space.basis
    return next((i for i, row in enumerate(residual._rows) if row), None)


# ---------------------------------------------------------------------------
# affine solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoSolution:
    """Inconsistency certificate: y with y^T A = 0 and y . b = rhs = 1."""
    combination: tuple     # y, one coefficient per row of A
    rhs: Fraction          # y . b


def _read_solutions(A: ExactMatrix, Y: ExactMatrix) -> ExactMatrix:
    """X with column j the canonical solution of A x = y_j (the free
    variables, relative to the sorted-pivot RREF of A, zero) when there is
    one: the RREF of [A | Y] is the RREF of A on A's columns, and its rows
    with a pivot there give x[pivot] for every column at once."""
    n = A.cols
    rref, pivots = hstack([A, Y])._rref_data()
    x_full = [({}, 1)] * n
    for pc, row, d in zip(pivots, rref._rows, rref._dens):
        if pc >= n:
            break
        x_full[pc] = _normal({j - n: v for j, v in row.items() if j >= n}, d)
    return ExactMatrix._of(n, Y.cols, x_full)


def solve_matrix(A: ExactMatrix, Y: ExactMatrix) -> tuple:
    """(X, failed): column j of X is the canonical solution of A x = y for
    column y of Y, and `failed` is the set of the columns that have none
    (their columns of X solve nothing).

    X is read off one RREF of [A | Y], and one exact product A X == Y,
    checked on every column, certifies the batch.  A column that fails the
    check has no solution: had it one, the canonical one would be unique
    and equal to the one read off.  An empty Y needs no elimination."""
    if Y.rows != A.rows:
        raise DimensionMismatch("solve_matrix: right-hand sides differ in "
                                "length from the rows")
    if not Y.cols:
        return ExactMatrix(A.cols, 0), set()
    X = _read_solutions(A, Y)
    failed = set()
    for (ar, ad), yr, yd in zip(_product(A, X), Y._rows, Y._dens):
        if ad != yd or ar != yr:
            failed.update(j for j in ar.keys() | yr.keys()
                          if ar.get(j, 0) * yd != yr.get(j, 0) * ad)
    return X, failed


def solve_affine(A: ExactMatrix, b: Sequence[RationalLike]):
    """The canonical solution of Ax = b as a tuple, or a NoSolution
    certificate: solve_matrix on the one column b.

    The certificate y is computed only when there is no x, as solve_matrix
    of [A^T; b^T] y = e_last, whose product check certifies y^T A = 0 and
    y . b = 1.
    """
    if A.rows != len(b):
        raise DimensionMismatch("solve_affine: rhs length differs from rows")
    B = ExactMatrix.from_columns([b], A.rows)
    X, failed = solve_matrix(A, B)
    if not failed:
        return X.transpose().row_tuple(0)
    Y, failed = solve_matrix(hstack([A, B]).transpose(),
                             ExactMatrix(A.cols + 1, 1, [(A.cols, 0, 1)]))
    if failed:
        raise OracleMismatch("solve_affine: neither a solution nor an "
                             "inconsistency certificate exists")
    y = Y.transpose().row_tuple(0)
    return NoSolution(combination=y, rhs=sum(
        (q * rat(v) for q, v in zip(y, b)), _ZERO))


def scaled_rows(rows: Iterable[dict]) -> tuple:
    """Sparse rational rows over one common denominator: (L, int_rows) with
    row[j] == int_rows[k][j] / L for the k-th row, L the lcm of every
    denominator.  The keys of a row may be anything hashable."""
    rows = list(rows)
    L = 1
    for row in rows:
        for v in row.values():
            if L % v.denominator:
                L = lcm(L, v.denominator)
    return L, [{j: v.numerator * (L // v.denominator) for j, v in row.items()}
               for row in rows]


class HomAction:
    """phi -> T phi - phi D on every row of a matrix whose columns are cut
    into source-major Hom(source, target) blocks, one per (T, D) pair: the
    product of each row with the transpose of the block diagonal of
    kron(I, T) - kron(D^T, I), without forming it.  The index tables are
    built once, here, with every entry of every T and D over one common
    denominator, and every `apply_rows` reads them."""

    __slots__ = ("blocks", "_den", "_dim", "_starts", "_tables")

    def __init__(self, blocks: Sequence[tuple]):
        self.blocks = tuple(blocks)
        L = lcm(*[d for T, D in self.blocks for d in T._dens + D._dens])
        starts, tables, off = [], [], 0
        for T, D in self.blocks:
            # entry phi[a, b] of the block feeds (a, t) through t_cols[b],
            # the (t, L T[t, b]) of column b of T, and (s, b) through
            # d_rows[a], the (s nt, -L D[a, s]) of row a of D
            nt = T.rows
            t_cols = [[] for _ in range(nt)]
            for t, (row, d) in enumerate(zip(T._rows, T._dens)):
                for u, c in row.items():
                    t_cols[u].append((t, c * (L // d)))
            d_rows = [[(s * nt, -c * (L // d)) for s, c in row.items()]
                      for row, d in zip(D._rows, D._dens)]
            starts.append(off)
            tables.append((off, nt, t_cols, d_rows))
            off += D.rows * nt
        self._den, self._dim = L, off
        self._starts, self._tables = starts, tables

    def apply_rows(self, M: ExactMatrix) -> ExactMatrix:
        """Each row of M mapped, one cochain per row.  Entry (s, t) of a
        block is sum_u T[t, u] phi[s, u] - sum_u D[u, s] phi[u, t]: each
        nonzero entry of a row is scattered to the entries it feeds, and the
        row is summed over its denominator times the tables' one."""
        if M.cols != self._dim:
            raise DimensionMismatch("HomAction: columns do not fit the "
                                    "blocks")
        starts, tables, L = self._starts, self._tables, self._den
        pairs = []
        for row, d in zip(M._rows, M._dens):
            acc: dict = {}
            get = acc.get
            for k, v in row.items():
                # the last block starting at or before k holds it: a block
                # of size 0 starts where the next one does
                off, nt, t_cols, d_rows = tables[bisect_right(starts, k) - 1]
                a, b = divmod(k - off, nt)
                base = off + a * nt
                for t, c in t_cols[b]:
                    acc[base + t] = get(base + t, 0) + c * v
                base = off + b
                for s, c in d_rows[a]:
                    acc[base + s] = get(base + s, 0) + c * v
            pairs.append(_normal({j: v for j, v in acc.items() if v}, d * L))
        return ExactMatrix._of(M.rows, M.cols, pairs)


def flatten_columns(mats: Sequence[ExactMatrix], rows: int,
                    cols: int) -> ExactMatrix:
    """The (rows cols) x len(mats) matrix whose column t is mats[t], a
    rows x cols matrix, read row by row."""
    pairs = []
    for m in mats:
        if (m.rows, m.cols) != (rows, cols):
            raise DimensionMismatch("flatten_columns: shape mismatch")
        L = lcm(*m._dens)
        pairs.append(_normal({a * cols + x: v * (L // d)
                              for a, (r, d) in enumerate(zip(m._rows, m._dens))
                              for x, v in r.items()}, L))
    return ExactMatrix._of(len(mats), rows * cols, pairs).transpose()


def ldlt_pivots(M: ExactMatrix) -> list:
    """Pivots of the LDL^T decomposition of a symmetric matrix, without
    permutation.  Stops early (appending the offending pivot) when a pivot
    is <= 0, which certifies failure of positive-definiteness."""
    if M.rows != M.cols:
        raise DimensionMismatch("ldlt_pivots expects a square matrix")
    if M != M.transpose():
        raise DimensionMismatch("ldlt_pivots expects a symmetric matrix")
    n = M.rows
    work = [[M.entry(i, j) for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        d = work[k][k]
        pivots.append(d)
        if d <= 0:
            return pivots
        for i in range(k + 1, n):
            f = work[i][k] / d
            if f:
                for j in range(k, n):
                    work[i][j] -= f * work[k][j]
    return pivots


def is_positive_definite(M: ExactMatrix) -> bool:
    if M.rows == 0:
        return True
    pivots = ldlt_pivots(M)
    return len(pivots) == M.rows and all(p > 0 for p in pivots)


# ---------------------------------------------------------------------------
# index tables for tensor powers
# ---------------------------------------------------------------------------


class IndexTable:
    """Bijection between flat coordinates and (multi-)indices."""

    __slots__ = ("kind", "dims", "tuples", "_lookup")

    def __init__(self, kind: str, dims: tuple, tuples: tuple):
        self.kind = kind
        self.dims = dims
        self.tuples = tuples
        self._lookup = {t: i for i, t in enumerate(tuples)}

    @property
    def size(self) -> int:
        return len(self.tuples)

    def index(self, *idx: int) -> int:
        if self.kind == "full2":
            key = tuple(idx)
        else:
            key = tuple(sorted(idx))
        return self._lookup[key]

    def sign(self, *idx: int) -> int:
        """Sign picked up by sorting a pair (only nontrivial for wedge2)."""
        if self.kind == "wedge2":
            i, j = idx
            if i == j:
                return 0
            return 1 if i < j else -1
        return 1

    def __repr__(self):
        return f"IndexTable({self.kind}, dims={self.dims}, size={self.size})"


def tensor_index_maps(n: int, kind: str) -> IndexTable:
    """Bijective table between flat coordinates and (multi-)indices, in
    lexicographic order."""
    if n < 0:
        raise DimensionMismatch("negative dimension")
    if kind == "sym2":
        tuples = tuple((i, j) for i in range(n) for j in range(i, n))
        assert len(tuples) == n * (n + 1) // 2
    elif kind == "wedge2":
        tuples = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert len(tuples) == n * (n - 1) // 2
    elif kind == "sym3":
        tuples = tuple((i, j, k) for i in range(n)
                       for j in range(i, n) for k in range(j, n))
        assert len(tuples) == comb(n + 2, 3)
    elif kind == "wedge3":
        tuples = tuple((i, j, k) for i in range(n)
                       for j in range(i + 1, n) for k in range(j + 1, n))
        assert len(tuples) == comb(n, 3)
    elif kind == "full2":
        tuples = tuple((i, j) for i in range(n) for j in range(n))
    else:
        raise ValueError(f"unknown index table kind {kind!r}")
    return IndexTable(kind, (n,), tuples)


def pair_map(out_table: IndexTable, in_table: IndexTable,
             A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
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
    a_cols, b_cols = A.transpose(), B.transpose()
    index, sign = out_table.index, out_table.sign
    # built one column at a time, as the rows of the transpose
    pairs = []
    for i, j in in_table.tuples:
        acc: dict = {}
        for k, a in a_cols._rows[i].items():
            for l, b in b_cols._rows[j].items():
                s = sign(k, l)
                if s:
                    p = index(k, l)
                    acc[p] = acc.get(p, 0) + s * a * b
        pairs.append(_normal({p: c for p, c in acc.items() if c},
                             a_cols._dens[i] * b_cols._dens[j]))
    return ExactMatrix._of(in_table.size, out_table.size, pairs).transpose()


def pair_action(table: IndexTable, X: ExactMatrix) -> ExactMatrix:
    """Action of an endomorphism X on a sym2 or wedge2 table:
    X.(e_i * e_j) = (X e_i) * e_j + e_i * (X e_j), that is
    pair_map(X, I) + pair_map(I, X) in one pass, column (i, j) read off
    columns i and j of X alone."""
    if table.kind not in ("sym2", "wedge2"):
        raise DimensionMismatch("pair_action expects a sym2 or wedge2 table")
    if (X.rows, X.cols) != (table.dims[0],) * 2:
        raise DimensionMismatch("pair_action: matrix does not fit the table")
    cols = X.transpose()
    index, sign = table.index, table.sign
    # built one column at a time, as the rows of the transpose
    pairs = []
    for i, j in table.tuples:
        di, dj = cols._dens[i], cols._dens[j]
        L = lcm(di, dj)
        acc: dict = {}
        for k, a in cols._rows[i].items():
            s = sign(k, j)
            if s:
                p = index(k, j)
                acc[p] = acc.get(p, 0) + s * a * (L // di)
        for l, b in cols._rows[j].items():
            s = sign(i, l)
            if s:
                p = index(i, l)
                acc[p] = acc.get(p, 0) + s * b * (L // dj)
        pairs.append(_normal({p: c for p, c in acc.items() if c}, L))
    return ExactMatrix._of(table.size, table.size, pairs).transpose()


def pair_embedding(table: IndexTable) -> ExactMatrix:
    """n^2 x |table| matrix of e_i * e_j -> e_i (x) e_j + e_j (x) e_i for a
    sym2 table, e_i (x) e_j - e_j (x) e_i for a wedge2 table, with e_i (x) e_j
    at i * n + j (the kron convention); on the sym2 diagonal it is
    2 e_i (x) e_i."""
    if table.kind not in ("sym2", "wedge2"):
        raise DimensionMismatch("pair_embedding expects a sym2 or wedge2 "
                                "table")
    n = table.dims[0]
    swap = 1 if table.kind == "sym2" else -1
    entries = []
    for col, (i, j) in enumerate(table.tuples):
        entries += [(i * n + j, col, 1), (j * n + i, col, swap)]
    return _summed(n * n, table.size, entries)


def _summed(rows: int, cols: int, entries) -> ExactMatrix:
    """Matrix from (row, col, value) entries, summing repeated positions."""
    acc: dict = {}
    for r, c, v in entries:
        acc[r, c] = acc.get((r, c), 0) + v
    return ExactMatrix(rows, cols, [(r, c, v) for (r, c), v in acc.items()])
