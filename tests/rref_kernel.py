"""The kernel routes that `ExactMatrix.kernel()` took before, kept as
oracles: `rref_kernel`, from before it eliminated the transpose, is a fresh
RREF of the matrix with one kernel vector per free column read off it, put
in canonical RREF; `ascending_kernel` eliminates the transpose with its
columns entering in the order it used before, ties in nonzero count by
ascending index, and puts the null tags in canonical RREF."""

from math import gcd, lcm

from spencerkit.exactla import ExactMatrix, Subspace, _normal, _scale_add, \
    _strip_pair


def fresh(M: ExactMatrix) -> ExactMatrix:
    """M with nothing kept: no RREF and no kernel."""
    return ExactMatrix._of(M.rows, M.cols, list(zip(M._rows, M._dens)))


def rref_kernel(M: ExactMatrix) -> Subspace:
    """Canonical basis of {x : Mx = 0}, read off a fresh RREF of M; M itself
    keeps nothing."""
    rref, pivots = fresh(M)._rref_data()
    # x_f = 1 on a free column f, and x_pc = -rref[k, f] on the pivot
    # column pc of row k; every entry of row k off pc is on a free column
    hits = {f: [] for f in range(M.cols)}
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
    mat = ExactMatrix._of(len(pairs), M.cols, pairs)
    return Subspace(M.cols, mat.rref())


def ascending_kernel(M: ExactMatrix) -> Subspace:
    """Canonical basis of {x : Mx = 0} from one forward elimination of the
    transpose of a fresh copy of M, each column entering with its tag e_j
    by ascending nonzero count, ties by ascending index."""
    rows = M._rows
    ranked = sorted((i for i, r in enumerate(rows) if r),
                    key=lambda i: len(rows[i]))
    tcols = [dict() for _ in range(M.cols)]
    for k, i in enumerate(ranked):
        for j, v in rows[i].items():
            tcols[j][k] = v
    pivots, null = {}, []
    for j in sorted(range(M.cols), key=lambda j: len(tcols[j])):
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
                _strip_pair(row, tag)
        else:
            null.append(tag)
    mat = ExactMatrix._of(len(null), M.cols, [(v, 1) for v in null])
    return Subspace(M.cols, mat.rref())
