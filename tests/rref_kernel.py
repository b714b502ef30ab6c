"""The kernel route that `ExactMatrix.kernel()` took before it eliminated
the transpose, kept as the oracle of that one pass: a fresh RREF of the
matrix, then one kernel vector per free column read off it, put in
canonical RREF."""

from math import lcm

from spencerkit.exactla import ExactMatrix, Subspace, _normal


def fresh(M: ExactMatrix) -> ExactMatrix:
    """M with nothing kept: no RREF and no kernel."""
    return ExactMatrix._of(M.rows, M.cols, list(zip(M._rows, M._dens)))


def rref_kernel(M: ExactMatrix) -> Subspace:
    """Canonical basis of {x : Mx = 0}, read off a fresh RREF of M; M itself
    keeps nothing."""
    rref, pivots, _ = fresh(M)._rref_data()
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
