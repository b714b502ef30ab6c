"""The column form of the a0-action on C^{2,2} that the package replaced
with one cochain per row, kept as the test oracle the way
`kron_differentials` serves the differentials: `apply_columns` maps each
column of a matrix through the (T, D) blocks of a `HomAction`, and the
functions below use it, and `solve_matrix`, the way `CohomologyReport`,
`FullModelCohomology.act` and `FullModelCohomology.invariant_normalised`
did before they acted on rows.

`cochain_action` builds the operator of an element given by its so(V) and
r coordinates, and `cochain_action_matrix` assembles its matrix on
C^{2,2} with kron: the Kronecker-product oracle of `CochainAction`.

Beside it, the row form that `CohomologyReport` used before it took the
generators one at a time: `row_action_matrices` acts with every Lie
generator on all the representatives and reads the classes from one
elimination against [R; B], and `row_invariant_classes` takes the kernel
of the stacked matrices."""

from fractions import Fraction
from math import lcm

from spencerkit.errors import DimensionMismatch, OracleMismatch
from spencerkit.exactla import ExactMatrix, Subspace, _normal, \
    _combination, block_diag, coordinate_rows, hstack, kron, solve_matrix, \
    vstack
from spencerkit import spencer
from spencerkit.spencer import CochainAction, _actions, _hom_action


def cochain_action(cx, so_coords, r_coords):
    """The CochainAction on C^{2,2} of cx of the element with the given
    so(V) and r coordinates, its matrices on V and S read off the flat
    model."""
    row = ExactMatrix.from_rows([tuple(so_coords) + tuple(r_coords)])
    (on_v,) = cx.model.element_matrices(row, "V")
    (on_s,) = cx.model.element_matrices(row, "S")
    return CochainAction(cx, row.transpose(), on_v, on_s)


def action_matrix(op):
    """The matrix of a CochainAction on C^{2,2}, assembled with kron from
    its (T, D) blocks."""
    return block_diag([_hom_action(T, D) for T, D in op.hom.blocks])


def cochain_action_matrix(cx, so_coords, r_coords):
    """The matrix of X.phi on C^{2,2}: action_matrix of cochain_action."""
    return action_matrix(cochain_action(cx, so_coords, r_coords))


def apply_columns(blocks, M):
    """phi -> T phi - phi D on every column of M, whose rows are cut into
    source-major Hom(source, target) blocks, one per (T, D) pair in
    `blocks`: entry (s, t) of a block is sum_u T[t, u] phi[s, u] -
    sum_u D[u, s] phi[u, t], a combination of rows of M over the lcm of
    their denominators, scattered from the nonzero rows of M only."""
    tables = []
    for T, D in blocks:
        Dt = D.transpose()
        t_cols = [[] for _ in range(T.rows)]
        for t, tn in enumerate(T._rows):
            for u, c in tn.items():
                t_cols[u].append((t, c))
        d_rows = [[] for _ in range(D.rows)]
        for s, dn in enumerate(Dt._rows):
            for u, c in dn.items():
                d_rows[u].append((s, c))
        tables.append((T.rows, D.rows * T.rows, T._dens, Dt._dens, t_cols,
                       d_rows))
    if M.rows != sum(size for _, size, *_ in tables):
        raise DimensionMismatch("apply_columns: rows do not fit the blocks")
    m_rows, m_dens = M._rows, M._dens
    pairs = [({}, 1)] * M.rows
    off = 0
    for nt, size, td, dd, t_cols, d_rows in tables:
        terms = {}
        for k in range(off, off + size):
            if m_rows[k]:
                a, b = divmod(k - off, nt)
                for t, c in t_cols[b]:
                    terms.setdefault(a * nt + t, []).append((c * dd[a], k))
                for s, c in d_rows[a]:
                    terms.setdefault(s * nt + b, []).append((-c * td[b], k))
        for loc, tl in terms.items():
            s, t = divmod(loc, nt)
            L = lcm(*[m_dens[k] for _, k in tl])
            pairs[off + loc] = _normal(_combination(
                (c * (L // m_dens[k]), m_rows[k]) for c, k in tl),
                td[t] * dd[s] * L)
        off += size
    return ExactMatrix._of(M.rows, M.cols, pairs)


def apply_vector(op, vec):
    """A CochainAction applied to one cochain, as a tuple of Fractions."""
    return op.apply_rows(ExactMatrix.from_rows([vec], len(vec))).row_tuple(0)


def apply_many(op, M):
    """A CochainAction applied to each column of M."""
    if M.rows != op.layout.dim:
        raise DimensionMismatch("apply_many: columns are not C^{2,2} "
                                "cochains")
    return apply_columns(op.hom.blocks, M)


def action_matrices(co):
    """The a0-action on H of a CohomologyReport, one dH x dH matrix per Lie
    generator: per generator, one apply_many on the representatives as
    columns and one solve_matrix against [R | B^T], whose first dH rows
    are the coordinates on the representatives."""
    if co.bidegree[1] != 2 or not co.rep_rows:
        return ()
    R = co.cocycles.basis.select_rows(co.rep_rows).transpose()
    RB = hstack([R, co.boundaries.basis.transpose()])
    actions = []
    for op in spencer.generator_actions(co.complex):
        X, failed = solve_matrix(RB, apply_many(op, R))
        if failed:
            raise OracleMismatch(
                "a0-action does not preserve the cocycle space")
        actions.append(X.select_rows(range(co.dim_h)))
    return tuple(actions)


def row_action_matrices(co):
    """The a0-action on H of a CohomologyReport in the row form, one
    dH x dH matrix per Lie generator, column j the class of X.r_j: every
    generator acts on the representative rows at once; the acted rows' Z
    coordinates are read and certified by coordinate_rows, and their
    coordinates on [R; B], a basis of Z, come from one elimination of
    [[R; B]^T | C^T] in Z coordinates: its RREF is [I | X^T], and the
    first dH rows of X^T are on the classes."""
    if co.bidegree[1] != 2 or not co.rep_rows:
        return ()
    ops = tuple(spencer.generator_actions(co.complex))
    if not ops:
        return ()
    Z, dh = co.cocycles, co.dim_h
    R = Z.basis.select_rows(co.rep_rows)
    C = coordinate_rows(Z, vstack([op.apply_rows(R) for op in ops]))
    if C is None:
        raise OracleMismatch(
            "a0-action does not preserve the cocycle space")
    # [R; B] at Z's pivot columns is [R; B] in Z coordinates
    RB = vstack([R, co.boundaries.basis]).select_columns(
        Z.basis.pivot_columns())
    aug = vstack([RB, C]).transpose()
    if aug.pivot_columns() != tuple(range(Z.dim)):
        raise OracleMismatch("the representatives and the coboundaries "
                             "are not a basis of the cocycles")
    on_reps = aug.rref().select_rows(range(dh))
    return tuple(on_reps.select_columns(range(Z.dim + g * dh,
                                              Z.dim + (g + 1) * dh))
                 for g in range(len(ops)))


def _kernel_classes(co, mats):
    """The classes the action matrices `mats` all annihilate, as cochains:
    the kernel of the stacked matrices on the representatives."""
    if co.dim_h == 0:
        return []
    kernel = vstack(list(mats)).kernel() if mats else Subspace.full(co.dim_h)
    classes = kernel.basis @ co.cocycles.basis.select_rows(co.rep_rows)
    return [classes.row_tuple(k) for k in range(classes.rows)]


def invariant_classes(co):
    """CohomologyReport.invariant_classes from the column action_matrices."""
    return _kernel_classes(co, action_matrices(co) if co.dim_h else ())


def row_invariant_classes(co):
    """CohomologyReport.invariant_classes from row_action_matrices."""
    return _kernel_classes(co, row_action_matrices(co) if co.dim_h else ())


def act(fullco, X, cochains):
    """FullModelCohomology.act on cochains as columns: x_a . phi_c at
    column a C + c."""
    cx = fullco.complex
    used = [k for k in range(X.rows) if not X.select_rows([k]).is_zero()]
    if not used:
        return ExactMatrix(cx.layouts[2].dim, X.cols * cochains.cols)
    moved = hstack([apply_many(op, cochains) for op in _actions(cx, used)])
    return moved @ kron(X.select_rows(used),
                        ExactMatrix.identity(cochains.cols))


def invariant_normalised(fullco, h_gens, rp_gens):
    """FullModelCohomology.invariant_normalised through the column act: the
    kernel of the beta and rho rows of each actor on the normalised basis,
    the actors' blocks stacked."""
    lay = fullco.complex.layouts[2]
    basis = fullco.normalised_space
    model = fullco.model
    actors = [tuple(h) + (Fraction(0),) * model.dim_r for h in h_gens] + \
             [(Fraction(0),) * model.dim_so + tuple(r) for r in rp_gens]
    if basis.dim == 0 or not actors:
        return basis
    dim = basis.dim
    moved = act(fullco, ExactMatrix.from_columns(actors, len(actors[0])),
                basis.basis.transpose()).select_rows(
                    lay.indices("beta", "rho"))
    kernel = vstack([moved.select_columns(range(a * dim, (a + 1) * dim))
                     for a in range(len(actors))]).kernel()
    return Subspace(lay.dim, (kernel.basis @ basis.basis).rref())
