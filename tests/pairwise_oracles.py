"""The per-pair and per-vector routines that the package replaced with
products over the flat model's basis tables, kept as test oracles the way
`fraction_exactla` serves `exactla`: every bracket is a matrix commutator
read back through `so_coordinates` or `endo_coordinates`, every action a
matrix built for one element, every membership one vector at a time, and
every value a Fraction vector evaluated one basis pair at a time.  The
Fraction vector helpers the package used to carry are here too, and the
nested Fraction tables the package once kept for brackets, delta and
theta, with the table assembly of the flat model's and the deformed
bracket that the block-placed structure-constant matrices replaced."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from column_actions import apply_vector, cochain_action
import spencerkit.deform as deform
from spencerkit.deform import column_tuples
from spencerkit.errors import CurvatureMismatch, DimensionMismatch, \
    EquivarianceViolation, NotClosed, OracleMismatch, TorsionViolation
from spencerkit.exactla import ExactMatrix, Subspace, block_diag, \
    coordinate_matrix, hstack, kron, rat_str, solve_matrix, \
    tensor_index_maps, vec_is_zero
from spencerkit.flatmodel import EndoSubalgebra, kappa_restriction_matrix
from spencerkit.reconstruct import CurvatureAtOrigin
from spencerkit.spencer import Cochain22, restriction_matrix, \
    spencer_complex


# ---------------------------------------------------------------------------
# Fraction vectors
# ---------------------------------------------------------------------------


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a, c):
    q = Fraction(c)
    return tuple(x * q for x in a)


def lincomb(terms, dim):
    """Exact sum of c*v over `(c, v)` pairs, as a tuple of `dim` Fractions.

    A pair with c == 0 is skipped without reading v; an empty sum is the
    zero vector."""
    out = [Fraction(0)] * dim
    for c, v in terms:
        if c:
            if len(v) != dim:
                raise DimensionMismatch("lincomb: vector has the wrong length")
            out = [o + c * x if x else o for o, x in zip(out, v)]
    return tuple(out)


def basis_vectors(space):
    """The RREF basis of a Subspace as Fraction tuples."""
    return [space.basis.row_tuple(i) for i in range(space.dim)]


def zero_vec(n):
    return (Fraction(0),) * n


def basis_vec(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def solve_many(A, Y):
    """The canonical solution of A x = y for each column y of Y, as a
    tuple, or None for a column that has none: solve_matrix, column by
    column."""
    X, failed = solve_matrix(A, Y)
    T = X.transpose()
    return [None if j in failed else T.row_tuple(j) for j in range(Y.cols)]


# ---------------------------------------------------------------------------
# brackets read back one pair at a time
# ---------------------------------------------------------------------------


def so_matrix(model, coords):
    """The element of so(V) with the given E_ij coordinates, on V: the
    E_ij matrices scaled and summed one by one."""
    n = model.dim_v
    out = ExactMatrix.zeros(n, n)
    for k, c in enumerate(coords):
        if c:
            out = out + model.gens.e_mats[k].scale(c)
    return out


def spin_matrix(model, coords):
    """The same element acting on S through the sigma basis."""
    ns = model.dim_s
    out = ExactMatrix.zeros(ns, ns)
    for k, c in enumerate(coords):
        if c:
            out = out + model.gens.sigma[k].scale(c)
    return out


def matrix_of(alg, coords):
    """The element of an EndoSubalgebra with the given coordinates, its
    basis matrices scaled and summed one by one."""
    out = ExactMatrix.zeros(alg.spinor_dim, alg.spinor_dim)
    for c, m in zip(coords, alg.matrices):
        if c:
            out = out + m.scale(c)
    return out


def r_matrix(model, coords):
    """The element of r with the given coordinates, on S."""
    return matrix_of(model.r, coords)


def endo_coordinates(alg, mat):
    """The coordinates of an End(S) matrix in an EndoSubalgebra, or None
    when it lies outside: the matrix flattened row by row, read against
    the basis."""
    n = alg.spinor_dim
    return alg.basis.coordinates(mat.reshape(1, n * n).row_tuple(0))


def endo_contains(alg, mat):
    return endo_coordinates(alg, mat) is not None


def so_coordinates(model, mat):
    """E_ij coordinates of an so(V) matrix (entries above the diagonal)."""
    eta = model.rep.signature.eta()
    return tuple(mat.entry(i, j) / eta[j] for (i, j) in model.gens.pairs)


def bracket_coords(alg, x, y):
    """The coordinates of [x, y] in an EndoSubalgebra, from its bracket
    table, whose row i dim + j holds [m_i, m_j]."""
    k = alg.dim
    return lincomb(((xi * yj, alg.bracket_table.row_tuple(i * k + j))
                    for i, xi in enumerate(x) if xi
                    for j, yj in enumerate(y) if yj), k)


def endo_bracket_table(alg):
    """EndoSubalgebra.bracket_table as nested coordinates [i][j], one
    commutator at a time, each read back through endo_coordinates."""
    return [[endo_coordinates(alg, a.commutator(b)) for b in alg.matrices]
            for a in alg.matrices]


def nested_matrix(table, dim):
    """The nested coordinates table[i][j], each of length dim, as the rows
    i len(table) + j of one matrix."""
    return ExactMatrix.from_rows([c for row in table for c in row],
                                 cols=dim)


def so_so_table(model):
    """The [so, so] block of the flat model's bracket, one commutator of
    the E_ij at a time: {(a, b): so(V) coordinates of [E_a, E_b]}."""
    e = model.gens.e_mats
    return {(a, b): so_coordinates(model, e[a].commutator(e[b]))
            for a in range(len(e)) for b in range(len(e))}


# ---------------------------------------------------------------------------
# graded subalgebras, one pair and one vector at a time
# ---------------------------------------------------------------------------


def lie_generating_subset(brackets):
    """flatmodel.lie_generating_subset on nested structure constants
    brackets[k][l], one vector and one Subspace.from_vectors at a time."""
    dim = len(brackets)
    chosen = []
    closure = Subspace.trivial(dim)
    for k in range(dim):
        if closure.contains(basis_vec(dim, k)):
            continue
        chosen.append(k)
        vectors = basis_vectors(closure) + [basis_vec(dim, k)]
        closure = Subspace.from_vectors(dim, vectors)
        todo = list(vectors)
        while todo:
            w = todo.pop()
            for g in chosen:
                v = lincomb(((c, brackets[g][l]) for l, c in enumerate(w)
                             if c), dim)
                if not closure.contains(v):
                    vectors.append(v)
                    todo.append(v)
                    closure = Subspace.from_vectors(dim, vectors)
    return tuple(chosen)


def _annihilator(mats, vectors):
    """Coefficient vectors c with sum_k c_k m_k v = 0 for every v."""
    rows = []
    for v in vectors:
        rows.extend(zip(*(m.apply(v) for m in mats)))
    return ExactMatrix.from_rows(rows, cols=len(mats)).kernel()


def subalgebra_data(model, Vp, Sp, h, rp):
    """What make_graded_subalgebra computes, pair by pair and vector by
    vector, checking the closure conditions in the same order: a dict of
    the structure constants, Lie generators and flags, or NotClosed."""
    svecs = basis_vectors(Sp)
    kappa_sp = kappa_restriction_matrix(model, Sp)
    kappas = kappa_sp.transpose()
    for p in range(kappas.rows):
        image = kappas.row_tuple(p)
        if not Vp.contains(image):
            raise NotClosed("kappa(S', S') leaves V'",
                            witness=[rat_str(c) for c in image])
    h_so = [so_matrix(model, x) for x in basis_vectors(h)]
    h_brackets = [[None] * h.dim for _ in range(h.dim)]
    for i, A in enumerate(h_so):
        for j in range(i, h.dim):
            comm = A.commutator(h_so[j])
            coords = h.coordinates(so_coordinates(model, comm))
            if coords is None:
                raise NotClosed("h is not closed under the commutator",
                                witness=comm.to_serialisable())
            h_brackets[j][i] = vec_scale(coords, -1)
            h_brackets[i][j] = coords
    rp_brackets = [[None] * rp.dim for _ in range(rp.dim)]
    for i in range(rp.dim):
        for j in range(i, rp.dim):
            coords = bracket_coords(model.r, rp.basis.row_tuple(i),
                                    rp.basis.row_tuple(j))
            rp_coords = rp.coordinates(coords)
            if rp_coords is None:
                raise NotClosed("r' is not closed under the commutator",
                                witness=[rat_str(c) for c in coords])
            rp_brackets[j][i] = vec_scale(rp_coords, -1)
            rp_brackets[i][j] = rp_coords
    h_spin = [spin_matrix(model, x) for x in basis_vectors(h)]
    for A, AS in zip(h_so, h_spin):
        for v in basis_vectors(Vp):
            if not Vp.contains(A.apply(v)):
                raise NotClosed("h does not preserve V'",
                                witness=[rat_str(c) for c in A.apply(v)])
        for s in svecs:
            if not Sp.contains(AS.apply(s)):
                raise NotClosed("h does not preserve S'",
                                witness=[rat_str(c) for c in AS.apply(s)])
    rp_mats = [r_matrix(model, x) for x in basis_vectors(rp)]
    for a in rp_mats:
        for s in svecs:
            if not Sp.contains(a.apply(s)):
                raise NotClosed("r' does not preserve S'",
                                witness=[rat_str(c) for c in a.apply(s)])
    nv, ns = model.dim_v, model.dim_s
    mats = ([block_diag([A, AS]) for A, AS in zip(h_so, h_spin)] +
            [block_diag([ExactMatrix(nv, nv), a]) for a in rp_mats])
    vectors = ([v + zero_vec(ns) for v in basis_vectors(Vp)] +
               [zero_vec(nv) + s for s in svecs])
    highly_susy = 2 * Sp.dim > ns and Vp.dim == nv
    return {"h_so": tuple(h_so), "h_spin": tuple(h_spin),
            "rp_mats": tuple(rp_mats), "kappa_sp": kappa_sp,
            "h_brackets": nested_matrix(h_brackets, h.dim),
            "rp_brackets": nested_matrix(rp_brackets, rp.dim),
            "h_generators": lie_generating_subset(h_brackets),
            "rp_generators": lie_generating_subset(rp_brackets),
            "homogeneity_rank": kappa_sp.rank(),
            "highly_susy": highly_susy,
            "transitive": highly_susy and _annihilator(mats,
                                                       vectors).dim == 0}


def stabiliser(mats, dim, Sp):
    """flatmodel._stabiliser with the residual of each image taken vector
    by vector."""
    if dim == 0:
        return Subspace.trivial(0)
    ns = Sp.ambient_dim
    pivots = Sp.basis.pivot_columns()
    rows = []
    for s in basis_vectors(Sp):
        images = [m.apply(s) for m in mats]
        for k in range(dim):
            w = list(images[k])
            for bi, pc in enumerate(pivots):
                c = w[pc]
                if c:
                    brow = Sp.basis.row_tuple(bi)
                    for idx in range(ns):
                        w[idx] -= c * brow[idx]
            images[k] = tuple(w)
        for i in range(ns):
            rows.append([images[k][i] for k in range(dim)])
    return ExactMatrix.from_rows(rows, cols=dim).kernel()


def faithful_split(rp, Sp):
    """flatmodel.faithful_split with every membership checked vector by
    vector and every commutator one pair at a time; returns (r'', ann) or
    raises NotClosed with the same condition."""
    ns = rp.spinor_dim
    for a in rp.matrices:
        for s in basis_vectors(Sp):
            if not Sp.contains(a.apply(s)):
                raise NotClosed("r' does not preserve S'",
                                witness=[rat_str(c) for c in a.apply(s)])
    k = rp.dim
    if k == 0:
        return rp, EndoSubalgebra.from_matrices(ns, [])
    gram = ExactMatrix(k, k, [(i, j, -(rp.matrices[i] @ rp.matrices[j])
                               .trace()) for i in range(k) for j in range(k)])
    ann_coords = _annihilator(rp.matrices, basis_vectors(Sp))
    if ann_coords.dim == 0:
        rpp_coords = Subspace.full(k)
    else:
        rows = [(gram @ ann_coords.basis.transpose()).transpose().row_tuple(i)
                for i in range(ann_coords.dim)]
        rpp_coords = ExactMatrix.from_rows(rows, cols=k).kernel()
    ann = EndoSubalgebra.from_matrices(
        ns, [matrix_of(rp, ann_coords.basis.row_tuple(i))
             for i in range(ann_coords.dim)])
    rpp = EndoSubalgebra.from_matrices(
        ns, [matrix_of(rp, rpp_coords.basis.row_tuple(i))
             for i in range(rpp_coords.dim)])
    if rpp.dim + ann.dim != k or rpp.basis.intersect(ann.basis).dim != 0:
        raise NotClosed("r' does not split as r'' + ann")
    for a in rpp.matrices:
        for b in ann.matrices:
            if not a.commutator(b).is_zero():
                raise NotClosed("[r'', ann] is nonzero")
    for a in rp.matrices:
        for b in ann.matrices:
            if not endo_contains(ann, a.commutator(b)):
                raise NotClosed("ann is not an ideal of r'")
        for b in rpp.matrices:
            if not endo_contains(rpp, a.commutator(b)):
                raise NotClosed("r'' is not an ideal of r'")
    if _annihilator(rpp.matrices, basis_vectors(Sp)).dim != 0:
        raise NotClosed("r'' fails to act faithfully on S'")
    return rpp, ann


def gauge_shift(datum, generators, coeffs, nu, inc):
    """deform._gauge_shift on Fraction vectors: the generators' rows
    combined by lincomb and every sum taken entry by entry; returns
    (mu, hat, lambda) of the moved datum."""
    K, lams = generators
    k = lincomb(zip(coeffs, map(K.row_tuple, range(K.rows))),
                len(datum.hat.coeffs))
    lam_k = lincomb(zip(coeffs, map(lams.row_tuple, range(lams.rows))),
                    len(datum.lam))
    d1 = datum.sub_complex.differentials[1]
    return (vec_add(datum.mu_minus.coeffs, d1.apply(nu)),
            vec_add(datum.hat.coeffs, k),
            vec_add(vec_sub(datum.lam, lam_k), inc.apply(nu)))


def restriction_kernels(sub, fullco):
    """(direct, via_istar) of restriction_kernel_report, each kernel vector
    expanded by lincomb over the normalised basis, through the restriction
    matrix on a maximal subalgebra too."""
    cx = fullco.complex
    lay = cx.layouts[2]
    basis = fullco.normalised_space
    if basis.dim == 0:
        return Subspace.trivial(lay.dim), Subspace.trivial(lay.dim)
    basis_vecs = basis_vectors(basis)

    def expand(coeff):
        return lincomb(zip(coeff, basis_vecs), lay.dim)

    mixed = spencer_complex(sub, 2, values="full")
    lifted = restriction_matrix(cx, mixed) @ basis.basis.transpose()
    kernel = lifted.select_rows(
        mixed.layouts[2].indices("beta", "rho")).kernel()
    direct = Subspace.from_vectors(
        lay.dim, [expand(kernel.basis.row_tuple(k))
                  for k in range(kernel.dim)])
    ker = hstack([lifted, mixed.differentials[1]]).kernel()
    vecs = [expand(ker.basis.row_tuple(k)[:basis.dim])
            for k in range(ker.dim)]
    via_istar = Subspace.from_vectors(
        lay.dim, [v for v in vecs if not vec_is_zero(v)])
    assert all(via_istar.contains(v) for v in basis_vectors(direct))
    return direct, via_istar


# ---------------------------------------------------------------------------
# lambda and the cochain blocks, one basis element at a time
# ---------------------------------------------------------------------------


def layout_index(lay, name, src, tgt=0):
    """The flat coordinate of target `tgt` at source `src` in block `name`
    of a CochainLayout."""
    return lay.offsets[name] + src * lay.sizes[name][1] + tgt


def lam1_coords(datum, b):
    """lambda1(e_b) in so(V) coordinates."""
    off = layout_index(datum.mixed_complex.layouts[1], "lambda_so", b)
    return tuple(datum.lam[off:off + datum.model.dim_so])


def lam2_coords(datum, b):
    """lambda2(e_b) in r coordinates."""
    if datum.model.dim_r == 0:
        return ()
    off = layout_index(datum.mixed_complex.layouts[1], "lambda_r", b)
    return tuple(datum.lam[off:off + datum.model.dim_r])


def lam_matrices(datum, b):
    """(lambda1(e_b) on V, lambda1(e_b) on S, lambda2(e_b) on S)."""
    model = datum.model
    return (so_matrix(model, lam1_coords(datum, b)),
            spin_matrix(model, lam1_coords(datum, b)),
            r_matrix(model, lam2_coords(datum, b)))


def lam1_vec(datum, vcoords):
    return lincomb(((c, lam1_coords(datum, b))
                    for b, c in enumerate(vcoords) if c), datum.model.dim_so)


def lam2_vec(datum, vcoords):
    return lincomb(((c, lam2_coords(datum, b))
                    for b, c in enumerate(vcoords) if c), datum.model.dim_r)


def alpha(z, a, b):
    """alpha(v_a, v_b) of the Cochain22 z, from its entries."""
    if a == b:
        return zero_vec(z.cx.dWv)
    sign = 1 if a < b else -1
    return vec_scale(_target(z, "alpha", z.cx.w2v.index(a, b), z.cx.dWv),
                     sign)


def _target(z, name, src, dim):
    off = layout_index(z.cx.layouts[2], name, src)
    return tuple(z.coeffs[off:off + dim])


def beta_vec(z, vcoords, scoords):
    """beta(v, s) of the Cochain22 z, from its entries."""
    cx = z.cx
    return lincomb(((cv * cs, _target(z, "beta", a * cx.nsp + i, cx.dWs))
                    for a, cv in enumerate(vcoords) if cv
                    for i, cs in enumerate(scoords) if cs), cx.dWs)


def _sym_eval(z, name, dim, x, y):
    cx = z.cx
    return lincomb(((ci * cj, _target(z, name, cx.s2.index(i, j), dim))
                    for i, ci in enumerate(x) if ci
                    for j, cj in enumerate(y) if cj), dim)


def gamma_vec(z, x, y):
    return _sym_eval(z, "gamma", z.cx.dWso, x, y)


def rho_vec(z, x, y):
    return _sym_eval(z, "rho", z.cx.dWr, x, y)


def acted_hats(datum):
    """lambda(v_b) . hat per direction, one CochainAction built each."""
    cx = datum.fullco.complex
    return [Cochain22(cx, apply_vector(cochain_action(
        cx, lam1_coords(datum, b), lam2_coords(datum, b)), datum.hat.coeffs))
        for b in range(datum.model.dim_v)]


# ---------------------------------------------------------------------------
# delta, theta and theta in a0
# ---------------------------------------------------------------------------


def commutator_targets(cx, so_coords, r_coords):
    """The so- and r-target blocks of the CochainAction of X = (so_coords,
    r_coords) on the complex cx, from commutators: X acts on each Wso basis
    element w by [X_so, w], read back through so_coordinates, and on each
    Wr basis element by [X_r, w], read back through the R-symmetry
    algebra's coordinates, both then in Wso and Wr coordinates."""
    model = cx.model
    on_v, r_on_s = so_matrix(model, so_coords), r_matrix(model, r_coords)

    def coords(space, columns):
        return ExactMatrix.from_columns(
            [space.coordinates(c) for c in columns], space.dim)

    so = coords(cx.Wso, [so_coordinates(model, on_v.commutator(
        so_matrix(model, w))) for w in basis_vectors(cx.Wso)])
    r = coords(cx.Wr, [endo_coordinates(model.r, r_on_s.commutator(
        r_matrix(model, w))) for w in basis_vectors(cx.Wr)])
    return so, r


def solve_delta(datum):
    """The closed form delta(A, v) = [A, lambda(v)] - lambda(Av), pair by
    pair."""
    sub = datum.subalgebra
    model = datum.model
    n = model.dim_v
    delta1, delta2, delta4 = [], [], []
    for A_v in sub.h_so:
        row1, row2 = [], []
        for b in range(n):
            av = A_v.apply(basis_vec(n, b))
            val1 = vec_sub(
                so_coordinates(model,
                               A_v.commutator(lam_matrices(datum, b)[0])),
                lam1_vec(datum, av))
            c1 = sub.h.coordinates(val1)
            c2 = sub.rp.coordinates(vec_scale(lam2_vec(datum, av), -1))
            if c1 is None or c2 is None:
                raise OracleMismatch("closed-form delta leaves a0")
            row1.append(c1)
            row2.append(c2)
        delta1.append(row1)
        delta2.append(row2)
    for a_m in sub.rp_mats:
        row4 = []
        for b in range(n):
            comm = a_m.commutator(lam_matrices(datum, b)[2])
            cc = endo_coordinates(model.r, comm)
            c4 = sub.rp.coordinates(cc) if cc is not None else None
            if c4 is None:
                raise OracleMismatch("closed-form delta4 leaves r'")
            row4.append(c4)
        delta4.append(row4)
    return DeltaTables(delta1=delta1, delta2=delta2, delta4=delta4)


def compute_theta(datum):
    """The theta maps, Theta(v_b; s_i, s_j) evaluated pair by pair, as
    ThetaTables."""
    sub = datum.subalgebra
    model = datum.model
    hat = datum.hat.cochain
    acted = acted_hats(datum)
    svecs = basis_vectors(sub.Sp)
    pairs = tensor_index_maps(len(svecs), "sym2")
    n = model.dim_v
    th1, th2 = [], []
    for b in range(n):
        vb = basis_vec(n, b)
        row1, row2 = [], []
        for (i, j) in pairs.tuples:
            bvi = beta_vec(hat, vb, svecs[i])
            bvj = beta_vec(hat, vb, svecs[j])
            t1 = vec_add(gamma_vec(hat, svecs[i], bvj),
                         gamma_vec(hat, svecs[j], bvi))
            row1.append(vec_sub(t1, gamma_vec(acted[b], svecs[i], svecs[j])))
            t2 = vec_add(rho_vec(hat, svecs[i], bvj),
                         rho_vec(hat, svecs[j], bvi))
            row2.append(vec_sub(t2, rho_vec(acted[b], svecs[i], svecs[j])))
        th1.append(row1)
        th2.append(row2)
    kappa_sp = sub.kappa_sp
    dirac_kernel = kappa_sp.kernel()
    annihilated = all(
        vec_is_zero(lincomb(zip(d, th1[b]), model.dim_so))
        and vec_is_zero(lincomb(zip(d, th2[b]), model.dim_r))
        for d in basis_vectors(dirac_kernel) for b in range(n))
    theta1 = theta2 = None
    alternating = second_rel = False
    if annihilated:
        preimages = solve_many(kappa_sp, ExactMatrix.identity(n))
        if None in preimages:
            raise OracleMismatch("kappa restricted to Sym^2 S' is not "
                                 "surjective on a highly susy subalgebra")
        theta1 = [[lincomb(zip(preimages[c], th1[b]), model.dim_so)
                   for c in range(n)] for b in range(n)]
        theta2 = [[lincomb(zip(preimages[c], th2[b]), model.dim_r)
                   for c in range(n)] for b in range(n)]
        alternating = all(
            vec_is_zero(vec_add(theta1[b][c], theta1[c][b]))
            and vec_is_zero(vec_add(theta2[b][c], theta2[c][b]))
            for b in range(n) for c in range(b, n))
        second_rel = second_defining_relation(datum, th1, theta1)
    return ThetaTables(theta1_spinor=th1, theta2_spinor=th2,
                       dirac_kernel_annihilated=annihilated,
                       dirac_kernel_dim=dirac_kernel.dim,
                       theta1=theta1, theta2=theta2,
                       alternating_verified=alternating,
                       second_relation_consistent=second_rel)


def second_defining_relation(datum, th1_spinor, theta1):
    """theta1(v,w) kappa(s,s) = Theta1(v;s,s) w - Theta1(w;s,s) v."""
    model = datum.model
    n = model.dim_v
    kappas = datum.subalgebra.kappa_sp.transpose()
    on_e = [ExactMatrix.from_columns(
        [E.apply(basis_vec(n, c)) for E in model.gens.e_mats], n)
        for c in range(n)]
    for b in range(n):
        for c in range(b + 1, n):
            mat = so_matrix(model, theta1[b][c])
            for p in range(kappas.rows):
                lhs = mat.apply(kappas.row_tuple(p))
                rhs = vec_sub(on_e[c].apply(th1_spinor[b][p]),
                              on_e[b].apply(th1_spinor[c][p]))
                if tuple(lhs) != tuple(rhs):
                    return False
    return True


def spinor_identity_witness(datum, theta):
    """The first (b, c, k) at which the residual spinor identity fails, as
    the integrability report's witness, or None."""
    sub = datum.subalgebra
    model = datum.model
    hat = datum.hat.cochain
    acted = acted_hats(datum)
    n = model.dim_v
    theta1, theta2 = pair_table(theta.theta1, n), pair_table(theta.theta2, n)
    for b in range(n):
        for c in range(b + 1, n):
            sp_mat = spin_matrix(model, theta1[b][c])
            r_mat = r_matrix(model, theta2[b][c])
            vb, vc = basis_vec(n, b), basis_vec(n, c)
            for k, s in enumerate(basis_vectors(sub.Sp)):
                lhs = vec_add(sp_mat.apply(s), r_mat.apply(s))
                rhs = vec_sub(beta_vec(hat, vb, beta_vec(hat, vc, s)),
                              beta_vec(hat, vc, beta_vec(hat, vb, s)))
                rhs = vec_add(rhs, beta_vec(acted[b], vc, s))
                rhs = vec_sub(rhs, beta_vec(acted[c], vb, s))
                if tuple(lhs) != tuple(rhs):
                    return {"pair": (b, c), "spinor": k}
    return None


def theta_in_a0(datum, theta):
    """theta - lambda(alpha) + [lambda, lambda] in h / r' coordinates, as
    the nested tables [b][c] (th1_h, th2_rp)."""
    sub = datum.subalgebra
    model = datum.model
    n = model.dim_v
    mu = datum.mu_minus
    theta1, theta2 = pair_table(theta.theta1, n), pair_table(theta.theta2, n)
    th1_h = [[None] * n for _ in range(n)]
    th2_rp = [[None] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            alpha_bc = alpha(mu, b, c)
            lb, lc = lam_matrices(datum, b), lam_matrices(datum, c)
            v1 = vec_sub(theta1[b][c], lam1_vec(datum, alpha_bc))
            v1 = vec_add(v1, so_coordinates(model,
                                            lb[0].commutator(lc[0])))
            rc = endo_coordinates(model.r, lb[2].commutator(lc[2]))
            if rc is None:
                raise OracleMismatch("[lambda2, lambda2] leaves r")
            v2 = vec_add(vec_sub(theta2[b][c],
                                 lam2_vec(datum, alpha_bc)), rc)
            c1, c2 = sub.h.coordinates(v1), sub.rp.coordinates(v2)
            if c1 is None or c2 is None:
                raise OracleMismatch("theta fails the a0-membership theorem")
            th1_h[b][c], th2_rp[b][c] = c1, c2
    return th1_h, th2_rp


# ---------------------------------------------------------------------------
# the Nomizu map and the Wang curvature
# ---------------------------------------------------------------------------


def _even_dims(deformation):
    n, nsp, dh, dr = deformation.tensor.component_dims
    return n, nsp, n + dh + dr


def even_bracket(deformation, table, x, y):
    """[x, y] of two even elements in (V | h | r') coordinates, from the
    deformed tensor's bracket_table."""
    n, nsp, dim = _even_dims(deformation)
    flat = [*range(n), *range(n + nsp, n + nsp + dim - n)]
    value = {}
    for i, cx in zip(flat, x):
        for j, cy in zip(flat, y):
            if cx and cy:
                for k, c in table.get((i, j), {}).items():
                    value[k] = value.get(k, Fraction(0)) + cx * cy * c
    if any(n <= k < n + nsp and c for k, c in value.items()):
        raise CurvatureMismatch("even-even bracket has an odd component")
    return tuple(value.get(k, Fraction(0)) for k in flat)


def nomizu_apply(nomizu, coords):
    """The Nomizu map on one vector of g0 = V + h + r'."""
    return nomizu.matrix.apply(coords)


def basis_matrices(nomizu, x):
    """(so(V) matrix on V, r matrix on S) of Phi(x_x)."""
    model = nomizu.deformation.subalgebra.model
    phi = nomizu_apply(nomizu, basis_vec(nomizu.matrix.cols, x))
    return (so_matrix(model, phi[:model.dim_so]),
            r_matrix(model, phi[model.dim_so:]))


def _commutator_coords(model, a, b):
    """[a, b] for two (so matrix, r matrix) pairs, in so(V) + r
    coordinates."""
    so_comm = so_coordinates(model, a[0].commutator(b[0]))
    r_comm = endo_coordinates(model.r, a[1].commutator(b[1]))
    if r_comm is None:
        raise CurvatureMismatch("commutator leaves the R-symmetry algebra")
    return tuple(so_comm) + tuple(r_comm)


def verify_equivariance(nomizu):
    """Phi(ad_X y) = ad_{Phi X} Phi(y), generator by generator."""
    deformation = nomizu.deformation
    model = deformation.subalgebra.model
    table = bracket_table(deformation.tensor)
    n, _, dim = _even_dims(deformation)
    for a in range(n, dim):
        for x in range(dim):
            lhs = nomizu_apply(nomizu, even_bracket(
                deformation, table, basis_vec(dim, a), basis_vec(dim, x)))
            if tuple(lhs) != _commutator_coords(
                    model, basis_matrices(nomizu, a),
                    basis_matrices(nomizu, x)):
                raise EquivarianceViolation(
                    f"Nomizu map is not equivariant at generator {a}")


def verify_torsion_free(nomizu):
    """The torsion-free criterion on the basis pairs x < y."""
    deformation = nomizu.deformation
    table = bracket_table(deformation.tensor)
    n, _, dim = _even_dims(deformation)
    for x in range(dim):
        xbar = basis_vec(dim, x)[:n]
        for y in range(x + 1, dim):
            ybar = basis_vec(dim, y)[:n]
            val = vec_sub(basis_matrices(nomizu, x)[0].apply(ybar),
                          basis_matrices(nomizu, y)[0].apply(xbar))
            val = vec_sub(val, even_bracket(deformation, table,
                                            basis_vec(dim, x),
                                            basis_vec(dim, y))[:n])
            if not vec_is_zero(val):
                raise TorsionViolation(
                    f"torsion-free criterion fails at basis pair ({x},{y})")


def curvature_at_origin(deformation, nomizu):
    """[Phi X, Phi Y] - Phi([X, Y]) pair by pair, asserted equal to -theta
    on horizontal pairs and zero on vertical ones."""
    model = deformation.subalgebra.model
    theta = deformation.theta
    table = bracket_table(deformation.tensor)
    n, _, dim = _even_dims(deformation)
    nso = model.dim_so
    theta1, theta2 = pair_table(theta.theta1, n), pair_table(theta.theta2, n)

    def wang(x, y):
        comm = _commutator_coords(model, basis_matrices(nomizu, x),
                                  basis_matrices(nomizu, y))
        phi_br = nomizu_apply(nomizu, even_bracket(
            deformation, table, basis_vec(dim, x), basis_vec(dim, y)))
        out = tuple(a - b for a, b in zip(comm, phi_br))
        return out[:nso], out[nso:]

    R0 = [[zero_vec(nso)] * n for _ in range(n)]
    F0 = [[zero_vec(model.dim_r)] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            got_so, got_r = wang(b, c)
            if got_so != vec_scale(theta1[b][c], -1) or \
                    got_r != vec_scale(theta2[b][c], -1):
                raise CurvatureMismatch(
                    f"Wang curvature differs from -theta at pair ({b},{c})")
            R0[b][c], F0[b][c] = got_so, got_r
    for x in range(dim):
        for y in range(n, dim):
            got_so, got_r = wang(x, y)
            if not (vec_is_zero(got_so) and vec_is_zero(got_r)):
                raise CurvatureMismatch(
                    f"curvature does not vanish on vertical pair ({x},{y})")
    return CurvatureAtOrigin(R0=R0, F0=F0)


# ---------------------------------------------------------------------------
# brackets, delta and theta as nested Fraction tables
# ---------------------------------------------------------------------------


def bracket_table(tensor):
    """The bracket of a GradedBracketTensor as {(i, j): {k: Fraction}}, the
    nonzero entries of each nonzero column i n + j of its matrix, k in
    increasing order."""
    n = tensor.total_dim
    T = tensor.matrix.transpose()
    table = {}
    for col in range(T.rows):
        row = {k: v for k, v in enumerate(T.row_tuple(col)) if v}
        if row:
            table[divmod(col, n)] = row
    return table


def table_matrix(n, table):
    """The n x n^2 matrix whose column i n + j is table[(i, j)]."""
    return ExactMatrix(n, n * n, [(k, i * n + j, c)
                                  for (i, j), row in table.items()
                                  for k, c in row.items()])


def pair_table(M, n):
    """The columns of M, column b n + c holding a value on (v_b, v_c), as
    a nested table [b][c] of Fraction tuples."""
    cols = column_tuples(M)
    return [[cols[b * n + c] for c in range(n)] for b in range(n)]


def structure_constants(table, dim):
    """table[k dim + l], the coordinates of [x_k, x_l], as [k][l]."""
    return tuple(tuple(table.row_tuple(k * dim + l) for l in range(dim))
                 for k in range(dim))


@dataclass
class DeltaTables:
    """delta as the nested tables the package once kept."""
    delta1: list   # [h index][v index] -> h coords
    delta2: list   # [h index][v index] -> r' coords
    delta4: list   # [r' index][v index] -> r' coords


def delta_tables(datum, delta):
    """The DeltaMap's matrix split into delta1, delta2 and delta4, read
    column by column; the h coordinates of an r'-column (delta3) are left
    out."""
    n, dh = datum.model.dim_v, datum.subalgebra.h.dim
    cols = column_tuples(delta.matrix)
    blocks = [[(col[:dh], col[dh:]) for col in cols[k * n:(k + 1) * n]]
              for k in range(delta.matrix.rows)]
    return DeltaTables(
        delta1=[[h for h, _ in row] for row in blocks[:dh]],
        delta2=[[r for _, r in row] for row in blocks[:dh]],
        delta4=[[r for _, r in row] for row in blocks[dh:]])


@dataclass
class ThetaTables:
    """The theta maps as the nested tables the package once kept."""
    theta1_spinor: list     # [v index][S'-pair index] -> so coords
    theta2_spinor: list     # [v index][S'-pair index] -> r coords
    dirac_kernel_annihilated: bool
    dirac_kernel_dim: int
    theta1: Optional[list]  # [b][c] -> so coords, alternating
    theta2: Optional[list]  # [b][c] -> r coords, alternating
    alternating_verified: bool = False
    second_relation_consistent: bool = False


def direction_tables(M, n, nso):
    """The so(V) and r tables [b][j] of M, whose rows b m + k hold the m =
    dim so + dim r coordinates of the b-th direction's value at column j."""
    m = M.rows // n
    cols = column_tuples(M)
    return ([[col[b * m:b * m + nso] for col in cols] for b in range(n)],
            [[col[b * m + nso:(b + 1) * m] for col in cols]
             for b in range(n)])


def theta_tables(datum, theta):
    """A ThetaData, with the spinor-argument maps the package computes on
    the way, as ThetaTables."""
    n = datum.model.dim_v
    th1, th2 = direction_tables(deform._spinor_theta(datum), n,
                                datum.model.dim_so)
    annihilated = theta.theta1 is not None
    return ThetaTables(
        theta1_spinor=th1, theta2_spinor=th2,
        dirac_kernel_annihilated=theta.dirac_kernel_annihilated,
        dirac_kernel_dim=theta.dirac_kernel_dim,
        theta1=pair_table(theta.theta1, n) if annihilated else None,
        theta2=pair_table(theta.theta2, n) if annihilated else None,
        alternating_verified=theta.alternating_verified,
        second_relation_consistent=theta.second_relation_consistent)


def flat_model_table(model):
    """The flat model's bracket as {(i, j): {k: Fraction}}, put pair by
    pair: [so, so] and [r, r] from commutators read back one at a time,
    so(V) and r on V and S column by column of each generator's matrix,
    and [S, S] = kappa entry by entry of each component."""
    nv, ns, nso, nr = model.dim_v, model.dim_s, model.dim_so, model.dim_r
    off_s, off_so, off_r = model.off_s, model.off_so, model.off_r
    table = {}

    def put(i, j, chunk):
        vecd = {k: v for k, v in chunk.items() if v}
        if vecd:
            table[(i, j)] = vecd

    def put_pair(i, j, chunk):
        """[x_i, x_j] = chunk and [x_j, x_i] = -chunk."""
        put(i, j, chunk)
        put(j, i, {k: -v for k, v in chunk.items()})

    def cols_of(mat, off):
        """The entries of each column of mat, at off + row."""
        T = mat.transpose()
        return [{off + k: v for k, v in enumerate(T.row_tuple(i))}
                for i in range(T.rows)]

    gens = model.gens
    for (a, b), coords in so_so_table(model).items():
        put(off_so + a, off_so + b,
            {off_so + k: c for k, c in enumerate(coords)})
    for a in range(nso):
        for i, col in enumerate(cols_of(gens.e_mats[a], 0)):
            put_pair(off_so + a, i, col)
        for i, col in enumerate(cols_of(gens.sigma[a], off_s)):
            put_pair(off_so + a, off_s + i, col)
    r_table = endo_bracket_table(model.r)
    for p in range(nr):
        for q in range(nr):
            put(off_r + p, off_r + q,
                {off_r + k: c for k, c in enumerate(r_table[p][q])})
        for i, col in enumerate(cols_of(model.r.matrices[p], off_s)):
            put_pair(off_r + p, off_s + i, col)
    for a, K in enumerate(model.current.components):
        for i in range(ns):
            for j in range(ns):
                v = K.entry(i, j)
                if v:
                    table.setdefault((off_s + i, off_s + j), {})[a] = v
    return table


def odd_bracket_tables(datum):
    """AdmissibleDatum.odd_brackets as nested tables (vs, ss): vs[b][i]
    the S' coordinates of [v_b, s_i], and ss the (i, j, kappa, h, r')
    of each sym2 pair i <= j of S'."""
    sub = datum.subalgebra
    n, nsp, dh = datum.model.dim_v, sub.Sp.dim, sub.h.dim
    vs, ss = datum.odd_brackets()
    vs_cols = column_tuples(vs)
    pairs = tensor_index_maps(nsp, "sym2").tuples
    return ([vs_cols[b * nsp:(b + 1) * nsp] for b in range(n)],
            [(i, j, kv, c[:dh], c[dh:]) for (i, j), kv, c in zip(
                pairs, column_tuples(sub.kappa_sp), column_tuples(ss))])


def deformed_bracket_table(datum, theta_a0):
    """The deformed bracket on V + S' + (h + r') as {(i, j): {k:
    Fraction}}, put pair by pair from the nested tables of the structure
    constants, delta, the odd brackets, alpha and theta in h + r'
    coordinates (the matrix theta_a0, column b n + c)."""
    sub = datum.subalgebra
    model = datum.model
    n, nsp = model.dim_v, sub.Sp.dim
    dh, dr = sub.h.dim, sub.rp.dim
    off_s, off_h, off_r = n, n + nsp, n + nsp + dh
    table = {}

    def put(i, j, chunks, sign=1):
        vecd = {}
        for off, coords in chunks:
            for t, c in enumerate(coords):
                if c:
                    vecd[off + t] = sign * c
        if vecd:
            table[(i, j)] = vecd

    X = sub.a0_basis()
    on_v = column_tuples(model.bracket_matrix("a0", "V", "V")
                         @ kron(X, ExactMatrix.identity(n)))
    on_s = coordinate_matrix(sub.Sp, model.bracket_matrix("a0", "S", "S")
                             @ kron(X, sub.Sp.basis.transpose()))
    on_s = column_tuples(on_s)
    h_brackets = structure_constants(sub.h_brackets, dh)
    rp_brackets = structure_constants(sub.rp_brackets, dr)
    for k in range(dh):
        for l in range(dh):
            put(off_h + k, off_h + l, [(off_h, h_brackets[k][l])])
    for p in range(dr):
        for q in range(dr):
            put(off_r + p, off_r + q, [(off_r, rp_brackets[p][q])])
    delta = delta_tables(datum, deform.solve_delta(datum))
    for k in range(dh):
        for b in range(n):
            chunks = [(0, on_v[k * n + b]), (off_h, delta.delta1[k][b]),
                      (off_r, delta.delta2[k][b])]
            put(off_h + k, b, chunks)
            put(b, off_h + k, chunks, -1)
    for p in range(dr):
        for b in range(n):
            chunks = [(off_r, delta.delta4[p][b])]
            put(off_r + p, b, chunks)
            put(b, off_r + p, chunks, -1)
    for k in range(dh + dr):
        for i in range(nsp):
            val = on_s[k * nsp + i]
            put(off_h + k, off_s + i, [(off_s, val)])
            put(off_s + i, off_h + k, [(off_s, val)], -1)
    vs, ss = odd_bracket_tables(datum)
    for i, j, kv, gh, rr in ss:
        chunks = [(0, kv), (off_h, gh), (off_r, rr)]
        put(off_s + i, off_s + j, chunks)
        put(off_s + j, off_s + i, chunks)
    for b in range(n):
        for i, coords in enumerate(vs[b]):
            put(b, off_s + i, [(off_s, coords)])
            put(off_s + i, b, [(off_s, coords)], -1)
    alpha = column_tuples(deform._alpha(datum))
    th = pair_table(theta_a0, n)
    for b in range(n):
        for c in range(n):
            if b == c:
                continue
            chunks = [(0, alpha[b * n + c]), (off_h, th[b][c][:dh]),
                      (off_r, th[b][c][dh:])]
            put(b, c, chunks)
    return table
