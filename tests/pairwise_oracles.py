"""The per-pair routines that `deform` and `reconstruct` replaced with
products over the flat model's basis tables, kept as test oracles the way
`fraction_exactla` serves `exactla`: every bracket is a matrix commutator
read back through `so_coordinates` or the R-symmetry algebra's
`coordinates`, every action a matrix built for one element, and every value
a Fraction vector evaluated one basis pair at a time."""

from fractions import Fraction

from column_actions import apply_vector
from spencerkit.deform import DeltaMap, ThetaData
from spencerkit.errors import CurvatureMismatch, EquivarianceViolation, \
    OracleMismatch, TorsionViolation
from spencerkit.exactla import AffineSolver, ExactMatrix, basis_vec, \
    lincomb, tensor_index_maps, vec_add, vec_is_zero, vec_scale, vec_sub, \
    zero_vec
from spencerkit.reconstruct import CurvatureAtOrigin
from spencerkit.spencer import CochainAction, Cochain22


# ---------------------------------------------------------------------------
# lambda and the cochain blocks, one basis element at a time
# ---------------------------------------------------------------------------


def lam1_coords(datum, b):
    """lambda1(e_b) in so(V) coordinates."""
    off = datum.mixed_complex.layouts[1].index("lambda_so", b, 0)
    return tuple(datum.lam[off:off + datum.model.dim_so])


def lam2_coords(datum, b):
    """lambda2(e_b) in r coordinates."""
    if datum.model.dim_r == 0:
        return ()
    off = datum.mixed_complex.layouts[1].index("lambda_r", b, 0)
    return tuple(datum.lam[off:off + datum.model.dim_r])


def lam_matrices(datum, b):
    """(lambda1(e_b) on V, lambda1(e_b) on S, lambda2(e_b) on S)."""
    model = datum.model
    return (model.so_matrix(lam1_coords(datum, b)),
            model.spin_matrix(lam1_coords(datum, b)),
            model.r_matrix(lam2_coords(datum, b)))


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
    off = z.cx.layouts[2].index(name, src, 0)
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
    return [Cochain22(cx, apply_vector(CochainAction(
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
    on_v, r_on_s = model.so_matrix(so_coords), model.r_matrix(r_coords)

    def coords(space, columns):
        return ExactMatrix.from_columns(
            [space.coordinates(c) for c in columns], space.dim)

    so = coords(cx.Wso, [model.gens.so_coordinates(on_v.commutator(w))
                         for w in cx.Wso_mats])
    r = coords(cx.Wr, [model.r.coordinates(r_on_s.commutator(w))
                       for w in cx.Wr_mats])
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
                model.gens.so_coordinates(
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
            cc = model.r.coordinates(comm)
            c4 = sub.rp.coordinates(cc) if cc is not None else None
            if c4 is None:
                raise OracleMismatch("closed-form delta4 leaves r'")
            row4.append(c4)
        delta4.append(row4)
    return DeltaMap(delta1=delta1, delta2=delta2, delta4=delta4)


def compute_theta(datum):
    """The theta maps, Theta(v_b; s_i, s_j) evaluated pair by pair."""
    sub = datum.subalgebra
    model = datum.model
    hat = datum.hat.cochain
    acted = acted_hats(datum)
    svecs = sub.Sp.basis_vectors()
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
        for d in dirac_kernel.basis_vectors() for b in range(n))
    theta1 = theta2 = None
    alternating = second_rel = False
    if annihilated:
        preimages = AffineSolver(kappa_sp).solve_many(ExactMatrix.identity(n))
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
    return ThetaData(theta1_spinor=th1, theta2_spinor=th2,
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
            mat = model.so_matrix(theta1[b][c])
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
    for b in range(n):
        for c in range(b + 1, n):
            sp_mat = model.spin_matrix(theta.theta1[b][c])
            r_mat = model.r_matrix(theta.theta2[b][c])
            vb, vc = basis_vec(n, b), basis_vec(n, c)
            for k, s in enumerate(sub.Sp.basis_vectors()):
                lhs = vec_add(sp_mat.apply(s), r_mat.apply(s))
                rhs = vec_sub(beta_vec(hat, vb, beta_vec(hat, vc, s)),
                              beta_vec(hat, vc, beta_vec(hat, vb, s)))
                rhs = vec_add(rhs, beta_vec(acted[b], vc, s))
                rhs = vec_sub(rhs, beta_vec(acted[c], vb, s))
                if tuple(lhs) != tuple(rhs):
                    return {"pair": (b, c), "spinor": k}
    return None


def theta_in_a0(datum, theta):
    """theta - lambda(alpha) + [lambda, lambda] in h / r' coordinates."""
    sub = datum.subalgebra
    model = datum.model
    n = model.dim_v
    mu = datum.mu_minus
    th1_h = [[None] * n for _ in range(n)]
    th2_rp = [[None] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            alpha_bc = alpha(mu, b, c)
            lb, lc = lam_matrices(datum, b), lam_matrices(datum, c)
            v1 = vec_sub(theta.theta1[b][c], lam1_vec(datum, alpha_bc))
            v1 = vec_add(v1, model.gens.so_coordinates(
                lb[0].commutator(lc[0])))
            rc = model.r.coordinates(lb[2].commutator(lc[2]))
            if rc is None:
                raise OracleMismatch("[lambda2, lambda2] leaves r")
            v2 = vec_add(vec_sub(theta.theta2[b][c],
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


def even_bracket(deformation, x, y):
    """[x, y] of two even elements in (V | h | r') coordinates, from the
    deformed tensor's table."""
    n, nsp, dim = _even_dims(deformation)
    flat = [*range(n), *range(n + nsp, n + nsp + dim - n)]
    value = {}
    for i, cx in zip(flat, x):
        for j, cy in zip(flat, y):
            if cx and cy:
                for k, c in deformation.tensor.bracket(i, j).items():
                    value[k] = value.get(k, Fraction(0)) + cx * cy * c
    if any(n <= k < n + nsp and c for k, c in value.items()):
        raise CurvatureMismatch("even-even bracket has an odd component")
    return tuple(value.get(k, Fraction(0)) for k in flat)


def basis_matrices(nomizu, x):
    """(so(V) matrix on V, r matrix on S) of Phi(x_x)."""
    model = nomizu.deformation.subalgebra.model
    phi = nomizu.apply(basis_vec(nomizu.matrix.cols, x))
    return (model.so_matrix(phi[:model.dim_so]),
            model.r_matrix(phi[model.dim_so:]))


def _commutator_coords(model, a, b):
    """[a, b] for two (so matrix, r matrix) pairs, in so(V) + r
    coordinates."""
    so_comm = model.gens.so_coordinates(a[0].commutator(b[0]))
    r_comm = model.r.coordinates(a[1].commutator(b[1]))
    if r_comm is None:
        raise CurvatureMismatch("commutator leaves the R-symmetry algebra")
    return tuple(so_comm) + tuple(r_comm)


def verify_equivariance(nomizu):
    """Phi(ad_X y) = ad_{Phi X} Phi(y), generator by generator."""
    deformation = nomizu.deformation
    model = deformation.subalgebra.model
    n, _, dim = _even_dims(deformation)
    for a in range(n, dim):
        for x in range(dim):
            lhs = nomizu.apply(even_bracket(deformation, basis_vec(dim, a),
                                            basis_vec(dim, x)))
            if tuple(lhs) != _commutator_coords(
                    model, basis_matrices(nomizu, a),
                    basis_matrices(nomizu, x)):
                raise EquivarianceViolation(
                    f"Nomizu map is not equivariant at generator {a}")


def verify_torsion_free(nomizu):
    """The torsion-free criterion on the basis pairs x < y."""
    deformation = nomizu.deformation
    n, _, dim = _even_dims(deformation)
    for x in range(dim):
        xbar = basis_vec(dim, x)[:n]
        for y in range(x + 1, dim):
            ybar = basis_vec(dim, y)[:n]
            val = vec_sub(basis_matrices(nomizu, x)[0].apply(ybar),
                          basis_matrices(nomizu, y)[0].apply(xbar))
            val = vec_sub(val, even_bracket(deformation, basis_vec(dim, x),
                                            basis_vec(dim, y))[:n])
            if not vec_is_zero(val):
                raise TorsionViolation(
                    f"torsion-free criterion fails at basis pair ({x},{y})")


def curvature_at_origin(deformation, nomizu):
    """[Phi X, Phi Y] - Phi([X, Y]) pair by pair, asserted equal to -theta
    on horizontal pairs and zero on vertical ones."""
    model = deformation.subalgebra.model
    theta = deformation.theta
    n, _, dim = _even_dims(deformation)
    nso = model.dim_so

    def wang(x, y):
        comm = _commutator_coords(model, basis_matrices(nomizu, x),
                                  basis_matrices(nomizu, y))
        phi_br = nomizu.apply(even_bracket(deformation, basis_vec(dim, x),
                                           basis_vec(dim, y)))
        out = tuple(a - b for a, b in zip(comm, phi_br))
        return out[:nso], out[nso:]

    R0 = [[zero_vec(nso)] * n for _ in range(n)]
    F0 = [[zero_vec(model.dim_r)] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            got_so, got_r = wang(b, c)
            if got_so != vec_scale(theta.theta1[b][c], -1) or \
                    got_r != vec_scale(theta.theta2[b][c], -1):
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
