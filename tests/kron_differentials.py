"""The Kronecker-product assembly of the Spencer differentials that
`SpencerComplex` replaced with rows written from the index tables, kept as
the test oracle the way `pairwise_oracles` serves `deform`: every block of a
differential is a product of `kron`s with identities, and `_assemble` stacks
the blocks.  `kron_differentials(cx)` rebuilds the structure matrices of the
complex `cx` and returns the differentials {1: d1, 2: d2} this way."""

from pairwise_oracles import basis_vectors, r_matrix, so_matrix, spin_matrix
from spencerkit.errors import DimensionMismatch
from spencerkit.exactla import (ExactMatrix, flatten_columns, hstack, kron,
                                pair_embedding, tensor_index_maps, vstack)
from spencerkit.spencer import _CLOSURE, _coordinate_matrix


def cyclic_embedding(table3, table2):
    """(|table2| * n) x |table3| matrix of
    (i, j, k) -> e_ij (x) e_k + e_jk (x) e_i + e_ki (x) e_j, with e_ij the
    table2 coordinate of the pair (signed for wedge tables: e_ki = -e_ik)
    and e_p (x) e_k at p * n + k.  The tables are sym3 with sym2, or wedge3
    with wedge2, over the same n."""
    kinds = (table3.kind, table2.kind)
    if kinds not in (("sym3", "sym2"), ("wedge3", "wedge2")) or \
            table3.dims != table2.dims:
        raise DimensionMismatch("cyclic_embedding expects sym3 with sym2 or "
                                "wedge3 with wedge2 tables of one size")
    n = table2.dims[0]
    acc = {}
    for col, (i, j, k) in enumerate(table3.tuples):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            key = (table2.index(x, y) * n + z, col)
            acc[key] = acc.get(key, 0) + table2.sign(x, y)
    return ExactMatrix(n * table2.size, table3.size,
                       [(r, c, v) for (r, c), v in acc.items()])


def _assemble(out, inp, blocks):
    """The out.dim x inp.dim matrix whose (row block, column block) is
    blocks[(row name, column name)], zero where absent."""
    def block(r, c):
        (rs, rt), (cs, ct) = out.sizes[r], inp.sizes[c]
        m = blocks.get((r, c))
        if m is None:
            return ExactMatrix(rs * rt, cs * ct)
        if (m.rows, m.cols) != (rs * rt, cs * ct):
            raise DimensionMismatch(f"block ({r}, {c}) has the wrong shape")
        return m
    return vstack([hstack([block(r, c) for c, _, _ in inp.blocks])
                   for r, _, _ in out.blocks])


def structure_matrices(cx):
    """K (nvp x |sym2 S'|), W = kron(I, K^T) Q (nvp |sym2 S'| x
    |wedge2 V'|), M_V, M_S^so and M_S^r of the complex, as matrices."""
    sub, model = cx.subalgebra, cx.model
    K = _coordinate_matrix(sub.Vp, sub.kappa_sp,
                           _CLOSURE.format("kappa(S',S')"))
    W = kron(ExactMatrix.identity(cx.nvp), K.transpose()) @ \
        pair_embedding(cx.w2v)
    Vb, Sb = sub.Vp.basis, sub.Sp.basis

    def images(basis, mats):
        return flatten_columns([basis @ m.transpose() for m in mats],
                               basis.rows, basis.cols)

    M_V = _coordinate_matrix(
        cx.Wv, images(Vb, [so_matrix(model, x)
                           for x in basis_vectors(cx.Wso)]),
        _CLOSURE.format("h.V'"), cx.nvp)
    M_Sso = _coordinate_matrix(
        cx.Ws, images(Sb, [spin_matrix(model, x)
                           for x in basis_vectors(cx.Wso)]),
        _CLOSURE.format("h.S'"), cx.nsp)
    M_Sr = _coordinate_matrix(
        cx.Ws, images(Sb, [r_matrix(model, x)
                           for x in basis_vectors(cx.Wr)]),
        _CLOSURE.format("r'.S'"), cx.nsp)
    return K, W, M_V, M_Sso, M_Sr


def kappa_on_targets(cx):
    """C (nsp dWv x dWs): block i is kappa(s_i, .): Ws -> Wv."""
    nsp = cx.nsp
    Sb, WsT = cx.subalgebra.Sp.basis, cx.Ws.basis.transpose()
    n = cx.model.dim_v
    kappa_s = vstack([Sb @ K_a @ WsT for K_a in cx.model.current.components])
    return _coordinate_matrix(
        cx.Wv, kappa_s.select_rows([a * nsp + i for i in range(nsp)
                                    for a in range(n)]),
        _CLOSURE.format("kappa(S', beta-value)"), nsp)


def kron_differentials(cx):
    """{1: d1, 2: d2} of cx, assembled from Kronecker products."""
    K, W, M_V, M_Sso, M_Sr = structure_matrices(cx)
    if cx.degree == 2:
        return _degree2(cx, K, W, M_V, M_Sso, M_Sr)
    return _degree4(cx, W, M_V, M_Sso, M_Sr)


def _degree2(cx, K, W, M_V, M_Sso, M_Sr):
    nvp, nsp, s2 = cx.nvp, cx.nsp, cx.s2.size
    dWv, dWs, dWso, dWr = cx.dWv, cx.dWs, cx.dWso, cx.dWr
    eye = ExactMatrix.identity
    lay1, lay2, lay3 = cx.layouts[1], cx.layouts[2], cx.layouts[3]
    s3 = tensor_index_maps(nsp, "sym3")
    C = kappa_on_targets(cx)
    Kt = K.transpose()
    Qt = pair_embedding(cx.w2v).transpose()
    Sigma_t = pair_embedding(cx.s2).transpose()
    Tt = cyclic_embedding(s3, cx.s2).transpose()
    # d(lambda)(v, w) = lambda(v)w - lambda(w)v, d(lambda)(v, s) =
    # lambda(v).s, d(lambda)(s, s) = -lambda(kappa(s, s))
    d1 = _assemble(lay2, lay1, {
        ("alpha", "lambda_so"): kron(Qt, eye(dWv)) @ kron(eye(nvp), M_V),
        ("beta", "lambda_so"): kron(eye(nvp), M_Sso),
        ("beta", "lambda_r"): kron(eye(nvp), M_Sr),
        ("gamma", "lambda_so"): kron(Kt, eye(dWso)).scale(-1),
        ("rho", "lambda_r"): kron(Kt, eye(dWr)).scale(-1)})
    # vss: alpha(kappa(s, s), v) + kappa(s, beta(v, s)) symmetrised +
    # gamma(s, s)v; sss: the cyclic sums of beta(kappa(s, s), s),
    # gamma(s, s).s and rho(s, s).s

    def gamma_band(b):  # gamma(s, s)v_b, from the rows of M_V for v_b
        A_b = kron(ExactMatrix(1, nvp, [(0, b, 1)]), eye(dWv)) @ M_V
        return kron(eye(s2), A_b)

    # V' = 0 (a null S') leaves no vss rows but gamma columns
    vss_gamma = (vstack([gamma_band(b) for b in range(nvp)]) if nvp
                 else ExactMatrix(0, s2 * dWso))
    sss_of = kron(Tt, eye(dWs))
    d2 = _assemble(lay3, lay2, {
        ("vss", "alpha"): kron(W, eye(dWv)).scale(-1),
        ("vss", "beta"): kron(eye(nvp), kron(Sigma_t, eye(dWv)) @
                              kron(eye(nsp), C)),
        ("vss", "gamma"): vss_gamma,
        ("sss", "beta"): kron(Tt @ kron(Kt, eye(nsp)), eye(dWs)),
        ("sss", "gamma"): sss_of @ kron(eye(s2), M_Sso),
        ("sss", "rho"): sss_of @ kron(eye(s2), M_Sr)})
    return {1: d1, 2: d2}


def _degree4(cx, W, M_V, M_Sso, M_Sr):
    nvp, w2 = cx.nvp, cx.w2v.size
    dWv, dWso, dWr = cx.dWv, cx.dWso, cx.dWr
    eye = ExactMatrix.identity
    w3 = tensor_index_maps(nvp, "wedge3")
    # vvv: theta(u, v)w + theta(v, w)u + theta(w, u)v; vvs: theta(u, v).s;
    # vss: theta(v, kappa(s, s))
    T_wedge_t = cyclic_embedding(w3, cx.w2v).transpose()
    d2 = _assemble(cx.layouts[3], cx.layouts[2], {
        ("vvv", "theta_so"):
            kron(T_wedge_t, eye(dWv)) @ kron(eye(w2), M_V),
        ("vvs", "theta_so"): kron(eye(w2), M_Sso),
        ("vvs", "theta_r"): kron(eye(w2), M_Sr),
        ("vss_so", "theta_so"): kron(W, eye(dWso)),
        ("vss_r", "theta_r"): kron(W, eye(dWr))})
    return {1: ExactMatrix(cx.layouts[2].dim, 0), 2: d2}
