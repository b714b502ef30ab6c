"""Shared, cached construction of test instances across the signature grid,
hand-written oracles of identities the engine checks as components of a
larger certificate, the Fraction-arithmetic oracles of the checks the
engine runs on integer-scaled data, and the entrywise assembly of the
linear systems the engine builds from Kronecker products."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from pairwise_oracles import basis_vec, basis_vectors, bracket_table, \
    lam_matrices, layout_index, matrix_of, pair_table, r_matrix, so_matrix, \
    solve_many, vec_add, zero_vec
from spencerkit.certs import Certificate, ProbeReport
from spencerkit.cliffspin import _M64, Signature, _splitmix64, \
    build_clifford_rep, build_dirac_current, spin_generators
from spencerkit.deform import _gauge_shift, check_admissibility, \
    class_gauge_generators
from spencerkit.errors import DimensionMismatch, NotClosed
from spencerkit.exactla import ExactMatrix, Subspace, \
    hstack, rat_str, vec_is_zero
from spencerkit.flatmodel import EndoSubalgebra, _stabiliser, \
    build_extended_flat_model, full_subalgebra, jacobi_triples, \
    make_graded_subalgebra, random_subspace, stabiliser_in_so
from spencerkit.spencer import FullModelCohomology, inclusion_matrix, \
    restriction_matrix, spencer_complex

# Lorentzian acceptance grid: (spacelike, timelike, extension)
GRID = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2))

# dim S' used when sampling highly supersymmetric subalgebras per grid cell
HIGH_SUSY_DIM = {(2, 1, 1): 2, (2, 1, 2): 3, (3, 1, 1): 3, (3, 1, 2): 5}


def stabiliser_in_r(model, Sp):
    """{a in r : a S' is contained in S'}."""
    return _stabiliser(model.r.matrices, model.dim_r, Sp)


def random_highly_susy_subalgebra(model, dim_sp, seed, rp_mode="stabiliser"):
    """Random S' of the given dimension, h = stabiliser of S', V' = V.

    rp_mode is "stabiliser" (largest valid r'), "zero", or "full" (only valid
    when r preserves S').
    """
    if 2 * dim_sp <= model.dim_s:
        raise DimensionMismatch("requested S' is not highly supersymmetric")
    Sp = random_subspace(model.dim_s, dim_sp, seed)
    h = stabiliser_in_so(model, Sp)
    if rp_mode == "zero":
        rp = Subspace.trivial(model.dim_r)
    elif rp_mode == "full":
        rp = Subspace.full(model.dim_r)
    else:
        rp = stabiliser_in_r(model, Sp)
    return make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                  Sp, h, rp)


def annihilator_in_so(model, Sp):
    """{A in so(V) : A . s = 0 for all s in S'}: the kernel of the system
    with one row per coordinate of the images sigma_k s."""
    rows = []
    for s in basis_vectors(Sp):
        rows.extend(zip(*(sig.apply(s) for sig in model.gens.sigma)))
    return ExactMatrix.from_rows(rows, cols=len(model.gens.sigma)).kernel()


def admissible_cocycles_from_invariant(sub, fullco, hats):
    """For each invariant normalised cocycle in `hats`, a cocycle on the
    subalgebra matching it up to a coboundary, or None when the restriction
    system is infeasible; the system [i_* | -d21] is solved once for all
    hats, and each class found is admissible by construction."""
    sub_cx = spencer_complex(sub, 2)
    mixed_cx = spencer_complex(sub, 2, values="full")
    system = hstack([inclusion_matrix(sub_cx, mixed_cx),
                     mixed_cx.differentials[1].scale(-1)])
    targets = restriction_matrix(fullco.complex, mixed_cx) @ \
        ExactMatrix.from_columns(hats, fullco.complex.layouts[2].dim)
    dim = sub_cx.layouts[2].dim
    return [None if x is None else x[:dim]
            for x in solve_many(system, targets)]


def gauge_shifted_data(datum, max_shifts=None):
    """All basis gauge shifts of a datum: the normalised cocycle moved by
    each class gauge generator, then lambda moved by each unit map
    nu: V -> h and V -> r' (direction-major, h before r').  Every shift
    fixes the cohomology class, so the theta maps must not change."""
    sub = datum.subalgebra
    cxs = datum.sub_complex
    lay1 = cxs.layouts[1]
    inc = inclusion_matrix(cxs, datum.mixed_complex, 1)
    generators = class_gauge_generators(datum)
    G = generators[0].rows
    zero_nu = zero_vec(lay1.dim)
    shifts = [(basis_vec(G, g), zero_nu) for g in range(G)]
    shifts += [(zero_vec(G),
                basis_vec(lay1.dim, layout_index(lay1, name, b, t)))
               for b in range(datum.model.dim_v)
               for name, dim in (("lambda_so", sub.h.dim),
                                 ("lambda_r", sub.rp.dim))
               for t in range(dim)]
    return [_gauge_shift(datum, generators, coeffs, nu, inc)
            for coeffs, nu in shifts[:max_shifts]]


def representatives(co):
    """The coefficient vectors of a cohomology report's representatives."""
    return tuple(map(co.cocycles.basis.row_tuple, co.rep_rows))


@lru_cache(maxsize=None)
def get_rep(s, t, N):
    return build_clifford_rep(Signature(s, t), N)


@lru_cache(maxsize=None)
def get_current(s, t, N):
    return build_dirac_current(get_rep(s, t, N))


@lru_cache(maxsize=None)
def get_model(s, t, N):
    return build_extended_flat_model(get_rep(s, t, N), get_current(s, t, N))


@lru_cache(maxsize=None)
def get_fullco(s, t, N):
    return FullModelCohomology(get_model(s, t, N))


@lru_cache(maxsize=None)
def get_full_subalgebra(s, t, N):
    return full_subalgebra(get_model(s, t, N))


@lru_cache(maxsize=None)
def get_sampled_subalgebra(s, t, N, seed, rp_mode="stabiliser"):
    return random_highly_susy_subalgebra(
        get_model(s, t, N), HIGH_SUSY_DIM[(s, t, N)], seed, rp_mode=rp_mode)


def invariant_basis(fullco, sub):
    space = fullco.invariant_normalised(
        [sub.h.basis.row_tuple(i) for i in range(sub.h.dim)],
        [sub.rp.basis.row_tuple(i) for i in range(sub.rp.dim)])
    return [space.basis.row_tuple(k) for k in range(space.dim)]


@lru_cache(maxsize=None)
def coordinate_subalgebras(s, t, N, limit=2):
    """Highly supersymmetric subalgebras on coordinate spinor subspaces with
    stabiliser isotropy, preferring ones that admit a nonzero admissible
    class; these carry richer invariant spaces than generic samples in the
    extended cells."""
    model = get_model(s, t, N)
    fullco = get_fullco(s, t, N)
    dim_sp = HIGH_SUSY_DIM[(s, t, N)]
    out = []
    for combo in combinations(range(model.dim_s), dim_sp):
        Sp = Subspace.from_vectors(model.dim_s,
                                   [basis_vec(model.dim_s, i) for i in combo])
        h = stabiliser_in_so(model, Sp)
        rp = stabiliser_in_r(model, Sp)
        try:
            sub = make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                         Sp, h, rp)
        except NotClosed:
            continue
        if not sub.transitive:
            continue
        if any(mu is not None for mu in admissible_cocycles_from_invariant(
                sub, fullco, invariant_basis(fullco, sub))):
            out.append(sub)
        if len(out) >= limit:
            break
    return tuple(out)


@lru_cache(maxsize=None)
def admissible_data_for_cell(s, t, N, include_subs=True):
    """Admissible data generated from basis elements of the invariant
    normalised cocycle space (plus the zero class), for the maximal
    subalgebra, sampled subalgebras and coordinate subalgebras."""
    fullco = get_fullco(s, t, N)
    out = []
    subs = [get_full_subalgebra(s, t, N)]
    if include_subs:
        subs += [get_sampled_subalgebra(s, t, N, seed) for seed in (1, 2)]
        subs += list(coordinate_subalgebras(s, t, N))
    seen_zero = False
    for sub in subs:
        candidates = invariant_basis(fullco, sub)
        if not seen_zero:
            candidates = [tuple([0] * fullco.complex.layouts[2].dim)] + \
                candidates
            seen_zero = True
        for mu in admissible_cocycles_from_invariant(sub, fullco,
                                                     candidates):
            if mu is None:
                continue
            datum = check_admissibility(sub, mu, fullco)
            if not hasattr(datum, "hat"):
                continue
            out.append(datum)
    return tuple(out)


def first_bianchi_holds(table, model):
    """sum_cyc table[a][b] e_c = 0 on the triples a < b < c, for a table of
    so(V) coordinates on V x V (theta1, or the curvature R0)."""
    n = model.dim_v
    e = [basis_vec(n, b) for b in range(n)]
    mats = [[so_matrix(model, x) for x in row] for row in table]
    return all(vec_is_zero(vec_add(vec_add(mats[a][b].apply(e[c]),
                                           mats[b][c].apply(e[a])),
                                   mats[c][a].apply(e[b])))
               for a, b, c in combinations(range(n), 3))


def implied_identity_failures(datum, theta):
    """The identities of integrability that the Jacobi identity of the
    deformed bracket contains, checked by hand on theta: a0-invariance, the
    first Bianchi identity of theta1 and the lambda-Bianchi identities of
    theta1 and theta2.  Returns the names of those that fail."""
    model, sub = datum.model, datum.subalgebra
    n = model.dim_v
    e = [basis_vec(n, b) for b in range(n)]
    theta1 = pair_table(theta.theta1, n)
    # theta1 as so(V) matrices on V, theta2 as r matrices on S
    tables = ([[so_matrix(model, x) for x in row] for row in theta1],
              [[r_matrix(model, x) for x in row]
               for row in pair_table(theta.theta2, n)])

    def form(k, x, y):
        """theta_k(x, y) as a matrix."""
        m = tables[k][0][0]
        out = ExactMatrix.zeros(m.rows, m.cols)
        for b, xb in enumerate(x):
            for c, yc in enumerate(y):
                if xb and yc:
                    out = out + tables[k][b][c].scale(xb * yc)
        return out

    def act(k, on_v, on_values, b, c):
        """(X.theta_k)(e_b, e_c) for X acting on V by on_v and on the values
        of theta_k by commutator with on_values (trivially when None)."""
        moved = form(k, on_v.apply(e[b]), e[c]) + \
            form(k, e[b], on_v.apply(e[c]))
        if on_values is None:
            return moved.scale(-1)
        return on_values.commutator(tables[k][b][c]) - moved

    pairs = list(combinations(range(n), 2))
    invariant = all(act(0, A, A, b, c).is_zero()
                    and act(1, A, None, b, c).is_zero()
                    for A in sub.h_so for b, c in pairs) and all(
        a.commutator(tables[1][b][c]).is_zero()
        for a in sub.rp_mats for b, c in pairs)
    # lambda(e_a) acts on V and theta1 by lambda1, on theta2 by lambda2
    lam = [(on_v, on_v, r_on_s) for on_v, _, r_on_s in
           (lam_matrices(datum, a) for a in range(n))]
    lam_bianchi = all(
        (act(k, lam[a][0], lam[a][k + 1], b, c)
         + act(k, lam[b][0], lam[b][k + 1], c, a)
         + act(k, lam[c][0], lam[c][k + 1], a, b)).is_zero()
        for k in (0, 1) for a, b, c in combinations(range(n), 3))
    return [name for name, holds in (
        ("a0_invariance", invariant),
        ("bianchi_theta1", first_bianchi_holds(theta1, model)),
        ("lambda_bianchi", lam_bianchi)) if not holds]


def add_scaled(out, v, c):
    """out += c v on sparse vectors, dropping the entries that cancel."""
    for k, w in v.items():
        t = out.get(k, Fraction(0)) + c * w
        if t:
            out[k] = t
        elif k in out:
            del out[k]


def bracket_vec(table, i, v):
    """[x_i, v] for a sparse rational coefficient vector v, from a
    bracket_table."""
    out = {}
    for j, c in v.items():
        add_scaled(out, table.get((i, j), {}), c)
    return out


def vec_bracket(table, v, k):
    """[v, x_k] for a sparse rational coefficient vector v, from a
    bracket_table."""
    out = {}
    for i, c in v.items():
        add_scaled(out, table.get((i, k), {}), c)
    return out


def fraction_jacobi_check(tensor):
    """graded_jacobi_check evaluated entry by entry in Fraction arithmetic
    on the tensor's bracket_table: the oracle of the integer-scaled check,
    certificate for certificate."""
    n, par, deg = tensor.total_dim, tensor.parities, tensor.degrees
    table = bracket_table(tensor)
    for i in range(n):
        for j in range(n):
            bij = table.get((i, j), {})
            sign = -1 if (par[i] * par[j]) % 2 == 0 else 1
            bji = table.get((j, i), {})
            for k in set(bij) | set(bji):
                if bij.get(k, Fraction(0)) != sign * bji.get(k, Fraction(0)):
                    return Certificate(
                        False, "super-antisymmetry violated",
                        witness={"pair": (i, j), "target": k})
            want_par = (par[i] + par[j]) % 2
            for k, v in bij.items():
                if v and par[k] != want_par:
                    return Certificate(
                        False, "bracket does not respect the parity",
                        witness={"pair": (i, j), "target": k})
            if deg is not None:
                want = deg[i] + deg[j]
                for k, v in bij.items():
                    if v and deg[k] != want:
                        return Certificate(
                            False, "bracket does not respect the Z-degree",
                            witness={"pair": (i, j), "target": k,
                                     "degree": deg[k], "expected": want})
    for i, j, k in jacobi_triples(par):
        sgn = -1 if (par[i] * par[j]) % 2 else 1
        acc = bracket_vec(table, i, table.get((j, k), {}))
        add_scaled(acc, vec_bracket(table, table.get((i, j), {}), k), -1)
        add_scaled(acc, bracket_vec(table, j, table.get((i, k), {})), -sgn)
        if acc:
            t = sorted(acc)[0]
            return Certificate(
                False, "super Jacobi identity violated",
                witness={"triple": (i, j, k), "target": t,
                         "defect": rat_str(acc[t])})
    return Certificate(True, "graded Jacobi identity holds exactly")


def fraction_spinor_sample(seed, counter, dim):
    """The probe's counter-based spinor sample as Fractions."""
    comps = []
    for j in range(dim):
        h = _splitmix64(((seed & _M64) << 1) ^ _splitmix64(counter * dim + j))
        comps.append(Fraction((h % 19) - 9))
    return tuple(comps)


def kappa_value(current, x, y):
    """kappa(x, y) = (x^T K_a y)_a evaluated pointwise from the component
    matrices: the oracle of the products the package builds kappa from."""
    return tuple(Fraction(sum(xv * ky for xv, ky in zip(x, K.apply(y)) if xv))
                 for K in current.components)


def fraction_causality_probe(current, sig, samples, seed):
    """causality_probe evaluated sample by sample in Fraction arithmetic,
    kappa(s, s) through the component matrices: the oracle of the
    integer-scaled probe, report for report."""
    eta = sig.eta()
    dim = current.rep.spinor_dim
    counter = 0
    produced = 0
    while produced < samples:
        s = fraction_spinor_sample(seed, counter, dim)
        counter += 1
        if vec_is_zero(s):
            continue
        produced += 1
        kappa_s = kappa_value(current, s, s)
        q = sum((eta[a] * kappa_s[a] * kappa_s[a] for a in range(sig.dim)),
                Fraction(0))
        if q > 0:
            return ProbeReport(
                probe="causality", samples=samples, seed=seed,
                counterexample={
                    "sample_index": produced - 1,
                    "spinor": [rat_str(c) for c in s],
                    "eta_kappa_kappa": rat_str(q),
                })
    return ProbeReport(probe="causality", samples=samples, seed=seed)


def entrywise_schur_algebra(rep):
    """The commutant of the spin generators, its system assembled entry by
    entry: [a, sigma]_ij = sum_k a_ik sigma_kj - sigma_ik a_kj."""
    ns = rep.spinor_dim
    entries = {}
    nrow = 0
    for sig in spin_generators(rep).sigma:
        for i in range(ns):
            for j in range(ns):
                for k in range(ns):
                    key = (nrow, i * ns + k)
                    entries[key] = entries.get(key, 0) + sig.entry(k, j)
                    key = (nrow, k * ns + j)
                    entries[key] = entries.get(key, 0) - sig.entry(i, k)
                nrow += 1
    system = ExactMatrix(nrow, ns * ns,
                         [(r, c, v) for (r, c), v in entries.items()])
    return EndoSubalgebra(ns, system.kernel())


def entrywise_r_symmetry_algebra(rep, current):
    """The Schur elements a with a^T K + K a = 0 for every component K, the
    system assembled entry by entry over the Schur basis."""
    schur = entrywise_schur_algebra(rep)
    ns = rep.spinor_dim
    rows = []
    for K in current.components:
        for i in range(ns):
            for j in range(ns):
                rows.append([sum((B.entry(k, i) * K.entry(k, j) +
                                  K.entry(i, k) * B.entry(k, j)
                                  for k in range(ns)), Fraction(0))
                             for B in schur.matrices])
    sol = ExactMatrix.from_rows(rows, cols=schur.dim).kernel()
    return EndoSubalgebra.from_matrices(
        ns, [matrix_of(schur, sol.basis.row_tuple(k)) for k in range(sol.dim)])
