"""The routes that the full model's degree-2 data on a maximal subalgebra
took before it was derived once, kept as test oracles:

- `direct_invariant_normalised`: N^{a0} as the kernel of the actors' beta
  and rho coordinates on the normalised basis, for every generator set
  (the package keeps it for all but the full subalgebra's own generators);
- `greedy_rep_rows`: the representatives as the Z rows of the greedy row
  basis of [B; Z], found on the Fraction oracle;
- `kron_admissibility`, `kron_gauge_generators` and `kron_realisability`:
  the admissibility system, the class gauge generators and the lambda2
  elimination with i^* and i_* formed as Kronecker-product matrices on
  every subalgebra, maximal or not."""

from fractions import Fraction

import fraction_exactla as fx
import pairwise_oracles
from spencerkit.deform import _gauge_shift, ensure_transitive
from spencerkit.exactla import ExactMatrix, NoSolution, Subspace, \
    block_diag, hstack, solve_affine, solve_matrix, vstack
from spencerkit.spencer import inclusion_matrix, restriction_matrix, \
    spencer_complex


def direct_invariant_normalised(fullco, h_gens, rp_gens):
    """Normalised cocycles annihilated by the given so and r elements:
    the kernel of each actor's beta and rho coordinates on N's basis, the
    actors side by side."""
    lay = fullco.complex.layouts[2]
    basis = fullco.normalised_space
    model = fullco.model
    X = block_diag([ExactMatrix.from_columns(h_gens, model.dim_so),
                    ExactMatrix.from_columns(rp_gens, model.dim_r)])
    if basis.dim == 0 or not X.cols:
        return basis
    dim = basis.dim
    moved = fullco.act(X, basis.basis).select_columns(
        lay.indices("beta", "rho"))
    kernel = hstack([moved.select_rows(range(a * dim, (a + 1) * dim))
                     for a in range(X.cols)]).transpose().kernel()
    return Subspace(lay.dim, (kernel.basis @ basis.basis).rref())


def greedy_rep_rows(co):
    """The indices of the Z basis rows that the greedy row basis of
    [B; Z] keeps after B."""
    B = co.boundaries
    M = vstack([B.basis, co.cocycles.basis])
    rows = fx.greedy_rows(fx.FractionMatrix(M.rows, M.cols, [
        (i, j, M.entry(i, j)) for i in range(M.rows) for j in M._rows[i]]))
    return tuple(i - B.dim for i in rows if i >= B.dim)


def kron_admissibility(sub, mu_coeffs, fullco):
    """(hat, lambda) of check_admissibility, from the system
    [i^* N^{a0} | d21] x = i_*(mu) with both maps formed, or None when it
    is infeasible."""
    sub, _ = ensure_transitive(sub)
    sub_cx = spencer_complex(sub, 2)
    mixed_cx = spencer_complex(sub, 2, values="full")
    inv = direct_invariant_normalised(fullco, *sub.generator_coords())
    target = inclusion_matrix(sub_cx, mixed_cx).apply(mu_coeffs)
    columns = []
    if inv.dim:
        columns.append(restriction_matrix(fullco.complex, mixed_cx)
                       @ inv.basis.transpose())
    columns.append(mixed_cx.differentials[1])
    sol = solve_affine(hstack(columns), target)
    if isinstance(sol, NoSolution):
        return None
    hat = ExactMatrix.from_rows([sol[:inv.dim]], cols=inv.dim) @ inv.basis
    return hat.row_tuple(0), sol[inv.dim:]


def kron_gauge_generators(datum):
    """class_gauge_generators with i^* formed: the invariant part of
    ker(i^*), from the per-vector restriction kernels, and the coboundary
    witness of each generator's restriction."""
    sub, fullco = datum.subalgebra, datum.fullco
    _direct, via_istar = pairwise_oracles.restriction_kernels(sub, fullco)
    inv = direct_invariant_normalised(fullco, *sub.generator_coords())
    gauge = via_istar.intersect(inv)
    res = restriction_matrix(fullco.complex, datum.mixed_complex)
    lams, failed = solve_matrix(datum.mixed_complex.differentials[1],
                                res @ gauge.basis.transpose())
    assert not failed
    return gauge.basis, lams.transpose()


def kron_realisability(datum):
    """The lambda2 elimination of check_geometric_realisability with i_*
    on C^{2,1} formed: the witness datum, or None when lambda2 cannot be
    eliminated."""
    generators = kron_gauge_generators(datum)
    G = generators[0].rows
    lay_sub = datum.sub_complex.layouts[1]
    inc = inclusion_matrix(datum.sub_complex, datum.mixed_complex, 1)
    nu_block = lay_sub.indices("lambda_r")
    r_rows = datum.mixed_complex.layouts[1].indices("lambda_r")
    system = hstack([generators[1].transpose().scale(-1),
                     inc.select_columns(nu_block)]).select_rows(r_rows)
    sol = solve_affine(system, [-datum.lam[i] for i in r_rows])
    if isinstance(sol, NoSolution):
        return None
    nu = [Fraction(0)] * lay_sub.dim
    for i, x in zip(nu_block, sol[G:]):
        nu[i] = x
    return _gauge_shift(datum, generators, sol[:G], nu, inc)
