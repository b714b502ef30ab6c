"""Admissibility, the delta map, the theta maps, integrability, filtered
deformations with full verification, geometric realisability and envelopes.

Verification philosophy: an identity implied by the admissibility and
integrability conditions is checked once, as a component of the certificate
that contains it, and its failure raises an error (OracleMismatch,
JacobiViolation or FiltrationViolation) because it can only mean an
implementation bug, never a valid mathematical state.  The quadratic system
of integrability, the a0-invariance of theta and the Bianchi identities of
theta1 and lambda are components of the Jacobi identity of the deformed
bracket, checked once on its tensor; the filtration containments are
components of the associated-graded certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .certs import Certificate
from .errors import (FiltrationViolation, JacobiViolation,
                     NotHighlySusy, NotSymmetric, OracleMismatch)
from .exactla import (AffineSolver, ExactMatrix, NoSolution, Subspace,
                      block_diag, coordinate_matrix, flatten_columns, hstack,
                      kron, pair_action, pair_embedding, pair_map, rat_str,
                      solve_affine, tensor_index_maps, vec_is_zero, vstack)
from .flatmodel import (EndoSubalgebra, ExtendedFlatModel, GradedBracketTensor,
                        GradedSubalgebra, bracket_from_blocks, faithful_split,
                        graded_jacobi_check, make_graded_subalgebra)
from .spencer import (Cochain22, FullModelCohomology,
                      NormalisedCocycle, SpencerComplex, inclusion_matrix,
                      restrict, restriction_kernel_report, spencer_complex,
                      subalgebra_actions)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass
class AdmissibleDatum:
    """A cocycle on the subalgebra matched to an invariant normalised cocycle
    of the full model: i_*(mu) = i^*(hat) + d(lambda)."""
    subalgebra: GradedSubalgebra
    fullco: FullModelCohomology
    sub_complex: SpencerComplex
    mixed_complex: SpencerComplex
    mu_minus: Cochain22
    hat: NormalisedCocycle
    lam: tuple              # C^{2,1}(a_-; model) coordinates
    r_prime_replaced: bool = False
    # derived once per datum by lam_matrix, hat_blocks, acted_hats,
    # odd_brackets, solve_delta, compute_theta and check_integrability
    _lam: Optional[ExactMatrix] = field(default=None, init=False,
                                        repr=False, compare=False)
    _hat_blocks: Optional[tuple] = field(default=None, init=False,
                                         repr=False, compare=False)
    _acted: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)
    _odd: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)
    _delta: Optional["DeltaMap"] = field(default=None, init=False,
                                         repr=False, compare=False)
    _theta: Optional["ThetaData"] = field(default=None, init=False,
                                          repr=False, compare=False)
    _integrability: Optional["IntegrabilityReport"] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def model(self) -> ExtendedFlatModel:
        return self.subalgebra.model

    def lam_matrix(self) -> ExactMatrix:
        """lambda as the (dim so + dim r) x dim V matrix whose column b is
        lambda(e_b) = (lambda1(e_b), lambda2(e_b)), read off the lambda
        blocks once per datum and kept."""
        if self._lam is None:
            lay = self.mixed_complex.layouts[1]
            lam = ExactMatrix.from_rows([self.lam])
            self._lam = vstack([lay.values("lambda_so", lam),
                                lay.values("lambda_r", lam)])
        return self._lam

    def hat_blocks(self) -> tuple:
        """(beta-hat, gamma-hat over rho-hat) read as matrices, kept on the
        datum: beta-hat(v, s) is the first times v (x) s, and the value of
        (gamma-hat, rho-hat) on a symmetric product x * y of spinors is the
        second times its Sym^2 S coordinates."""
        if self._hat_blocks is None:
            self._hat_blocks = _cochain_blocks(self.fullco.complex,
                                               self.hat.cochain.row())
        return self._hat_blocks

    def acted_hats(self) -> tuple:
        """The blocks of hat_blocks for lambda(v_b) . hat, every direction
        v_b at once (column (a ns + i) n + b of the first, P n + b of the
        second), kept on the datum: the kept basis operators of the full
        complex applied to hat and combined by lambda."""
        if self._acted is None:
            self._acted = _cochain_blocks(self.fullco.complex, self.fullco.act(
                self.lam_matrix(), self.hat.cochain.row()))
        return self._acted

    def odd_brackets(self) -> tuple:
        """The deformed brackets with a spinor argument, as two coordinate
        matrices (vs, ss), kept on the datum.

        Column b dim S' + i of vs holds the S' coordinates of [v_b, s_i] =
        beta-hat(v_b, s_i) + lambda1(v_b).s_i + lambda2(v_b) s_i.  Column p
        of ss holds the h then r' coordinates of gamma-hat(s_i, s_j) -
        lambda1(kappa) and rho-hat(s_i, s_j) - lambda2(kappa), for the p-th
        sym2 pair (i, j) of S'; the V part of [s_i, s_j] is column p of
        kappa_sp.  The defining relation of the datum implies every
        membership, so a value outside the subalgebra raises
        OracleMismatch.
        """
        if self._odd is None:
            sub, model = self.subalgebra, self.model
            beta, gamma_rho = self.hat_blocks()
            lam = self.lam_matrix()
            E = sub.Sp.basis.transpose()
            n, nso = model.dim_v, model.dim_so
            # column b nsp + i: beta-hat(v_b, s_i) + lambda(v_b).s_i
            vs = coordinate_matrix(
                sub.Sp, beta @ kron(ExactMatrix.identity(n), E)
                + model.bracket_matrix("a0", "S", "S") @ kron(lam, E))
            if vs is None:
                raise OracleMismatch("beta-hat correction leaves S'")
            # column p: (gamma-hat, rho-hat)(s_i, s_j) - lambda(kappa_p)
            values = gamma_rho @ _spinor_squares(sub) - lam @ sub.kappa_sp
            gh = coordinate_matrix(sub.h, values.select_rows(range(nso)))
            if gh is None:
                raise OracleMismatch("gamma-hat correction leaves h")
            rr = coordinate_matrix(sub.rp, values.select_rows(
                range(nso, values.rows)))
            if rr is None:
                raise OracleMismatch("rho-hat correction leaves r'")
            self._odd = (vs, vstack([gh, rr]))
        return self._odd


def _cochain_blocks(cx: SpencerComplex, cochains: ExactMatrix) -> tuple:
    """(beta, gamma over rho) of each row of `cochains`, cochains of the
    full complex, read as matrices by CochainLayout.values: column
    (a ns + i) C + c of the first is beta_c(e_a, e_i), and column P C + c of
    the second is (gamma_c, rho_c) on the P-th Sym^2 S basis element, for
    C = cochains.rows."""
    lay = cx.layouts[2]
    return (lay.values("beta", cochains),
            vstack([lay.values("gamma", cochains),
                    lay.values("rho", cochains)]))


def _spinor_squares(sub: GradedSubalgebra) -> ExactMatrix:
    """Column p is s_i * s_j in Sym^2 S for the p-th sym2 pair (i, j) of
    the S' basis: a symmetric cochain block evaluates on it as on
    (s_i, s_j)."""
    E = sub.Sp.basis.transpose()
    return pair_map(tensor_index_maps(sub.model.dim_s, "sym2"),
                    tensor_index_maps(sub.Sp.dim, "sym2"), E, E)


def _coordinates_in(spaces: Sequence[Subspace], images: ExactMatrix
                    ) -> Optional[ExactMatrix]:
    """coordinate_matrix in the direct sum of `spaces`, whose ambient
    spaces the rows of `images` run through one after the other: the
    coordinates in each, stacked, or None when a column leaves the sum."""
    out, lo = [], 0
    for space in spaces:
        coords = coordinate_matrix(space, images.select_rows(
            range(lo, lo + space.ambient_dim)))
        if coords is None:
            return None
        out.append(coords)
        lo += space.ambient_dim
    return vstack(out)


def column_tuples(M: ExactMatrix) -> list:
    """The columns of M as tuples of Fractions, for the values a report or
    a witness keeps."""
    T = M.transpose()
    return [T.row_tuple(j) for j in range(T.rows)]


def first_nonzero_column(M: ExactMatrix) -> Optional[int]:
    """The index of the first nonzero column of M, or None."""
    if M.is_zero():
        return None
    return next(j for j, col in enumerate(column_tuples(M)) if any(col))


@dataclass(frozen=True)
class NotAdmissible:
    """Infeasibility certificate for the admissibility system."""
    combination: tuple
    rhs: Fraction

    def to_json(self) -> dict:
        return {"admissible": False,
                "certificate_rhs": rat_str(self.rhs)}


def ensure_transitive(sub: GradedSubalgebra
                      ) -> Tuple[GradedSubalgebra, bool]:
    """Route a non-transitive subalgebra through the faithful splitting of
    r', replacing r' by its faithfully-acting ideal."""
    if sub.transitive:
        return sub, False
    model = sub.model
    rp_endo = EndoSubalgebra.from_matrices(model.dim_s, sub.rp_mats)
    rpp, _ann = faithful_split(rp_endo, sub.Sp)
    ns = model.dim_s
    coords = coordinate_matrix(model.r.basis,
                               flatten_columns(rpp.matrices, ns, ns))
    if coords is None:
        raise OracleMismatch("faithful split left the R-symmetry algebra")
    new_rp = coords.transpose().row_space()
    replaced = make_graded_subalgebra(model, sub.Vp, sub.Sp, sub.h, new_rp)
    if not replaced.transitive:
        raise NotHighlySusy("subalgebra is not transitive even after the "
                            "faithful splitting of r'")
    return replaced, True


def check_admissibility(sub: GradedSubalgebra,
                        mu_coeffs: Sequence[Fraction],
                        fullco: FullModelCohomology):
    """Match a Spencer cocycle on the subalgebra with an invariant normalised
    cocycle of the full model, up to a coboundary.

    Returns an AdmissibleDatum, or NotAdmissible with the inconsistency
    certificate of the linear system.
    """
    if sub.model.current.symmetry != "symmetric":
        raise NotSymmetric("the deformation theory here needs a symmetric "
                           "Dirac current; skew currents are rejected")
    if not sub.highly_susy:
        raise NotHighlySusy("admissibility requires a highly supersymmetric "
                            "subalgebra")
    sub, replaced = ensure_transitive(sub)
    # the subalgebra's complexes with values in itself and in the model (one
    # complex, with i_* and i^* the identity, on a maximal subalgebra, where
    # the cochains are used as they are)
    sub_cx = spencer_complex(sub, 2)
    mixed_cx = spencer_complex(sub, 2, values="full")
    mu = Cochain22(sub_cx, mu_coeffs)
    if not mu.is_cocycle():
        raise OracleMismatch("admissibility input is not a Spencer cocycle")
    inv = fullco.invariant_normalised(*sub.generator_coords())
    target = mu.coeffs
    if not sub.maximal():
        target = inclusion_matrix(sub_cx, mixed_cx).apply(target)
    columns = []
    if inv.dim:
        columns.append(restrict(fullco.complex, mixed_cx,
                                inv.basis.transpose()))
    columns.append(mixed_cx.differentials[1])
    system = hstack(columns) if len(columns) > 1 else columns[0]
    sol = solve_affine(system, target)
    if isinstance(sol, NoSolution):
        return NotAdmissible(combination=sol.combination, rhs=sol.rhs)
    hat = ExactMatrix.from_rows([sol.x[:inv.dim]], cols=inv.dim) @ inv.basis
    lam = tuple(sol.x[inv.dim:])
    datum = AdmissibleDatum(
        subalgebra=sub, fullco=fullco, sub_complex=sub_cx,
        mixed_complex=mixed_cx, mu_minus=mu,
        hat=NormalisedCocycle(Cochain22(fullco.complex, hat.row_tuple(0))),
        lam=lam, r_prime_replaced=replaced)
    # the membership properties the defining relation implies
    datum.odd_brackets()
    solve_delta(datum)
    return datum


# ---------------------------------------------------------------------------
# the delta map
# ---------------------------------------------------------------------------


@dataclass
class DeltaMap:
    """Degree-2 deformation map on a0 x V, as one matrix: column k n + b
    holds delta(X_k, e_b) in h then r' coordinates, X_k over the h-basis
    then the r'-basis and n = dim V.  The h rows of an r' column (delta3)
    are zero, since [r', V] = 0 and [r', so(V)] = 0 in the flat model."""
    matrix: ExactMatrix


def solve_delta(datum: AdmissibleDatum) -> DeltaMap:
    """Closed-form delta(A, v) = [A, lambda(v)] - lambda(Av), certified by
    one exact product d(chi_X) = X.mu over every h- and r'-basis element X;
    d21 is injective, so the closed form is the unique solution.  Computed
    once per datum and kept on it."""
    if datum._delta is None:
        datum._delta = _solve_delta(datum)
    return datum._delta


def _solve_delta(datum: AdmissibleDatum) -> DeltaMap:
    sub = datum.subalgebra
    model = datum.model
    n = model.dim_v
    lam = datum.lam_matrix()
    X = sub.a0_basis()
    # column k n + b: delta(X_k, e_b) = [X_k, lambda(e_b)] - lambda(X_k e_b),
    # X_k over the h-basis then the r'-basis
    values = model.bracket_matrix("a0", "a0", "a0") @ kron(X, lam) - \
        lam @ model.bracket_matrix("a0", "V", "V") @ kron(
            X, ExactMatrix.identity(n))
    coords = _coordinates_in((sub.h, sub.rp), values)
    if coords is None:
        raise OracleMismatch("closed-form delta leaves a0")
    delta = DeltaMap(coords)
    _certify_delta(datum, _delta_cochains(datum, delta))
    return delta


def _delta_cochains(datum: AdmissibleDatum, delta: DeltaMap) -> ExactMatrix:
    """chi_X in C^{2,1} of the subalgebra's complex, one column per h-basis
    then r'-basis element X: its lambda_so block, at b dim h + t, is the h
    coordinate t of delta(X, e_b), and its lambda_r block the r'
    coordinates likewise.  The transpose of delta's h rows holds that
    coordinate at row k n + b, so read as dim a0 rows its row k is the
    lambda_so block of chi_{X_k}; the r' rows give the lambda_r blocks."""
    n, dh = datum.model.dim_v, datum.subalgebra.h.dim
    M = delta.matrix
    return hstack([M.select_rows(part).transpose().reshape(
        M.rows, n * len(part)) for part in (range(dh), range(dh, M.rows))
    ]).transpose()


def _certify_delta(datum: AdmissibleDatum, chi: ExactMatrix) -> None:
    """Check d21 chi == [X.mu], X over the h-then-r' basis, with one exact
    product.  d21 is injective (H^{2,1} = 0 on a transitive, highly
    supersymmetric subalgebra), so chi is then the unique solution.  Raises
    OracleMismatch naming the first column that differs."""
    cx = datum.sub_complex
    d21 = cx.differentials[1]
    if d21.rank() != d21.cols:
        raise OracleMismatch("degree-(2,1) differential is not injective")
    ops = subalgebra_actions(cx)
    if not ops:
        return
    mu = datum.mu_minus.row()
    k = first_nonzero_column(d21 @ chi - vstack([op.apply_rows(mu)
                                                 for op in ops]).transpose())
    if k is not None:
        h_dim = datum.subalgebra.h.dim
        X = f"h[{k}]" if k < h_dim else f"r'[{k - h_dim}]"
        raise OracleMismatch(f"closed-form delta fails d(chi_X) = X.mu at "
                             f"X = {X}")


# ---------------------------------------------------------------------------
# the theta maps
# ---------------------------------------------------------------------------


@dataclass
class ThetaData:
    """Quartic deformation data: whether the spinor-argument maps annihilate
    the Dirac kernel and, when they do, the induced alternating maps on
    V x V as matrices: column b n + c of theta1 holds theta1(v_b, v_c) in
    so(V) coordinates, and of theta2 theta2(v_b, v_c) in r coordinates."""
    dirac_kernel_annihilated: bool
    dirac_kernel_dim: int
    theta1: Optional[ExactMatrix]
    theta2: Optional[ExactMatrix]
    alternating_verified: bool = False
    second_relation_consistent: bool = False

    def matrix(self) -> ExactMatrix:
        """theta1 over theta2: column b n + c holds (theta1, theta2)(v_b,
        v_c) in so(V) + r coordinates."""
        return vstack([self.theta1, self.theta2])

    @property
    def theta2_zero(self) -> bool:
        return self.theta2 is not None and self.theta2.is_zero()


def compute_theta(datum: AdmissibleDatum) -> ThetaData:
    """The theta maps of the datum, computed once and kept on it."""
    if datum._theta is None:
        datum._theta = _compute_theta(datum)
    return datum._theta


def _spinor_theta(datum: AdmissibleDatum) -> ExactMatrix:
    """The spinor-argument theta maps: row b m + k, column p holds
    coordinate k of Theta(v_b; s_i, s_j), for m = dim so + dim r and (i, j)
    the p-th sym2 pair of S'.

    Theta(v_b; s, s') = (gamma-hat, rho-hat)(s, beta-hat(v_b, s')) +
    (s <-> s') - (lambda(v_b).hat)_(gamma, rho)(s, s'): its first term is
    gamma-hat over rho-hat after beta-hat(v_b, .) acting on Sym^2 S, so the
    values on every S' pair come from one product per direction."""
    model = datum.model
    n, ns = model.dim_v, model.dim_s
    s2 = tensor_index_maps(ns, "sym2")
    beta, gamma_rho = datum.hat_blocks()
    _, acted = datum.acted_hats()
    return vstack([
        gamma_rho @ pair_action(s2, beta.select_columns(
            range(b * ns, (b + 1) * ns)))
        - acted.select_columns(range(b, acted.cols, n))
        for b in range(n)]) @ _spinor_squares(datum.subalgebra)


def _compute_theta(datum: AdmissibleDatum) -> ThetaData:
    """Decide whether the spinor-argument theta maps kill the Dirac kernel,
    and if so solve for the alternating maps on V x V."""
    n, nso = datum.model.dim_v, datum.model.dim_so
    spinor = _spinor_theta(datum)
    kappa_sp = datum.subalgebra.kappa_sp
    dirac_kernel = kappa_sp.kernel()
    annihilated = (spinor @ dirac_kernel.basis.transpose()).is_zero()
    theta1 = theta2 = None
    alternating = False
    second_rel = False
    if annihilated:
        preimages, failed = AffineSolver(kappa_sp).solve_matrix(
            ExactMatrix.identity(n))
        if failed:
            raise OracleMismatch("kappa restricted to Sym^2 S' is not "
                                 "surjective on a highly susy subalgebra")
        theta = _side_by_side(spinor @ preimages, n)
        theta1 = theta.select_rows(range(nso))
        theta2 = theta.select_rows(range(nso, theta.rows))
        alternating = theta == theta.select_columns(
            [c * n + b for b in range(n) for c in range(n)]).scale(-1)
        second_rel = _second_defining_relation(
            datum, _side_by_side(spinor, n), theta)
    return ThetaData(dirac_kernel_annihilated=annihilated,
                     dirac_kernel_dim=dirac_kernel.dim,
                     theta1=theta1, theta2=theta2,
                     alternating_verified=alternating,
                     second_relation_consistent=second_rel)


def _side_by_side(M: ExactMatrix, n: int) -> ExactMatrix:
    """The n row blocks of M side by side: column b C + j holds block b of
    column j, for C = M.cols."""
    m = M.rows // n
    return hstack([M.select_rows(range(b * m, (b + 1) * m))
                   for b in range(n)])


def _second_defining_relation(datum: AdmissibleDatum, spinor: ExactMatrix,
                              theta: ExactMatrix) -> bool:
    """theta1(v,w) kappa(s,s) = Theta1(v;s,s) w - Theta1(w;s,s) v, the second
    relation that determines theta1 uniquely, over the sym2 S' pairs and
    the pairs b < c, with `spinor` column b P + p holding Theta(v_b; p) and
    `theta` column b n + c holding theta(v_b, v_c).  The r parts act
    trivially on V."""
    model = datum.model
    n = model.dim_v
    kappa = datum.subalgebra.kappa_sp
    npair = kappa.cols
    on_v = model.bracket_matrix("a0", "V", "V")
    # column (b n + c) P + p: theta1(v_b, v_c) kappa_p; column (b P + p) n +
    # c: Theta1(v_b; p) e_c
    lhs = on_v @ kron(theta, kappa)
    moved = on_v @ kron(spinor, ExactMatrix.identity(n))
    pairs = [(b, c, p) for b in range(n) for c in range(b + 1, n)
             for p in range(npair)]
    return lhs.select_columns([(b * n + c) * npair + p
                               for b, c, p in pairs]) == \
        moved.select_columns([(b * npair + p) * n + c
                              for b, c, p in pairs]) - \
        moved.select_columns([(c * npair + p) * n + b for b, c, p in pairs])


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------


# the implied identities a passing report certifies: alternating and the
# second defining relation on the theta stage, membership of theta in a0 by
# _theta_in_a0, and a0-invariance, the Bianchi identities of theta1 and of
# lambda and the quadratic system as components of the deformed bracket's
# Jacobi identity
_THEOREM_CHECKS = ("a0_invariance", "alternating", "bianchi_theta1",
                   "lambda_bianchi", "quadratic_jacobi",
                   "second_defining_relation", "theta_membership")


@dataclass
class IntegrabilityReport:
    passed: bool
    dirac_kernel_annihilated: bool
    spinor_identity_holds: bool
    witness: Optional[dict] = None
    # an integrable datum's deformed bracket and its graded Jacobi
    # certificate, read by build_filtered_deformation; not in the report
    tensor: Optional[GradedBracketTensor] = field(default=None, repr=False)
    jacobi: Optional[Certificate] = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {"integrable": self.passed,
                "dirac_kernel_annihilated": self.dirac_kernel_annihilated,
                "spinor_identity_holds": self.spinor_identity_holds,
                "witness": self.witness,
                "theorem_checks": dict.fromkeys(
                    _THEOREM_CHECKS if self.passed else (), True)}


def check_integrability(datum: AdmissibleDatum) -> IntegrabilityReport:
    """Integrability = the theta maps annihilate the Dirac kernel and the
    induced maps satisfy the residual spinor identity; the report is computed
    once per datum and kept on it.

    Each identity those two conditions imply is checked once: theta
    alternating and the second defining relation on the theta stage, the
    membership of theta in a0 by the coordinates the bracket is built from
    (a failure of these raises OracleMismatch), and the quadratic system,
    the a0-invariance of theta and the Bianchi identities of theta1 and
    lambda as components of the Jacobi identity of the deformed bracket,
    checked on its tensor (a failure there raises JacobiViolation).
    """
    if datum._integrability is None:
        datum._integrability = _check_integrability(datum)
    return datum._integrability


def _check_integrability(datum: AdmissibleDatum) -> IntegrabilityReport:
    theta = compute_theta(datum)
    if not theta.dirac_kernel_annihilated:
        return IntegrabilityReport(False, False, False,
                                   witness={"reason": "Dirac kernel not "
                                            "annihilated"})
    sub = datum.subalgebra
    model = datum.model
    n, ns = model.dim_v, model.dim_s
    # the residual spinor identity: at column (b n + c) nsp + k, theta(v_b,
    # v_c).s_k on the left, and on the right beta-hat(v_b, beta-hat(v_c,
    # s_k)) + (lambda(v_b).hat)_beta(v_c, s_k) minus the same with b, c
    # exchanged
    beta, _ = datum.hat_blocks()
    acted, _ = datum.acted_hats()
    E = sub.Sp.basis.transpose()
    eye = ExactMatrix.identity(n)
    on_sp = kron(eye, E)
    lhs = model.bracket_matrix("a0", "S", "S") @ kron(theta.matrix(),
                                                       E)
    # column b (n ns) + a ns + i: lambda(v_b).hat at (e_a, e_i)
    acted = acted.select_columns([j * n + b for b in range(n)
                                  for j in range(n * ns)])
    twice = beta @ kron(eye, beta @ on_sp) + acted @ kron(eye, on_sp)
    nsp = sub.Sp.dim
    pairs = [(b, c) for b in range(n) for c in range(b + 1, n)]
    bc = [(b * n + c) * nsp + k for b, c in pairs for k in range(nsp)]
    cb = [(c * n + b) * nsp + k for b, c in pairs for k in range(nsp)]
    bad = first_nonzero_column(lhs.select_columns(bc) - (
        twice.select_columns(bc) - twice.select_columns(cb)))
    if bad is not None:
        return IntegrabilityReport(
            False, True, False,
            witness={"pair": pairs[bad // nsp], "spinor": bad % nsp})
    for name, holds in (("theta alternating", theta.alternating_verified),
                        ("second defining relation",
                         theta.second_relation_consistent)):
        if not holds:
            raise OracleMismatch(f"implied integrability identity {name!r} "
                                 "fails; implementation bug")
    # theta in h / r' coordinates, then the Jacobi identity of the deformed
    # bracket: the quadratic system, a0-invariance and both Bianchi identities
    tensor = _deformed_bracket(datum, _theta_in_a0(datum, theta))
    jacobi = graded_jacobi_check(tensor)
    if not jacobi.passed:
        raise JacobiViolation(jacobi.detail, triple=jacobi.witness)
    return IntegrabilityReport(True, True, True, tensor=tensor, jacobi=jacobi)


def _alpha(datum: AdmissibleDatum) -> ExactMatrix:
    """The alpha block of mu as one matrix: column b n + c holds
    alpha(v_b, v_c), V' = V being highly supersymmetric."""
    cx = datum.sub_complex
    return cx.layouts[2].values("alpha", datum.mu_minus.row()) @ \
        pair_embedding(cx.w2v).transpose()


def _theta_in_a0(datum: AdmissibleDatum, theta: ThetaData) -> ExactMatrix:
    """theta (un-tilded) in h then r' coordinates, column b n + c: theta -
    lambda(alpha) + [lambda, lambda] lies in h + r', a theorem whose
    failure raises OracleMismatch."""
    sub = datum.subalgebra
    model = datum.model
    lam = datum.lam_matrix()
    coords = _coordinates_in((sub.h, sub.rp),
                             theta.matrix() - lam @ _alpha(datum)
                             + model.bracket_matrix("a0", "a0", "a0")
                             @ kron(lam, lam))
    if coords is None:
        raise OracleMismatch("theta fails the a0-membership theorem")
    return coords


# ---------------------------------------------------------------------------
# the filtered deformation
# ---------------------------------------------------------------------------


@dataclass
class FilteredDeformation:
    """Deformed bracket on V + S' + (h + r') with verification certificates.

    Basis order: V (filtration level -2), S' (-1), h, r' (0); spinors odd.
    """
    subalgebra: GradedSubalgebra
    datum: AdmissibleDatum
    theta: ThetaData
    tensor: GradedBracketTensor
    filtration_levels: tuple
    certificates: dict

    @property
    def dims(self) -> tuple:
        return self.tensor.component_dims

    def to_json(self) -> dict:
        return {
            "dims": {"V": self.dims[0], "S'": self.dims[1],
                     "h": self.dims[2], "r'": self.dims[3]},
            "certificates": {k: c.to_json()
                             for k, c in sorted(self.certificates.items())},
        }



def _deformed_bracket(datum: AdmissibleDatum,
                      theta_a0: ExactMatrix) -> GradedBracketTensor:
    """The deformed bracket on V + S' + (h + r'), placed as blocks: the
    structure constants of h and of r' ([h, r'] = 0), the a0 basis X acting
    on V by A_V (X (x) I) and on S' in its coordinates, delta, [S', S'] =
    kappa plus the odd brackets' h + r' part, [V, S'] the odd brackets, and
    [V, V] = alpha + theta in h + r' coordinates."""
    sub = datum.subalgebra
    model = datum.model
    n, nsp = model.dim_v, sub.Sp.dim
    dh, dr = sub.h.dim, sub.rp.dim
    total = n + nsp + dh + dr
    V, S = range(n), range(n, n + nsp)
    h, rp = range(n + nsp, n + nsp + dh), range(n + nsp + dh, total)
    a0 = range(n + nsp, total)
    # column k n + b: X_k e_b, and column k nsp + i: the S' coordinates of
    # X_k s_i, X_k over the h-basis then the r'-basis
    X = sub.a0_basis()
    on_s = coordinate_matrix(sub.Sp, model.bracket_matrix("a0", "S", "S")
                             @ kron(X, sub.Sp.basis.transpose()))
    if on_s is None:
        raise OracleMismatch("bracket value leaves S'")
    vs, ss = datum.odd_brackets()
    # a value on the sym2 pairs of S' read on the ordered pairs: column
    # i nsp + j is the unit vector of the pair (i, j) in either order
    index = tensor_index_maps(nsp, "sym2").index
    ordered = ExactMatrix(sub.kappa_sp.cols, nsp * nsp, [
        (index(i, j), i * nsp + j, 1) for i in range(nsp)
        for j in range(nsp)])
    blocks = [
        (h, h, h, sub.h_brackets.transpose()),
        (rp, rp, rp, sub.rp_brackets.transpose()),
        (a0, V, V, model.bracket_matrix("a0", "V", "V")
         @ kron(X, ExactMatrix.identity(n))),
        (a0, V, a0, solve_delta(datum).matrix),
        (a0, S, S, on_s),
        (S, S, V, sub.kappa_sp @ ordered),
        (S, S, a0, ss @ ordered),
        (V, S, S, vs),
        (V, V, V, _alpha(datum)),
        (V, V, a0, theta_a0)]
    return GradedBracketTensor(
        component_dims=(n, nsp, dh, dr),
        parities=tuple([0] * n + [1] * nsp + [0] * (dh + dr)),
        degrees=None, matrix=bracket_from_blocks(total, blocks))


def build_filtered_deformation(datum: AdmissibleDatum) -> FilteredDeformation:
    """The deformed bracket of an integrable datum with its Jacobi
    certificate from check_integrability, and the associated-graded
    reconstruction verified exactly.

    The levels lie in {-2, -1, 0}, so a component that breaks a filtration
    containment [F^i, F^j] inside F^{i+j} has a level shift below 0, which
    the associated-graded certificate rejects as outside the defining
    sequence: the filtration certificate holds once that one passes."""
    integrability = check_integrability(datum)
    if not integrability.passed:
        raise OracleMismatch("build_filtered_deformation requires an "
                             "integrable datum")
    tensor = integrability.tensor
    n, nsp, dh, dr = tensor.component_dims
    levels = tuple([-2] * n + [-1] * nsp + [0] * (dh + dr))
    cert = _check_assoc_graded(datum, tensor, levels)
    if not cert.passed:
        raise FiltrationViolation(cert.detail)
    certificates = {
        "jacobi": integrability.jacobi, "assoc_graded": cert,
        "filtration": Certificate(
            True, "[F^i, F^j] inside F^{i+j} for all levels")}
    return FilteredDeformation(subalgebra=datum.subalgebra, datum=datum,
                               theta=compute_theta(datum), tensor=tensor,
                               filtration_levels=levels,
                               certificates=certificates)


def _check_assoc_graded(datum: AdmissibleDatum,
                        tensor: GradedBracketTensor,
                        levels: tuple) -> Certificate:
    """The level-preserving part of the bracket equals the graded bracket of
    the subalgebra, and every deformation term has level shift +2 or +4.

    Checked on the pairs i <= j: the tensor's super-antisymmetry is certified
    by its Jacobi check and the flat model's bracket is super-antisymmetric,
    so a pair (j, i) fails exactly when (i, j) does, with the same targets,
    and the first failing pair in row-major order has i <= j."""
    model = datum.model
    sub = datum.subalgebra
    # the graded brackets: the flat model's bracket of the embedded basis
    # vectors of V, S', h and r', in their coordinates
    spaces = (sub.Vp, sub.Sp, sub.h, sub.rp)
    emb = block_diag([space.basis.transpose() for space in spaces])
    expected = _coordinates_in(spaces, model.tensor.matrix @ kron(emb, emb))
    if expected is None:
        raise OracleMismatch("graded bracket leaves the subalgebra")
    total = tensor.total_dim
    pairs = [(i, j) for i in range(total) for j in range(i, total)]
    picked = [i * total + j for i, j in pairs]
    got = tensor.matrix.select_columns(picked)
    expected = expected.select_columns(picked)
    # what must vanish at level shift 0, at 2 or 4, and elsewhere
    outside = ("bracket component outside the defining sequence "
               "(mu, theta, 0, ...)")
    rules = (("associated graded differs from the subalgebra",
              got - expected, lambda d: d == 0),
             ("graded bracket has a shifted component", expected,
              lambda d: d in (2, 4)),
             (outside, got, lambda d: d not in (0, 2, 4)),
             (outside, expected, lambda d: d not in (0, 2, 4)))
    failures = []
    for level in sorted(set(levels)):
        targets = [k for k in range(total) if levels[k] == level]
        shifts = [level - levels[i] - levels[j] for i, j in pairs]
        for detail, values, applies in rules:
            cols = [c for c, d in enumerate(shifts) if applies(d)]
            block = values.select_rows(targets).select_columns(cols)
            c = first_nonzero_column(block)
            if c is not None:
                col = column_tuples(block.select_columns([c]))[0]
                k = next(t for t, x in zip(targets, col) if x)
                failures.append((cols[c], k, detail))
    if failures:
        c, k, detail = min(failures)
        return Certificate(False, detail,
                           witness={"pair": pairs[c], "target": k})
    return Certificate(True, "associated graded equals the subalgebra; "
                       "defining sequence is (mu, theta, 0, ...)")


# ---------------------------------------------------------------------------
# gauge freedom and geometric realisability
# ---------------------------------------------------------------------------


def class_gauge_generators(datum: AdmissibleDatum
                           ) -> Tuple[ExactMatrix, ExactMatrix]:
    """Generators (k, lambda_k) of the full gauge freedom of the normalised
    cocycle within a fixed admissible class, as two matrices with one
    generator per row: k runs over a basis of the invariant part of
    ker(i^*), and lambda_k is the unique coboundary witness with
    d(lambda_k) = i^*(k), so (hat, lam) -> (hat + k, lam - lambda_k).

    For k in the componentwise restriction kernel, i^*(k) = 0 and lambda_k
    vanishes; the extra generators (when the two kernels differ) carry a
    nonzero lambda_k."""
    sub = datum.subalgebra
    fullco = datum.fullco
    report = restriction_kernel_report(sub, fullco)
    inv = fullco.invariant_normalised(*sub.generator_coords())
    gauge = report.via_istar.intersect(inv)
    lams, failed = AffineSolver(datum.mixed_complex.differentials[1]
                                ).solve_matrix(restrict(
                                    fullco.complex, datum.mixed_complex,
                                    gauge.basis.transpose()))
    if failed:
        raise OracleMismatch("gauge generator restriction is not a "
                             "coboundary")
    return gauge.basis, lams.transpose()


def _gauge_shift(datum: AdmissibleDatum,
                 generators: Tuple[ExactMatrix, ExactMatrix],
                 coeffs: Sequence[Fraction], nu: Sequence[Fraction],
                 inc: Optional[ExactMatrix]) -> AdmissibleDatum:
    """The datum moved by k = sum_g coeffs_g k_g along the class gauge
    generators (the rows k_g and lambda_g of class_gauge_generators) and by
    nu in C^{2,1}(a_-; a), each a product of the row coeffs or nu:

        (mu, hat, lambda) -> (mu + d(nu), hat + k, lambda - lambda_k + i_*(nu))

    with lambda_k = sum_g coeffs_g lambda_g and `inc` the inclusion i_* on
    C^{2,1}, or None for the identity, on a maximal subalgebra.  The image
    keeps i_*(mu) = i^*(hat) + d(lambda).  The zero shift is the datum
    itself, with everything already derived on it."""
    if vec_is_zero(coeffs) and vec_is_zero(nu):
        return datum
    cxs = datum.sub_complex
    K, lams = generators
    c = ExactMatrix.from_rows([coeffs], cols=K.rows)
    nu_row = ExactMatrix.from_rows([nu], cols=cxs.layouts[1].dim)
    mu = datum.mu_minus.row() + nu_row @ cxs.differentials[1].transpose()
    hat = datum.hat.cochain.row() + c @ K
    lam = (ExactMatrix.from_rows([datum.lam]) - c @ lams
           + (nu_row if inc is None else nu_row @ inc.transpose()))
    return AdmissibleDatum(
        subalgebra=datum.subalgebra, fullco=datum.fullco, sub_complex=cxs,
        mixed_complex=datum.mixed_complex,
        mu_minus=Cochain22(cxs, mu.row_tuple(0)),
        hat=NormalisedCocycle(Cochain22(datum.fullco.complex,
                                        hat.row_tuple(0))),
        lam=lam.row_tuple(0), r_prime_replaced=datum.r_prime_replaced)


@dataclass
class RealisabilityReport:
    realisable: bool
    theta2_zero: bool
    lambda2_eliminable: bool
    witness: Optional[AdmissibleDatum] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"realisable": self.realisable,
                "theta_tilde_2_zero": self.theta2_zero,
                "lambda2_eliminable": self.lambda2_eliminable,
                "detail": self.detail}


def check_geometric_realisability(datum: AdmissibleDatum
                                  ) -> RealisabilityReport:
    """Search the gauge freedom for a representative with lambda2 = 0 and
    theta2 = 0; theta2 is gauge-invariant, so it must vanish outright, and
    lambda2 must be eliminable by the class gauge shifts together with a
    shift valued in r'.  A datum already in that gauge is its own
    witness."""
    theta = compute_theta(datum)
    if theta.theta2 is None:
        return RealisabilityReport(False, False, False,
                                   detail="theta does not factor through "
                                   "kappa")
    theta2_zero = theta.theta2_zero
    generators = class_gauge_generators(datum)
    G = generators[0].rows
    lay_sub = datum.sub_complex.layouts[1]
    # the lambda_r block of lambda - sum_g s_g lambda_g + i_*(nu) vanishes,
    # for unknowns (s_g, then nu in the lambda_r block of C^{2,1}(a_-; a));
    # on a maximal subalgebra i_* is the identity, and nu is used as it is
    nu_block = lay_sub.indices("lambda_r")
    r_rows = datum.mixed_complex.layouts[1].indices("lambda_r")
    if datum.subalgebra.maximal():
        inc = None
        on_nu = ExactMatrix.identity(len(r_rows))
    else:
        inc = inclusion_matrix(datum.sub_complex, datum.mixed_complex, 1)
        on_nu = inc.select_columns(nu_block).select_rows(r_rows)
    system = hstack([generators[1].transpose().scale(-1).select_rows(r_rows),
                     on_nu])
    sol = solve_affine(system, [-datum.lam[i] for i in r_rows])
    lambda2_ok = not isinstance(sol, NoSolution)
    if not (theta2_zero and lambda2_ok):
        detail = []
        if not theta2_zero:
            detail.append("theta2 is nonzero and gauge-invariant")
        if not lambda2_ok:
            detail.append("lambda2 cannot be eliminated by any gauge shift")
        return RealisabilityReport(False, theta2_zero, lambda2_ok,
                                   detail="; ".join(detail))
    # build the witness representative
    nu = [Fraction(0)] * lay_sub.dim
    for i, x in zip(nu_block, sol.x[G:]):
        nu[i] = x
    witness = _gauge_shift(datum, generators, sol.x[:G], nu, inc)
    if not vec_is_zero([witness.lam[i] for i in r_rows]):
        raise OracleMismatch("witness gauge failed to kill lambda2")
    theta_w = compute_theta(witness)
    if theta_w.theta1 != theta.theta1 or theta_w.theta2 != theta.theta2:
        raise OracleMismatch("theta moved under a gauge shift")
    return RealisabilityReport(True, True, True, witness=witness,
                               detail="representative with lambda2 = 0 and "
                               "theta2 = 0")


def deformation_report(datum: AdmissibleDatum,
                       realisability: Optional[RealisabilityReport],
                       deformation: Optional[FilteredDeformation]) -> dict:
    """The consolidated deformation report emitted by the pipeline."""
    sub = datum.subalgebra
    theta = compute_theta(datum)
    out = {
        "admissible": True,
        "integrable": check_integrability(datum).passed,
        "realisable": bool(realisability and realisability.realisable),
        "dims": {"V": datum.model.dim_v, "S'": sub.Sp.dim,
                 "h": sub.h.dim, "r'": sub.rp.dim,
                 "dirac_kernel": theta.dirac_kernel_dim},
        "theta_tilde_2_zero": theta.theta2_zero
        if theta.theta1 is not None else False,
        "certificates": {},
        "witness": {},
    }
    if deformation is not None:
        out["certificates"] = {k: c.to_json() for k, c in
                               sorted(deformation.certificates.items())}
    if realisability is not None and realisability.witness is not None:
        out["witness"] = {
            "lambda": [rat_str(c) for c in realisability.witness.lam],
            "hat": [rat_str(c) for c in realisability.witness.hat.coeffs],
        }
    return out


# ---------------------------------------------------------------------------
# instance construction helpers
# ---------------------------------------------------------------------------


def zero_cocycle(sub: GradedSubalgebra) -> tuple:
    return (Fraction(0),) * spencer_complex(sub, 2).layouts[2].dim


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeCandidate:
    dim: int
    is_subalgebra: bool
    preserves_spinors: bool
    preserves_cocycle: bool
    splits: bool

    def to_json(self) -> dict:
        return {"dim": self.dim, "is_subalgebra": self.is_subalgebra,
                "preserves_spinors": self.preserves_spinors,
                "preserves_cocycle": self.preserves_cocycle,
                "splits_as_h_plus_r": self.splits}


@dataclass
class EnvelopeReport:
    dirac_kernel_dim: int
    joint: EnvelopeCandidate      # (gamma + rho)(D)
    direct_sum: EnvelopeCandidate  # gamma(D) + rho(D)

    def to_json(self) -> dict:
        return {"dirac_kernel_dim": self.dirac_kernel_dim,
                "joint_image": self.joint.to_json(),
                "direct_sum": self.direct_sum.to_json()}


def compute_envelope(fullco: FullModelCohomology, sub: GradedSubalgebra,
                     hat: NormalisedCocycle) -> EnvelopeReport:
    """Both candidate envelopes generated by the cocycle's values on the
    Dirac kernel of the subalgebra's S', with their Lie-pair properties; no
    claim is made about which notion is the correct one."""
    model = fullco.model
    Sp = sub.Sp
    if 2 * Sp.dim <= model.dim_s:
        raise NotHighlySusy("envelopes require dim S' > (dim S)/2")
    dirac_kernel = sub.kappa_sp.kernel()
    nso = model.dim_so
    _, gamma_rho = _cochain_blocks(fullco.complex, hat.cochain.row())
    # column k: (gamma-hat, rho-hat) on the k-th Dirac kernel basis vector
    values = gamma_rho @ _spinor_squares(sub) @ \
        dirac_kernel.basis.transpose()
    joint = values.transpose().row_space()
    direct = block_diag([
        values.select_rows(range(nso)).transpose(),
        values.select_rows(range(nso, values.rows)).transpose()]).row_space()
    return EnvelopeReport(
        dirac_kernel_dim=dirac_kernel.dim,
        joint=_envelope_candidate(fullco, Sp, hat, joint),
        direct_sum=_envelope_candidate(fullco, Sp, hat, direct))


def _envelope_candidate(fullco: FullModelCohomology, Sp: Subspace,
                        hat: NormalisedCocycle,
                        env: Subspace) -> EnvelopeCandidate:
    """The Lie-pair properties of env inside so(V) + r, each from one
    product over its basis: closure under the bracket, S' preserved, hat
    annihilated."""
    model = fullco.model
    nso = model.dim_so
    X = env.basis.transpose()
    is_subalg = coordinate_matrix(
        env, model.bracket_matrix("a0", "a0", "a0") @ kron(X, X)) is not None
    preserves_sp = coordinate_matrix(
        Sp, model.bracket_matrix("a0", "S", "S")
        @ kron(X, Sp.basis.transpose())) is not None
    preserves_cocycle = fullco.act(X, hat.cochain.row()).is_zero()
    so_part = env.intersect(Subspace(
        nso + model.dim_r,
        hstack([ExactMatrix.identity(nso),
                ExactMatrix.zeros(nso, model.dim_r)]).rref()))
    r_part = env.intersect(Subspace(
        nso + model.dim_r,
        hstack([ExactMatrix.zeros(model.dim_r, nso),
                ExactMatrix.identity(model.dim_r)]).rref()))
    splits = so_part.dim + r_part.dim == env.dim
    return EnvelopeCandidate(dim=env.dim, is_subalgebra=is_subalg,
                             preserves_spinors=preserves_sp,
                             preserves_cocycle=preserves_cocycle,
                             splits=splits)
