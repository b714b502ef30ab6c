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
from typing import List, Optional, Sequence, Tuple

from .certs import Certificate
from .errors import (FiltrationViolation, JacobiViolation,
                     NotHighlySusy, NotSymmetric, OracleMismatch)
from .exactla import (AffineSolver, ExactMatrix, NoSolution, Subspace,
                      basis_vec, hstack, lincomb, rat_str, solve_affine,
                      tensor_index_maps, vec_add, vec_is_zero, vec_scale,
                      vec_sub, zero_vec)
from .flatmodel import (EndoSubalgebra, ExtendedFlatModel, GradedBracketTensor,
                        GradedSubalgebra, faithful_split, graded_jacobi_check,
                        make_graded_subalgebra)
from .spencer import (CochainAction, Cochain22, FullModelCohomology,
                      NormalisedCocycle, SpencerComplex, inclusion_matrix,
                      restriction_kernel_report, restriction_matrix,
                      spencer_complex, subalgebra_actions)


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
    # derived once per datum by lam_matrices, acted_hats, odd_brackets,
    # solve_delta, compute_theta and check_integrability
    _lam: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)
    _acted: Optional[list] = field(default=None, init=False, repr=False,
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

    def lam1_coords(self, b: int) -> tuple:
        lay = self.mixed_complex.layouts[1]
        off = lay.index("lambda_so", b, 0)
        return tuple(self.lam[off:off + self.model.dim_so])

    def lam2_coords(self, b: int) -> tuple:
        lay = self.mixed_complex.layouts[1]
        if self.model.dim_r == 0:
            return ()
        off = lay.index("lambda_r", b, 0)
        return tuple(self.lam[off:off + self.model.dim_r])

    def lam_matrices(self, b: int) -> tuple:
        """(lambda1(e_b) on V, lambda1(e_b) on S, lambda2(e_b) on S), built
        once per direction and kept on the datum."""
        if self._lam is None:
            model = self.model
            self._lam = tuple(
                (model.so_matrix(self.lam1_coords(c)),
                 model.spin_matrix(self.lam1_coords(c)),
                 model.r_matrix(self.lam2_coords(c)))
                for c in range(model.dim_v))
        return self._lam[b]

    def lam1_matrix(self, b: int) -> ExactMatrix:
        """lambda1(e_b) acting on V."""
        return self.lam_matrices(b)[0]

    def lam2_matrix(self, b: int) -> ExactMatrix:
        """lambda2(e_b) acting on S."""
        return self.lam_matrices(b)[2]

    def lam1_vec(self, vcoords: Sequence[Fraction]) -> tuple:
        return lincomb(((c, self.lam1_coords(b))
                        for b, c in enumerate(vcoords) if c),
                       self.model.dim_so)

    def lam2_vec(self, vcoords: Sequence[Fraction]) -> tuple:
        return lincomb(((c, self.lam2_coords(b))
                        for b, c in enumerate(vcoords) if c),
                       self.model.dim_r)

    def acted_hats(self) -> list:
        """lambda(v_b) . hat as cochains of the full complex, per direction."""
        if self._acted is None:
            cx = self.fullco.complex
            self._acted = [
                Cochain22(cx, CochainAction.from_matrices(
                    cx, *self.lam_matrices(b)).apply(self.hat.coeffs))
                for b in range(self.model.dim_v)
            ]
        return self._acted

    def odd_brackets(self) -> tuple:
        """The deformed brackets with a spinor argument, as (vs, ss).

        vs[b][i] holds the S' coordinates of [v_b, s_i] = beta-hat(v_b, s_i)
        + lambda1(v_b).s_i + lambda2(v_b) s_i.  ss lists (i, j, kappa, h, r')
        for i <= j, where h and r' are the coordinates of gamma-hat(s_i, s_j)
        - lambda1(kappa) and rho-hat(s_i, s_j) - lambda2(kappa).  The
        defining relation of the datum implies every membership, so a value
        outside the subalgebra raises OracleMismatch.
        """
        if self._odd is None:
            sub, model = self.subalgebra, self.model
            hat = self.hat.cochain
            svecs = sub.Sp.basis_vectors()
            n = model.dim_v
            vs = []
            for b in range(n):
                vb = basis_vec(n, b)
                _, l1m, l2m = self.lam_matrices(b)
                row = []
                for s in svecs:
                    c = sub.Sp.coordinates(vec_add(
                        hat.beta_vec(vb, s), vec_add(l1m.apply(s),
                                                     l2m.apply(s))))
                    if c is None:
                        raise OracleMismatch("beta-hat correction leaves S'")
                    row.append(c)
                vs.append(row)
            ss = []
            kappas = sub.kappa_sp.transpose()
            pairs = tensor_index_maps(len(svecs), "sym2")
            for p, (i, j) in enumerate(pairs.tuples):
                kv = kappas.row_tuple(p)
                gh = sub.h.coordinates(vec_sub(
                    hat.gamma_vec(svecs[i], svecs[j]), self.lam1_vec(kv)))
                if gh is None:
                    raise OracleMismatch("gamma-hat correction leaves h")
                rr = sub.rp.coordinates(vec_sub(
                    hat.rho_vec(svecs[i], svecs[j]), self.lam2_vec(kv)))
                if rr is None:
                    raise OracleMismatch("rho-hat correction leaves r'")
                ss.append((i, j, kv, gh, rr))
            self._odd = (vs, ss)
        return self._odd


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
    coords = []
    for m in rpp.matrices:
        c = model.r.coordinates(m)
        if c is None:
            raise OracleMismatch("faithful split left the R-symmetry algebra")
        coords.append(c)
    new_rp = Subspace.from_vectors(model.dim_r, coords)
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
    # complex, with i_* and i^* the identity, on a maximal subalgebra)
    sub_cx = spencer_complex(sub, 2)
    mixed_cx = spencer_complex(sub, 2, values="full")
    mu = Cochain22(sub_cx, mu_coeffs)
    if not mu.is_cocycle():
        raise OracleMismatch("admissibility input is not a Spencer cocycle")
    inv = fullco.invariant_normalised(*sub.generator_coords())
    target = inclusion_matrix(sub_cx, mixed_cx).apply(mu.coeffs)
    columns = []
    if inv.dim:
        columns.append(restriction_matrix(fullco.complex, mixed_cx)
                       @ inv.basis.transpose())
    columns.append(mixed_cx.differentials[1])
    system = hstack(columns) if len(columns) > 1 else columns[0]
    sol = solve_affine(system, target)
    if isinstance(sol, NoSolution):
        return NotAdmissible(combination=sol.combination, rhs=sol.rhs)
    hat_coeffs = lincomb(zip(sol.x[:inv.dim], inv.basis_vectors()),
                         fullco.complex.layouts[2].dim)
    lam = tuple(sol.x[inv.dim:])
    datum = AdmissibleDatum(
        subalgebra=sub, fullco=fullco, sub_complex=sub_cx,
        mixed_complex=mixed_cx, mu_minus=mu,
        hat=NormalisedCocycle(Cochain22(fullco.complex, hat_coeffs)),
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
    """Degree-2 deformation map on a0 x V: values in h/r' coordinates.  The
    h part of [r', V] is zero; _certify_delta proves it."""
    delta1: list   # [h index][v index] -> h coords
    delta2: list   # [h index][v index] -> r' coords
    delta4: list   # [r' index][v index] -> r' coords


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
    delta1, delta2, delta4 = [], [], []
    for A_v in sub.h_so:
        row1, row2 = [], []
        for b in range(n):
            av = A_v.apply(basis_vec(n, b))
            val1 = vec_sub(
                model.gens.so_coordinates(A_v.commutator(datum.lam1_matrix(b))),
                datum.lam1_vec(av))
            c1 = sub.h.coordinates(val1)
            c2 = sub.rp.coordinates(vec_scale(datum.lam2_vec(av), -1))
            if c1 is None or c2 is None:
                raise OracleMismatch("closed-form delta leaves a0")
            row1.append(c1)
            row2.append(c2)
        delta1.append(row1)
        delta2.append(row2)
    for a_m in sub.rp_mats:
        row4 = []
        for b in range(n):
            comm = a_m.commutator(datum.lam2_matrix(b))
            cc = model.r.coordinates(comm)
            c4 = sub.rp.coordinates(cc) if cc is not None else None
            if c4 is None:
                raise OracleMismatch("closed-form delta4 leaves r'")
            row4.append(c4)
        delta4.append(row4)
    delta = DeltaMap(delta1=delta1, delta2=delta2, delta4=delta4)
    _certify_delta(datum, _delta_cochains(datum, delta))
    return delta


def _delta_cochains(datum: AdmissibleDatum, delta: DeltaMap) -> ExactMatrix:
    """chi_X in C^{2,1} of the subalgebra's complex, one column per h-basis
    then r'-basis element X: delta1 and delta2 for h; delta4 for r', whose h
    block (delta3) is zero."""
    lay1 = datum.sub_complex.layouts[1]
    columns = ([(("lambda_so", r1), ("lambda_r", r2))
                for r1, r2 in zip(delta.delta1, delta.delta2)] +
               [(("lambda_r", r4),) for r4 in delta.delta4])
    return ExactMatrix(lay1.dim, len(columns), [
        (lay1.index(name, b, t), k, x)
        for k, blocks in enumerate(columns) for name, rows in blocks
        for b, vals in enumerate(rows) for t, x in enumerate(vals) if x])


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
    mu = datum.mu_minus.coeffs
    mu_col = ExactMatrix.from_columns([mu], len(mu))
    got = d21 @ chi
    want = hstack([op.apply_many(mu_col) for op in ops])
    if got != want:
        diff = (got - want).transpose()
        k = next(k for k in range(diff.rows)
                 if not vec_is_zero(diff.row_tuple(k)))
        h_dim = datum.subalgebra.h.dim
        X = f"h[{k}]" if k < h_dim else f"r'[{k - h_dim}]"
        raise OracleMismatch(f"closed-form delta fails d(chi_X) = X.mu at "
                             f"X = {X}")


# ---------------------------------------------------------------------------
# the theta maps
# ---------------------------------------------------------------------------


@dataclass
class ThetaData:
    """Quartic deformation data: the spinor-argument maps and, when they
    annihilate the Dirac kernel, the induced alternating maps on V x V."""
    theta1_spinor: list     # [v index][S'-pair index] -> so coords
    theta2_spinor: list     # [v index][S'-pair index] -> r coords
    dirac_kernel_annihilated: bool
    dirac_kernel_dim: int
    theta1: Optional[list]  # [b][c] -> so coords, alternating
    theta2: Optional[list]  # [b][c] -> r coords, alternating
    alternating_verified: bool = False
    second_relation_consistent: bool = False

    @property
    def theta2_zero(self) -> bool:
        if self.theta2 is None:
            return False
        return all(vec_is_zero(v) for row in self.theta2 for v in row)


def compute_theta(datum: AdmissibleDatum) -> ThetaData:
    """The theta maps of the datum, computed once and kept on it."""
    if datum._theta is None:
        datum._theta = _compute_theta(datum)
    return datum._theta


def _compute_theta(datum: AdmissibleDatum) -> ThetaData:
    """Assemble the spinor-argument theta maps, decide whether they kill the
    Dirac kernel, and if so solve for the alternating maps on V x V."""
    sub = datum.subalgebra
    model = datum.model
    hat = datum.hat.cochain
    acted = datum.acted_hats()
    svecs = sub.Sp.basis_vectors()
    nsp = len(svecs)
    pairs = tensor_index_maps(nsp, "sym2")
    n = model.dim_v
    th1, th2 = [], []
    for b in range(n):
        vb = basis_vec(n, b)
        row1, row2 = [], []
        for (i, j) in pairs.tuples:
            bvi = hat.beta_vec(vb, svecs[i])
            bvj = hat.beta_vec(vb, svecs[j])
            t1 = vec_add(hat.gamma_vec(svecs[i], bvj),
                         hat.gamma_vec(svecs[j], bvi))
            t1 = vec_sub(t1, acted[b].gamma_vec(svecs[i], svecs[j]))
            row1.append(t1)
            t2 = vec_add(hat.rho_vec(svecs[i], bvj),
                         hat.rho_vec(svecs[j], bvi))
            t2 = vec_sub(t2, acted[b].rho_vec(svecs[i], svecs[j]))
            row2.append(t2)
        th1.append(row1)
        th2.append(row2)
    kappa_sp = sub.kappa_sp
    dirac_kernel = kappa_sp.kernel()
    annihilated = True
    for k in range(dirac_kernel.dim):
        d = dirac_kernel.basis.row_tuple(k)
        for b in range(n):
            v1 = lincomb(zip(d, th1[b]), model.dim_so)
            v2 = lincomb(zip(d, th2[b]), model.dim_r)
            if not (vec_is_zero(v1) and vec_is_zero(v2)):
                annihilated = False
                break
        if not annihilated:
            break
    theta1 = theta2 = None
    alternating = False
    second_rel = False
    if annihilated:
        preimages = AffineSolver(kappa_sp).solve_many(ExactMatrix.identity(n))
        if None in preimages:
            raise OracleMismatch("kappa restricted to Sym^2 S' is not "
                                 "surjective on a highly susy subalgebra")
        theta1 = [[None] * n for _ in range(n)]
        theta2 = [[None] * n for _ in range(n)]
        for b in range(n):
            for c in range(n):
                theta1[b][c] = lincomb(zip(preimages[c], th1[b]),
                                       model.dim_so)
                theta2[b][c] = lincomb(zip(preimages[c], th2[b]),
                                       model.dim_r)
        alternating = all(
            vec_is_zero(vec_add(theta1[b][c], theta1[c][b]))
            and vec_is_zero(vec_add(theta2[b][c], theta2[c][b]))
            for b in range(n) for c in range(b, n))
        second_rel = _second_defining_relation(datum, th1, theta1)
    return ThetaData(theta1_spinor=th1, theta2_spinor=th2,
                     dirac_kernel_annihilated=annihilated,
                     dirac_kernel_dim=dirac_kernel.dim,
                     theta1=theta1, theta2=theta2,
                     alternating_verified=alternating,
                     second_relation_consistent=second_rel)


def _second_defining_relation(datum: AdmissibleDatum, th1_spinor,
                              theta1) -> bool:
    """theta1(v,w) kappa(s,s) = Theta1(v;s,s) w - Theta1(w;s,s) v, the second
    relation that determines theta1 uniquely, over the sym2 S' pairs."""
    model = datum.model
    n = model.dim_v
    kappas = datum.subalgebra.kappa_sp.transpose()
    # column k of on_e[c] is E_k e_c, so on_e[c] maps the so coordinates of
    # Theta1(v_b; s_I, s_J) to Theta1(v_b; s_I, s_J) e_c
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
    hat = datum.hat.cochain
    acted = datum.acted_hats()
    svecs = sub.Sp.basis_vectors()
    n = model.dim_v
    # the residual spinor identity
    for b in range(n):
        for c in range(b + 1, n):
            sp_mat = model.spin_matrix(theta.theta1[b][c])
            r_mat = model.r_matrix(theta.theta2[b][c])
            vb, vc = basis_vec(n, b), basis_vec(n, c)
            for k, s in enumerate(svecs):
                lhs = vec_add(sp_mat.apply(s), r_mat.apply(s))
                rhs = vec_sub(
                    hat.beta_vec(vb, hat.beta_vec(vc, s)),
                    hat.beta_vec(vc, hat.beta_vec(vb, s)))
                rhs = vec_add(rhs, acted[b].beta_vec(vc, s))
                rhs = vec_sub(rhs, acted[c].beta_vec(vb, s))
                if tuple(lhs) != tuple(rhs):
                    return IntegrabilityReport(
                        False, True, False,
                        witness={"pair": (b, c), "spinor": k})
    for name, holds in (("theta alternating", theta.alternating_verified),
                        ("second defining relation",
                         theta.second_relation_consistent)):
        if not holds:
            raise OracleMismatch(f"implied integrability identity {name!r} "
                                 "fails; implementation bug")
    # theta in h / r' coordinates, then the Jacobi identity of the deformed
    # bracket: the quadratic system, a0-invariance and both Bianchi identities
    tensor = _deformed_bracket(datum, *_theta_in_a0(datum, theta))
    jacobi = graded_jacobi_check(tensor)
    if not jacobi.passed:
        raise JacobiViolation(jacobi.detail, triple=jacobi.witness)
    return IntegrabilityReport(True, True, True, tensor=tensor, jacobi=jacobi)


def _theta_in_a0(datum: AdmissibleDatum, theta: ThetaData):
    """theta (un-tilded) in h / r' coordinates; membership is a theorem."""
    sub = datum.subalgebra
    model = datum.model
    n = model.dim_v
    mu = datum.mu_minus
    th1_h = [[None] * n for _ in range(n)]
    th2_rp = [[None] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            alpha_bc = mu.alpha(b, c)
            v1 = vec_sub(theta.theta1[b][c], datum.lam1_vec(alpha_bc))
            v1 = vec_add(v1, model.gens.so_coordinates(
                datum.lam1_matrix(b).commutator(datum.lam1_matrix(c))))
            c1 = sub.h.coordinates(v1)
            v2 = vec_sub(theta.theta2[b][c], datum.lam2_vec(alpha_bc))
            comm = datum.lam2_matrix(b).commutator(datum.lam2_matrix(c))
            rc = model.r.coordinates(comm)
            if rc is None:
                raise OracleMismatch("[lambda2, lambda2] leaves r")
            v2 = vec_add(v2, rc)
            c2 = sub.rp.coordinates(v2)
            if c1 is None or c2 is None:
                raise OracleMismatch("theta fails the a0-membership theorem")
            th1_h[b][c] = c1
            th2_rp[b][c] = c2
    return th1_h, th2_rp


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

    @property
    def total_dim(self) -> int:
        return self.tensor.total_dim

    def to_json(self) -> dict:
        return {
            "dims": {"V": self.dims[0], "S'": self.dims[1],
                     "h": self.dims[2], "r'": self.dims[3]},
            "certificates": {k: c.to_json()
                             for k, c in sorted(self.certificates.items())},
        }



def _deformed_bracket(datum: AdmissibleDatum, th1_h: list,
                      th2_rp: list) -> GradedBracketTensor:
    """The deformed bracket table on V + S' + (h + r'), from the datum's
    delta and odd brackets and theta in h / r' coordinates."""
    sub = datum.subalgebra
    n = datum.model.dim_v
    svecs = sub.Sp.basis_vectors()
    nsp = len(svecs)
    dh, dr = sub.h.dim, sub.rp.dim
    off_s, off_h, off_r = n, n + nsp, n + nsp + dh
    table: dict = {}

    def put(i, j, chunks):
        vecd = {}
        for off, coords in chunks:
            for t, c in enumerate(coords):
                if c:
                    vecd[off + t] = c
        if vecd:
            table[(i, j)] = vecd

    def sp_coords(vecval):
        c = sub.Sp.coordinates(vecval)
        if c is None:
            raise OracleMismatch("bracket value leaves S'")
        return c

    h_so, h_spin, rp_mats = sub.h_so, sub.h_spin, sub.rp_mats
    # [h, h], [h, r'] = 0, [r', r']
    for k in range(dh):
        for l in range(dh):
            put(off_h + k, off_h + l, [(off_h, sub.h_brackets[k][l])])
    for p in range(dr):
        for q in range(dr):
            put(off_r + p, off_r + q, [(off_r, sub.rp_brackets[p][q])])
    # [h, V] = Av + delta1 + delta2 ;  [r', V] = delta4
    delta = solve_delta(datum)
    for k in range(dh):
        for b in range(n):
            av = h_so[k].apply(basis_vec(n, b))
            chunks = [(0, av), (off_h, delta.delta1[k][b]),
                      (off_r, delta.delta2[k][b])]
            put(off_h + k, b, chunks)
            put(b, off_h + k, [(o, vec_scale(c, -1)) for o, c in chunks])
    for p in range(dr):
        for b in range(n):
            chunks = [(off_r, delta.delta4[p][b])]
            put(off_r + p, b, chunks)
            put(b, off_r + p, [(o, vec_scale(c, -1)) for o, c in chunks])
    # [h, S'], [r', S']
    for k in range(dh):
        for i in range(nsp):
            val = sp_coords(h_spin[k].apply(svecs[i]))
            put(off_h + k, off_s + i, [(off_s, val)])
            put(off_s + i, off_h + k, [(off_s, vec_scale(val, -1))])
    for p in range(dr):
        for i in range(nsp):
            val = sp_coords(rp_mats[p].apply(svecs[i]))
            put(off_r + p, off_s + i, [(off_s, val)])
            put(off_s + i, off_r + p, [(off_s, vec_scale(val, -1))])
    # [S', S'] = kappa + (gamma-hat - lambda1 kappa) + (rho-hat - lambda2 kappa)
    # and [V, S'] = beta-hat + lambda1 . s + lambda2 s
    vs, ss = datum.odd_brackets()
    for i, j, kv, gh, rr in ss:
        chunks = [(0, kv), (off_h, gh), (off_r, rr)]
        put(off_s + i, off_s + j, chunks)
        put(off_s + j, off_s + i, chunks)
    for b in range(n):
        for i, coords in enumerate(vs[b]):
            put(b, off_s + i, [(off_s, coords)])
            put(off_s + i, b, [(off_s, vec_scale(coords, -1))])
    # [V, V] = alpha + theta-corrections
    mu = datum.mu_minus
    for b in range(n):
        for c in range(n):
            if b == c:
                continue
            chunks = [(0, mu.alpha(b, c)), (off_h, th1_h[b][c]),
                      (off_r, th2_rp[b][c])]
            put(b, c, chunks)
    parities = tuple([0] * n + [1] * nsp + [0] * (dh + dr))
    return GradedBracketTensor(
        component_names=("V", "S'", "h", "r'"),
        component_dims=(n, nsp, dh, dr),
        parities=parities, degrees=None, table=table)


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
    sub = datum.subalgebra
    model = datum.model
    # per component V, S', h, r': (offset in the tensor, offset in the flat
    # model, the subspace of the flat component it spans)
    parts = tuple(zip(tensor.offsets(),
                      (model.off_v, model.off_s, model.off_so, model.off_r),
                      (Subspace.full(model.dim_v), sub.Sp, sub.h, sub.rp)))
    embedded = [{flat_off + t: c for t, c in enumerate(x) if c}
                for _, flat_off, space in parts
                for x in space.basis_vectors()]

    def graded_value(i, j) -> dict:
        # the flat-model bracket of the corresponding graded elements
        value = model.tensor.bracket_of(embedded[i], embedded[j])
        out: dict = {}
        for off, flat_off, space in parts:
            coords = space.coordinates(
                [value.get(flat_off + t, 0) for t in range(space.ambient_dim)])
            if coords is None:
                raise OracleMismatch("graded bracket leaves the subalgebra")
            out.update((off + t, c) for t, c in enumerate(coords) if c)
        return out

    total = tensor.total_dim
    for i in range(total):
        for j in range(i, total):
            expected = graded_value(i, j)
            got = tensor.bracket(i, j)
            base = levels[i] + levels[j]
            for k in set(got) | set(expected):
                shift = levels[k] - base
                g = got.get(k, Fraction(0))
                e = expected.get(k, Fraction(0))
                if shift == 0:
                    if g != e:
                        return Certificate(
                            False, "associated graded differs from the "
                            "subalgebra", witness={"pair": (i, j),
                                                   "target": k})
                elif shift in (2, 4):
                    if e:
                        return Certificate(
                            False, "graded bracket has a shifted component",
                            witness={"pair": (i, j), "target": k})
                else:
                    if g or e:
                        return Certificate(
                            False, "bracket component outside the defining "
                            "sequence (mu, theta, 0, ...)",
                            witness={"pair": (i, j), "target": k})
    return Certificate(True, "associated graded equals the subalgebra; "
                       "defining sequence is (mu, theta, 0, ...)")


# ---------------------------------------------------------------------------
# gauge freedom and geometric realisability
# ---------------------------------------------------------------------------


def class_gauge_generators(datum: AdmissibleDatum) -> List[tuple]:
    """Generators (k, lambda_k) of the full gauge freedom of the normalised
    cocycle within a fixed admissible class: k runs over a basis of the
    invariant part of ker(i^*), and lambda_k is the unique coboundary witness
    with d(lambda_k) = i^*(k), so (hat, lam) -> (hat + k, lam - lambda_k).

    For k in the componentwise restriction kernel, i^*(k) = 0 and lambda_k
    vanishes; the extra generators (when the two kernels differ) carry a
    nonzero lambda_k."""
    sub = datum.subalgebra
    fullco = datum.fullco
    report = restriction_kernel_report(sub, fullco)
    inv = fullco.invariant_normalised(*sub.generator_coords())
    gauge = report.via_istar.intersect(inv)
    res = restriction_matrix(fullco.complex, datum.mixed_complex)
    lams = AffineSolver(datum.mixed_complex.differentials[1]).solve_many(
        res @ gauge.basis.transpose())
    if None in lams:
        raise OracleMismatch("gauge generator restriction is not a "
                             "coboundary")
    return list(zip(gauge.basis_vectors(), lams))


def _gauge_shift(datum: AdmissibleDatum, generators: List[tuple],
                 coeffs: Sequence[Fraction], nu: Sequence[Fraction],
                 inc: ExactMatrix) -> AdmissibleDatum:
    """The datum moved by k = sum_g coeffs_g k_g along the class gauge
    generators (k_g, lambda_g) and by nu in C^{2,1}(a_-; a):

        (mu, hat, lambda) -> (mu + d(nu), hat + k, lambda - lambda_k + i_*(nu))

    with lambda_k = sum_g coeffs_g lambda_g and `inc` the inclusion i_* on
    C^{2,1}.  The image keeps i_*(mu) = i^*(hat) + d(lambda).  The zero
    shift is the datum itself, with everything already derived on it."""
    if vec_is_zero(coeffs) and vec_is_zero(nu):
        return datum
    cxs = datum.sub_complex
    hat, lam = datum.hat.coeffs, datum.lam
    k = lincomb(zip(coeffs, [kvec for kvec, _ in generators]), len(hat))
    lam_k = lincomb(zip(coeffs, [lam_g for _, lam_g in generators]),
                    len(lam))
    return AdmissibleDatum(
        subalgebra=datum.subalgebra, fullco=datum.fullco, sub_complex=cxs,
        mixed_complex=datum.mixed_complex,
        mu_minus=Cochain22(cxs, vec_add(datum.mu_minus.coeffs,
                                        cxs.differentials[1].apply(nu))),
        hat=NormalisedCocycle(Cochain22(datum.fullco.complex,
                                        vec_add(hat, k))),
        lam=vec_add(vec_sub(lam, lam_k), inc.apply(nu)),
        r_prime_replaced=datum.r_prime_replaced)


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
    G = len(generators)
    lay_sub = datum.sub_complex.layouts[1]
    inc = inclusion_matrix(datum.sub_complex, datum.mixed_complex, 1)
    # the lambda_r block of lambda - sum_g s_g lambda_g + i_*(nu) vanishes,
    # for unknowns (s_g, then nu in the lambda_r block of C^{2,1}(a_-; a))
    nu_block = lay_sub.indices("lambda_r")
    r_rows = datum.mixed_complex.layouts[1].indices("lambda_r")
    system = hstack([
        ExactMatrix.from_columns([lam_g for _, lam_g in generators],
                                 len(datum.lam)).scale(-1),
        inc.select_columns(nu_block)]).select_rows(r_rows)
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
    return zero_vec(spencer_complex(sub, 2).layouts[2].dim)


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
    svecs = Sp.basis_vectors()
    pairs = tensor_index_maps(len(svecs), "sym2")
    z = hat.cochain
    nso, nr = model.dim_so, model.dim_r
    joint_vecs, g_vecs, r_vecs = [], [], []
    for k in range(dirac_kernel.dim):
        d = dirac_kernel.basis.row_tuple(k)
        gval = lincomb(((c, z.gamma_vec(svecs[i], svecs[j]))
                        for c, (i, j) in zip(d, pairs.tuples) if c), nso)
        rval = lincomb(((c, z.rho_vec(svecs[i], svecs[j]))
                        for c, (i, j) in zip(d, pairs.tuples) if c), nr)
        joint_vecs.append(tuple(gval) + tuple(rval))
        g_vecs.append(tuple(gval) + zero_vec(nr))
        r_vecs.append(zero_vec(nso) + tuple(rval))
    joint = Subspace.from_vectors(nso + nr, joint_vecs)
    direct = Subspace.from_vectors(nso + nr, g_vecs + r_vecs)
    return EnvelopeReport(
        dirac_kernel_dim=dirac_kernel.dim,
        joint=_envelope_candidate(fullco, Sp, hat, joint),
        direct_sum=_envelope_candidate(fullco, Sp, hat, direct))


def _envelope_candidate(fullco: FullModelCohomology, Sp: Subspace,
                        hat: NormalisedCocycle,
                        env: Subspace) -> EnvelopeCandidate:
    model = fullco.model
    nso = model.dim_so

    def split_elem(vecrow):
        return tuple(vecrow[:nso]), tuple(vecrow[nso:])

    elems = [split_elem(env.basis.row_tuple(i)) for i in range(env.dim)]
    is_subalg = True
    for so1, r1 in elems:
        for so2, r2 in elems:
            comm_so = model.gens.so_coordinates(
                model.so_matrix(so1).commutator(model.so_matrix(so2)))
            comm_r = model.r.coordinates(
                model.r_matrix(r1).commutator(model.r_matrix(r2)))
            if comm_r is None or not env.contains(tuple(comm_so) +
                                                  tuple(comm_r)):
                is_subalg = False
                break
        if not is_subalg:
            break
    preserves_sp = True
    for so1, r1 in elems:
        act = model.spin_matrix(so1) + model.r_matrix(r1)
        for s in Sp.basis_vectors():
            if not Sp.contains(act.apply(s)):
                preserves_sp = False
                break
        if not preserves_sp:
            break
    preserves_cocycle = True
    for so1, r1 in elems:
        act = CochainAction(fullco.complex, so1, r1)
        if not vec_is_zero(act.apply(hat.coeffs)):
            preserves_cocycle = False
            break
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
