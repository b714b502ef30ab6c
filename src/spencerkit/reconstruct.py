"""Algebraic homogeneous-space certificates for a filtered deformation: the
Nomizu map of the invariant connection, its torsion-freeness and
equivariance, and the curvature values at the origin."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .deform import FilteredDeformation
from .errors import (CurvatureMismatch, EquivarianceViolation,
                     TorsionViolation)
from .exactla import (ExactMatrix, basis_vec, hstack, rat_str, vec_add,
                      vec_is_zero, vec_scale, vstack, zero_vec)

UNCHECKED_HYPOTHESES = ("G0 simply connected", "K closed", "R' closed")


@dataclass
class NomizuMap:
    """Linear map g0 = V + h + r' -> so(V) + r encoding the invariant
    connection: v + A + a  |->  (A + lambda1(v), a + lambda2(v))."""
    deformation: FilteredDeformation
    matrix: ExactMatrix   # (dim so + dim r) x (dim V + dim h + dim r')
    _basis_mats: Optional[tuple] = field(default=None, init=False,
                                         repr=False, compare=False)

    def apply(self, coords: Sequence[Fraction]) -> tuple:
        return self.matrix.apply(coords)

    def basis_matrices(self, x: int) -> tuple:
        """(so(V) matrix on V, r matrix on S) of Phi(x_x) for the x-th even
        basis vector, built once per basis vector and kept."""
        if self._basis_mats is None:
            model = self.deformation.subalgebra.model
            nso = model.dim_so
            self._basis_mats = tuple(
                (model.so_matrix(phi[:nso]), model.r_matrix(phi[nso:]))
                for phi in (self.matrix.transpose().row_tuple(k)
                            for k in range(self.matrix.cols)))
        return self._basis_mats[x]


def _even_basis_layout(deformation: FilteredDeformation):
    """(dim V, dim h, dim r') and the flat offsets of the even part within
    the deformation basis."""
    n, nsp, dh, dr = deformation.tensor.component_dims
    return n, dh, dr, nsp


def _even_bracket(deformation: FilteredDeformation, x: Sequence[Fraction],
                  y: Sequence[Fraction]) -> tuple:
    """Bracket of two even elements given in (V | h | r') coordinates."""
    n, dh, dr, nsp = _even_basis_layout(deformation)
    # the even coordinates sit at V, then h and r' after S' in the tensor
    flat = [*range(n), *range(n + nsp, n + nsp + dh + dr)]
    value = deformation.tensor.bracket_of(
        {k: c for k, c in zip(flat, x) if c},
        {k: c for k, c in zip(flat, y) if c})
    if any(n <= k < n + nsp for k in value):
        raise CurvatureMismatch("even-even bracket has an odd component")
    return tuple(value.get(k, Fraction(0)) for k in flat)


def build_nomizu_map(deformation: FilteredDeformation) -> NomizuMap:
    """Assemble the Nomizu map and verify all three defining properties
    exactly: restriction to h + r' is the inclusion, equivariance under the
    isotropy algebra, and the torsion-free criterion."""
    datum = deformation.datum
    sub = deformation.subalgebra
    model = sub.model
    n, dh, dr, _ = _even_basis_layout(deformation)
    nso, nr = model.dim_so, model.dim_r
    # columns: lambda1(e_b) over lambda2(e_b), then h, then r'
    lam1 = ExactMatrix.from_columns([datum.lam1_coords(b) for b in range(n)],
                                    nso)
    lam2 = ExactMatrix.from_columns([datum.lam2_coords(b) for b in range(n)],
                                    nr)
    nomizu = NomizuMap(deformation=deformation, matrix=vstack([
        hstack([lam1, sub.h.basis.transpose(), ExactMatrix(nso, dr)]),
        hstack([lam2, ExactMatrix(nr, dh), sub.rp.basis.transpose()])]))
    _verify_inclusion(nomizu)
    _verify_equivariance(nomizu)
    _verify_torsion_free(nomizu)
    return nomizu


def _verify_inclusion(nomizu: NomizuMap) -> None:
    sub = nomizu.deformation.subalgebra
    n, dh, dr, _ = _even_basis_layout(nomizu.deformation)
    dim = n + dh + dr
    for k in range(dh):
        want = tuple(sub.h.basis.row_tuple(k)) + zero_vec(sub.model.dim_r)
        if nomizu.apply(basis_vec(dim, n + k)) != want:
            raise EquivarianceViolation("restriction to h is not the "
                                        "inclusion")
    for p in range(dr):
        want = zero_vec(sub.model.dim_so) + tuple(sub.rp.basis.row_tuple(p))
        if nomizu.apply(basis_vec(dim, n + dh + p)) != want:
            raise EquivarianceViolation("restriction to r' is not the "
                                        "inclusion")


def _verify_equivariance(nomizu: NomizuMap) -> None:
    """Phi(ad_X y) = ad_{Phi X} Phi(y) for X in the isotropy algebra."""
    deformation = nomizu.deformation
    sub = deformation.subalgebra
    model = sub.model
    n, dh, dr, _ = _even_basis_layout(deformation)
    dim = n + dh + dr
    for a in range(n, dim):
        actor = basis_vec(dim, a)
        a_so, a_r = nomizu.basis_matrices(a)
        for x in range(dim):
            lhs = nomizu.apply(_even_bracket(deformation, actor,
                                             basis_vec(dim, x)))
            x_so, x_r = nomizu.basis_matrices(x)
            rhs_so = model.gens.so_coordinates(a_so.commutator(x_so))
            rhs_r = model.r.coordinates(a_r.commutator(x_r))
            if rhs_r is None:
                raise EquivarianceViolation("commutator leaves the "
                                            "R-symmetry algebra")
            if tuple(lhs) != tuple(rhs_so) + tuple(rhs_r):
                raise EquivarianceViolation(
                    f"Nomizu map is not equivariant at generator {actor}")


def _verify_torsion_free(nomizu: NomizuMap) -> None:
    """pr_so(Phi X).Ybar - pr_so(Phi Y).Xbar - [X,Y]bar = 0, on the basis
    pairs x < y: the left side is antisymmetric in (X, Y), since the
    bracket's super-antisymmetry is certified by its Jacobi check."""
    deformation = nomizu.deformation
    n, dh, dr, _ = _even_basis_layout(deformation)
    dim = n + dh + dr
    for x in range(dim):
        xvec = basis_vec(dim, x)
        xbar = xvec[:n]
        mx = nomizu.basis_matrices(x)[0]
        for y in range(x + 1, dim):
            yvec = basis_vec(dim, y)
            my = nomizu.basis_matrices(y)[0]
            val = vec_add(mx.apply(yvec[:n]),
                          vec_scale(my.apply(xbar), -1))
            bracket_bar = _even_bracket(deformation, xvec, yvec)[:n]
            val = tuple(a - b for a, b in zip(val, bracket_bar))
            if not vec_is_zero(val):
                raise TorsionViolation(
                    f"torsion-free criterion fails at basis pair ({x},{y})")


@dataclass
class CurvatureAtOrigin:
    """R = -theta1 and F = -theta2 on horizontal pairs, re-derived from the
    Nomizu map's bracket defect and cross-checked coefficientwise."""
    R0: list   # [b][c] -> so coordinates
    F0: list   # [b][c] -> r coordinates

    def to_json(self) -> dict:
        return {
            "R0": [[[rat_str(c) for c in col] for col in row]
                   for row in self.R0],
            "F0": [[[rat_str(c) for c in col] for col in row]
                   for row in self.F0],
        }


def curvature_at_origin(deformation: FilteredDeformation,
                        nomizu: NomizuMap) -> CurvatureAtOrigin:
    """Wang-formula curvature [Phi X, Phi Y] - Phi([X, Y]) on horizontal
    pairs, asserted equal to (-theta1, -theta2); vertical pairs are asserted
    flat.

    The first Bianchi identity of R0 needs no check of its own.  For X, Y,
    Z in g0 write P for pr_so o Phi, so R(X, Y) = [P X, P Y] - P [X, Y].
    With Phi torsion-free (build_nomizu_map certifies P(X).Ybar - P(Y).Xbar
    = [X, Y]bar), the cyclic sum of R(X, Y).Zbar regroups as
        sum_cyc P(X).(P(Y).Zbar - P(Z).Ybar) - P([X, Y]).Zbar
      = sum_cyc P(X).[Y, Z]bar - P([Y, Z]).Xbar
      = -(sum_cyc [[X, Y], Z])bar,
    which is 0 by the Jacobi identity certified on the deformed bracket."""
    sub = deformation.subalgebra
    model = sub.model
    theta = deformation.theta
    n, dh, dr, _ = _even_basis_layout(deformation)
    dim = n + dh + dr
    nso = model.dim_so

    def wang(x, y):
        (x_so, x_r), (y_so, y_r) = (nomizu.basis_matrices(x),
                                    nomizu.basis_matrices(y))
        so_comm = model.gens.so_coordinates(x_so.commutator(y_so))
        r_comm = model.r.coordinates(x_r.commutator(y_r))
        if r_comm is None:
            raise CurvatureMismatch("commutator leaves the R-symmetry "
                                    "algebra")
        phi_br = nomizu.apply(_even_bracket(deformation, basis_vec(dim, x),
                                            basis_vec(dim, y)))
        return (tuple(a - b for a, b in zip(so_comm, phi_br[:nso])),
                tuple(a - b for a, b in zip(r_comm, phi_br[nso:])))

    R0 = [[zero_vec(nso) for _ in range(n)] for _ in range(n)]
    F0 = [[zero_vec(model.dim_r) for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for c in range(n):
            got_so, got_r = wang(b, c)
            want_so = vec_scale(theta.theta1[b][c], -1)
            want_r = vec_scale(theta.theta2[b][c], -1)
            if got_so != tuple(want_so) or got_r != tuple(want_r):
                raise CurvatureMismatch(
                    f"Wang curvature differs from -theta at pair ({b},{c})")
            R0[b][c] = got_so
            F0[b][c] = got_r
    # vertical and mixed pairs must be flat
    for x in range(dim):
        for y in range(n, dim):
            got_so, got_r = wang(x, y)
            if not (vec_is_zero(got_so) and vec_is_zero(got_r)):
                raise CurvatureMismatch(
                    f"curvature does not vanish on vertical pair ({x},{y})")
    return CurvatureAtOrigin(R0=R0, F0=F0)


def reconstruction_certificate(deformation: FilteredDeformation,
                               nomizu: NomizuMap,
                               curvature: CurvatureAtOrigin) -> dict:
    """The emitted certificate; group-level hypotheses are reported as
    unchecked because they are assumptions, not computations."""
    f0_zero = all(vec_is_zero(v) for row in curvature.F0 for v in row)
    return {
        "nomizu": nomizu.matrix.to_serialisable(),
        **curvature.to_json(),   # "R0" then "F0", in report key order
        "F0_zero": f0_zero,
        "unchecked_hypotheses": list(UNCHECKED_HYPOTHESES),
    }
