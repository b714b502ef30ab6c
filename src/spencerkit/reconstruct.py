"""Algebraic homogeneous-space certificates for a filtered deformation: the
Nomizu map of the invariant connection, its torsion-freeness and
equivariance, and the curvature values at the origin."""

from __future__ import annotations

from dataclasses import dataclass

from .deform import FilteredDeformation, column_tuples, first_nonzero_column
from .errors import (CurvatureMismatch, EquivarianceViolation,
                     TorsionViolation)
from .exactla import ExactMatrix, hstack, kron, rat_str, vec_is_zero

UNCHECKED_HYPOTHESES = ("G0 simply connected", "K closed", "R' closed")


@dataclass
class NomizuMap:
    """Linear map g0 = V + h + r' -> so(V) + r encoding the invariant
    connection: v + A + a  |->  (A + lambda1(v), a + lambda2(v))."""
    deformation: FilteredDeformation
    matrix: ExactMatrix   # (dim so + dim r) x (dim V + dim h + dim r')


def _even_brackets(deformation: FilteredDeformation) -> ExactMatrix:
    """The bracket of g0 = V + h + r' as one matrix: column x d + y holds
    [x_x, x_y] in (V | h | r') coordinates, for d = dim g0."""
    n, nsp, dh, dr = deformation.tensor.component_dims
    total = deformation.tensor.total_dim
    # the even coordinates sit at V, then h and r' after S' in the tensor
    even = [*range(n), *range(n + nsp, total)]
    table = deformation.tensor.matrix.select_columns(
        [x * total + y for x in even for y in even])
    if not table.select_rows(range(n, n + nsp)).is_zero():
        raise CurvatureMismatch("even-even bracket has an odd component")
    return table.select_rows(even)


def build_nomizu_map(deformation: FilteredDeformation) -> NomizuMap:
    """Assemble the Nomizu map and verify all three defining properties
    exactly: restriction to h + r' is the inclusion, equivariance under the
    isotropy algebra, and the torsion-free criterion."""
    sub = deformation.subalgebra
    # columns: lambda(e_b), then the h-basis and the r'-basis in so(V) + r
    nomizu = NomizuMap(deformation=deformation, matrix=hstack([
        deformation.datum.lam_matrix(), sub.a0_basis()]))
    _verify_inclusion(nomizu)
    _verify_equivariance(nomizu)
    _verify_torsion_free(nomizu)
    return nomizu


def _verify_inclusion(nomizu: NomizuMap) -> None:
    sub = nomizu.deformation.subalgebra
    n, _, dh, dr = nomizu.deformation.tensor.component_dims
    phi, a0 = nomizu.matrix, sub.a0_basis()
    if phi.select_columns(range(n, n + dh)) != \
            a0.select_columns(range(dh)):
        raise EquivarianceViolation("restriction to h is not the "
                                    "inclusion")
    if phi.select_columns(range(n + dh, n + dh + dr)) != \
            a0.select_columns(range(dh, dh + dr)):
        raise EquivarianceViolation("restriction to r' is not the "
                                    "inclusion")


def _wang(nomizu: NomizuMap, left: ExactMatrix) -> ExactMatrix:
    """[Phi x, Phi y] - Phi([x, y]) for x over the columns of `left`, a
    matrix of g0 vectors, and y over the basis of g0: column a d + y, for
    d = dim g0.  With x in the isotropy algebra it is the equivariance
    defect of Phi, and with x, y horizontal the curvature at the origin."""
    model = nomizu.deformation.subalgebra.model
    phi = nomizu.matrix
    return model.bracket_matrix("a0", "a0", "a0") @ kron(phi @ left, phi) \
        - phi @ _even_brackets(nomizu.deformation) @ kron(
            left, ExactMatrix.identity(phi.cols))


def _verify_equivariance(nomizu: NomizuMap) -> None:
    """Phi(ad_X y) = ad_{Phi X} Phi(y) for X in the isotropy algebra, on
    every basis pair with one product."""
    n = nomizu.deformation.tensor.component_dims[0]
    dim = nomizu.matrix.cols
    isotropy = ExactMatrix.identity(dim).select_columns(range(n, dim))
    bad = first_nonzero_column(_wang(nomizu, isotropy))
    if bad is not None:
        raise EquivarianceViolation(f"Nomizu map is not equivariant at "
                                    f"generator {n + bad // dim}")


def _verify_torsion_free(nomizu: NomizuMap) -> None:
    """pr_so(Phi X).Ybar - pr_so(Phi Y).Xbar - [X,Y]bar = 0, on the basis
    pairs x < y: the left side is antisymmetric in (X, Y), since the
    bracket's super-antisymmetry is certified by its Jacobi check.  The r
    part of Phi acts trivially on V, so each term is one product with the
    action of so(V) + r on V."""
    deformation = nomizu.deformation
    model = deformation.subalgebra.model
    n = deformation.tensor.component_dims[0]
    phi = nomizu.matrix
    dim = phi.cols
    # X -> Xbar, the V part
    bar = ExactMatrix.identity(dim).select_rows(range(n))
    # column x d + y: [Phi x, ybar] + [xbar, Phi y] - [x, y]bar
    torsion = model.bracket_matrix("a0", "V", "V") @ kron(phi, bar) + \
        model.bracket_matrix("V", "a0", "V") @ kron(bar, phi) - \
        bar @ _even_brackets(deformation)
    pairs = [(x, y) for x in range(dim) for y in range(x + 1, dim)]
    bad = first_nonzero_column(torsion.select_columns(
        [x * dim + y for x, y in pairs]))
    if bad is not None:
        raise TorsionViolation("torsion-free criterion fails at basis pair "
                               "({},{})".format(*pairs[bad]))


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
    model = deformation.subalgebra.model
    theta = deformation.theta
    n = deformation.tensor.component_dims[0]
    dim = nomizu.matrix.cols
    nso = model.dim_so
    curvature = _wang(nomizu, ExactMatrix.identity(dim))
    # horizontal pairs: R0 and F0, asserted equal to -theta
    horizontal = curvature.select_columns([b * dim + c for b in range(n)
                                           for c in range(n)])
    bad = first_nonzero_column(horizontal + theta.matrix())
    if bad is not None:
        raise CurvatureMismatch("Wang curvature differs from -theta at pair "
                                f"({bad // n},{bad % n})")
    # vertical and mixed pairs must be flat
    vertical = [(x, y) for x in range(dim) for y in range(n, dim)]
    bad = first_nonzero_column(curvature.select_columns(
        [x * dim + y for x, y in vertical]))
    if bad is not None:
        raise CurvatureMismatch("curvature does not vanish on vertical pair "
                                "({},{})".format(*vertical[bad]))
    cols = column_tuples(horizontal)
    return CurvatureAtOrigin(
        R0=[[cols[b * n + c][:nso] for c in range(n)] for b in range(n)],
        F0=[[cols[b * n + c][nso:] for c in range(n)] for b in range(n)])


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
