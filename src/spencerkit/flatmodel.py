"""Schur and R-symmetry algebras, the extended flat model superalgebra, and
graded subalgebras with their closure and homogeneity checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .certs import Certificate
from .cliffspin import CliffordRep, DiracCurrent, spin_generators
from .errors import (DimensionMismatch, JacobiViolation, NotClosed,
                     NotCompactForm)
from .exactla import (ExactMatrix, Subspace, block_diag, coordinate_rows,
                      first_row_outside, flatten_columns, hstack,
                      is_positive_definite, kron, pair_map, rat_str,
                      tensor_index_maps, vstack)


# ---------------------------------------------------------------------------
# subalgebras of End(S)
# ---------------------------------------------------------------------------


class EndoSubalgebra:
    """A commutator-closed subspace of End(S), held by a canonical basis.
    An element is flattened row by row, so the basis rows are the flattened
    `matrices`."""

    def __init__(self, spinor_dim: int, basis: Subspace):
        self.spinor_dim = spinor_dim
        self.basis = basis
        n = spinor_dim
        self.matrices: List[ExactMatrix] = [
            basis.basis.select_rows([i]).reshape(n, n)
            for i in range(basis.dim)]
        # row i dim + j holds the coordinates of [m_i, m_j]
        self.bracket_table = ExactMatrix(0, 0)
        if not self.matrices:
            return
        comms = commutator_rows(self.matrices, basis.basis)
        coords = coordinate_rows(basis, comms)
        if coords is None:
            bad = first_row_outside(basis, comms)
            raise NotClosed("endomorphism algebra not closed under "
                            "commutator", witness=comms.select_rows(
                                [bad]).reshape(n, n).to_serialisable())
        self.bracket_table = coords

    @classmethod
    def from_matrices(cls, spinor_dim: int,
                      matrices: Sequence[ExactMatrix]) -> "EndoSubalgebra":
        flat = vstack([ExactMatrix(0, spinor_dim ** 2)] +
                      [m.reshape(1, spinor_dim ** 2) for m in matrices])
        return cls(spinor_dim, flat.row_space())

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __repr__(self):
        return f"EndoSubalgebra(dim={self.dim}, on S^{self.spinor_dim})"


def commutator_rows(mats: Sequence[ExactMatrix],
                    flat: ExactMatrix) -> ExactMatrix:
    """Row i f + j is [m_i, n_j] flattened row by row, for the square
    matrices m_i and the f matrices n_j whose flattenings are the rows of
    `flat`: one product of the stacked blocks, since
    vec(n_j)^T (m_i^T (x) I - I (x) m_i) is vec(m_i n_j - n_j m_i)^T."""
    eye = ExactMatrix.identity(mats[0].rows)
    return kron(ExactMatrix.identity(len(mats)), flat) @ vstack(
        [kron(m.transpose(), eye) - kron(eye, m) for m in mats])


def compute_schur_algebra(rep: CliffordRep) -> EndoSubalgebra:
    """Canonical basis of the commutant of the spin generators in End(S):
    the kernel of a -> [a, sigma] for every chain generator sigma
    (SpinGenerators.chain), on the row-major vec(a), with vec(a sigma) =
    (I (x) sigma^T) vec(a) and vec(sigma a) = (sigma (x) I) vec(a).  What
    commutes with two matrices commutes with their commutator, and the
    chain generates so(V), so this is the commutant of every sigma_ij."""
    ns = rep.spinor_dim
    eye = ExactMatrix.identity(ns)
    # the empty block keeps the column count when there is no generator
    system = vstack([ExactMatrix(0, ns * ns)] +
                    [kron(eye, sig.transpose()) - kron(sig, eye)
                     for sig in spin_generators(rep).chain_sigma()])
    return EndoSubalgebra(ns, system.kernel())


def compute_r_symmetry_algebra(schur: EndoSubalgebra,
                               current: DiracCurrent) -> EndoSubalgebra:
    """Elements of the Schur algebra infinitesimally preserving the current:
    kappa(a x, y) + kappa(x, a y) = 0 for all spinors, that is
    a^T K + K a = 0 for every component K."""
    if schur.dim == 0:
        return schur
    ns = schur.spinor_dim
    eye = ExactMatrix.identity(ns)
    # columns vec(B) and vec(B^T) of the Schur basis; vec(K B) =
    # (K (x) I) vec(B) and vec(B^T K) = (I (x) K^T) vec(B^T)
    flat = schur.basis.basis.transpose()
    flat_t = flat.select_rows([j * ns + i for i in range(ns)
                              for j in range(ns)])
    system = vstack([kron(K, eye) @ flat + kron(eye, K.transpose()) @ flat_t
                     for K in current.components])
    sol = system.kernel()
    return EndoSubalgebra(ns, (sol.basis @ schur.basis.basis).row_space())


def _preserves(mat: ExactMatrix, sigma: Sequence[ExactMatrix],
               components: Sequence[ExactMatrix]) -> bool:
    """Whether mat satisfies the defining equations of the R-symmetry
    algebra: [mat, sigma] = 0 for every given spin generator (the chain
    generators suffice, see compute_schur_algebra) and mat^T K + K mat = 0
    for every component K of the current."""
    return all(mat @ sig == sig @ mat for sig in sigma) and \
        all((mat.transpose() @ K + K @ mat).is_zero() for K in components)


# ---------------------------------------------------------------------------
# graded bracket tensors and the super Jacobi identity
# ---------------------------------------------------------------------------


@dataclass
class GradedBracketTensor:
    """A bracket on a finite graded super vector space, as one n x n^2
    structure-constant matrix M with [x, y] = M (x (x) y): column i n + j
    holds [x_i, x_j]."""
    component_dims: tuple
    parities: tuple             # per flat basis index: 0 even, 1 odd
    degrees: Optional[tuple]    # per flat basis index, or None if filtered
    matrix: ExactMatrix

    @property
    def total_dim(self) -> int:
        return sum(self.component_dims)


def bracket_from_blocks(n: int, blocks: Sequence[tuple]) -> ExactMatrix:
    """The n x n^2 matrix M of a bracket on an n-dimensional space from
    blocks (left, right, out, B): ranges of basis indices and a matrix with
    [x, y]_out = B (x_left (x) y_right).  M is B's entries relabelled: row
    r of B goes to row out[r] of M, and its column a |right| + b to column
    left[a] n + right[b], the entries of blocks that meet adding up.  A
    block on two different ranges holds one order of the pair, one of whose
    elements is even; its partner [y, x] = -[x, y] is the same entry, negated,
    at column right[b] n + left[a]."""
    tables = [(left, right, out) + B.int_rows() for left, right, out, B
              in blocks]
    L = lcm(*[D for *_, D, _ in tables])
    acc = [dict() for _ in range(n)]
    for left, right, out, D, rows in tables:
        f = L // D
        cols = [i * n + j for i in left for j in right]
        partner = None if left == right else \
            [j * n + i for i in left for j in right]
        for r, row in zip(out, rows):
            target = acc[r]
            for c, v in row.items():
                target[cols[c]] = target.get(cols[c], 0) + f * v
                if partner:
                    target[partner[c]] = target.get(partner[c], 0) - f * v
    return ExactMatrix.from_int_rows(
        n * n, [({j: v for j, v in row.items() if v}, L) for row in acc])


def _accumulate(acc: dict, coeffs: dict, rows: list, base: int,
                stride: int, scale: int) -> None:
    """acc += scale * sum_m coeffs[m] rows[base + m stride] on sparse
    integer vectors."""
    for m, c in coeffs.items():
        row = rows[base + m * stride]
        if row:
            c *= scale
            for t, w in row.items():
                acc[t] = acc.get(t, 0) + c * w


def jacobi_triples(parities: Sequence[int]):
    """The basis triples (i, j, k), i <= j <= k, on which the Jacobiator of a
    super-antisymmetric, parity-preserving bracket is checked: j == i only
    for an odd x_i and k == j only for an odd x_j.  At most n(n+1)(n+2)/6."""
    n = len(parities)
    for i in range(n):
        for j in range(i if parities[i] else i + 1, n):
            for k in range(j if parities[j] else j + 1, n):
                yield i, j, k


def graded_jacobi_check(tensor: GradedBracketTensor) -> Certificate:
    """Exact super-antisymmetry, parity and degree additivity, and the
    Jacobi identity.

    Jacobi is checked in super-derivation form, on the Jacobiator
    J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]].  Once the
    first pass has certified [x,y] = -(-1)^{|x||y|} [y,x] and that [x,y] has
    parity |x| + |y| on every basis pair, J is graded-alternating:
    J(y,x,z) = -(-1)^{|x||y|} J(x,y,z) and J(x,z,y) = -(-1)^{|y||z|} J(x,y,z).
    Every ordered triple is then a signed permutation of one with
    i <= j <= k, and a triple with a repeated even index has J = -J = 0.  So
    the triples of `jacobi_triples` are exhaustive: J vanishes on them if and
    only if it vanishes on all n^3 ordered ones.

    Both passes read the integer rows of M^T, over the lcm L of M's
    denominators, once: row i n + j is L [x_i, x_j].  J is quadratic in
    the bracket, so L^2 J is evaluated in integer arithmetic, and a
    violation's defect is reported as the rational acc / L^2.  The scaled
    rows live only for the call.
    """
    n = tensor.total_dim
    par = tensor.parities
    deg = tensor.degrees
    L, rows = tensor.matrix.transpose().int_rows()
    for i in range(n):
        for j in range(n):
            bij = rows[i * n + j]
            sign = -1 if (par[i] * par[j]) % 2 == 0 else 1
            bji = rows[j * n + i]
            for k in set(bij) | set(bji):
                if bij.get(k, 0) != sign * bji.get(k, 0):
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
    # [x_i, x_m] is rows[i n + m] and [x_m, x_k] is rows[m n + k]
    for i, j, k in jacobi_triples(par):
        sgn = -1 if (par[i] * par[j]) % 2 else 1
        acc: dict = {}
        _accumulate(acc, rows[j * n + k], rows, i * n, 1, 1)
        _accumulate(acc, rows[i * n + j], rows, k, n, -1)
        _accumulate(acc, rows[i * n + k], rows, j * n, 1, -sgn)
        nonzero = [t for t, v in acc.items() if v]
        if nonzero:
            t = min(nonzero)
            return Certificate(
                False, "super Jacobi identity violated",
                witness={"triple": (i, j, k), "target": t,
                         "defect": rat_str(Fraction(acc[t], L * L))})
    return Certificate(True, "graded Jacobi identity holds exactly")


# ---------------------------------------------------------------------------
# the extended flat model superalgebra
# ---------------------------------------------------------------------------


class ExtendedFlatModel:
    """V + S + (so(V) + r) with the flat brackets, as structure constants.

    Basis order: V (degree -2), S (degree -1, odd when kappa is symmetric),
    so(V) in the E_ij basis, then the canonical basis of r (both degree 0).
    """

    def __init__(self, rep: CliffordRep, current: DiracCurrent,
                 r: EndoSubalgebra):
        self.rep = rep
        self.current = current
        self.r = r
        self.gens = spin_generators(rep)
        self.dim_v = rep.dim_v
        self.dim_s = rep.spinor_dim
        self.dim_so = self.gens.dim
        self.dim_r = r.dim
        self.odd_spinors = current.symmetry == "symmetric"
        self.tensor = self._build_tensor()
        # the blocks of the bracket read by bracket_matrix, each built once
        self._bracket_blocks: dict = {}
        # the maximal graded subalgebra, built once by make_graded_subalgebra
        self.maximal_subalgebra: Optional["GradedSubalgebra"] = None
        # Spencer complexes of this model's subalgebras, each built once by
        # spencer.spencer_complex; the pipeline drops them at the end of a
        # run, all but the full model's degree-2 complex, which it keeps with
        # the model for the next run on the same signature
        self.spencer_complexes: dict = {}

    # offsets into the flat basis
    @property
    def off_v(self) -> int:
        return 0

    @property
    def off_s(self) -> int:
        return self.dim_v

    @property
    def off_so(self) -> int:
        return self.dim_v + self.dim_s

    @property
    def off_r(self) -> int:
        return self.dim_v + self.dim_s + self.dim_so

    @property
    def total_dim(self) -> int:
        return self.dim_v + self.dim_s + self.dim_so + self.dim_r

    @property
    def dims(self) -> dict:
        return {"V": self.dim_v, "S": self.dim_s,
                "so": self.dim_so, "r": self.dim_r}

    def _build_tensor(self) -> GradedBracketTensor:
        """The flat brackets placed as blocks: [so, so] in E_ij coordinates,
        so(V) on V and S by the generator and sigma matrices, [r, r] by the
        R-symmetry algebra's table, r on S by its matrices, and [S, S] =
        kappa, whose component a is K_a flattened row by row (a symmetric
        bracket of odd spinors for a symmetric current, an antisymmetric one
        of even spinors for a skew current)."""
        nv, ns, nso, nr = self.dim_v, self.dim_s, self.dim_so, self.dim_r
        spar = 1 if self.odd_spinors else 0
        parities = tuple([0] * nv + [spar] * ns + [0] * (nso + nr))
        degrees = tuple([-2] * nv + [-1] * ns + [0] * (nso + nr))
        V, S = self._part("V"), self._part("S")
        so = range(self.off_so, self.off_r)
        r = range(self.off_r, self.total_dim)
        gens = self.gens
        # [so, so]: every commutator of the E_ij at once, in E_ij
        # coordinates, read off entry (i, j) above the diagonal, which E_ij
        # alone meets, with the value eta_j = 1 / eta_j
        so_so = ExactMatrix(0, 0)
        if nso:
            eta = self.rep.signature.eta()
            read = ExactMatrix(nv * nv, nso, [
                (i * nv + j, k, eta[j])
                for k, (i, j) in enumerate(gens.pairs)])
            so_so = commutator_rows(gens.e_mats, vstack(
                [e.reshape(1, nv * nv) for e in gens.e_mats])) @ read
        # column a d + i of an action block is x_a on the i-th basis vector
        blocks = [
            (so, so, so, so_so.transpose()),
            (so, V, V, hstack([ExactMatrix(nv, 0), *gens.e_mats])),
            (so, S, S, hstack([ExactMatrix(ns, 0), *gens.sigma])),
            (r, r, r, self.r.bracket_table.transpose()),
            (r, S, S, hstack([ExactMatrix(ns, 0), *self.r.matrices])),
            (S, S, V, flatten_columns(self.current.components, ns,
                                      ns).transpose())]
        return GradedBracketTensor(
            component_dims=(nv, ns, nso, nr), parities=parities,
            degrees=degrees,
            matrix=bracket_from_blocks(self.total_dim, blocks))

    # -- basis tables --------------------------------------------------------

    def _part(self, name: str) -> range:
        """The flat indices of a component: V, S or a0 = so(V) + r (so(V)
        coordinates then r coordinates)."""
        return {"V": range(self.off_v, self.off_s),
                "S": range(self.off_s, self.off_so),
                "a0": range(self.off_so, self.total_dim)}[name]

    def bracket_matrix(self, left: str, right: str, out: str) -> ExactMatrix:
        """The bracket of the components `left` x `right`, projected to
        `out`, as one matrix M: [x, y] = M (x (x) y), with x, y and [x, y] in
        the components' coordinates (see _part).  ("a0", "a0", "a0") is the
        structure-constant table B of so(V) + r, ("a0", "V", "V") and
        ("a0", "S", "S") are its actions.  Read off the structure constants
        on first use and kept on the model."""
        key = (left, right, out)
        if key not in self._bracket_blocks:
            n = self.total_dim
            rows, cols = self._part(left), self._part(right)
            self._bracket_blocks[key] = self.tensor.matrix.select_rows(
                self._part(out)).select_columns(
                    [i * n + j for i in rows for j in cols])
        return self._bracket_blocks[key]

    def action_table(self, part: str) -> ExactMatrix:
        """The table whose row a is the a0 basis element x_a's matrix on
        `part` (V or S) flattened row by row, read off bracket_matrix("a0",
        part, part) on first use and kept on the model."""
        d = len(self._part(part))
        key = ("actions", part)
        if key not in self._bracket_blocks:
            # row a d + j of the transpose is M_a e_j, so read row by row
            # it holds each M_a transposed
            self._bracket_blocks[key] = self.bracket_matrix(
                "a0", part, part).transpose().reshape(
                    len(self._part("a0")), d * d).select_columns(
                        [j * d + i for i in range(d) for j in range(d)])
        return self._bracket_blocks[key]

    def element_matrices(self, X: ExactMatrix, part: str) -> tuple:
        """The matrices M with [x, y] = M y on `part` (V or S) of the
        elements x whose so(V) + r coordinates are the rows of X: one
        product with action_table."""
        d = len(self._part(part))
        flat = X @ self.action_table(part)
        return tuple(flat.select_rows([k]).reshape(d, d)
                     for k in range(flat.rows))

    def element_images(self, X: ExactMatrix, part: str,
                       basis: ExactMatrix) -> ExactMatrix:
        """Column t holds x_t v_b at rows b d .. b d + d - 1, for the
        elements x_t whose so(V) + r coordinates are the rows of X and the
        rows v_b of `basis`, vectors of `part` (V or S) of dimension d: one
        product with action_table, then one with I (x) basis^T unless the
        basis is the unit one, and a relabelling of the columns."""
        d, nb = basis.cols, basis.rows
        # row t: x_t's matrix M_t, entry (y, j) at column y d + j
        flat = X @ self.action_table(part)
        if basis != ExactMatrix.identity(d):
            # row t: M_t basis^T, entry (y, b) at column y nb + b
            flat = flat @ kron(ExactMatrix.identity(d), basis.transpose())
        return flat.select_columns([y * nb + b for b in range(nb)
                                    for y in range(d)]).transpose()


def build_extended_flat_model(rep: CliffordRep, current: DiracCurrent,
                              r: Optional[EndoSubalgebra] = None
                              ) -> ExtendedFlatModel:
    """Assemble the extended flat model and verify the graded Jacobi identity
    exhaustively before returning.  A Jacobi failure signals inconsistent
    inputs (for example a non-equivariant current)."""
    if r is None:
        r = compute_r_symmetry_algebra(compute_schur_algebra(rep), current)
    else:
        sigma = spin_generators(rep).chain_sigma()
        for mat in r.matrices:
            if not _preserves(mat, sigma, current.components):
                raise NotClosed(
                    "supplied r is not contained in the R-symmetry algebra",
                    witness=mat.to_serialisable())
    model = ExtendedFlatModel(rep, current, r)
    cert = graded_jacobi_check(model.tensor)
    if not cert.passed:
        raise JacobiViolation(cert.detail, triple=cert.witness)
    return model


# ---------------------------------------------------------------------------
# graded subalgebras
# ---------------------------------------------------------------------------


@dataclass
class GradedSubalgebra:
    """a = V' + S' + (h + r') inside an extended flat model.

    Coordinates: Vp in the ambient V basis, Sp in the ambient S basis, h in
    the E_ij coordinates of so(V), rp in the canonical basis of r.  Diagonally
    embedded degree-0 subalgebras are structurally unrepresentable here, which
    is the intended rejection of that case.

    The structure the closure checks read is built once and kept: kappa_sp
    (see kappa_restriction_matrix), the h basis acting on V (h_so) and on S
    (h_spin), the r' basis acting on S (rp_mats), and the structure
    constants of h and r' in their own bases (row k dim h + l of h_brackets
    holds the h coordinates of [h_k, h_l], rp_brackets likewise).  It is
    determined by the subspaces, so it takes no part in equality.

    h_generators and rp_generators index a subset of the h-basis and of the
    r'-basis that generates h and r' as Lie algebras (lie_generating_subset).
    A vector, or a class, annihilated by a generating set is annihilated by
    every bracket of generators, so the invariance checks act with these
    alone; the consumers that need each element's action keep the basis.
    """
    model: ExtendedFlatModel
    Vp: Subspace
    Sp: Subspace
    h: Subspace
    rp: Subspace
    kappa_sp: ExactMatrix = field(repr=False, compare=False)
    h_so: tuple = field(repr=False, compare=False)
    h_spin: tuple = field(repr=False, compare=False)
    rp_mats: tuple = field(repr=False, compare=False)
    h_brackets: ExactMatrix = field(repr=False, compare=False)
    rp_brackets: ExactMatrix = field(repr=False, compare=False)
    h_generators: tuple = field(repr=False, compare=False)
    rp_generators: tuple = field(repr=False, compare=False)
    highly_susy: bool = False
    transitive: bool = False
    homogeneity_rank: int = 0

    @property
    def dims(self) -> dict:
        return {"V'": self.Vp.dim, "S'": self.Sp.dim,
                "h": self.h.dim, "r'": self.rp.dim}

    @property
    def key(self) -> tuple:
        """The subspaces that determine the subalgebra of its model; equal
        keys (compared by value) mean equal subalgebras."""
        return (self.Vp, self.Sp, self.h, self.rp)

    def generator_coords(self) -> Tuple[list, list]:
        """The h and r' coordinates of the Lie generators, h then r'."""
        return ([self.h.basis.row_tuple(k) for k in self.h_generators],
                [self.rp.basis.row_tuple(k) for k in self.rp_generators])

    def a0_basis(self) -> ExactMatrix:
        """The h-basis then the r'-basis as the columns of one matrix, in
        so(V) + r coordinates."""
        return block_diag([self.h.basis.transpose(),
                           self.rp.basis.transpose()])

    def maximal(self) -> bool:
        return (self.Sp.dim == self.model.dim_s
                and self.Vp.dim == self.model.dim_v
                and self.h.dim == self.model.dim_so
                and self.rp.dim == self.model.dim_r)


def kappa_restriction_matrix(model: ExtendedFlatModel,
                             Sp: Subspace) -> ExactMatrix:
    """kappa o Sym^2 E for E the S' basis as columns: column p is
    kappa(s_I, s_J) for the p-th pair (I, J) of the sym2 table of S' (of the
    wedge2 table for a skew current, which lives on Wedge^2 S)."""
    kind = "sym2" if model.odd_spinors else "wedge2"
    E = Sp.basis.transpose()
    return model.current.component_matrix() @ pair_map(
        tensor_index_maps(model.dim_s, kind), tensor_index_maps(Sp.dim, kind),
        E, E)


def make_graded_subalgebra(model: ExtendedFlatModel, Vp: Subspace,
                           Sp: Subspace, h: Subspace,
                           rp: Subspace) -> GradedSubalgebra:
    """Validate all closure conditions and compute the flags.  When all four
    subspaces are full the subalgebra is the maximal one, built on first use
    and kept on the model."""
    if Vp.ambient_dim != model.dim_v or Sp.ambient_dim != model.dim_s \
            or h.ambient_dim != model.dim_so or rp.ambient_dim != model.dim_r:
        raise DimensionMismatch("subspace ambients do not match the model")
    if all(W.dim == W.ambient_dim for W in (Vp, Sp, h, rp)):
        if model.maximal_subalgebra is None:
            model.maximal_subalgebra = _graded_subalgebra(model, Vp, Sp, h,
                                                          rp)
        return model.maximal_subalgebra
    return _graded_subalgebra(model, Vp, Sp, h, rp)


def _graded_subalgebra(model: ExtendedFlatModel, Vp: Subspace, Sp: Subspace,
                       h: Subspace, rp: Subspace) -> GradedSubalgebra:
    """Each closure and preservation condition is read off one product over
    the model's basis tables (bracket_matrix) and certified by
    coordinate_rows, in the order: kappa(S', S') in V', h closed, r'
    closed, h preserving V' and S' (element by element, V' first), r'
    preserving S'.  The first that fails raises NotClosed with the first
    vector that leaves as its witness."""
    nso, nr, nv = model.dim_so, model.dim_r, model.dim_v
    dh, dr = h.dim, rp.dim
    # the h-basis and the r'-basis as rows, and as columns, in so(V) + r
    # coordinates
    H = hstack([h.basis, ExactMatrix(dh, nr)])
    R = hstack([ExactMatrix(dr, nso), rp.basis])
    Xh, Xr = H.transpose(), R.transpose()
    kappa_sp = kappa_restriction_matrix(model, Sp)
    _require([("kappa(S', S') leaves V'", Vp, kappa_sp.transpose(), 1)])
    # row k d + l: [x_k, x_l], in so(V) coordinates for h and in r
    # coordinates for r'
    B = model.bracket_matrix("a0", "a0", "a0")
    h_table, = _require([("h is not closed under the commutator", h,
                          (B @ kron(Xh, Xh)).select_rows(
                              range(nso)).transpose(), 1)])
    rp_table, = _require([("r' is not closed under the commutator", rp,
                           (B @ kron(Xr, Xr)).select_rows(
                               range(nso, nso + nr)).transpose(), 1)])
    h_so = model.element_matrices(H, "V")
    h_spin = model.element_matrices(H, "S")
    rp_mats = model.element_matrices(R, "S")
    # row k dim W' + b: x_k on the b-th basis vector of W'
    h_vp = _on_rows(h_so, Vp.basis)
    h_sp = _on_rows(h_spin, Sp.basis)
    rp_sp = _on_rows(rp_mats, Sp.basis)
    _require([("h does not preserve V'", Vp, h_vp, Vp.dim),
              ("h does not preserve S'", Sp, h_sp, Sp.dim)])
    _require([("r' does not preserve S'", Sp, rp_sp, Sp.dim)])
    sub = GradedSubalgebra(model=model, Vp=Vp, Sp=Sp, h=h, rp=rp,
                           kappa_sp=kappa_sp, h_so=h_so, h_spin=h_spin,
                           rp_mats=rp_mats,
                           h_brackets=h_table, rp_brackets=rp_table,
                           h_generators=lie_generating_subset(h_table),
                           rp_generators=lie_generating_subset(rp_table))
    sub.homogeneity_rank = kappa_sp.rank()
    sub.highly_susy = (2 * Sp.dim > model.dim_s
                       and Vp.dim == model.dim_v)
    # transitivity: h + r' acts faithfully on V' + S' (r' is zero on V);
    # row k holds x_k on every basis vector of V', then of S'
    dk = dh + dr
    ann_dim = dk - hstack([
        _per_element(vstack([h_vp, ExactMatrix(dr * Vp.dim, nv)]), dk),
        _per_element(vstack([h_sp, rp_sp]), dk)]).rank() if dk else 0
    sub.transitive = sub.highly_susy and ann_dim == 0
    return sub


def _require(checks: Sequence[tuple]) -> list:
    """The coordinate_rows of each check (condition, space, rows, block),
    or NotClosed naming the check that fails first.  Rows k block to
    (k + 1) block - 1 are the vectors of element k; the elements are taken
    in turn and, for each, its checks in the order given.  The witness is
    the first row that leaves its space."""
    coords = [coordinate_rows(space, rows) for _, space, rows, _ in checks]
    failures = []
    for order, ((condition, space, rows, block), c) in enumerate(
            zip(checks, coords)):
        if c is None:
            i = first_row_outside(space, rows)
            failures.append((i // block, order, i, condition, rows))
    if failures:
        _, _, i, condition, rows = min(failures)
        raise NotClosed(condition,
                        witness=[rat_str(c) for c in rows.row_tuple(i)])
    return coords


def _per_element(rows: ExactMatrix, count: int) -> ExactMatrix:
    """Row k: the k-th of `count` equal blocks of `rows`, read row by
    row."""
    return rows.reshape(count, rows.rows * rows.cols // count)


def lie_generating_subset(table: ExactMatrix) -> tuple:
    """Indices of basis elements that generate the Lie algebra whose
    structure constants are the rows of `table`: row k dim + l holds the
    coordinates of [x_k, x_l].

    Greedy and exact: x_k is taken when it lies outside the subalgebra
    generated by the elements taken before it.  That subalgebra is the
    smallest subspace containing them and closed under their adjoint
    actions, since right-normed brackets of generators span it.  Its RREF
    rows w are closed by products: block g of `table` is ad(x_g)^T, so
    w ad(x_g)^T is [x_g, w], for every row and every chosen g at once,
    until the rank stops growing."""
    dim = table.cols
    chosen: List[int] = []
    closure = Subspace.trivial(dim)
    for k in range(dim):
        unit = [int(j == k) for j in range(dim)]
        if closure.contains(unit):
            continue
        chosen.append(k)
        ads = [table.select_rows(range(g * dim, (g + 1) * dim))
               for g in chosen]
        span = vstack([closure.basis, ExactMatrix.from_rows([unit])]).rref()
        while True:
            grown = vstack([span] + [span @ ad for ad in ads]).rref()
            if grown.rows == span.rows:
                break
            span = grown
        closure = Subspace(dim, span)
    return tuple(chosen)


def stabiliser_in_so(model: ExtendedFlatModel, Sp: Subspace) -> Subspace:
    """{A in so(V) : A . S' is contained in S'}."""
    return _stabiliser(model.gens.sigma, model.dim_so, Sp)


def _on_rows(mats: Sequence[ExactMatrix], W: ExactMatrix) -> ExactMatrix:
    """Row k W.rows + b: the k-th matrix on the b-th row of W, one product
    over the stacked transposes."""
    return kron(ExactMatrix.identity(len(mats)), W) @ vstack(
        [ExactMatrix(0, W.cols)] + [m.transpose() for m in mats])


def _stabiliser(mats: Sequence[ExactMatrix], dim: int,
                Sp: Subspace) -> Subspace:
    """The c with sum_k c_k mats[k] preserving S': the combinations that
    annihilate every residual modulo S' of the images m_k s, each image
    less its pivot coordinates times the RREF basis."""
    if dim == 0:
        return Subspace.trivial(0)
    images = _on_rows(mats, Sp.basis)
    residual = images - images.select_columns(
        Sp.basis.pivot_columns()) @ Sp.basis
    return _per_element(residual, dim).transpose().kernel()


def random_subspace(ambient_dim: int, dim: int, seed: int,
                    coeff_bound: int = 3) -> Subspace:
    """Seeded random subspace of the requested dimension (retry on rank loss)."""
    if not 0 <= dim <= ambient_dim:
        raise DimensionMismatch(f"no {dim}-dimensional subspace of a "
                                f"{ambient_dim}-dimensional space")
    rnd = random.Random(seed)
    while True:
        vectors = [[rnd.randint(-coeff_bound, coeff_bound)
                    for _ in range(ambient_dim)] for _ in range(dim)]
        sub = Subspace.from_vectors(ambient_dim, vectors)
        if sub.dim == dim:
            return sub


def full_subalgebra(model: ExtendedFlatModel) -> GradedSubalgebra:
    return make_graded_subalgebra(model,
                                  Subspace.full(model.dim_v),
                                  Subspace.full(model.dim_s),
                                  Subspace.full(model.dim_so),
                                  Subspace.full(model.dim_r))


# ---------------------------------------------------------------------------
# faithful splitting of r'
# ---------------------------------------------------------------------------


def faithful_split(rp: EndoSubalgebra,
                   Sp: Subspace) -> Tuple[EndoSubalgebra, EndoSubalgebra]:
    """Split r' = r'' + ann(S') as a direct sum of ideals, r'' acting
    faithfully on S'.

    The inner product is the negated trace form of the action on S; it must
    be positive-definite (checked by exact LDL^T pivots), which is the
    compactness hypothesis.  Each membership certificate is one product:
    the basis on S', and the commutators of the bases.
    """
    ns = rp.spinor_dim
    if Sp.ambient_dim != ns:
        raise DimensionMismatch("S' lives in the wrong spinor module")
    # row m dim S' + b: the m-th basis element of r' on s_b
    on_sp = _on_rows(rp.matrices, Sp.basis)
    _require([("r' does not preserve S'", Sp, on_sp, 1)])
    k = rp.dim
    if k == 0:
        return rp, EndoSubalgebra.from_matrices(ns, [])
    gram = ExactMatrix(k, k, [(i, j, -(rp.matrices[i] @ rp.matrices[j]).trace())
                              for i in range(k) for j in range(k)])
    if not is_positive_definite(gram):
        raise NotCompactForm("negated trace form on r' is not positive-definite")
    # annihilator of S' inside r'
    ann_coords = _per_element(on_sp, k).transpose().kernel()
    # orthogonal complement of the annihilator under the trace form
    if ann_coords.dim == 0:
        rpp_coords = Subspace.full(k)
    else:
        rpp_coords = (gram @ ann_coords.basis.transpose()).transpose().kernel()
    flat = rp.basis.basis
    ann = EndoSubalgebra(ns, (ann_coords.basis @ flat).row_space())
    rpp = EndoSubalgebra(ns, (rpp_coords.basis @ flat).row_space())
    # direct-sum and ideal certificates
    if rpp.dim + ann.dim != k or rpp.basis.intersect(ann.basis).dim != 0:
        raise NotClosed("r' does not split as r'' + ann")
    if rpp.dim and ann.dim:
        _require([("[r'', ann] is nonzero", Subspace.trivial(ns * ns),
                   commutator_rows(rpp.matrices, ann.basis.basis), 1)])
    # row m f + j: [a_m, b_j] for the m-th basis element a_m of r'
    _require([("ann is not an ideal of r'", ann.basis,
               commutator_rows(rp.matrices, ann.basis.basis), ann.dim),
              ("r'' is not an ideal of r'", rpp.basis,
               commutator_rows(rp.matrices, rpp.basis.basis), rpp.dim)])
    # r'' acts faithfully on S'
    if rpp.dim and _per_element(_on_rows(rpp.matrices, Sp.basis),
                                rpp.dim).rank() != rpp.dim:
        raise NotClosed("r'' fails to act faithfully on S'")
    return rpp, ann
