"""Schur and R-symmetry algebras, the extended flat model superalgebra, and
graded subalgebras with their closure and homogeneity checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .certs import Certificate
from .cliffspin import CliffordRep, DiracCurrent, spin_generators
from .errors import (DimensionMismatch, JacobiViolation, NotClosed,
                     NotCompactForm)
from .exactla import (ExactMatrix, Subspace, basis_vec, block_diag,
                      is_positive_definite, kron, lincomb, pair_map, rat_str,
                      scaled_rows, tensor_index_maps, vec_scale, vstack,
                      zero_vec)


# ---------------------------------------------------------------------------
# subalgebras of End(S)
# ---------------------------------------------------------------------------


class EndoSubalgebra:
    """A commutator-closed subspace of End(S), held by a canonical basis."""

    def __init__(self, spinor_dim: int, basis: Subspace):
        self.spinor_dim = spinor_dim
        self.basis = basis
        self.matrices: List[ExactMatrix] = [
            _unflatten(spinor_dim, basis.basis.row_tuple(i))
            for i in range(basis.dim)
        ]
        self.bracket_table: List[List[tuple]] = []
        for a in self.matrices:
            row = []
            for b in self.matrices:
                coords = self.coordinates(a.commutator(b))
                if coords is None:
                    raise NotClosed("endomorphism algebra not closed under "
                                    "commutator",
                                    witness=a.commutator(b).to_serialisable())
                row.append(coords)
            self.bracket_table.append(row)

    @classmethod
    def from_matrices(cls, spinor_dim: int,
                      matrices: Sequence[ExactMatrix]) -> "EndoSubalgebra":
        vectors = [_flatten(m) for m in matrices]
        return cls(spinor_dim, Subspace.from_vectors(spinor_dim ** 2, vectors))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def coordinates(self, mat: ExactMatrix) -> Optional[tuple]:
        return self.basis.coordinates(_flatten(mat))

    def contains(self, mat: ExactMatrix) -> bool:
        return self.coordinates(mat) is not None

    def matrix_of(self, coords: Sequence[Fraction]) -> ExactMatrix:
        out = ExactMatrix.zeros(self.spinor_dim, self.spinor_dim)
        for c, m in zip(coords, self.matrices):
            if c:
                out = out + m.scale(c)
        return out

    def bracket_coords(self, x: Sequence[Fraction],
                       y: Sequence[Fraction]) -> tuple:
        return lincomb(((xi * yj, self.bracket_table[i][j])
                        for i, xi in enumerate(x) if xi
                        for j, yj in enumerate(y) if yj), self.dim)

    def __repr__(self):
        return f"EndoSubalgebra(dim={self.dim}, on S^{self.spinor_dim})"


def _flatten(mat: ExactMatrix) -> tuple:
    return tuple(v for i in range(mat.rows) for v in mat.row_tuple(i))


def _unflatten(n: int, flat: Sequence[Fraction]) -> ExactMatrix:
    return ExactMatrix(n, n, [(i, j, flat[i * n + j])
                              for i in range(n) for j in range(n)
                              if flat[i * n + j]])


def compute_schur_algebra(rep: CliffordRep) -> EndoSubalgebra:
    """Canonical basis of the commutant of the spin generators in End(S):
    the kernel of a -> [a, sigma] for every spin generator sigma, on the
    row-major vec(a), with vec(a sigma) = (I (x) sigma^T) vec(a) and
    vec(sigma a) = (sigma (x) I) vec(a)."""
    ns = rep.spinor_dim
    eye = ExactMatrix.identity(ns)
    # the empty block keeps the column count when there is no generator
    system = vstack([ExactMatrix(0, ns * ns)] +
                    [kron(eye, sig.transpose()) - kron(sig, eye)
                     for sig in spin_generators(rep).sigma])
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
    algebra: [mat, sigma] = 0 for every spin generator and
    mat^T K + K mat = 0 for every component K of the current."""
    return all(mat @ sig == sig @ mat for sig in sigma) and \
        all((mat.transpose() @ K + K @ mat).is_zero() for K in components)


# ---------------------------------------------------------------------------
# graded bracket tensors and the super Jacobi identity
# ---------------------------------------------------------------------------


@dataclass
class GradedBracketTensor:
    """A bracket on a finite graded super vector space, as a full ordered
    table of sparse structure-constant vectors."""
    component_names: tuple      # e.g. ("V", "S", "so", "r")
    component_dims: tuple
    parities: tuple             # per flat basis index: 0 even, 1 odd
    degrees: Optional[tuple]    # per flat basis index, or None if filtered
    table: dict                 # (i, j) -> {k: Fraction}
    _matrix: Optional[ExactMatrix] = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def total_dim(self) -> int:
        return sum(self.component_dims)

    def matrix(self) -> ExactMatrix:
        """The table as one n x n^2 matrix M with [x, y] = M (x (x) y): its
        column i n + j holds [x_i, x_j].  Built on first use and kept."""
        if self._matrix is None:
            n = self.total_dim
            self._matrix = ExactMatrix(n, n * n, [
                (k, i * n + j, c) for (i, j), row in self.table.items()
                for k, c in row.items()])
        return self._matrix

    def offsets(self) -> tuple:
        out = []
        acc = 0
        for d in self.component_dims:
            out.append(acc)
            acc += d
        return tuple(out)

    def bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})


def _accumulate(acc: dict, coeffs: dict, rows: dict, scale: int) -> None:
    """acc += scale * sum_m coeffs[m] rows[m] on sparse integer vectors."""
    for m, c in coeffs.items():
        row = rows.get(m)
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

    Both passes read the table scaled once to integers over the lcm L of its
    denominators.  J is quadratic in the table, so L^2 J is evaluated in
    integer arithmetic, and a violation's defect is reported as the
    rational acc / L^2.  The scaled table lives only for the call.
    """
    n = tensor.total_dim
    par = tensor.parities
    deg = tensor.degrees
    L, rows = scaled_rows(tensor.table.values())
    table = dict(zip(tensor.table, rows))
    empty: dict = {}
    for i in range(n):
        for j in range(n):
            bij = table.get((i, j), empty)
            sign = -1 if (par[i] * par[j]) % 2 == 0 else 1
            bji = table.get((j, i), empty)
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
    # [x_i, x_m] = left[i][m] and [x_m, x_k] = right[k][m]
    left: list = [{} for _ in range(n)]
    right: list = [{} for _ in range(n)]
    for (i, j), row in table.items():
        left[i][j] = right[j][i] = row
    for i, j, k in jacobi_triples(par):
        sgn = -1 if (par[i] * par[j]) % 2 else 1
        acc: dict = {}
        _accumulate(acc, table.get((j, k), empty), left[i], 1)
        _accumulate(acc, table.get((i, j), empty), right[k], -1)
        _accumulate(acc, table.get((i, k), empty), left[j], -sgn)
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
        nv, ns, nso, nr = self.dim_v, self.dim_s, self.dim_so, self.dim_r
        off_s, off_so, off_r = self.off_s, self.off_so, self.off_r
        spar = 1 if self.odd_spinors else 0
        parities = tuple([0] * nv + [spar] * ns + [0] * (nso + nr))
        degrees = tuple([-2] * nv + [-1] * ns + [0] * (nso + nr))
        table: dict = {}

        def put(i, j, chunk):
            vecd = {k: v for k, v in chunk.items() if v}
            if vecd:
                table[(i, j)] = vecd

        gens = self.gens
        # [so, so]
        for a in range(nso):
            for b in range(nso):
                comm = gens.e_mats[a].commutator(gens.e_mats[b])
                coords = gens.so_coordinates(comm)
                put(off_so + a, off_so + b,
                    {off_so + k: c for k, c in enumerate(coords)})
        # [so, V] and [so, S]
        for a in range(nso):
            emat, smat = gens.e_mats[a], gens.sigma[a]
            for i in range(nv):
                put(off_so + a, i,
                    {k: emat.entry(k, i) for k in range(nv)})
                put(i, off_so + a,
                    {k: -emat.entry(k, i) for k in range(nv)})
            for i in range(ns):
                put(off_so + a, off_s + i,
                    {off_s + k: smat.entry(k, i) for k in range(ns)})
                put(off_s + i, off_so + a,
                    {off_s + k: -smat.entry(k, i) for k in range(ns)})
        # [r, r], [r, S]
        for p in range(nr):
            for q in range(nr):
                coords = self.r.bracket_table[p][q]
                put(off_r + p, off_r + q,
                    {off_r + k: c for k, c in enumerate(coords)})
            mat = self.r.matrices[p]
            for i in range(ns):
                put(off_r + p, off_s + i,
                    {off_s + k: mat.entry(k, i) for k in range(ns)})
                put(off_s + i, off_r + p,
                    {off_s + k: -mat.entry(k, i) for k in range(ns)})
        # [S, S] = kappa (symmetric current: symmetric bracket of odd elements;
        # skew current: antisymmetric bracket of even elements)
        for i in range(ns):
            for j in range(ns):
                val = self.current.value_basis(i, j)
                put(off_s + i, off_s + j, {a: val[a] for a in range(nv)})
        return GradedBracketTensor(
            component_names=("V", "S", "so", "r"),
            component_dims=(nv, ns, nso, nr),
            parities=parities, degrees=degrees, table=table)

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
            self._bracket_blocks[key] = self.tensor.matrix().select_rows(
                self._part(out)).select_columns(
                    [i * n + j for i in rows for j in cols])
        return self._bracket_blocks[key]

    # -- actions -------------------------------------------------------------

    def so_matrix(self, coords: Sequence[Fraction]) -> ExactMatrix:
        return self.gens.so_matrix(coords)

    def spin_matrix(self, coords: Sequence[Fraction]) -> ExactMatrix:
        return self.gens.spin_matrix(coords)

    def r_matrix(self, coords: Sequence[Fraction]) -> ExactMatrix:
        return self.r.matrix_of(coords)

    def to_json(self) -> dict:
        names = {"V": (self.off_v, self.dim_v), "S": (self.off_s, self.dim_s),
                 "A": (self.off_so, self.dim_so), "r": (self.off_r, self.dim_r)}
        out: dict = {"dims": self.dims, "odd_spinors": self.odd_spinors,
                     "brackets": {}}
        pairs = [("A", "A", "A", "AA"), ("A", "r", "r", "Ar"),
                 ("r", "r", "r", "rr"), ("A", "V", "V", "AV"),
                 ("A", "S", "S", "AS"), ("r", "V", "V", "rV"),
                 ("r", "S", "S", "rS"), ("S", "S", "V", "SS_V"),
                 ("S", "S", "A", "SS_A"), ("S", "S", "r", "SS_r"),
                 ("V", "S", "S", "VS"), ("V", "V", "V", "VV")]
        for c1, c2, c3, key in pairs:
            o1, d1 = names[c1]
            o2, d2 = names[c2]
            o3, d3 = names[c3]
            tensor = []
            for i in range(d1):
                rows = []
                for j in range(d2):
                    chunk = self.tensor.bracket(o1 + i, o2 + j)
                    rows.append([rat_str(chunk.get(o3 + k, Fraction(0)))
                                 for k in range(d3)])
                tensor.append(rows)
            out["brackets"][key] = tensor
        return out


def build_extended_flat_model(rep: CliffordRep, current: DiracCurrent,
                              r: Optional[EndoSubalgebra] = None
                              ) -> ExtendedFlatModel:
    """Assemble the extended flat model and verify the graded Jacobi identity
    exhaustively before returning.  A Jacobi failure signals inconsistent
    inputs (for example a non-equivariant current)."""
    if r is None:
        r = compute_r_symmetry_algebra(compute_schur_algebra(rep), current)
    else:
        sigma = spin_generators(rep).sigma
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
    constants of h and r' in their own bases (h_brackets[k][l] holds the h
    coordinates of [h_k, h_l], rp_brackets likewise).  It is determined by
    the subspaces, so it takes no part in equality.

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
    h_brackets: tuple = field(repr=False, compare=False)
    rp_brackets: tuple = field(repr=False, compare=False)
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
    svecs = Sp.basis_vectors()
    # kappa(Sym^2 S') inside V'
    kappa_sp = kappa_restriction_matrix(model, Sp)
    kappas = kappa_sp.transpose()
    for p in range(kappas.rows):
        image = kappas.row_tuple(p)
        if not Vp.contains(image):
            raise NotClosed("kappa(S', S') leaves V'",
                            witness=[rat_str(c) for c in image])
    # h closed under commutator
    h_so = tuple(model.so_matrix(x) for x in h.basis_vectors())
    h_brackets = [[None] * h.dim for _ in range(h.dim)]
    for i, A in enumerate(h_so):
        for j in range(i, h.dim):
            comm = A.commutator(h_so[j])
            coords = h.coordinates(model.gens.so_coordinates(comm))
            if coords is None:
                raise NotClosed("h is not closed under the commutator",
                                witness=comm.to_serialisable())
            h_brackets[j][i] = vec_scale(coords, -1)
            h_brackets[i][j] = coords
    # r' closed under commutator
    rp_brackets = [[None] * rp.dim for _ in range(rp.dim)]
    for i in range(rp.dim):
        for j in range(i, rp.dim):
            coords = model.r.bracket_coords(rp.basis.row_tuple(i),
                                            rp.basis.row_tuple(j))
            rp_coords = rp.coordinates(coords)
            if rp_coords is None:
                raise NotClosed("r' is not closed under the commutator",
                                witness=[rat_str(c) for c in coords])
            rp_brackets[j][i] = vec_scale(rp_coords, -1)
            rp_brackets[i][j] = rp_coords
    # h preserves V' and S'
    h_spin = tuple(model.spin_matrix(x) for x in h.basis_vectors())
    for A, AS in zip(h_so, h_spin):
        for v in Vp.basis_vectors():
            if not Vp.contains(A.apply(v)):
                raise NotClosed("h does not preserve V'",
                                witness=[rat_str(c) for c in A.apply(v)])
        for s in svecs:
            if not Sp.contains(AS.apply(s)):
                raise NotClosed("h does not preserve S'",
                                witness=[rat_str(c) for c in AS.apply(s)])
    # r' preserves S' (it acts trivially on V)
    rp_mats = tuple(model.r_matrix(x) for x in rp.basis_vectors())
    for a in rp_mats:
        for s in svecs:
            if not Sp.contains(a.apply(s)):
                raise NotClosed("r' does not preserve S'",
                                witness=[rat_str(c) for c in a.apply(s)])
    sub = GradedSubalgebra(model=model, Vp=Vp, Sp=Sp, h=h, rp=rp,
                           kappa_sp=kappa_sp, h_so=h_so, h_spin=h_spin,
                           rp_mats=rp_mats,
                           h_brackets=tuple(map(tuple, h_brackets)),
                           rp_brackets=tuple(map(tuple, rp_brackets)),
                           h_generators=lie_generating_subset(h_brackets),
                           rp_generators=lie_generating_subset(rp_brackets))
    sub.homogeneity_rank = kappa_sp.rank()
    sub.highly_susy = (2 * Sp.dim > model.dim_s
                       and Vp.dim == model.dim_v)
    # transitivity: h + r' acts faithfully on V' + S'
    ann_dim = _a0_annihilator_dim(sub)
    sub.transitive = sub.highly_susy and ann_dim == 0
    return sub


def lie_generating_subset(brackets: Sequence[Sequence[Sequence[Fraction]]]
                          ) -> tuple:
    """Indices of basis elements that generate the Lie algebra whose
    structure constants are brackets[k][l] (the coordinates of [x_k, x_l]).

    Greedy and exact: x_k is taken when it lies outside the subalgebra
    generated by the elements taken before it.  That subalgebra is the
    smallest subspace containing them and closed under their adjoint
    actions, since right-normed brackets of generators span it."""
    dim = len(brackets)
    chosen: List[int] = []
    closure = Subspace.trivial(dim)
    for k in range(dim):
        if closure.contains(basis_vec(dim, k)):
            continue
        chosen.append(k)
        vectors = closure.basis_vectors() + [basis_vec(dim, k)]
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


def _a0_annihilator_dim(sub: GradedSubalgebra) -> int:
    """Dimension of the annihilator of V' + S' inside h + r', which acts on
    V + S block-diagonally."""
    nv, ns = sub.model.dim_v, sub.model.dim_s
    mats = ([block_diag([A, AS]) for A, AS in zip(sub.h_so, sub.h_spin)] +
            [block_diag([ExactMatrix(nv, nv), a]) for a in sub.rp_mats])
    vectors = ([v + zero_vec(ns) for v in sub.Vp.basis_vectors()] +
               [zero_vec(nv) + s for s in sub.Sp.basis_vectors()])
    return _annihilator(mats, vectors).dim


def _annihilator(mats: Sequence[ExactMatrix],
                 vectors: Sequence[Sequence[Fraction]]) -> Subspace:
    """Coefficient vectors c with sum_k c_k m_k v = 0 for every v: the kernel
    of the system with one row per coordinate of the images m_k v."""
    rows = []
    for v in vectors:
        rows.extend(zip(*(m.apply(v) for m in mats)))
    return ExactMatrix.from_rows(rows, cols=len(mats)).kernel()


def stabiliser_in_so(model: ExtendedFlatModel, Sp: Subspace) -> Subspace:
    """{A in so(V) : A . S' is contained in S'}."""
    return _stabiliser(model.gens.sigma, model.dim_so, Sp)


def _stabiliser(mats: Sequence[ExactMatrix], dim: int,
                Sp: Subspace) -> Subspace:
    if dim == 0:
        return Subspace.trivial(0)
    ns = Sp.ambient_dim
    pivots = Sp.basis.pivot_columns()
    rows = []
    for s in Sp.basis_vectors():
        images = [m.apply(s) for m in mats]
        for k in range(dim):
            w = list(images[k])
            # residual of w modulo S' (RREF basis: subtract pivot coords)
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
    compactness hypothesis.
    """
    ns = rp.spinor_dim
    if Sp.ambient_dim != ns:
        raise DimensionMismatch("S' lives in the wrong spinor module")
    for a in rp.matrices:
        for s in Sp.basis_vectors():
            if not Sp.contains(a.apply(s)):
                raise NotClosed("r' does not preserve S'",
                                witness=[rat_str(c) for c in a.apply(s)])
    k = rp.dim
    if k == 0:
        return rp, EndoSubalgebra.from_matrices(ns, [])
    gram = ExactMatrix(k, k, [(i, j, -(rp.matrices[i] @ rp.matrices[j]).trace())
                              for i in range(k) for j in range(k)])
    if not is_positive_definite(gram):
        raise NotCompactForm("negated trace form on r' is not positive-definite")
    # annihilator of S' inside r'
    ann_coords = _annihilator(rp.matrices, Sp.basis_vectors())
    # orthogonal complement of the annihilator under the trace form
    if ann_coords.dim == 0:
        rpp_coords = Subspace.full(k)
    else:
        rows = [(gram @ ann_coords.basis.transpose()).transpose().row_tuple(i)
                for i in range(ann_coords.dim)]
        rpp_coords = ExactMatrix.from_rows(rows, cols=k).kernel()
    ann = EndoSubalgebra.from_matrices(
        ns, [rp.matrix_of(ann_coords.basis.row_tuple(i))
             for i in range(ann_coords.dim)])
    rpp = EndoSubalgebra.from_matrices(
        ns, [rp.matrix_of(rpp_coords.basis.row_tuple(i))
             for i in range(rpp_coords.dim)])
    # direct-sum and ideal certificates, entrywise
    if rpp.dim + ann.dim != k or rpp.basis.intersect(ann.basis).dim != 0:
        raise NotClosed("r' does not split as r'' + ann")
    for a in rpp.matrices:
        for b in ann.matrices:
            if not a.commutator(b).is_zero():
                raise NotClosed("[r'', ann] is nonzero",
                                witness=a.commutator(b).to_serialisable())
    for a in rp.matrices:
        for b in ann.matrices:
            if not ann.contains(a.commutator(b)):
                raise NotClosed("ann is not an ideal of r'")
        for b in rpp.matrices:
            if not rpp.contains(a.commutator(b)):
                raise NotClosed("r'' is not an ideal of r'")
    # r'' acts faithfully on S'
    if _annihilator(rpp.matrices, Sp.basis_vectors()).dim != 0:
        raise NotClosed("r'' fails to act faithfully on S'")
    return rpp, ann
