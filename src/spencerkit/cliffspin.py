"""Real Clifford representations, spin generators and Dirac currents.

Conventions (recorded in every report header):
  * the metric is eta = diag(-1, ..., -1, +1, ..., +1) with the t timelike
    directions first; Lorentzian means t = 1 and index 0 is timelike;
  * "causal" means eta(v, v) <= 0.

gamma matrices are produced by a deterministic tensor-product recursion with
rational (in fact half-integer) entries, so every downstream computation stays
in exact arithmetic.  The construction realises every signature, though not
always on the minimal real spinor module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence

from .certs import Certificate, ProbeReport
from .errors import (DimensionMismatch, NoInvariantPairing, NoRealForm,
                     NotEquivariant, NotLorentzian, NotSymmetric)
from .exactla import (ExactMatrix, Subspace, block_diag, kron, rat_str,
                      scaled_rows, tensor_index_maps, vstack)

CONVENTION = ("eta = diag(-1 x t, +1 x s), timelike directions first; "
              "causal means eta(v,v) <= 0")

_EPS = ExactMatrix.from_rows([[0, 1], [-1, 0]])
_TAU1 = ExactMatrix.from_rows([[1, 0], [0, -1]])
_TAU2 = ExactMatrix.from_rows([[0, 1], [1, 0]])


@dataclass(frozen=True)
class Signature:
    """s spacelike (+1) and t timelike (-1) directions."""
    s: int
    t: int

    def __post_init__(self):
        if self.s < 0 or self.t < 0 or self.s + self.t < 1:
            raise NoRealForm(f"invalid signature ({self.s},{self.t})")

    @property
    def dim(self) -> int:
        return self.s + self.t

    @property
    def lorentzian(self) -> bool:
        return self.t == 1

    def eta(self) -> tuple:
        return tuple([Fraction(-1)] * self.t + [Fraction(1)] * self.s)


@lru_cache(maxsize=None)
def _base_rep(s: int, t: int):
    """Deterministic recursion; returns (dim, time_gammas, space_gammas)."""
    if s == 0 and t == 0:
        return 1, (), ()
    if s == 1 and t == 0:
        return 1, (), (ExactMatrix.from_rows([[1]]),)
    if s == 0 and t == 1:
        return 2, (_EPS,), ()
    if s >= 1 and t >= 1:
        m, times, spaces = _base_rep(s - 1, t - 1)
        ident = ExactMatrix.identity(m)
        new_times = (kron(_EPS, ident),) + tuple(kron(_TAU1, g) for g in times)
        new_spaces = tuple(kron(_TAU1, g) for g in spaces) + (kron(_TAU2, ident),)
        return 2 * m, new_times, new_spaces
    if t == 0:  # s >= 2: two extra spacelike directions on top of rep(0, s-2)
        m, times, spaces = _base_rep(0, s - 2)
        assert not spaces
        ident = ExactMatrix.identity(m)
        new_spaces = (kron(_TAU1, ident), kron(_TAU2, ident)) + \
            tuple(kron(_EPS, g) for g in times)
        return 2 * m, (), new_spaces
    # s == 0, t >= 2: two extra timelike directions on top of rep(0, t-2)
    m, times, spaces = _base_rep(0, t - 2)
    assert not spaces
    ident = ExactMatrix.identity(m)
    new_times = (kron(_EPS, kron(_TAU1, ident)),
                 kron(_EPS, kron(_TAU2, ident))) + \
        tuple(kron(_EPS, kron(_EPS, g)) for g in times)
    return 4 * m, new_times, ()


@dataclass(frozen=True)
class CliffordRep:
    signature: Signature
    N: int
    spinor_dim: int
    base_spinor_dim: int
    gammas: tuple  # one ExactMatrix per basis direction, timelike first

    @property
    def dim_v(self) -> int:
        return self.signature.dim

    def base_gammas(self) -> tuple:
        m = self.base_spinor_dim
        out = []
        for g in self.gammas:
            out.append(ExactMatrix(m, m, [(i, j, g.entry(i, j))
                                          for i in range(m) for j in range(m)
                                          if g.entry(i, j)]))
        return tuple(out)


def build_clifford_rep(sig: Signature, N: int = 1) -> CliffordRep:
    """Rational gamma matrices for `sig`, N-extended as diagonal blocks."""
    if N < 1:
        raise NoRealForm("extension multiplicity N must be >= 1")
    m, times, spaces = _base_rep(sig.s, sig.t)
    base = list(times) + list(spaces)
    if N == 1:
        gammas = tuple(base)
    else:
        gammas = tuple(block_diag([g] * N) for g in base)
    rep = CliffordRep(signature=sig, N=N, spinor_dim=m * N,
                      base_spinor_dim=m, gammas=gammas)
    _assert_clifford_relation(rep)
    return rep


def _assert_clifford_relation(rep: CliffordRep) -> None:
    eta = rep.signature.eta()
    n = rep.dim_v
    one = ExactMatrix.identity(rep.spinor_dim)
    for i in range(n):
        for j in range(i, n):
            anti = rep.gammas[i].anticommutator(rep.gammas[j])
            expected = one.scale(2 * eta[i]) if i == j else \
                ExactMatrix.zeros(rep.spinor_dim, rep.spinor_dim)
            if anti != expected:
                raise NoRealForm(
                    f"generated matrices violate the Clifford relation at ({i},{j})")


# ---------------------------------------------------------------------------
# so(V) and its spin realisation
# ---------------------------------------------------------------------------


class SpinGenerators:
    """Paired bases of so(V) acting on V and on S.

    E_ij (i<j) acts on V by E_ij e_b = e_i eta_jb - e_j eta_ib and is realised
    on spinors by sigma_ij = (1/4)[gamma_i, gamma_j].

    `chain` indexes the chain E_01, E_12, ..., E_{d-2,d-1} in `pairs`; it
    generates so(V) as a Lie algebra, since [E_ij, E_jk] = eta_jj E_ik for
    distinct i, j, k, so E_ik = eta_jj [E_ij, E_jk] with j = k - 1 builds
    every E_ik, i < k, from the chain by induction on k - i, and sigma
    brackets as E does.  A condition that is linear in the generator and
    closed under brackets, such as commuting with a matrix, preserving a
    bilinear form, or annihilating a vector of a representation, therefore
    holds on all of so(V) exactly when it holds on the chain, and its
    solution space is the same.
    """

    def __init__(self, rep: CliffordRep):
        n = rep.dim_v
        eta = rep.signature.eta()
        self.rep = rep
        self.pairs = tensor_index_maps(n, "wedge2").tuples
        self.e_mats: List[ExactMatrix] = []
        self.sigma: List[ExactMatrix] = []
        for (i, j) in self.pairs:
            self.e_mats.append(ExactMatrix(n, n, [(i, j, eta[j]),
                                                  (j, i, -eta[i])]))
            comm = rep.gammas[i].commutator(rep.gammas[j])
            self.sigma.append(comm.scale(Fraction(1, 4)))
        self.chain = tuple(self.pairs.index((i, i + 1))
                           for i in range(n - 1))

    def chain_sigma(self) -> List[ExactMatrix]:
        """sigma of the chain generators."""
        return [self.sigma[k] for k in self.chain]

    @property
    def dim(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=None)
def _spin_generators_cached(rep: CliffordRep) -> SpinGenerators:
    return SpinGenerators(rep)


def spin_generators(rep: CliffordRep) -> SpinGenerators:
    return _spin_generators_cached(rep)


# ---------------------------------------------------------------------------
# Dirac currents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracCurrent:
    """kappa: Sym^2 S -> V (or Wedge^2 S -> V), one component matrix per
    direction: kappa(x, y)^a = x^T K_a y."""
    rep: CliffordRep
    components: tuple  # K_a, each spinor_dim x spinor_dim
    symmetry: str      # "symmetric" | "skew"

    @property
    def is_zero(self) -> bool:
        return all(k.is_zero() for k in self.components)

    def component_matrix(self) -> ExactMatrix:
        """dim V x dim Sym^2 S matrix of kappa against the pair basis (dim V x
        dim Wedge^2 S for a skew current)."""
        ns = self.rep.spinor_dim
        table = tensor_index_maps(
            ns, "sym2" if self.symmetry == "symmetric" else "wedge2")
        n = self.rep.dim_v
        entries = []
        for col, (i, j) in enumerate(table.tuples):
            for a in range(n):
                v = self.components[a].entry(i, j)
                if v:
                    entries.append((a, col, v))
        return ExactMatrix(n, table.size, entries)

    @property
    def surjective(self) -> bool:
        return self.component_matrix().rank() == self.rep.dim_v


def _symmetry_of(components: Sequence[ExactMatrix]) -> str:
    symmetric = all(k == k.transpose() for k in components)
    skew = all(k == k.transpose().scale(-1) for k in components)
    if symmetric and not skew:
        return "symmetric"
    if skew and not symmetric:
        return "skew"
    if symmetric and skew:  # zero tensor: treat as symmetric
        return "symmetric"
    raise NotEquivariant("tensor is neither symmetric nor skew-symmetric")


def _base_block(rep: CliffordRep) -> CliffordRep:
    """The N = 1 block of rep, which is rep itself when N = 1 (so its spin
    generators are the kept ones)."""
    if rep.N == 1:
        return rep
    m = rep.base_spinor_dim
    return CliffordRep(rep.signature, 1, m, m, rep.base_gammas())


def _invariant_pairings(rep: CliffordRep) -> Subspace:
    """Solutions C of sigma^T C + C sigma = 0 with every C gamma_a symmetric,
    on the N = 1 base block.  The generators that preserve C form a Lie
    algebra, so the chain generators (SpinGenerators) give the same
    solutions as every sigma_ij."""
    m = rep.base_spinor_dim
    block = _base_block(rep)
    base = block.gammas
    gens = spin_generators(block)
    # the unknowns are C row-major, so kron(A, B) maps C to A C B^T
    eye = ExactMatrix.identity(m)
    skew = ExactMatrix.identity(m * m) - ExactMatrix(
        m * m, m * m, [(i * m + j, j * m + i, 1)
                       for i in range(m) for j in range(m)])
    return vstack(
        [kron(sig.transpose(), eye) + kron(eye, sig.transpose())
         for sig in gens.chain_sigma()] +
        [skew @ kron(eye, g.transpose()) for g in base]).kernel()


def _standard_pairing(rep: CliffordRep) -> ExactMatrix:
    """Deterministic choice of invariant pairing on the base block.

    Scans the canonical kernel basis (then cumulative sums of it) and takes
    the first candidate whose Dirac current is surjective, preferring one
    that also passes a short seeded causality probe in Lorentzian signature.
    """
    m = rep.base_spinor_dim
    sols = _invariant_pairings(rep)
    if sols.dim == 0:
        raise NoInvariantPairing(
            f"no invariant spinor pairing with symmetric current for "
            f"({rep.signature.s},{rep.signature.t})")
    full2 = tensor_index_maps(m, "full2")

    def mat_of(flat):
        return ExactMatrix(m, m, [(i, j, flat[full2.index(i, j)])
                                  for i in range(m) for j in range(m)
                                  if flat[full2.index(i, j)]])

    candidates = [mat_of(sols.basis.row_tuple(k)) for k in range(sols.dim)]
    running = None
    for k in range(sols.dim):
        running = candidates[k] if running is None else running + candidates[k]
        if k > 0:
            candidates.append(running)

    base_rep = _base_block(rep)
    surjective = []
    for c in candidates:
        cur = _current_from_pairing(base_rep, c)
        if cur.surjective:
            surjective.append(c)
    if not surjective:
        raise NoInvariantPairing(
            "every invariant pairing yields a degenerate current")
    if rep.signature.lorentzian:
        for c in surjective:
            cur = _current_from_pairing(base_rep, c)
            probe = causality_probe(cur, rep.signature, samples=64, seed=2)
            if probe.passed:
                return c
    return surjective[0]


def _current_from_pairing(rep: CliffordRep, pairing: ExactMatrix) -> DiracCurrent:
    eta = rep.signature.eta()
    comps = []
    for a, g in enumerate(rep.gammas):
        # raise the index: kappa^a = eta^{aa} x^T C gamma_a y
        comps.append((pairing @ g).scale(Fraction(1, 1) / eta[a]))
    return DiracCurrent(rep=rep, components=tuple(comps),
                        symmetry=_symmetry_of(comps))


def build_dirac_current(rep: CliffordRep, pairing="standard") -> DiracCurrent:
    """Construct an equivariant Dirac current.

    pairing is either "standard" (solve the invariance system on the base
    block, extend block-diagonally) or an explicit list of component
    matrices [K_0, ..., K_{d-1}] to be verified.
    """
    if pairing == "standard":
        base_pairing = _standard_pairing(rep)
        full_pairing = block_diag([base_pairing] * rep.N)
        current = _current_from_pairing(rep, full_pairing)
    else:
        comps = []
        for k in pairing:
            mat = k if isinstance(k, ExactMatrix) else ExactMatrix.from_rows(k)
            if mat.rows != rep.spinor_dim or mat.cols != rep.spinor_dim:
                raise DimensionMismatch("component matrix has the wrong shape")
            comps.append(mat)
        if len(comps) != rep.dim_v:
            raise DimensionMismatch("need one component matrix per direction")
        current = DiracCurrent(rep=rep, components=tuple(comps),
                               symmetry=_symmetry_of(comps))
    cert = check_equivariance(current, rep)
    if not cert.passed:
        raise NotEquivariant(cert.detail)
    return current


def check_equivariance(current: DiracCurrent, rep: CliffordRep) -> Certificate:
    """kappa(sigma x, y) + kappa(x, sigma y) = E.kappa(x, y) for the chain
    generators (SpinGenerators.chain), checked entrywise; the certificate
    carries the first failure.  The elements of so(V) that annihilate kappa
    under its Hom(S (x) S, V) action form a Lie algebra, so kappa is
    equivariant under all of so(V) exactly when it is under the chain."""
    if len(current.components) != rep.dim_v or any(
            k.rows != rep.spinor_dim for k in current.components):
        raise DimensionMismatch("current does not match representation")
    gens = spin_generators(rep)
    n = rep.dim_v
    for k in gens.chain:
        pair, sig_mat, e_mat = gens.pairs[k], gens.sigma[k], gens.e_mats[k]
        sig_t = sig_mat.transpose()
        for a in range(n):
            lhs = sig_t @ current.components[a] + current.components[a] @ sig_mat
            rhs = ExactMatrix.zeros(rep.spinor_dim, rep.spinor_dim)
            for b in range(n):
                coeff = e_mat.entry(a, b)
                if coeff:
                    rhs = rhs + current.components[b].scale(coeff)
            diff = lhs - rhs
            if not diff.is_zero():
                witness = next((i, j) for i in range(rep.spinor_dim)
                               for j in range(rep.spinor_dim)
                               if diff.entry(i, j))
                return Certificate(
                    False,
                    detail=(f"equivariance fails for generator E{pair}, "
                            f"component {a}, spinor pair {witness}"),
                    witness={"generator": pair, "component": a,
                             "entry": witness})
    return Certificate(True, detail="kappa is so(V)-equivariant")


# ---------------------------------------------------------------------------
# causality probing
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _sample_ints(seed: int, counter: int, dim: int) -> list:
    """Counter-based integer spinor sample with entries in [-9, 9];
    independent per counter."""
    key = (seed & _M64) << 1
    return [_splitmix64(key ^ _splitmix64(counter * dim + j)) % 19 - 9
            for j in range(dim)]


def _quadratic_form(K: ExactMatrix) -> dict:
    """x^T K x as {(i, j): c} over i <= j, without zero coefficients."""
    form: dict = {}
    for i in range(K.rows):
        for j, v in enumerate(K.row_tuple(i)):
            if v:
                pair = (i, j) if i <= j else (j, i)
                form[pair] = form.get(pair, 0) + v
    return {pair: c for pair, c in form.items() if c}


def causality_probe(current: DiracCurrent, sig: Signature,
                    samples: int = 1000, seed: int = 0) -> ProbeReport:
    """Sample eta(kappa_s, kappa_s) over pseudorandom integer spinors.

    Reports the first spacelike value found, if any.  This is explicitly a
    probe: it never proves causality.

    The components kappa^a(s, s) are quadratic forms in s, brought once per
    call over one common denominator L, so each sample is tested in integer
    arithmetic: L^2 eta(kappa_s, kappa_s) = sum_a eta_a (L kappa^a(s, s))^2.
    Only a counterexample's value is built as a rational, q / L^2.
    """
    if not sig.lorentzian:
        raise NotLorentzian("causality probe requires Lorentzian signature")
    if current.symmetry != "symmetric":
        raise NotSymmetric("causality probe requires a symmetric current")
    L, forms = scaled_rows(map(_quadratic_form, current.components))
    # eta = diag(-1 x t, +1 x s): the first t components are timelike
    signed = [(-1 if a < sig.t else 1, list(form.items()))
              for a, form in enumerate(forms)]
    dim = current.rep.spinor_dim
    counter = 0
    produced = 0
    while produced < samples:
        s = _sample_ints(seed, counter, dim)
        counter += 1
        if not any(s):
            continue
        produced += 1
        q = sum(eta * sum(c * s[i] * s[j] for (i, j), c in form) ** 2
                for eta, form in signed)
        if q > 0:
            return ProbeReport(
                probe="causality", samples=samples, seed=seed,
                counterexample={
                    "sample_index": produced - 1,
                    "spinor": [str(c) for c in s],
                    "eta_kappa_kappa": rat_str(Fraction(q, L * L)),
                })
    return ProbeReport(probe="causality", samples=samples, seed=seed)
