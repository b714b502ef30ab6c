"""Degree-2 (and the needed degree-4 fragment) Spencer complexes of graded
subalgebras, their cohomology, cocycle normalisation for the full model, and
the restriction-kernel space used by the admissibility theory.

Cochain coordinate layout (frozen; `spencerkit.BASIS_VERSION`): blocks in a
fixed component order, each block indexed source-major with the target
coordinate fastest.  Degree-2 blocks:

  p=1: ("lambda_so", V'), ("lambda_r", V')
  p=2: ("alpha", wedge2 V'), ("beta", V' x S'), ("gamma", sym2 S'),
       ("rho", sym2 S')
  p=3: ("vss", V' x sym2 S'), ("sss", sym3 S')

Degree-4 blocks: p=2: ("theta_so", wedge2 V'), ("theta_r", wedge2 V');
p=3: ("vvv", wedge3 V'), ("vvs", wedge2 V' x S'), ("vss_so", V' x sym2 S'),
("vss_r", V' x sym2 S').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (DimensionMismatch, KappaZero, NoEquivariantSplitting,
                     NotACocycle, NotHighlySusy, NotSymmetric,
                     OracleMismatch)
from .exactla import (AffineSolver, ExactMatrix, NoSolution, Subspace,
                      basis_vec, block_diag, kron, lincomb, pair_action,
                      pair_map, solve_affine, tensor_index_maps, vec_is_zero,
                      vec_scale, vstack, zero_vec)
from .flatmodel import (ExtendedFlatModel, GradedSubalgebra, full_subalgebra)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------


class CochainLayout:
    """Flat coordinates for a direct sum of Hom(source, target) blocks."""

    def __init__(self, blocks: Sequence[Tuple[str, int, int]]):
        self.blocks = tuple(blocks)  # (name, source_size, target_dim)
        self.offsets: Dict[str, int] = {}
        self.sizes: Dict[str, Tuple[int, int]] = {}
        acc = 0
        for name, src, tgt in self.blocks:
            self.offsets[name] = acc
            self.sizes[name] = (src, tgt)
            acc += src * tgt
        self.dim = acc

    def index(self, name: str, src: int, tgt: int) -> int:
        s, t = self.sizes[name]
        return self.offsets[name] + src * t + tgt

    def block_slice(self, name: str) -> Tuple[int, int]:
        src, tgt = self.sizes[name]
        off = self.offsets[name]
        return off, off + src * tgt

    def block_of(self, coeffs: Sequence[Fraction], name: str) -> tuple:
        lo, hi = self.block_slice(name)
        return tuple(coeffs[lo:hi])


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


class SpencerComplex:
    """Cochain bases and differentials for one graded subalgebra.

    `values` selects the coefficient module: "subalgebra" for values in the
    subalgebra itself, "full" for values in the whole extended flat model.
    """

    def __init__(self, subalgebra: GradedSubalgebra, degree: int,
                 values: str = "subalgebra"):
        if degree not in (2, 4):
            raise DimensionMismatch("only degrees 2 and 4 are built")
        if values not in ("subalgebra", "full"):
            raise ValueError(values)
        model = subalgebra.model
        if model.current.symmetry != "symmetric":
            # the cochain spaces here have symmetric spinor legs; the skew
            # (plain Lie algebra) analogue is a different complex
            raise NotSymmetric("Spencer complexes are built for symmetric "
                               "Dirac currents only")
        self.subalgebra = subalgebra
        self.degree = degree
        self.values = values
        self.model = model
        if values == "subalgebra":
            self.Wv, self.Ws = subalgebra.Vp, subalgebra.Sp
            self.Wso, self.Wr = subalgebra.h, subalgebra.rp
        else:
            self.Wv = Subspace.full(model.dim_v)
            self.Ws = Subspace.full(model.dim_s)
            self.Wso = Subspace.full(model.dim_so)
            self.Wr = Subspace.full(model.dim_r)
        self._precompute()
        self.layouts: Dict[int, CochainLayout] = {}
        self.differentials: Dict[int, ExactMatrix] = {}
        if degree == 2:
            self._build_degree2()
        else:
            self._build_degree4()
        self._verify_complex()

    # -- shared tables -------------------------------------------------------

    def _precompute(self):
        sub, model = self.subalgebra, self.model
        self.vvecs = sub.Vp.basis_vectors()
        self.svecs = sub.Sp.basis_vectors()
        self.nvp = len(self.vvecs)
        self.nsp = len(self.svecs)
        self.w2v = tensor_index_maps(self.nvp, "wedge2")
        self.s2 = tensor_index_maps(self.nsp, "sym2")
        self.s3 = tensor_index_maps(self.nsp, "sym3")
        self.dWv, self.dWs = self.Wv.dim, self.Ws.dim
        self.dWso, self.dWr = self.Wso.dim, self.Wr.dim
        self.Wv_vecs = self.Wv.basis_vectors()
        self.Ws_vecs = self.Ws.basis_vectors()
        self.Wso_vecs = self.Wso.basis_vectors()
        self.Wr_vecs = self.Wr.basis_vectors()
        self.Wso_so_mats = [model.so_matrix(c) for c in self.Wso_vecs]
        self.Wso_spin_mats = [model.spin_matrix(c) for c in self.Wso_vecs]
        self.Wr_mats = [model.r_matrix(c) for c in self.Wr_vecs]

        def coords_or_fail(space: Subspace, vecval, what: str):
            c = space.coordinates(vecval)
            if c is None:
                raise DimensionMismatch(
                    f"{what} leaves the coefficient module; "
                    "subalgebra closure must have been violated")
            return c

        # kappa(s_I, s_J) in V'-coordinates (source) and Wv-coordinates
        self.kappa_src: List[tuple] = []
        self.kappa_w: List[tuple] = []
        for (i, j) in self.s2.tuples:
            kv = model.kappa_vec(self.svecs[i], self.svecs[j])
            self.kappa_src.append(coords_or_fail(sub.Vp, kv, "kappa(S',S')"))
            self.kappa_w.append(coords_or_fail(self.Wv, kv, "kappa(S',S')"))
        # kappa(s_i, Ws_t) in Wv-coordinates
        self.kappa_sw = [[coords_or_fail(self.Wv,
                                         model.kappa_vec(self.svecs[i], w),
                                         "kappa(S', beta-value)")
                          for w in self.Ws_vecs] for i in range(self.nsp)]
        # so-valued targets acting on source basis vectors
        self.actV_so = [[coords_or_fail(self.Wv, m.apply(v), "h.V'")
                         for v in self.vvecs] for m in self.Wso_so_mats]
        self.actS_so = [[coords_or_fail(self.Ws, m.apply(s), "h.S'")
                         for s in self.svecs] for m in self.Wso_spin_mats]
        self.actS_r = [[coords_or_fail(self.Ws, m.apply(s), "r'.S'")
                        for s in self.svecs] for m in self.Wr_mats]

    # -- degree 2 -------------------------------------------------------------

    def _build_degree2(self):
        nvp, nsp = self.nvp, self.nsp
        lay1 = CochainLayout([("lambda_so", nvp, self.dWso),
                              ("lambda_r", nvp, self.dWr)])
        lay2 = CochainLayout([("alpha", self.w2v.size, self.dWv),
                              ("beta", nvp * nsp, self.dWs),
                              ("gamma", self.s2.size, self.dWso),
                              ("rho", self.s2.size, self.dWr)])
        lay3 = CochainLayout([("vss", nvp * self.s2.size, self.dWv),
                              ("sss", self.s3.size, self.dWs)])
        self.layouts = {1: lay1, 2: lay2, 3: lay3}
        self.differentials[1] = self._d21(lay1, lay2)
        self.differentials[2] = self._d22(lay2, lay3)

    def _d21(self, lay1: CochainLayout, lay2: CochainLayout) -> ExactMatrix:
        entries = []
        nvp, nsp = self.nvp, self.nsp
        parts = (("lambda_so", "gamma", self.dWso, self.actS_so),
                 ("lambda_r", "rho", self.dWr, self.actS_r))
        for a0 in range(nvp):
            for lam, sym, dW, actS in parts:
                for t in range(dW):
                    col = lay1.index(lam, a0, t)
                    # alpha component: lambda1(v)w - lambda1(w)v
                    pairs = self.w2v.tuples if lam == "lambda_so" else ()
                    for p, (a1, a2) in enumerate(pairs):
                        if a0 not in (a1, a2):
                            continue
                        b, sgn = (a2, 1) if a1 == a0 else (a1, -1)
                        for tv, c in enumerate(self.actV_so[t][b]):
                            if c:
                                entries.append((lay2.index("alpha", p, tv),
                                                col, sgn * c))
                    # beta component: +lambda(v).s
                    for i in range(nsp):
                        src = a0 * nsp + i
                        for ts, c in enumerate(actS[t][i]):
                            if c:
                                entries.append((lay2.index("beta", src, ts),
                                                col, c))
                    # gamma / rho component: -lambda(kappa(sI,sJ))
                    for p in range(self.s2.size):
                        c = self.kappa_src[p][a0]
                        if c:
                            entries.append((lay2.index(sym, p, t), col, -c))
        return _matrix_from(lay2.dim, lay1.dim, entries)

    def _d22(self, lay2: CochainLayout, lay3: CochainLayout) -> ExactMatrix:
        entries = []
        nvp, nsp = self.nvp, self.nsp
        s2, s3 = self.s2, self.s3

        def vss_row(b, p, tv):
            return lay3.index("vss", b * s2.size + p, tv)

        # alpha units: alpha(kappa(sI,sJ), v_b)
        for pa, (a1, a2) in enumerate(self.w2v.tuples):
            for tv in range(self.dWv):
                col = lay2.index("alpha", pa, tv)
                for p in range(s2.size):
                    k1, k2 = self.kappa_src[p][a1], self.kappa_src[p][a2]
                    if k1:
                        entries.append((vss_row(a2, p, tv), col, k1))
                    if k2:
                        entries.append((vss_row(a1, p, tv), col, -k2))
        # beta units
        for a in range(nvp):
            for i0 in range(nsp):
                src = a * nsp + i0
                for ts in range(self.dWs):
                    col = lay2.index("beta", src, ts)
                    # vss: kappa(sI, beta(v_b, sJ)) + kappa(sJ, beta(v_b, sI))
                    for p, (i, j) in enumerate(s2.tuples):
                        if j == i0:
                            for tv, c in enumerate(self.kappa_sw[i][ts]):
                                if c:
                                    entries.append((vss_row(a, p, tv), col, c))
                        if i == i0:
                            for tv, c in enumerate(self.kappa_sw[j][ts]):
                                if c:
                                    entries.append((vss_row(a, p, tv), col, c))
                    # sss: cyclic beta(kappa(s_i, s_j), s_k)
                    for tri_idx, (i, j, k) in enumerate(s3.tuples):
                        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                            if z != i0:
                                continue
                            c = self.kappa_src[s2.index(x, y)][a]
                            if c:
                                entries.append(
                                    (lay3.index("sss", tri_idx, ts), col, c))
        # gamma units, then rho units
        for name, dW, actS in (("gamma", self.dWso, self.actS_so),
                               ("rho", self.dWr, self.actS_r)):
            for p0 in range(s2.size):
                for t in range(dW):
                    col = lay2.index(name, p0, t)
                    # vss: gamma(sI,sJ) v_b
                    for b in range(nvp if name == "gamma" else 0):
                        for tv, c in enumerate(self.actV_so[t][b]):
                            if c:
                                entries.append((vss_row(b, p0, tv), col, c))
                    # sss: cyclic gamma(s_i,s_j).s_k, rho likewise
                    for tri_idx, (i, j, k) in enumerate(s3.tuples):
                        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                            if s2.index(x, y) != p0:
                                continue
                            for ts, c in enumerate(actS[t][z]):
                                if c:
                                    entries.append((lay3.index(
                                        "sss", tri_idx, ts), col, c))
        return _matrix_from(lay3.dim, lay2.dim, entries)

    # -- degree 4 -------------------------------------------------------------

    def _build_degree4(self):
        nvp, nsp = self.nvp, self.nsp
        w3 = [(a, b, c) for a in range(nvp) for b in range(a + 1, nvp)
              for c in range(b + 1, nvp)]
        self._w3 = w3
        lay1 = CochainLayout([])
        lay2 = CochainLayout([("theta_so", self.w2v.size, self.dWso),
                              ("theta_r", self.w2v.size, self.dWr)])
        lay3 = CochainLayout([("vvv", len(w3), self.dWv),
                              ("vvs", self.w2v.size * nsp, self.dWs),
                              ("vss_so", nvp * self.s2.size, self.dWso),
                              ("vss_r", nvp * self.s2.size, self.dWr)])
        self.layouts = {1: lay1, 2: lay2, 3: lay3}
        self.differentials[1] = ExactMatrix(lay2.dim, 0)
        entries = []
        s2 = self.s2
        parts = (("so", self.dWso, self.actS_so), ("r", self.dWr, self.actS_r))
        for pa, (a1, a2) in enumerate(self.w2v.tuples):
            for part, dW, actS in parts:
                for t in range(dW):
                    col = lay2.index("theta_" + part, pa, t)
                    # vvv: theta(u,v)w + theta(v,w)u + theta(w,u)v
                    for tri_idx, (a, b, c) in enumerate(
                            w3 if part == "so" else ()):
                        terms = []
                        if (a, b) == (a1, a2):
                            terms.append((c, 1))
                        if (b, c) == (a1, a2):
                            terms.append((a, 1))
                        if (a, c) == (a1, a2):  # theta(c,a) = -theta(a,c)
                            terms.append((b, -1))
                        for (w, sgn) in terms:
                            for tv, cv in enumerate(self.actV_so[t][w]):
                                if cv:
                                    entries.append(
                                        (lay3.index("vvv", tri_idx, tv), col,
                                         sgn * cv))
                    # vvs: theta(u,v).s
                    for i in range(nsp):
                        src = pa * nsp + i
                        for ts, cv in enumerate(actS[t][i]):
                            if cv:
                                entries.append(
                                    (lay3.index("vvs", src, ts), col, cv))
                    # vss: theta(v_b, kappa(sI,sJ))
                    for b in range(nvp):
                        for p in range(s2.size):
                            coef = Fraction(0)
                            if b == a1:
                                coef += self.kappa_src[p][a2]
                            if b == a2:
                                coef -= self.kappa_src[p][a1]
                            if coef:
                                entries.append((lay3.index(
                                    "vss_" + part, b * s2.size + p, t),
                                    col, coef))
        self.differentials[2] = _matrix_from(lay3.dim, lay2.dim, entries)

    def _verify_complex(self):
        d1, d2 = self.differentials[1], self.differentials[2]
        if d1.cols and not (d2 @ d1).is_zero():
            raise OracleMismatch("differential does not square to zero")

    def cochain_dim(self, p: int) -> int:
        return self.layouts[p].dim


def _matrix_from(rows: int, cols: int, entries) -> ExactMatrix:
    acc: dict = {}
    for r, c, v in entries:
        key = (r, c)
        acc[key] = acc.get(key, Fraction(0)) + v
    return ExactMatrix(rows, cols, [(r, c, v) for (r, c), v in acc.items()])


def build_spencer_complex(subalgebra: GradedSubalgebra, degree: int,
                          values: str = "subalgebra") -> SpencerComplex:
    return SpencerComplex(subalgebra, degree, values)


def spencer_complex(subalgebra: GradedSubalgebra, degree: int,
                    values: str = "subalgebra") -> SpencerComplex:
    """The complex of (subalgebra, degree, values), built on first use and
    kept on the model; subalgebras with equal subspaces share it."""
    memo = subalgebra.model.spencer_complexes
    key = subalgebra.key + (degree, values)
    cx = memo.get(key)
    if cx is None:
        cx = memo[key] = build_spencer_complex(subalgebra, degree, values)
    return cx


# ---------------------------------------------------------------------------
# the a0-action on degree-2 cochains
# ---------------------------------------------------------------------------


def _coordinate_matrix(space: Subspace, images, what: str) -> ExactMatrix:
    """Matrix of an endomorphism of `space` from the images of its basis
    vectors: column j holds the coordinates of the j-th image."""
    entries = []
    for j, v in enumerate(images):
        c = space.coordinates(v)
        if c is None:
            raise DimensionMismatch(f"action of X leaves {what}")
        entries.extend((i, j, x) for i, x in enumerate(c) if x)
    return ExactMatrix(space.dim, space.dim, entries)


def _hom_action(T: ExactMatrix, D: ExactMatrix) -> ExactMatrix:
    """phi -> T o phi - phi o D on one source-major Hom(source, target)
    block, for T acting on the target and D on the source."""
    return (kron(ExactMatrix.identity(D.rows), T) +
            kron(D.transpose().scale(-1), ExactMatrix.identity(T.rows)))


def cochain_action_matrix(cx: SpencerComplex, so_coords: Sequence[Fraction],
                          r_coords: Sequence[Fraction]) -> ExactMatrix:
    """Matrix of X.phi on C^{2,2} for X = (so element, r element).

    (X.phi)(args) = X.(phi(args)) - sum_k phi(..., X.arg_k, ...), with X
    acting on V-, S-, so- and r-valued targets by the action, the action,
    the commutator and the commutator respectively.
    """
    model, sub = cx.model, cx.subalgebra
    A_v = model.so_matrix(so_coords)
    a_s = model.r_matrix(r_coords)
    act_s = model.spin_matrix(so_coords) + a_s

    def r_coords_of(w):
        full = model.r.coordinates(a_s.commutator(model.r_matrix(w)))
        if full is None:
            raise DimensionMismatch("commutator leaves the R-symmetry algebra")
        return full

    # source-argument actions in source coordinates, then the target value
    # actions in target coordinates
    srcV = _coordinate_matrix(sub.Vp, (A_v.apply(v) for v in cx.vvecs), "V'")
    srcS = _coordinate_matrix(sub.Sp, (act_s.apply(s) for s in cx.svecs),
                              "S'")
    tgtV = _coordinate_matrix(cx.Wv, (A_v.apply(w) for w in cx.Wv_vecs),
                              "the V-target")
    tgtS = _coordinate_matrix(cx.Ws, (act_s.apply(w) for w in cx.Ws_vecs),
                              "the S-target")
    tgtSO = _coordinate_matrix(
        cx.Wso, (model.gens.so_coordinates(A_v.commutator(model.so_matrix(w)))
                 for w in cx.Wso_vecs), "the so-target")
    tgtR = _coordinate_matrix(cx.Wr, map(r_coords_of, cx.Wr_vecs),
                              "the r-target")
    on_vs = (kron(srcV, ExactMatrix.identity(cx.nsp)) +
             kron(ExactMatrix.identity(cx.nvp), srcS))
    on_s2 = pair_action(cx.s2, srcS)
    return block_diag([_hom_action(tgtV, pair_action(cx.w2v, srcV)),
                       _hom_action(tgtS, on_vs),
                       _hom_action(tgtSO, on_s2),
                       _hom_action(tgtR, on_s2)])


def subalgebra_action_matrices(cx: SpencerComplex) -> List[ExactMatrix]:
    """Action matrices on C^{2,2} for the h-basis then the r'-basis of the
    complex's subalgebra."""
    sub = cx.subalgebra
    model = cx.model
    out = []
    for i in range(sub.h.dim):
        out.append(cochain_action_matrix(cx, sub.h.basis.row_tuple(i),
                                         zero_vec(model.dim_r)))
    for i in range(sub.rp.dim):
        out.append(cochain_action_matrix(cx, zero_vec(model.dim_so),
                                         sub.rp.basis.row_tuple(i)))
    return out


# ---------------------------------------------------------------------------
# cochain views
# ---------------------------------------------------------------------------


class Cochain22:
    """Evaluation helpers for a degree-2, homological-degree-2 cochain."""

    def __init__(self, cx: SpencerComplex, coeffs: Sequence[Fraction]):
        if len(coeffs) != cx.layouts[2].dim:
            raise DimensionMismatch("coefficient vector has the wrong length")
        self.cx = cx
        self.coeffs = tuple(coeffs)
        self._lay = cx.layouts[2]

    def _tgt(self, name: str, src: int, dim: int) -> tuple:
        lay = self._lay
        off = lay.index(name, src, 0)
        return tuple(self.coeffs[off:off + dim])

    def alpha(self, a: int, b: int) -> tuple:
        """alpha(v_a, v_b) in Wv coordinates (source basis indices)."""
        if a == b:
            return zero_vec(self.cx.dWv)
        if a < b:
            return self._tgt("alpha", self.cx.w2v.index(a, b), self.cx.dWv)
        return vec_scale(self._tgt("alpha", self.cx.w2v.index(b, a),
                                   self.cx.dWv), -1)

    def beta(self, a: int, i: int) -> tuple:
        return self._tgt("beta", a * self.cx.nsp + i, self.cx.dWs)

    def gamma_pair(self, i: int, j: int) -> tuple:
        return self._tgt("gamma", self.cx.s2.index(i, j), self.cx.dWso)

    def rho_pair(self, i: int, j: int) -> tuple:
        return self._tgt("rho", self.cx.s2.index(i, j), self.cx.dWr)

    # bilinear evaluations on source-coordinate vectors
    def beta_vec(self, vcoords: Sequence[Fraction],
                 scoords: Sequence[Fraction]) -> tuple:
        return lincomb(((cv * cs, self.beta(a, i))
                        for a, cv in enumerate(vcoords) if cv
                        for i, cs in enumerate(scoords) if cs), self.cx.dWs)

    def gamma_vec(self, x: Sequence[Fraction],
                  y: Sequence[Fraction]) -> tuple:
        return self._sym_eval(self.gamma_pair, self.cx.dWso, x, y)

    def rho_vec(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple:
        return self._sym_eval(self.rho_pair, self.cx.dWr, x, y)

    def alpha_vec(self, x: Sequence[Fraction],
                  y: Sequence[Fraction]) -> tuple:
        return lincomb(((cx_ * cy, self.alpha(a, b))
                        for a, cx_ in enumerate(x) if cx_
                        for b, cy in enumerate(y) if cy), self.cx.dWv)

    def _sym_eval(self, pair_fn, dim, x, y) -> tuple:
        return lincomb(((ci * cj, pair_fn(i, j))
                        for i, ci in enumerate(x) if ci
                        for j, cj in enumerate(y) if cj), dim)

    def block(self, name: str) -> tuple:
        return self._lay.block_of(self.coeffs, name)

    def is_cocycle(self) -> bool:
        image = self.cx.differentials[2].apply(self.coeffs)
        return vec_is_zero(image)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


@dataclass
class CohomologyReport:
    bidegree: Tuple[int, int]
    dim_z: int
    dim_b: int
    dim_h: int
    cocycles: Subspace
    boundaries: Subspace
    representatives: tuple        # coefficient vectors, one per class
    action_matrices: tuple        # one dH x dH ExactMatrix per a0 generator

    def invariant_classes(self) -> list:
        """Coefficient vectors spanning the a0-invariant part of H."""
        if self.dim_h == 0:
            return []
        if not self.action_matrices:
            kernel = Subspace.full(self.dim_h)
        else:
            kernel = vstack(list(self.action_matrices)).kernel()
        dim = len(self.representatives[0])
        return [lincomb(zip(kernel.basis.row_tuple(k), self.representatives),
                        dim)
                for k in range(kernel.dim)]

    def to_json(self) -> dict:
        from .exactla import rat_str
        return {
            "bidegree": list(self.bidegree),
            "dimZ": self.dim_z,
            "dimB": self.dim_b,
            "dimH": self.dim_h,
            "representatives": [[rat_str(c) for c in r]
                                for r in self.representatives],
        }


def compute_cohomology(cx: SpencerComplex, p: int,
                       with_action: bool = True) -> CohomologyReport:
    """Z, B and H at homological degree p, with canonical representatives
    and the a0-action on H."""
    if p not in (1, 2):
        raise DimensionMismatch("only homological degrees 1 and 2 are built")
    d_out = cx.differentials[p]
    if p == 1:
        d_in = ExactMatrix(cx.layouts[1].dim, 0)
    else:
        d_in = cx.differentials[1]
    Z = d_out.kernel()
    B = d_in.column_space()
    # pivot columns are the greedy left-to-right independent columns, so
    # these are the Z-basis rows that extend B one new class at a time
    pivots = vstack([B.basis, Z.basis]).transpose().pivot_columns()
    reps = [Z.basis.row_tuple(c - B.dim) for c in pivots if c >= B.dim]
    actions = []
    if with_action and p == 2 and reps:
        gens = subalgebra_action_matrices(cx)
        solver = AffineSolver(vstack(
            [ExactMatrix.from_rows([r]) for r in reps] +
            ([B.basis] if B.dim else [])).transpose())
        for g in gens:
            cols = []
            for r in reps:
                sol = solver.solve(g.apply(r))
                if isinstance(sol, NoSolution):
                    raise OracleMismatch(
                        "a0-action does not preserve the cocycle space")
                cols.append(sol.x[:len(reps)])
            actions.append(ExactMatrix(len(reps), len(reps),
                                       [(i, j, cols[j][i])
                                        for j in range(len(reps))
                                        for i in range(len(reps))]))
    return CohomologyReport(
        bidegree=(cx.degree, p), dim_z=Z.dim, dim_b=B.dim,
        dim_h=Z.dim - B.dim, cocycles=Z, boundaries=B,
        representatives=tuple(reps), action_matrices=tuple(actions))


# ---------------------------------------------------------------------------
# the spinor-square splitting
# ---------------------------------------------------------------------------


@dataclass
class SpinorSquareSplitting:
    """A section of kappa on Sym^2 S: kappa o section = Id_V, with image an
    so(V)-invariant complement of ker kappa."""
    model: ExtendedFlatModel
    section: ExactMatrix          # sym2(S) x dim V, columns = section(e_b)
    projector: ExactMatrix        # onto ker kappa along the image
    r_equivariant: bool

    def apply(self, v: Sequence[Fraction]) -> tuple:
        return self.section.apply(v)


def build_splitting(model: ExtendedFlatModel) -> SpinorSquareSplitting:
    """Equivariant right inverse of kappa, computed by an exact affine solve.

    The constraints are kappa o section = Id and equivariance under every
    spin generator; equivariance under r is also requested and dropped (and
    reported) when the combined system is infeasible, which can happen when
    r is not semisimple.
    """
    if model.current.is_zero:
        raise KappaZero("the Dirac current vanishes identically")
    n = model.dim_v
    s2 = tensor_index_maps(model.dim_s, "sym2")
    kappa_mat = model.current.component_matrix()
    # unknowns x[b * s2 + P] = section(e_b)_P, a source-major Hom(V, Sym^2 S)
    # block; equivariance under (E, A) is A.section(e_b) - section(E e_b) = 0,
    # with E = 0 for r
    eye_n = ExactMatrix.identity(n)
    so_rows = [_hom_action(pair_action(s2, sig), e_mat)
               for e_mat, sig in zip(model.gens.e_mats, model.gens.sigma)]
    r_rows = [kron(eye_n, pair_action(s2, m)) for m in model.r.matrices]
    identity = [Fraction(1 if a == b else 0) for b in range(n)
                for a in range(n)]

    def solve(equivariance: List[ExactMatrix]):
        system = vstack([kron(eye_n, kappa_mat)] + equivariance)
        return solve_affine(system, identity + [Fraction(0)] *
                            (system.rows - len(identity)))

    sol = solve(so_rows + r_rows)
    r_equivariant = True
    if isinstance(sol, NoSolution):
        sol = solve(so_rows)
        r_equivariant = False
        if isinstance(sol, NoSolution):
            raise NoEquivariantSplitting(
                "no so(V)-equivariant section of kappa exists")
    section = ExactMatrix(s2.size, n, [(p, b, sol.x[b * s2.size + p])
                                       for b in range(n)
                                       for p in range(s2.size)
                                       if sol.x[b * s2.size + p]])
    projector = ExactMatrix.identity(s2.size) - (section @ kappa_mat)
    if not (projector @ projector - projector).is_zero():
        raise OracleMismatch("splitting projector is not idempotent")
    if not (kappa_mat @ projector).is_zero():
        raise OracleMismatch("projector does not map onto ker kappa")
    return SpinorSquareSplitting(model=model, section=section,
                                 projector=projector,
                                 r_equivariant=r_equivariant)


# ---------------------------------------------------------------------------
# normalised cocycles of the full model
# ---------------------------------------------------------------------------


@dataclass
class NormalisedCocycle:
    """A cocycle of the full model with zero alpha component and rho
    vanishing on the section image."""
    cochain: Cochain22

    @property
    def coeffs(self) -> tuple:
        return self.cochain.coeffs

    def to_json(self) -> dict:
        from .exactla import rat_str
        return {"coefficients": [rat_str(c) for c in self.coeffs]}


class FullModelCohomology:
    """Degree-2 Spencer data of the full extended flat model: the complex,
    the splitting and the space of normalised cocycles.  The invariant
    normalised space per (h, r') basis and the restriction-kernel report per
    subalgebra are computed once and kept here."""

    def __init__(self, model: ExtendedFlatModel):
        self.model = model
        self.full_subalgebra = full_subalgebra(model)
        self.complex = spencer_complex(self.full_subalgebra, 2)
        self.splitting = build_splitting(model)
        self.normalised_space = self._normalised_space()
        self._invariant: Dict[tuple, Subspace] = {}
        self.restriction_kernels: Dict[tuple, "RestrictionKernelReport"] = {}

    def _normalised_space(self) -> Subspace:
        cx = self.complex
        lay = cx.layouts[2]
        d22 = cx.differentials[2]
        rows: List[ExactMatrix] = [d22]
        # alpha block must vanish
        lo, hi = lay.block_slice("alpha")
        sel = ExactMatrix(hi - lo, lay.dim, [(i, lo + i, 1)
                                             for i in range(hi - lo)])
        rows.append(sel)
        # rho o section must vanish
        if cx.dWr:
            n = self.model.dim_v
            entries = []
            for b in range(n):
                col_b = [self.splitting.section.entry(p, b)
                         for p in range(cx.s2.size)]
                for t in range(cx.dWr):
                    for p, c in enumerate(col_b):
                        if c:
                            entries.append((b * cx.dWr + t,
                                            lay.index("rho", p, t), c))
            rows.append(_matrix_from(n * cx.dWr, lay.dim, entries))
        return vstack(rows).kernel()

    def normalise(self, coeffs: Sequence[Fraction]):
        """Unique normalised representative of a cocycle's class, plus the
        coboundary witness lambda with z - normalised = d(lambda)."""
        cx = self.complex
        lay2, lay1 = cx.layouts[2], cx.layouts[1]
        z = Cochain22(cx, coeffs)
        if not z.is_cocycle():
            raise NotACocycle("input is not a degree-2 Spencer cocycle")
        d21 = cx.differentials[1]
        # solve alpha(lambda_so) = alpha-block, rho(lambda_r) corrects rho_V
        lo, hi = lay2.block_slice("alpha")
        alpha_rows = ExactMatrix(hi - lo, lay1.dim,
                                 [(r - lo, c, v)
                                  for (r, c), v in _matrix_entries(d21)
                                  if lo <= r < hi])
        sol = solve_affine(alpha_rows, list(coeffs[lo:hi]))
        if isinstance(sol, NoSolution):
            raise OracleMismatch("alpha component is not a coboundary")
        lam = list(sol.x)
        # lambda_r = -(rho o section)
        if cx.dWr:
            section_cols = self.splitting.section.transpose()
            for b in range(self.model.dim_v):
                img = lincomb(((c, z.rho_pair(*cx.s2.tuples[p]))
                               for p, c in section_cols.row_dict(b).items()),
                              cx.dWr)
                for t in range(cx.dWr):
                    lam[lay1.index("lambda_r", b, t)] = -img[t]
        correction = d21.apply(lam)
        normalised = tuple(c - d for c, d in zip(coeffs, correction))
        if not self.normalised_space.contains(normalised):
            raise OracleMismatch("normalisation left the normalised space")
        return NormalisedCocycle(Cochain22(cx, normalised)), tuple(lam)

    def invariant_normalised(self, h_basis: Sequence[Sequence[Fraction]],
                             rp_basis: Sequence[Sequence[Fraction]]
                             ) -> Subspace:
        """Normalised cocycles annihilated on the nose by every generator.

        The kernel is computed from the beta and rho coordinates of the
        action; gamma-invariance is implied and re-verified exactly.
        """
        key = (tuple(map(tuple, h_basis)), tuple(map(tuple, rp_basis)))
        if key not in self._invariant:
            self._invariant[key] = self._invariant_normalised(*key)
        return self._invariant[key]

    def _invariant_normalised(self, h_basis, rp_basis) -> Subspace:
        cx = self.complex
        lay = cx.layouts[2]
        basis = self.normalised_space
        if basis.dim == 0:
            return basis
        actors = [(h, zero_vec(self.model.dim_r)) for h in h_basis] + \
                 [(zero_vec(self.model.dim_so), r) for r in rp_basis]
        if not actors:
            return basis
        picked = [*range(*lay.block_slice("beta")),
                  *range(*lay.block_slice("rho"))]
        stacked = []
        action_mats = []
        for so_c, r_c in actors:
            act = cochain_action_matrix(cx, so_c, r_c)
            action_mats.append(act)
            # the beta and rho rows of the action on each basis vector
            acted = act @ basis.basis.transpose()
            stacked.append(ExactMatrix(len(picked), basis.dim, [
                (i, k, v) for i, row in enumerate(picked)
                for k, v in acted.row_dict(row).items()]))
        kernel = vstack(stacked).kernel()
        basis_vecs = basis.basis_vectors()
        vectors = [lincomb(zip(kernel.basis.row_tuple(k), basis_vecs), lay.dim)
                   for k in range(kernel.dim)]
        # gamma-invariance is implied by beta-invariance: verify on the nose
        for v in vectors:
            for act in action_mats:
                if not vec_is_zero(act.apply(v)):
                    raise OracleMismatch(
                        "beta/rho-invariant cocycle fails full invariance")
        return Subspace.from_vectors(lay.dim, vectors)


def _matrix_entries(m: ExactMatrix):
    for i in range(m.rows):
        for j, v in m.row_dict(i).items():
            yield (i, j), v


# ---------------------------------------------------------------------------
# restriction and inclusion of cochains
# ---------------------------------------------------------------------------


def restriction_matrix(full_cx: SpencerComplex,
                       mixed_cx: SpencerComplex) -> ExactMatrix:
    """Pull-back of full-model cochains along the inclusion of a graded
    subalgebra: C^{2,2}(model; model) -> C^{2,2}(subalgebra; model)."""
    if full_cx.values != "subalgebra" or not full_cx.subalgebra.maximal():
        raise DimensionMismatch("first complex must be the full model one")
    if mixed_cx.values != "full":
        raise DimensionMismatch("second complex must have full values")
    # the subalgebra's basis vectors as columns
    E_v = mixed_cx.subalgebra.Vp.basis.transpose()
    E_s = mixed_cx.subalgebra.Sp.basis.transpose()
    on_s2 = pair_map(full_cx.s2, mixed_cx.s2, E_s, E_s)
    sources = (pair_map(full_cx.w2v, mixed_cx.w2v, E_v, E_v),
               kron(E_v, E_s), on_s2, on_s2)
    # phi -> phi o M on each block
    return block_diag([kron(M.transpose(), ExactMatrix.identity(tgt))
                       for M, (_, _, tgt) in zip(sources,
                                                 full_cx.layouts[2].blocks)])


def inclusion_matrix(sub_cx: SpencerComplex,
                     mixed_cx: SpencerComplex) -> ExactMatrix:
    """Push-forward along the inclusion of the coefficient module:
    C^{2,2}(subalgebra; subalgebra) -> C^{2,2}(subalgebra; model)."""
    if sub_cx.values != "subalgebra" or mixed_cx.values != "full":
        raise DimensionMismatch("expected (subalgebra-, full-) valued pair")
    targets = (sub_cx.Wv, sub_cx.Ws, sub_cx.Wso, sub_cx.Wr)
    # phi -> T o phi on each block, T the target basis vectors as columns
    return block_diag([kron(ExactMatrix.identity(src), W.basis.transpose())
                       for W, (_, src, _) in zip(targets,
                                                 sub_cx.layouts[2].blocks)])


# ---------------------------------------------------------------------------
# the restriction-kernel space K^{2,2}
# ---------------------------------------------------------------------------


@dataclass
class RestrictionKernelReport:
    """The two candidate descriptions of the restriction-kernel space.

    `direct` is the componentwise definition (beta vanishing on V x S' and
    rho on Sym^2 S'); `via_istar` is the kernel of the restriction map into
    the cohomology of the subalgebra with full values.  The direct space is
    always contained in the latter.  Equality holds in particular when the
    section of the Dirac current is compatible with S', but fails for some
    extended models (the containment is then strict), so the comparison is
    reported rather than asserted.
    """
    direct: Subspace
    via_istar: Subspace

    @property
    def equal(self) -> bool:
        return self.direct == self.via_istar


def restriction_kernel_report(sub: GradedSubalgebra,
                              fullco: FullModelCohomology
                              ) -> RestrictionKernelReport:
    """Both descriptions of the restriction-kernel space of `sub`, computed
    once per subalgebra and kept on `fullco`."""
    report = fullco.restriction_kernels.get(sub.key)
    if report is None:
        report = fullco.restriction_kernels[sub.key] = \
            _restriction_kernel_report(sub, fullco)
    return report


def _restriction_kernel_report(sub: GradedSubalgebra,
                               fullco: FullModelCohomology
                               ) -> RestrictionKernelReport:
    if not sub.highly_susy:
        raise NotHighlySusy("the restriction-kernel space needs a highly "
                            "supersymmetric subalgebra")
    model = sub.model
    cx = fullco.complex
    lay = cx.layouts[2]
    basis = fullco.normalised_space

    if basis.dim == 0:
        trivial = Subspace.trivial(lay.dim)
        return RestrictionKernelReport(trivial, trivial)
    basis_vecs = basis.basis_vectors()

    def expand(coeff):
        return lincomb(zip(coeff, basis_vecs), lay.dim)

    svecs = sub.Sp.basis_vectors()
    rows = []
    for k in range(basis.dim):
        z = Cochain22(cx, basis.basis.row_tuple(k))
        row: List[Fraction] = []
        for b in range(model.dim_v):
            for s in svecs:
                row.extend(z.beta_vec(basis_vec(model.dim_v, b), s))
        for i in range(len(svecs)):
            for j in range(i, len(svecs)):
                row.extend(z.rho_vec(svecs[i], svecs[j]))
        rows.append(row)
    conditions = ExactMatrix.from_rows(rows).transpose() if rows and rows[0] \
        else ExactMatrix(0, basis.dim)
    kernel = conditions.kernel()
    direct = Subspace.from_vectors(
        lay.dim, [expand(kernel.basis.row_tuple(k))
                  for k in range(kernel.dim)])
    # the kernel of i^* into H^{2,2}(a_-; model)
    from .exactla import hstack
    mixed = spencer_complex(sub, 2, values="full")
    restrict = restriction_matrix(cx, mixed)
    lifted = restrict @ basis.basis.transpose()   # columns = restrictions
    joint = hstack([lifted, mixed.differentials[1]])
    ker = joint.kernel()
    vecs2 = []
    for k in range(ker.dim):
        coeff = ker.basis.row_tuple(k)[:basis.dim]
        if not vec_is_zero(coeff):
            vecs2.append(expand(coeff))
    via_istar = Subspace.from_vectors(lay.dim, vecs2)
    if not via_istar.contains_subspace(direct):
        raise OracleMismatch("componentwise restriction kernel is not "
                             "contained in ker(i^*); implementation bug")
    return RestrictionKernelReport(direct=direct, via_istar=via_istar)


def restriction_kernel(sub: GradedSubalgebra,
                       fullco: FullModelCohomology) -> Subspace:
    """Normalised cocycles whose beta vanishes on V x S' and rho on
    Sym^2 S'; the comparison with ker(i^*) is available through
    restriction_kernel_report."""
    return restriction_kernel_report(sub, fullco).direct

