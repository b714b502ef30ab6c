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

Each differential is written row by row in that layout, with no Kronecker
product: a row is one int dict, filled from the index tables and from the
structure tables of `_precompute` (and kappa(S', .) on the beta-values),
each scaled once to the lcm of its row denominators, and closed by one
normalisation, so it is the canonical row of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .errors import (DimensionMismatch, KappaZero, NoEquivariantSplitting,
                     NotHighlySusy, NotSymmetric, OracleMismatch)
from .exactla import (ExactMatrix, HomAction, NoSolution, Subspace,
                      block_diag, coordinate_matrix, coordinate_rows, hstack,
                      kron, pair_action, pair_map, solve_affine,
                      tensor_index_maps, vec_is_zero, vstack)
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

    def block_slice(self, name: str) -> Tuple[int, int]:
        src, tgt = self.sizes[name]
        off = self.offsets[name]
        return off, off + src * tgt

    def indices(self, *names: str) -> list:
        """The coordinates of the named blocks, block after block."""
        return [i for name in names for i in range(*self.block_slice(name))]

    def values(self, name: str, cochains: ExactMatrix) -> ExactMatrix:
        """The block `name` of each row of `cochains`, one cochain per row,
        read as a target x source matrix, the cochains' blocks interleaved:
        column s C + c holds the value of the c-th cochain on the s-th
        source basis element, for C = cochains.rows."""
        src, tgt = self.sizes[name]
        lo = self.offsets[name]
        if not src:
            return ExactMatrix(tgt, 0)
        block = cochains.select_columns(range(lo, lo + src * tgt)).transpose()
        return hstack([block.select_rows(range(s * tgt, (s + 1) * tgt))
                       for s in range(src)])


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


class SpencerComplex:
    """Cochain bases and differentials for one graded subalgebra.

    `values` selects the coefficient module: "subalgebra" for values in the
    subalgebra itself, "full" for values in the whole extended flat model.
    On a maximal subalgebra the two modules coincide, and `spencer_complex`
    returns the subalgebra-valued complex for both.
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
        structure = self._precompute()
        self.layouts: Dict[int, CochainLayout] = {}
        self.differentials: Dict[int, ExactMatrix] = {}
        # the a0-action on C^{2,2} per h-then-r' basis index, built by
        # subalgebra_actions and generator_actions, and the cohomology per
        # homological degree, built by compute_cohomology
        self.actions: Dict[int, CochainAction] = {}
        self.cohomology: Dict[int, CohomologyReport] = {}
        if degree == 2:
            self._build_degree2(*structure)
        else:
            self._build_degree4(*structure)
        self._verify_complex()

    # -- structure matrices ---------------------------------------------------

    def _precompute(self):
        """Set the bases and index tables, and return the structure tables
        every differential is written from, each as ExactMatrix.int_rows
        gives it, (D, rows) with row i = rows[i] / D, and each certified to
        stay in its module by _coordinate_matrix:

        K^T (|sym2 S'| x nvp): row p is kappa(s_I, s_J) in V' coordinates;
        M_V (nvp dWv x dWso): column t is the t-th Wso element acting
            V' -> Wv, row b dWv + x its x-th coordinate on v_b;
        M_S^so (nsp dWs x dWso), M_S^r (nsp dWs x dWr): the same on S' -> Ws.
        """
        sub, model = self.subalgebra, self.model
        self.nvp, self.nsp = sub.Vp.dim, sub.Sp.dim
        self.w2v = tensor_index_maps(self.nvp, "wedge2")
        self.s2 = tensor_index_maps(self.nsp, "sym2")
        self.dWv, self.dWs = self.Wv.dim, self.Ws.dim
        self.dWso, self.dWr = self.Wso.dim, self.Wr.dim
        # the target bases of the so- and r-valued blocks, in so(V) + r
        # coordinates and as matrices
        so_rows = hstack([self.Wso.basis, ExactMatrix(self.dWso, model.dim_r)])
        r_rows = hstack([ExactMatrix(self.dWr, model.dim_so), self.Wr.basis])
        K = _coordinate_matrix(sub.Vp, sub.kappa_sp,
                               _CLOSURE.format("kappa(S',S')"))
        Vb, Sb = sub.Vp.basis, sub.Sp.basis
        M_V = _coordinate_matrix(self.Wv,
                                 model.element_images(so_rows, "V", Vb),
                                 _CLOSURE.format("h.V'"), self.nvp)
        M_Sso = _coordinate_matrix(self.Ws,
                                   model.element_images(so_rows, "S", Sb),
                                   _CLOSURE.format("h.S'"), self.nsp)
        M_Sr = _coordinate_matrix(self.Ws,
                                  model.element_images(r_rows, "S", Sb),
                                  _CLOSURE.format("r'.S'"), self.nsp)
        return tuple(m.int_rows() for m in (K.transpose(), M_V, M_Sso, M_Sr))

    def _wedge_piece(self, K: list, p: int, c: int, off: int, stride: int,
                     sign: int) -> tuple:
        """The piece (columns, values) that puts sign phi(v_c, kappa_p) on a
        wedge2 V' block whose wedge2 index q sits at column off + q stride:
        K[p] = (a's, values) is kappa_p = sum_a K[p][a] v_a, and
        phi(v_c, v_a) = +-phi_q for q = {c, a}, + when c < a."""
        index = self.w2v.index
        terms = [(off + index(c, a) * stride, v if c < a else -v)
                 for a, v in zip(*K[p]) if a != c]
        return (tuple(q for q, _ in terms),
                tuple(sign * v for _, v in terms))

    def _on_spinors(self, n: int, M_Sso: tuple, M_Sr: tuple,
                    r_off: int) -> list:
        """The rows of Phi -> Phi(x_q).s_i for Phi an so-valued block at
        column 0 plus an r-valued block at column r_off, both on n sources
        x_q: row (q, i, y) is the y-th Ws coordinate of
        (Phi_so(x_q) + Phi_r(x_q)).s_i."""
        L = lcm(M_Sso[0], M_Sr[0])
        Sso, Sr = _over(L, M_Sso), _over(L, M_Sr)
        rows = []
        for q in range(n):
            for so, r in zip(Sso, Sr):
                row = dict(_at(q * self.dWso, so))
                row.update(_at(r_off + q * self.dWr, r))
                rows.append((row, L))
        return rows

    # -- degree 2 -------------------------------------------------------------

    def _build_degree2(self, Kt, M_V, M_Sso, M_Sr):
        nvp, nsp, s2 = self.nvp, self.nsp, self.s2.size
        dWv, dWs, dWso, dWr = self.dWv, self.dWs, self.dWso, self.dWr
        lay1 = CochainLayout([("lambda_so", nvp, dWso),
                              ("lambda_r", nvp, dWr)])
        lay2 = CochainLayout([("alpha", self.w2v.size, dWv),
                              ("beta", nvp * nsp, dWs),
                              ("gamma", s2, dWso),
                              ("rho", s2, dWr)])
        s3 = tensor_index_maps(nsp, "sym3")
        lay3 = CochainLayout([("vss", nvp * s2, dWv),
                              ("sss", s3.size, dWs)])
        self.layouts = {1: lay1, 2: lay2, 3: lay3}
        # C (nsp dWv x dWs): block i is kappa(s_i, .): Ws -> Wv; row
        # (a, i) of the stack is s_i^T K_a Ws^T, reordered to (i, a)
        Sb, WsT = self.subalgebra.Sp.basis, self.Ws.basis.transpose()
        n = self.model.dim_v
        kappa_s = vstack([Sb @ K_a @ WsT
                          for K_a in self.model.current.components])
        C = _coordinate_matrix(
            self.Wv, kappa_s.select_rows([a * nsp + i for i in range(nsp)
                                          for a in range(n)]),
            _CLOSURE.format("kappa(S', beta-value)"), nsp).int_rows()
        lr = lay1.offsets["lambda_r"]
        rows = []
        # d(lambda)(v, w) = lambda(v)w - lambda(w)v
        L = M_V[0]
        MV, MV_neg = _over(L, M_V), _over(L, M_V, -1)
        for i, j in self.w2v.tuples:
            for x in range(dWv):
                row = dict(_at(i * dWso, MV[j * dWv + x]))
                row.update(_at(j * dWso, MV_neg[i * dWv + x]))
                rows.append((row, L))
        # d(lambda)(v, s) = lambda(v).s
        rows += self._on_spinors(nvp, M_Sso, M_Sr, lr)
        # d(lambda)(s, s) = -lambda(kappa(s, s)), at column off + a dW + t
        L = Kt[0]
        K = _over(L, Kt)
        for off, dW in ((0, dWso), (lr, dWr)):
            for cols, vals in K:
                piece = (tuple(off + a * dW for a in cols),
                         tuple(-v for v in vals))
                rows += [(dict(_at(t, piece)), L) for t in range(dW)]
        self.differentials[1] = _from_rows(lay2, lay1, rows)
        # vss: -alpha(v, kappa(s, s)) + kappa(s, beta(v, s)) symmetrised +
        # gamma(s, s)v; sss: the cyclic sums of beta(kappa(s, s), s),
        # gamma(s, s).s and rho(s, s).s
        ob, og, orho = (lay2.offsets[b] for b in ("beta", "gamma", "rho"))
        L = lcm(Kt[0], M_V[0], C[0])
        K, MV = _over(L, Kt), _over(L, M_V)
        Cs, Cs2 = _over(L, C), _over(L, C, 2)
        rows = []
        for c in range(nvp):
            for p, (I, J) in enumerate(self.s2.tuples):
                alpha = self._wedge_piece(K, p, c, 0, dWv, -1)
                bI = ob + (c * nsp + I) * dWs
                bJ = ob + (c * nsp + J) * dWs
                g = og + p * dWso
                for x in range(dWv):
                    row = dict(_at(x, alpha))
                    if I == J:
                        row.update(_at(bI, Cs2[I * dWv + x]))
                    else:
                        row.update(_at(bI, Cs[J * dWv + x]))
                        row.update(_at(bJ, Cs[I * dWv + x]))
                    row.update(_at(g, MV[c * dWv + x]))
                    rows.append((row, L))
        L = lcm(Kt[0], M_Sso[0], M_Sr[0])
        # by multiplicity 1, 2 or 3 of a leg
        K = [None] + [_over(L, Kt, mu) for mu in (1, 2, 3)]
        Sso = [None] + [_over(L, M_Sso, mu) for mu in (1, 2, 3)]
        Sr = [None] + [_over(L, M_Sr, mu) for mu in (1, 2, 3)]
        for m in s3.tuples:
            # each distinct leg z of m, with its multiplicity, the sym2
            # index p of the other two legs, and beta(kappa_p, s_z) at
            # column ob + (a nsp + z) dWs
            legs = []
            for z in sorted(set(m)):
                mu, p = m.count(z), self.s2.index(*_without(m, z))
                cols, vals = K[mu][p]
                legs.append((z * dWs, mu, p, (tuple(
                    ob + (a * nsp + z) * dWs for a in cols), vals)))
            for y in range(dWs):
                row = {}
                for zy, mu, p, beta in legs:
                    row.update(_at(y, beta))
                    row.update(_at(og + p * dWso, Sso[mu][zy + y]))
                    row.update(_at(orho + p * dWr, Sr[mu][zy + y]))
                rows.append((row, L))
        self.differentials[2] = _from_rows(lay3, lay2, rows)

    # -- degree 4 -------------------------------------------------------------

    def _build_degree4(self, Kt, M_V, M_Sso, M_Sr):
        nvp, nsp, w2 = self.nvp, self.nsp, self.w2v.size
        dWv, dWs, dWso, dWr = self.dWv, self.dWs, self.dWso, self.dWr
        w3 = tensor_index_maps(nvp, "wedge3")
        lay1 = CochainLayout([])
        lay2 = CochainLayout([("theta_so", w2, dWso),
                              ("theta_r", w2, dWr)])
        lay3 = CochainLayout([("vvv", w3.size, dWv),
                              ("vvs", w2 * nsp, dWs),
                              ("vss_so", nvp * self.s2.size, dWso),
                              ("vss_r", nvp * self.s2.size, dWr)])
        self.layouts = {1: lay1, 2: lay2, 3: lay3}
        self.differentials[1] = ExactMatrix(lay2.dim, 0)
        index, lr = self.w2v.index, lay2.offsets["theta_r"]
        rows = []
        # vvv: theta(u, v)w + theta(v, w)u + theta(w, u)v, theta(w, u) =
        # -theta(u, w)
        L = M_V[0]
        MV, MV_neg = _over(L, M_V), _over(L, M_V, -1)
        for i, j, k in w3.tuples:
            qi, qj, qk = (index(j, k) * dWso, index(i, k) * dWso,
                          index(i, j) * dWso)
            for x in range(dWv):
                row = dict(_at(qk, MV[k * dWv + x]))
                row.update(_at(qi, MV[i * dWv + x]))
                row.update(_at(qj, MV_neg[j * dWv + x]))
                rows.append((row, L))
        # vvs: theta(u, v).s
        rows += self._on_spinors(w2, M_Sso, M_Sr, lr)
        # vss: theta(v, kappa(s, s))
        L = Kt[0]
        K = _over(L, Kt)
        for off, dW in ((0, dWso), (lr, dWr)):
            for c in range(nvp):
                for p in range(self.s2.size):
                    theta = self._wedge_piece(K, p, c, off, dW, 1)
                    rows += [(dict(_at(t, theta)), L) for t in range(dW)]
        self.differentials[2] = _from_rows(lay3, lay2, rows)

    def _verify_complex(self):
        d1, d2 = self.differentials[1], self.differentials[2]
        if d1.cols and not (d2 @ d1).is_zero():
            raise OracleMismatch("differential does not square to zero")

    @property
    def model_valued(self) -> bool:
        """Whether the coefficient module is the whole model."""
        return self.values == "full" or self.subalgebra.maximal()


_CLOSURE = ("{} leaves the coefficient module; subalgebra closure must have "
            "been violated")


def _coordinate_matrix(space: Subspace, images: ExactMatrix, message: str,
                       stack: int = 1) -> ExactMatrix:
    """coordinate_matrix, raising DimensionMismatch(message) if a vector
    leaves `space`."""
    coords = coordinate_matrix(space, images, stack)
    if coords is None:
        raise DimensionMismatch(message)
    return coords


def _from_rows(out: CochainLayout, inp: CochainLayout,
               rows: list) -> ExactMatrix:
    """The out.dim x inp.dim differential whose rows, in the order of `out`,
    are (int dict, denominator) pairs."""
    if len(rows) != out.dim:
        raise DimensionMismatch(f"{len(rows)} rows written for a layout of "
                                f"dimension {out.dim}")
    return ExactMatrix.from_int_rows(inp.dim, rows)


def _over(L: int, table: tuple, k: int = 1) -> list:
    """The rows of a structure table (D, rows) times k over the denominator
    L, a multiple of D, each as a piece (columns, values) of two tuples."""
    D, rows = table
    f = k * (L // D)
    return [(tuple(r), tuple(v * f for v in r.values())) for r in rows]


def _at(off: int, piece: tuple):
    """The (column, value) pairs of a piece moved right by off columns."""
    cols, vals = piece
    return zip(map(off.__add__, cols), vals)


def _without(legs: tuple, z: int) -> tuple:
    """The sorted tuple `legs` with one copy of z taken out."""
    k = legs.index(z)
    return legs[:k] + legs[k + 1:]


def build_spencer_complex(subalgebra: GradedSubalgebra, degree: int,
                          values: str = "subalgebra") -> SpencerComplex:
    return SpencerComplex(subalgebra, degree, values)


def spencer_complex(subalgebra: GradedSubalgebra, degree: int,
                    values: str = "subalgebra") -> SpencerComplex:
    """The complex of (subalgebra, degree, values), built on first use and
    kept on the model; subalgebras with equal subspaces share it, and on a
    maximal subalgebra the model-valued complex is the subalgebra-valued
    one."""
    if values == "full" and subalgebra.maximal():
        values = "subalgebra"
    memo = subalgebra.model.spencer_complexes
    key = subalgebra.key + (degree, values)
    cx = memo.get(key)
    if cx is None:
        cx = memo[key] = build_spencer_complex(subalgebra, degree, values)
    return cx


# ---------------------------------------------------------------------------
# the a0-action on degree-2 cochains
# ---------------------------------------------------------------------------


def _hom_action(T: ExactMatrix, D: ExactMatrix) -> ExactMatrix:
    """phi -> T o phi - phi o D on one source-major Hom(source, target)
    block, for T acting on the target and D on the source."""
    return (kron(ExactMatrix.identity(D.rows), T) +
            kron(D.transpose().scale(-1), ExactMatrix.identity(T.rows)))


def _degree2_layout(cx: SpencerComplex) -> CochainLayout:
    if cx.degree != 2:
        raise DimensionMismatch(f"the a0-action is built on C^{{2,2}} only, "
                                f"not on the degree-{cx.degree} complex")
    return cx.layouts[2]


class CochainAction:
    """X.phi on C^{2,2} for X = (so element, r element), as an operator on
    cochains held as rows, one cochain per row.

    (X.phi)(args) = X.(phi(args)) - sum_k phi(..., X.arg_k, ...), with X
    acting on V-, S-, so- and r-valued targets by the action, the action,
    the commutator and the commutator respectively.  Each block of the
    layout is a Hom(source, target) block Phi, mapped to T Phi - Phi D for
    T the action on the target and D the one on the source; `hom` holds
    the four (T, D) pairs with their index tables, built once.
    `apply_rows` maps each row of a matrix through them, and `matrix`
    assembles the full matrix from the same pairs.
    """

    __slots__ = ("layout", "hom")

    def __init__(self, cx: SpencerComplex, so_coords: Sequence[Fraction],
                 r_coords: Sequence[Fraction]):
        row = ExactMatrix.from_rows([tuple(so_coords) + tuple(r_coords)])
        (on_v,) = cx.model.element_matrices(row, "V")
        (on_s,) = cx.model.element_matrices(row, "S")
        self._build(cx, row.transpose(), on_v, on_s)

    @classmethod
    def from_matrices(cls, cx: SpencerComplex, x: ExactMatrix,
                      on_v: ExactMatrix, on_s: ExactMatrix
                      ) -> "CochainAction":
        """The action of X with so(V) + r coordinates the column x and
        matrices on_v on V and on_s on S."""
        op = cls.__new__(cls)
        op._build(cx, x, on_v, on_s)
        return op

    def _build(self, cx, x, on_v, on_s) -> None:
        self.layout = _degree2_layout(cx)
        model, sub = cx.model, cx.subalgebra

        def endo(space: Subspace, images: ExactMatrix,
                 what: str) -> ExactMatrix:
            return _coordinate_matrix(space, images,
                                      f"action of X leaves {what}")

        # source-argument actions in source coordinates, then the target
        # value actions in target coordinates; on the so- and r-targets X
        # acts by ad X, read off the structure constants B of so(V) + r
        srcV = endo(sub.Vp, on_v @ sub.Vp.basis.transpose(), "V'")
        srcS = endo(sub.Sp, on_s @ sub.Sp.basis.transpose(), "S'")
        tgtV = endo(cx.Wv, on_v @ cx.Wv.basis.transpose(), "the V-target")
        tgtS = endo(cx.Ws, on_s @ cx.Ws.basis.transpose(), "the S-target")
        nso = model.dim_so
        ad = model.bracket_matrix("a0", "a0", "a0") @ kron(
            x, ExactMatrix.identity(x.rows))
        tgtSO = endo(cx.Wso, ad.select_rows(range(nso)).select_columns(
            range(nso)) @ cx.Wso.basis.transpose(), "the so-target")
        on_r = range(nso, x.rows)
        tgtR = endo(cx.Wr, ad.select_rows(on_r).select_columns(on_r)
                    @ cx.Wr.basis.transpose(), "the r-target")
        on_vs = (kron(srcV, ExactMatrix.identity(cx.nsp)) +
                 kron(ExactMatrix.identity(cx.nvp), srcS))
        on_s2 = pair_action(cx.s2, srcS)
        self.hom = HomAction(((tgtV, pair_action(cx.w2v, srcV)),
                              (tgtS, on_vs), (tgtSO, on_s2), (tgtR, on_s2)))

    def apply_rows(self, M: ExactMatrix) -> ExactMatrix:
        """X applied to each row of M, a C^{2,2} cochain per row."""
        if M.cols != self.layout.dim:
            raise DimensionMismatch("apply_rows: rows are not C^{2,2} "
                                    "cochains")
        return self.hom.apply_rows(M)

    def matrix(self) -> ExactMatrix:
        """The matrix of X on C^{2,2}, assembled with kron."""
        return block_diag([_hom_action(T, D) for T, D in self.hom.blocks])


def cochain_action_matrix(cx: SpencerComplex, so_coords: Sequence[Fraction],
                          r_coords: Sequence[Fraction]) -> ExactMatrix:
    """Matrix of X.phi on C^{2,2}: CochainAction(...).matrix()."""
    return CochainAction(cx, so_coords, r_coords).matrix()


def subalgebra_actions(cx: SpencerComplex) -> tuple:
    """The a0-action on C^{2,2} of the h-basis then the r'-basis of the
    complex's subalgebra, each operator built on first use and kept on the
    complex."""
    sub = cx.subalgebra
    return _actions(cx, range(sub.h.dim + sub.rp.dim))


def generator_actions(cx: SpencerComplex) -> Iterator[CochainAction]:
    """The operators of subalgebra_actions for the Lie generators of h and
    r' (GradedSubalgebra.h_generators, rp_generators) alone, each built when
    the iteration reaches it: an invariance check needs no more, and one
    that settles early builds no further operator.  h and r' generators
    alternate, h first, the rest of the longer list last: on the maximal
    (4,1,1), (3,1,2) and (5,1,1) cells CohomologyReport.invariant_classes
    then acts on 77, 63 and 166 rows and builds 5, 5 and 6 operators,
    against 79, 70 and 161 rows and 6, 5 and 8 operators h then r'."""
    _degree2_layout(cx)
    sub = cx.subalgebra
    h = sub.h_generators
    rp = tuple(sub.h.dim + p for p in sub.rp_generators)
    for k in _alternate(h, rp):
        yield _actions(cx, (k,))[0]


def _alternate(first: tuple, second: tuple) -> tuple:
    """first[0], second[0], first[1], second[1], ..., then the rest of the
    longer tuple."""
    n = min(len(first), len(second))
    return tuple(k for pair in zip(first, second) for k in pair) + \
        first[n:] + second[n:]


def _actions(cx: SpencerComplex, indices) -> tuple:
    """The operators of the h-then-r' basis elements at `indices`, each
    built on first use and kept in cx.actions."""
    _degree2_layout(cx)
    sub, model = cx.subalgebra, cx.model
    zero_v = ExactMatrix(model.dim_v, model.dim_v)
    X = sub.a0_basis()
    for k in indices:
        if k in cx.actions:
            continue
        x = X.select_columns([k])
        if k < sub.h.dim:
            op = CochainAction.from_matrices(cx, x, sub.h_so[k],
                                             sub.h_spin[k])
        else:
            op = CochainAction.from_matrices(cx, x, zero_v,
                                             sub.rp_mats[k - sub.h.dim])
        cx.actions[k] = op
    return tuple(cx.actions[k] for k in indices)


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

    def row(self) -> ExactMatrix:
        """The coefficients as a one-row matrix."""
        return ExactMatrix.from_rows([self.coeffs])

    def is_cocycle(self) -> bool:
        image = self.cx.differentials[2].apply(self.coeffs)
        return vec_is_zero(image)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


@dataclass
class CohomologyReport:
    """Z, B and H at one bidegree.  `rep_rows` are the rows of Z's basis
    that represent the classes, and `boundary_echelon` is the RREF of B's
    Z coordinates with the columns reversed, which compute_cohomology forms
    to pick them (see there): it reads the class of any cocycle."""
    bidegree: Tuple[int, int]
    dim_z: int
    dim_b: int
    dim_h: int
    cocycles: Subspace
    boundaries: Subspace
    rep_rows: tuple               # the cocycle basis rows, one per class
    boundary_echelon: ExactMatrix = field(repr=False, compare=False)
    complex: SpencerComplex = field(repr=False, compare=False)
    _invariant: Optional[list] = field(default=None, init=False, repr=False,
                                       compare=False)

    def _representative_rows(self) -> ExactMatrix:
        """The representatives as the rows of one matrix."""
        return self.cocycles.basis.select_rows(self.rep_rows)

    def class_reader(self) -> Callable[[ExactMatrix], ExactMatrix]:
        """A map from rows in Z coordinates to the coordinates of their
        classes on the representatives.  In the reversed columns the
        echelon's pivots sit at B's last-nonzero positions, the complement
        of rep_rows, and each pivot column is a unit column; so a row z
        less z at the pivots times the echelon is z's reduction modulo B,
        with zeros at the pivots, and its entries at rep_rows are the
        class coordinates, since there the representatives are the unit
        rows of Z coordinates."""
        E = self.boundary_echelon
        last = self.dim_z - 1
        pivots = E.pivot_columns()
        reps = [last - i for i in self.rep_rows]
        on_reps = E.select_columns(reps)

        def read(C: ExactMatrix) -> ExactMatrix:
            rev = C.select_columns(range(last, -1, -1))
            return rev.select_columns(reps) - \
                rev.select_columns(pivots) @ on_reps
        return read

    def invariant_classes(self) -> list:
        """Coefficient vectors spanning the a0-invariant part of H, computed
        on first read and kept on the report."""
        if self._invariant is None:
            self._invariant = self._invariant_classes()
        return self._invariant

    def _invariant_classes(self) -> list:
        """The classes annihilated by every Lie generator of a0, one
        generator at a time.  W holds, in class coordinates, a basis of the
        classes annihilated by the generators applied so far; the next
        generator acts on the rows W R alone (R the representatives), the
        acted rows are certified to lie in Z by coordinate_rows, their
        classes are read by class_reader, and W keeps the combinations
        whose classes vanish.  The action on H is a representation, so what
        the generators annihilate is the invariant part; after the last
        generator W spans the kernel of the generators' stacked action
        matrices on H.  W is that kernel's canonical basis, its RREF: it
        starts as the identity, and a product K W of RREF matrices is in
        RREF, since row i of K W has the entries of K at W's pivot columns,
        and nothing before the pivot of W's row that K's row i starts at.
        Once W is empty no further operator is built."""
        if self.dim_h == 0:
            return []
        Z = self.cocycles
        W = ExactMatrix.identity(self.dim_h)
        rows = self._representative_rows()
        if self.bidegree[1] == 2:
            read = self.class_reader()
            for op in generator_actions(self.complex):
                C = coordinate_rows(Z, op.apply_rows(rows))
                if C is None:
                    raise OracleMismatch(
                        "a0-action does not preserve the cocycle space")
                keep = read(C).transpose().kernel().basis
                if keep.rows == W.rows:
                    continue
                W, rows = keep @ W, keep @ rows
                if not W.rows:
                    return []
        classes = W @ self._representative_rows()
        return [classes.row_tuple(k) for k in range(classes.rows)]


def z_coordinates(Z: Subspace, rows: ExactMatrix) -> ExactMatrix:
    """The coordinates in Z of rows that lie in Z: against its RREF basis,
    their entries at its pivot columns."""
    return rows.select_columns(Z.basis.pivot_columns())


def compute_cohomology(cx: SpencerComplex, p: int) -> CohomologyReport:
    """Z, B and H at homological degree p, with canonical representatives,
    computed on first use and kept on the complex; the a0-invariant classes
    are the report's invariant_classes.

    The representatives are the Z basis rows each independent of B and of
    the Z rows before it.  In Z coordinates row i is e_i, and e_i lies in
    B + span(e_j : j < i) exactly when some vector of B has its last
    nonzero coordinate at i, so the representatives are the rows off the
    last-nonzero positions of B, read as the pivots of B's Z coordinates
    with the columns reversed.  B's Z coordinates are its entries at Z's
    pivot columns because B lies in Z, which _verify_complex certified
    (d_p d_{p-1} = 0) when the complex was built."""
    if p in cx.cohomology:
        return cx.cohomology[p]
    if p not in (1, 2):
        raise DimensionMismatch("only homological degrees 1 and 2 are built")
    d_out = cx.differentials[p]
    if p == 1:
        d_in = ExactMatrix(cx.layouts[1].dim, 0)
    else:
        d_in = cx.differentials[1]
    Z = d_out.kernel()
    B = d_in.column_space()
    echelon = z_coordinates(Z, B.basis).select_columns(
        range(Z.dim - 1, -1, -1)).rref()
    last = {Z.dim - 1 - c for c in echelon.pivot_columns()}
    rep_rows = tuple(i for i in range(Z.dim) if i not in last)
    cx.cohomology[p] = CohomologyReport(
        bidegree=(cx.degree, p), dim_z=Z.dim, dim_b=B.dim,
        dim_h=Z.dim - B.dim, cocycles=Z, boundaries=B,
        rep_rows=rep_rows, boundary_echelon=echelon, complex=cx)
    return cx.cohomology[p]


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


def build_splitting(full: GradedSubalgebra) -> SpinorSquareSplitting:
    """Equivariant right inverse of kappa on the model of the maximal
    subalgebra `full`, computed by an exact affine solve.

    The constraints are kappa o section = Id and equivariance under the Lie
    generators of so(V) (full.h_generators); equivariance under the
    generators of r (full.rp_generators) is also requested and dropped (and
    reported) when the combined system is infeasible, which can happen when
    r is not semisimple.

    Generators give the section that every basis element would.  A section
    is equivariant under X when X.section(v) = section(X v) for every v;
    that is linear in X, and holds for [X, Y] when it holds for X and Y,
    because both actions are representations.  So it holds under the
    algebra that the generators generate exactly when it holds under them,
    and the generator rows have the same affine solution set as the rows of
    every basis element, with r or without it.  One system is then feasible
    exactly when the other is, so the r-fallback is taken in the same
    cases.  The rows of the augmented RREF of a consistent system [A | b]
    span the affine relations that hold on its solution set, so equal
    solution sets give equal augmented RREFs, and the canonical solution,
    the section and the projector do not change.
    """
    if not full.maximal():
        raise DimensionMismatch("the splitting is built from the maximal "
                                "subalgebra's generators")
    model = full.model
    if model.current.is_zero:
        raise KappaZero("the Dirac current vanishes identically")
    n = model.dim_v
    s2 = tensor_index_maps(model.dim_s, "sym2")
    kappa_mat = model.current.component_matrix()
    # unknowns x[b * s2 + P] = section(e_b)_P, a source-major Hom(V, Sym^2 S)
    # block; equivariance under (E, A) is A.section(e_b) - section(E e_b) = 0,
    # with E = 0 for r
    eye_n = ExactMatrix.identity(n)
    so_rows = [_hom_action(pair_action(s2, full.h_spin[k]), full.h_so[k])
               for k in full.h_generators]
    r_rows = [kron(eye_n, pair_action(s2, full.rp_mats[k]))
              for k in full.rp_generators]
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


class FullModelCohomology:
    """Degree-2 Spencer data of the full extended flat model: the complex,
    its H^{2,2} report, the splitting and the space of normalised cocycles.
    The invariant normalised space per set of (h, r') generators and the
    restriction-kernel report per subalgebra are computed once and kept
    until clear_subalgebra_data."""

    def __init__(self, model: ExtendedFlatModel):
        self.model = model
        self.full_subalgebra = full_subalgebra(model)
        self.complex = spencer_complex(self.full_subalgebra, 2)
        self.h22 = compute_cohomology(self.complex, 2)
        self.splitting = build_splitting(self.full_subalgebra)
        self.normalised_space = self._normalised_space()
        self._invariant: Dict[tuple, Subspace] = {}
        self.restriction_kernels: Dict[tuple, "RestrictionKernelReport"] = {}

    def clear_subalgebra_data(self) -> None:
        """Drop the invariant normalised spaces and restriction-kernel
        reports kept per subalgebra, and keep the model-level data."""
        self._invariant.clear()
        self.restriction_kernels.clear()

    def _constraint_rows(self) -> Tuple[ExactMatrix, ExactMatrix]:
        """Rows over C^{2,2} that read off the alpha block, [I | 0], and
        rho o section, [0 | kron(section^T, I)]: alpha is the first block of
        the layout and rho the last."""
        cx = self.complex
        lay = cx.layouts[2]
        n_alpha = lay.block_slice("alpha")[1]
        rho_lo = lay.block_slice("rho")[0]
        rho_section = kron(self.splitting.section.transpose(),
                           ExactMatrix.identity(cx.dWr))
        return (hstack([ExactMatrix.identity(n_alpha),
                        ExactMatrix(n_alpha, lay.dim - n_alpha)]),
                hstack([ExactMatrix(rho_section.rows, rho_lo), rho_section]))

    def _normalised_space(self) -> Subspace:
        """Cocycles with alpha = 0 and rho o section = 0, the kernel of the
        constraint rows on Z mapped back through Z's basis, certified to
        complement the coboundaries: rank [B; N] = dim B + dim N = dim Z.
        The rank is taken in Z coordinates (z_coordinates), where [B; N] is
        square, and kept as self.split: B lies in Z by the certificate
        d2 d1 = 0 of every build, and N by construction."""
        Z, B = self.h22.cocycles, self.h22.boundaries
        on_z = vstack(self._constraint_rows()) @ Z.basis.transpose()
        N = Subspace(Z.ambient_dim, (on_z.kernel().basis @ Z.basis).rref())
        self.split = z_coordinates(Z, vstack([B.basis, N.basis]))
        rank = self.split.rank()
        if not rank == B.dim + N.dim == Z.dim:
            raise OracleMismatch(
                f"Z = B + N is not a direct sum: rank [B; N] = {rank}, "
                f"dim B + dim N = {B.dim + N.dim}, dim Z = {Z.dim}")
        return N

    def invariant_normalised(self, h_gens: Sequence[Sequence[Fraction]],
                             rp_gens: Sequence[Sequence[Fraction]]
                             ) -> Subspace:
        """Normalised cocycles annihilated on the nose by every given so and
        r element, kept per argument.  Pass Lie generators of h and r'
        (GradedSubalgebra.generator_coords): what they annihilate, their
        brackets annihilate too.  For the full subalgebra's own generators,
        while N is a submodule for them, the space is read off the kept
        invariant classes of H^{2,2} (_derived_invariant); for any other
        generators it is computed directly (_invariant_normalised).

        The direct kernel is computed from the beta and rho coordinates of
        the action alone; the alpha and gamma coordinates then vanish too.
        For X in a0 and a normalised cocycle phi, psi = X.phi is a cocycle,
        because d is a0-equivariant, and the action maps each block of the
        layout to itself, so alpha(psi) = X.alpha(phi) = 0.  With alpha,
        beta and rho of psi zero, the vss component of d(psi) = 0 (V' = V
        here) reads gamma_psi(s, s')v = 0 for every v in V, and so(V) acts
        faithfully on V, so gamma_psi = 0: psi = 0.
        """
        key = (tuple(map(tuple, h_gens)), tuple(map(tuple, rp_gens)))
        if key not in self._invariant:
            if self._reads_classes(key):
                self._invariant[key] = self._derived_invariant()
            else:
                self._invariant[key] = self._invariant_normalised(*key)
        return self._invariant[key]

    def _reads_classes(self, key: tuple) -> bool:
        """Whether N^{a0} for the generators `key` is read off the kept
        invariant classes: the generators are the full subalgebra's own,
        and N is a submodule for them.  The so(V) generators always keep N
        (the section is so(V)-equivariant), and the r generators keep it
        when the section is r-equivariant too."""
        h_gens, rp_gens = self.full_subalgebra.generator_coords()
        own = (tuple(map(tuple, h_gens)), tuple(map(tuple, rp_gens)))
        return key == own and (self.splitting.r_equivariant or not rp_gens)

    def _derived_invariant(self) -> Subspace:
        """N^{a0} read off the invariant part of H^{2,2}: the normalised
        representative of each invariant class, from the [B; N] basis of Z
        in Z coordinates (self.split), each certified to be annihilated on
        the nose by every Lie generator.

        Nothing is missed.  A generator X keeps N: it acts on each block of
        the layout, so alpha(X.phi) = X.alpha(phi) = 0, and on the rho block
        (X.rho)(sigma(v)) = [X, rho(sigma(v))] - rho(X.sigma(v)), with
        X.sigma(v) = sigma(X v) for the section sigma equivariant under X,
        so rho o sigma = 0 gives (X.rho) o sigma = 0.  B is a submodule (d
        is a0-equivariant) and Z = B + N is direct (certified above), so
        the projection Z -> H restricts to an isomorphism of a0-modules
        N -> H.  It maps N^{a0} onto H^{a0}, the classes the generators'
        action matrices annihilate, and the normalised representative of
        a class is its preimage.  The derived vectors are therefore a basis
        of N^{a0}, and its canonical RREF is the direct route's."""
        lay = self.complex.layouts[2]
        Z = self.h22.cocycles
        classes = self.h22.invariant_classes()
        if not classes:
            return Subspace.trivial(lay.dim)
        C = z_coordinates(Z, ExactMatrix.from_rows(classes, lay.dim))
        # [B; N]^T x = c per class: the RREF of [[B; N]^T | C^T] is
        # [I | X^T], and rows dim B onwards of X^T are on N's basis
        solved = hstack([self.split.transpose(), C.transpose()]).rref()
        on_n = solved.select_rows(range(self.h22.dim_b, Z.dim)).select_columns(
            range(Z.dim, Z.dim + len(classes)))
        derived = on_n.transpose() @ self.normalised_space.basis
        for op in generator_actions(self.complex):
            if not op.apply_rows(derived).is_zero():
                raise OracleMismatch("a normalised representative of an "
                                     "invariant class is not invariant")
        return Subspace(lay.dim, derived.rref())

    def _invariant_normalised(self, h_gens, rp_gens) -> Subspace:
        """The direct route: the kernel of the actors' beta and rho
        coordinates on N's basis."""
        lay = self.complex.layouts[2]
        basis = self.normalised_space
        model = self.model
        # the actors as the columns of X, so(V) then r coordinates
        X = block_diag([ExactMatrix.from_columns(h_gens, model.dim_so),
                        ExactMatrix.from_columns(rp_gens, model.dim_r)])
        if basis.dim == 0 or not X.cols:
            return basis
        dim = basis.dim
        # the beta and rho coordinates of each actor on every basis vector,
        # row a dim + c; side by side per actor, one row per basis vector
        moved = self.act(X, basis.basis).select_columns(
            lay.indices("beta", "rho"))
        kernel = hstack([moved.select_rows(range(a * dim, (a + 1) * dim))
                         for a in range(X.cols)]).transpose().kernel()
        return Subspace(lay.dim, (kernel.basis @ basis.basis).rref())

    def act(self, X: ExactMatrix, cochains: ExactMatrix) -> ExactMatrix:
        """x_a . phi_c on C^{2,2} of the full complex, at row a C + c, for
        the columns x_a of X (so(V) then r coordinates) and the C rows
        phi_c of `cochains`, one cochain per row.  The full subalgebra's
        basis is the unit one, so each x_a combines the basis operators of
        subalgebra_actions with its coordinates: each operator needed is
        applied to all of `cochains` at once, and one whose coefficient is
        zero in every x_a is neither built nor applied."""
        cx = self.complex
        used = [k for k in range(X.rows) if not X.select_rows([k]).is_zero()]
        if not used:
            return ExactMatrix(X.cols * cochains.rows, cx.layouts[2].dim)
        moved = vstack([op.apply_rows(cochains) for op in _actions(cx, used)])
        return kron(X.select_rows(used).transpose(),
                    ExactMatrix.identity(cochains.rows)) @ moved


# ---------------------------------------------------------------------------
# restriction and inclusion of cochains
# ---------------------------------------------------------------------------


def restriction_matrix(full_cx: SpencerComplex,
                       mixed_cx: SpencerComplex) -> ExactMatrix:
    """Pull-back of full-model cochains along the inclusion of a graded
    subalgebra: C^{2,2}(model; model) -> C^{2,2}(subalgebra; model)."""
    if not full_cx.subalgebra.maximal():
        raise DimensionMismatch("first complex must be the full model one")
    if not mixed_cx.model_valued:
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


def restrict(full_cx: SpencerComplex, mixed_cx: SpencerComplex,
             cochains: ExactMatrix) -> ExactMatrix:
    """i^* on the columns of `cochains`, full-model cochains of degree 2.
    On a maximal subalgebra i^* is the identity, and the cochains are
    returned as they are, with no restriction_matrix formed."""
    if mixed_cx.subalgebra.maximal():
        return cochains
    return restriction_matrix(full_cx, mixed_cx) @ cochains


def inclusion_matrix(sub_cx: SpencerComplex, mixed_cx: SpencerComplex,
                     p: int = 2) -> ExactMatrix:
    """Push-forward along the inclusion of the coefficient module:
    C^{2,p}(subalgebra; subalgebra) -> C^{2,p}(subalgebra; model), for
    p = 1 (the lambda blocks) and p = 2."""
    if sub_cx.values != "subalgebra" or not mixed_cx.model_valued:
        raise DimensionMismatch("expected (subalgebra-, full-) valued pair")
    targets = {1: (sub_cx.Wso, sub_cx.Wr),
               2: (sub_cx.Wv, sub_cx.Ws, sub_cx.Wso, sub_cx.Wr)}[p]
    # phi -> T o phi on each block, T the target basis vectors as columns
    return block_diag([kron(ExactMatrix.identity(src), W.basis.transpose())
                       for W, (_, src, _) in zip(targets,
                                                 sub_cx.layouts[p].blocks)])


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
    """Both descriptions of the restriction-kernel space of `sub`.

    On a maximal subalgebra both are the zero space, and nothing is
    eliminated.  There i^* is the identity and the model-valued complex is
    the full one, so the i^* route gives N meet B: the normalised cocycles
    whose classes vanish in H^{2,2}.  That is 0, because Z = B + N is
    direct, which FullModelCohomology certified (rank [B; N] = dim B +
    dim N).  The componentwise kernel lies inside it, as certified below on
    every other subalgebra; directly, a normalised cocycle with beta and
    rho zero on V x S has gamma zero too (see
    FullModelCohomology.invariant_normalised), so it is zero."""
    if not sub.highly_susy:
        raise NotHighlySusy("the restriction-kernel space needs a highly "
                            "supersymmetric subalgebra")
    cx = fullco.complex
    lay = cx.layouts[2]
    N = fullco.normalised_space
    if N.dim == 0 or sub.maximal():
        trivial = Subspace.trivial(lay.dim)
        return RestrictionKernelReport(trivial, trivial)
    mixed = spencer_complex(sub, 2, values="full")
    # columns = restrictions
    lifted = restrict(cx, mixed, N.basis.transpose())

    def expand(kernel: ExactMatrix) -> Subspace:
        """The span of the rows of kernel N, kernel in N coordinates."""
        return Subspace(lay.dim, (kernel @ N.basis).rref())

    # the componentwise kernel: beta on V' x S' (V' = V) and rho on Sym^2 S'
    direct = expand(lifted.select_rows(
        mixed.layouts[2].indices("beta", "rho")).kernel().basis)
    # the kernel of i^* into H^{2,2}(a_-; model)
    ker = hstack([lifted, mixed.differentials[1]]).kernel()
    via_istar = expand(ker.basis.select_columns(range(N.dim)))
    if not via_istar.contains_subspace(direct):
        raise OracleMismatch("componentwise restriction kernel is not "
                             "contained in ker(i^*); implementation bug")
    return RestrictionKernelReport(direct=direct, via_istar=via_istar)
