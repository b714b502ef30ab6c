import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from instances import (GRID, HIGH_SUSY_DIM, get_full_subalgebra, get_fullco,
                       get_model, get_sampled_subalgebra, invariant_basis,
                       kappa_value, random_highly_susy_subalgebra,
                       representatives, stabiliser_in_r)
import column_actions
from column_actions import action_matrix, cochain_action, \
    cochain_action_matrix
from pairwise_oracles import basis_vec, basis_vectors, beta_vec, \
    bracket_coords, layout_index, lincomb, r_matrix, rho_vec, \
    so_coordinates, so_matrix, solve_many, spin_matrix, vec_add, vec_scale, \
    vec_sub, zero_vec
from spencerkit.errors import (DimensionMismatch, KappaZero, NotHighlySusy,
                               OracleMismatch)
from spencerkit import spencer
from spencerkit.exactla import ExactMatrix, NoSolution, \
    Subspace, hstack, solve_affine, vec_is_zero, vstack
from spencerkit.cliffspin import (Signature, build_clifford_rep,
                                  build_dirac_current)
from spencerkit.flatmodel import (build_extended_flat_model, full_subalgebra,
                                  make_graded_subalgebra, stabiliser_in_so)
from spencerkit.spencer import (Cochain22,
                                FullModelCohomology, build_spencer_complex,
                                build_splitting,
                                compute_cohomology, inclusion_matrix,
                                restriction_kernel_report,
                                restriction_matrix,
                                subalgebra_actions)


class _MatrixAction:
    """A stand-in for a CochainAction that applies a given matrix to each
    row."""

    def __init__(self, matrix):
        self.matrix = matrix

    def apply_rows(self, M):
        return M @ self.matrix.transpose()


class TestComplexConstruction:
    def test_d3_n1_cochain_dims(self):
        # Hom(V^2,V) + Hom(VxS,S) + Hom(S.S, so) + Hom(S.S, r)
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 1), 2)
        assert cx.layouts[2].dim == 9 + 12 + 9 + 0 == 30
        assert cx.layouts[1].dim == 9
        assert cx.layouts[3].dim == 9 * 3 + 4 * 2

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_differential_squares_to_zero(self, s, t, N):
        cx = build_spencer_complex(get_full_subalgebra(s, t, N), 2)
        assert (cx.differentials[2] @ cx.differentials[1]).is_zero()

    def test_no_spinor_legs(self):
        model = get_model(2, 1, 1)
        sub = make_graded_subalgebra(
            model, Subspace.full(3), Subspace.trivial(2),
            Subspace.full(3), Subspace.trivial(0))
        cx = build_spencer_complex(sub, 2)
        # only the alpha block survives, and nothing to map into
        assert cx.layouts[2].dim == 9
        assert cx.layouts[3].dim == 0
        assert cx.differentials[2].is_zero()

    def test_no_vector_legs(self):
        # in signature (2,2) a null spinor spans S' with V' = 0: no vss rows,
        # but the full-valued gamma block still has columns
        model = get_model(2, 2, 1)
        f = [basis_vec(model.dim_s, i) for i in range(model.dim_s)]
        null = next(s for s in f
                    if vec_is_zero(kappa_value(model.current, s, s)))
        sub = make_graded_subalgebra(
            model, Subspace.trivial(model.dim_v),
            Subspace.from_vectors(model.dim_s, [null]),
            Subspace.trivial(model.dim_so), Subspace.trivial(model.dim_r))
        for values in ("subalgebra", "full"):
            cx = build_spencer_complex(sub, 2, values)
            lay2 = cx.layouts[2]
            assert lay2.sizes["gamma"] == (1, cx.dWso)
            assert cx.layouts[3].sizes["vss"] == (0, cx.dWv)
            assert cx.differentials[2].cols == lay2.dim
        assert cx.dWso == model.dim_so > 0

    def test_degree4_fragment(self):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 1), 4)
        assert cx.layouts[1].dim == 0
        assert cx.layouts[2].dim == 3 * 3  # wedge2(V) x h


def _block(lay, coeffs, name, src):
    """The target coordinates of block `name` at source index `src`."""
    off = layout_index(lay, name, src)
    return tuple(coeffs[off:off + lay.sizes[name][1]])


def _sum(vectors, dim):
    return lincomb(((1, v) for v in vectors), dim)


class TestDifferentialsPointwise:
    """d21, d22 and the degree-4 d2 of the maximal subalgebra against their
    defining formulas, on random integer cochains, evaluated with the model's
    action matrices and Dirac current.  Every basis of the maximal
    subalgebra is the standard one, so cochain values are model
    coordinates."""

    CELLS = [(2, 1, 1), (2, 1, 2)]

    @staticmethod
    def _image(s, t, N, degree, p, seed):
        cx = build_spencer_complex(get_full_subalgebra(s, t, N), degree)
        rng = random.Random(seed)
        phi = tuple(Fraction(rng.randint(-3, 3))
                    for _ in range(cx.layouts[p].dim))
        return cx, phi, cx.differentials[p].apply(phi)

    @staticmethod
    def _bilinear(cx, lay, phi, name, table, x, y):
        """phi(x, y) for a block over a sym2 or wedge2 table."""
        dim = lay.sizes[name][1]
        return lincomb(((x[a] * y[b] * table.sign(a, b),
                         _block(lay, phi, name, table.index(a, b)))
                        for a in range(len(x)) for b in range(len(y))
                        if x[a] and y[b] and table.sign(a, b)), dim)

    @pytest.mark.parametrize("s,t,N", CELLS)
    def test_d21(self, s, t, N):
        cx, lam, image = self._image(s, t, N, 2, 1, 11)
        model = cx.model
        l1, l2 = cx.layouts[1], cx.layouts[2]
        n, ns = model.dim_v, model.dim_s
        lam_so = [_block(l1, lam, "lambda_so", a) for a in range(n)]
        lam_r = [_block(l1, lam, "lambda_r", a) for a in range(n)]
        e = [basis_vec(n, a) for a in range(n)]
        f = [basis_vec(ns, i) for i in range(ns)]
        # d(lambda)(v, w) = lambda(v)w - lambda(w)v
        for p, (a, b) in enumerate(cx.w2v.tuples):
            assert _block(l2, image, "alpha", p) == vec_add(
                so_matrix(model, lam_so[a]).apply(e[b]),
                vec_scale(so_matrix(model, lam_so[b]).apply(e[a]), -1))
        # d(lambda)(v, s) = lambda(v).s
        for a in range(n):
            for i in range(ns):
                assert _block(l2, image, "beta", a * ns + i) == vec_add(
                    spin_matrix(model, lam_so[a]).apply(f[i]),
                    r_matrix(model, lam_r[a]).apply(f[i]))
        # d(lambda)(s, s) = -lambda(kappa(s, s))
        for p, (i, j) in enumerate(cx.s2.tuples):
            k = kappa_value(model.current, f[i], f[j])
            assert _block(l2, image, "gamma", p) == vec_scale(
                lincomb(zip(k, lam_so), model.dim_so), -1)
            assert _block(l2, image, "rho", p) == vec_scale(
                lincomb(zip(k, lam_r), model.dim_r), -1)

    @pytest.mark.parametrize("s,t,N", CELLS)
    def test_d22(self, s, t, N):
        cx, phi, image = self._image(s, t, N, 2, 2, 12)
        model = cx.model
        l2, l3 = cx.layouts[2], cx.layouts[3]
        n, ns = model.dim_v, model.dim_s
        e = [basis_vec(n, a) for a in range(n)]
        f = [basis_vec(ns, i) for i in range(ns)]
        def kappa(x, y):
            return kappa_value(model.current, x, y)

        def alpha(x, y):
            return self._bilinear(cx, l2, phi, "alpha", cx.w2v, x, y)

        def beta(x, y):
            return lincomb(((x[a] * y[i], _block(l2, phi, "beta", a * ns + i))
                            for a in range(n) for i in range(ns)
                            if x[a] and y[i]), ns)

        def gamma(x, y):
            return self._bilinear(cx, l2, phi, "gamma", cx.s2, x, y)

        def rho(x, y):
            return self._bilinear(cx, l2, phi, "rho", cx.s2, x, y)

        # alpha(kappa(s, s'), v) + kappa(s, beta(v, s'))
        # + kappa(s', beta(v, s)) + gamma(s, s')v
        for b in range(n):
            for p, (i, j) in enumerate(cx.s2.tuples):
                want = _sum([alpha(kappa(f[i], f[j]), e[b]),
                             kappa(f[i], beta(e[b], f[j])),
                             kappa(f[j], beta(e[b], f[i])),
                             so_matrix(model, gamma(f[i], f[j])).apply(e[b])],
                            n)
                assert _block(l3, image, "vss", b * cx.s2.size + p) == want
        # the cyclic sum of beta(kappa(s, s'), s'') + gamma(s, s').s''
        # + rho(s, s').s''
        for q, (i, j, k) in enumerate(combinations_with_replacement(range(ns),
                                                                   3)):
            terms = []
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                terms += [beta(kappa(f[x], f[y]), f[z]),
                          spin_matrix(model, gamma(f[x], f[y])).apply(f[z]),
                          r_matrix(model, rho(f[x], f[y])).apply(f[z])]
            assert _block(l3, image, "sss", q) == _sum(terms, ns)

    @pytest.mark.parametrize("s,t,N", CELLS)
    def test_degree4_d2(self, s, t, N):
        cx, th, image = self._image(s, t, N, 4, 2, 13)
        model = cx.model
        l2, l3 = cx.layouts[2], cx.layouts[3]
        n, ns = model.dim_v, model.dim_s
        e = [basis_vec(n, a) for a in range(n)]
        f = [basis_vec(ns, i) for i in range(ns)]

        def theta_so(x, y):
            return self._bilinear(cx, l2, th, "theta_so", cx.w2v, x, y)

        def theta_r(x, y):
            return self._bilinear(cx, l2, th, "theta_r", cx.w2v, x, y)

        def act_v(x, y, w):
            return so_matrix(model, theta_so(x, y)).apply(w)

        # theta(u, v)w + theta(v, w)u + theta(w, u)v
        for q, (a, b, c) in enumerate(combinations(range(n), 3)):
            assert _block(l3, image, "vvv", q) == _sum(
                [act_v(e[a], e[b], e[c]), act_v(e[b], e[c], e[a]),
                 act_v(e[c], e[a], e[b])], n)
        # theta(u, v).s
        for pa, (a, b) in enumerate(cx.w2v.tuples):
            for i in range(ns):
                assert _block(l3, image, "vvs", pa * ns + i) == vec_add(
                    spin_matrix(model, theta_so(e[a], e[b])).apply(f[i]),
                    r_matrix(model, theta_r(e[a], e[b])).apply(f[i]))
        # theta(v, kappa(s, s'))
        for b in range(n):
            for p, (i, j) in enumerate(cx.s2.tuples):
                k = kappa_value(model.current, f[i], f[j])
                src = b * cx.s2.size + p
                assert _block(l3, image, "vss_so", src) == theta_so(e[b], k)
                assert _block(l3, image, "vss_r", src) == theta_r(e[b], k)


class TestCohomology:
    @pytest.mark.parametrize("s,t,N", GRID)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_vanishing_theorems_on_samples(self, s, t, N, seed):
        sub = get_sampled_subalgebra(s, t, N, seed)
        assert sub.highly_susy and sub.transitive
        co21 = compute_cohomology(build_spencer_complex(sub, 2), 1)
        assert co21.dim_z == 0 and co21.dim_h == 0
        co42 = compute_cohomology(build_spencer_complex(sub, 4), 2)
        assert co42.dim_h == 0

    def test_zero_differentials_full_cochain_space(self):
        model = get_model(2, 1, 1)
        sub = make_graded_subalgebra(
            model, Subspace.full(3), Subspace.trivial(2),
            Subspace.trivial(3), Subspace.trivial(0))
        cx = build_spencer_complex(sub, 2)
        co = compute_cohomology(cx, 2)
        assert co.dim_h == co.dim_z == cx.layouts[2].dim == 9
        assert co.dim_b == 0

    def test_representatives_span_h(self):
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        co = compute_cohomology(build_spencer_complex(sub, 2), 2)
        assert len(representatives(co)) == co.dim_h
        # every representative is a cocycle not in B
        for r in representatives(co):
            assert co.cocycles.contains(r)
            assert not co.boundaries.contains(r)
        # and they are the greedy choice: each Z-basis row, in order, that
        # is independent of B and of the rows chosen before it
        greedy = []
        span = co.boundaries
        for vecrow in basis_vectors(co.cocycles):
            if not span.contains(vecrow):
                greedy.append(vecrow)
                span = Subspace.from_vectors(
                    len(vecrow), basis_vectors(span) + [vecrow])
        assert list(representatives(co)) == greedy

    def test_action_matrices_shape(self):
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        co = compute_cohomology(build_spencer_complex(sub, 2), 2)
        mats = column_actions.row_action_matrices(co)
        assert len(mats) == len(sub.h_generators) + len(sub.rp_generators)
        for m in mats:
            assert m.rows == co.dim_h == m.cols

    def test_action_computed_on_first_read_and_kept(self, monkeypatch):
        cx = build_spencer_complex(get_sampled_subalgebra(3, 1, 1, 7), 2)
        built = []
        gens = spencer.generator_actions

        def counting(_cx):
            built.append(_cx)
            return gens(_cx)

        monkeypatch.setattr(spencer, "generator_actions", counting)
        co = compute_cohomology(cx, 2)
        assert built == []
        first = co.invariant_classes()
        assert co.invariant_classes() is first and built == [cx]

    def test_identity_action_gives_identity_matrices(self, monkeypatch):
        # the identity annihilates no class
        cx = build_spencer_complex(get_sampled_subalgebra(3, 1, 1, 7), 2)
        monkeypatch.setattr(spencer, "generator_actions",
                            lambda _cx: [_MatrixAction(
                                ExactMatrix.identity(cx.layouts[2].dim))])
        co = compute_cohomology(cx, 2)
        assert co.dim_h and co.invariant_classes() == []
        assert column_actions.row_action_matrices(co) == \
            (ExactMatrix.identity(co.dim_h),)

    def test_zero_action_keeps_every_class(self, monkeypatch):
        cx = build_spencer_complex(get_sampled_subalgebra(3, 1, 1, 7), 2)
        dim = cx.layouts[2].dim
        monkeypatch.setattr(spencer, "generator_actions",
                            lambda _cx: [_MatrixAction(ExactMatrix(dim,
                                                                   dim))])
        co = compute_cohomology(cx, 2)
        assert co.invariant_classes() == list(representatives(co))

    def test_action_leaving_the_cocycles_is_an_oracle_mismatch(
            self, monkeypatch):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 1), 2)
        dim = cx.layouts[2].dim
        rep = representatives(compute_cohomology(cx, 2))[0]
        # a basis cochain that is not a cocycle lies outside span(reps, B)
        k = next(i for i in range(dim) if not vec_is_zero(
            cx.differentials[2].apply(basis_vec(dim, i))))
        leak = ExactMatrix(dim, dim, [(k, j, c) for j, c in enumerate(rep)])
        monkeypatch.setattr(spencer, "generator_actions",
                            lambda _cx: [_MatrixAction(leak)])
        co = compute_cohomology(cx, 2)
        with pytest.raises(OracleMismatch, match="a0-action"):
            co.invariant_classes()


class TestInjectivityLemmas:
    """The component maps of the degree-(2,1) differential are injective
    under the stated hypotheses."""

    def _blocks(self, cx):
        lay1, lay2 = cx.layouts[1], cx.layouts[2]
        d21 = cx.differentials[1]
        lo_a, hi_a = lay2.block_slice("alpha")
        lo_g, hi_g = lay2.block_slice("gamma")
        lo_r, hi_r = lay2.block_slice("rho")
        lo_b, hi_b = lay2.block_slice("beta")
        so_cols = lay1.block_slice("lambda_so")
        r_cols = lay1.block_slice("lambda_r")

        def block(rows, cols):
            return ExactMatrix(rows[1] - rows[0], cols[1] - cols[0],
                               [(i - rows[0], j - cols[0], d21.entry(i, j))
                                for i in range(*rows) for j in range(*cols)
                                if d21.entry(i, j)])
        return block, so_cols, r_cols, (lo_a, hi_a), (lo_b, hi_b), \
            (lo_g, hi_g), (lo_r, hi_r)

    def test_alpha_component_injective_and_iso(self):
        # V' = V, h = so(V): Hom(V,h) -> Hom(wedge2 V, V) is an isomorphism
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 1), 2)
        block, so_cols, _, arows, *_ = self._blocks(cx)
        m = block(arows, so_cols)
        assert m.kernel().dim == 0
        assert m.rank() == m.cols == m.rows

    def test_rho_component_injective_when_kappa_surjective(self):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 2), 2)
        block, _, r_cols, _, _, _, rrows = self._blocks(cx)
        m = block(rrows, r_cols)
        assert m.kernel().dim == 0

    def test_beta_component_injective_when_r_faithful(self):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 2), 2)
        block, _, r_cols, _, brows, _, _ = self._blocks(cx)
        m = block(brows, r_cols)
        assert m.kernel().dim == 0

    def test_gamma_component_injective(self):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 1), 2)
        block, so_cols, _, _, _, grows, _ = self._blocks(cx)
        m = block(grows, so_cols)
        assert m.kernel().dim == 0


class TestSplitting:
    def test_d3_bijective_kappa_inverse(self):
        model = get_model(2, 1, 1)
        split = build_splitting(get_full_subalgebra(2, 1, 1))
        kappa = model.current.component_matrix()
        assert (kappa @ split.section) == ExactMatrix.identity(3)
        # kappa is square and bijective here, so the section is its inverse
        assert (split.section @ kappa) == ExactMatrix.identity(3)
        assert split.projector.is_zero()

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_section_property(self, s, t, N):
        model = get_model(s, t, N)
        split = get_fullco(s, t, N).splitting
        kappa = model.current.component_matrix()
        assert (kappa @ split.section) == ExactMatrix.identity(model.dim_v)

    def test_d4_kernel_dims(self):
        model = get_model(3, 1, 1)
        split = get_fullco(3, 1, 1).splitting
        assert split.projector.rank() == 10 - 4 == 6

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_so_equivariance(self, s, t, N):
        from spencerkit.exactla import pair_action, tensor_index_maps
        model = get_model(s, t, N)
        split = get_fullco(s, t, N).splitting
        s2 = tensor_index_maps(model.dim_s, "sym2")
        for k in range(model.dim_so):
            act = pair_action(s2, model.gens.sigma[k])
            lhs = act @ split.section
            rhs = split.section @ model.gens.e_mats[k]
            assert lhs == rhs

    @pytest.mark.parametrize("s,t,N", GRID + ((4, 1, 1),))
    def test_r_equivariance(self, s, t, N):
        # the solve asks for equivariance under the Lie generators of r
        # alone; every basis element of r must then annihilate the section
        from spencerkit.exactla import pair_action, tensor_index_maps
        model = get_model(s, t, N)
        split = get_fullco(s, t, N).splitting
        s2 = tensor_index_maps(model.dim_s, "sym2")
        # a section that dropped r-equivariance promises nothing here
        for m in model.r.matrices if split.r_equivariant else ():
            assert (pair_action(s2, m) @ split.section).is_zero()

    def test_r_equivariance_is_checked_on_a_nonabelian_r(self):
        # the check above says something beyond the generators where r
        # needs fewer generators than its dimension
        full = get_full_subalgebra(3, 1, 2)
        assert get_fullco(3, 1, 2).splitting.r_equivariant
        assert len(full.rp_generators) < full.model.dim_r

    def test_non_maximal_subalgebra_rejected(self):
        # the generators of a smaller h say nothing about all of so(V)
        with pytest.raises(DimensionMismatch):
            build_splitting(get_sampled_subalgebra(3, 1, 1, 0))

    def test_zero_current_rejected(self):
        from spencerkit.cliffspin import build_dirac_current
        from spencerkit.flatmodel import build_extended_flat_model
        from instances import get_rep
        rep = get_rep(2, 1, 1)
        zero = build_dirac_current(rep, [ExactMatrix.zeros(2, 2)] * 3)
        model = build_extended_flat_model(rep, zero)
        with pytest.raises(KappaZero):
            build_splitting(full_subalgebra(model))


class NotACocycle(Exception):
    """_normalise was given a cochain that is not a cocycle."""


def _normalise(fullco, coeffs):
    """The normalised representative of a cocycle's class and the unique
    coboundary witness lambda with z - normalised = d(lambda): lambda_so
    solves the alpha rows, lambda_r = -(rho o section)."""
    cx = fullco.complex
    if not Cochain22(cx, coeffs).is_cocycle():
        raise NotACocycle("input is not a degree-2 Spencer cocycle")
    d21 = cx.differentials[1]
    alpha_rows, rho_section = fullco._constraint_rows()
    lo, hi = cx.layouts[2].block_slice("alpha")
    sol = solve_affine(alpha_rows @ d21, list(coeffs[lo:hi]))
    assert not isinstance(sol, NoSolution)
    lam = list(sol)
    lo, hi = cx.layouts[1].block_slice("lambda_r")
    lam[lo:hi] = vec_scale(rho_section.apply(coeffs), -1)
    normalised = vec_sub(coeffs, d21.apply(lam))
    assert fullco.normalised_space.contains(normalised)
    return normalised, tuple(lam)


class TestNormalisation:
    @pytest.mark.parametrize("s,t,N", GRID)
    def test_normalised_space_matches_rank_nullity(self, s, t, N):
        # the direct kernel over C^{2,2} is an oracle for the space read off
        # the cocycles
        fullco = get_fullco(s, t, N)
        direct = vstack([fullco.complex.differentials[2],
                         *fullco._constraint_rows()]).kernel()
        assert direct == fullco.normalised_space
        assert direct.dim == compute_cohomology(fullco.complex, 2).dim_h

    def test_dropped_constraint_row_breaks_the_decomposition(
            self, monkeypatch):
        # without the last rho o section row N meets B: dim B + dim N = 75
        # against dim Z = 74 on (3,1,2)
        rows = FullModelCohomology._constraint_rows

        def drop_last_rho_row(fullco):
            alpha, rho_section = rows(fullco)
            return alpha, rho_section.select_rows(
                range(rho_section.rows - 1))

        monkeypatch.setattr(FullModelCohomology, "_constraint_rows",
                            drop_last_rho_row)
        with pytest.raises(OracleMismatch, match="dim B \\+ dim N = 75, "
                                                 "dim Z = 74"):
            FullModelCohomology(get_model(3, 1, 2))

    def test_coboundary_normalises_to_zero_with_witness(self):
        fullco = get_fullco(3, 1, 1)
        cx = fullco.complex
        rnd = random.Random(12)
        lam = [Fraction(rnd.randint(-4, 4)) for _ in range(cx.layouts[1].dim)]
        z = cx.differentials[1].apply(lam)
        normalised, witness = _normalise(fullco, z)
        assert vec_is_zero(normalised)
        assert tuple(witness) == tuple(lam)  # unique witness

    def test_idempotence(self):
        fullco = get_fullco(3, 1, 1)
        v = fullco.normalised_space.basis.row_tuple(0)
        normalised, witness = _normalise(fullco, v)
        assert normalised == tuple(v)
        assert vec_is_zero(witness)

    def test_projection_property(self):
        # normalising twice gives the same output
        fullco = get_fullco(2, 1, 2)
        cx = fullco.complex
        z = compute_cohomology(cx, 2).cocycles
        v = z.basis.row_tuple(z.dim - 1)
        n1, _ = _normalise(fullco, v)
        n2, w2 = _normalise(fullco, n1)
        assert n1 == n2 and vec_is_zero(w2)

    def test_non_cocycle_rejected(self):
        fullco = get_fullco(2, 1, 1)
        bad = [Fraction(0)] * fullco.complex.layouts[2].dim
        bad[0] = Fraction(1)
        if Cochain22(fullco.complex, bad).is_cocycle():
            pytest.skip("perturbation accidentally closed")
        with pytest.raises(NotACocycle):
            _normalise(fullco, bad)

    def test_boundaries_plus_normalised_decompose_cocycles(self):
        # dim Z = dim B + dim normalised (direct sum decomposition)
        for cell in GRID:
            fullco = get_fullco(*cell)
            co = compute_cohomology(fullco.complex, 2)
            assert co.dim_z == co.dim_b + fullco.normalised_space.dim


class TestInvariantCocycles:
    def test_no_constraints_whole_space(self):
        fullco = get_fullco(2, 1, 1)
        inv = fullco.invariant_normalised([], [])
        assert inv.dim == fullco.normalised_space.dim

    def test_full_isotropy_invariants(self):
        fullco = get_fullco(2, 1, 1)
        sub = get_full_subalgebra(2, 1, 1)
        inv = invariant_basis(fullco, sub)
        assert len(inv) == 1
        # brute-force recheck: the action of every generator vanishes
        cx = fullco.complex
        for vecrow in inv:
            for k in range(sub.h.dim):
                act = cochain_action_matrix(cx, sub.h.basis.row_tuple(k),
                                            zero_vec(0))
                assert vec_is_zero(act.apply(vecrow))

    def test_beta_invariance_implies_gamma_invariance(self):
        # invariant_normalised solves for the beta and rho blocks only, by
        # the argument in its docstring; verify the gamma block of the
        # action vanishes for invariant elements
        fullco = get_fullco(3, 1, 1)
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        inv = invariant_basis(fullco, sub)
        assert inv  # nonzero space for this instance
        lay = fullco.complex.layouts[2]
        lo, hi = lay.block_slice("gamma")
        for vecrow in inv:
            for k in range(sub.h.dim):
                act = cochain_action_matrix(
                    fullco.complex, sub.h.basis.row_tuple(k),
                    zero_vec(fullco.model.dim_r))
                image = act.apply(vecrow)
                assert vec_is_zero(image[lo:hi])


class TestRestrictionKernel:
    def test_full_spinors_trivial_kernel(self):
        fullco = get_fullco(3, 1, 1)
        report = restriction_kernel_report(get_full_subalgebra(3, 1, 1),
                                           fullco)
        assert report.direct.dim == 0
        assert report.via_istar.dim == 0

    def test_routes_agree_on_unextended_instances(self):
        # for d=4 N=1 samples the componentwise space equals ker(i^*)
        fullco = get_fullco(3, 1, 1)
        for seed in (1, 2, 7):
            sub = get_sampled_subalgebra(3, 1, 1, seed)
            report = restriction_kernel_report(sub, fullco)
            assert report.equal

    def test_routes_differ_on_extended_counterexample(self):
        # With N = 2 extension and a coordinate S' of dimension 5 there is a
        # normalised cocycle whose restriction is exactly a coboundary with
        # nonzero lambda2, so ker(i^*) strictly contains the componentwise
        # space: the two candidate descriptions are NOT equivalent in
        # general, and the comparison is reported rather than assumed.
        from instances import coordinate_subalgebras
        fullco = get_fullco(3, 1, 2)
        subs = coordinate_subalgebras(3, 1, 2)
        if not subs:
            pytest.skip("no coordinate subalgebra found")
        report = restriction_kernel_report(subs[0], fullco)
        assert report.via_istar.contains_subspace(report.direct)
        assert not report.equal
        assert report.via_istar.dim > report.direct.dim

    def test_trivial_when_nothing_to_kill(self):
        for cell in GRID:
            fullco = get_fullco(*cell)
            if fullco.normalised_space.dim == 0:
                sub = get_sampled_subalgebra(*cell, 1)
                assert restriction_kernel_report(sub, fullco).direct.dim == 0

    @pytest.mark.parametrize("N,spinors,dim", [(3, (0, 1, 2, 3), 1),
                                               (4, (0, 1, 2, 3, 4), 1),
                                               (4, (0, 1, 2, 4, 7), 0)])
    def test_direct_route_on_coordinate_spinor_subspaces(self, N, spinors,
                                                         dim):
        # on (2,1,N) with S' spanned by the given coordinate spinors the
        # componentwise kernel has dimension `dim`; its vectors have beta = 0
        # on V x S' and rho = 0 on Sym^2 S' pointwise.  Reading the beta
        # rows of i^* alone gives dimension 2, 2 and 1 here, so a wrong row
        # selection shows
        rep = build_clifford_rep(Signature(2, 1), N)
        model = build_extended_flat_model(rep, build_dirac_current(rep))
        Sp = Subspace.from_vectors(model.dim_s, [basis_vec(model.dim_s, i)
                                                 for i in spinors])
        sub = make_graded_subalgebra(model, Subspace.full(model.dim_v), Sp,
                                     stabiliser_in_so(model, Sp),
                                     stabiliser_in_r(model, Sp))
        fullco = FullModelCohomology(model)
        report = restriction_kernel_report(sub, fullco)
        assert report.direct.dim == dim
        assert report.via_istar.contains_subspace(report.direct)
        svecs = basis_vectors(Sp)
        for vector in basis_vectors(report.direct):
            z = Cochain22(fullco.complex, vector)
            for b in range(model.dim_v):
                for s in svecs:
                    assert vec_is_zero(
                        beta_vec(z, basis_vec(model.dim_v, b), s))
            for s, s2 in combinations_with_replacement(svecs, 2):
                assert vec_is_zero(rho_vec(z, s, s2))

    def test_requires_highly_susy(self):
        model = get_model(2, 1, 1)
        fullco = get_fullco(2, 1, 1)
        sub = make_graded_subalgebra(
            model, Subspace.full(3), Subspace.trivial(2),
            Subspace.trivial(3), Subspace.trivial(0))
        with pytest.raises(NotHighlySusy):
            restriction_kernel_report(sub, fullco).direct


class TestComplexMemo:
    @pytest.mark.parametrize("p", (1, 2))
    def test_cohomology_kept_per_complex_and_degree(self, p):
        cx = build_spencer_complex(get_full_subalgebra(2, 1, 2), 2)
        assert compute_cohomology(cx, p) is compute_cohomology(cx, p)
        assert compute_cohomology(cx, p) is not compute_cohomology(cx, 3 - p)
        assert compute_cohomology(
            build_spencer_complex(get_full_subalgebra(2, 1, 2), 2), p) \
            is not compute_cohomology(cx, p)

    def test_equal_subspaces_share_one_complex(self):
        # a separately built subalgebra with equal subspaces is the same key,
        # and the full model's own complex is the maximal subalgebra's, with
        # values in itself or in the model; make_graded_subalgebra returns
        # the model's kept maximal subalgebra, so build one past it
        from spencerkit.flatmodel import _graded_subalgebra
        model = get_model(2, 1, 2)
        full = get_full_subalgebra(2, 1, 2)
        again = _graded_subalgebra(model, Subspace.full(3), Subspace.full(4),
                                   Subspace.full(3), Subspace.full(1))
        assert again is not full
        cx = spencer.spencer_complex(full, 2)
        assert spencer.spencer_complex(again, 2) is cx
        assert get_fullco(2, 1, 2).complex is cx
        assert spencer.spencer_complex(full, 2, values="full") is cx
        assert spencer.spencer_complex(full, 4) is not cx

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_maximal_maps_are_identities(self, s, t, N):
        full = get_full_subalgebra(s, t, N)
        cx = spencer.spencer_complex(full, 2)
        assert spencer.spencer_complex(full, 2, values="full") is cx
        assert cx.model_valued
        for p in (1, 2):
            assert inclusion_matrix(cx, cx, p) == \
                ExactMatrix.identity(cx.layouts[p].dim)
        assert restriction_matrix(cx, cx) == \
            ExactMatrix.identity(cx.layouts[2].dim)

    def test_sampled_model_valued_complex_is_its_own(self):
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        model = sub.model
        sub_cx = spencer.spencer_complex(sub, 2)
        mixed_cx = spencer.spencer_complex(sub, 2, values="full")
        assert mixed_cx is not sub_cx
        assert mixed_cx.model_valued and not sub_cx.model_valued
        assert (mixed_cx.dWv, mixed_cx.dWs, mixed_cx.dWso, mixed_cx.dWr) == \
            (model.dim_v, model.dim_s, model.dim_so, model.dim_r)
        assert sub_cx.dWso == sub.h.dim < model.dim_so
        with pytest.raises(DimensionMismatch):
            inclusion_matrix(sub_cx, sub_cx)

    def test_other_r_prime_gets_its_own_complex(self):
        model = get_model(2, 1, 2)
        no_r = make_graded_subalgebra(model, Subspace.full(3),
                                      Subspace.full(4), Subspace.full(3),
                                      Subspace.trivial(1))
        cx = spencer.spencer_complex(no_r, 2)
        assert cx is not spencer.spencer_complex(
            get_full_subalgebra(2, 1, 2), 2)
        assert cx.dWr == 0
        assert spencer.spencer_complex(no_r, 2) is cx


class TestInclusionMap:
    @pytest.mark.parametrize("s,t,N", [(3, 1, 1), (2, 1, 2)])
    def test_istar_injective_on_subalgebra_cohomology(self, s, t, N):
        # i_*: H^{2,2}(a;a) -> H^{2,2}(a;model) has trivial kernel for
        # highly supersymmetric subalgebras
        sub = get_sampled_subalgebra(s, t, N, 7)
        sub_cx = build_spencer_complex(sub, 2)
        mixed_cx = build_spencer_complex(sub, 2, values="full")
        inc = inclusion_matrix(sub_cx, mixed_cx)
        co = compute_cohomology(sub_cx, 2)
        b_mixed = mixed_cx.differentials[1].column_space()
        for rep_vec in representatives(co):
            image = inc.apply(rep_vec)
            assert not b_mixed.contains(image)

    @pytest.mark.parametrize("s,t,N", GRID)
    @pytest.mark.parametrize("seed", [None, 1, 2, 7])
    def test_inclusion_is_a_chain_map(self, s, t, N, seed):
        # d o i_* = i_* o d from C^{2,1} to C^{2,2}
        sub = (get_full_subalgebra(s, t, N) if seed is None
               else get_sampled_subalgebra(s, t, N, seed))
        sub_cx = spencer.spencer_complex(sub, 2)
        mixed_cx = spencer.spencer_complex(sub, 2, values="full")
        assert mixed_cx.differentials[1] @ \
            inclusion_matrix(sub_cx, mixed_cx, 1) == \
            inclusion_matrix(sub_cx, mixed_cx, 2) @ sub_cx.differentials[1]


def _isotropy_generators(sub):
    """(so, r) coordinates of the h-basis, then of the r'-basis."""
    model = sub.model
    return ([(h, zero_vec(model.dim_r)) for h in basis_vectors(sub.h)] +
            [(zero_vec(model.dim_so), r) for r in basis_vectors(sub.rp)])


def _lie_generators(sub):
    """(so, r) coordinates of the Lie generators in the order of
    generator_actions: h and r' generators alternate, h first, the rest of
    the longer list last."""
    h_gens, rp_gens = sub.generator_coords()
    model = sub.model
    h = [(g, zero_vec(model.dim_r)) for g in h_gens]
    r = [(zero_vec(model.dim_so), g) for g in rp_gens]
    n = min(len(h), len(r))
    return [x for pair in zip(h, r) for x in pair] + h[n:] + r[n:]


def _sub_of(s, t, N, kind):
    if kind == "maximal":
        return get_full_subalgebra(s, t, N)
    return get_sampled_subalgebra(s, t, N, 7)


class TestInducedMaps:
    CASES = [(s, t, N, kind) for (s, t, N) in ((2, 1, 1), (3, 1, 1),
                                               (2, 1, 2))
             for kind in ("maximal", "sampled")]

    @pytest.mark.parametrize("s,t,N,kind", CASES)
    def test_restriction_is_equivariant(self, s, t, N, kind):
        sub = _sub_of(s, t, N, kind)
        full_cx = get_fullco(s, t, N).complex
        mixed_cx = spencer.spencer_complex(sub, 2, values="full")
        R = restriction_matrix(full_cx, mixed_cx)
        for X in _isotropy_generators(sub):
            assert R @ cochain_action_matrix(full_cx, *X) == \
                cochain_action_matrix(mixed_cx, *X) @ R

    @pytest.mark.parametrize("s,t,N,kind", CASES)
    def test_inclusion_is_equivariant(self, s, t, N, kind):
        sub = _sub_of(s, t, N, kind)
        sub_cx = spencer.spencer_complex(sub, 2)
        mixed_cx = spencer.spencer_complex(sub, 2, values="full")
        inc = inclusion_matrix(sub_cx, mixed_cx)
        for X in _isotropy_generators(sub):
            assert inc @ cochain_action_matrix(sub_cx, *X) == \
                cochain_action_matrix(mixed_cx, *X) @ inc

    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_action_is_a_homomorphism(self, s, t, N):
        model = get_model(s, t, N)
        cx = get_fullco(s, t, N).complex
        gens = _isotropy_generators(get_full_subalgebra(s, t, N))
        rho = [cochain_action_matrix(cx, *X) for X in gens]
        for i, (x_so, x_r) in enumerate(gens):
            for j in range(i + 1, len(gens)):
                y_so, y_r = gens[j]
                bracket = (so_coordinates(
                               model, so_matrix(model, x_so).commutator(
                                   so_matrix(model, y_so))),
                           bracket_coords(model.r, x_r, y_r))
                assert rho[i].commutator(rho[j]) == \
                    cochain_action_matrix(cx, *bracket)

    def test_action_outside_the_isotropy_is_rejected(self):
        from spencerkit.errors import DimensionMismatch
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        cx = spencer.spencer_complex(sub, 2)
        outside = [k for k in range(sub.model.dim_so)
                   if not sub.h.contains(basis_vec(sub.model.dim_so, k))]
        assert outside
        with pytest.raises(DimensionMismatch, match="action of X leaves"):
            cochain_action_matrix(cx, basis_vec(sub.model.dim_so, outside[0]),
                                  zero_vec(sub.model.dim_r))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestCochainAction:
    @pytest.mark.parametrize("s,t,N", GRID)
    @pytest.mark.parametrize("kind", ["maximal", "sampled"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_operator_equals_its_matrix(self, s, t, N, kind, data):
        seed = data.draw(st.sampled_from((1, 2, 7)))
        sub = (get_full_subalgebra(s, t, N) if kind == "maximal"
               else get_sampled_subalgebra(s, t, N, seed))
        cx = spencer.spencer_complex(
            sub, 2, values=data.draw(st.sampled_from(("subalgebra",
                                                      "full"))))
        # a random element of h + r'
        gens = _isotropy_generators(sub)
        coeffs = data.draw(st.lists(small_rationals, min_size=len(gens),
                                    max_size=len(gens)))
        X = (lincomb(zip(coeffs, [so for so, _ in gens]), sub.model.dim_so),
             lincomb(zip(coeffs, [r for _, r in gens]), sub.model.dim_r))
        dim = cx.layouts[2].dim
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        count = data.draw(st.integers(0, 3))
        M = ExactMatrix(count, dim, [
            (i, j, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for i in range(count) for j in range(dim) if rng.random() < 0.3])
        op = cochain_action(cx, *X)
        matrix = cochain_action_matrix(cx, *X)
        got = op.apply_rows(M)
        assert got == M @ matrix.transpose()
        assert got.transpose() == column_actions.apply_many(op,
                                                            M.transpose())

    @pytest.mark.parametrize("s,t,N,kind", [(3, 1, 1, "maximal"),
                                            (3, 1, 1, "sampled"),
                                            (2, 1, 2, "maximal")])
    def test_action_matrices_against_the_cochain_action(self, s, t, N, kind):
        # X.r_j - sum_i M[i, j] r_i is a coboundary for every Lie
        # generator X
        sub = _sub_of(s, t, N, kind)
        cx = spencer.spencer_complex(sub, 2)
        co = compute_cohomology(cx, 2)
        reps = representatives(co)
        gens = _lie_generators(sub)
        mats = column_actions.row_action_matrices(co)
        assert reps and len(mats) == len(gens)
        dim = cx.layouts[2].dim
        for X, M in zip(gens, mats):
            g = cochain_action_matrix(cx, *X)
            for j, r in enumerate(reps):
                rest = vec_sub(g.apply(r), lincomb(
                    ((M.entry(i, j), reps[i]) for i in range(len(reps))),
                    dim))
                assert co.boundaries.contains(rest)

    @pytest.mark.parametrize("s,t,N,kind", [(3, 1, 1, "maximal"),
                                            (3, 1, 1, "sampled"),
                                            (2, 1, 2, "maximal")])
    def test_action_matrices_equal_the_solutions_column_by_column(
            self, s, t, N, kind):
        # read off the rows of solve_matrix's X, the action matrices equal
        # the ones assembled entry by entry from solve_many's columns
        co = compute_cohomology(spencer.spencer_complex(_sub_of(s, t, N, kind),
                                                        2), 2)
        reps, dim_h = representatives(co), co.dim_h
        R = ExactMatrix.from_columns(reps, len(reps[0]))
        RB = hstack([R, co.boundaries.basis.transpose()])
        expected = []
        for op in spencer.generator_actions(co.complex):
            X = solve_many(RB, column_actions.apply_many(op, R))
            expected.append(ExactMatrix(dim_h, dim_h, [
                (i, j, x[i]) for j, x in enumerate(X) for i in range(dim_h)]))
        assert column_actions.row_action_matrices(co) == tuple(expected)

    def test_operators_are_kept_on_the_complex(self):
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        cx = build_spencer_complex(sub, 2)
        ops = subalgebra_actions(cx)
        assert all(a is b for a, b in zip(subalgebra_actions(cx), ops))
        assert len(ops) == sub.h.dim + sub.rp.dim
        for op, X in zip(ops, _isotropy_generators(sub)):
            assert action_matrix(op) == cochain_action_matrix(cx, *X)

    def test_degree_4_complex_is_a_dimension_mismatch(self):
        # V' = V, S' = 0, h = so(V), r' = 0 in (2,1,1): the degree-4 and
        # degree-2 cochain spaces have one dimension, so only the layout
        # tells them apart
        model = get_model(2, 1, 1)
        sub = make_graded_subalgebra(model, Subspace.full(3),
                                     Subspace.trivial(2), Subspace.full(3),
                                     Subspace.trivial(0))
        cx = build_spencer_complex(sub, 4)
        co = compute_cohomology(cx, 2)
        assert co.dim_h == 6
        with pytest.raises(DimensionMismatch, match=r"C\^\{2,2\} only"):
            co.invariant_classes()
        with pytest.raises(DimensionMismatch, match=r"C\^\{2,2\} only"):
            cochain_action(cx, basis_vec(3, 0), ())

    def test_wrong_length_is_a_dimension_mismatch(self):
        cx = spencer.spencer_complex(get_full_subalgebra(2, 1, 1), 2)
        op = subalgebra_actions(cx)[0]
        for cols in (cx.layouts[2].dim + 1, cx.layouts[2].dim - 1):
            with pytest.raises(DimensionMismatch):
                op.apply_rows(ExactMatrix(1, cols))


def _basis_invariant_classes(co):
    """The a0-invariant classes of H^{2,2} from one CochainAction per
    h-basis and r'-basis element: an oracle for invariant_classes."""
    reps, B = representatives(co), co.boundaries
    if not reps:
        return []
    dim, dim_h = len(reps[0]), len(reps)
    span = hstack([ExactMatrix.from_columns(reps, dim), B.basis.transpose()])
    blocks = []
    for X in _isotropy_generators(co.complex.subalgebra):
        image = column_actions.apply_many(
            cochain_action(co.complex, *X), ExactMatrix.from_columns(reps, dim))
        cols = []
        for j in range(dim_h):
            sol = solve_affine(span, [image.entry(i, j) for i in range(dim)])
            assert not isinstance(sol, NoSolution)
            cols.append(sol[:dim_h])
        blocks.append(ExactMatrix.from_columns(cols, dim_h))
    kernel = (vstack(blocks).kernel() if blocks
              else Subspace.full(dim_h))
    return [lincomb(zip(kernel.basis.row_tuple(k), reps), dim)
            for k in range(kernel.dim)]


def _basis_invariant_normalised(fullco, sub):
    """Normalised cocycles annihilated by the whole action of every h-basis
    and r'-basis element: an oracle for invariant_normalised."""
    N = fullco.normalised_space
    cols = N.basis.transpose()
    ops = [cochain_action(fullco.complex, *X)
           for X in _isotropy_generators(sub)]
    if not ops or N.dim == 0:
        return N
    kernel = vstack([column_actions.apply_many(op, cols)
                     for op in ops]).kernel()
    dim = N.ambient_dim
    return Subspace.from_vectors(dim, [
        lincomb(zip(kernel.basis.row_tuple(k), basis_vectors(N)), dim)
        for k in range(kernel.dim)])


_SUBALGEBRA_CASES = ([(*cell, None) for cell in GRID] +
                     [(*cell, seed) for cell in GRID for seed in (1, 2, 7)])


def _case(s, t, N, seed):
    return (get_full_subalgebra(s, t, N) if seed is None
            else get_sampled_subalgebra(s, t, N, seed))


class TestLieGeneratorInvariance:
    @pytest.mark.parametrize("s,t,N,seed", _SUBALGEBRA_CASES)
    def test_invariant_classes_match_the_basis_oracle(self, s, t, N, seed):
        sub = _case(s, t, N, seed)
        co = compute_cohomology(spencer.spencer_complex(sub, 2), 2)
        assert co.invariant_classes() == _basis_invariant_classes(co)
        if co.dim_h:
            assert len(column_actions.row_action_matrices(co)) == \
                len(sub.h_generators) + len(sub.rp_generators)

    @pytest.mark.parametrize("s,t,N,seed", _SUBALGEBRA_CASES)
    def test_invariant_normalised_matches_the_basis_oracle(self, s, t, N,
                                                           seed):
        sub = _case(s, t, N, seed)
        fullco = get_fullco(s, t, N)
        oracle = _basis_invariant_normalised(fullco, sub)
        assert fullco.invariant_normalised(*sub.generator_coords()) == oracle
        assert fullco.invariant_normalised(
            basis_vectors(sub.h), basis_vectors(sub.rp)) == oracle

    def test_sweep_like_subalgebras(self):
        # random S' at the highly supersymmetric dimension with the
        # stabiliser isotropy, r' = 0 or the stabiliser, as the sweep draws
        # the normalised invariants against the full-invariance oracle too
        for s, t, N in ((2, 1, 1), (2, 1, 2), (3, 1, 1)):
            model = get_model(s, t, N)
            fullco = get_fullco(s, t, N)
            for seed in range(3, 6):
                for mode in ("zero", "stabiliser"):
                    sub = random_highly_susy_subalgebra(
                        model, HIGH_SUSY_DIM[(s, t, N)], seed, mode)
                    co = compute_cohomology(
                        spencer.spencer_complex(sub, 2), 2)
                    assert co.invariant_classes() == \
                        _basis_invariant_classes(co)
                    assert fullco.invariant_normalised(
                        *sub.generator_coords()) == \
                        _basis_invariant_normalised(fullco, sub)

    def test_operators_per_generator_only(self):
        # (3,1,2) maximal: 3 + 2 Lie generators act, not the 6 + 4 basis
        sub = get_full_subalgebra(3, 1, 2)
        cx = spencer.spencer_complex(sub, 2)
        co = compute_cohomology(cx, 2)
        assert co.dim_h and len(column_actions.row_action_matrices(co)) == 5
        assert len(tuple(spencer.generator_actions(cx))) == 5
        assert len(subalgebra_actions(cx)) == 10
        # the generators' operators are the basis ones, built once
        ops = subalgebra_actions(cx)
        assert all(any(g is op for op in ops)
                   for g in spencer.generator_actions(cx))

    def test_admissibility_asks_for_the_generators(self, monkeypatch):
        from spencerkit.deform import check_admissibility, zero_cocycle
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        fullco = get_fullco(3, 1, 1)
        calls = []
        inner = FullModelCohomology.invariant_normalised

        def recording(self, h_gens, rp_gens):
            calls.append((list(h_gens), list(rp_gens)))
            return inner(self, h_gens, rp_gens)

        monkeypatch.setattr(FullModelCohomology, "invariant_normalised",
                            recording)
        datum = check_admissibility(sub, zero_cocycle(sub), fullco)
        assert calls == [tuple(map(list, datum.subalgebra.generator_coords()))]
