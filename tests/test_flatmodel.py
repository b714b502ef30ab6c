import dataclasses
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from instances import GRID, annihilator_in_so, bracket_vec, \
    entrywise_r_symmetry_algebra, entrywise_schur_algebra, \
    fraction_jacobi_check, get_current, get_full_subalgebra, get_model, \
    get_rep, get_sampled_subalgebra, kappa_value, stabiliser_in_r, \
    vec_bracket
import pairwise_oracles
from pairwise_oracles import basis_vec, basis_vectors, bracket_table, \
    endo_contains, endo_coordinates, matrix_of, so_coordinates, zero_vec
from spencerkit.cliffspin import Signature, build_clifford_rep, \
    build_dirac_current, spin_generators
from spencerkit.errors import JacobiViolation, NotClosed, NotCompactForm
from spencerkit.exactla import ExactMatrix, Subspace, kron, \
    tensor_index_maps, vec_is_zero
from spencerkit.flatmodel import (EndoSubalgebra, GradedBracketTensor,
                                  _preserves, build_extended_flat_model,
                                  compute_r_symmetry_algebra,
                                  compute_schur_algebra, faithful_split,
                                  full_subalgebra, graded_jacobi_check,
                                  jacobi_triples, kappa_restriction_matrix,
                                  lie_generating_subset,
                                  make_graded_subalgebra, random_subspace)


class TestSchurAlgebra:
    def test_d3_n1_scalars_only(self):
        assert compute_schur_algebra(get_rep(2, 1, 1)).dim == 1

    def test_d3_n2_two_by_two(self):
        assert compute_schur_algebra(get_rep(2, 1, 2)).dim == 4

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_identity_in_span(self, s, t, N):
        schur = compute_schur_algebra(get_rep(s, t, N))
        assert endo_contains(schur, ExactMatrix.identity(schur.spinor_dim))


class TestRSymmetryAlgebra:
    def test_d3_n1_trivial(self):
        schur = compute_schur_algebra(get_rep(2, 1, 1))
        assert compute_r_symmetry_algebra(schur,
                                          get_current(2, 1, 1)).dim == 0

    def test_d3_n2_so2(self):
        r = compute_r_symmetry_algebra(compute_schur_algebra(get_rep(2, 1, 2)),
                                       get_current(2, 1, 2))
        assert r.dim == 1

    def test_zero_current_gives_full_schur(self):
        rep = get_rep(2, 1, 2)
        zero = build_dirac_current(rep, [ExactMatrix.zeros(4, 4)] * 3)
        schur = compute_schur_algebra(rep)
        r = compute_r_symmetry_algebra(schur, zero)
        assert r.dim == schur.dim
        assert r.basis == schur.basis

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_preserves_current_exactly(self, s, t, N):
        rep, cur = get_rep(s, t, N), get_current(s, t, N)
        r = compute_r_symmetry_algebra(compute_schur_algebra(rep), cur)
        ns = rep.spinor_dim
        for a in r.matrices:
            for K in cur.components:
                if not (a.transpose() @ K + K @ a).is_zero():
                    pytest.fail("r does not preserve kappa")


@pytest.mark.parametrize("s,t,N", GRID + ((4, 1, 1),))
def test_kron_systems_equal_the_entrywise_ones(s, t, N):
    rep, cur = get_rep(s, t, N), get_current(s, t, N)
    schur = compute_schur_algebra(rep)
    assert schur.basis == entrywise_schur_algebra(rep).basis
    assert compute_r_symmetry_algebra(schur, cur).basis == \
        entrywise_r_symmetry_algebra(rep, cur).basis


@pytest.mark.parametrize("s,t,N", GRID)
def test_defining_equations_decide_membership(s, t, N):
    # a matrix satisfies the R-symmetry equations exactly when it lies in
    # the R-symmetry algebra; candidates are the Schur and r bases,
    # combinations of two Schur elements, the identity and two matrix units
    rep, cur = get_rep(s, t, N), get_current(s, t, N)
    schur = compute_schur_algebra(rep)
    r = compute_r_symmetry_algebra(schur, cur)
    sigma = spin_generators(rep).sigma
    ns = rep.spinor_dim
    candidates = list(schur.matrices) + list(r.matrices) + \
        [a + b.scale(Fraction(-2, 3)) for a in schur.matrices
         for b in schur.matrices] + \
        [ExactMatrix.identity(ns), ExactMatrix(ns, ns, [(0, 0, 1)]),
         ExactMatrix(ns, ns, [(0, ns - 1, Fraction(1, 2))])]
    verdicts = [_preserves(m, sigma, cur.components) for m in candidates]
    assert verdicts == [endo_contains(r, m) for m in candidates]
    assert any(verdicts) == (r.dim > 0) and not all(verdicts)


class TestExtendedFlatModel:
    def test_d3_n1_dims_and_jacobi(self):
        model = get_model(2, 1, 1)
        assert model.dims == {"V": 3, "S": 2, "so": 3, "r": 0}
        assert graded_jacobi_check(model.tensor).passed

    def test_grading_tags(self):
        model = get_model(2, 1, 1)
        degs = model.tensor.degrees
        assert degs[:3] == (-2, -2, -2)
        assert degs[3:5] == (-1, -1)
        assert all(d == 0 for d in degs[5:])
        assert model.tensor.parities[3] == 1  # spinors odd

    def test_zero_current_abelian_odd_part(self):
        rep = get_rep(2, 1, 1)
        zero = build_dirac_current(rep, [ExactMatrix.zeros(2, 2)] * 3)
        model = build_extended_flat_model(rep, zero)
        off = model.off_s
        table = bracket_table(model.tensor)
        for i in range(model.dim_s):
            for j in range(model.dim_s):
                assert (off + i, off + j) not in table
        assert graded_jacobi_check(model.tensor).passed

    def test_sign_flipped_current_still_jacobi(self):
        rep = get_rep(2, 1, 1)
        cur = get_current(2, 1, 1)
        flipped = build_dirac_current(rep,
                                      [k.scale(-1) for k in cur.components])
        model = build_extended_flat_model(rep, flipped)
        assert graded_jacobi_check(model.tensor).passed

    def test_perturbed_structure_constant_fails(self):
        model = get_model(2, 1, 1)
        tensor = model.tensor
        n = tensor.total_dim
        # [s_0, s_0] moved by e_0
        bad = dataclasses.replace(tensor, matrix=tensor.matrix + ExactMatrix(
            n, n * n, [(0, model.off_s * n + model.off_s, 1)]))
        assert not graded_jacobi_check(bad).passed

    def test_r_acts_by_derivations(self):
        # a.[X,Y] = [a.X, Y] + [X, a.Y] for every r basis element
        model = get_model(2, 1, 2)
        assert model.dim_r == 1
        table = bracket_table(model.tensor)
        a = model.off_r  # the single r generator
        total = model.tensor.total_dim
        for x in range(total):
            for y in range(total):
                acc = bracket_vec(table, a, table.get((x, y), {}))
                for k, v in vec_bracket(table, table.get((a, x), {}),
                                        y).items():
                    acc[k] = acc.get(k, Fraction(0)) - v
                a_y = table.get((a, y), {})
                for k, v in a_y.items():
                    for k2, v2 in table.get((x, k), {}).items():
                        acc[k2] = acc.get(k2, Fraction(0)) - v * v2
                assert all(v == 0 for v in acc.values()), (x, y)

    def test_r_outside_r_kappa_rejected(self):
        rep = get_rep(2, 1, 2)
        cur = get_current(2, 1, 2)
        schur = compute_schur_algebra(rep)
        with pytest.raises(NotClosed) as err:
            build_extended_flat_model(rep, cur, schur)
        # the witness is the first Schur basis element outside r
        r = compute_r_symmetry_algebra(schur, cur)
        outside = next(m for m in schur.matrices
                       if not endo_contains(r, m))
        assert err.value.witness == outside.to_serialisable()

    def test_supplied_r_symmetry_algebra_accepted(self):
        rep, cur = get_rep(2, 1, 2), get_current(2, 1, 2)
        r = compute_r_symmetry_algebra(compute_schur_algebra(rep), cur)
        assert build_extended_flat_model(rep, cur, r).dims == \
            build_extended_flat_model(rep, cur).dims

    def test_skew_current_gives_plain_lie_algebra(self):
        # an antisymmetric pairing on the extension index yields a skew
        # current; the flat model is then an ordinary Z-graded Lie algebra
        from spencerkit.exactla import kron
        rep = get_rep(2, 1, 2)
        base = get_current(2, 1, 1)
        eps = ExactMatrix.from_rows([[0, 1], [-1, 0]])
        skew_comps = [kron(eps, k) for k in base.components]
        skew = build_dirac_current(rep, skew_comps)
        assert skew.symmetry == "skew"
        model = build_extended_flat_model(rep, skew)
        assert not model.odd_spinors
        assert graded_jacobi_check(model.tensor).passed


class TestGradedSubalgebras:
    def test_full_subalgebra_maximal(self):
        sub = get_full_subalgebra(3, 1, 1)
        assert sub.highly_susy and sub.transitive and sub.maximal()

    def test_d4_sampled_homogeneity(self):
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        assert sub.Sp.dim == 3 and sub.highly_susy
        assert sub.homogeneity_rank == 4

    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (3, 1, 2)])
    def test_maximal_subalgebra_built_once_per_model(self, s, t, N):
        # four full subspaces, however they are spanned, give the model's
        # kept maximal subalgebra; anything less builds a new one
        from spencerkit.flatmodel import _graded_subalgebra
        rep = get_rep(s, t, N)
        model = build_extended_flat_model(rep, get_current(s, t, N))
        assert model.maximal_subalgebra is None
        full = full_subalgebra(model)
        assert model.maximal_subalgebra is full
        ns = model.dim_s
        respanned = Subspace.from_vectors(ns, [
            [1 if j <= i else 0 for j in range(ns)] for i in range(ns)])
        assert make_graded_subalgebra(
            model, Subspace.full(model.dim_v), respanned,
            Subspace.full(model.dim_so), Subspace.full(model.dim_r)) is full
        fresh = _graded_subalgebra(model, *full.key)
        assert fresh == full and fresh.h_generators == full.h_generators
        assert (fresh.highly_susy, fresh.transitive, fresh.homogeneity_rank) \
            == (full.highly_susy, full.transitive, full.homogeneity_rank)
        no_r = (Subspace.full(model.dim_v), Subspace.full(ns),
                Subspace.full(model.dim_so), Subspace.trivial(model.dim_r))
        if model.dim_r:
            assert make_graded_subalgebra(model, *no_r) is not \
                make_graded_subalgebra(model, *no_r)
        assert model.maximal_subalgebra is full

    def test_degenerate_subalgebra_valid(self):
        model = get_model(3, 1, 1)
        sub = make_graded_subalgebra(
            model, Subspace.trivial(4), Subspace.trivial(4),
            Subspace.full(6), Subspace.full(model.dim_r))
        assert not sub.highly_susy

    def test_not_closed_witness(self):
        model = get_model(2, 1, 2)
        # random S' is generically not preserved by the full r = so(2)
        from spencerkit.flatmodel import random_subspace
        Sp = random_subspace(4, 3, seed=5)
        with pytest.raises(NotClosed) as err:
            make_graded_subalgebra(model, Subspace.full(3), Sp,
                                   Subspace.trivial(3),
                                   Subspace.full(model.dim_r))
        assert err.value.witness is not None

    def test_kappa_image_must_lie_in_vp(self):
        model = get_model(2, 1, 1)
        with pytest.raises(NotClosed):
            make_graded_subalgebra(model,
                                   Subspace.from_vectors(3, [[1, 0, 0]]),
                                   Subspace.full(2), Subspace.trivial(3),
                                   Subspace.trivial(0))

    @pytest.mark.parametrize("s,t,N", GRID)
    @pytest.mark.parametrize("seed", [None, 1, 7])
    def test_structure_constants_are_the_commutators(self, s, t, N, seed):
        model = get_model(s, t, N)
        sub = (get_full_subalgebra(s, t, N) if seed is None
               else get_sampled_subalgebra(s, t, N, seed))
        dh, dr = sub.h.dim, sub.rp.dim
        for k, A in enumerate(sub.h_so):
            for l, B in enumerate(sub.h_so):
                assert sub.h_brackets.row_tuple(k * dh + l) == \
                    sub.h.coordinates(so_coordinates(model, A.commutator(B)))
        for p, a in enumerate(sub.rp_mats):
            for q, b in enumerate(sub.rp_mats):
                assert sub.rp_brackets.row_tuple(p * dr + q) == \
                    sub.rp.coordinates(endo_coordinates(model.r,
                                                        a.commutator(b)))

    def test_structure_constants_of_so3(self):
        # r = so(3) at (2,1,3): a non-abelian r' with brackets in its basis
        rep = build_clifford_rep(Signature(2, 1), 3)
        model = build_extended_flat_model(rep, build_dirac_current(rep))
        sub = full_subalgebra(model)
        assert not sub.rp_brackets.is_zero()
        dr = sub.rp.dim
        for p, a in enumerate(sub.rp_mats):
            for q, b in enumerate(sub.rp_mats):
                assert sub.rp_brackets.row_tuple(p * dr + q) == \
                    sub.rp.coordinates(endo_coordinates(model.r,
                                                        a.commutator(b)))

    @pytest.mark.parametrize("seed", range(5))
    def test_so_annihilator_trivial_for_highly_susy(self, seed):
        # corollary of homogeneity with a causal current
        model = get_model(3, 1, 1)
        sub = get_sampled_subalgebra(3, 1, 1, seed)
        assert annihilator_in_so(model, sub.Sp).dim == 0



def _closure_failure(model, Vp, Sp, h, rp) -> str:
    with pytest.raises(NotClosed) as err:
        make_graded_subalgebra(model, Vp, Sp, h, rp)
    return err.value.condition


class TestClosureConditions:
    """One case per closure condition of make_graded_subalgebra, each built
    so that every check before it passes; the condition string is reported
    as the subalgebra stage's negative."""

    def test_kappa_leaves_vp(self):
        model = get_model(2, 1, 1)
        assert _closure_failure(
            model, Subspace.from_vectors(3, [[1, 0, 0]]), Subspace.full(2),
            Subspace.trivial(3), Subspace.trivial(model.dim_r)) == \
            "kappa(S', S') leaves V'"

    def test_h_not_closed(self):
        # [E01, E02] is a multiple of E12
        model = get_model(2, 1, 1)
        h = Subspace.from_vectors(3, [basis_vec(3, 0), basis_vec(3, 1)])
        assert _closure_failure(
            model, Subspace.full(3), Subspace.full(2), h,
            Subspace.trivial(model.dim_r)) == \
            "h is not closed under the commutator"

    def test_rp_not_closed(self):
        # two generators of r = so(3) do not close
        rep = build_clifford_rep(Signature(2, 1), 3)
        model = build_extended_flat_model(rep, build_dirac_current(rep))
        assert model.dim_r == 3
        rp = Subspace.from_vectors(3, [basis_vec(3, 0), basis_vec(3, 1)])
        assert _closure_failure(
            model, Subspace.full(3), Subspace.full(6), Subspace.trivial(3),
            rp) == "r' is not closed under the commutator"

    def test_h_does_not_preserve_vp(self):
        model = get_model(2, 1, 1)
        assert _closure_failure(
            model, Subspace.from_vectors(3, [[1, 0, 0]]),
            Subspace.trivial(2), Subspace.full(3),
            Subspace.trivial(model.dim_r)) == "h does not preserve V'"

    def test_h_does_not_preserve_sp(self):
        model = get_model(2, 1, 1)
        assert _closure_failure(
            model, Subspace.full(3), Subspace.from_vectors(2, [[1, 0]]),
            Subspace.full(3), Subspace.trivial(model.dim_r)) == \
            "h does not preserve S'"

    def test_rp_does_not_preserve_sp(self):
        # r = so(2) rotates the two copies of the spinor module
        model = get_model(2, 1, 2)
        assert _closure_failure(
            model, Subspace.full(3), Subspace.from_vectors(4, [basis_vec(4, 0)]),
            Subspace.trivial(3), Subspace.full(model.dim_r)) == \
            "r' does not preserve S'"


def _pairwise_kappa(model, Sp, kind="sym2") -> ExactMatrix:
    svecs = basis_vectors(Sp)
    pairs = tensor_index_maps(Sp.dim, kind).tuples
    return ExactMatrix.from_rows(
        [kappa_value(model.current, svecs[i], svecs[j]) for i, j in pairs],
        cols=model.dim_v).transpose()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRID), st.integers(0, 8), st.integers(0, 10 ** 6))
def test_kappa_sp_is_pairwise_kappa(cell, dim, seed):
    # kappa o Sym^2 E agrees with kappa evaluated pair by pair
    model = get_model(*cell)
    Sp = random_subspace(model.dim_s, min(dim, model.dim_s), seed)
    sub = make_graded_subalgebra(model, Subspace.full(model.dim_v), Sp,
                                 Subspace.trivial(model.dim_so),
                                 Subspace.trivial(model.dim_r))
    assert sub.kappa_sp == _pairwise_kappa(model, Sp)
    assert sub.homogeneity_rank == sub.kappa_sp.rank()


def test_kappa_sp_of_a_skew_current_lives_on_wedge2():
    # a skew current is kappa on Wedge^2 S; the homogeneity rank is the rank
    # of its values on the pairs of S' basis vectors
    rep = get_rep(2, 1, 2)
    eps = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    skew = build_dirac_current(
        rep, [kron(eps, k) for k in get_current(2, 1, 1).components])
    model = build_extended_flat_model(rep, skew)
    Sp = random_subspace(4, 3, seed=2)
    kappa_sp = kappa_restriction_matrix(model, Sp)
    assert kappa_sp == _pairwise_kappa(model, Sp, "wedge2")
    assert kappa_sp.rank() == _pairwise_kappa(model, Sp).rank() > 0


class TestFaithfulSplit:
    def test_already_faithful(self):
        model = get_model(2, 1, 2)
        rp = EndoSubalgebra.from_matrices(4, model.r.matrices)
        rpp, ann = faithful_split(rp, Subspace.full(4))
        assert rpp.dim == rp.dim and ann.dim == 0

    def test_zero_spinors_all_annihilate(self):
        model = get_model(2, 1, 2)
        rp = EndoSubalgebra.from_matrices(4, model.r.matrices)
        rpp, ann = faithful_split(rp, Subspace.trivial(4))
        assert rpp.dim == 0 and ann.dim == rp.dim

    def test_invariance_violation_detected(self):
        # so(2) rotating the two copies does not preserve a single copy
        model = get_model(2, 1, 2)
        rp = EndoSubalgebra.from_matrices(4, model.r.matrices)
        copy1 = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(NotClosed):
            faithful_split(rp, copy1)

    def test_nontrivial_split(self):
        # N=3: r = so(3); the rotation mixing copies 2 and 3 annihilates
        # copy 1 while preserving it
        rep = build_clifford_rep(Signature(2, 1), 3)
        cur = build_dirac_current(rep)
        model = build_extended_flat_model(rep, cur)
        assert model.dim_r == 3
        copy1 = Subspace.from_vectors(6, [basis_vec(6, 0), basis_vec(6, 1)])
        ann_mats = [m for m in model.r.matrices
                    if all(vec_is_zero(m.apply(v))
                           for v in basis_vectors(copy1))]
        candidates = [m for m in model.r.matrices]
        # build rp = annihilator of copy1 inside r
        from spencerkit.exactla import ExactMatrix as EM
        rows = []
        for v in basis_vectors(copy1):
            for i in range(6):
                rows.append([m.apply(v)[i] for m in model.r.matrices])
        ann_coords = EM.from_rows(rows, cols=3).kernel()
        assert ann_coords.dim == 1
        rp = EndoSubalgebra.from_matrices(
            6, [matrix_of(model.r, ann_coords.basis.row_tuple(0))])
        rpp, ann = faithful_split(rp, copy1)
        assert rpp.dim == 0 and ann.dim == 1
        # and a faithfully-acting piece: stabiliser of copies 1+2
        copy12 = Subspace.from_vectors(
            6, [basis_vec(6, i) for i in range(4)])
        stab = stabiliser_in_r(model, copy12)
        rp2 = EndoSubalgebra.from_matrices(
            6, [matrix_of(model.r, stab.basis.row_tuple(i))
                for i in range(stab.dim)])
        rpp2, ann2 = faithful_split(rp2, copy12)
        assert ann2.dim == 0 and rpp2.dim == stab.dim

    def test_noncompact_form_rejected(self):
        # a nilpotent endomorphism has totally isotropic trace form
        nil = ExactMatrix.from_rows([[0, 1], [0, 0]])
        rp = EndoSubalgebra.from_matrices(2, [nil])
        with pytest.raises(NotCompactForm):
            faithful_split(rp, Subspace.full(2))


def _ordered_jacobi_check(tensor):
    """The Jacobi identity on all n^3 ordered basis triples, after the
    super-antisymmetry and Z-degree pass: an oracle for graded_jacobi_check
    on parity-preserving brackets."""
    n, par, deg = tensor.total_dim, tensor.parities, tensor.degrees
    table = bracket_table(tensor)
    for i in range(n):
        for j in range(n):
            sign = -1 if par[i] * par[j] == 0 else 1
            bij, bji = table.get((i, j), {}), table.get((j, i), {})
            if any(bij.get(k, 0) != sign * bji.get(k, 0)
                   for k in set(bij) | set(bji)):
                return False
            if deg is not None and any(deg[k] != deg[i] + deg[j]
                                       for k in bij):
                return False
    for i in range(n):
        for j in range(n):
            sgn = -1 if par[i] * par[j] else 1
            for k in range(n):
                acc = bracket_vec(table, i, table.get((j, k), {}))
                for t, v in vec_bracket(table, table.get((i, j), {}),
                                        k).items():
                    acc[t] = acc.get(t, 0) - v
                for t, v in bracket_vec(table, j,
                                        table.get((i, k), {})).items():
                    acc[t] = acc.get(t, 0) - sgn * v
                if any(acc.values()):
                    return False
    return True


def _with_entry(tensor, i, j, k, c):
    """The tensor with c added to [x_i, x_j]_k and the super-antisymmetric
    partner -(-1)^{|i||j|} c added to [x_j, x_i]_k (once when i == j)."""
    par, n = tensor.parities, tensor.total_dim
    sign = -1 if par[i] * par[j] == 0 else 1
    moved = {i * n + j: c, j * n + i: sign * c}
    return dataclasses.replace(tensor, matrix=tensor.matrix + ExactMatrix(
        n, n * n, [(k, col, value) for col, value in moved.items()]))


def _with_value(tensor, i, j, k, c):
    """The tensor with [x_i, x_j]_k set to c, its partner left as it is."""
    n = tensor.total_dim
    col = i * n + j
    return dataclasses.replace(tensor, matrix=tensor.matrix + ExactMatrix(
        n, n * n, [(k, col, c - tensor.matrix.entry(k, col))]))


_FRACTIONS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(3, 4))


@st.composite
def _super_tensors(draw, constants=(0, 0, 0, 1, -1)):
    """A small random super-antisymmetric, parity-preserving bracket with
    structure constants drawn from `constants`."""
    par = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)))
    n = len(par)
    tensor = GradedBracketTensor(component_dims=(n,), parities=par,
                                 degrees=None, matrix=ExactMatrix(n, n * n))
    for i in range(n):
        for j in range(i if par[i] else i + 1, n):
            for k in range(n):
                c = draw(st.sampled_from(constants))
                if c and par[k] == (par[i] + par[j]) % 2:
                    tensor = _with_entry(tensor, i, j, k, Fraction(c))
    return tensor


def _rescaled(tensor, d):
    """The bracket in the basis x'_i = d_i x_i: [x'_i, x'_j]_k =
    d_i d_j [x_i, x_j]_k / d_k, that is D^-1 M (D (x) D) for D = diag(d).
    A change of basis, so the Jacobi identity and the grading hold exactly
    when they held before."""
    n = len(d)
    D = ExactMatrix(n, n, [(i, i, x) for i, x in enumerate(d)])
    D_inv = ExactMatrix(n, n, [(i, i, 1 / Fraction(x))
                               for i, x in enumerate(d)])
    return dataclasses.replace(tensor, matrix=D_inv @ tensor.matrix @ kron(
        D, D))


class TestUnorderedJacobi:
    @pytest.mark.parametrize("par", [(0,) * 6, (1,) * 6, (0, 1, 0, 1, 1)])
    def test_triples_counted(self, par):
        n = len(par)
        triples = list(jacobi_triples(par))
        assert len(set(triples)) == len(triples) <= n * (n + 1) * (n + 2) // 6
        assert all(i <= j <= k for i, j, k in triples)
        # a repeated index is kept exactly when it is odd
        assert all(par[i] for i, j, _ in triples if i == j)
        assert all(par[j] for _, j, k in triples if j == k)
        if all(par):
            assert len(triples) == n * (n + 1) * (n + 2) // 6
        if not any(par):
            assert len(triples) == n * (n - 1) * (n - 2) // 6

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_flat_model_triples(self, s, t, N):
        # the flat models have n + dim S odd basis vectors
        model = get_model(s, t, N)
        n = model.total_dim
        count = sum(1 for _ in jacobi_triples(model.tensor.parities))
        assert count <= n * (n + 1) * (n + 2) // 6 < n ** 3
        assert graded_jacobi_check(model.tensor).passed

    @settings(max_examples=150, deadline=None)
    @given(tensor=_super_tensors(), data=st.data())
    def test_agrees_with_the_ordered_check(self, tensor, data):
        par, n = tensor.parities, tensor.total_dim
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        if par[k] == (par[i] + par[j]) % 2 and (i != j or par[i]):
            tensor = _with_entry(tensor, i, j, k, Fraction(
                data.draw(st.sampled_from((1, -1, 2)))))
        assert graded_jacobi_check(tensor).passed == \
            _ordered_jacobi_check(tensor)

    @settings(max_examples=40, deadline=None)
    @given(cell=st.sampled_from(((2, 1, 1), (2, 1, 2))), data=st.data())
    def test_perturbed_flat_model_agrees(self, cell, data):
        tensor = get_model(*cell).tensor
        par, n = tensor.parities, tensor.total_dim
        i, j = data.draw(st.sampled_from(
            [(i, j) for i in range(n) for j in range(i, n)
             if i < j or par[i]]))
        k = data.draw(st.sampled_from(
            [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        bad = _with_entry(tensor, i, j, k,
                          Fraction(data.draw(st.sampled_from((1, -1)))))
        assert graded_jacobi_check(bad).passed == _ordered_jacobi_check(bad)

    @settings(max_examples=150, deadline=None)
    @given(tensor=_super_tensors(constants=(0, 0, 1, -1) + _FRACTIONS),
           data=st.data())
    def test_random_rational_tensors_match_the_fraction_oracle(self, tensor,
                                                               data):
        # integer scaling leaves the certificate as it is: passed, detail
        # and witness, the rational defect included
        par, n = tensor.parities, tensor.total_dim
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        if data.draw(st.booleans()):
            # an entry without its super-antisymmetric partner
            tensor = _with_value(tensor, i, j, k, data.draw(
                st.sampled_from(_FRACTIONS)))
        assert graded_jacobi_check(tensor) == fraction_jacobi_check(tensor)

    @settings(max_examples=40, deadline=None)
    @given(cell=st.sampled_from(((2, 1, 1), (2, 1, 2), (3, 1, 1))),
           data=st.data())
    def test_rescaled_flat_model_matches_the_fraction_oracle(self, cell,
                                                             data):
        # a rational change of basis keeps the identity with non-integer
        # constants; one fractional entry and its partner then perturb it
        tensor = get_model(*cell).tensor
        par, n = tensor.parities, tensor.total_dim
        scales = st.sampled_from((1, -1, 2, 3) + _FRACTIONS)
        tensor = _rescaled(tensor, [data.draw(scales) for _ in range(n)])
        cert = graded_jacobi_check(tensor)
        assert cert.passed and cert == fraction_jacobi_check(tensor)
        i, j = data.draw(st.sampled_from(
            [(i, j) for i in range(n) for j in range(i, n)
             if i < j or par[i]]))
        k = data.draw(st.sampled_from(
            [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        bad = _with_entry(tensor, i, j, k, data.draw(st.sampled_from(
            _FRACTIONS)))
        assert graded_jacobi_check(bad) == fraction_jacobi_check(bad)

    def test_parity_violation_rejected(self):
        # x_0, x_1 even and x_2 odd: [x_0, x_1] = x_2 = -[x_1, x_0] is
        # super-antisymmetric, but its value is odd
        tensor = GradedBracketTensor(
            component_dims=(3,), parities=(0, 0, 1), degrees=None,
            matrix=ExactMatrix(3, 9))
        bad = _with_entry(tensor, 0, 1, 2, Fraction(1))
        cert = graded_jacobi_check(bad)
        assert not cert.passed
        assert cert.detail == "bracket does not respect the parity"
        assert cert.witness == {"pair": (0, 1), "target": 2}


def _lie_closure(mats, vecs, coords):
    """The span of the iterated commutators of the matrices mats[k] of the
    coordinate vectors vecs, in the coordinates `coords` returns."""
    dim = len(mats)
    span = Subspace.from_vectors(dim, vecs)
    grown = True
    while grown:
        grown = False
        basis = basis_vectors(span)
        elems = [sum((m.scale(c) for c, m in zip(v, mats) if c),
                     ExactMatrix.zeros(mats[0].rows, mats[0].cols))
                 for v in basis]
        for a in elems:
            for b in elems:
                c = coords(a.commutator(b))
                if not span.contains(c):
                    span = Subspace.from_vectors(
                        dim, basis_vectors(span) + [c])
                    grown = True
    return span


def _generating_subset(table):
    """lie_generating_subset of the structure constants given as a dict of
    nonzero brackets {(k, l): (dim, *coordinates)}, made antisymmetric,
    checked against the per-vector oracle on the nested constants."""
    dim = max([d for d, *_ in table.values()] + [0])
    out = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for (k, l), (_, *coords) in table.items():
        out[k][l] = tuple(Fraction(c) for c in coords)
        out[l][k] = tuple(-Fraction(c) for c in coords)
    got = lie_generating_subset(ExactMatrix.from_rows(
        [c for row in out for c in row], cols=dim))
    assert got == pairwise_oracles.lie_generating_subset(out)
    return got


class TestLieGenerators:
    @pytest.mark.parametrize(
        "s,t,N,seed", [(*cell, None) for cell in GRID + ((2, 1, 3),
                                                        (4, 1, 1))] +
        [(*cell, seed) for cell in GRID for seed in (1, 2, 7)])
    def test_closure_is_the_whole_algebra(self, s, t, N, seed):
        sub = (get_full_subalgebra(s, t, N) if seed is None
               else get_sampled_subalgebra(s, t, N, seed))
        model = sub.model
        h_gens, rp_gens = sub.generator_coords()
        # h in so(V) coordinates, r' in r coordinates
        assert _lie_closure(
            model.gens.e_mats, h_gens or [zero_vec(model.dim_so)],
            lambda m: so_coordinates(model, m)) == sub.h
        if model.dim_r:
            assert _lie_closure(
                model.r.matrices, rp_gens or [zero_vec(model.dim_r)],
                lambda m: endo_coordinates(model.r, m)) == sub.rp
        assert list(sub.h_generators) == sorted(set(sub.h_generators))
        assert list(sub.rp_generators) == sorted(set(sub.rp_generators))

    def test_generator_counts(self):
        # (3,1,2): 3 of so(3,1) and 2 of u(2); (4,1,1): 4 of so(4,1) and 2
        # of r' = so(3); at most two would do for a semisimple algebra, but
        # the greedy choice takes basis elements only
        sub312 = get_full_subalgebra(3, 1, 2)
        assert (sub312.h.dim, sub312.rp.dim) == (6, 4)
        assert sub312.h_generators == (0, 1, 2)
        assert sub312.rp_generators == (0, 1)
        sub411 = get_full_subalgebra(4, 1, 1)
        assert (sub411.h.dim, sub411.rp.dim) == (10, 3)
        assert sub411.h_generators == (0, 1, 2, 3)
        assert sub411.rp_generators == (0, 1)

    def test_abelian_takes_every_element(self):
        # [x, y] = 0 for all basis elements: nothing is generated
        assert _generating_subset(({(0, 2): (3, 0, 0, 0)})) \
            == (0, 1, 2)

    def test_empty_algebra(self):
        assert _generating_subset({}) == ()

    def test_heisenberg_centre_is_generated(self):
        # [x, y] = z: the centre z is a bracket, so x and y suffice
        assert _generating_subset(
            ({(0, 1): (3, 0, 0, 1)})) == (0, 1)
        # with z first it is taken, then x, and y is not generated by x, z
        assert _generating_subset(
            ({(1, 2): (3, 1, 0, 0)})) == (0, 1, 2)

    def test_central_summand_is_taken(self):
        # u(1) + so(3): [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2 and c
        # central; e1 and e2 generate so(3), the central c never appears
        so3 = ({(1, 2): (4, 0, 0, 0, 1), (2, 3): (4, 0, 1, 0, 0),
                          (3, 1): (4, 0, 0, 1, 0)})
        assert _generating_subset(so3) == (0, 1, 2)
        # the central element last: still taken
        so3c = ({(0, 1): (4, 0, 0, 1, 0), (1, 2): (4, 1, 0, 0, 0),
                           (2, 0): (4, 0, 1, 0, 0)})
        assert _generating_subset(so3c) == (0, 1, 3)

    def test_abelian_h_and_zero_parts(self):
        model = get_model(3, 1, 1)
        nso = model.dim_so
        # two commuting rotations of so(3,1): boost E_01 and rotation E_23
        pairs = [(a, b) for a in range(nso) for b in range(a + 1, nso)
                 if model.gens.e_mats[a].commutator(
                     model.gens.e_mats[b]).is_zero()]
        a, b = pairs[0]
        h = Subspace.from_vectors(nso, [basis_vec(nso, a),
                                        basis_vec(nso, b)])
        sub = make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                     Subspace.full(model.dim_s), h,
                                     Subspace.trivial(model.dim_r))
        assert sub.h_generators == (0, 1) and sub.rp_generators == ()
        zero = make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                      Subspace.full(model.dim_s),
                                      Subspace.trivial(nso),
                                      Subspace.full(model.dim_r))
        assert zero.h_generators == () and zero.rp_generators == (0,)
        assert zero.generator_coords() == ([], [(Fraction(1),)])
