"""The product routes of `flatmodel`, `spencer` and `deform` against the
per-pair and per-vector routes they replaced (`pairwise_oracles`): the
graded subalgebra data, the closure failures and their order, the
stabilisers, the faithful splitting of r', the restriction-kernel spaces,
the End(S) and so(V) bracket tables, and the gauge shifts."""

import random

import pytest

import pairwise_oracles as oracle
from instances import (GRID, admissible_data_for_cell, get_full_subalgebra,
                       get_fullco, get_model, get_sampled_subalgebra,
                       random_highly_susy_subalgebra, stabiliser_in_r)
from spencerkit.cliffspin import Signature, build_clifford_rep, \
    build_dirac_current
from spencerkit.deform import _gauge_shift, class_gauge_generators
from spencerkit.errors import NotClosed
from spencerkit.exactla import ExactMatrix, Subspace
from spencerkit.flatmodel import (EndoSubalgebra, _graded_subalgebra,
                                  build_extended_flat_model,
                                  compute_schur_algebra, faithful_split,
                                  random_subspace, stabiliser_in_so)
from spencerkit.spencer import _restriction_kernel_report, inclusion_matrix

CELLS = GRID + ((4, 1, 1),)
SAMPLED_DIM = {(4, 1, 1): 5}


def _subalgebras(s, t, N):
    """The maximal subalgebra and stabiliser subalgebras at seeds 0-2."""
    if (s, t, N) in SAMPLED_DIM:
        sampled = [random_highly_susy_subalgebra(
            get_model(s, t, N), SAMPLED_DIM[(s, t, N)], seed)
            for seed in range(3)]
    else:
        sampled = [get_sampled_subalgebra(s, t, N, seed) for seed in range(3)]
    return [get_full_subalgebra(s, t, N)] + sampled


def _outcome(build):
    """The built value, or the condition of the NotClosed it raises, whose
    witness must not be empty."""
    try:
        return build()
    except NotClosed as err:
        assert err.witness, err.condition
        return err.condition


def _product(model, Vp, Sp, h, rp):
    return _outcome(lambda: _graded_subalgebra(model, Vp, Sp, h, rp))


def _pairwise(model, Vp, Sp, h, rp):
    return _outcome(lambda: oracle.subalgebra_data(model, Vp, Sp, h, rp))


def _assert_same_subalgebra(sub, data):
    for name, value in data.items():
        assert getattr(sub, name) == value, name


@pytest.mark.parametrize("s,t,N", CELLS)
def test_subalgebra_data_equals_the_pairwise_route(s, t, N):
    for sub in _subalgebras(s, t, N):
        model = sub.model
        fresh = _product(model, *sub.key)
        _assert_same_subalgebra(fresh, oracle.subalgebra_data(model,
                                                              *sub.key))
        _assert_same_subalgebra(sub, oracle.subalgebra_data(model, *sub.key))


@pytest.mark.parametrize("s,t,N", CELLS)
def test_restriction_kernels_equal_the_pairwise_route(s, t, N):
    fullco = get_fullco(s, t, N)
    for sub in _subalgebras(s, t, N):
        if not sub.highly_susy:
            continue
        report = _restriction_kernel_report(sub, fullco)
        assert (report.direct, report.via_istar) == \
            oracle.restriction_kernels(sub, fullco)


@pytest.mark.parametrize("s,t,N", CELLS)
@pytest.mark.parametrize("seed", range(3))
def test_stabilisers_equal_the_vector_route(s, t, N, seed):
    model = get_model(s, t, N)
    for dim in (0, 1, model.dim_s // 2 + 1, model.dim_s):
        Sp = random_subspace(model.dim_s, dim, seed)
        assert stabiliser_in_so(model, Sp) == oracle.stabiliser(
            model.gens.sigma, model.dim_so, Sp)
        assert stabiliser_in_r(model, Sp) == oracle.stabiliser(
            model.r.matrices, model.dim_r, Sp)


class TestNotClosed:
    """Every failing subalgebra gives the pairwise route's condition: the
    same check fails first."""

    def test_random_sp_with_h_full(self):
        # a proper S' (dim S = 2 at (2,1,1) leaves none above half)
        for cell in CELLS[1:]:
            model = get_model(*cell)
            for seed in range(3):
                Sp = random_subspace(model.dim_s, model.dim_s // 2 + 1, seed)
                args = (model, Subspace.full(model.dim_v), Sp,
                        Subspace.full(model.dim_so),
                        Subspace.trivial(model.dim_r))
                assert _product(*args) == _pairwise(*args) == \
                    "h does not preserve S'"

    def test_explicit_non_closed_h_and_rp(self):
        # [E01, E02] is a multiple of E12; two generators of r = so(3) at
        # (2,1,3) do not close
        model = get_model(2, 1, 1)
        h = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        args = (model, Subspace.full(3), Subspace.full(2), h,
                Subspace.trivial(model.dim_r))
        assert _product(*args) == _pairwise(*args) == \
            "h is not closed under the commutator"
        rep = build_clifford_rep(Signature(2, 1), 3)
        so3 = build_extended_flat_model(rep, build_dirac_current(rep))
        rp = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        args = (so3, Subspace.full(3), Subspace.full(6), Subspace.trivial(3),
                rp)
        assert _product(*args) == _pairwise(*args) == \
            "r' is not closed under the commutator"

    @pytest.mark.parametrize("cell", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_library_calls_with_vp_not_v(self, cell):
        # V' contains kappa(S', S') plus a random vector, h is one random
        # element (always closed) or all of so(V), r' one random element:
        # the preservation checks of V' and S' meet, element by element
        model = get_model(*cell)
        rnd = random.Random(sum(cell))
        seen = set()
        for seed in range(30):
            Sp = random_subspace(model.dim_s, rnd.randint(1, 2), seed)
            kappa = _graded_subalgebra(
                model, Subspace.full(model.dim_v), Sp,
                Subspace.trivial(model.dim_so),
                Subspace.trivial(model.dim_r)).kappa_sp
            extra = [rnd.randint(-2, 2) for _ in range(model.dim_v)]
            Vp = ExactMatrix.from_rows(
                [extra] + [kappa.transpose().row_tuple(p)
                           for p in range(kappa.cols)],
                cols=model.dim_v).row_space()
            h = (Subspace.full(model.dim_so) if seed % 3 == 0 else
                 random_subspace(model.dim_so, 1, seed))
            rp = random_subspace(model.dim_r, min(1, model.dim_r), seed)
            args = (model, Vp, Sp, h, rp)
            got = _product(*args)
            want = _pairwise(*args)
            if isinstance(want, str):
                assert got == want, (seed, got, want)
                seen.add(want)
            else:
                _assert_same_subalgebra(got, want)
        assert "h does not preserve V'" in seen

    def test_elements_are_checked_in_turn(self):
        # E_01 preserves V' = <e_0, e_1> but not S'; E_02 leaves V'.  The
        # first element that fails names the condition, though V' comes
        # before S' for each element
        model = get_model(2, 1, 2)
        args = (model, Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
                Subspace.from_vectors(4, [[1, 2, 2, 1]]),
                Subspace.full(model.dim_so), Subspace.trivial(model.dim_r))
        assert _product(*args) == _pairwise(*args) == \
            "h does not preserve S'"

    def test_kappa_leaves_vp(self):
        model = get_model(2, 1, 1)
        args = (model, Subspace.from_vectors(3, [[1, 0, 0]]),
                Subspace.full(2), Subspace.trivial(3),
                Subspace.trivial(model.dim_r))
        assert _product(*args) == _pairwise(*args) == \
            "kappa(S', S') leaves V'"


@pytest.mark.parametrize("cell", GRID + ((2, 1, 3),))
def test_faithful_split_equals_the_vector_route(cell):
    model = get_model(*cell) if cell in GRID else build_extended_flat_model(
        build_clifford_rep(Signature(2, 1), 3),
        build_dirac_current(build_clifford_rep(Signature(2, 1), 3)))
    for seed in range(3):
        for dim in (0, 2, model.dim_s):
            Sp = random_subspace(model.dim_s, dim, seed)
            stab = stabiliser_in_r(model, Sp)
            rp = EndoSubalgebra(model.dim_s, (stab.basis @ model.r.basis.basis)
                                .row_space())
            for alg in (rp, model.r):
                got = _outcome(lambda: faithful_split(alg, Sp))
                want = _outcome(lambda: oracle.faithful_split(alg, Sp))
                if isinstance(want, str):
                    assert got == want
                else:
                    assert [x.basis for x in got] == [x.basis for x in want]


@pytest.mark.parametrize("s,t,N", GRID + ((2, 1, 3), (4, 1, 1)))
def test_bracket_tables_equal_the_commutators(s, t, N):
    rep = build_clifford_rep(Signature(s, t), N)
    model = build_extended_flat_model(rep, build_dirac_current(rep))
    for alg in (compute_schur_algebra(rep), model.r):
        assert alg.bracket_table == oracle.endo_bracket_table(alg)
    off = model.off_so
    for (a, b), coords in oracle.so_so_table(model).items():
        got = model.tensor.bracket(off + a, off + b)
        assert got == {off + k: c for k, c in enumerate(coords) if c}


@pytest.mark.parametrize("s,t,N", GRID)
def test_gauge_shifts_equal_the_vector_route(s, t, N):
    for datum in admissible_data_for_cell(s, t, N):
        generators = class_gauge_generators(datum)
        cxs = datum.sub_complex
        inc = inclusion_matrix(cxs, datum.mixed_complex, 1)
        lay1 = cxs.layouts[1]
        G = generators[0].rows
        shifts = [(oracle.basis_vec(G, g), oracle.zero_vec(lay1.dim))
                  for g in range(G)]
        shifts.append((oracle.zero_vec(G), oracle.basis_vec(lay1.dim, 0)))
        for coeffs, nu in shifts:
            moved = _gauge_shift(datum, generators, coeffs, nu, inc)
            assert (moved.mu_minus.coeffs, moved.hat.coeffs, moved.lam) == \
                oracle.gauge_shift(datum, generators, coeffs, nu, inc)
