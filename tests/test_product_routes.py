"""The product routes of `flatmodel`, `spencer` and `deform` against the
per-pair and per-vector routes they replaced (`pairwise_oracles`): the
graded subalgebra data, the closure failures and their order, the
stabilisers, the faithful splitting of r', the restriction-kernel spaces,
the End(S) and so(V) bracket tables, the flat model's and the deformed
bracket placed as blocks against their pair-by-pair table assembly, and
the gauge shifts."""

import random

import pytest

import pairwise_oracles as oracle
import spencerkit.pipeline as pipeline
from instances import (GRID, admissible_cocycles_from_invariant,
                       admissible_data_for_cell, get_current,
                       get_full_subalgebra, get_fullco, get_model, get_rep,
                       get_sampled_subalgebra, invariant_basis,
                       random_highly_susy_subalgebra, stabiliser_in_r)
from spencerkit.cliffspin import Signature, build_clifford_rep, \
    build_dirac_current
from spencerkit.deform import (_gauge_shift, _theta_in_a0,
                               check_admissibility, check_integrability,
                               class_gauge_generators, compute_theta,
                               zero_cocycle)
from spencerkit.errors import NotClosed
from spencerkit.exactla import ExactMatrix, Subspace, kron
from spencerkit.flatmodel import (EndoSubalgebra, _graded_subalgebra,
                                  build_extended_flat_model,
                                  compute_schur_algebra, faithful_split,
                                  full_subalgebra, make_graded_subalgebra,
                                  random_subspace, stabiliser_in_so)
from spencerkit.spencer import (FullModelCohomology,
                                _restriction_kernel_report, inclusion_matrix)

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
        assert alg.bracket_table == oracle.nested_matrix(
            oracle.endo_bracket_table(alg), alg.dim)
    off = model.off_so
    table = oracle.bracket_table(model.tensor)
    for (a, b), coords in oracle.so_so_table(model).items():
        got = table.get((off + a, off + b), {})
        assert got == {off + k: c for k, c in enumerate(coords) if c}


def _flat_model(s, t, N, skew=False):
    """The flat model of a cell, with the skew current eps (x) kappa of
    the (s, t, 1) cell when asked (N = 2)."""
    if (s, t, N) in CELLS and not skew:
        return get_model(s, t, N)
    rep = get_rep(s, t, N)
    current = build_dirac_current(rep)
    if skew:
        eps = ExactMatrix.from_rows([[0, 1], [-1, 0]])
        current = build_dirac_current(rep, [
            kron(eps, k) for k in get_current(s, t, 1).components])
    return build_extended_flat_model(rep, current)


# the grid, (4,1,1), r = so(3) at (2,1,3), and the edge cells: (1,0,1) has
# so(V) = r = 0 and dim S = 1, (0,1,1) so(V) = 0 and r = u(1)
@pytest.mark.parametrize("s,t,N,skew", [(*cell, False) for cell in CELLS] +
                         [(2, 1, 3, False), (1, 0, 1, False),
                          (0, 1, 1, False), (2, 1, 2, True)])
def test_flat_model_matrix_equals_its_table_assembly(s, t, N, skew):
    model = _flat_model(s, t, N, skew)
    assert model.odd_spinors != skew
    assert model.tensor.matrix == oracle.table_matrix(
        model.total_dim, oracle.flat_model_table(model))


def _assert_deformed_bracket_is_its_table(datum):
    """The deformed bracket of an integrable datum, entry for entry, is the
    pair-by-pair table assembly of the same structure constants, delta,
    odd brackets, alpha and theta."""
    report = check_integrability(datum)
    assert report.passed
    theta_a0 = _theta_in_a0(datum, compute_theta(datum))
    tensor = report.tensor
    assert tensor.matrix == oracle.table_matrix(
        tensor.total_dim, oracle.deformed_bracket_table(datum, theta_a0))


def _integrable_data(sub, fullco):
    """The zero class and every admissible class of the invariant basis on
    a subalgebra, the integrable ones."""
    mus = [zero_cocycle(sub)] + admissible_cocycles_from_invariant(
        sub, fullco, invariant_basis(fullco, sub))
    data = [check_admissibility(sub, mu, fullco) for mu in mus
            if mu is not None]
    return [datum for datum in data
            if hasattr(datum, "hat") and check_integrability(datum).passed]


@pytest.mark.parametrize("s,t,N", CELLS)
def test_deformed_bracket_equals_its_table_assembly(s, t, N):
    # the maximal subalgebra and stabiliser subalgebras at seeds 0-2, each
    # with the zero class and the admissible invariant classes, and the
    # grid's generated data; on these only the zero class integrates at
    # (3,1,2) and (4,1,1)
    fullco = get_fullco(s, t, N)
    data = [datum for sub in _subalgebras(s, t, N)
            for datum in _integrable_data(sub, fullco)]
    if (s, t, N) in GRID:
        data += [datum for datum in admissible_data_for_cell(s, t, N)
                 if check_integrability(datum).passed]
    for datum in data:
        _assert_deformed_bracket_is_its_table(datum)
    assert len(data) >= 4
    assert any(any(datum.mu_minus.coeffs) for datum in data) == \
        ((s, t, N) not in ((3, 1, 2), (4, 1, 1)))


def test_deformed_bracket_of_the_readme_example(monkeypatch):
    # the README example through the pipeline, its datum taken at the
    # deformation stage
    data = []

    def keep(datum):
        data.append(datum)
        return build(datum)

    build = pipeline.build_filtered_deformation
    monkeypatch.setattr(pipeline, "build_filtered_deformation", keep)
    report = pipeline.run_pipeline({
        "signature": {"s": 3, "t": 1}, "N": 1,
        "dirac_current": {"kind": "standard"},
        "subalgebra": {"S_prime": {"random": {"dim": 3, "seed": 7}},
                       "h": "stabiliser", "r_prime": "zero"},
        "cocycle": {"basis_element": 0}, "seed": 7})
    assert report["result"] == "pass"
    datum, = data
    assert any(datum.mu_minus.coeffs)
    _assert_deformed_bracket_is_its_table(datum)


@pytest.mark.parametrize("case", ["h=r'=0 at (2,1,1)", "h=r'=0 at (3,1,1)",
                                  "h=0 at (0,1,1)",
                                  "h=r'=0 and dim S'=1 at (1,0,1)"])
def test_deformed_bracket_on_the_edge_cases(case):
    # a zero h or r', or a one-dimensional S', leaves blocks of the
    # deformed bracket empty
    if case.endswith("(0,1,1)") or case.endswith("(1,0,1)"):
        cell = (0, 1, 1) if case.endswith("(0,1,1)") else (1, 0, 1)
        model = _flat_model(*cell)
        fullco = FullModelCohomology(model)
        sub = full_subalgebra(model)
    else:
        cell = (2, 1, 1) if "(2,1,1)" in case else (3, 1, 1)
        model, fullco = get_model(*cell), get_fullco(*cell)
        sub = make_graded_subalgebra(
            model, Subspace.full(model.dim_v), Subspace.full(model.dim_s),
            Subspace.trivial(model.dim_so), Subspace.trivial(model.dim_r))
    data = _integrable_data(sub, fullco)
    assert data
    for datum in data:
        dims = datum.subalgebra.dims
        assert dims["h"] == 0
        assert (dims["r'"] == 0) == ("r'=0" in case)
        assert (dims["S'"] == 1) == ("dim S'=1" in case)
        _assert_deformed_bracket_is_its_table(datum)


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
