"""The a0-action on C^{2,2} with one cochain per row against the column form
it replaced (`column_actions`): the action matrices on H^{2,2} in the row
and the column form, the invariant classes, found one generator at a time,
against the kernels of both, the invariant normalised cocycles and the
combined operators of `FullModelCohomology.act`, on every grid cell,
(4,1,1), sampled and coordinate stabiliser subalgebras, and the edge cases:
H = 0, no generators (h = r' = 0), V' = 0, r' = 0 and dim S' = 1."""

import random
from fractions import Fraction

import pytest

import column_actions
from pairwise_oracles import basis_vec, basis_vectors, commutator_targets
from instances import (GRID, coordinate_subalgebras, get_full_subalgebra,
                       get_fullco, get_model, get_sampled_subalgebra,
                       kappa_value, stabiliser_in_r)
from spencerkit import spencer
from spencerkit.exactla import ExactMatrix, Subspace, vec_is_zero
from spencerkit.flatmodel import (make_graded_subalgebra, random_subspace,
                                  stabiliser_in_so)


def _null_spinor_subalgebra():
    """(2,2,1): V' = 0, S' a null spinor, h and r' its stabilisers."""
    model = get_model(2, 2, 1)
    null = next(s for s in (basis_vec(model.dim_s, i)
                            for i in range(model.dim_s))
                if vec_is_zero(kappa_value(model.current, s, s)))
    Sp = Subspace.from_vectors(model.dim_s, [null])
    return make_graded_subalgebra(model, Subspace.trivial(model.dim_v), Sp,
                                  stabiliser_in_so(model, Sp),
                                  stabiliser_in_r(model, Sp))


def _no_isotropy_subalgebra():
    """(3,1,1): V' = V and S' = S with h = r' = 0, so no generators."""
    model = get_model(3, 1, 1)
    return make_graded_subalgebra(
        model, Subspace.full(model.dim_v), Subspace.full(model.dim_s),
        Subspace.trivial(model.dim_so), Subspace.trivial(model.dim_r))


def _one_spinor_subalgebra(s, t, N):
    """A random S' of dimension 1 with its stabilisers."""
    model = get_model(s, t, N)
    Sp = random_subspace(model.dim_s, 1, 5)
    return make_graded_subalgebra(model, Subspace.full(model.dim_v), Sp,
                                  stabiliser_in_so(model, Sp),
                                  stabiliser_in_r(model, Sp))


_CASES = {
    **{f"{s}{t}{N}-maximal": (lambda c=(s, t, N): get_full_subalgebra(*c))
       for s, t, N in GRID + ((4, 1, 1),)},
    **{f"{s}{t}{N}-seed{seed}": (lambda c=(s, t, N), k=seed:
                                 get_sampled_subalgebra(*c, k))
       for s, t, N in GRID for seed in (0, 1, 2)},
    # (2,1,2) has no coordinate subalgebra with an admissible class
    **{f"{s}{t}{N}-coordinate": (lambda c=(s, t, N):
                                 coordinate_subalgebras(*c)[0])
       for s, t, N in GRID if (s, t, N) != (2, 1, 2)},
    "311-r'=0": lambda: get_sampled_subalgebra(3, 1, 1, 1, rp_mode="zero"),
    "221-V'=0": _null_spinor_subalgebra,
    "311-h=r'=0": _no_isotropy_subalgebra,
    "211-dimS'=1": lambda: _one_spinor_subalgebra(2, 1, 1),
    "312-dimS'=1": lambda: _one_spinor_subalgebra(3, 1, 2),
}


def _cell(sub):
    sig = sub.model.rep.signature
    return sig.s, sig.t, sub.model.rep.N


# the model-valued complexes of the sampled subalgebras at seed 0 only: the
# (3,1,2) ones take seconds each
@pytest.mark.parametrize("name,values", [
    (name, values) for name in sorted(_CASES)
    for values in ("subalgebra", "full")
    if values == "subalgebra" or not name.endswith(("seed1", "seed2"))])
def test_action_matrices_and_classes_match_the_column_route(name, values):
    sub = _CASES[name]()
    co = spencer.compute_cohomology(spencer.spencer_complex(sub, 2, values),
                                    2)
    assert column_actions.row_action_matrices(co) == \
        column_actions.action_matrices(co)
    assert co.invariant_classes() == column_actions.invariant_classes(co) \
        == column_actions.row_invariant_classes(co)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_invariant_normalised_and_act_match_the_column_route(name):
    sub = _CASES[name]()
    fullco = get_fullco(*_cell(sub))
    h_gens, rp_gens = sub.generator_coords()
    assert fullco.invariant_normalised(h_gens, rp_gens) == \
        column_actions.invariant_normalised(fullco, h_gens, rp_gens)
    # the subalgebra's basis acting on the normalised basis and on random
    # cochains, as rows, against the column act
    X = sub.a0_basis()
    dim = fullco.complex.layouts[2].dim
    rnd = random.Random(name)
    cochains = [fullco.normalised_space.basis, ExactMatrix(3, dim, [
        (c, rnd.randrange(dim), Fraction(rnd.randint(-3, 3), 2))
        for c in range(3) for _ in range(10)])]
    for rows in cochains:
        got = fullco.act(X, rows)
        assert got.transpose() == column_actions.act(fullco, X,
                                                     rows.transpose())


@pytest.mark.parametrize("name", sorted(_CASES))
def test_so_and_r_targets_equal_the_commutators(name):
    # ad X read off the structure constants against the commutators read
    # back one basis element at a time, for every h-basis and r'-basis
    # operator of the subalgebra's complex and of its model-valued one
    sub = _CASES[name]()
    model = sub.model
    gens = ([(h, (0,) * model.dim_r) for h in basis_vectors(sub.h)] +
            [((0,) * model.dim_so, r) for r in basis_vectors(sub.rp)])
    for values in ("subalgebra", "full"):
        cx = spencer.spencer_complex(sub, 2, values)
        for op, X in zip(spencer.subalgebra_actions(cx), gens):
            (so, _), (r, _) = op.hom.blocks[2], op.hom.blocks[3]
            assert (so, r) == commutator_targets(cx, *X)


def test_the_edge_cases_are_what_they_claim():
    h0 = spencer.compute_cohomology(spencer.spencer_complex(
        _CASES["312-seed0"](), 2), 2)
    assert h0.dim_h == 0
    none = _CASES["311-h=r'=0"]()
    assert not none.h_generators and not none.rp_generators
    co = spencer.compute_cohomology(spencer.spencer_complex(none, 2), 2)
    assert co.dim_h and column_actions.row_action_matrices(co) == ()
    assert len(co.invariant_classes()) == co.dim_h
    null = _CASES["221-V'=0"]()
    assert null.Vp.dim == 0 and null.Sp.dim == 1 and null.h.dim
    no_r = spencer.spencer_complex(_CASES["311-r'=0"](), 2)
    assert no_r.dWr == 0 and no_r.model.dim_r and \
        tuple(spencer.generator_actions(no_r))
    assert _CASES["211-dimS'=1"]().Sp.dim == 1
