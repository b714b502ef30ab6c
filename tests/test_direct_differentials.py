"""The Spencer differentials written row by row from the index tables
against their Kronecker-product assembly (`kron_differentials`): equal as
canonical matrices, denominators included, for degrees 2 and 4, with values
in the subalgebra and in the model, on the grid cells, (4,1,1), (5,1,1),
sampled stabiliser subalgebras and the edge cases of the row writer."""

import pytest

from instances import (GRID, HIGH_SUSY_DIM, get_full_subalgebra, get_model,
                       get_sampled_subalgebra, kappa_value,
                       random_highly_susy_subalgebra)
from kron_differentials import (kappa_on_targets, kron_differentials,
                                structure_matrices)
from pairwise_oracles import basis_vec, basis_vectors
from spencerkit.exactla import Subspace, vec_is_zero
from spencerkit.flatmodel import make_graded_subalgebra, stabiliser_in_so
from spencerkit.spencer import build_spencer_complex

VALUES = ("subalgebra", "full")


def _assert_matches_oracle(sub, degree, values):
    cx = build_spencer_complex(sub, degree, values)
    oracle = kron_differentials(cx)
    for p in (1, 2):
        direct = cx.differentials[p]
        assert (direct.rows, direct.cols) == (oracle[p].rows, oracle[p].cols)
        assert direct == oracle[p], f"d{p} differs from the kron assembly"
    return cx


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("degree", (2, 4))
@pytest.mark.parametrize("s,t,N", GRID + ((4, 1, 1), (5, 1, 1)))
def test_maximal_subalgebra(s, t, N, degree, values):
    _assert_matches_oracle(get_full_subalgebra(s, t, N), degree, values)


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("degree", (2, 4))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("s,t,N", GRID)
def test_sampled_stabiliser_subalgebra(s, t, N, seed, degree, values):
    _assert_matches_oracle(get_sampled_subalgebra(s, t, N, seed), degree,
                           values)


def _null_spinor_subalgebra():
    """In signature (2,2) a null spinor spans S' with V' = 0."""
    model = get_model(2, 2, 1)
    null = next(s for s in (basis_vec(model.dim_s, i)
                            for i in range(model.dim_s))
                if vec_is_zero(kappa_value(model.current, s, s)))
    return make_graded_subalgebra(
        model, Subspace.trivial(model.dim_v),
        Subspace.from_vectors(model.dim_s, [null]),
        Subspace.trivial(model.dim_so), Subspace.trivial(model.dim_r))


def _short_vector_subalgebra(nvp):
    """S' spanned by one spinor s of (3,1,1) with kappa(s, s) != 0, V' of
    dimension nvp < 3 containing kappa(s, s), and h = r' = 0."""
    model = get_model(3, 1, 1)
    s = basis_vec(model.dim_s, 0)
    k = kappa_value(model.current, s, s)
    assert not vec_is_zero(k)
    vectors = [k] + [basis_vec(model.dim_v, a) for a in range(model.dim_v)]
    Vp = Subspace.from_vectors(model.dim_v, vectors[:1])
    for v in vectors[1:]:
        if Vp.dim == nvp:
            break
        if not Vp.contains(v):
            Vp = Subspace.from_vectors(model.dim_v, basis_vectors(Vp) + [v])
    assert Vp.dim == nvp
    return make_graded_subalgebra(
        model, Vp, Subspace.from_vectors(model.dim_s, [s]),
        Subspace.trivial(model.dim_so), Subspace.trivial(model.dim_r))


class TestEdgeCases:
    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("degree", (2, 4))
    def test_no_vector_legs(self, degree, values):
        cx = _assert_matches_oracle(_null_spinor_subalgebra(), degree, values)
        assert cx.nvp == 0
        if degree == 2:
            # no vss rows, but gamma columns
            assert cx.layouts[3].sizes["vss"][0] == 0
            assert cx.layouts[2].sizes["gamma"][0] == 1

    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("degree", (2, 4))
    def test_zero_r_prime(self, degree, values):
        model = get_model(3, 1, 2)
        sub = random_highly_susy_subalgebra(model, HIGH_SUSY_DIM[3, 1, 2], 0,
                                            rp_mode="zero")
        cx = _assert_matches_oracle(sub, degree, values)
        # empty r-blocks with values in r' = 0, full ones in the model
        assert model.dim_r > 0
        assert cx.dWr == (0 if values == "subalgebra" else model.dim_r)

    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("degree", (2, 4))
    def test_one_spinor(self, degree, values):
        # a line S' of (2,1,1) with its stabiliser: sym3 S' has size 1
        model = get_model(2, 1, 1)
        Sp = Subspace.from_vectors(model.dim_s, [(3, -2)])
        sub = make_graded_subalgebra(
            model, Subspace.full(model.dim_v), Sp,
            stabiliser_in_so(model, Sp), Subspace.trivial(model.dim_r))
        cx = _assert_matches_oracle(sub, degree, values)
        assert cx.nsp == 1
        if degree == 2:
            assert cx.layouts[3].sizes["sss"][0] == 1

    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("degree", (2, 4))
    @pytest.mark.parametrize("nvp", (1, 2))
    def test_fewer_than_three_vectors(self, nvp, degree, values):
        cx = _assert_matches_oracle(_short_vector_subalgebra(nvp), degree,
                                    values)
        assert cx.nvp == nvp
        if degree == 4:
            # an empty wedge3 block, and no theta columns at all for nvp = 1
            assert cx.layouts[3].sizes["vvv"][0] == 0
            assert cx.layouts[2].sizes["theta_so"][0] == nvp - 1

    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("degree", (2, 4))
    def test_non_integer_structure_tables(self, degree, values):
        # a random S' of (3,1,1) whose rational basis puts denominators on
        # kappa, on the h-actions and on kappa(S', .): each table is scaled
        # by its own lcm, and rows mix tables of different denominators
        sub = get_sampled_subalgebra(3, 1, 1, 0)
        cx = _assert_matches_oracle(sub, degree, values)
        K, _, M_V, M_Sso, _ = structure_matrices(cx)
        tables = [K, M_Sso]
        if degree == 2:
            tables.append(kappa_on_targets(cx))
        if values == "subalgebra":
            # h acts on V' = V with a rational basis of its own
            tables.append(M_V)
        dens = [m.int_rows()[0] for m in tables]
        assert all(d > 1 for d in dens) and len(set(dens)) > 1, dens
