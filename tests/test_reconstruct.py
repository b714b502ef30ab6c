import dataclasses

import pytest

from instances import GRID, admissible_data_for_cell, first_bianchi_holds, \
    get_full_subalgebra, get_fullco
from pairwise_oracles import basis_vec, nomizu_apply, pair_table, vec_add, \
    vec_scale
from spencerkit.deform import (build_filtered_deformation,
                               check_admissibility,
                               check_geometric_realisability,
                               check_integrability, zero_cocycle)
from spencerkit.errors import CurvatureMismatch, TorsionViolation
from spencerkit.exactla import ExactMatrix, vec_is_zero
from spencerkit.reconstruct import (UNCHECKED_HYPOTHESES,
                                    _verify_torsion_free, build_nomizu_map,
                                    curvature_at_origin,
                                    reconstruction_certificate)


def zero_deformation(s, t, N):
    sub = get_full_subalgebra(s, t, N)
    datum = check_admissibility(sub, zero_cocycle(sub), get_fullco(s, t, N))
    return build_filtered_deformation(datum)


def realisable_deformations(s, t, N):
    out = []
    for datum in admissible_data_for_cell(s, t, N):
        report = check_integrability(datum)
        if not report.passed:
            continue
        real = check_geometric_realisability(datum)
        if real.realisable:
            out.append(build_filtered_deformation(real.witness))
    return out


class TestNomizuMap:
    def test_symmetric_space_case(self):
        # lambda = 0: the map vanishes on V and projects onto the isotropy
        deformation = zero_deformation(2, 1, 1)
        nomizu = build_nomizu_map(deformation)
        n = deformation.dims[0]
        for b in range(n):
            col = nomizu_apply(nomizu, basis_vec(nomizu.matrix.cols, b))
            assert vec_is_zero(col)

    def test_isotropy_restriction_is_inclusion(self):
        deformation = zero_deformation(2, 1, 2)
        nomizu = build_nomizu_map(deformation)
        sub = deformation.subalgebra
        n, _, dh, dr = deformation.dims
        nso = sub.model.dim_so
        for k in range(dh):
            col = nomizu_apply(nomizu, basis_vec(nomizu.matrix.cols, n + k))
            assert col[:nso] == sub.h.basis.row_tuple(k)
        for p in range(dr):
            col = nomizu_apply(nomizu,
                               basis_vec(nomizu.matrix.cols, n + dh + p))
            assert col[nso:] == sub.rp.basis.row_tuple(p)

    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (3, 1, 1)])
    def test_nonzero_instances_verify(self, s, t, N):
        # equivariance and torsion-freeness run inside the builder
        for deformation in realisable_deformations(s, t, N)[:2]:
            nomizu = build_nomizu_map(deformation)
            assert nomizu.matrix.rows == deformation.subalgebra.model.dim_so \
                + deformation.subalgebra.model.dim_r

    def test_torsion_detected_on_ordered_pairs(self):
        # lambda1(e_0) moved by E_0: the torsion-free criterion fails, and
        # its witness is a pair x < y
        deformation = zero_deformation(2, 1, 1)
        nomizu = build_nomizu_map(deformation)
        corrupted = dataclasses.replace(
            nomizu, matrix=nomizu.matrix + ExactMatrix(
                nomizu.matrix.rows, nomizu.matrix.cols, [(0, 0, 1)]))
        with pytest.raises(TorsionViolation, match=r"pair \(0,1\)"):
            _verify_torsion_free(corrupted)


class TestCurvature:
    def test_flat_model_curvature_vanishes(self):
        deformation = zero_deformation(2, 1, 1)
        nomizu = build_nomizu_map(deformation)
        curv = curvature_at_origin(deformation, nomizu)
        assert all(vec_is_zero(v) for row in curv.R0 for v in row)
        assert all(vec_is_zero(v) for row in curv.F0 for v in row)

    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_wang_formula_matches_minus_theta(self, s, t, N):
        # curvature_at_origin asserts the equality entrywise; reaching the
        # return is the test
        for deformation in realisable_deformations(s, t, N)[:2]:
            nomizu = build_nomizu_map(deformation)
            curv = curvature_at_origin(deformation, nomizu)
            n = deformation.dims[0]
            theta1 = pair_table(deformation.theta.theta1, n)
            for b in range(n):
                for c in range(n):
                    assert curv.R0[b][c] == tuple(-x for x in theta1[b][c])

    def test_first_bianchi_on_every_reconstructed_datum(self):
        # implied by the certified torsion-freeness and Jacobi identity, so
        # the engine does not check it; the test-only oracle does
        count = 0
        for cell in GRID:
            for deformation in realisable_deformations(*cell):
                nomizu = build_nomizu_map(deformation)
                curv = curvature_at_origin(deformation, nomizu)
                assert first_bianchi_holds(curv.R0, deformation.datum.model)
                count += 1
        assert count == 19
        # and the oracle can fail: R0 moved at one pair and its partner by
        # the last so(V) basis element
        model = deformation.datum.model
        move = basis_vec(model.dim_so, model.dim_so - 1)
        bad = [list(row) for row in curv.R0]
        bad[0][1] = vec_add(bad[0][1], move)
        bad[1][0] = vec_add(bad[1][0], vec_scale(move, -1))
        assert not first_bianchi_holds(bad, model)

    def test_realisable_gives_flat_gauge_field(self):
        for cell in GRID[:3]:
            for deformation in realisable_deformations(*cell)[:2]:
                nomizu = build_nomizu_map(deformation)
                curv = curvature_at_origin(deformation, nomizu)
                assert all(vec_is_zero(v) for row in curv.F0 for v in row)

    def test_inconsistent_nomizu_detected(self):
        deformation = zero_deformation(2, 1, 1)
        nomizu = build_nomizu_map(deformation)
        corrupted = dataclasses.replace(
            nomizu, matrix=nomizu.matrix + ExactMatrix(
                nomizu.matrix.rows, nomizu.matrix.cols, [(0, 0, 1)]))
        with pytest.raises(CurvatureMismatch):
            curvature_at_origin(deformation, corrupted)


class TestCertificate:
    def test_certificate_shape(self):
        deformation = zero_deformation(2, 1, 1)
        nomizu = build_nomizu_map(deformation)
        curv = curvature_at_origin(deformation, nomizu)
        cert = reconstruction_certificate(deformation, nomizu, curv)
        assert cert["unchecked_hypotheses"] == list(UNCHECKED_HYPOTHESES)
        assert cert["F0_zero"] is True
        assert isinstance(cert["nomizu"], list)
