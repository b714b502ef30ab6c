"""The flat model's basis tables against the route they replaced, and the
products built on them against the per-pair oracles of pairwise_oracles:
the structure constants B of so(V) + r and its actions on V and S against
matrix commutators read back through so_coordinates and the R-symmetry
algebra; the combined basis operators against CochainAction; delta, theta,
theta in a0, the residual spinor identity, the Nomizu certificates and the
Wang curvature against their pair-by-pair evaluation."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import column_actions
import pairwise_oracles as oracle
from instances import (GRID, admissible_cocycles_from_invariant,
                       admissible_data_for_cell, get_fullco, get_model,
                       get_sampled_subalgebra, invariant_basis)
from pairwise_oracles import r_matrix, so_coordinates, so_matrix, \
    spin_matrix
from spencerkit.deform import (_theta_in_a0, build_filtered_deformation,
                               check_admissibility,
                               check_geometric_realisability,
                               check_integrability, compute_theta,
                               solve_delta)
from spencerkit.errors import (CurvatureMismatch, EquivarianceViolation,
                               NotHighlySusy, TorsionViolation)
from spencerkit.exactla import ExactMatrix, kron
from spencerkit.reconstruct import (_verify_equivariance,
                                    _verify_torsion_free, build_nomizu_map,
                                    curvature_at_origin)


def commutator_coords(model, x, y):
    """[x, y] in so(V) + r coordinates through matrix commutators."""
    nso = model.dim_so
    so = so_coordinates(
        model, so_matrix(model, x[:nso]).commutator(so_matrix(model, y[:nso])))
    r = oracle.endo_coordinates(model.r, r_matrix(model, x[nso:]).commutator(
        r_matrix(model, y[nso:])))
    assert r is not None
    return tuple(so) + tuple(r)


def column(vec):
    return ExactMatrix.from_columns([vec], len(vec))


def unit(m, k):
    return tuple(Fraction(int(i == k)) for i in range(m))


class TestStructureConstants:
    @pytest.mark.parametrize("s,t,N", GRID)
    def test_every_basis_pair_matches_the_commutator(self, s, t, N):
        model = get_model(s, t, N)
        m = model.dim_so + model.dim_r
        B = model.bracket_matrix("a0", "a0", "a0")
        assert (B.rows, B.cols) == (m, m * m)
        want = ExactMatrix.from_columns(
            [commutator_coords(model, unit(m, i), unit(m, j))
             for i in range(m) for j in range(m)], m)
        assert B == want
        # built once and kept with the model
        assert model.bracket_matrix("a0", "a0", "a0") is B

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_actions_on_v_and_s_match_the_matrices(self, s, t, N):
        model = get_model(s, t, N)
        m, n, ns = model.dim_so + model.dim_r, model.dim_v, model.dim_s
        nso = model.dim_so
        on_v = model.bracket_matrix("a0", "V", "V")
        on_s = model.bracket_matrix("a0", "S", "S")
        for k in range(m):
            x = unit(m, k)
            assert on_v @ kron(column(x), ExactMatrix.identity(n)) == \
                so_matrix(model, x[:nso])
            assert on_s @ kron(column(x), ExactMatrix.identity(ns)) == \
                spin_matrix(model, x[:nso]) + r_matrix(model, x[nso:])
        # [v, x] = -x.v
        v_on = model.bracket_matrix("V", "a0", "V")
        swap = [k * m + j for j in range(m) for k in range(n)]
        assert v_on.select_columns(swap) == on_v.scale(-1)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_rational_vectors_match_the_commutator(self, data):
        s, t, N = data.draw(st.sampled_from(GRID))
        model = get_model(s, t, N)
        m = model.dim_so + model.dim_r
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        x = tuple(data.draw(st.lists(entries, min_size=m, max_size=m)))
        y = tuple(data.draw(st.lists(entries, min_size=m, max_size=m)))
        got = model.bracket_matrix("a0", "a0", "a0") @ kron(column(x),
                                                             column(y))
        assert got == column(commutator_coords(model, x, y))


class TestCombinedOperators:
    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_combination_equals_cochain_action(self, s, t, N):
        # random actors in so(V) + r, some with zero coordinates, applied
        # to random cochains: the kept basis operators combined by the
        # actors' coordinates are the CochainAction of each actor
        fullco = get_fullco(s, t, N)
        cx = fullco.complex
        model = fullco.model
        m, dim = model.dim_so + model.dim_r, cx.layouts[2].dim
        rnd = random.Random(s * 100 + t * 10 + N)
        actors = [tuple(Fraction(rnd.randint(-2, 2), rnd.randint(1, 3))
                        if rnd.random() < 0.6 else Fraction(0)
                        for _ in range(m)) for _ in range(3)]
        cochains = ExactMatrix(2, dim, [
            (c, rnd.randrange(dim), Fraction(rnd.randint(-3, 3), 2))
            for c in range(2) for _ in range(12)])
        X = ExactMatrix.from_columns(actors, m)
        got = fullco.act(X, cochains)
        for a, x in enumerate(actors):
            want = column_actions.cochain_action(
                cx, x[:model.dim_so], x[model.dim_so:]).apply_rows(cochains)
            assert got.select_rows(range(2 * a, 2 * a + 2)) == want
        # the column form of the oracle gives the same cochains
        assert got.transpose() == column_actions.act(fullco, X,
                                                     cochains.transpose())
        # no actor: no operator is needed
        assert fullco.act(ExactMatrix(m, 0), cochains).rows == 0


def sampled_311_data(seeds=range(3, 9)):
    """Admissible data on sampled (3,1,1) stabiliser subalgebras beyond
    the seeds of admissible_data_for_cell, every invariant class."""
    fullco = get_fullco(3, 1, 1)
    out = []
    for seed in seeds:
        try:
            sub = get_sampled_subalgebra(3, 1, 1, seed)
        except NotHighlySusy:
            continue
        for mu in admissible_cocycles_from_invariant(
                sub, fullco, invariant_basis(fullco, sub)):
            if mu is not None:
                datum = check_admissibility(sub, mu, fullco)
                if hasattr(datum, "hat"):
                    out.append(datum)
    return out


def oracle_data():
    return [datum for cell in GRID
            for datum in admissible_data_for_cell(*cell)] + \
        sampled_311_data()


class TestAgainstThePairwiseOracles:
    def test_delta_theta_and_theta_in_a0(self):
        data = oracle_data()
        assert len(data) > 19
        annihilated = 0
        for datum in data:
            delta = solve_delta(datum)
            assert oracle.delta_tables(datum, delta) == \
                oracle.solve_delta(datum)
            # delta3, which delta_tables leaves out, is zero
            n, sub = datum.model.dim_v, datum.subalgebra
            dh = sub.h.dim
            assert delta.matrix.select_rows(range(dh)).select_columns(
                range(dh * n, (dh + sub.rp.dim) * n)).is_zero()
            theta = compute_theta(datum)
            assert oracle.theta_tables(datum, theta) == \
                oracle.compute_theta(datum)
            if theta.dirac_kernel_annihilated:
                annihilated += 1
                th = oracle.pair_table(_theta_in_a0(datum, theta), n)
                assert ([[x[:dh] for x in row] for row in th],
                        [[x[dh:] for x in row] for row in th]) == \
                    oracle.theta_in_a0(datum, theta)
                assert check_integrability(datum).witness == \
                    oracle.spinor_identity_witness(datum, theta)
        assert annihilated >= 19

    def test_spinor_identity_names_the_oracles_witness(self):
        # theta1(v_b, v_c) moved by one so(V) unit (and its alternating
        # partner): the products and the oracle name the same (b, c, k)
        tried = 0
        for cell in GRID:
            for datum in admissible_data_for_cell(*cell)[:2]:
                theta = compute_theta(datum)
                if not theta.dirac_kernel_annihilated:
                    continue
                n = datum.model.dim_v
                last = theta.theta1.rows - 1
                for b, c in ((0, 1), (n - 2, n - 1)):
                    bad = theta.theta1 + ExactMatrix(
                        last + 1, n * n,
                        [(last, b * n + c, 1), (last, c * n + b, -1)])
                    broken = dataclasses.replace(theta, theta1=bad)
                    copy = dataclasses.replace(datum)
                    copy._theta = broken
                    witness = check_integrability(copy).witness
                    assert witness is not None
                    assert witness == oracle.spinor_identity_witness(
                        datum, broken)
                    tried += 1
        assert tried >= 8

    def test_nomizu_and_curvature_on_every_realisable_datum(self):
        count = 0
        for cell in GRID:
            for datum in admissible_data_for_cell(*cell):
                if not check_integrability(datum).passed:
                    continue
                real = check_geometric_realisability(datum)
                if not real.realisable:
                    continue
                deformation = build_filtered_deformation(real.witness)
                nomizu = build_nomizu_map(deformation)
                oracle.verify_equivariance(nomizu)
                oracle.verify_torsion_free(nomizu)
                assert curvature_at_origin(deformation, nomizu) == \
                    oracle.curvature_at_origin(deformation, nomizu)
                count += 1
        assert count == 19

    @pytest.mark.parametrize("s,t,N", [(2, 1, 2), (3, 1, 1)])
    def test_corrupted_nomizu_maps_fail_where_the_oracle_does(self, s, t,
                                                              N):
        # every entry of the Nomizu matrix moved by one, on a realisable
        # datum: each certificate fails, or passes, with the oracle's
        # message, which names the first failing generator or pair
        datum = admissible_data_for_cell(s, t, N)[0]
        real = check_geometric_realisability(datum)
        deformation = build_filtered_deformation(real.witness)
        nomizu = build_nomizu_map(deformation)
        failures = 0
        for i in range(nomizu.matrix.rows):
            for j in range(nomizu.matrix.cols):
                corrupted = dataclasses.replace(
                    nomizu, matrix=nomizu.matrix + ExactMatrix(
                        nomizu.matrix.rows, nomizu.matrix.cols,
                        [(i, j, 1)]))
                for ours, theirs, error in (
                        (_verify_equivariance, oracle.verify_equivariance,
                         EquivarianceViolation),
                        (_verify_torsion_free, oracle.verify_torsion_free,
                         TorsionViolation),
                        (lambda x: curvature_at_origin(deformation, x),
                         lambda x: oracle.curvature_at_origin(deformation,
                                                              x),
                         CurvatureMismatch)):
                    messages = []
                    for check in (ours, theirs):
                        try:
                            check(corrupted)
                            messages.append(None)
                        except error as err:
                            messages.append(str(err))
                    assert messages[0] == messages[1]
                    failures += messages[0] is not None
        assert failures > nomizu.matrix.rows * nomizu.matrix.cols


class TestStructureConstantMutation:
    def test_one_changed_constant_fails_with_a_named_witness(self,
                                                             monkeypatch):
        # [E_0, E_1] moved by E_0 in the kept table B: the equivariance
        # certificate names the isotropy generator h_0, and the Wang
        # curvature the vertical pair (h_0, h_1)
        datum = admissible_data_for_cell(3, 1, 1)[0]
        deformation = build_filtered_deformation(datum)
        nomizu = build_nomizu_map(deformation)
        model = datum.model
        m, n = model.dim_so + model.dim_r, model.dim_v
        key = ("a0", "a0", "a0")
        B = model.bracket_matrix(*key)
        monkeypatch.setitem(model._bracket_blocks, key,
                            B + ExactMatrix(m, m * m, [(0, 1, 1)]))
        with pytest.raises(EquivarianceViolation,
                           match=f"at generator {n}$"):
            _verify_equivariance(nomizu)
        with pytest.raises(CurvatureMismatch,
                           match=rf"vertical pair \({n},{n + 1}\)"):
            curvature_at_origin(deformation, nomizu)
        monkeypatch.undo()
        _verify_equivariance(nomizu)
        curvature_at_origin(deformation, nomizu)
