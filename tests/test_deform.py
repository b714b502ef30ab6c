import dataclasses
import gc
import weakref

import pytest

from instances import (GRID, admissible_cocycles_from_invariant,
                       admissible_data_for_cell, gauge_shifted_data,
                       get_full_subalgebra, get_fullco, get_model,
                       get_sampled_subalgebra, implied_identity_failures,
                       invariant_basis, kappa_value, representatives)
from column_actions import apply_vector
from pairwise_oracles import basis_vec, basis_vectors, bracket_table, \
    endo_coordinates, lam2_coords, lincomb, pair_table, vec_add, vec_scale, \
    zero_vec
from spencerkit.deform import (AdmissibleDatum, DeltaMap, NotAdmissible,
                               _certify_delta, _check_assoc_graded,
                               _deformed_bracket, _delta_cochains,
                               _theta_in_a0, build_filtered_deformation,
                               check_admissibility,
                               check_geometric_realisability,
                               class_gauge_generators,
                               check_integrability, compute_envelope,
                               compute_theta, solve_delta, zero_cocycle)
from spencerkit.errors import JacobiViolation, NotHighlySusy, OracleMismatch
from spencerkit.exactla import ExactMatrix, NoSolution, Subspace, hstack, \
    solve_affine, vec_is_zero
from spencerkit.flatmodel import graded_jacobi_check, \
    make_graded_subalgebra, stabiliser_in_so
from spencerkit.spencer import (Cochain22, NormalisedCocycle,
                                build_spencer_complex, compute_cohomology,
                                inclusion_matrix, restriction_matrix,
                                spencer_complex, subalgebra_actions)


# the theorem checks of every passing integrability report
THEOREM_CHECKS = dict.fromkeys(
    ("a0_invariance", "alternating", "bianchi_theta1", "lambda_bianchi",
     "quadratic_jacobi", "second_defining_relation", "theta_membership"),
    True)


def integrable_grid_data():
    return [datum for cell in GRID for datum in admissible_data_for_cell(*cell)
            if check_integrability(datum).passed]


def nonzero_datum(s, t, N):
    """First admissible datum with a nonzero class for the cell."""
    for datum in admissible_data_for_cell(s, t, N):
        if not vec_is_zero(datum.mu_minus.coeffs):
            return datum
    pytest.skip(f"no nonzero admissible instance in cell ({s},{t},{N})")


def zero_datum(s, t, N):
    """The zero class on the maximal subalgebra, derived afresh."""
    sub = get_full_subalgebra(s, t, N)
    return check_admissibility(sub, zero_cocycle(sub), get_fullco(s, t, N))


def with_derived(datum, **derived):
    """A copy of the datum on which only `derived` (delta, theta, ...) is
    already computed, so the checks read those values."""
    copy = dataclasses.replace(datum)
    for name, value in derived.items():
        setattr(copy, "_" + name, value)
    return copy


class TestAdmissibility:
    @pytest.mark.parametrize("s,t,N", GRID)
    def test_zero_class_admissible(self, s, t, N):
        sub = get_full_subalgebra(s, t, N)
        datum = check_admissibility(sub, zero_cocycle(sub), get_fullco(s, t, N))
        assert isinstance(datum, AdmissibleDatum)
        assert datum.sub_complex is datum.mixed_complex
        assert vec_is_zero(datum.hat.coeffs)
        assert vec_is_zero(datum.lam)

    def test_restricted_invariant_cocycle_roundtrip(self):
        # on the maximal subalgebra the restriction of an invariant
        # normalised cocycle is admissible with lambda = 0
        fullco = get_fullco(2, 1, 1)
        sub = get_full_subalgebra(2, 1, 1)
        hat = invariant_basis(fullco, sub)[0]
        datum = check_admissibility(sub, hat, fullco)
        assert isinstance(datum, AdmissibleDatum)
        assert vec_is_zero(datum.lam)
        assert datum.hat.coeffs == tuple(hat)

    def test_non_invariant_class_rejected(self):
        fullco = get_fullco(3, 1, 1)
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        cx = build_spencer_complex(sub, 2)
        co = compute_cohomology(cx, 2)
        gens = subalgebra_actions(cx)
        candidate = None
        for rep_vec in representatives(co):
            if not all(co.boundaries.contains(apply_vector(op, rep_vec))
                       for op in gens):
                candidate = rep_vec
                break
        assert candidate is not None
        outcome = check_admissibility(sub, candidate, fullco)
        assert isinstance(outcome, NotAdmissible)
        assert outcome.rhs != 0

    @pytest.mark.parametrize("s,t,N,seed", [(2, 1, 2, None), (2, 1, 2, 1),
                                            (3, 1, 1, 1)])
    def test_cocycles_from_invariant_match_one_solve_per_hat(self, s, t, N,
                                                             seed):
        # one solve_matrix for all hats gives what one solve_affine per hat
        # gives, with None exactly where that is infeasible
        fullco = get_fullco(s, t, N)
        sub = (get_full_subalgebra(s, t, N) if seed is None
               else get_sampled_subalgebra(s, t, N, seed))
        hats = invariant_basis(fullco, sub)
        hats += [zero_vec(fullco.complex.layouts[2].dim),
                 vec_add(hats[0], vec_scale(hats[-1], 2))]
        got = admissible_cocycles_from_invariant(sub, fullco, hats)
        sub_cx = spencer_complex(sub, 2)
        mixed_cx = spencer_complex(sub, 2, values="full")
        system = hstack([inclusion_matrix(sub_cx, mixed_cx),
                         mixed_cx.differentials[1].scale(-1)])
        res = restriction_matrix(fullco.complex, mixed_cx)
        assert len(got) == len(hats)
        for hat, mu in zip(hats, got):
            sol = solve_affine(system, res.apply(hat))
            if isinstance(sol, NoSolution):
                assert mu is None
            else:
                assert mu == sol[:sub_cx.layouts[2].dim]
        assert got[-2] is not None    # the zero class
        assert admissible_cocycles_from_invariant(sub, fullco, []) == []

    def test_requires_highly_susy(self):
        model = get_model(2, 1, 1)
        sub = make_graded_subalgebra(
            model, Subspace.trivial(3), Subspace.trivial(2),
            Subspace.full(3), Subspace.trivial(0))
        with pytest.raises(NotHighlySusy):
            check_admissibility(sub, (), get_fullco(2, 1, 1))

    def test_non_transitive_subalgebra_keeps_the_faithful_ideal(self):
        # d=3, N=5, S' the first three copies of the spinor module, r' its
        # stabiliser: the rotations of the last two copies act trivially on
        # S', so r' is replaced by the ideal acting faithfully on it, read
        # in R-symmetry coordinates; the per-matrix route is the oracle
        from spencerkit.cliffspin import Signature, build_clifford_rep, \
            build_dirac_current
        from spencerkit.deform import ensure_transitive
        from spencerkit.flatmodel import EndoSubalgebra, \
            build_extended_flat_model, faithful_split
        from instances import stabiliser_in_r
        rep = build_clifford_rep(Signature(2, 1), 5)
        model = build_extended_flat_model(rep, build_dirac_current(rep))
        Sp = Subspace.from_vectors(model.dim_s, [basis_vec(model.dim_s, i)
                                                 for i in range(6)])
        sub = make_graded_subalgebra(model, Subspace.full(model.dim_v), Sp,
                                     stabiliser_in_so(model, Sp),
                                     stabiliser_in_r(model, Sp))
        assert sub.highly_susy and not sub.transitive
        replaced, flag = ensure_transitive(sub)
        assert flag and replaced.transitive
        rpp, ann = faithful_split(
            EndoSubalgebra.from_matrices(model.dim_s, sub.rp_mats), Sp)
        assert ann.dim == sub.rp.dim - rpp.dim > 0
        assert replaced.rp == Subspace.from_vectors(
            model.dim_r, [endo_coordinates(model.r, m) for m in rpp.matrices])
        assert ensure_transitive(replaced) == (replaced, False)

    def test_skew_current_rejected(self):
        # the whole Spencer/deformation pipeline is symmetric-current only;
        # skew inputs are rejected up front rather than guessing the skew
        # analogue of the polarisation identities
        from spencerkit.cliffspin import build_dirac_current
        from spencerkit.errors import NotSymmetric
        from spencerkit.exactla import ExactMatrix, kron
        from spencerkit.flatmodel import build_extended_flat_model, \
            full_subalgebra
        from spencerkit.spencer import build_spencer_complex as build_cx
        from instances import get_current, get_rep
        rep = get_rep(2, 1, 2)
        base = get_current(2, 1, 1)
        eps = ExactMatrix.from_rows([[0, 1], [-1, 0]])
        skew = build_dirac_current(rep,
                                   [kron(eps, k) for k in base.components])
        model = build_extended_flat_model(rep, skew)
        sub = full_subalgebra(model)
        with pytest.raises(NotSymmetric):
            build_cx(sub, 2)

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_generated_instances_nonempty(self, s, t, N):
        assert admissible_data_for_cell(s, t, N)


def corners(count, n, dim):
    """Coordinate 0 of entries [0][0] and [0][n-1] of a non-empty table."""
    if not (count and n and dim):
        return []
    return [(0, b, 0) for b in sorted({0, n - 1})]


def everywhere(count, n, dim):
    """Every coordinate of every entry of a count x n table."""
    return [(k, b, t) for k in range(count) for b in range(n)
            for t in range(dim)]


def delta_blocks(sub):
    """(rows, dim, row, block) of each block of delta's matrix: coordinate t
    of delta1[k][b] (delta(h_k, e_b) in h), delta2[k][b] (in r'),
    delta4[k][b] (delta(r'_k, e_b) in r') and of the zero delta3[k][b] (in
    h), for k < rows and t < dim, is the entry (row + t, (block + k) n +
    b)."""
    dh, dr = sub.h.dim, sub.rp.dim
    return {"delta1": (dh, dh, 0, 0), "delta2": (dh, dr, dh, 0),
            "delta4": (dr, dr, dh, dh), "delta3": (dr, dh, 0, dh)}


def moved_delta(datum, which, k, b, t):
    """The datum's delta with e_t added to entry [k][b] of block `which`."""
    M = solve_delta(datum).matrix
    _, _, row, block = delta_blocks(datum.subalgebra)[which]
    col = (block + k) * datum.model.dim_v + b
    return DeltaMap(M + ExactMatrix(M.rows, M.cols, [(row + t, col, 1)]))


def delta_mutations(datum, positions):
    """((table, k, b, t), chi) per single-entry mutation of the closed-form
    delta: e_t added to entry [k][b] of delta1, delta2 or delta4, or put at
    entry [k][b] of the zero delta3 block (the h part of r'-column k), for
    the (k, b, t) that positions(rows, n, dim) yields."""
    blocks = delta_blocks(datum.subalgebra)
    for which in ("delta1", "delta2", "delta4", "delta3"):
        rows, dim, _, _ = blocks[which]
        for k, b, t in positions(rows, datum.model.dim_v, dim):
            yield (which, k, b, t), _delta_cochains(
                datum, moved_delta(datum, which, k, b, t))


class TestDelta:
    def test_zero_lambda_gives_zero_delta(self):
        sub = get_full_subalgebra(2, 1, 1)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(2, 1, 1))
        assert solve_delta(datum).matrix.is_zero()

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_dual_route_on_generated_instances(self, s, t, N):
        # solve_delta raises OracleMismatch unless d21 chi = X.mu holds for
        # the closed form; the certificate accepts its result again
        for datum in admissible_data_for_cell(s, t, N):
            _certify_delta(datum, _delta_cochains(datum, solve_delta(datum)))

    def test_jacobi_gate_mutations_fail_the_certificate(self):
        # the 54 mutations of the Jacobi gate below (e_0 added to entry
        # [0][0] and [0][n-1] of each non-empty delta1, delta2, delta4
        # table, on every grid datum whose theta annihilates the Dirac
        # kernel), and e_0 put at the same places of the zero delta3 block
        tried = dict.fromkeys(("delta1", "delta2", "delta3", "delta4"), 0)
        for cell in GRID:
            for datum in admissible_data_for_cell(*cell):
                if not compute_theta(datum).dirac_kernel_annihilated:
                    continue
                for (which, _k, _b, _t), chi in delta_mutations(datum,
                                                                 corners):
                    with pytest.raises(OracleMismatch,
                                       match="closed-form delta fails"):
                        _certify_delta(datum, chi)
                    tried[which] += 1
        assert tried["delta1"] + tried["delta2"] + tried["delta4"] == 54
        assert tried["delta3"] > 0

    # (3,1,2) needs 400 mutations for one datum; the Jacobi-gate mutations
    # above cover it
    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_every_single_entry_mutation_fails_the_certificate(self, s, t,
                                                               N):
        # every coordinate of every entry of delta1, delta2, delta4 moved by
        # one, and every coordinate of the zero delta3 block set to one, on
        # every datum of the cell: d21 is injective, so each moves d21 chi,
        # and the error names the column of the mutated generator
        for datum in admissible_data_for_cell(s, t, N):
            tried = 0
            for (which, k, _b, _t), chi in delta_mutations(datum,
                                                           everywhere):
                X = (f"h[{k}]" if which in ("delta1", "delta2")
                     else f"r'[{k}]")
                with pytest.raises(OracleMismatch) as err:
                    _certify_delta(datum, chi)
                assert str(err.value).endswith(f"at X = {X}")
                tried += 1
            a0_dim = datum.subalgebra.h.dim + datum.subalgebra.rp.dim
            assert tried == datum.model.dim_v * a0_dim * a0_dim


class TestTheta:
    def test_zero_datum_everything_zero(self):
        sub = get_full_subalgebra(2, 1, 1)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(2, 1, 1))
        theta = compute_theta(datum)
        assert theta.dirac_kernel_annihilated
        assert theta.theta2_zero
        assert theta.theta1.is_zero()

    def test_bijective_kappa_vacuous_annihilation(self):
        # d=3 N=1: the Dirac kernel vanishes, theta = Theta o kappa^{-1}
        datum = nonzero_datum(2, 1, 1)
        theta = compute_theta(datum)
        assert theta.dirac_kernel_dim == 0
        assert theta.dirac_kernel_annihilated
        assert theta.alternating_verified
        assert theta.second_relation_consistent

    def test_theta2_alternating_on_kappa_values(self):
        # theta2(kappa_s, kappa_s) = 0 for all spinor basis elements
        datum = nonzero_datum(2, 1, 2)
        theta = compute_theta(datum)
        model = datum.model
        theta2 = pair_table(theta.theta2, model.dim_v)
        for s in basis_vectors(datum.subalgebra.Sp):
            kv = kappa_value(model.current, s, s)
            assert vec_is_zero(lincomb(
                ((x * y, theta2[b][c])
                 for b, x in enumerate(kv) for c, y in enumerate(kv)),
                model.dim_r))


class TestIntegrability:
    @pytest.mark.parametrize("s,t,N", GRID)
    def test_zero_class_integrable(self, s, t, N):
        sub = get_full_subalgebra(s, t, N)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(s, t, N))
        report = check_integrability(datum)
        assert report.passed
        assert report.to_json()["theorem_checks"] == THEOREM_CHECKS
        assert report.jacobi.passed
        assert check_integrability(datum) is report

    @pytest.mark.parametrize("which", ["delta1", "delta2", "delta4"])
    def test_perturbed_delta_breaks_jacobi(self, which):
        # the quadratic system is the Jacobi identity of the deformed
        # bracket: a delta entry moved by e_0 must fail it
        datum = zero_datum(2, 1, 2)
        rows, dim, _, _ = delta_blocks(datum.subalgebra)[which]
        assert rows and dim
        broken = with_derived(datum, delta=moved_delta(datum, which, 0, 0, 0))
        with pytest.raises(JacobiViolation) as err:
            check_integrability(broken)
        assert err.value.triple is not None

    def test_every_single_delta_mutation_breaks_jacobi(self):
        # e_0 added to entry [0][0] and [0][n-1] of each non-empty delta1,
        # delta2, delta4 table, on every grid datum whose theta annihilates
        # the Dirac kernel: the unordered Jacobi check catches all 54
        caught = tried = 0
        for cell in GRID:
            for datum in admissible_data_for_cell(*cell):
                if not compute_theta(datum).dirac_kernel_annihilated:
                    continue
                n = datum.model.dim_v
                for which in ("delta1", "delta2", "delta4"):
                    rows, dim, _, _ = delta_blocks(datum.subalgebra)[which]
                    if not (rows and n and dim):
                        continue
                    for b in sorted({0, n - 1}):
                        broken = with_derived(datum, delta=moved_delta(
                            datum, which, 0, b, 0))
                        tried += 1
                        try:
                            check_integrability(broken)
                        except JacobiViolation:
                            caught += 1
        assert caught == tried == 54

    def test_perturbed_theta_fails_with_witness(self):
        datum = nonzero_datum(3, 1, 1)
        theta = compute_theta(datum)
        # theta1(v_0, v_1) moved by E_0, and theta1(v_1, v_0) back
        n = datum.model.dim_v
        bad1 = theta.theta1 + ExactMatrix(theta.theta1.rows, n * n,
                                          [(0, 1, 1), (0, n, -1)])
        broken = with_derived(
            datum, theta=dataclasses.replace(theta, theta1=bad1))
        report = check_integrability(broken)
        assert not report.passed
        assert report.witness is not None
        assert report.to_json()["theorem_checks"] == {}

    def test_bianchi_checked_as_theorem(self):
        datum = nonzero_datum(2, 1, 1)
        report = check_integrability(datum)
        assert report.passed
        assert report.to_json()["theorem_checks"] == THEOREM_CHECKS

    def test_implied_identities_hold_on_grid_data(self):
        # the hand-written oracle of a0-invariance, the Bianchi identity of
        # theta1 and the lambda-Bianchi identities, which the engine checks
        # as components of the deformed bracket's Jacobi identity
        data = integrable_grid_data()
        assert len(data) == 19
        for datum in data:
            assert implied_identity_failures(datum,
                                             compute_theta(datum)) == []

    def test_every_theta_mutation_caught_by_the_bracket(self):
        # theta1 / theta2 entries (0,1), (0,n-1) and (n-2,n-1) moved by e_0
        # or e_last together with their alternating partner, on every
        # integrable grid datum: the membership step or the Jacobi check of
        # the deformed bracket catches each one the oracle catches
        tried = caught = 0
        oracle = {}
        for datum in integrable_grid_data():
            theta = compute_theta(datum)
            n = datum.model.dim_v
            for which in ("theta1", "theta2"):
                table = getattr(theta, which)
                dim = table.rows
                for b, c in sorted({(0, 1), (0, n - 1), (n - 2, n - 1)}):
                    for unit in sorted({0, dim - 1}) if dim else ():
                        bad = table + ExactMatrix(dim, n * n, [
                            (unit, b * n + c, 1), (unit, c * n + b, -1)])
                        broken = dataclasses.replace(theta, **{which: bad})
                        tried += 1
                        for name in implied_identity_failures(datum, broken):
                            oracle[name] = oracle.get(name, 0) + 1
                        try:
                            tensor = _deformed_bracket(
                                datum, _theta_in_a0(datum, broken))
                        except OracleMismatch:
                            caught += 1
                            continue
                        caught += not graded_jacobi_check(tensor).passed
        assert caught == tried == 165
        assert oracle == {"a0_invariance": 165, "bianchi_theta1": 76,
                          "lambda_bianchi": 68}


class TestFilteredDeformation:
    def test_zero_datum_reproduces_graded_algebra(self):
        sub = get_full_subalgebra(2, 1, 1)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(2, 1, 1))
        deformation = build_filtered_deformation(datum)
        # with zero datum every bracket is degree-preserving
        levels = deformation.filtration_levels
        for (i, j), chunk in bracket_table(deformation.tensor).items():
            for k in chunk:
                assert levels[k] == levels[i] + levels[j]

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_certificates_on_generated_instances(self, s, t, N):
        for datum in admissible_data_for_cell(s, t, N):
            report = check_integrability(datum)
            if not report.passed:
                continue
            deformation = build_filtered_deformation(datum)
            assert deformation.certificates["jacobi"] is report.jacobi
            assert deformation.tensor is report.tensor
            assert all(bool(c) for c in deformation.certificates.values())
            assert deformation.certificates["filtration"].to_json() == {
                "passed": True,
                "detail": "[F^i, F^j] inside F^{i+j} for all levels"}

    @staticmethod
    def _set(tensor, entries):
        """The tensor with [x_i, x_j]_k set to c for each ((i, j), k, c)."""
        n, M = tensor.total_dim, tensor.matrix
        return dataclasses.replace(tensor, matrix=M + ExactMatrix(
            n, n * n, [(k, i * n + j, c - M.entry(k, i * n + j))
                       for (i, j), k, c in entries]))

    @staticmethod
    def _zero_deformation_211():
        sub = get_full_subalgebra(2, 1, 1)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(2, 1, 1))
        return build_filtered_deformation(datum)

    def test_assoc_graded_detects_a_changed_graded_bracket(self):
        # scale the V-component of one [h, V] bracket and of its partner
        # [V, h]: a level-preserving entry, so the associated graded no
        # longer is the subalgebra.  The check reads the pairs i <= j, which
        # decide it on a super-antisymmetric table
        deformation = self._zero_deformation_211()
        tensor, levels = deformation.tensor, deformation.filtration_levels
        off_s = tensor.component_dims[0]
        off_h = off_s + tensor.component_dims[1]
        table = bracket_table(tensor)
        (i, j), k = next(((pair, k) for pair, chunk in table.items()
                          if pair[0] == off_h and pair[1] < off_h
                          for k in chunk if k < off_s))
        once = self._set(tensor, [((i, j), k, 2 * table[(i, j)][k])])
        cert = graded_jacobi_check(once)
        assert not cert.passed
        assert cert.detail == "super-antisymmetry violated"
        cert = _check_assoc_graded(deformation.datum, self._set(
            once, [((j, i), k, 2 * table[(j, i)][k])]), levels)
        assert not cert.passed
        assert cert.detail == "associated graded differs from the subalgebra"
        assert cert.witness == {"pair": (j, i), "target": k}

    def test_assoc_graded_rejects_a_filtration_violation(self):
        # [h, h] -> V lowers the level by 2, breaking [F^0, F^0] inside F^0:
        # the associated-graded check rejects it as outside the defining
        # sequence, which is why it carries the filtration certificate
        deformation = self._zero_deformation_211()
        tensor, levels = deformation.tensor, deformation.filtration_levels
        off_h = sum(tensor.component_dims[:2])
        cert = _check_assoc_graded(deformation.datum, self._set(
            tensor, [((off_h, off_h + 1), 0, 1), ((off_h + 1, off_h), 0, -1)]),
            levels)
        assert not cert.passed
        assert cert.detail == ("bracket component outside the defining "
                               "sequence (mu, theta, 0, ...)")
        assert cert.witness == {"pair": (off_h, off_h + 1), "target": 0}

    def test_assoc_graded_rejects_a_shift_3_component(self):
        # [V, V] -> S' raises the level by 3, outside (mu, theta, 0, ...)
        deformation = self._zero_deformation_211()
        tensor, levels = deformation.tensor, deformation.filtration_levels
        off_s = tensor.component_dims[0]
        cert = _check_assoc_graded(deformation.datum, self._set(
            tensor, [((0, 1), off_s, 1)]), levels)
        assert not cert.passed
        assert cert.detail == ("bracket component outside the defining "
                               "sequence (mu, theta, 0, ...)")
        assert cert.witness == {"pair": (0, 1), "target": off_s}


class TestGaugeInvariance:
    @pytest.mark.parametrize("s,t,N", GRID)
    def test_theta_fixed_under_gauge_shifts(self, s, t, N):
        for datum in admissible_data_for_cell(s, t, N)[:2]:
            theta = compute_theta(datum)
            for shifted in gauge_shifted_data(datum, max_shifts=4):
                other = compute_theta(shifted)
                assert other.theta1 == theta.theta1
                assert other.theta2 == theta.theta2


class TestRealisability:
    def test_zero_datum_realisable(self):
        sub = get_full_subalgebra(2, 1, 1)
        datum = check_admissibility(sub, zero_cocycle(sub),
                                    get_fullco(2, 1, 1))
        report = check_geometric_realisability(datum)
        assert report.realisable
        assert report.witness is not None

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_datum_in_the_gauge_is_its_own_witness(self, s, t, N):
        datum = zero_datum(s, t, N)
        assert check_geometric_realisability(datum).witness is datum

    def test_datum_freed_without_the_cycle_collector(self):
        # nothing derived on a datum refers back to it, so reference
        # counting frees it and its deformation
        gc.disable()
        try:
            datum = zero_datum(2, 1, 1)
            deformation = build_filtered_deformation(datum)
            assert check_geometric_realisability(datum).realisable
            assert datum._theta is not None
            assert datum._integrability is not None
            ref = weakref.ref(datum)
            del datum, deformation
            assert ref() is None
        finally:
            gc.enable()

    def test_nonzero_theta2_not_realisable(self):
        # theta2 is gauge-invariant, so a perturbed nonzero theta2 can never
        # be realisable
        datum = nonzero_datum(2, 1, 2)
        theta = compute_theta(datum)
        assert datum.model.dim_r > 0
        # every coordinate 1 on the pairs b < c, and -1 on their partners
        n = datum.model.dim_v
        bad2 = ExactMatrix(datum.model.dim_r, n * n, [
            (t, b * n + c, 1 if b < c else -1)
            for t in range(datum.model.dim_r)
            for b in range(n) for c in range(n) if b != c])
        report = check_geometric_realisability(with_derived(
            datum, theta=dataclasses.replace(theta, theta2=bad2)))
        assert not report.realisable
        assert not report.theta2_zero

    def test_lambda2_in_rp_eliminated_by_gauge(self):
        # a lambda shift valued in r' is removed by the gauge search
        fullco = get_fullco(2, 1, 2)
        sub = get_full_subalgebra(2, 1, 2)
        datum = check_admissibility(sub, zero_cocycle(sub), fullco)
        assert sub.rp.dim == 1
        shifted = None
        for cand in gauge_shifted_data(datum):
            if any(not vec_is_zero(lam2_coords(cand, b))
                   for b in range(datum.model.dim_v)):
                shifted = cand
                break
        assert shifted is not None
        report = check_geometric_realisability(shifted)
        assert report.realisable
        assert report.witness is not shifted
        for b in range(datum.model.dim_v):
            assert vec_is_zero(lam2_coords(report.witness, b))


class TestGaugeShiftKeepsAdmissibility:
    @pytest.mark.parametrize("s,t,N", [(2, 1, 2), (3, 1, 2)])
    def test_shifted_data_and_witnesses_stay_admissible(self, s, t, N):
        # every shift and every realisability witness keeps
        # i_*(mu) = i^*(hat) + d(lambda) exactly.  (2,1,2) maximal has
        # lambda2 shifts that realisability eliminates; the sampled (3,1,2)
        # data carry a class generator with nonzero lambda_k
        class_shifts = witnesses = 0
        for datum in admissible_data_for_cell(s, t, N)[:3]:
            mixed_cx = datum.mixed_complex
            inc = inclusion_matrix(datum.sub_complex, mixed_cx)
            res = restriction_matrix(datum.fullco.complex, mixed_cx)

            def assert_admissible(other):
                assert inc.apply(other.mu_minus.coeffs) == vec_add(
                    res.apply(other.hat.coeffs),
                    mixed_cx.differentials[1].apply(other.lam))

            G = class_gauge_generators(datum)[0].rows
            class_shifts += G
            shifted = gauge_shifted_data(datum)
            for i, other in enumerate(shifted):
                assert_admissible(other)
                if i < G:
                    assert other.lam != datum.lam
                    assert other.hat.coeffs != datum.hat.coeffs
                    assert other.mu_minus.coeffs == datum.mu_minus.coeffs
            # realisability on the datum and its class shifts, or on its
            # first lambda shifts when it has none
            for other in [datum] + (shifted[:G] or shifted[:4]):
                report = check_geometric_realisability(other)
                if report.witness is not None:
                    witnesses += 1
                    assert_admissible(report.witness)
        assert witnesses
        assert class_shifts or (s, t, N) == (2, 1, 2)


class TestEnvelope:
    def test_zero_cocycle_trivial_envelopes(self):
        fullco = get_fullco(3, 1, 1)
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        hat = NormalisedCocycle(Cochain22(
            fullco.complex, zero_vec(fullco.complex.layouts[2].dim)))
        report = compute_envelope(fullco, sub, hat)
        assert report.joint.dim == 0 and report.direct_sum.dim == 0

    def test_trivial_dirac_kernel_trivial_envelopes(self):
        fullco = get_fullco(2, 1, 1)
        sub = get_full_subalgebra(2, 1, 1)
        hat_vec = invariant_basis(fullco, sub)[0]
        hat = NormalisedCocycle(Cochain22(fullco.complex, hat_vec))
        report = compute_envelope(fullco, sub, hat)
        assert report.dirac_kernel_dim == 0
        assert report.joint.dim == 0 and report.direct_sum.dim == 0

    def test_generic_d4_envelope_closure(self):
        fullco = get_fullco(3, 1, 1)
        sub = get_sampled_subalgebra(3, 1, 1, 7)
        hat_vec = invariant_basis(fullco, sub)[0]
        hat = NormalisedCocycle(Cochain22(fullco.complex, hat_vec))
        report = compute_envelope(fullco, sub, hat)
        blob = report.to_json()
        assert report.joint.dim <= report.direct_sum.dim
        assert set(blob) == {"dirac_kernel_dim", "joint_image", "direct_sum"}

    def test_requires_highly_susy(self):
        fullco = get_fullco(2, 1, 2)
        hat = NormalisedCocycle(Cochain22(
            fullco.complex, zero_vec(fullco.complex.layouts[2].dim)))
        model = fullco.model
        Sp = Subspace.from_vectors(4, [[1, 0, 0, 0]])
        sub = make_graded_subalgebra(model, Subspace.full(3), Sp,
                                     stabiliser_in_so(model, Sp),
                                     Subspace.trivial(model.dim_r))
        with pytest.raises(NotHighlySusy):
            compute_envelope(fullco, sub, hat)
