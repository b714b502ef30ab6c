"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (literal equality of rationals); the two
runtime budgets are asserted against the wall clock.
"""

import time

import pytest

from instances import (GRID, HIGH_SUSY_DIM, admissible_data_for_cell,
                       annihilator_in_so, gauge_shifted_data,
                       get_full_subalgebra, get_fullco, get_model,
                       get_sampled_subalgebra)
from pairwise_oracles import bracket_table, solve_many
from spencerkit.cache import config_hash
from spencerkit.deform import (_delta_cochains, build_filtered_deformation,
                               check_admissibility,
                               check_geometric_realisability,
                               check_integrability, compute_theta,
                               solve_delta, zero_cocycle)
from spencerkit.exactla import AffineSolver, ExactMatrix, vec_is_zero, vstack
from spencerkit.flatmodel import graded_jacobi_check, \
    kappa_restriction_matrix, random_subspace
from spencerkit.pipeline import report_bytes, run_pipeline
from spencerkit.reconstruct import build_nomizu_map, curvature_at_origin
from spencerkit.spencer import (build_spencer_complex, compute_cohomology,
                                subalgebra_actions)


def _announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def sampled_subalgebras():
    """>= 20 seeded highly supersymmetric subalgebras across the grid."""
    subs = []
    for cell in GRID:
        for seed in range(5):
            subs.append(((cell, seed), get_sampled_subalgebra(*cell, seed)))
    return subs


def test_criterion_1_flat_model_jacobi():
    worst = 0.0
    for cell in GRID:
        start = time.monotonic()
        model = get_model(*cell)  # build_extended_flat_model verifies Jacobi
        cert = graded_jacobi_check(model.tensor)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert cert.passed, cell
        assert elapsed < 10.0, f"{cell} took {elapsed:.1f}s"
    _announce(1, "graded Jacobi exact on all four Lorentzian models "
                 f"(worst build+check {worst:.2f}s < 10s)")


def test_criterion_2_complex_property():
    count = 0
    for cell in GRID:
        for sub in [get_full_subalgebra(*cell)] + \
                [s for (_, s) in sampled_subalgebras() if s.model is
                 get_model(*cell)]:
            cx2 = build_spencer_complex(sub, 2)
            assert (cx2.differentials[2] @ cx2.differentials[1]).is_zero()
            cx4 = build_spencer_complex(sub, 4)
            assert (cx4.differentials[2] @ cx4.differentials[1]).is_zero()
            count += 1
    assert count >= 24  # 4 full models + 20 samples
    _announce(2, f"d o d = 0 entrywise for the (2,.) and (4,.<=2) complexes "
                 f"on {count} instances")


def test_criterion_3_normalisation_oracle():
    for cell in GRID:
        fullco = get_fullco(*cell)
        direct = vstack([fullco.complex.differentials[2],
                         *fullco._constraint_rows()]).kernel()
        assert direct == fullco.normalised_space, cell
        co = compute_cohomology(fullco.complex, 2)
        assert direct.dim == co.dim_h, cell
    _announce(3, "the normalised-cocycle space read off Z equals the direct "
                 "kernel over C^{2,2}, of dimension dim H^{2,2}, on all four "
                 "models")


def test_criterion_4_homogeneity():
    model = get_model(3, 1, 1)
    for seed in range(500):
        Sp = random_subspace(model.dim_s, 3, seed)
        assert kappa_restriction_matrix(model, Sp).rank() == 4, seed
        assert annihilator_in_so(model, Sp).dim == 0, seed
    _announce(4, "rank kappa|Sym^2 S' = 4 and trivial so(V)-annihilator for "
                 "500 seeded random 3-dimensional S' in the d=4 N=1 model")


def test_criterion_5_vanishing_theorems():
    checked = 0
    for (tag, sub) in sampled_subalgebras():
        if not (sub.highly_susy and sub.transitive):
            continue
        co21 = compute_cohomology(build_spencer_complex(sub, 2), 1)
        assert co21.dim_h == 0 and co21.dim_z == 0, tag
        co42 = compute_cohomology(build_spencer_complex(sub, 4), 2)
        assert co42.dim_h == 0, tag
        checked += 1
    assert checked >= 20
    _announce(5, f"H^(2,1) = 0 and H^(4,2) = 0 on {checked} sampled highly "
                 "supersymmetric transitive subalgebras")


def test_criterion_6_delta_dual_route():
    instances = 0
    for cell in GRID:
        for datum in admissible_data_for_cell(*cell):
            # the generic route as the oracle: solve d21 chi_X = X.mu for
            # every h- then r'-basis element X and compare with the closed
            # form solve_delta certified, whose r' columns have a zero h
            # block (delta3 = 0)
            cx = datum.sub_complex
            mu = datum.mu_minus.row()
            rhs = vstack([op.apply_rows(mu)
                          for op in subalgebra_actions(cx)]).transpose()
            chis = solve_many(AffineSolver(cx.differentials[1]), rhs)
            assert None not in chis
            lay1 = cx.layouts[1]
            assert ExactMatrix.from_columns(chis, lay1.dim) == \
                _delta_cochains(datum, solve_delta(datum))
            h_dim = datum.subalgebra.h.dim
            assert all(chi[i] == 0 for chi in chis[h_dim:]
                       for i in lay1.indices("lambda_so"))
            instances += 1
    assert instances >= 10
    _announce(6, f"closed-form delta equals the generic solver and "
                 f"delta3 = 0 on {instances} admissible instances")


def test_criterion_7_integration_round_trip():
    # zero class on every cell, with the d=4 N=2 maximal budget
    start_big = None
    for cell in GRID:
        t0 = time.monotonic()
        sub = get_full_subalgebra(*cell)
        fullco = get_fullco(*cell)
        datum = check_admissibility(sub, zero_cocycle(sub), fullco)
        report = check_integrability(datum)
        assert report.passed
        deformation = build_filtered_deformation(datum)
        real = check_geometric_realisability(datum)
        assert real.realisable
        levels = deformation.filtration_levels
        for (i, j), chunk in bracket_table(deformation.tensor).items():
            for k in chunk:
                assert levels[k] == levels[i] + levels[j], \
                    "zero class must reproduce the graded bracket"
        if cell == (3, 1, 2):
            start_big = time.monotonic() - t0
            assert start_big < 60.0, f"d=4 N=2 took {start_big:.1f}s"
    # every generated passing datum: certificates all pass
    built = 0
    for cell in GRID:
        for datum in admissible_data_for_cell(*cell):
            report = check_integrability(datum)
            if not report.passed:
                continue
            deformation = build_filtered_deformation(datum)
            assert all(bool(c) for c in deformation.certificates.values())
            built += 1
    _announce(7, "zero classes integrate to the graded subalgebras "
                 f"(d=4 N=2 maximal in {start_big:.1f}s < 60s); "
                 f"{built} deformations pass Jacobi, filtration and "
                 "associated-graded checks")


def test_criterion_8_theta_gauge_invariance():
    instances = 0
    shifts_checked = 0
    for cell in GRID:
        for datum in admissible_data_for_cell(*cell):
            theta = compute_theta(datum)
            if theta.theta1 is None:
                continue
            shifted = gauge_shifted_data(datum, max_shifts=5)
            if not shifted:
                continue
            for other in shifted:
                new_theta = compute_theta(other)
                assert new_theta.theta1 == theta.theta1
                assert new_theta.theta2 == theta.theta2
                shifts_checked += 1
            instances += 1
    assert instances >= 10
    _announce(8, f"theta maps unchanged under {shifts_checked} gauge shifts "
                 f"across {instances} instances")


def test_criterion_9_reconstruction_consistency():
    built = 0
    for cell in GRID:
        for datum in admissible_data_for_cell(*cell):
            report = check_integrability(datum)
            if not report.passed:
                continue
            real = check_geometric_realisability(datum)
            source = real.witness if real.realisable else datum
            deformation = build_filtered_deformation(source)
            # build_nomizu_map verifies equivariance and torsion-freeness;
            # curvature_at_origin asserts Wang = -theta and first Bianchi
            nomizu = build_nomizu_map(deformation)
            curv = curvature_at_origin(deformation, nomizu)
            if real.realisable:
                assert all(vec_is_zero(v) for row in curv.F0 for v in row)
            built += 1
    assert built >= 10
    _announce(9, f"Wang curvature equals -theta, Bianchi and torsion-free "
                 f"hold, realisable F0 = 0, on {built} deformations")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SPENCERKIT_CACHE_DIR", str(tmp_path / "cache"))
    from spencerkit.cache import cache_lookup, cache_store
    config = {
        "signature": {"s": 3, "t": 1},
        "N": 1,
        "dirac_current": {"kind": "standard"},
        "subalgebra": {"S_prime": {"random": {"dim": 3, "seed": 7}},
                       "h": "stabiliser", "r_prime": "zero"},
        "cocycle": {"basis_element": 0},
        "seed": 7,
    }
    blob1 = report_bytes(run_pipeline(config))
    blob2 = report_bytes(run_pipeline(config))
    assert blob1 == blob2
    key = config_hash(run_pipeline(config)["config"])
    cache_store(key, blob1)
    assert cache_lookup(key) == blob1
    _announce(10, "identical config+seed gives byte-identical reports "
                  "across runs and cache paths")
