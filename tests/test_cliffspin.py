from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from instances import GRID, fraction_causality_probe, get_current, get_rep
from spencerkit.cliffspin import (CliffordRep, DiracCurrent, Signature,
                                  build_clifford_rep, build_dirac_current,
                                  causality_probe, check_equivariance,
                                  spin_generators)
from spencerkit.errors import (NoRealForm, NotEquivariant, NotLorentzian,
                               NotSymmetric)
from spencerkit.exactla import ExactMatrix, block_diag


def clifford_relation_holds(rep):
    eta = rep.signature.eta()
    one = ExactMatrix.identity(rep.spinor_dim)
    for i in range(rep.dim_v):
        for j in range(rep.dim_v):
            anti = rep.gammas[i].anticommutator(rep.gammas[j])
            want = one.scale(2 * eta[i]) if i == j else \
                ExactMatrix.zeros(rep.spinor_dim, rep.spinor_dim)
            if anti != want:
                return False
    return True


class TestCliffordConstruction:
    def test_lorentzian_d3_minimal(self):
        rep = build_clifford_rep(Signature(2, 1))
        assert rep.spinor_dim == 2
        assert clifford_relation_holds(rep)

    def test_lorentzian_d4_majorana_dim(self):
        rep = build_clifford_rep(Signature(3, 1))
        assert rep.spinor_dim == 4
        assert clifford_relation_holds(rep)

    @pytest.mark.parametrize("s,t", [(1, 1), (3, 0), (0, 3), (2, 2), (4, 1)])
    def test_other_signatures(self, s, t):
        assert clifford_relation_holds(build_clifford_rep(Signature(s, t)))

    def test_extension_is_block_diagonal(self):
        base = build_clifford_rep(Signature(2, 1), 1)
        doubled = build_clifford_rep(Signature(2, 1), 2)
        assert doubled.spinor_dim == 4
        for g1, g2 in zip(base.gammas, doubled.gammas):
            assert block_diag([g1, g1]) == g2

    def test_invalid_signature(self):
        with pytest.raises(NoRealForm):
            Signature(0, 0)
        with pytest.raises(NoRealForm):
            Signature(-1, 2)
        with pytest.raises(NoRealForm):
            build_clifford_rep(Signature(2, 1), 0)


class TestSpinGenerators:
    @pytest.mark.parametrize("s,t", [(2, 1), (3, 1)])
    def test_bracket_closure(self, s, t):
        # [sigma_ij, sigma_kl] = eta_jk sigma_il - eta_ik sigma_jl
        #                        - eta_jl sigma_ik + eta_il sigma_jk
        rep = build_clifford_rep(Signature(s, t))
        gens = spin_generators(rep)
        eta = rep.signature.eta()

        def sigma(i, j):
            if i == j:
                return ExactMatrix.zeros(rep.spinor_dim, rep.spinor_dim)
            if i < j:
                return gens.sigma[gens.pairs.index((i, j))]
            return gens.sigma[gens.pairs.index((j, i))].scale(-1)

        n = rep.dim_v
        for (i, j) in gens.pairs:
            for (k, l) in gens.pairs:
                got = sigma(i, j).commutator(sigma(k, l))
                want = sigma(i, l).scale(eta[j] if j == k else 0)
                for coeff, (a, b) in [(-eta[i] if i == k else 0, (j, l)),
                                      (-eta[j] if j == l else 0, (i, k)),
                                      (eta[i] if i == l else 0, (j, k))]:
                    if coeff:
                        want = want + sigma(a, b).scale(coeff)
                assert got == want

    def test_commutation_with_gammas(self):
        rep = build_clifford_rep(Signature(3, 1))
        gens = spin_generators(rep)
        eta = rep.signature.eta()
        for (i, j), sig in zip(gens.pairs, gens.sigma):
            for k, g in enumerate(rep.gammas):
                got = sig.commutator(g)
                want = rep.gammas[i].scale(eta[j] if j == k else 0) - \
                    rep.gammas[j].scale(eta[i] if i == k else 0)
                assert got == want


class TestDiracCurrent:
    def test_standard_d3_full_rank(self):
        cur = get_current(2, 1, 1)
        assert cur.symmetry == "symmetric"
        assert cur.component_matrix().rank() == 3
        assert cur.surjective

    def test_zero_tensor_accepted_degenerate(self):
        rep = get_rep(2, 1, 1)
        zero = [ExactMatrix.zeros(2, 2) for _ in range(3)]
        cur = build_dirac_current(rep, zero)
        assert cur.is_zero and not cur.surjective
        assert check_equivariance(cur, rep).passed

    def test_scaling_preserves_equivariance_and_symmetry(self):
        rep = get_rep(2, 1, 1)
        cur = get_current(2, 1, 1)
        doubled = build_dirac_current(rep,
                                      [k.scale(2) for k in cur.components])
        assert doubled.symmetry == cur.symmetry
        assert check_equivariance(doubled, rep).passed

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_builder_roundtrip_equivariance(self, s, t, N):
        assert check_equivariance(get_current(s, t, N), get_rep(s, t, N)).passed

    def test_perturbed_current_fails_with_witness(self):
        rep = get_rep(2, 1, 1)
        cur = get_current(2, 1, 1)
        comps = list(cur.components)
        bad = comps[1] + ExactMatrix(2, 2, [(0, 0, 1)])
        bad = bad + bad.transpose() - bad  # keep it simple: perturb one entry
        perturbed = DiracCurrent(rep=rep,
                                 components=(comps[0], bad, comps[2]),
                                 symmetry=cur.symmetry)
        cert = check_equivariance(perturbed, rep)
        assert not cert.passed
        assert cert.witness is not None

    def test_explicit_nonequivariant_rejected(self):
        rep = get_rep(2, 1, 1)
        bad = [ExactMatrix.identity(2), ExactMatrix.identity(2),
               ExactMatrix.identity(2)]
        with pytest.raises(NotEquivariant):
            build_dirac_current(rep, bad)


class TestCausalityProbe:
    def test_standard_d3_no_counterexample(self):
        report = causality_probe(get_current(2, 1, 1), Signature(2, 1),
                                 samples=1000, seed=1)
        assert report.passed
        assert "not a proof" in report.note

    def test_zero_current_all_null(self):
        rep = get_rep(2, 1, 1)
        zero = build_dirac_current(rep, [ExactMatrix.zeros(2, 2)] * 3)
        assert causality_probe(zero, Signature(2, 1), samples=50,
                               seed=0).passed

    @staticmethod
    def _swapped(scale):
        # swapping the timelike component with a spacelike one breaks
        # causality; a sign flip alone cannot, because the causal form is
        # quadratic in the components
        cur = get_current(2, 1, 1)
        comps = [k.scale(scale) for k in cur.components]
        return DiracCurrent(rep=cur.rep,
                            components=(comps[1], comps[0], comps[2]),
                            symmetry="symmetric")

    @staticmethod
    def _counterexample_report(value):
        return {"probe": "causality", "samples": 200, "seed": 0,
                "passed": False,
                "counterexample": {"sample_index": 0,
                                   "spinor": ["-8", "-5"],
                                   "eta_kappa_kappa": value},
                "note": "PROBE: sampled evidence, not a proof"}

    def test_corrupted_current_has_spacelike_value(self):
        report = causality_probe(self._swapped(1), Signature(2, 1),
                                 samples=200, seed=0)
        assert not report.passed
        assert report.to_json() == self._counterexample_report("3042")

    def test_scaled_corrupted_current_has_rational_value(self):
        # a scale c multiplies every value by c^2: 3042 / 16 = 1521 / 8
        report = causality_probe(self._swapped(Fraction(1, 4)),
                                 Signature(2, 1), samples=200, seed=0)
        assert report.to_json() == self._counterexample_report("1521/8")

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), s=st.sampled_from((2, 3)),
           samples=st.integers(1, 40), seed=st.integers(0, 2 ** 70))
    def test_matches_the_fraction_oracle(self, data, s, samples, seed):
        # random symmetric currents with small denominators and zero
        # components; they are mostly acausal, so the counterexample path
        # and its bytes are compared too
        rep = get_rep(s, 1, 1)
        n = rep.spinor_dim
        entry = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
        comps = []
        for _ in range(rep.dim_v):
            if data.draw(st.booleans()):
                comps.append(ExactMatrix.zeros(n, n))
                continue
            upper = {(i, j): data.draw(entry)
                     for i in range(n) for j in range(i, n)}
            comps.append(ExactMatrix(n, n, [
                (i, j, upper[min(i, j), max(i, j)])
                for i in range(n) for j in range(n)]))
        cur = DiracCurrent(rep=rep, components=tuple(comps),
                           symmetry="symmetric")
        sig = Signature(s, 1)
        assert causality_probe(cur, sig, samples=samples,
                               seed=seed).to_json() == \
            fraction_causality_probe(cur, sig, samples, seed).to_json()

    @pytest.mark.parametrize("s,t,N", GRID)
    def test_standard_currents_match_the_fraction_oracle(self, s, t, N):
        cur, sig = get_current(s, t, N), Signature(s, t)
        for seed in (0, 1, 2):
            assert causality_probe(cur, sig, samples=128,
                                   seed=seed).to_json() == \
                fraction_causality_probe(cur, sig, 128, seed).to_json()

    def test_preconditions(self):
        cur = get_current(2, 1, 1)
        with pytest.raises(NotLorentzian):
            causality_probe(cur, Signature(3, 0), samples=10, seed=0)
        skew = DiracCurrent(rep=cur.rep, components=cur.components,
                            symmetry="skew")
        with pytest.raises(NotSymmetric):
            causality_probe(skew, Signature(2, 1), samples=10, seed=0)

    def test_probe_deterministic(self):
        cur = get_current(3, 1, 1)
        a = causality_probe(cur, Signature(3, 1), samples=64, seed=9)
        b = causality_probe(cur, Signature(3, 1), samples=64, seed=9)
        assert a.to_json() == b.to_json()
