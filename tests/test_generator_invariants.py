"""Invariance imposed on Lie generators against every basis element.

The spinor pairing, the Schur algebra and the equivariance of the Dirac
current are computed on the chain E_01, E_12, ..., E_{d-2,d-1} of so(V);
here they are checked against the same conditions on all d(d-1)/2 E_ij,
for every signature with s + t <= 6.  H^{2,2}'s invariant classes, found
one generator at a time, are checked against the kernel of the stacked
action matrices of `column_actions` (row and column form), and the
restriction kernels of a maximal subalgebra, which are not eliminated,
against the eliminated route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import column_actions
import pairwise_oracles
from instances import GRID, get_full_subalgebra, get_fullco, get_rep
from spencerkit import spencer
from spencerkit.cliffspin import (DiracCurrent, _invariant_pairings,
                                  _standard_pairing, build_dirac_current,
                                  check_equivariance, spin_generators)
from spencerkit.errors import NoInvariantPairing
from spencerkit.exactla import ExactMatrix, Subspace, block_diag, kron, vstack
from spencerkit.flatmodel import compute_schur_algebra

SIGNATURES = [(s, d - s) for d in range(1, 7) for s in range(d, -1, -1)]


def _all_pairs_pairings(rep):
    """_invariant_pairings with the invariance rows of every sigma_ij."""
    m = rep.base_spinor_dim
    base = rep.base_gammas()
    eye = ExactMatrix.identity(m)
    skew = ExactMatrix.identity(m * m) - ExactMatrix(
        m * m, m * m, [(i * m + j, j * m + i, 1)
                       for i in range(m) for j in range(m)])
    sigma = [g.commutator(h).scale(Fraction(1, 4))
             for k, g in enumerate(base) for h in base[k + 1:]]
    return vstack(
        [kron(sig.transpose(), eye) + kron(eye, sig.transpose())
         for sig in sigma] +
        [skew @ kron(eye, g.transpose()) for g in base]).kernel()


def _all_pairs_commutant(rep):
    """The commutant of every sigma_ij in End(S), row-major."""
    ns = rep.spinor_dim
    eye = ExactMatrix.identity(ns)
    return vstack([ExactMatrix(0, ns * ns)] +
                  [kron(eye, sig.transpose()) - kron(sig, eye)
                   for sig in spin_generators(rep).sigma]).kernel()


def _failing_generators(current, rep):
    """The pairs (i, j) whose E_ij the current is not equivariant under,
    in the order of SpinGenerators.pairs."""
    gens = spin_generators(rep)
    n = rep.dim_v
    failing = []
    for pair, sig, e in zip(gens.pairs, gens.sigma, gens.e_mats):
        for a in range(n):
            lhs = sig.transpose() @ current.components[a] + \
                current.components[a] @ sig
            rhs = ExactMatrix.zeros(rep.spinor_dim, rep.spinor_dim)
            for b in range(n):
                if e.entry(a, b):
                    rhs = rhs + current.components[b].scale(e.entry(a, b))
            if lhs != rhs:
                failing.append(pair)
                break
    return failing


def _with_last_component(current, extra):
    comps = list(current.components)
    comps[-1] = comps[-1] + extra
    return DiracCurrent(rep=current.rep, components=tuple(comps),
                        symmetry=current.symmetry)


class TestChainGenerators:
    def test_the_chain_is_the_nearest_neighbour_pairs(self):
        gens = spin_generators(get_rep(4, 1, 1))
        assert [gens.pairs[k] for k in gens.chain] == \
            [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert gens.chain_sigma() == [gens.sigma[k] for k in gens.chain]

    @pytest.mark.parametrize("s,t", SIGNATURES)
    def test_pairings_and_schur_algebra_equal_the_all_pairs_route(self, s,
                                                                 t):
        rep = get_rep(s, t, 1)
        assert _invariant_pairings(rep) == _all_pairs_pairings(rep)
        assert compute_schur_algebra(rep).basis == _all_pairs_commutant(rep)

    @pytest.mark.parametrize("s,t", SIGNATURES)
    def test_equivariance_verdicts_equal_the_all_pairs_route(self, s, t):
        rep = get_rep(s, t, 1)
        ns = rep.spinor_dim
        eye = ExactMatrix.identity(ns)
        currents = [DiracCurrent(rep, tuple(eye for _ in range(rep.dim_v)),
                                 "symmetric"),
                    DiracCurrent(rep, tuple(ExactMatrix(ns, ns)
                                            for _ in range(rep.dim_v)),
                                 "symmetric")]
        try:
            standard = build_dirac_current(rep)
        except NoInvariantPairing:
            standard = None
        if standard is not None:
            currents += [standard, _with_last_component(standard, eye)]
        for current in currents:
            assert check_equivariance(current, rep).passed == \
                (not _failing_generators(current, rep))
        if standard is not None:
            assert check_equivariance(standard, rep).passed

    def test_a_current_failing_first_off_the_chain_still_fails(self):
        # K_3 + C for the invariant pairing C: E_01 and E_12 leave
        # component 3 alone and preserve C, so the first basis element it
        # fails on is E_03, off the chain; the chain catches it at E_23
        rep = get_rep(3, 1, 1)
        C = block_diag([_standard_pairing(rep)] * rep.N)
        mutant = _with_last_component(build_dirac_current(rep), C)
        assert _failing_generators(mutant, rep) == [(0, 3), (1, 3), (2, 3)]
        cert = check_equivariance(mutant, rep)
        assert not cert.passed and cert.witness["generator"] == (2, 3)


_CLASS_CASES = GRID + ((4, 1, 1),)


class TestInvariantClassesOneGeneratorAtATime:
    @pytest.mark.parametrize("s,t,N", _CLASS_CASES)
    def test_maximal_classes_equal_both_stacked_routes(self, s, t, N):
        co = get_fullco(s, t, N).h22
        assert co.invariant_classes() == \
            column_actions.invariant_classes(co) == \
            column_actions.row_invariant_classes(co)

    def test_611_keeps_its_one_invariant_class(self):
        # the d=7 cell: dim H^{2,2} = 1, and the class is invariant, so W
        # keeps its one row through every generator
        co = spencer.compute_cohomology(
            spencer.spencer_complex(get_full_subalgebra(6, 1, 1), 2), 2)
        assert co.dim_h == 1
        classes = co.invariant_classes()
        assert len(classes) == 1
        assert classes == column_actions.invariant_classes(co) == \
            column_actions.row_invariant_classes(co)

    def test_an_emptied_basis_builds_no_further_operator(self):
        # (4,1,1): the fifth generator leaves no class, so the sixth
        # operator is never built
        sub = get_full_subalgebra(4, 1, 1)
        cx = spencer.build_spencer_complex(sub, 2)
        co = spencer.compute_cohomology(cx, 2)
        gens = len(sub.h_generators) + len(sub.rp_generators)
        assert co.dim_h and co.invariant_classes() == []
        assert len(cx.actions) == 5 < gens

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_product_of_rref_matrices_is_in_rref(self, data):
        # why the running basis needs no elimination at the end
        w = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(w, 7))
        entries = st.integers(-3, 3)
        W = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=w,
            max_size=w))).rref()
        K = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=W.rows, max_size=W.rows),
            min_size=1, max_size=4)), cols=W.rows).rref()
        assert K @ W == (K @ W).rref()

    @pytest.mark.parametrize("s,t,N", _CLASS_CASES)
    def test_class_reader_reads_the_class_of_a_cocycle(self, s, t, N):
        # a combination of representatives plus a coboundary reads as the
        # combination's coefficients
        co = get_fullco(s, t, N).h22
        if not co.dim_h:
            pytest.skip("H = 0")
        coeffs = ExactMatrix.from_rows(
            [[(k * 7 + i) % 5 - 2 for i in range(co.dim_h)]
             for k in range(3)])
        B = co.boundaries.basis
        noise = ExactMatrix.from_rows(
            [[(k + 3 * j) % 4 - 1 for j in range(B.rows)] for k in range(3)])
        cochains = coeffs @ co._representative_rows() + noise @ B
        Z = co.cocycles
        read = co.class_reader()
        assert read(cochains.select_columns(Z.basis.pivot_columns())) == \
            coeffs


@pytest.mark.parametrize("s,t,N", _CLASS_CASES)
def test_maximal_restriction_kernels_equal_the_eliminated_route(s, t, N):
    fullco = get_fullco(s, t, N)
    sub = get_full_subalgebra(s, t, N)
    report = spencer._restriction_kernel_report(sub, fullco)
    trivial = Subspace.trivial(fullco.complex.layouts[2].dim)
    assert report.direct == report.via_istar == trivial
    assert (report.direct, report.via_istar) == \
        pairwise_oracles.restriction_kernels(sub, fullco)
