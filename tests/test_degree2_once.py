"""The full model's degree-2 data on a maximal subalgebra is derived once,
and equals the routes it replaced (tests/degree2_oracles.py):

- the representatives are the complement of B's last-nonzero positions in
  Z coordinates, as the greedy row basis of [B; Z] gave them;
- for the full subalgebra's own Lie generators, while the section is
  equivariant under them, N^{a0} is read off the invariant classes of
  H^{2,2}; every other generator set takes the direct route;
- on a maximal subalgebra the admissibility system, the class gauge
  generators and the lambda2 elimination use cochains as they are, with no
  restriction or inclusion matrix formed, and give what the formed maps
  gave;
- the kept causality probe, the relabelled bracket blocks and the element
  images of the flat model equal their previous routes."""

import dataclasses
import random
from fractions import Fraction

import pytest

import degree2_oracles as oracle
import spencerkit.deform as deform
import spencerkit.pipeline as pipeline
import spencerkit.spencer as spencer
from instances import GRID, get_full_subalgebra, get_model, \
    get_sampled_subalgebra
from spencerkit.deform import _gauge_shift, check_admissibility, \
    check_geometric_realisability, class_gauge_generators, zero_cocycle
from spencerkit.errors import OracleMismatch
from spencerkit.exactla import ExactMatrix, flatten_columns, hstack, kron
from spencerkit.flatmodel import bracket_from_blocks
from spencerkit.spencer import FullModelCohomology, compute_cohomology, \
    inclusion_matrix, spencer_complex


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s,t,N,seed", [(*cell, seed) for cell in GRID
                                        for seed in (None, 1)])
def test_rep_rows_equal_the_greedy_row_basis(s, t, N, seed):
    sub = (get_full_subalgebra(s, t, N) if seed is None
           else get_sampled_subalgebra(s, t, N, seed))
    for degree, ps in ((2, (1, 2)), (4, (2,))):
        for p in ps:
            co = compute_cohomology(spencer_complex(sub, degree), p)
            assert co.rep_rows == oracle.greedy_rep_rows(co)
            assert len(co.rep_rows) == co.dim_h


# ---------------------------------------------------------------------------
# the invariant normalised space
# ---------------------------------------------------------------------------


def _fresh_fullco(s, t, N):
    """A FullModelCohomology with nothing kept per subalgebra."""
    return FullModelCohomology(get_model(s, t, N))


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


@pytest.mark.parametrize("s,t,N", GRID)
def test_maximal_invariants_are_read_off_the_classes(s, t, N, monkeypatch):
    fullco = _fresh_fullco(s, t, N)
    gens = get_full_subalgebra(s, t, N).generator_coords()
    direct = oracle.direct_invariant_normalised(fullco, *gens)
    monkeypatch.setattr(FullModelCohomology, "_invariant_normalised",
                        _refuse("the direct route"))
    derived = fullco.invariant_normalised(*gens)
    assert derived == direct
    assert derived.dim == len(fullco.h22.invariant_classes())
    if (s, t, N) in ((2, 1, 1), (2, 1, 2)):
        # H^{a0} is not zero on these cells
        assert derived.dim


def test_the_derived_route_certifies_invariance(monkeypatch):
    # (2,1,2) has dim H = 6 and one invariant class: a representative
    # that is not invariant, passed off as one, is caught
    fullco = _fresh_fullco(2, 1, 2)
    co = fullco.h22
    invariant = fullco.invariant_normalised(
        *fullco.full_subalgebra.generator_coords())
    moved = [co.cocycles.basis.row_tuple(i) for i in co.rep_rows
             if not invariant.contains(_normal_part(fullco, i))]
    assert moved
    fullco.clear_subalgebra_data()
    monkeypatch.setattr(co, "_invariant", moved[:1])
    with pytest.raises(OracleMismatch, match="not invariant"):
        fullco.invariant_normalised(
            *fullco.full_subalgebra.generator_coords())


def _normal_part(fullco, rep):
    """The normalised representative of the class of Z basis row `rep`:
    its N coordinates in the [B; N] basis of Z."""
    co = fullco.h22
    solved = hstack([fullco.split.transpose(),
                     ExactMatrix.identity(co.dim_z).select_columns(
                         [rep])]).rref()
    on_n = solved.select_rows(range(co.dim_b, co.dim_z)).select_columns(
        [co.dim_z])
    return (on_n.transpose() @ fullco.normalised_space.basis).row_tuple(0)


@pytest.mark.parametrize("s,t,N,seed", [(3, 1, 1, 7), (2, 1, 2, 1)])
def test_sampled_stabilisers_keep_the_direct_route(s, t, N, seed,
                                                   monkeypatch):
    sub = get_sampled_subalgebra(s, t, N, seed)
    fullco = _fresh_fullco(s, t, N)
    gens = sub.generator_coords()
    assert not sub.maximal()
    monkeypatch.setattr(FullModelCohomology, "_derived_invariant",
                        _refuse("the derived route"))
    assert fullco.invariant_normalised(*gens) == \
        oracle.direct_invariant_normalised(fullco, *gens)


def test_no_r_equivariance_keeps_the_direct_route(monkeypatch):
    # every grid cell's section is r-equivariant, so the flag is forced
    # off on (2,1,2), whose r is not zero: N need not be an r-submodule
    # then, and the full subalgebra's generators take the direct route
    fullco = _fresh_fullco(2, 1, 2)
    assert fullco.splitting.r_equivariant
    gens = fullco.full_subalgebra.generator_coords()
    assert gens[1]
    fullco.splitting = dataclasses.replace(fullco.splitting,
                                           r_equivariant=False)
    monkeypatch.setattr(FullModelCohomology, "_derived_invariant",
                        _refuse("the derived route"))
    assert fullco.invariant_normalised(*gens) == \
        oracle.direct_invariant_normalised(fullco, *gens)


# ---------------------------------------------------------------------------
# i^* and i_* on a maximal subalgebra
# ---------------------------------------------------------------------------


def _classes(sub):
    """The zero class and the first invariant class, when there is one."""
    co = compute_cohomology(spencer_complex(sub, 2), 2)
    return [zero_cocycle(sub)] + co.invariant_classes()[:1]


@pytest.mark.parametrize("s,t,N,seed", [(*cell, None) for cell in GRID]
                         + [(3, 1, 1, 7)])
def test_degree2_maps_equal_the_kron_route(s, t, N, seed, monkeypatch):
    maximal = seed is None
    sub = (get_full_subalgebra(s, t, N) if maximal
           else get_sampled_subalgebra(s, t, N, seed))
    fullco = _fresh_fullco(s, t, N)
    for mu in _classes(sub):
        expected = oracle.kron_admissibility(sub, mu, fullco)
        with monkeypatch.context() as m:
            if maximal:
                m.setattr(spencer, "restriction_matrix",
                          _refuse("restriction_matrix"))
                m.setattr(deform, "inclusion_matrix",
                          _refuse("inclusion_matrix"))
            datum = check_admissibility(sub, mu, fullco)
            generators = class_gauge_generators(datum)
            report = check_geometric_realisability(datum)
        assert (datum.hat.coeffs, datum.lam) == expected
        assert generators == oracle.kron_gauge_generators(datum)
        witness = oracle.kron_realisability(datum)
        assert report.lambda2_eliminable == (witness is not None)
        if report.witness is not None:
            got = report.witness
            assert (got.mu_minus.coeffs, got.hat.coeffs, got.lam) == \
                (witness.mu_minus.coeffs, witness.hat.coeffs, witness.lam)


@pytest.mark.parametrize("s,t,N", [(2, 1, 2), (3, 1, 1)])
def test_maximal_gauge_shifts_use_nu_as_it_is(s, t, N, monkeypatch):
    # a maximal datum moved by nu in C^{2,1}: with i_* the identity, nu is
    # added as it is, and a lambda_r moved off zero is brought back by the
    # realisability search as it was through the formed i_*
    sub = get_full_subalgebra(s, t, N)
    fullco = _fresh_fullco(s, t, N)
    datum = check_admissibility(sub, _classes(sub)[-1], fullco)
    generators = class_gauge_generators(datum)
    lay = datum.sub_complex.layouts[1]
    inc = inclusion_matrix(datum.sub_complex, datum.mixed_complex, 1)
    zero = [Fraction(0)] * generators[0].rows
    for name in ("lambda_so", "lambda_r"):
        nu = [Fraction(0)] * lay.dim
        for k, i in enumerate(lay.indices(name)[:3]):
            nu[i] = Fraction(k + 1, 2)
        shifted = _gauge_shift(datum, generators, zero, nu, None)
        formed = _gauge_shift(datum, generators, zero, nu, inc)
        assert (shifted.mu_minus.coeffs, shifted.hat.coeffs, shifted.lam) \
            == (formed.mu_minus.coeffs, formed.hat.coeffs, formed.lam)
        with monkeypatch.context() as m:
            m.setattr(deform, "inclusion_matrix",
                      _refuse("inclusion_matrix"))
            report = check_geometric_realisability(shifted)
        witness = oracle.kron_realisability(shifted)
        assert report.realisable and witness is not None
        assert (name == "lambda_r") == (report.witness is not shifted)
        got = report.witness
        assert (got.mu_minus.coeffs, got.hat.coeffs, got.lam) == \
            (witness.mu_minus.coeffs, witness.hat.coeffs, witness.lam)


# ---------------------------------------------------------------------------
# the kept causality probe
# ---------------------------------------------------------------------------


def _probe_config(seed):
    return {"signature": {"s": 2, "t": 1}, "N": 1,
            "dirac_current": {"kind": "standard"},
            "subalgebra": {"S_prime": "full", "h": "full",
                           "r_prime": "full"},
            "cocycle": "zero", "checks": ["clifford", "dirac_current"],
            "seed": seed}


def test_the_causality_probe_is_kept_per_seed(monkeypatch):
    cold = {seed: pipeline.report_bytes(pipeline.run_pipeline(
        _probe_config(seed))) for seed in (0, 1)}
    pipeline.clear_kept_model()
    calls = []
    probe = pipeline.causality_probe

    def counting(current, sig, samples, seed):
        calls.append((samples, seed))
        return probe(current, sig, samples=samples, seed=seed)

    monkeypatch.setattr(pipeline, "causality_probe", counting)
    for seed in (0, 0, 1, 0, 1):
        assert pipeline.report_bytes(pipeline.run_pipeline(
            _probe_config(seed))) == cold[seed]
    assert calls == [(128, 0), (128, 1)]
    # the probe goes with the slot
    pipeline.clear_kept_model()
    pipeline.run_pipeline(_probe_config(0))
    assert calls == [(128, 0), (128, 1), (128, 0)]


# ---------------------------------------------------------------------------
# the flat model's bracket blocks and element images
# ---------------------------------------------------------------------------


def _product_bracket(n, blocks):
    """bracket_from_blocks as it was: the sum of the i_out B (p_left (x)
    p_right), with the partner of each block on two ranges subtracted
    with the columns i n + j and j n + i exchanged."""
    def project(part):
        return ExactMatrix(len(part), n, [(a, i, 1)
                                          for a, i in enumerate(part)])

    same = once = ExactMatrix(n, n * n)
    for left, right, out, B in blocks:
        term = project(out).transpose() @ B @ kron(project(left),
                                                    project(right))
        if left == right:
            same = same + term
        else:
            once = once + term
    return same + once - once.select_columns(
        [j * n + i for i in range(n) for j in range(n)])


@pytest.mark.parametrize("seed", range(20))
def test_bracket_blocks_relabel_the_product_route(seed):
    # overlapping blocks with their own denominators, on ranges that meet
    rng = random.Random(seed)
    n = rng.randint(1, 6)

    def part():
        lo = rng.randrange(n)
        return range(lo, rng.randint(lo + 1, n))

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6)) \
            if rng.random() < 0.6 else Fraction(0)

    blocks = []
    for _ in range(rng.randint(1, 4)):
        left, right, out = part(), part(), part()
        if rng.random() < 0.3:
            right = left
        B = ExactMatrix.from_rows([[entry() for _ in range(len(left)
                                                           * len(right))]
                                   for _ in out], cols=len(left) * len(right))
        blocks.append((left, right, out, B))
    assert bracket_from_blocks(n, blocks) == _product_bracket(n, blocks)


@pytest.mark.parametrize("s,t,N,seed", [(2, 1, 2, None), (3, 1, 1, 7)])
def test_element_images_equal_the_per_element_route(s, t, N, seed):
    sub = (get_full_subalgebra(s, t, N) if seed is None
           else get_sampled_subalgebra(s, t, N, seed))
    model = sub.model
    X = sub.a0_basis().transpose()
    for part, basis in (("V", sub.Vp.basis), ("S", sub.Sp.basis)):
        mats = model.element_matrices(X, part)
        assert model.element_images(X, part, basis) == flatten_columns(
            [basis @ m.transpose() for m in mats], basis.rows, basis.cols)
