"""Shared, cached construction of test instances across the signature grid."""

from functools import lru_cache
from itertools import combinations

from spencerkit.cliffspin import Signature, build_clifford_rep, \
    build_dirac_current
from spencerkit.deform import admissible_cocycles_from_invariant, \
    check_admissibility
from spencerkit.errors import NotClosed
from spencerkit.exactla import Subspace, basis_vec
from spencerkit.flatmodel import build_extended_flat_model, full_subalgebra, \
    make_graded_subalgebra, random_highly_susy_subalgebra, stabiliser_in_r, \
    stabiliser_in_so
from spencerkit.spencer import FullModelCohomology

# Lorentzian acceptance grid: (spacelike, timelike, extension)
GRID = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2))

# dim S' used when sampling highly supersymmetric subalgebras per grid cell
HIGH_SUSY_DIM = {(2, 1, 1): 2, (2, 1, 2): 3, (3, 1, 1): 3, (3, 1, 2): 5}


@lru_cache(maxsize=None)
def get_rep(s, t, N):
    return build_clifford_rep(Signature(s, t), N)


@lru_cache(maxsize=None)
def get_current(s, t, N):
    return build_dirac_current(get_rep(s, t, N))


@lru_cache(maxsize=None)
def get_model(s, t, N):
    return build_extended_flat_model(get_rep(s, t, N), get_current(s, t, N))


@lru_cache(maxsize=None)
def get_fullco(s, t, N):
    return FullModelCohomology(get_model(s, t, N))


@lru_cache(maxsize=None)
def get_full_subalgebra(s, t, N):
    return full_subalgebra(get_model(s, t, N))


@lru_cache(maxsize=None)
def get_sampled_subalgebra(s, t, N, seed, rp_mode="stabiliser"):
    return random_highly_susy_subalgebra(
        get_model(s, t, N), HIGH_SUSY_DIM[(s, t, N)], seed, rp_mode=rp_mode)


def invariant_basis(fullco, sub):
    space = fullco.invariant_normalised(
        [sub.h.basis.row_tuple(i) for i in range(sub.h.dim)],
        [sub.rp.basis.row_tuple(i) for i in range(sub.rp.dim)])
    return [space.basis.row_tuple(k) for k in range(space.dim)]


@lru_cache(maxsize=None)
def coordinate_subalgebras(s, t, N, limit=2):
    """Highly supersymmetric subalgebras on coordinate spinor subspaces with
    stabiliser isotropy, preferring ones that admit a nonzero admissible
    class; these carry richer invariant spaces than generic samples in the
    extended cells."""
    model = get_model(s, t, N)
    fullco = get_fullco(s, t, N)
    dim_sp = HIGH_SUSY_DIM[(s, t, N)]
    out = []
    for combo in combinations(range(model.dim_s), dim_sp):
        Sp = Subspace.from_vectors(model.dim_s,
                                   [basis_vec(model.dim_s, i) for i in combo])
        h = stabiliser_in_so(model, Sp)
        rp = stabiliser_in_r(model, Sp)
        try:
            sub = make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                         Sp, h, rp)
        except NotClosed:
            continue
        if not sub.transitive:
            continue
        if any(mu is not None for mu in admissible_cocycles_from_invariant(
                sub, fullco, invariant_basis(fullco, sub))):
            out.append(sub)
        if len(out) >= limit:
            break
    return tuple(out)


@lru_cache(maxsize=None)
def admissible_data_for_cell(s, t, N, include_subs=True):
    """Admissible data generated from basis elements of the invariant
    normalised cocycle space (plus the zero class), for the maximal
    subalgebra, sampled subalgebras and coordinate subalgebras."""
    fullco = get_fullco(s, t, N)
    out = []
    subs = [get_full_subalgebra(s, t, N)]
    if include_subs:
        subs += [get_sampled_subalgebra(s, t, N, seed) for seed in (1, 2)]
        subs += list(coordinate_subalgebras(s, t, N))
    seen_zero = False
    for sub in subs:
        candidates = invariant_basis(fullco, sub)
        if not seen_zero:
            candidates = [tuple([0] * fullco.complex.layouts[2].dim)] + \
                candidates
            seen_zero = True
        for mu in admissible_cocycles_from_invariant(sub, fullco,
                                                     candidates):
            if mu is None:
                continue
            datum = check_admissibility(sub, mu, fullco)
            if not hasattr(datum, "hat"):
                continue
            out.append(datum)
    return tuple(out)
