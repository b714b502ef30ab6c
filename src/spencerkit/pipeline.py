"""Configuration validation and staged pipeline orchestration.

Stages run in a fixed dependency order; a stage that returns a mathematical
negative (for example an inadmissible class) short-circuits the run, and no
later-stage data is emitted.  Reports are canonical JSON, byte-identical for
identical (config, version).  The pipeline writes nothing: each stage's
status and wall-clock time go to the caller's `on_stage`, never into the
report.

The objects that depend only on the signature, N and the Dirac current (the
current, its causality probe per (samples, seed), the Schur and R-symmetry
algebras, the extended flat model and its FullModelCohomology) are kept in
one slot for the next run: consecutive configs on one signature build them
once.  A config with another key empties the slot first, and
`clear_kept_model` empties it on request.
"""

from __future__ import annotations

import time

from . import BASIS_VERSION, __version__
from .cache import canonical_json, config_hash
from .cliffspin import (CONVENTION, Signature, build_clifford_rep,
                        build_dirac_current, causality_probe)
from .deform import (NotAdmissible, build_filtered_deformation,
                     check_admissibility, check_geometric_realisability,
                     check_integrability, compute_envelope, compute_theta,
                     deformation_report, zero_cocycle)
from .errors import (ConfigError, DimensionMismatch, KappaZero, NotClosed,
                     SpencerKitError, StageError)
from .exactla import ExactMatrix, Subspace, rat, vec_is_zero
from .flatmodel import (build_extended_flat_model, compute_r_symmetry_algebra,
                        compute_schur_algebra, make_graded_subalgebra,
                        random_subspace, stabiliser_in_so)
from .reconstruct import (build_nomizu_map, curvature_at_origin,
                          reconstruction_certificate)
from .spencer import (Cochain22, FullModelCohomology, compute_cohomology,
                      restriction_kernel_report, spencer_complex)

STAGES = ("clifford", "dirac_current", "r_symmetry", "flat_model",
          "subalgebra", "cohomology", "admissibility", "theta",
          "deformation", "realisability", "reconstruction")

_SUBSPACE_KEYS = {"S_prime", "h", "r_prime"}


def _is_int(value) -> bool:
    """A JSON integer; booleans are not accepted as 0 and 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(raw: dict) -> dict:
    """Strict schema check; unknown keys are rejected; returns a canonical
    copy of the config."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"signature", "N", "dirac_current", "subalgebra", "cocycle",
               "checks", "seed", "output_path"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("signature", "N", "dirac_current", "subalgebra", "cocycle"):
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")
    sig = raw["signature"]
    if not (isinstance(sig, dict) and set(sig) == {"s", "t"}
            and all(_is_int(sig[k]) and sig[k] >= 0 for k in sig)):
        raise ConfigError("signature must be {\"s\": int>=0, \"t\": int>=0}")
    if sig["s"] + sig["t"] == 0:
        raise ConfigError("signature (0,0) has no vector space: s + t must "
                          "be at least 1")
    if not _is_int(raw["N"]) or raw["N"] < 1:
        raise ConfigError("N must be a positive integer")
    dc = raw["dirac_current"]
    if not isinstance(dc, dict) or dc.get("kind") not in ("standard",
                                                          "explicit"):
        raise ConfigError("dirac_current.kind must be standard or explicit")
    if dc["kind"] == "explicit" and "tensor" not in dc:
        raise ConfigError("explicit dirac_current needs a tensor")
    if set(dc) - {"kind", "tensor"}:
        raise ConfigError("unknown dirac_current keys")
    sub = raw["subalgebra"]
    if not isinstance(sub, dict) or set(sub) != _SUBSPACE_KEYS:
        raise ConfigError("subalgebra must define S_prime, h and r_prime")
    needs_seed = False
    sp = sub["S_prime"]
    if sp == "full":
        pass
    elif isinstance(sp, dict) and set(sp) == {"basis"}:
        pass
    elif isinstance(sp, dict) and set(sp) == {"random"} and \
            isinstance(sp["random"], dict) and \
            set(sp["random"]) == {"dim", "seed"}:
        if not _is_int(sp["random"]["dim"]):
            raise ConfigError("S_prime.random.dim must be an integer")
        if not _is_int(sp["random"]["seed"]):
            raise ConfigError("S_prime.random.seed must be an integer")
        needs_seed = True
    else:
        raise ConfigError("S_prime must be full, {basis: [...]} or "
                          "{random: {dim, seed}}")
    if sub["h"] not in ("full", "stabiliser") and not (
            isinstance(sub["h"], dict) and set(sub["h"]) == {"basis"}):
        raise ConfigError("h must be full, stabiliser or {basis: [...]}")
    if sub["r_prime"] not in ("full", "zero") and not (
            isinstance(sub["r_prime"], dict)
            and set(sub["r_prime"]) == {"basis"}):
        raise ConfigError("r_prime must be full, zero or {basis: [...]}")
    coc = raw["cocycle"]
    if coc != "zero" and not (
            isinstance(coc, dict) and
            (set(coc) == {"basis_element"} or set(coc) == {"coefficients"})):
        raise ConfigError("cocycle must be zero, {basis_element: i} or "
                          "{coefficients: [...]}")
    checks = raw.get("checks", list(STAGES))
    if not isinstance(checks, list) or \
            tuple(checks) != STAGES[:len(checks)] or not checks:
        raise ConfigError("checks must be a non-empty prefix of "
                          f"{list(STAGES)}")
    if needs_seed and "seed" not in raw:
        raise ConfigError("a top-level seed is mandatory when any random "
                          "subspace is requested")
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer")
    out = {
        "signature": {"s": sig["s"], "t": sig["t"]},
        "N": raw["N"],
        "dirac_current": dc,
        "subalgebra": sub,
        "cocycle": coc,
        "checks": list(checks),
        "seed": seed,
    }
    if "output_path" in raw:
        if not isinstance(raw["output_path"], str):
            raise ConfigError("output_path must be a string")
        out["output_path"] = raw["output_path"]
    return out


# ---------------------------------------------------------------------------
# the kept model
# ---------------------------------------------------------------------------

# The signature-level objects of the last config run in this process, by
# name, and under "key" the _signature_key they were built for.  Each object
# is stored only after its builder returns.
_KEPT: dict = {}


def _signature_key(config: dict) -> str:
    return canonical_json({name: config[name] for name in
                           ("signature", "N", "dirac_current")})


def _kept(name: str, build):
    """The kept object `name` of the current signature, built on first use."""
    obj = _KEPT.get(name)
    if obj is None:
        obj = _KEPT[name] = build()
    return obj


def _drop_complexes(model, keep=None) -> None:
    """Drop the Spencer complexes kept on `model`, except `keep`, and the
    cohomology reports kept on each.  A complex refers back to the model and
    its reports to it, so dropping both lets reference counting free them
    now, not at a later cyclic collection."""
    for key, cx in list(model.spencer_complexes.items()):
        if cx is not keep:
            cx.cohomology.clear()
            del model.spencer_complexes[key]


def clear_kept_model() -> None:
    """Empty the slot, so that the next run builds and certifies every
    signature-level object afresh.  The model's maximal subalgebra refers
    back to it, so it is dropped too."""
    if "model" in _KEPT:
        _drop_complexes(_KEPT["model"])
        _KEPT["model"].maximal_subalgebra = None
    _KEPT.clear()


class _Negative(Exception):
    """Internal control flow for mathematical-negative stage results."""

    def __init__(self, data):
        self.data = data


def run_pipeline(config: dict, on_stage=None) -> dict:
    """Execute the requested stage prefix and assemble the report.  After
    each stage, `on_stage(name, status, seconds)` is called when given."""
    config = validate_config(config)
    key = _signature_key(config)
    if _KEPT.get("key") != key:
        clear_kept_model()
        _KEPT["key"] = key
    checks = config["checks"]
    state: dict = {}
    stages = []
    result = "pass"
    try:
        for name in checks:
            t0 = time.monotonic()
            runner = _STAGE_RUNNERS[name]
            try:
                data = runner(config, state)
                status = "pass"
            except _Negative as neg:
                data = neg.data
                status = "negative"
            except ConfigError:
                raise
            except SpencerKitError as err:
                raise StageError(name, err) from err
            if on_stage is not None:
                on_stage(name, status, time.monotonic() - t0)
            stages.append({"name": name, "status": status, "data": data})
            if status == "negative":
                result = "negative"
                break
    finally:
        # the next run on this signature reuses the full model's degree-2
        # complex, with its reports and operators; the rest of this run's
        # complexes and subalgebra data go now
        fullco = _KEPT.get("fullco")
        if fullco is not None:
            fullco.clear_subalgebra_data()
        if "model" in _KEPT:
            _drop_complexes(_KEPT["model"],
                            fullco.complex if fullco is not None else None)
    report = {
        "version": __version__,
        "basis_version": BASIS_VERSION,
        "config_hash": config_hash(config),
        "convention": CONVENTION,
        "config": config,
        "stages": stages,
        "result": result,
    }
    return report


def report_bytes(report: dict) -> bytes:
    return (canonical_json(report) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# stage runners
# ---------------------------------------------------------------------------


def _stage_clifford(config, state):
    sig = Signature(config["signature"]["s"], config["signature"]["t"])
    rep = build_clifford_rep(sig, config["N"])
    state["sig"], state["rep"] = sig, rep
    return {"spinor_dim": rep.spinor_dim, "dim_V": rep.dim_v,
            "N": rep.N}


def _build_current(rep, dc):
    if dc["kind"] == "standard":
        return build_dirac_current(rep, "standard")
    comps = dc["tensor"]
    if not isinstance(comps, list) or \
            not all(isinstance(comp, list) for comp in comps):
        raise ConfigError("dirac_current.tensor must be a list of matrices")
    try:
        mats = [ExactMatrix.from_rows(
            [_rationals(row, "dirac_current.tensor row")
             for row in comp]) for comp in comps]
        return build_dirac_current(rep, mats)
    except DimensionMismatch as err:
        raise ConfigError(f"bad dirac_current.tensor: {err}") from err


def _stage_dirac_current(config, state):
    current = _kept("current", lambda: _build_current(
        state["rep"], config["dirac_current"]))
    state["current"] = current
    data = {"symmetry": current.symmetry,
            "rank": current.component_matrix().rank(),
            "surjective": current.surjective}
    if state["sig"].lorentzian and current.symmetry == "symmetric":
        # the probe depends on the signature, the current and its sampling,
        # so one is kept per (samples, seed) with the current
        probe = _kept(("causality_probe", 128, config["seed"]),
                      lambda: causality_probe(current, state["sig"],
                                              samples=128,
                                              seed=config["seed"]))
        data["causality_probe"] = probe.to_json()
    return data


def _stage_r_symmetry(config, state):
    schur = _kept("schur", lambda: compute_schur_algebra(state["rep"]))
    r_alg = _kept("r_alg", lambda: compute_r_symmetry_algebra(
        schur, state["current"]))
    state["r_alg"] = r_alg
    return {"schur_dim": schur.dim, "r_dim": r_alg.dim}


def _stage_flat_model(config, state):
    model = _kept("model", lambda: build_extended_flat_model(
        state["rep"], state["current"], state["r_alg"]))
    state["model"] = model
    return {"dims": model.dims, "jacobi": "pass",
            "odd_spinors": model.odd_spinors}


def _rationals(values, what: str) -> list:
    """A config list of exact rationals (ints or "p/q" strings)."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list, not {values!r}")
    out = []
    for v in values:
        if isinstance(v, bool):
            raise ConfigError(f"{what}: {v!r} is not a rational")
        try:
            out.append(rat(v))
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise ConfigError(f"{what}: bad entry {v!r}: {err}") from err
    return out


def _parse_subspace(spec, ambient: int, what: str) -> Subspace:
    if isinstance(spec, dict) and "basis" in spec:
        rows = spec["basis"]
        if not isinstance(rows, (list, tuple)):
            raise ConfigError(f"{what} basis must be a list of vectors")
        vectors = [_rationals(row, f"{what} basis vector") for row in rows]
        try:
            return Subspace.from_vectors(ambient, vectors)
        except DimensionMismatch as err:
            raise ConfigError(f"bad {what} basis (ambient dimension "
                              f"{ambient}): {err}") from err
    raise ConfigError(f"unsupported {what} spec {spec!r}")


def _stage_subalgebra(config, state):
    model = state["model"]
    spec = config["subalgebra"]
    sp = spec["S_prime"]
    if sp == "full":
        Sp = Subspace.full(model.dim_s)
    elif "random" in sp:
        try:
            Sp = random_subspace(model.dim_s, sp["random"]["dim"],
                                 sp["random"]["seed"])
        except DimensionMismatch as err:
            raise ConfigError(f"bad S_prime.random.dim: {err}") from err
    else:
        Sp = _parse_subspace(sp, model.dim_s, "S_prime")
    hspec = spec["h"]
    if hspec == "full":
        h = Subspace.full(model.dim_so)
    elif hspec == "stabiliser":
        h = stabiliser_in_so(model, Sp)
    else:
        h = _parse_subspace(hspec, model.dim_so, "h")
    rspec = spec["r_prime"]
    if rspec == "full":
        rp = Subspace.full(model.dim_r)
    elif rspec == "zero":
        rp = Subspace.trivial(model.dim_r)
    else:
        rp = _parse_subspace(rspec, model.dim_r, "r_prime")
    try:
        sub = make_graded_subalgebra(model, Subspace.full(model.dim_v),
                                     Sp, h, rp)
    except NotClosed as err:
        raise _Negative({"closed": False, "condition": err.condition})
    state["sub"] = sub
    return {"dims": sub.dims, "highly_susy": sub.highly_susy,
            "transitive": sub.transitive,
            "homogeneity_rank": sub.homogeneity_rank}


def _stage_cohomology(config, state):
    model, sub = state["model"], state["sub"]
    try:
        fullco = _kept("fullco", lambda: FullModelCohomology(model))
    except KappaZero as err:
        # the normalisation theory needs a section of kappa
        raise _Negative({"reason": "kappa_zero", "detail": str(err)})
    state["fullco"] = fullco
    sub_cx = spencer_complex(sub, 2)
    state["sub_cx"] = sub_cx
    co22 = compute_cohomology(sub_cx, 2)
    state["co22"] = co22
    # the a0-action on H, before the degree-4 complex is built
    invariant = co22.invariant_classes()
    state["invariant_classes"] = invariant
    data = {
        "normalised_space_dim": fullco.normalised_space.dim,
        "full_model_H22": {"bidegree": list(fullco.h22.bidegree),
                           "dimZ": fullco.h22.dim_z,
                           "dimB": fullco.h22.dim_b,
                           "dimH": fullco.h22.dim_h,
                           "representatives": "omitted"},
        # FullModelCohomology certified Z = B + N as a direct sum
        "normalisation_oracle_equal":
            fullco.normalised_space.dim == fullco.h22.dim_h,
        "splitting_r_equivariant": fullco.splitting.r_equivariant,
    }
    co21 = compute_cohomology(sub_cx, 1)
    co42 = compute_cohomology(spencer_complex(sub, 4), 2)
    data.update({
        "H21": {"dimZ": co21.dim_z, "dimB": co21.dim_b, "dimH": co21.dim_h},
        "H22": {"dimZ": co22.dim_z, "dimB": co22.dim_b, "dimH": co22.dim_h},
        "H42": {"dimZ": co42.dim_z, "dimB": co42.dim_b, "dimH": co42.dim_h},
        "invariant_H22_dim": len(invariant),
    })
    if sub.highly_susy:
        K = restriction_kernel_report(sub, fullco)
        data["restriction_kernel_dim"] = K.direct.dim
        data["restriction_kernel_istar_dim"] = K.via_istar.dim
        data["restriction_kernel_routes_agree"] = K.equal
    return data


def _resolve_cocycle(config, state) -> tuple:
    spec = config["cocycle"]
    sub = state["sub"]
    if spec == "zero":
        return zero_cocycle(sub)
    if "basis_element" in spec:
        classes = state["invariant_classes"]
        idx = spec["basis_element"]
        if not _is_int(idx):
            raise ConfigError(f"basis_element must be an integer, not "
                              f"{idx!r}")
        if not 0 <= idx < len(classes):
            raise ConfigError(
                f"basis_element {idx} out of range: the invariant part of "
                f"H22 has dimension {len(classes)}")
        return classes[idx]
    coeffs = _rationals(spec["coefficients"], "cocycle coefficients")
    cx = state["sub_cx"]
    if len(coeffs) != cx.layouts[2].dim:
        raise ConfigError("cocycle coefficient vector has the wrong length "
                          f"(expected {cx.layouts[2].dim})")
    if not Cochain22(cx, coeffs).is_cocycle():
        raise ConfigError("explicit coefficients do not satisfy the cocycle "
                          "conditions")
    return tuple(coeffs)


def _stage_admissibility(config, state):
    sub, fullco = state["sub"], state["fullco"]
    mu = _resolve_cocycle(config, state)
    outcome = check_admissibility(sub, mu, fullco)
    if isinstance(outcome, NotAdmissible):
        raise _Negative(outcome.to_json())
    state["datum"] = outcome
    return {"admissible": True,
            "r_prime_replaced": outcome.r_prime_replaced,
            "lambda_zero": vec_is_zero(outcome.lam)}


def _stage_theta(config, state):
    theta = compute_theta(state["datum"])
    return {"dirac_kernel_dim": theta.dirac_kernel_dim,
            "dirac_kernel_annihilated": theta.dirac_kernel_annihilated,
            "alternating": theta.alternating_verified,
            "second_relation": theta.second_relation_consistent,
            "theta_tilde_2_zero": theta.theta2_zero
            if theta.theta1 is not None else None,
            # check_admissibility certified the closed-form delta with one
            # product d(chi_X) = X.mu; d21 is injective, so it is the unique
            # solution
            "delta_dual_route": "pass"}


def _stage_deformation(config, state):
    datum = state["datum"]
    report = check_integrability(datum)
    if not report.passed:
        raise _Negative(report.to_json())
    deformation = build_filtered_deformation(datum)
    state["deformation"] = deformation
    return {"integrable": True,
            "theorem_checks": report.to_json()["theorem_checks"],
            "deformation": deformation.to_json()}


def _stage_realisability(config, state):
    datum = state["datum"]
    report = check_geometric_realisability(datum)
    data = report.to_json()
    sub = state["sub"]
    envelope = compute_envelope(state["fullco"], sub, datum.hat)
    data["envelope"] = envelope.to_json()
    data["deformation_report"] = deformation_report(
        datum, report, state.get("deformation"))
    if not report.realisable:
        raise _Negative(data)
    state["realisable_witness"] = report.witness
    return data


def _stage_reconstruction(config, state):
    # reconstruct from the gauge with lambda2 = 0; a datum already in it is
    # its own witness, and its deformation was built and certified already
    witness = state["realisable_witness"]
    deformation_w = (state["deformation"] if witness is state["datum"]
                     else build_filtered_deformation(witness))
    nomizu = build_nomizu_map(deformation_w)
    curvature = curvature_at_origin(deformation_w, nomizu)
    cert = reconstruction_certificate(deformation_w, nomizu, curvature)
    if not cert["F0_zero"]:
        raise StageError("reconstruction",
                         SpencerKitError("realisable input has nonzero F0"))
    return cert


_STAGE_RUNNERS = {
    "clifford": _stage_clifford,
    "dirac_current": _stage_dirac_current,
    "r_symmetry": _stage_r_symmetry,
    "flat_model": _stage_flat_model,
    "subalgebra": _stage_subalgebra,
    "cohomology": _stage_cohomology,
    "admissibility": _stage_admissibility,
    "theta": _stage_theta,
    "deformation": _stage_deformation,
    "realisability": _stage_realisability,
    "reconstruction": _stage_reconstruction,
}
