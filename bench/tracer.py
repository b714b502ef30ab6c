"""Outside-in layer tracer for the spencerkit benchmark.

The library is not edited.  `Tracer.install` wraps the traced functions and
methods listed below with timing spans.  Many library functions are imported
by name into other modules (`pipeline` binds its own `compute_cohomology`,
`deform` its own `solve_affine`), so every alias that any `spencerkit.*`
namespace binds to a traced function is rebound to the wrapper, including
the values of dicts held in module globals (the pipeline's stage table).
Methods are wrapped on their class.

Spans nest through a stack: each open span accumulates the time of its
children, so a span's self time is its duration minus the time its child
spans cover.  Bookkeeping in the hooks (memo checks, bit sizes, distinct
keys) runs on a paused clock and is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

STAGES = ("clifford", "dirac_current", "r_symmetry", "flat_model",
          "subalgebra", "cohomology", "admissibility", "theta",
          "deformation", "realisability", "reconstruction")

# (module, attribute, span name) of traced module-level functions.
TRACED_FUNCTIONS = (
    ("spencerkit.exactla", "solve_affine", "exactla.solve_affine"),
    ("spencerkit.cliffspin", "build_dirac_current",
     "cliffspin.build_dirac_current"),
    ("spencerkit.cliffspin", "causality_probe", "cliffspin.causality_probe"),
    ("spencerkit.flatmodel", "build_extended_flat_model",
     "flatmodel.build_extended_flat_model"),
    ("spencerkit.flatmodel", "make_graded_subalgebra",
     "flatmodel.make_graded_subalgebra"),
    ("spencerkit.spencer", "build_spencer_complex",
     "spencer.build_spencer_complex"),
    ("spencerkit.spencer", "compute_cohomology", "spencer.compute_cohomology"),
    ("spencerkit.deform", "check_admissibility", "deform.check_admissibility"),
    ("spencerkit.deform", "solve_delta", "deform.solve_delta"),
    ("spencerkit.deform", "compute_theta", "deform.compute_theta"),
    ("spencerkit.deform", "check_integrability", "deform.check_integrability"),
    ("spencerkit.deform", "build_filtered_deformation",
     "deform.build_filtered_deformation"),
    ("spencerkit.deform", "check_geometric_realisability",
     "deform.check_geometric_realisability"),
    ("spencerkit.deform", "compute_envelope", "deform.compute_envelope"),
    ("spencerkit.reconstruct", "build_nomizu_map",
     "reconstruct.build_nomizu_map"),
    ("spencerkit.reconstruct", "curvature_at_origin",
     "reconstruct.curvature_at_origin"),
    ("spencerkit.reconstruct", "reconstruction_certificate",
     "reconstruct.reconstruction_certificate"),
    ("spencerkit.cache", "cache_lookup", "cache.lookup"),
    ("spencerkit.cache", "cache_store", "cache.store"),
    # spans without a metric of their own; they cover the CLI call's work
    # outside the stages, for trace.uncovered_frac
    ("spencerkit.pipeline", "validate_config", "pipeline.validate_config"),
    ("spencerkit.pipeline", "report_bytes", "pipeline.report_bytes"),
    ("spencerkit.cli", "_emit", "cli.emit"),
)

# (module, class, attribute, span name) of traced methods.
TRACED_METHODS = (
    ("spencerkit.exactla", "ExactMatrix", "_rref_data", "exactla.rref"),
    ("spencerkit.exactla", "ExactMatrix", "__matmul__", "exactla.matmul"),
    ("spencerkit.spencer", "FullModelCohomology", "__init__",
     "spencer.full_model_cohomology"),
)

ROOT_SPAN = "cli.main"

# Per-layer metrics: (name, unit, better).  Times named after a span are
# self times, except the stage spans and solve_affine, which are inclusive.
PER_LAYER = (
    [(f"pipeline.stage.{stage}_s", "s", "lower") for stage in STAGES] + [
        ("exactla.rref_calls", "count", "lower"),
        ("exactla.rref_elims", "count", "lower"),
        ("exactla.rref_memo_hit_ratio", "ratio", "higher"),
        ("exactla.rref_cells", "count", "lower"),
        ("exactla.rref_s", "s", "lower"),
        ("exactla.rref_max_bits", "bits", "lower"),
        ("exactla.solve_affine_calls", "count", "lower"),
        ("exactla.solve_affine_s", "s", "lower"),
        ("exactla.matmul_calls", "count", "lower"),
        ("exactla.matmul_s", "s", "lower"),
        ("cliffspin.build_dirac_current_s", "s", "lower"),
        ("cliffspin.causality_probe_s", "s", "lower"),
        ("flatmodel.build_extended_flat_model_s", "s", "lower"),
        ("flatmodel.make_graded_subalgebra_s", "s", "lower"),
        ("flatmodel.model_builds", "count", "lower"),
        ("flatmodel.model_distinct", "count", "lower"),
        ("spencer.complex_builds", "count", "lower"),
        ("spencer.complex_distinct", "count", "lower"),
        ("spencer.build_spencer_complex_s", "s", "lower"),
        ("spencer.compute_cohomology_s", "s", "lower"),
        ("spencer.full_model_cohomology_s", "s", "lower"),
    ] + [(f"deform.{fn}_s", "s", "lower") for fn in (
        "check_admissibility", "solve_delta", "compute_theta",
        "check_integrability", "build_filtered_deformation",
        "check_geometric_realisability", "compute_envelope")] +
    [(f"reconstruct.{fn}_s", "s", "lower") for fn in (
        "build_nomizu_map", "curvature_at_origin",
        "reconstruction_certificate")] + [
        ("cache.lookups", "count", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.stores", "count", "lower"),
        ("cache.lookup_s", "s", "lower"),
        ("cache.store_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.uncovered_frac", "ratio", "lower"),
    ])


class SpanStats:
    __slots__ = ("calls", "total", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # inclusive time
        self.children = 0.0   # time covered by direct child spans

    @property
    def self_time(self) -> float:
        return self.total - self.children


def _model_key(model) -> tuple:
    rep = model.rep
    return (rep.signature.s, rep.signature.t, rep.N, model.current.components)


def _max_bits(rows) -> int:
    bits = 0
    for row in rows:
        for v in row.values():
            bits = max(bits, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters for the traced layers of one process.

    Every span is kept in memory as (id, parent id, name, start, end) in
    `spans`; `stats` aggregates them per name.
    """

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.counters = defaultdict(int)
        self.spans = []
        self._stack = []        # [span id, child time] of the open spans
        self._paused = 0.0
        self._next_id = 0
        self._complexes = set()
        self._models = set()
        self._restore = []      # (setter, original) to undo install()
        self.originals = {}     # id(original) -> original

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _off_clock(self, hook, *args):
        t0 = time.perf_counter()
        try:
            return hook(*args)
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, name: str, fn, before=None, after=None):
        """A spanned version of fn.  `before(args, kwargs)` returns a token
        handed to `after(args, kwargs, result, token)`; both run off the
        clock."""
        stats, stack, spans = self.stats[name], self._stack, self.spans
        now, off_clock = self.now, self._off_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = off_clock(before, args, kwargs) if before else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dt = t1 - t0
                stats.calls += 1
                stats.total += dt
                stats.children += frame[1]
                if stack:
                    stack[-1][1] += dt
                spans.append((span_id, stack[-1][0] if stack else None,
                              name, t0, t1))
            if after:
                off_clock(after, args, kwargs, result, token)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _rref_before(self, args, kwargs):
        matrix = args[0]
        return matrix._rref is None, matrix.rows * matrix.cols

    def _rref_after(self, args, kwargs, result, token):
        fresh, cells = token
        if fresh:
            self.counters["rref_elims"] += 1
            self.counters["rref_cells"] += cells
            self.counters["rref_max_bits"] = max(
                self.counters["rref_max_bits"], _max_bits(result[0]._rows))

    def _complex_after(self, bound_signature):
        def after(args, kwargs, result, token):
            bound = bound_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sub = bound.arguments["subalgebra"]
            self._complexes.add((_model_key(sub.model), sub.Vp, sub.Sp,
                                 sub.h, sub.rp, bound.arguments["degree"],
                                 bound.arguments["values"]))
        return after

    def _model_after(self, args, kwargs, result, token):
        self._models.add(_model_key(result))

    def _lookup_after(self, args, kwargs, result, token):
        if result is not None:
            self.counters["cache_hits"] += 1

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method and rebind every alias in
        the `spencerkit.*` namespaces."""
        pipeline = importlib.import_module("spencerkit.pipeline")
        importlib.import_module("spencerkit.cli")
        hooks = {
            "exactla.rref": (self._rref_before, self._rref_after),
            "flatmodel.build_extended_flat_model": (None, self._model_after),
            "cache.lookup": (None, self._lookup_after),
        }
        by_id = {}
        for module, attr, name in TRACED_FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            before, after = hooks.get(name, (None, None))
            if name == "spencer.build_spencer_complex":
                after = self._complex_after(inspect.signature(fn))
            by_id[id(fn)] = (fn, self.wrap(name, fn, before, after))
        for stage, fn in pipeline._STAGE_RUNNERS.items():
            by_id[id(fn)] = (fn, self.wrap(f"pipeline.stage.{stage}", fn))
        for module, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            self._rebind(cls, attr, fn, self.wrap(name, fn, before, after))
        for fn, _ in by_id.values():
            self.originals[id(fn)] = fn
        for module_name, module in list(sys.modules.items()):
            if module_name != "spencerkit" and \
                    not module_name.startswith("spencerkit."):
                continue
            for key, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, key, value, hit[1])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        hit = by_id.get(id(dvalue))
                        if hit is not None and hit[0] is dvalue:
                            value[dkey] = hit[1]
                            self._restore.append(
                                (functools.partial(value.__setitem__, dkey),
                                 dvalue))

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self.originals[id(original)] = original
        setattr(owner, attr, wrapper)
        self._restore.append((functools.partial(setattr, owner, attr),
                              original))

    def uninstall(self) -> None:
        for setter, original in reversed(self._restore):
            setter(original)
        self._restore.clear()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, report_bytes: int) -> dict:
        """Every per-layer metric except trace.overhead_frac, which needs
        the untraced runs."""
        stats, counters = self.stats, self.counters

        def self_s(name):
            return stats[name].self_time if name in stats else 0.0

        def calls(name):
            return stats[name].calls if name in stats else 0

        def total(name):
            return stats[name].total if name in stats else 0.0

        rref_calls = calls("exactla.rref")
        out = {f"pipeline.stage.{stage}_s": total(f"pipeline.stage.{stage}")
               for stage in STAGES}
        out.update({
            "exactla.rref_calls": rref_calls,
            "exactla.rref_elims": counters["rref_elims"],
            "exactla.rref_memo_hit_ratio":
                (rref_calls - counters["rref_elims"]) / rref_calls
                if rref_calls else 0.0,
            "exactla.rref_cells": counters["rref_cells"],
            "exactla.rref_s": self_s("exactla.rref"),
            "exactla.rref_max_bits": counters["rref_max_bits"],
            "exactla.solve_affine_calls": calls("exactla.solve_affine"),
            "exactla.solve_affine_s": total("exactla.solve_affine"),
            "exactla.matmul_calls": calls("exactla.matmul"),
            "exactla.matmul_s": self_s("exactla.matmul"),
            "flatmodel.model_builds":
                calls("flatmodel.build_extended_flat_model"),
            "flatmodel.model_distinct": len(self._models),
            "spencer.complex_builds": calls("spencer.build_spencer_complex"),
            "spencer.complex_distinct": len(self._complexes),
            "cache.lookups": calls("cache.lookup"),
            "cache.hits": counters["cache_hits"],
            "cache.stores": calls("cache.store"),
            "cache.lookup_s": self_s("cache.lookup"),
            "cache.store_s": self_s("cache.store"),
            "cli.report_bytes": report_bytes,
        })
        for name in ("cliffspin.build_dirac_current",
                     "cliffspin.causality_probe",
                     "flatmodel.build_extended_flat_model",
                     "flatmodel.make_graded_subalgebra",
                     "spencer.build_spencer_complex",
                     "spencer.compute_cohomology",
                     "spencer.full_model_cohomology"):
            out[name + "_s"] = self_s(name)
        for module, attr, name in TRACED_FUNCTIONS:
            if module in ("spencerkit.deform", "spencerkit.reconstruct"):
                out[name + "_s"] = self_s(name)
        root = stats[ROOT_SPAN]
        out["trace.uncovered_frac"] = \
            1.0 - root.children / root.total if root.total else 0.0
        return out
