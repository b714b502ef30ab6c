"""Self-tests of the benchmark: tracer wiring, span nesting, metric lists and
the output checks.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _bindings():
    """(where, value) for every name a spencerkit namespace binds, the values
    of dicts it holds, and the attributes of the classes it defines."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "spencerkit" and \
                not module_name.startswith("spencerkit."):
            continue
        for key, value in vars(module).items():
            if key == "__builtins__":
                continue
            yield f"{module_name}.{key}", value
            if isinstance(value, dict):
                for dkey, dvalue in value.items():
                    yield f"{module_name}.{key}[{dkey!r}]", dvalue
            if isinstance(value, type) and value.__module__ == module_name:
                for akey, avalue in vars(value).items():
                    yield f"{module_name}.{key}.{akey}", avalue


def _unwrapped(originals):
    return [where for where, value in _bindings()
            if id(value) in originals and originals[id(value)] is value]


def test_install_rebinds_every_alias(installed):
    assert len(installed.originals) == (len(tracer.TRACED_FUNCTIONS)
                                        + len(tracer.STAGES)
                                        + len(tracer.TRACED_METHODS))
    assert _unwrapped(installed.originals) == []
    # names bound in more than one namespace are all rebound
    from spencerkit import deform, exactla, pipeline, spencer
    assert pipeline.compute_cohomology is spencer.compute_cohomology
    assert deform.solve_affine is exactla.solve_affine
    assert hasattr(exactla.solve_affine, "__wrapped__")


def test_uninstall_restores_originals():
    t = tracer.Tracer()
    t.install()
    originals = dict(t.originals)
    t.uninstall()
    left = {id(value) for _, value in _bindings()}
    assert all(key in left for key in originals)


def _smoke_run(installed, tmp_path, monkeypatch):
    from spencerkit import cli
    monkeypatch.setenv("SPENCERKIT_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    call = workloads.Call("smoke", "run",
                          workloads.maximal_config(2, 1, 1, "smoke.out"),
                          seeded=False)
    (tmp_path / "smoke.json").write_text(json.dumps(call.config))
    main = installed.wrap(tracer.ROOT_SPAN, cli.main)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(call.argv) == 0
        assert main(call.argv) == 0     # served from the cache
    return installed.layer_metrics((tmp_path / "smoke.out").stat().st_size)


def test_smoke_211_reports_every_metric(installed, tmp_path, monkeypatch):
    metrics = _smoke_run(installed, tmp_path, monkeypatch)
    names = [name for name, _, _ in tracer.PER_LAYER]
    assert sorted(metrics) == sorted(set(names) - {"trace.overhead_frac"})
    assert all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
               for v in metrics.values())
    for stage in tracer.STAGES:
        assert metrics[f"pipeline.stage.{stage}_s"] > 0
    assert 0 < metrics["exactla.rref_elims"] <= metrics["exactla.rref_calls"]
    assert metrics["exactla.rref_cells"] > 0
    assert metrics["exactla.rref_max_bits"] > 0
    assert metrics["flatmodel.model_builds"] == 1
    assert metrics["spencer.complex_builds"] >= \
        metrics["spencer.complex_distinct"] > 0
    assert (metrics["cache.lookups"], metrics["cache.hits"],
            metrics["cache.stores"]) == (2, 1, 1)
    assert metrics["cli.report_bytes"] > 0
    assert metrics["trace.uncovered_frac"] < 0.5


def test_spans_nest_and_self_within_inclusive(installed, tmp_path,
                                              monkeypatch):
    _smoke_run(installed, tmp_path, monkeypatch)
    spans = {sid: (parent, name, start, end)
             for sid, parent, name, start, end in installed.spans}
    assert any(parent is not None for parent, _, _, _ in spans.values())
    for parent, name, start, end in spans.values():
        assert start <= end
        if parent is not None:
            _, _, pstart, pend = spans[parent]
            assert pstart <= start and end <= pend, name
    for name, stats in installed.stats.items():
        assert -1e-9 <= stats.self_time <= stats.total + 1e-9, name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(tracer.PER_LAYER)


def test_golden_covers_every_call():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for workload in workloads.WORKLOADS:
        names = [c.name for c in workloads.calls(workload,
                                                 workloads.DEFAULT_SEED)]
        assert sorted(golden[workload]) == sorted(names)


def test_sweep_inputs_follow_the_seed():
    first = workloads.calls("sweep_small", 1)
    assert first == workloads.calls("sweep_small", 1)
    assert first != workloads.calls("sweep_small", 2)
    assert [c.name for c in first] == \
        [c.name for c in workloads.calls("sweep_small", 2)]
    assert workloads.calls("grid312", 1) == workloads.calls("grid312", 2)


def _record(name, exit_code, sha, n=0, hit=False):
    return {"name": name, "pass": n, "exit": exit_code, "sha256": sha,
            "stages": None, "cache_hit": hit, "stderr_tail": ""}


def test_check_counts_defects_and_flags_mismatches():
    seed = workloads.DEFAULT_SEED
    names = [c.name for c in workloads.calls("sweep_small", seed)]
    good, bad, crash = names[0], names[1], names[2]
    golden = {"sweep_small": {good: {"exit": 0, "sha256": "a"},
                              bad: {"exit": 0, "sha256": "b"},
                              crash: {"exit": 3, "sha256": None}}}
    records = [_record(good, 0, "a"), _record(bad, 0, "x"),
               _record(crash, 3, None),
               _record(good, 0, "a", 1, hit=True),
               _record(bad, 0, "x", 1, hit=True),
               _record(crash, 3, None, 1)]
    attempted, failed, problems = run.check(
        "sweep_small", seed, [{"records": records}], golden)
    assert attempted == 6
    assert failed == 4      # exit 3 twice, the differing digest twice
    assert len(problems) == 2 and all(bad in p for p in problems)
    # a first-pass cache hit and a differing second pass are flagged
    records[0]["cache_hit"] = True
    records[3]["sha256"] = "z"
    _, _, problems = run.check("sweep_small", seed, [{"records": records}],
                               golden)
    assert sum(good in p for p in problems) == 2
