"""One benchmark repetition, run by run.py in a fresh interpreter.

The library keeps process-global caches (`cliffspin._base_rep`,
`_spin_generators_cached`), so every repetition gets its own process.  The
child imports spencerkit from the checkout's `src`, writes the workload's
configs into its working directory and notes the (system-wide monotonic)
time at which it is ready; run.py subtracts the time it started the
process to get the set-up time.  It then calls `spencerkit.cli.main`
in-process for each config, `PASSES[workload]` times over, with stdout and
stderr captured, and writes `result.json`:

  t_ready      monotonic time when spencerkit was imported and the configs
               were written
  records      one per call: name, pass, exit code, wall and CPU seconds,
               SHA-256 of the output bytes (the report file for `run`, the
               captured stdout for `cohomology`), per-stage digests of the
               report, whether the CLI said it served a cache hit, and the
               last line of its stderr
  peak_rss_kb  peak resident memory of this process
  layers       per-layer metrics when traced

Numbers come from the clocks here, never from the CLI's rounded stage
prints.  The cache directory comes from SPENCERKIT_CACHE_DIR, which run.py
points at a fresh directory per repetition.

Usage: child.py --workload NAME --seed N --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("utf-8")


def _stage_digests(blob: bytes):
    report = json.loads(blob.decode("utf-8"))
    return [[stage["name"], stage["status"],
             hashlib.sha256(_canonical(stage["data"])).hexdigest()[:16]]
            for stage in report["stages"]]


def _call(main, call):
    """Run one CLI call; returns its record."""
    report_path = call.config.get("output_path")
    if report_path and os.path.exists(report_path):
        os.unlink(report_path)
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(call.argv)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if call.command == "run":
        blob = None
        if os.path.exists(report_path):
            with open(report_path, "rb") as fh:
                blob = fh.read()
    else:
        blob = out.getvalue().encode("utf-8")
    stderr = err.getvalue()
    return {
        "name": call.name,
        "exit": code,
        "wall": wall,
        "cpu": cpu,
        "sha256": hashlib.sha256(blob).hexdigest() if blob else None,
        "bytes": len(blob) if blob else 0,
        "stages": _stage_digests(blob)
        if blob and call.command == "run" else None,
        "cache_hit": "[spencerkit] cache hit" in stderr,
        "stderr_tail": (stderr.strip().splitlines() or [""])[-1],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spencerkit import cli

    calls = workloads.calls(args.workload, args.seed)
    for call in calls:
        with open(call.name + ".json", "w", encoding="utf-8") as fh:
            json.dump(call.config, fh)
    result = {"t_ready": time.monotonic()}
    if not args.setup_only:
        cache_dir = os.environ["SPENCERKIT_CACHE_DIR"]
        if os.path.exists(cache_dir) and os.listdir(cache_dir):
            raise SystemExit(f"cache directory {cache_dir} is not empty")
        tracer = None
        entry = cli.main
        if args.trace:
            from tracer import ROOT_SPAN, Tracer
            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT_SPAN, cli.main)
        records = []
        for n in range(workloads.PASSES[args.workload]):
            for call in calls:
                records.append(dict(_call(entry, call), **{"pass": n}))
        result["records"] = records
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(
                sum(r["bytes"] for r in records))
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
