"""spencerkit benchmark: end-to-end timings and an outside-in layer trace.

Usage, from the root of a checkout:

  python3 bench/run.py --workload grid312|coh411|sweep_small --seed N
                       --seconds S --trace 0|1

Each repetition runs the workload's CLI calls in a fresh interpreter
(bench/child.py), one child at a time, with a fresh SPENCERKIT_CACHE_DIR
under `.bench_work/`; a closed loop with a single client.  Repetitions
continue while another one fits in `--seconds`, with at least two.  A few
set-up-only children add samples for `setup_s`.  Every output is checked
against the recorded expectations in golden.json.

With `--trace 0` the last line reports the end-to-end metrics (medians over
the repetitions); with `--trace 1` untraced and traced repetitions
alternate and it reports the per-layer metrics of the traced ones.  The
lines before it print every metric by name with its unit, and the failed
share.  Exit code 0 when the measurement completed (the JSON line says
whether the outputs were correct), 2 when the program or a child could not
run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracer import PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

SETUP_PROBES = 8
MIN_REPS = 2
# The whole run must end within 180 s; no repetition starts that is not
# expected to end before this.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one child to completion; returns its result with `setup_s`."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        env = dict(os.environ,
                   SPENCERKIT_CACHE_DIR=os.path.join(workdir, "cache"),
                   PYTHONHASHSEED="0")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        log_path = os.path.join(workdir, "child.log")
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0,
                                             deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} repetition ran past the "
                                 "time limit")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(log_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{workload} child exited {code}:\n{tail}")
        with open(os.path.join(workdir, "result.json"), "r",
                  encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - start
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _first_bad_stage(record: dict, expected: dict) -> str:
    if record["exit"] == 3 or record["stages"] is None:
        return record["stderr_tail"]
    got = record["stages"]
    want = expected.get("stages") or []
    for i, stage in enumerate(got):
        if i >= len(want) or stage != want[i]:
            return f"stage {stage[0]!r}"
    return "stage list shorter than expected" if len(want) > len(got) \
        else "report envelope"


def check(workload: str, seed: int, reps: list, golden: dict):
    """(attempted, failed, problems) over every call of every repetition.

    A call fails when it ends in exit 3 or differs from the expectation.
    Exit codes are checked on every seed; report digests on the default
    seed, and on any seed for configs that do not depend on it.  On a
    two-pass workload the second pass must serve every stored report from
    the cache with the same bytes, and the first pass must see no hits.
    """
    seeded = {c.name: c.seeded for c in workloads.calls(workload, seed)}
    expected = golden[workload]
    attempted = failed = 0
    problems = []
    for rep in reps:
        first = {}
        for rec in rep["records"]:
            attempted += 1
            want = expected[rec["name"]]
            where = f"{workload}/{rec['name']} pass {rec['pass'] + 1}"
            bad = None
            if rec["exit"] != want["exit"]:
                bad = (f"exit {rec['exit']}, expected {want['exit']}: "
                       f"{_first_bad_stage(rec, want)}")
            elif (seed == workloads.DEFAULT_SEED or not seeded[rec["name"]]) \
                    and rec["sha256"] != want["sha256"]:
                bad = f"output digest differs at {_first_bad_stage(rec, want)}"
            if rec["pass"] == 0:
                first[rec["name"]] = rec
                if rec["cache_hit"]:
                    bad = bad or "cache hit on the first pass"
            else:
                ref = first[rec["name"]]
                if (rec["exit"], rec["sha256"]) != (ref["exit"],
                                                    ref["sha256"]):
                    bad = bad or "second pass differs from the first"
                if rec["cache_hit"] != (ref["sha256"] is not None):
                    bad = bad or "cache hit expected iff a report was stored"
            if bad:
                problems.append(f"MISMATCH {where}: {bad}")
            if bad or rec["exit"] == 3:
                failed += 1
    return attempted, failed, problems


def _wall(rep: dict) -> float:
    return sum(r["wall"] for r in rep["records"])


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Run the repetitions; returns (untraced reps, traced reps, setup
    samples)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups = [spawn(workload, seed, False, deadline, setup_only=True)
              ["setup_s"] for _ in range(SETUP_PROBES)]
    reps, traced = [], []
    loop_start = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, False, deadline))
        if trace:
            traced.append(spawn(workload, seed, True, deadline))
        now = time.monotonic()
        per_rep = (now - loop_start) / len(reps)
        if now + per_rep > deadline:
            break
        if now + per_rep - loop_start > seconds and \
                (trace or len(reps) >= MIN_REPS):
            break
    setups += [r["setup_s"] for r in reps + traced]
    return reps, traced, setups


def end_to_end(reps: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(_wall(r) for r in reps),
        "cpu_s": statistics.median(sum(x["cpu"] for x in r["records"])
                                   for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                         for r in reps),
    }


def per_layer(reps: list, traced: list) -> dict:
    out = {name: statistics.median(t["layers"][name] for t in traced)
           for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (
        statistics.median(_wall(t) for t in traced)
        / statistics.median(_wall(r) for r in reps) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # a terminated run still stops its child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "spencerkit", "cli.py")):
        print(f"no spencerkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    try:
        reps, traced, setups = measure(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    with contextlib.suppress(OSError):
        os.rmdir(WORK_DIR)
    attempted, failed, problems = check(args.workload, args.seed,
                                        reps + traced, golden)
    for line in problems:
        print(line, file=sys.stderr)
    if args.trace:
        values = per_layer(reps, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(reps, setups)
        units = dict(END_TO_END)
    print(f"# {args.workload} seed={args.seed}: {len(reps)} untraced and "
          f"{len(traced)} traced repetitions, {len(setups)} set-up samples")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4f} (exit 3 or differing output)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
