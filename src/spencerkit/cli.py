"""Command line interface.

Exit codes: 0 all stages pass; 1 mathematical negative (for example an
inadmissible class); 2 configuration error; 3 internal certificate failure,
which always indicates an implementation bug.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import (cache_list, cache_lookup, cache_remove, cache_store,
                    config_hash)
from .errors import ConfigError, SpencerKitError, StageError
from .pipeline import (STAGES, clear_kept_model, report_bytes, run_pipeline,
                       validate_config)

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}")


def _emit(report: dict, blob: bytes, config: dict) -> None:
    path = config.get("output_path")
    if path:
        with open(path, "wb") as fh:
            fh.write(blob)
        print(f"[spencerkit] report written to {path}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(blob)


def _run(args) -> int:
    config = validate_config(_load_json(args.config))
    key = config_hash(config)
    if not args.no_cache:
        cached = cache_lookup(key)
        if cached is not None:
            print(f"[spencerkit] cache hit {key[:12]}", file=sys.stderr)
            report = json.loads(cached.decode("utf-8"))
            _emit(report, cached, config)
            return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE
    report = run_pipeline(config)
    blob = report_bytes(report)
    if not args.no_cache:
        cache_store(key, blob)
    _emit(report, blob, config)
    return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE


def _cohomology(args) -> int:
    raw = _load_json(args.config)
    raw["checks"] = list(STAGES[:STAGES.index("cohomology") + 1])
    raw.pop("output_path", None)
    config = validate_config(raw)
    report = run_pipeline(config)
    stage = next(s for s in report["stages"] if s["name"] == "cohomology")
    sys.stdout.write(json.dumps(stage["data"], sort_keys=True, indent=2)
                     + "\n")
    return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE


def _verify(args) -> int:
    stored = _load_json(args.report)
    if "config" not in stored:
        raise ConfigError("report carries no config to re-run")
    config = validate_config(stored["config"])
    # a model kept from an earlier run would skip its certificates
    clear_kept_model()
    report = run_pipeline(config)
    fresh = report_bytes(report)
    with open(args.report, "rb") as fh:
        original = fh.read()
    if fresh == original:
        print("verify: PASS (byte-identical re-run, all certificates "
              "re-checked)")
        return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE
    print("verify: FAIL (re-run differs from the stored report)")
    return EXIT_INTERNAL


def _cache(args) -> int:
    if args.action == "ls":
        for key in cache_list():
            print(key)
        return EXIT_PASS
    if args.key is None and not args.all:
        print("cache rm needs a key or --all", file=sys.stderr)
        return EXIT_CONFIG
    removed = cache_remove(None if args.all else args.key)
    print(f"removed {removed} file(s)", file=sys.stderr)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spencerkit",
        description="Exact computations with extended flat model "
                    "superalgebras, their Spencer cohomology and filtered "
                    "deformations.")
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="run the pipeline on a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the report cache")
    p_run.set_defaults(func=_run)
    p_coh = subs.add_parser("cohomology",
                            help="run through the cohomology stage and "
                                 "print its data")
    p_coh.add_argument("config")
    p_coh.set_defaults(func=_cohomology)
    p_ver = subs.add_parser("verify",
                            help="re-run all certificates for a report")
    p_ver.add_argument("report")
    p_ver.set_defaults(func=_verify)
    p_cache = subs.add_parser("cache", help="inspect or clear the cache")
    p_cache.add_argument("action", choices=("ls", "rm"))
    p_cache.add_argument("key", nargs="?")
    p_cache.add_argument("--all", action="store_true")
    p_cache.set_defaults(func=_cache)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as err:
        print(f"internal certificate failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except SpencerKitError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
