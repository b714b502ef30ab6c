"""Command line interface.

Exit codes: 0 all stages pass; 1 mathematical negative (for example an
inadmissible class); 2 configuration error; 3 internal certificate failure,
which always indicates an implementation bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

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
    """The JSON object a config or report file holds; any other file is a
    config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object, not "
                          f"{type(data).__name__}")
    return data


def _print_stage(name: str, status: str, seconds: float) -> None:
    print(f"[spencerkit] stage {name}: {status} ({seconds:.2f}s)",
          file=sys.stderr)


def _first_difference(old, new, path: str):
    """The key path of the first place where two JSON values differ, keys
    in sorted order as in the canonical report, or None when equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                return where
            found = _first_difference(old[key], new[key], where)
            if found is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip(old, new)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        if len(old) != len(new):
            return f"{path}[{min(len(old), len(new))}]"
        return None
    return None if old == new and type(old) is type(new) else path


def _where_differs(stored: dict, fresh: dict) -> str:
    """The first stage whose name, status or data differs, with the key path
    inside it, else the first differing key path of the report."""
    stages = stored.get("stages")
    if isinstance(stages, list):
        for old, new in zip(stages, fresh["stages"]):
            if not isinstance(old, dict):
                return f"stage {new['name']!r}"
            for field in ("name", "status", "data"):
                found = _first_difference(old.get(field), new[field], field)
                if found is not None:
                    return f"stage {new['name']!r}: {found}"
    found = _first_difference(stored, fresh, "")
    return "formatting only" if found is None else f"report: {found}"


def _check_output_path(config: dict) -> None:
    """A config error, raised before any stage runs, when the report could
    not be written to output_path: it names a directory, or its directory
    does not exist."""
    path = config.get("output_path")
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"output_path {path} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"output_path {path}: no directory {parent}")


def _emit(report: dict, blob: bytes, config: dict) -> None:
    path = config.get("output_path")
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as err:
            raise ConfigError(f"cannot write the report to {path}: "
                              f"{err.strerror or err}") from err
        print(f"[spencerkit] report written to {path}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(blob)


def _run(args) -> int:
    config = validate_config(_load_json(args.config))
    _check_output_path(config)
    key = config_hash(config)
    if not args.no_cache:
        cached = cache_lookup(key)
        if cached is not None:
            print(f"[spencerkit] cache hit {key[:12]}", file=sys.stderr)
            report = json.loads(cached.decode("utf-8"))
            _emit(report, cached, config)
            return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE
    report = run_pipeline(config, _print_stage)
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
    report = run_pipeline(config, _print_stage)
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
    report = run_pipeline(config, _print_stage)
    fresh = report_bytes(report)
    with open(args.report, "rb") as fh:
        original = fh.read()
    if fresh == original:
        print("verify: PASS (byte-identical re-run, all certificates "
              "re-checked)")
        return EXIT_PASS if report["result"] == "pass" else EXIT_NEGATIVE
    where = _where_differs(stored, json.loads(fresh.decode("utf-8")))
    print(f"verify: FAIL (re-run differs from the stored report at "
          f"{where})")
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to main and shared by
    every later one in the process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
