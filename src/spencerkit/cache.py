"""Content-addressed cache of pipeline reports.

Cache key: SHA-256 of the canonical config JSON, the engine version and the
frozen cochain-basis version.  Reports are stored byte-for-byte next to a
checksum file; a checksum mismatch is treated as a miss with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
from typing import Optional

from . import BASIS_VERSION, __version__
from .errors import ConfigError

# the form config_hash produces: a key names a file in the cache directory
# and nothing outside it
_KEY = re.compile(r"[0-9a-f]{64}")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def config_hash(config: dict) -> str:
    preimage = "\x00".join([canonical_json(config), __version__,
                            BASIS_VERSION])
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


def cache_dir() -> str:
    env = os.environ.get("SPENCERKIT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "spencerkit")


def _paths(key: str):
    """The report and checksum paths of a key; a config error when the
    cache directory is an existing file or other non-directory."""
    if not _KEY.fullmatch(key):
        raise ConfigError(f"not a cache key: {key!r} (a key is 64 "
                          "lowercase hex digits)")
    base = cache_dir()
    if os.path.exists(base) and not os.path.isdir(base):
        raise ConfigError(f"the cache directory {base} is not a directory")
    return os.path.join(base, key + ".json"), os.path.join(base,
                                                           key + ".sha256")


def cache_lookup(key: str) -> Optional[bytes]:
    """Stored report bytes for the key, or None on a miss.  Corrupt entries
    are reported on stderr and treated as misses."""
    report_path, sum_path = _paths(key)
    if not (os.path.exists(report_path) and os.path.exists(sum_path)):
        return None
    with open(report_path, "rb") as fh:
        blob = fh.read()
    with open(sum_path, "r", encoding="ascii") as fh:
        recorded = fh.read().strip()
    actual = hashlib.sha256(blob).hexdigest()
    if actual != recorded:
        print(f"warning: cache entry {key} is corrupt; ignoring",
              file=sys.stderr)
        return None
    return blob


def cache_store(key: str, blob: bytes) -> None:
    """Atomic write (temp file then rename) of the report and its checksum.
    A cache directory that cannot be made is a config error."""
    report_path, sum_path = _paths(key)
    base = cache_dir()
    try:
        os.makedirs(base, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make the cache directory {base}: "
                          f"{err.strerror or err}") from err
    digest = hashlib.sha256(blob).hexdigest()
    for path, payload in ((report_path, blob),
                          (sum_path, (digest + "\n").encode("ascii"))):
        fd, tmp = tempfile.mkstemp(dir=base)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def cache_list() -> list:
    base = cache_dir()
    if not os.path.isdir(base):
        return []
    return sorted(name[:-5] for name in os.listdir(base)
                  if name.endswith(".json") and _KEY.fullmatch(name[:-5]))


def cache_remove(key: Optional[str] = None) -> int:
    """Remove one entry, or all entries when key is None; returns a count."""
    removed = 0
    keys = cache_list() if key is None else [key]
    for k in keys:
        for path in _paths(k):
            if os.path.exists(path):
                os.unlink(path)
                removed += 1
    return removed
