"""Inputs of the benchmark workloads, generated from the workload seed.

Each workload is a list of CLI calls (subcommand plus config) that one
repetition runs in a single fresh interpreter, `PASSES[workload]` times over.
The reasons for each choice are in README.md next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0

WORKLOADS = ("grid312", "coh411", "sweep_small")

# sweep_small runs its configs twice against one cache directory: the first
# pass writes the cache, the second reads it.
PASSES = {"grid312": 1, "coh411": 1, "sweep_small": 2}

# The smallest highly supersymmetric dim S' (2 dim S' > dim S) per
# (s, t, N) cell of the sweep.
_HS_DIM = {(2, 1, 1): 2, (2, 1, 2): 3, (3, 1, 1): 3}

# (cell, how far dim S' sits below the highly supersymmetric dimension, h,
# cocycle).  Below that dimension a random S' with h = "stabiliser" ends in
# exit 3 today ("admissibility requires a highly supersymmetric
# subalgebra"); those configs stay in the sweep so the defect keeps showing
# in the failed count.  With h = "full" a random S' is not preserved, so the
# run ends as a negative at the subalgebra stage (exit 1).
_SWEEP = (
    ((2, 1, 1), 0, "stabiliser", "zero"),
    ((2, 1, 1), 0, "stabiliser", {"basis_element": 0}),
    ((2, 1, 1), 0, "full", "zero"),
    ((2, 1, 1), 0, "full", {"basis_element": 0}),
    ((2, 1, 1), 1, "stabiliser", "zero"),
    ((2, 1, 1), 1, "full", "zero"),
    ((2, 1, 2), 0, "stabiliser", "zero"),
    ((2, 1, 2), 0, "full", "zero"),
    ((2, 1, 2), 0, "full", {"basis_element": 0}),
    ((2, 1, 2), 1, "stabiliser", "zero"),
    ((2, 1, 2), 1, "full", "zero"),
    ((2, 1, 2), 1, "full", {"basis_element": 1}),
    ((3, 1, 1), 0, "stabiliser", "zero"),
    ((3, 1, 1), 0, "stabiliser", {"basis_element": 0}),
    ((3, 1, 1), 0, "stabiliser", {"basis_element": 1}),
    ((3, 1, 1), 0, "full", "zero"),
    ((3, 1, 1), 1, "full", "zero"),
    ((3, 1, 1), 1, "full", {"basis_element": 0}),
)

# The example config of the project README, verbatim.
README_EXAMPLE = {
    "signature": {"s": 3, "t": 1},
    "N": 1,
    "dirac_current": {"kind": "standard"},
    "subalgebra": {
        "S_prime": {"random": {"dim": 3, "seed": 7}},
        "h": "stabiliser",
        "r_prime": "zero",
    },
    "cocycle": {"basis_element": 0},
    "seed": 7,
    "output_path": "report.json",
}


@dataclass(frozen=True)
class Call:
    """One CLI call: `spencerkit <command> <name>.json`."""
    name: str
    command: str    # "run" or "cohomology"
    config: dict
    seeded: bool    # whether the config depends on the workload seed

    @property
    def argv(self) -> list:
        return [self.command, self.name + ".json"]


def maximal_config(s: int, t: int, N: int, output_path=None) -> dict:
    config = {
        "signature": {"s": s, "t": t},
        "N": N,
        "dirac_current": {"kind": "standard"},
        "subalgebra": {"S_prime": "full", "h": "full", "r_prime": "full"},
        "cocycle": "zero",
    }
    if output_path:
        config["output_path"] = output_path
    return config


def derived_seed(seed: int, name: str) -> int:
    """A 32-bit seed for one config, fixed by the workload seed and the
    config's name."""
    digest = hashlib.sha256(f"{seed}/{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def _cocycle_tag(cocycle) -> str:
    return "zero" if cocycle == "zero" else f"b{cocycle['basis_element']}"


def _sweep(seed: int) -> list:
    calls = []
    for idx, ((s, t, N), below, h, cocycle) in enumerate(_SWEEP):
        dim = _HS_DIM[(s, t, N)] - below
        name = (f"s{idx:02d}-{s}{t}{N}-dim{dim}-{h[:4]}-"
                f"{_cocycle_tag(cocycle)}")
        config = {
            "signature": {"s": s, "t": t},
            "N": N,
            "dirac_current": {"kind": "standard"},
            "subalgebra": {
                "S_prime": {"random": {"dim": dim,
                                       "seed": derived_seed(seed, name)}},
                "h": h,
                "r_prime": "zero",
            },
            "cocycle": cocycle,
            "seed": seed,
            "output_path": name + ".report.json",
        }
        calls.append(Call(name, "run", config, seeded=True))
    calls.append(Call("readme", "run", dict(README_EXAMPLE), seeded=False))
    return calls


def calls(workload: str, seed: int) -> list:
    """The calls of one pass of `workload`.  grid312 and coh411 have no
    random input, so their configs are the same for every seed."""
    if workload == "grid312":
        return [Call("grid312", "run",
                     maximal_config(3, 1, 2, "grid312.report.json"),
                     seeded=False)]
    if workload == "coh411":
        return [Call("coh411", "cohomology", maximal_config(4, 1, 1),
                     seeded=False)]
    if workload == "sweep_small":
        return _sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")
