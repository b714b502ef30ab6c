"""No floating point in `src/spencerkit`: every number on a mathematical
path is an exact rational or an integer.  A float literal or a `float(`
call anywhere in the package fails the first test; a JSON float in the
report of a grid cell fails the second, which also catches an integer
true division `/` that slipped into a value the report carries."""

import ast
import json
from pathlib import Path

import pytest

from instances import GRID
from spencerkit.pipeline import report_bytes, run_pipeline

SRC = Path(__file__).resolve().parent.parent / "src" / "spencerkit"


def _float_sites(source: str, name: str) -> list:
    """Where `source` has a float (or complex) literal or calls `float`."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            sites.append(f"{name}:{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            sites.append(f"{name}:{node.lineno} float(...)")
    return sites


def _no_float(text: str):
    raise AssertionError(f"JSON float {text} in a report")


def test_no_float_in_src():
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _float_sites(path.read_text(), path.name)]
    assert not sites, f"floating point in src/spencerkit: {', '.join(sites)}"


def test_the_lint_can_fail():
    sites = _float_sites("x = 0.5\ny = float(x)\nz = 2j\nw = 1 / 3\n",
                         "snippet.py")
    assert sites == ["snippet.py:1 literal 0.5", "snippet.py:2 float(...)",
                     "snippet.py:3 literal 2j"]
    with pytest.raises(AssertionError):
        json.loads('{"x": [1, "1/2", 0.5]}', parse_float=_no_float)


@pytest.mark.parametrize("s,t,N", GRID)
def test_grid_reports_carry_no_json_float(s, t, N):
    config = {
        "signature": {"s": s, "t": t},
        "N": N,
        "dirac_current": {"kind": "standard"},
        "subalgebra": {"S_prime": "full", "h": "full", "r_prime": "full"},
        "cocycle": "zero",
        "seed": 0,
    }
    report = json.loads(report_bytes(run_pipeline(config)),
                        parse_float=_no_float)
    assert report["result"] == "pass"
