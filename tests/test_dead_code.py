"""Every function and method defined in `src/spencerkit` is referenced
somewhere in `src/spencerkit`: code that nothing in the package calls is
deleted, or moved into the tests when they need it.  Matching is by name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spencerkit"

# cochain_action_matrix assembles the isotropy action on cochains as one
# matrix from the blocks that CochainAction applies; the package never forms
# that matrix, and the tests keep it as the oracle of CochainAction
ALLOWED = {"cochain_action_matrix"}


def _scan():
    """(name -> where it is first defined, the set of names read)."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.setdefault(node.name,
                                       f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return defined, read


def test_every_function_in_src_is_referenced_in_src():
    defined, read = _scan()
    unreferenced = sorted(f"{name} ({where})"
                          for name, where in defined.items()
                          if name not in read and name not in ALLOWED)
    assert not unreferenced, ("defined in src/spencerkit but referenced "
                              f"nowhere in it: {', '.join(unreferenced)}")


def test_allowlist_is_current():
    # an allowed name that is gone, or has gained a caller, leaves the list
    defined, read = _scan()
    assert all(name in defined and name not in read for name in ALLOWED)
