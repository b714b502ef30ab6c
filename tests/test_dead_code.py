"""Every function, method and class defined in `src/spencerkit` is referenced
somewhere in `src/spencerkit`: code that nothing in the package calls is
deleted, or moved into the tests when they need it.  Matching is by name: a
function or class is referenced by any read of its name, and a method only
by an attribute read (`obj.name`), so a local function of the same name
does not keep a method alive."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spencerkit"

# cochain_action_matrix assembles the isotropy action on cochains as one
# matrix from the blocks that CochainAction applies; the package never forms
# that matrix, and the tests keep it as the oracle of CochainAction
ALLOWED = {"cochain_action_matrix"}


def _scan():
    """((kind, name) -> where it is first defined, the names read bare or
    imported, the names read as attributes)."""
    defined, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                kind = ("class" if isinstance(node, ast.ClassDef) else
                        "method" if id(node) in methods else "function")
                defined.setdefault((kind, node.name),
                                   f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return defined, names, attrs


def _unreferenced():
    defined, names, attrs = _scan()
    return {(kind, name): where for (kind, name), where in defined.items()
            if name not in attrs and (kind == "method" or name not in names)}


def test_every_function_in_src_is_referenced_in_src():
    unreferenced = sorted(f"{kind} {name} ({where})"
                          for (kind, name), where in _unreferenced().items()
                          if name not in ALLOWED)
    assert not unreferenced, ("defined in src/spencerkit but referenced "
                              f"nowhere in it: {', '.join(unreferenced)}")


def test_allowlist_is_current():
    # an allowed name that is gone, or has gained a caller, leaves the list
    unreferenced = {name for _, name in _unreferenced()}
    assert ALLOWED <= unreferenced
