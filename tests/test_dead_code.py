"""Every function, method and class defined in `src/spencerkit` is referenced
somewhere in `src/spencerkit`: code that nothing in the package calls is
deleted, or moved into the tests when they need it.  Matching is by name: a
function or class is referenced by any read of its name, and a method only
by an attribute read (`obj.name`), so a local function of the same name
does not keep a method alive.

A method whose name one class alone defines is kept alive by any read of
that name.  Where several classes define the name, a read counts for the
class its receiver evidently has: `self` or `cls` inside the class, the
class itself or a call of it, a parameter annotated with the class, or an
attribute that the receiver's class annotates with it (`self.rep` in a
class with a field `rep: CliffordRep`).  Any other read of a shared name
keeps alive only the classes that SHARED lists for it, each entry with the
reason why its receivers cannot be resolved here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spencerkit"

# cochain_action_matrix assembles the isotropy action on cochains as one
# matrix from the blocks that CochainAction applies; the package never forms
# that matrix, and the tests keep it as the oracle of CochainAction
ALLOWED = {"cochain_action_matrix"}

# shared method name -> (classes whose method unresolved reads keep alive,
# why those reads cannot be resolved)
SHARED = {
    "apply_rows": ({"HomAction", "CochainAction"},
                   "CochainAction.apply_rows calls self.hom.apply_rows on a "
                   "HomAction held in a __slots__ attribute, and the cochain "
                   "operators reach their callers as entries of the tuples "
                   "and iterators of _actions and generator_actions"),
    "dim": ({"SpinGenerators"},
            "ExtendedFlatModel reads self.gens.dim, and gens is assigned "
            "from spin_generators(rep) without an annotation"),
    "dims": ({"ExtendedFlatModel", "GradedSubalgebra"},
             "the flat-model and subalgebra stages read model.dims and "
             "sub.dims on the unannotated locals they build"),
    "is_zero": ({"DiracCurrent"},
                "build_splitting reads model.current.is_zero, and an "
                "ExtendedFlatModel assigns its current without an "
                "annotation"),
    "to_json": ({"Certificate", "ProbeReport", "NotAdmissible",
                 "IntegrabilityReport", "FilteredDeformation",
                 "RealisabilityReport", "EnvelopeReport"},
                "the reports serialise the certificates they hold in dicts "
                "(c.to_json() per value), and the pipeline stages serialise "
                "the probe, outcome and reports they hold as locals"),
}


def _annotation_class(node, classes):
    """The src class an annotation names, directly, quoted or inside a
    subscript such as Optional[C], else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in classes else None
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    found = names & set(classes)
    return found.pop() if len(found) == 1 else None


def _field_types(cls, classes):
    """attribute -> src class, from the annotated fields of a class body
    and the annotated `self.x: C` assignments in its methods."""
    fields = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign):
            target = node.target
            name = (target.id if isinstance(target, ast.Name) else
                    target.attr if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self" else None)
            kind = _annotation_class(node.annotation, classes)
            if name and kind:
                fields[name] = kind
    return fields


def _scan():
    """((kind, name, class of a method) -> where it is first defined, the
    names read bare or imported, name -> the classes its resolved attribute
    reads name, the names read as attributes with no resolved receiver, and
    name -> the classes defining a method of that name)."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = {node.name: node for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    fields = {name: _field_types(node, classes)
              for name, node in classes.items()}
    defined, names, owners = {}, set(), {}
    resolved, unresolved = {}, set()

    def receiver(value, cls, params):
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and cls:
                return cls
            if value.id in classes:
                return value.id
            return params.get(value.id)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in classes:
            return value.func.id
        if isinstance(value, ast.Attribute):
            owner = receiver(value.value, cls, params)
            return fields.get(owner, {}).get(value.attr) if owner else None
        return None

    def visit(node, path, cls, params):
        for child in ast.iter_child_nodes(node):
            inner_cls, inner_params = cls, params
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        owners.setdefault(item.name, set()).add(child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    kind = ("class" if isinstance(child, ast.ClassDef) else
                            "method" if isinstance(node, ast.ClassDef) else
                            "function")
                    owner = node.name if kind == "method" else None
                    defined.setdefault((kind, child.name, owner),
                                       f"{path.name}:{child.lineno}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                inner_params = dict(params)
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    kind = _annotation_class(arg.annotation, classes)
                    if kind:
                        inner_params[arg.arg] = kind
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.alias):
                names.add(child.name)
            elif isinstance(child, ast.Attribute):
                owner = receiver(child.value, cls, params)
                if owner:
                    resolved.setdefault(child.attr, set()).add(owner)
                else:
                    unresolved.add(child.attr)
            visit(child, path, inner_cls, inner_params)

    for path, tree in trees.items():
        visit(tree, path, None, {})
    return defined, names, resolved, unresolved, owners


def _method_alive(name, cls, resolved, unresolved, owners):
    if len(owners.get(name, ())) <= 1:
        return name in resolved or name in unresolved
    if cls in resolved.get(name, ()):
        return True
    return name in unresolved and cls in SHARED.get(name, (set(),))[0]


def _unreferenced():
    defined, names, resolved, unresolved, owners = _scan()
    out = {}
    for (kind, name, owner), where in defined.items():
        if kind == "method":
            if not _method_alive(name, owner, resolved, unresolved, owners):
                out[(kind, f"{owner}.{name}")] = where
        elif name not in names and name not in resolved \
                and name not in unresolved:
            out[(kind, name)] = where
    return out


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


def test_shared_names_are_current():
    # SHARED lists exactly the names several classes define that are read
    # through an unresolved receiver, and for each only defining classes
    # whose method no resolved read reaches
    _defined, _names, resolved, unresolved, owners = _scan()
    needed = {name for name, classes in owners.items()
              if len(classes) > 1 and name in unresolved
              and classes - resolved.get(name, set())}
    assert set(SHARED) == needed
    for name, (classes, reason) in SHARED.items():
        assert reason and classes <= owners[name] - resolved.get(name, set())
