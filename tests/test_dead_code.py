"""Every function, method and class defined in `src/spencerkit` is reached
from where the program starts, `cli.main` and the code at module level
(imports aside): code that nothing reached calls is deleted, or moved into
the tests when they need it.  A definition is reached when reached code
reads it; the body of a function or method is reached with it, and a class
brings its class body and its dunder methods, so a definition that only
unreached definitions read is dead too.  Matching is by name: a function or
class is read by any read of its name, and a method only by an attribute
read (`obj.name`), so a local function of the same name does not keep a
method alive.

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

# names kept although nothing in the package reaches them, each with the
# reason why
ALLOWED = set()

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
    """((kind, name, class of a method) -> where it is first defined,
    name -> the classes its resolved attribute reads name, the names read
    as attributes with no resolved receiver, name -> the classes defining a
    method of that name, and the reads of each piece of code: definition
    key, or None for module-level code -> (bare names, attribute name ->
    resolved classes, unresolved attribute names))."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = {node.name: node for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    fields = {name: _field_types(node, classes)
              for name, node in classes.items()}
    defined, owners = {}, {}
    resolved, unresolved = {}, set()
    reads = {}

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

    def visit(node, path, cls, params, key):
        here = reads.setdefault(key, (set(), {}, set()))
        for child in ast.iter_child_nodes(node):
            inner_cls, inner_params, inner_key = cls, params, key
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
                    if key is None or kind == "method":
                        # a nested function is read with its enclosing
                        # definition
                        inner_key = (kind, child.name, owner)
                elif isinstance(node, ast.ClassDef):
                    # a dunder method is reached with its class
                    inner_key = ("class", node.name, None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                inner_params = dict(params)
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    kind = _annotation_class(arg.annotation, classes)
                    if kind:
                        inner_params[arg.arg] = kind
            if isinstance(child, ast.Name):
                here[0].add(child.id)
            elif isinstance(child, ast.Attribute):
                owner = receiver(child.value, cls, params)
                if owner:
                    resolved.setdefault(child.attr, set()).add(owner)
                    here[1].setdefault(child.attr, set()).add(owner)
                else:
                    unresolved.add(child.attr)
                    here[2].add(child.attr)
            visit(child, path, inner_cls, inner_params, inner_key)

    for path, tree in trees.items():
        visit(tree, path, None, {}, None)
    return defined, resolved, unresolved, owners, reads


def _method_alive(name, cls, resolved, unresolved, owners):
    if len(owners.get(name, ())) <= 1:
        return name in resolved or name in unresolved
    if cls in resolved.get(name, ()):
        return True
    return name in unresolved and cls in SHARED.get(name, (set(),))[0]


def _unreached():
    """The definitions that no code reached from `cli.main` or from module
    level reads: key -> where it is defined."""
    defined, _resolved, _unresolved, owners, reads = _scan()
    main = ("function", "main", None)
    assert main in defined, "cli.main is gone"
    reached, todo = set(), [None, main]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        bare, on_resolved, on_unresolved = reads.get(key, (set(), {}, set()))
        found = [(k, n, None) for n in bare | set(on_resolved) |
                 on_unresolved for k in ("function", "class")]
        for name, classes in on_resolved.items():
            found += [("method", name, c) for c in classes]
        for name in set(on_resolved) | on_unresolved:
            found += [("method", name, c) for c in owners.get(name, ())
                      if _method_alive(name, c, on_resolved,
                                       on_unresolved, owners)]
        todo += [k for k in found if k in defined and k not in reached]
    return {key: where for key, where in defined.items()
            if key not in reached}


def test_every_definition_in_src_is_reached_from_the_cli():
    unreached = sorted(
        f"{kind} {name if owner is None else f'{owner}.{name}'} ({where})"
        for (kind, name, owner), where in _unreached().items()
        if name not in ALLOWED)
    assert not unreached, ("defined in src/spencerkit but read only by "
                           "code that cli.main and module-level code never "
                           f"reach: {', '.join(unreached)}")


def test_allowlist_is_current():
    # an allowed name that is gone, or has gained a caller, leaves the list
    unreached = {name for _, name, _ in _unreached()}
    assert ALLOWED <= unreached


def test_shared_names_are_current():
    # SHARED lists exactly the names several classes define that are read
    # through an unresolved receiver, and for each only defining classes
    # whose method no resolved read reaches
    _defined, resolved, unresolved, owners, _reads = _scan()
    needed = {name for name, classes in owners.items()
              if len(classes) > 1 and name in unresolved
              and classes - resolved.get(name, set())}
    assert set(SHARED) == needed
    for name, (classes, reason) in SHARED.items():
        assert reason and classes <= owners[name] - resolved.get(name, set())
