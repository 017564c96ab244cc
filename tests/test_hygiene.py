"""Source hygiene: no module under ``src/coarseentropy/`` imports a name
it never uses, and no module defines a name that nothing reads.

An imported name counts as used when the module reads it anywhere (code
or annotations) or lists it in ``__all__``, which is how the package
``__init__`` files re-export.  ``from __future__`` imports are exempt.
A module-level def, class or constant counts as used when any module of
the package reads it, as a name or as an attribute, or any ``__all__``
lists it.  A ``_``-prefixed method of a class, and every method of a
``_``-prefixed class (dunders aside), must be read as an attribute by
some module of the package, since nothing outside it may call them; a
method that overrides a base class from outside the package is exempt,
since that base's code calls it.  Every
parameter of a module-level function is read in its body; methods are
exempt, since an interface stub on a base class is meant to ignore its
arguments.  Every defaulted parameter of a module-level function is
passed by some call under ``src/``, ``bench/`` or ``demos/``; one that no
call passes is a setting with one value in use, which belongs in a module
constant.
"""

import ast
import importlib
from collections import defaultdict
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "coarseentropy"
CALLERS = ("src", "bench", "demos")

# defaulted parameters no call passes, kept on purpose: inputs, and
# parameters that calls reach only through an alias such as ``fn = ...``
UNPASSED_DEFAULTS = {
    "*(name)": "input: the label of the space or graph being built",
    "build_weighted_graph(vertices)": "input: vertices beyond the edge endpoints",
    "growth_series(window)": "input: the points the growth is maximised over",
    "pad_arms(length)": "input: the common arm length",
    "quasi_geodesic_check(sample_pairs)": "input: the pairs to check",
    "separated_count(cap)": "rate_series passes it through fn = separated_count ...",
    "dense_count(cap)": "rate_series passes it through fn = ... else dense_count",
    "dense_count(exact_limit)": "rate_series passes it through fn = ... else dense_count",
    "max_separated(exact_limit)": "counts and bench pass it through solve = max_separated ...",
    "min_dense(exact_limit)": "counts and bench pass it through solve = ... else min_dense",
    "rate_series(exact_limit)": "kept with the count functions' exact_limit, which bench varies",
}


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
            for name, line in imported_names(tree) if name not in used]


def module_level_names(tree):
    """(name, line) for every module-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node.lineno


def read_names(tree):
    """Names the module loads, plus every attribute name it reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def package_trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def unread_definitions():
    trees = package_trees()
    used = set()
    for tree in trees.values():
        used |= read_names(tree) | exported_names(tree)
    return [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in module_level_names(tree) if name not in used]


def private_methods(tree):
    """(class, method, line) for every non-dunder method that is
    ``_``-prefixed or belongs to a ``_``-prefixed class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (item.name.startswith("_") or node.name.startswith("_"))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield node.name, item.name, item.lineno


def module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def overrides_outside(module, cls_name, name):
    """Whether the module-level class overrides ``name`` of a base class
    from outside the package, whose own code calls it."""
    cls = getattr(importlib.import_module(module), cls_name, None)
    return cls is not None and any(name in vars(base) for base in cls.__mro__[1:]
                                   if not base.__module__.startswith(PACKAGE.name))


def unread_private_methods():
    trees = package_trees()
    # a method is reached as an attribute; a local of the same name is not a read
    used = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{path.relative_to(PACKAGE.parent)}:{line}: {cls_name}.{name}"
            for path, tree in trees.items()
            for cls_name, name, line in private_methods(tree)
            if name not in used and not overrides_outside(module_name(path), cls_name, name)]


def unread_parameters():
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                arg for arg in (a.vararg, a.kwarg) if arg is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out.extend(f"{path.relative_to(PACKAGE.parent)}:{node.lineno}: "
                       f"{node.name}({arg.arg})"
                       for arg in params if arg.arg not in loaded)
    return out


def call_sites():
    """Every call under the caller directories, by the name it calls."""
    calls = defaultdict(list)
    for top in CALLERS:
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name:
                        calls[name].append(node)
    return calls


def passes(call, index, name):
    """Whether ``call`` may set parameter ``name`` (at position ``index``,
    None when keyword-only): by keyword, by position, or through ``*args``
    or ``**kwargs``."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and (
        index < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args))


def unpassed_defaults():
    """``(label, where)`` for every defaulted parameter of a module-level
    function that no call passes; ``label`` is ``function(parameter)``."""
    calls = call_sites()
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = list(enumerate(positional))[len(positional) - len(a.defaults):]
            defaulted += [(None, arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                          if default is not None]
            out.extend((f"{node.name}({arg.arg})",
                        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}")
                       for index, arg in defaulted
                       if not any(passes(call, index, arg.arg) for call in calls[node.name]))
    return out


def test_sources_are_found():
    assert len(list(PACKAGE.rglob("*.py"))) > 10


def test_no_unused_imports():
    unused = [u for path in sorted(PACKAGE.rglob("*.py")) for u in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_no_unread_definitions():
    unread = unread_definitions()
    assert unread == [], "module-level names nothing reads:\n" + "\n".join(unread)


def test_no_unread_private_methods():
    unread = unread_private_methods()
    assert unread == [], "private methods nothing reads:\n" + "\n".join(unread)


def test_private_method_rule_reaches_every_method_of_a_private_class():
    tree = ast.parse("class _Probe:\n    def visible(self): pass\n    def _hidden(self): pass\n"
                     "    def __len__(self): pass\nclass Open:\n    def visible(self): pass\n"
                     "    def _own(self): pass\n")
    assert [(c, m) for c, m, _ in private_methods(tree)] == [
        ("_Probe", "visible"), ("_Probe", "_hidden"), ("Open", "_own")]
    # argparse calls the parser's error hook; a line's neighbors overrides only
    # the package's own base class
    assert overrides_outside("coarseentropy.cli", "_Parser", "error")
    assert not overrides_outside("coarseentropy.spaces.catalog", "_IntegerLine", "neighbors")


def test_no_unread_parameters():
    unread = unread_parameters()
    assert unread == [], "parameters their function never reads:\n" + "\n".join(unread)


def test_every_default_is_passed_somewhere():
    found = unpassed_defaults()
    unpassed = [f"{where}: {label}" for label, where in found
                if not any(fnmatch(label, pattern) for pattern in UNPASSED_DEFAULTS)]
    assert unpassed == [], ("defaulted parameters no call passes; make each a module "
                            "constant:\n" + "\n".join(unpassed))
    stale = [pattern for pattern in UNPASSED_DEFAULTS
             if not any(fnmatch(label, pattern) for label, _ in found)]
    assert stale == [], "allowlist entries that match nothing:\n" + "\n".join(stale)
