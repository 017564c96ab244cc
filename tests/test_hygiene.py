"""Source hygiene: no module under ``src/coarseentropy/`` imports a name
it never uses, and no module defines a name that nothing reads.

An imported name counts as used when the module reads it anywhere (code
or annotations) or lists it in ``__all__``, which is how the package
``__init__`` files re-export.  ``from __future__`` imports are exempt.
A module-level def, class or constant counts as used when any module of
the package reads it, as a name or as an attribute, or any ``__all__``
lists it.  Every parameter of a module-level function is read in its
body; methods are exempt, since an interface stub on a base class is
meant to ignore its arguments.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coarseentropy"


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


def unread_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= read_names(tree) | exported_names(tree)
    return [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in module_level_names(tree) if name not in used]


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


def test_sources_are_found():
    assert len(list(PACKAGE.rglob("*.py"))) > 10


def test_no_unused_imports():
    unused = [u for path in sorted(PACKAGE.rglob("*.py")) for u in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_no_unread_definitions():
    unread = unread_definitions()
    assert unread == [], "module-level names nothing reads:\n" + "\n".join(unread)


def test_no_unread_parameters():
    unread = unread_parameters()
    assert unread == [], "parameters their function never reads:\n" + "\n".join(unread)
