"""Source hygiene: no module under ``src/coarseentropy/`` imports a name
it never uses.

A name counts as used when the module reads it anywhere (code or
annotations) or lists it in ``__all__``, which is how the package
``__init__`` files re-export.  ``from __future__`` imports are exempt.
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


def test_sources_are_found():
    assert len(list(PACKAGE.rglob("*.py"))) > 10


def test_no_unused_imports():
    unused = [u for path in sorted(PACKAGE.rglob("*.py")) for u in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)
