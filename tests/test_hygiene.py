"""Static hygiene of the package sources: no module imports a name it never
reads.  `superph/__init__.py` is skipped, since its imports are the
package's exports."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "superph")


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read: no Name
    node loads it and no attribute chain starts from it.  Annotations count
    as reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


def test_unread_imports_detector():
    src = ("from __future__ import annotations\nimport os, sys as system\n"
           "from x import a, b as c\nimport pkg.mod\n"
           "def f(y: a) -> None:\n    return pkg.mod.g(y)\n")
    assert unread_imports(src) == [(2, "os"), (2, "system"), (3, "c")]


def test_package_has_no_unread_imports():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found += [f"{name}:{line} {imp}" for line, imp in unread_imports(fh.read())]
    assert found == []
