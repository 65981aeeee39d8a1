"""Static hygiene of the package sources: every import is of the package
itself or of the standard library, no module imports a name it never
reads (`superph/__init__.py` is skipped, since its imports are the
package's exports), and no private top-level definition is left unused.
Of the test oracles, every top-level definition is read by a test module
or by another definition of the oracles.  Importing the package loads no
dataclass machinery."""

import ast
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "superph")


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


def outside_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import that is neither relative nor of a
    standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_outside_imports_detector():
    src = ("from __future__ import annotations\nimport os.path, numpy as np\n"
           "from . import fields\nfrom .graphs import MultiGraph\n"
           "def f():\n    import scipy.linalg\n    from collections import abc\n")
    assert outside_imports(src) == [(2, "numpy"), (6, "scipy.linalg")]


def test_package_imports_only_the_standard_library():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found += [f"{name}:{line} {imp}" for line, imp in outside_imports(fh.read())]
    assert found == []


def unread_private_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private top-level definition (a `_name`
    function, class or assignment target; dunders excepted) that its own
    module never reads and no other module imports by name."""
    defined = []
    read: dict[str, set] = {}
    imported = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read[module] = {n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source_module = node.module.rsplit(".", 1)[-1]
                imported.update((source_module, a.name) for a in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
    return [(module, line, name) for module, line, name in defined
            if name not in read[module] and (module, name) not in imported]


def test_unread_private_definitions_detector():
    sources = {
        "a": "_used = 1\n_lost = 2\n__all__ = []\ndef _shared(): pass\n"
             "class _Gone: pass\n_x, _y = 1, 2\nprint(_used, _y)\n",
        "b": "from .a import _shared\ndef _helper(): return _helper\n",
    }
    assert unread_private_definitions(sources) == [("a", 2, "_lost"), ("a", 5, "_Gone"),
                                                   ("a", 6, "_x")]


def test_package_has_no_unread_private_definitions():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    assert unread_private_definitions(sources) == []


def unread_oracles(oracles: str, tests: list[str]) -> list[tuple[int, str]]:
    """(line, name) of every top-level definition of the oracles source that
    no test source reads (by `from oracles import`, or as an attribute of
    the `oracles` module) and no other top-level definition of the oracles
    reads by name."""
    tree = ast.parse(oracles)
    read = set()
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined += [(node.lineno, name) for name in names]
        inner = {n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= inner - set(names)
    for source in tests:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                read.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "oracles":
                read.add(node.attr)
    return [(line, name) for line, name in defined if name not in read]


def test_unread_oracles_detector():
    oracles = ("LIMIT = 3\ndef used(): return helper()\ndef helper(): return LIMIT\n"
               "def attr(): pass\ndef lost(): return lost()\nclass Gone: pass\n")
    tests = ["from oracles import used\n", "import oracles\noracles.attr()\n"]
    assert unread_oracles(oracles, tests) == [(5, "lost"), (6, "Gone")]


def test_every_oracle_is_read():
    sources = {}
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    oracles = sources.pop("oracles.py")
    assert unread_oracles(oracles, list(sources.values())) == []


FIELD_ARITHMETIC = {"add", "sub", "mul", "neg", "inv", "of"}


def functions(source: str):
    """(name, node) of every top-level function, and as (`Class.name`,
    node) of every method of a top-level class."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def field_method_calls(source: str, names: set[str]) -> list[tuple[str, int, str]]:
    """(function, line, method) of every call to a `Field` arithmetic
    method (any `x.add(...)`, `x.mul(...)`, ... call) inside the top-level
    functions and class methods with one of the given names."""
    found = []
    for name, node in functions(source):
        if name.rsplit(".", 1)[-1] in names:
            found += [(name, n.lineno, n.func.attr) for n in ast.walk(node)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr in FIELD_ARITHMETIC]
    return found


def test_field_method_calls_detector():
    src = ("def axpy(field, d, c, s):\n    d[0] = field.sub(d[0], c)\n    d.get(0)\n"
           "def combine(f, c, v):\n    return {0: f.mul(1, f.inv(2))}\n"
           "def other(f):\n    return f.neg(1)\n"
           "class K:\n    @staticmethod\n    def axpy(f, d, c, s):\n        return f.add(d, s)\n"
           "    def other(f):\n        return f.neg(1)\n")
    assert field_method_calls(src, {"axpy", "combine"}) == [
        ("axpy", 2, "sub"), ("combine", 5, "mul"), ("combine", 5, "inv"), ("K.axpy", 11, "add")]


def test_vector_kernels_call_no_field_method():
    # `axpy` and `combine` are the reduction's inner loop: each field's
    # scalar arithmetic is written inline there, never as a `Field` call
    # per entry, in the dict kernel of GF(p) and Q, in the GF(2) mask
    # kernel, and in the module-level calls that hand work to them
    with open(os.path.join(SRC, "fields.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert {"axpy", "combine", "_Dicts.axpy", "_Dicts.combine", "_Masks.axpy",
            "_Masks.combine"} <= {name for name, _ in functions(source)}
    assert field_method_calls(source, {"axpy", "combine"}) == []


def complex_parameters(source: str) -> list[tuple[int, str]]:
    """(line, function) of every function that takes a chain complex `cc`
    it could fetch itself: a `cc` parameter with a default, or one beside a
    Δ-set `x` or super-hypergraph `sh`, whose complex `boundary_matrices`
    keeps.  A function on the complex alone, such as `inf_basis(cc, ...)`,
    has no Δ-set to fetch it from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            names = [a.arg for a in params]
            if "cc" not in names:
                continue
            positional = args.posonlyargs + args.args
            defaulted = {a.arg for a in positional[len(positional) - len(args.defaults):]}
            defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None}
            if "cc" in defaulted or {"x", "sh"} & set(names):
                found.append((node.lineno, node.name))
    return sorted(found)


def memo_reads(source: str) -> list[int]:
    """Lines of every read of a `.memo` attribute."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr == "memo"]


def test_complex_parameters_detector():
    src = ("def betti(sh, field, mode='a', cc=None):\n    return cc.memo\n"
           "def chain_data(sh, field, cc):\n    pass\n"
           "def basis(cc, entry, n):\n    pass\n"
           "class C:\n    def solve(self, *, cc=None):\n        pass\n"
           "def ranks(x, cc, n):\n    pass\n"
           "def fetch(x, field):\n    return boundary_matrices(x, field)\n")
    assert complex_parameters(src) == [(1, "betti"), (3, "chain_data"), (8, "solve"),
                                       (10, "ranks")]
    assert memo_reads(src) == [2]


def test_callers_fetch_the_kept_chain_complex():
    # every reader of a Δ-set's chain complex fetches the one that
    # `boundary_matrices` keeps on the Δ-set, never takes one from its
    # caller; the persistence layer keeps its bases and modules on the
    # filtration, never on the complex's memo
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                source = fh.read()
            found += [f"{name}:{line} {fn}" for line, fn in complex_parameters(source)]
            if name == "persistence.py":
                found += [f"{name}:{line} .memo" for line in memo_reads(source)]
    assert found == []


MACHINERY = {"dataclasses", "inspect"}


def loaded_machinery(snippet: str) -> set[str]:
    """The modules of `MACHINERY` in `sys.modules` after a fresh interpreter,
    with the package's sources on its path, runs snippet."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run([sys.executable, "-c", snippet + "\nimport sys\nprint(*sys.modules)\n"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return MACHINERY & set(proc.stdout.split())


def test_loaded_machinery_detector():
    assert loaded_machinery("import dataclasses") == MACHINERY
    assert loaded_machinery("import math") == set()


def test_package_import_loads_no_dataclass_machinery():
    # every CLI job runs in a fresh process, which pays for what the import
    # loads: no record type of the package is a dataclass
    assert {snippet: loaded_machinery(snippet)
            for snippet in ("import superph", "import superph.cli")} == {
        "import superph": set(), "import superph.cli": set()}
