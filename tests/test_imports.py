"""Every name a package module imports is used in that module, every
private module-level function, class and constant is named somewhere else in
the package, and every public function, class, method and property is named
by the program: the package outside ``__init__.py``, or the benchmark.

Deleting a field or a check can leave its import behind (``field``,
``ConfigError``), and deleting a code path can leave its helper, its buffer
class or its tuning constant behind; a public name that only tests call is
surface that nothing runs.  These guards name the module and the name.  Built
on the stdlib ``ast`` module: a name counts as used when it appears as an
expression (a name or an attribute), annotations included.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pstream"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .errors import ConfigError, DomainError\n"
    source += "np.zeros(1)\nraise DomainError\n"
    assert unused_imports(source) == ["ConfigError", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    unused = unused_imports((SRC / module).read_text())
    assert not unused, f"src/pstream/{module} imports {', '.join(unused)} and never uses it"


def private_names(stmt: ast.stmt) -> list[str]:
    """The ``_private`` names that a module-level statement defines: a
    function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def private_names_unused(sources: dict[str, str]) -> list[str]:
    """The module-level ``_private`` functions, classes and constants of
    ``sources`` (module name to source) named nowhere in them outside the
    statement that defines them."""
    defined, used = set(), set()
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            owner = (module, index)
            defined.update((module, name, owner) for name in private_names(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, owner))
    return sorted(
        {
            f"{module}.{name}"
            for module, name, where in defined
            if not any(n == name and owner != where for n, owner in used)
        }
    )


def test_guard_finds_a_dead_helper():
    sources = {
        "a.py": "def _live():\n    return 1\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from . import a\ndef f():\n    return a._live()\n",
    }
    assert private_names_unused(sources) == ["a.py._dead"]


def test_guard_finds_a_dead_class_and_constant():
    # a deleted code path can leave its buffer class or its tuning constant behind
    source = "_LIVE = 2\n_DEAD: int = _LIVE * 5\n_A, _B = 1, 2\n"
    source += "class _Dead:\n    size = _A\n    def grow(self):\n        return _Dead()\n"
    assert private_names_unused({"a.py": source}) == ["a.py._B", "a.py._DEAD", "a.py._Dead"]


def test_every_private_function_is_called():
    # and every private class and constant is named
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    unused = private_names_unused(sources)
    assert not unused, f"src/pstream/ defines {', '.join(unused)} and never names it"


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class of
    ``tree``, and of each public method and property of those classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
            for member in stmt.body if isinstance(stmt, ast.ClassDef) else []:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{stmt.name}.{member.name}", member


def names_in(node: ast.AST) -> Counter:
    """How often each name and attribute appears in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def public_names_unnamed(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The public definitions of ``sources`` (module name to source) that
    neither ``sources`` outside the definition itself nor ``readers`` name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        named.update(names_in(tree))
    return sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in public_definitions(tree)
        if named[node.name] == names_in(node)[node.name]
    )


def test_guard_finds_a_dead_public_name():
    sources = {
        "a.py": "def live():\n    return 1\ndef dead(n):\n    return dead(n - 1)\n"
        "class Batch:\n    def total(self):\n        return self.part()\n"
        "    def part(self):\n        return 0\n"
        "    @property\n    def unread(self):\n        return self.unread\n",
        "b.py": "from .a import Batch, live\n"
        "def report(batch: Batch):\n    return live() + batch.total()\n",
    }
    # a reader outside the package keeps b.report; what only tests call stays dead
    readers = ["from pstream import b\nb.report(None)\n"]
    assert public_names_unnamed(sources, readers) == ["a.py.Batch.unread", "a.py.dead"]
    assert public_names_unnamed(sources, []) == ["a.py.Batch.unread", "a.py.dead", "b.py.report"]


def test_every_public_name_is_named():
    # __init__.py only re-exports; the benchmark's modules are read, never changed
    sources = {name: (SRC / name).read_text() for name in MODULES}
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    readers = [p.read_text() for p in bench if not p.name.startswith("test_")]
    unnamed = public_names_unnamed(sources, readers)
    assert not unnamed, f"src/pstream/ defines {', '.join(unnamed)}, which only tests name"


@pytest.mark.usefixtures("child_pythonpath")
def test_import_leaves_the_process_pool_unloaded():
    # a one-worker run forks nothing, and pays for neither module
    script = "import sys, pstream; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
