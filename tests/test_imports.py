"""Every name a package module imports is used in that module, and every
private module-level function, class and constant is named somewhere else in
the package.

Deleting a field or a check can leave its import behind (``field``,
``ConfigError``), and deleting a code path can leave its helper, its buffer
class or its tuning constant behind; these guards name the module and the
name.  Built on the stdlib ``ast`` module: a name counts as used when it
appears as an expression (a name or an attribute), annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pstream"
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
