"""Every name a package module imports is used in that module.

Deleting a field or a check can leave its import behind (``field``,
``ConfigError``); this guard names the module and the import.  Built on the
stdlib ``ast`` module: a name counts as used when it appears as an expression
anywhere in the module, annotations included.
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
