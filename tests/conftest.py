import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def child_pythonpath(monkeypatch):
    """Put the package's ``src`` first on ``PYTHONPATH`` for a child
    ``python -m pstream.cli``: the ini's ``pythonpath`` reaches only the pytest
    process."""
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(SRC)] + ([path] if path else [])))
