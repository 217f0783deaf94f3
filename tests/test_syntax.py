"""The package, its tests and perfbench parse as Python 3.10.

CI runs a Python 3.10 leg; this check catches newer syntax on any
interpreter.  It checks syntax only: ``ast.parse`` with ``feature_version``
rejects grammar that 3.10 lacks (``except*``, type parameter lists, and
the like), not library calls or behaviour that changed after 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    assert any(p.name == "models.py" for p in SOURCES)
    assert any(p.parent.name == "perfbench" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
