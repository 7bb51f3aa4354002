"""Rules on the library's source that the tests can check by reading it.

No verdict may depend on an `assert`: `python -O` strips them.  Soundness
checks in `balanced` are explicit (`exact.require` raises `InvariantError`).
"""

import ast
from pathlib import Path

import balanced

SOURCES = sorted(Path(balanced.__file__).parent.rglob("*.py"))


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"__init__.py", "symmetry.py", "balance.py", "exact.py"} <= names


def test_no_assert_statements():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
