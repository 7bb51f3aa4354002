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


TRUSTED_ORDER_SETTERS = {
    "PermutationGroup.order",
    "PermutationGroup.point_stabilizer",
    "automorphism_group",
}


def order_assignments(tree):
    """(enclosing function as Class.method or function, line) of every
    assignment to an attribute `_order`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "_order":
                        found.append((".".join(scope), node.lineno))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_trusted_order_is_set_only_where_it_is_known():
    """A chain told a group's order stops as soon as it reaches it, so an
    order may be set only from a complete chain (`order`, `point_stabilizer`)
    or from the search (`automorphism_group`)."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} in {scope or 'module'}"
                  for scope, line in order_assignments(tree)
                  if scope not in TRUSTED_ORDER_SETTERS]
    assert found == []


def test_order_assignment_rule_sees_every_form():
    tree = ast.parse(
        "class G:\n"
        "    _order = None\n"
        "    def f(self):\n"
        "        self._order = 1\n"
        "        a.b._order += 2\n"
        "        x._order: int = 3\n"
        "        (y._order, z) = 4, 5\n"
        "def g():\n"
        "    grp._order = 6\n"
    )
    assert order_assignments(tree) == [("G.f", 4), ("G.f", 5), ("G.f", 6), ("G.f", 7), ("g", 9)]
