"""Rules on the library's source that the tests can check by reading it.

No verdict may depend on an `assert`: `python -O` strips them.  Soundness
checks in `balanced` are explicit (`exact.require` raises `InvariantError`).
Every definition in `balanced` is used by the library or exported.
"""

import ast
from collections import Counter
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


# the attribute writes outside an `__init__` or `__post_init__`, each with its reason
WRITE_EXCEPTIONS = {
    # the error mapping wraps the top group once; test_error_mapping_is_applied_once_at_the_group
    ("cli.py", "", "main.invoke"),
    # a local defaultdict that numbers new keys: `default_factory` is how it is configured
    ("exact.py", "_encode", "index.default_factory"),
}


def called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def attribute_writes(tree):
    """(enclosing scope, in an __init__, written object, `obj.attr`, line) of
    every attribute write: a store or delete of `obj.attr` in any statement or
    target, or a call of `setattr`, `delattr` or any `__setattr__` /
    `__delattr__`, whose first argument is the object (`attr` is `?` unless
    the name is a literal).  The scope is the dotted names of the enclosing
    classes and functions; "in an __init__" means directly in a class's own
    `__init__` or `__post_init__`."""
    found = []

    def visit(node, scope):
        obj = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            obj, attr = ast.unparse(node.value), node.attr
        elif isinstance(node, ast.Call) and called_name(node) in (
                "setattr", "delattr", "__setattr__", "__delattr__"):
            args = node.args
            obj = ast.unparse(args[0]) if args else ""
            attr = args[1].value if len(args) > 1 and isinstance(args[1], ast.Constant) else "?"
        if obj is not None:
            in_init = len(scope) >= 2 and scope[-2][0] == "class" and scope[-1] in (
                ("def", "__init__"), ("def", "__post_init__"))
            found.append((".".join(name for _, name in scope), in_init, obj, f"{obj}.{attr}",
                          node.lineno))
        if isinstance(node, ast.ClassDef):
            scope = scope + (("class", node.name),)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (("def", node.name),)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def misplaced_writes(tree, filename=""):
    """`file:line in scope` of every attribute write that is not on `self` in
    its class's own `__init__` or `__post_init__`, nor in WRITE_EXCEPTIONS."""
    return [f"{filename}:{line} in {scope or 'module'}"
            for scope, in_init, obj, target, line in attribute_writes(tree)
            if not (in_init and obj == "self") and (filename, scope, target) not in WRITE_EXCEPTIONS]


def test_attributes_are_written_only_while_an_object_is_built():
    """A library value is complete and checked when it is built and cannot
    change afterwards: a cached table, a verified flag or a known order
    written later could disagree with the value it describes."""
    found, written = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += misplaced_writes(tree, path.name)
        written |= {(path.name, scope, target) for scope, _, _, target, _ in attribute_writes(tree)}
    assert found == []
    assert WRITE_EXCEPTIONS <= written  # no stale exception


def test_attribute_write_rule_sees_every_form():
    tree = ast.parse(
        "class G:\n"
        "    def __init__(self, other):\n"
        "        self.a = 1\n"
        "        object.__setattr__(self, 'b', 2)\n"
        "        other.c = 3\n"
        "        def inner():\n"
        "            self.d = 4\n"
        "    def f(self):\n"
        "        self._order = 1\n"
        "        a.b._order += 2\n"
        "        x._order: int = 3\n"
        "        (y._order, [z.w, *v.u]) = 4, (5, 6)\n"
        "        for q.i in range(3): pass\n"
        "        del s._verified_on\n"
        "        setattr(self, '_order', 5)\n"
        "        object.__setattr__(self, '_first_stabilizer', 6)\n"
        "        self.items[0] = self.items.append(7)\n"
        "    @dataclass\n"
        "    class H:\n"
        "        def __post_init__(self):\n"
        "            object.__setattr__(self, 'x', 1)\n"
        "            delattr(self, 'y')\n"
        "def __init__(self):\n"
        "    self.z = 8\n"
        "with open(p) as grp.f:\n"
        "    main.invoke = wrap(main.invoke)\n"
        "main.other = 9\n"
    )
    assert misplaced_writes(tree) == [
        ":5 in G.__init__", ":7 in G.__init__.inner", ":9 in G.f", ":10 in G.f",
        ":11 in G.f", ":12 in G.f", ":12 in G.f", ":12 in G.f", ":13 in G.f", ":14 in G.f",
        ":15 in G.f", ":16 in G.f", ":24 in __init__", ":25 in module", ":26 in module",
        ":27 in module"]
    # in cli.py, `main.invoke` is excused, and `grp.f` and `main.other` are not
    assert misplaced_writes(tree, "cli.py")[-3:] == [
        "cli.py:24 in __init__", "cli.py:25 in module", "cli.py:27 in module"]
    assert [w[3] for w in attribute_writes(tree)][7:14] == [
        "y._order", "z.w", "v.u", "q.i", "s._verified_on", "self._order",
        "self._first_stabilizer"]


# the private keywords of PermutationGroup, and the functions that may pass each
TRUSTED_SETTERS = {
    # an order read off a complete chain, or from the search
    "_order": {"PermutationGroup.point_stabilizer", "automorphism_group"},
    # the stabilizer of the search's first individualized vertex
    "_first_stabilizer": {"automorphism_group"},
}


def private_keywords(tree):
    """(keyword, enclosing function as Class.method or function, line) of
    every call that passes a keyword named in TRUSTED_SETTERS."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            found.extend((k.arg, ".".join(scope), node.lineno)
                         for k in node.keywords if k.arg in TRUSTED_SETTERS)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def misplaced_keywords(*args):
    """`file:line arg in scope` of every call that passes one of the keywords
    `args` from a function not trusted with it in TRUSTED_SETTERS."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {arg} in {scope or 'module'}"
                  for arg, scope, line in private_keywords(tree)
                  if arg in args and scope not in TRUSTED_SETTERS[arg]]
    return found


def test_trusted_order_is_set_only_where_it_is_known():
    """A chain told a group's order stops as soon as it reaches it, so only a
    complete chain (`point_stabilizer`) or the search (`automorphism_group`)
    may build a group with `_order`."""
    assert misplaced_keywords("_order") == []


def test_first_stabilizer_is_set_only_by_the_search():
    """`check_group_balanced` uses a group's `_first_stabilizer` for the orbit
    of its point, so only the search, which found it, may build a group with
    it."""
    assert misplaced_keywords("_first_stabilizer") == []


def test_private_keyword_rule_sees_every_form():
    tree = ast.parse(
        "class G:\n"
        "    def point_stabilizer(self):\n"
        "        return G(1, (), _order=2)\n"
        "def automorphism_group(g):\n"
        "    return f(x, _order=1, _first_stabilizer=s, _verified_on=t, order=3)\n"
        "h = PermutationGroup(2, _order=c, **extra)\n"
    )
    assert private_keywords(tree) == [
        ("_order", "G.point_stabilizer", 3), ("_order", "automorphism_group", 5),
        ("_first_stabilizer", "automorphism_group", 5), ("_order", "", 6)]


def argwhere_triu_calls(tree):
    """Lines of every `argwhere(triu(...))` call, ascending."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and called_name(node) == "argwhere" and node.args
                  and isinstance(node.args[0], ast.Call) and called_name(node.args[0]) == "triu")


def test_first_pairs_come_from_one_function():
    """The first pair i < j of a mask in row-major order is `exact._first_pair`,
    one argmax; no module finds it with its own `argwhere(triu(...))`."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in argwhere_triu_calls(tree)]
    assert found == []


def test_argwhere_triu_rule_sees_every_form():
    tree = ast.parse(
        "a = np.argwhere(np.triu(m, 1))\n"
        "b = numpy.argwhere(numpy.triu(m != m.T, 1))[0]\n"
        "c = argwhere(triu(x))\n"
        "d = np.argwhere(m)\n"
        "e = np.triu(np.argwhere(m))\n"
        "f = np.flatnonzero(np.triu(m, 1))\n"
        "def g():\n"
        "    return np.argwhere(np.triu(m, k=1)).tolist()\n"
    )
    assert argwhere_triu_calls(tree) == [1, 2, 3, 8]


def bareiss_names(tree):
    """Lines that name `_bareiss`, ascending: a use, an attribute, a
    definition or an import, under its own name or an alias."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [name for alias in node.names for name in (alias.name, alias.asname)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        if "_bareiss" in names:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_exact_runs_the_elimination():
    """`exact._bareiss` runs behind `_Elimination` and `integer_rank`.  A module
    that called it on its own would be a second encode and eliminate pipeline,
    and a matrix it held could be eliminated twice."""
    found = []
    for path in SOURCES:
        if path.name != "exact.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{line}" for line in bareiss_names(tree)]
    assert found == []


def test_bareiss_rule_sees_every_form():
    tree = ast.parse(
        "from .exact import _bareiss\n"
        "from .exact import _bareiss as eliminate\n"
        "perm, pivots, a = exact._bareiss(m)\n"
        "f = _bareiss\n"
        "def _bareiss(a):\n"
        "    return a\n"
        "bareiss(m)\n"
        "x = exact._bareiss_rows(m)\n"
        "y = '_bareiss'\n"
    )
    assert bareiss_names(tree) == [1, 2, 3, 4, 5]


def is_object(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "object"


def arithmetic_switches(tree):
    """Lines, ascending, that name an int64 or float64 limit or pick a dtype
    inline: a power 2**53, 2**62 or 2**63 or a shift 1 << 53, 62 or 63, a
    call `.astype(object)`, or a conditional expression with `object` as a
    branch."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) \
                and isinstance(node.right, ast.Constant) and node.right.value in (53, 62, 63):
            if (node.left.value, type(node.op)) in ((2, ast.Pow), (1, ast.LShift)):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and called_name(node) == "astype":
            if any(map(is_object, [*node.args, *(k.value for k in node.keywords)])):
                lines.add(node.lineno)
        elif isinstance(node, ast.IfExp) and (is_object(node.body) or is_object(node.orelse)):
            lines.add(node.lineno)
    return sorted(lines)


def test_exact_alone_picks_the_arithmetic():
    """`exact.int_dtype` and `exact.int_product` make every choice between
    float64, int64 and Python ints, from a bound the caller proves, and
    `exact` alone holds the limits: lowering them in a test forces every
    site at once."""
    found = []
    for path in SOURCES:
        if path.name != "exact.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{line}" for line in arithmetic_switches(tree)]
    assert found == []


def test_arithmetic_switch_rule_sees_every_form():
    tree = ast.parse(
        "a = 2**63\n"
        "b = x < 2 ** 62 * n\n"
        "c = 1 << 63\n"
        "d = m.astype(object)\n"
        "e = np.int64 if n < k else object\n"
        "f = object if big else np.float64\n"
        "g = 2**64 + (1 << 20)\n"
        "h = m.astype(np.int64)\n"
        "i = np.array(v, dtype=object)\n"
        "j = 2**53 - 1\n"
        "k = m.astype(dtype=object, copy=False)\n"
        "l = 3**63\n"
    )
    assert arithmetic_switches(tree) == [1, 2, 3, 4, 5, 6, 10, 11]


def unnamed_definitions(trees, exported=()):
    """(name, line) of every function, method and class that no code outside
    its own body names, as a Name or an attribute, and that is not exported.
    Dunders and click commands (decorated `.command` or `.group`) are called
    from outside the sources.  Names are matched as names, so two methods of
    one name count as one another's uses."""
    named = Counter()
    for tree in trees:
        named.update(names_in(tree))
    found = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or is_click_command(node):
                continue
            if named[name] == names_in(node)[name] and name not in exported:
                found.append((name, node.lineno))
    return found


def names_in(node) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def is_click_command(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def test_every_definition_is_used_in_the_library_or_exported():
    """Code that only tests call belongs in `tests/`, next to the reference
    module of its layer."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    assert unnamed_definitions(trees, set(balanced.__all__)) == []


def test_unnamed_definition_rule_sees_every_form():
    tree = ast.parse(
        "import click\n"
        "def used():\n"
        "    return 1\n"
        "def unused():\n"
        "    return used()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def exported():\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def method(self):\n"
        "        return self.other()\n"
        "    def other(self):\n"
        "        pass\n"
        "@click.group()\n"
        "def main():\n"
        "    pass\n"
        "@main.command('run')\n"
        "def run_cmd():\n"
        "    pass\n"
        "C()\n"
    )
    assert unnamed_definitions([tree], {"exported"}) == [
        ("unused", 4), ("recursive", 6), ("method", 13)]


def random_sources(tree):
    """Lines that reach a random source, ascending: an import of `random` or
    `numpy.random`, an attribute `.random`, or `default_rng` by any name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(part in ("random", "default_rng") for name in names for part in name.split(".")):
            lines.add(node.lineno)
    return sorted(lines)


def test_symmetry_uses_no_random_source():
    """The search's key weights are a fixed splitmix64 table, so every run
    prints the same generators, and importing `symmetry` does not import
    `numpy.random`."""
    path = next(p for p in SOURCES if p.name == "symmetry.py")
    assert random_sources(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_random_source_rule_sees_every_form():
    tree = ast.parse(
        "import random\n"
        "import numpy.random as npr\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "x = np.random.rand(3)\n"
        "rng = np.random.default_rng(0)\n"
        "y = default_rng(1)\n"
        "import numpy as np\n"
        "z = np.arange(3)\n"
        "w = shuffled(z)\n"
    )
    assert random_sources(tree) == [1, 2, 3, 4, 5, 6, 7]


def input_errors_applications(tree):
    """(lines of every call of `input_errors`, lines of every definition it
    decorates), the decorator bare or called, by name or as an attribute."""
    def name(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)

    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and called_name(node) == "input_errors"]
    decorated = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and any(name(dec) == "input_errors" for dec in node.decorator_list)]
    return sorted(calls), sorted(decorated)


def test_error_mapping_is_applied_once_at_the_group():
    """`cli.input_errors` maps library errors to exit codes 2 and 4.  Applied
    once, to the top group's `invoke`, it covers every command, including
    one added later; a decorator on a single command would be a second owner."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    calls, decorated = input_errors_applications(ast.parse(path.read_text(encoding="utf-8")))
    assert len(calls) == 1
    assert decorated == []


def test_input_errors_rule_sees_every_form():
    tree = ast.parse(
        "main.invoke = input_errors(main.invoke)\n"
        "@input_errors\n"
        "def a():\n"
        "    pass\n"
        "@cli.input_errors\n"
        "def b():\n"
        "    pass\n"
        "@click.command()\n"
        "@input_errors()\n"
        "class C:\n"
        "    pass\n"
        "wrapped = cli.input_errors(f)\n"
        "alias = input_errors\n"
        "@other\n"
        "def d():\n"
        "    return other_errors(d)\n"
    )
    assert input_errors_applications(tree) == ([1, 9, 12], [3, 6, 10])


# the message of each rule on input values, written once in the sources
INPUT_RULES = [
    "coords[{i}] {problem}",  # float rows: finite and nonzero
    "'label' must be a string",
    "point labels must be strings",
    "cap {cap} < 1",
    "{what}[{i}] must be a list of entries",  # a matrix row is a list, tuple or array
    "{what} must be a list of rows",  # and so is the matrix
    "adjacency row {i} has length",  # a graph's rules, whichever reader gave the rows
    "adjacency entry [{i}][{j}] = {entries[i, j]} not 0/1",
    "adjacency not symmetric at",
    "adjacency diagonal [{loops[0]}][{loops[0]}] nonzero",
    "bad 'coords' array: {exc}",  # float rows convert to one float array, once
]


def test_each_input_rule_has_one_owner():
    """The readers check the JSON document; the library types own every rule
    about values.  So each rule's message is written in one place, and
    `files` neither parses a rational nor tests a float for finiteness."""
    text = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert {rule: sum(t.count(rule) for t in text) for rule in INPUT_RULES} == {
        rule: 1 for rule in INPUT_RULES}
    path = next(p for p in SOURCES if p.name == "files.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {called_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & {"rational", "isfinite", "check_labels", "check_cap"} == set()


def rational_front_end(tree):
    """Lines, ascending, that call `Fraction` by any path or import `rational`
    or `_exact` under any alias: the parsing and Fraction-building that an
    integer enumerator has no use for."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called_name(node) == "Fraction":
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] in ("rational", "_exact") for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_enumerator_takes_and_gives_integers():
    """`lattice.enumerate_quadratic` takes Python ints and yields them: every
    caller scales once, to integers, before it enumerates.  The lattice module
    therefore parses no rational and builds no Fraction."""
    path = next(p for p in SOURCES if p.name == "lattice.py")
    assert rational_front_end(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_rational_front_end_rule_sees_every_form():
    tree = ast.parse(
        "from .exact import rational\n"
        "from .exact import _exact as parse, require\n"
        "import balanced.exact.rational\n"
        "v = Fraction(top, delta)\n"
        "w = fractions.Fraction(1)\n"
        "from fractions import Fraction\n"
        "x = rational_rows(r)\n"
        "y = exact.rational\n"
        "z = isinstance(v, Fraction)\n"
    )
    assert rational_front_end(tree) == [1, 2, 3, 4, 5]


def calls_named(tree, name):
    """Lines, ascending, that call a function `name` by any path or import
    one under any alias."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called_name(node) == name:
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == name for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_float_lengths_have_one_routine():
    """`numerics._lengths` computes every vector length of float mode and
    rescues the sums of squares that leave float64's normal range, which
    np.linalg.norm does not."""
    path = next(p for p in SOURCES if p.name == "numerics.py")
    assert calls_named(ast.parse(path.read_text(encoding="utf-8")), "norm") == []


def test_norm_rule_sees_every_form():
    tree = ast.parse(
        "a = np.linalg.norm(x, axis=1)\n"
        "from numpy.linalg import norm as n\n"
        "b = norm(x)\n"
        "import numpy.linalg.norm\n"
        "c = np.sqrt((x**2).sum(axis=1))\n"
        "d = normalize(x)\n"
    )
    assert calls_named(tree, "norm") == [1, 2, 3, 4]


def test_integers_have_one_coder():
    """`exact._distinct` codes every integer array by its distinct entries:
    the Gram value table, the scanned Gram keys and the edge colours.  No
    module codes one with np.unique, a second coder with its own rules on
    inverse shapes and on Python ints."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in calls_named(tree, "unique")]
    assert found == []


def test_unique_rule_sees_every_form():
    tree = ast.parse(
        "a = np.unique(m, return_inverse=True)\n"
        "from numpy import unique as distinct\n"
        "b = unique(m)\n"
        "c = numpy.unique(m.ravel())[0]\n"
        "d = uniques(m)\n"
        "e = np.unique\n"
    )
    assert calls_named(tree, "unique") == [1, 2, 3, 4]
