"""Lint for the exact-arithmetic contract: no floating point in the package.

Every module under src/tempered_atlas is parsed and searched for a float
literal, a math import other than the integer functions gcd, lcm and isqrt,
and any use of the name ``float``, with no exception.

A second rule keeps the integer scales in one place: only ``weights.py``,
which defines them, and ``groups.py``, whose ``IntegerFrame`` hands them on
per descriptor, read the private ``_den`` or ``_int_gram`` of a weight or
form.

A third rule keeps trust off the public tuple type: no module compares a
type with ``tuple`` by identity, so the hot path's unchecked numerators
are told apart only by their private subclass.

A fourth rule keeps each public weight argument a Weight: no module tests
``isinstance(x, tuple)`` or ``isinstance(x, list)``, alone or in a tuple
of types, so no function reads a weight in a second form.

A fifth rule keeps no dead state: every name in a class's ``__slots__``
is read as an attribute somewhere in the package outside an ``__init__``,
so a slot that only its constructor reads is a local instead.

A sixth rule keeps the dominance tests on the plain form: no call of
``min`` or ``max`` passes a ``default=`` keyword, which costs about twice a
plain call; a guard on the length, ``n and min(v[:n]) < 0``, reads the same.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tempered_atlas"
MODULES = sorted(SRC.glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "isqrt"}
PRIVATE_SCALES = {"_den", "_int_gram"}
SCALE_OWNERS = {"weights.py", "groups.py"}


def float_uses(tree: ast.Module) -> list[str]:
    """One line per offending node, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in INTEGER_MATH]
            if bad:
                found.append(f"{node.lineno}: from math import {', '.join(bad)}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
    return found


def private_scale_reads(tree: ast.Module, module: str) -> list[str]:
    """One line per attribute ``x._den`` or ``x._int_gram`` outside the two
    modules that own the integer scales, as 'line: .name'."""
    if module in SCALE_OWNERS:
        return []
    return [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_SCALES
    ]


def tuple_identity_tests(tree: ast.Module) -> list[str]:
    """One line per comparison ``... is tuple`` or ``... is not tuple``,
    either side, as 'line: is tuple'."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            names = {x.id for x in (a, b) if isinstance(x, ast.Name)}
            if isinstance(op, (ast.Is, ast.IsNot)) and "tuple" in names:
                word = "is" if isinstance(op, ast.Is) else "is not"
                found.append(f"{node.lineno}: {word} tuple")
    return found


def container_type_tests(tree: ast.Module) -> list[str]:
    """One line per ``isinstance(x, tuple)`` or ``isinstance(x, list)``,
    each type also when it is one of a tuple of types, as 'line:
    isinstance tuple'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1]
            for t in types.elts if isinstance(types, ast.Tuple) else [types]:
                if isinstance(t, ast.Name) and t.id in ("tuple", "list"):
                    found.append(f"{node.lineno}: isinstance {t.id}")
    return found


def attribute_loads(tree: ast.Module) -> set[str]:
    """Every name read as an attribute, ``x.name`` in a load, outside the
    body of any function named ``__init__``."""
    found = set()
    stack = [tree]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            stack.append(node)
    return found


def dead_slots(trees: dict[str, ast.Module]) -> list[str]:
    """One line per name in a class's ``__slots__`` that no module of trees
    reads as an attribute outside an ``__init__``, as 'module:line: Class.name'."""
    read = set().union(*map(attribute_loads, trees.values()))
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    value = stmt.value
                    names = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                    found += [
                        f"{module}:{stmt.lineno}: {cls.name}.{n.value}"
                        for n in names
                        if isinstance(n, ast.Constant) and n.value not in read
                    ]
    return found


def defaulted_extrema(tree: ast.Module) -> list[str]:
    """One line per call of the name ``min`` or ``max`` with a ``default=``
    keyword, as 'line: min default'."""
    return [
        f"{node.lineno}: {node.func.id} default"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max") and any(k.arg == "default" for k in node.keywords)
    ]


def test_the_package_has_modules():
    assert {"weights.py", "classify.py", "krep.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_uses(tree) == []


@pytest.mark.parametrize(
    "source, expected",
    (
        ("x = 0.5", ["1: literal 0.5"]),
        ("x = 1e3", ["1: literal 1000.0"]),
        ("import math", ["1: import math"]),
        ("from math import gcd, sqrt", ["1: from math import sqrt"]),
        ("from math import gcd, isqrt, lcm", []),
        ("y = float(x)", ["1: name float"]),
        ("def f(v):\n    return isinstance(v, float)", ["2: name float"]),
        # Even a test that rejects float input names it: none is exempt.
        ("def _coerce(v):\n    if isinstance(v, float):\n        raise TypeError", ["2: name float"]),
    ),
)
def test_lint_flags_each_kind(source, expected):
    assert float_uses(ast.parse(source)) == expected


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_no_private_scale(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_scale_reads(tree, path.name) == []


@pytest.mark.parametrize(
    "source, expected",
    (
        ("q = d.form._den", ["1: ._den"]),
        ("g = form._int_gram[0]", ["1: ._int_gram"]),
        ("n = w._nums\nm = w._den", ["2: ._den"]),
        ("den = frame.den\nscale = frame.scale", []),
    ),
)
def test_scale_lint_flags_each_kind(source, expected):
    assert private_scale_reads(ast.parse(source), "other.py") == expected


def test_scale_lint_allows_only_the_owners():
    source = "x = form._den * form._int_gram[0][0]"
    for owner in SCALE_OWNERS:
        assert private_scale_reads(ast.parse(source), owner) == []
    assert private_scale_reads(ast.parse(source), "krep.py") == ["1: ._den", "1: ._int_gram"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_keys_no_trust_on_the_tuple_type(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert tuple_identity_tests(tree) == []


@pytest.mark.parametrize(
    "source, expected",
    (
        ("ok = type(w) is tuple", ["1: is tuple"]),
        ("ok = type(w) is not tuple", ["1: is not tuple"]),
        ("ok = tuple is type(w)", ["1: is tuple"]),
        ("ok = isinstance(w, tuple)", []),
        ("ok = type(w) is _Numerators", []),
        ("ok = type(w) == tuple", []),
    ),
)
def test_tuple_lint_flags_each_kind(source, expected):
    assert tuple_identity_tests(ast.parse(source)) == expected


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_no_weight_as_a_tuple_or_a_list(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert container_type_tests(tree) == []


@pytest.mark.parametrize(
    "source, expected",
    (
        ("ok = isinstance(w, tuple)", ["1: isinstance tuple"]),
        ("ok = isinstance(w, list)", ["1: isinstance list"]),
        ("ok = isinstance(w, (int, list))", ["1: isinstance list"]),
        ("ok = isinstance(w, (tuple, list))", ["1: isinstance tuple", "1: isinstance list"]),
        ("if x:\n    ok = not isinstance(w, (Weight, tuple))", ["2: isinstance tuple"]),
        ("ok = isinstance(w, Weight)", []),
        ("ok = isinstance(w, (int, Fraction))", []),
        ("ok = type(w) is _Numerators", []),
    ),
)
def test_container_lint_flags_each_kind(source, expected):
    assert container_type_tests(ast.parse(source)) == expected


def test_every_slot_is_read_outside_its_init():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    assert dead_slots(trees) == []


# A class with two slots, then the body of its constructor.
_XY = 'class A:\n    __slots__ = ("x", "y")\n    def __init__(self, v):\n'
_BOTH = ["a.py:2: A.x", "a.py:2: A.y"]


@pytest.mark.parametrize(
    "sources, expected",
    (
        # Stored only, or read only by the constructor: each is dead.
        ({"a.py": _XY + "        self.x = v\n        self.y = self.x"}, _BOTH),
        ({"a.py": 'class A:\n    __slots__ = "x"'}, ["a.py:2: A.x"]),
        ({"a.py": 'class A:\n    __slots__ = ["x"]\ndef f(a):\n    a.x = 1'}, ["a.py:2: A.x"]),
        # A function nested in __init__ is still the constructor.
        ({"a.py": _XY + "        def g():\n            return self.x\n        self.y = g"}, _BOTH),
        # A name passed to getattr is not an attribute load.
        ({"a.py": _XY + "        self.x = self.y = v\n    def f(self):\n"
                        '        return getattr(self, "x"), getattr(self, "y")'}, _BOTH),
        # Read in a method, in a function, or in another module: live.
        ({"a.py": _XY + "        self.x = self.y = v\n    def f(self):\n        return self.x\n"
                        "def g(a):\n    return a.y"}, []),
        ({"a.py": _XY + "        self.x = self.y = v", "b.py": "def f(a):\n    return a.x + a.y"}, []),
        ({"a.py": "class A:\n    __slots__ = ()"}, []),
    ),
)
def test_slot_lint_flags_each_kind(sources, expected):
    assert dead_slots({name: ast.parse(text) for name, text in sources.items()}) == expected


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_calls_no_defaulted_min_or_max(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert defaulted_extrema(tree) == []


@pytest.mark.parametrize(
    "source, expected",
    (
        ("ok = min(v[:n], default=0) >= 0", ["1: min default"]),
        ("top = max(v, default=1)", ["1: max default"]),
        ("p = min(v, key=abs, default=None)", ["1: min default"]),
        ("def f(v):\n    return [max(w, default=0) for w in v]", ["2: max default"]),
        ("ok = not n or min(v[:n]) >= 0", []),
        ("p = min(v, key=abs)\nq = max(a, b)", []),
        ("x = f(v, default=0)", []),
    ),
)
def test_extrema_lint_flags_each_kind(source, expected):
    assert defaulted_extrema(ast.parse(source)) == expected
