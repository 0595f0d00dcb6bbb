"""Rules on the source of ``src/dualitymap`` that a behaviour test would see on one Python only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualitymap"

# From Python 3.12 on, the builtin ``sum`` of floats compensates its rounding,
# so a float it returns can differ by Python version.  It may only pick a
# path, as it does in ``_finite_list``, where a finite sum means every term is
# finite on every Python.
SUM_ALLOWED = {("coderivative", "_finite_list")}


def builtin_sum_uses(tree: ast.AST, module: str) -> list:
    """(module, enclosing top-level function or class) of each read of the name ``sum``, a call or not."""
    uses = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id == "sum" and isinstance(inner.ctx, ast.Load):
                uses.append((module, owner))
    return uses


def test_src_reads_the_builtin_sum_only_where_its_result_picks_a_path():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        uses += builtin_sum_uses(ast.parse(path.read_text()), path.stem)
    assert set(uses) <= SUM_ALLOWED, [u for u in uses if u not in SUM_ALLOWED]
    assert set(uses) == SUM_ALLOWED  # the one use is still there, so the rule still reads the code it names


@pytest.mark.parametrize("source, found", [
    ("def f(xs):\n    return sum(xs)\n", [("m", "f")]),
    ("class C:\n    def g(self, xs):\n        return max(map(sum, xs))\n", [("m", "C")]),
    ("total = sum([1.0, 2.0])\n", [("m", None)]),
    ("import math\n\ndef f(xs):\n    return math.fsum(xs) + xs.sum()\n", []),
])
def test_the_sum_rule_finds_every_read_of_the_name(source, found):
    assert builtin_sum_uses(ast.parse(source), "m") == found


# ``ndarray.all()`` / ``.any()`` and ``np.all`` / ``np.any`` cost two to three
# times one C count on the small arrays of one element, so a whole array is
# tested by ``coderivative._every`` / ``_some`` (``np.count_nonzero``).  A
# reduction along an axis (``m.all(-1)``) gives one verdict per row and keeps
# the method: ``np.count_nonzero`` along an axis costs more than it.
def whole_array_tests(tree: ast.AST, module: str) -> list:
    """(module, line) of each ``.all()`` / ``.any()`` call given no axis, and of each read of ``np.all`` / ``np.any``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("all", "any"):
            if not node.args and all(k.arg != "axis" for k in node.keywords):
                found.add((module, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr in ("all", "any"):
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.add((module, node.lineno))
    return sorted(found)


def test_src_tests_a_whole_array_by_one_c_count():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += whole_array_tests(ast.parse(path.read_text()), path.stem)
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("ok = (x > 0.0).all()\n", [("m", 1)]),
    ("def f(m):\n    return not m.any(keepdims=True)\n", [("m", 2)]),
    ("import numpy as np\nb = np.any(x)\nc = np.all(x, axis=0)\nd = list(map(np.all, xs))\n", [("m", 2), ("m", 3), ("m", 4)]),
    ("rows = x.all(-1) | x.any(axis=1)\nok = all(v > 0.0 for v in xs) and any(xs)\n", []),
])
def test_the_count_rule_finds_every_whole_array_test(source, found):
    assert whole_array_tests(ast.parse(source), "m") == found
