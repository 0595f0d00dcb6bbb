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
