"""List every statement of ``src/dualitymap`` that the tier-1 tests never run.

Runs the tier-1 suite (``pytest`` over ``tests/``) in this process under a
``sys.settrace`` hook that records the lines executed in the package, then
walks each module's ``ast``: a statement counts as run when any line it spans
was executed (a compound statement also through its body).  Docstrings do
not count.  Prints each statement never run as ``file:line`` and exits 1 if
a test fails or any statement is listed besides the two that no test can
run in-process: the body of ``cli.entry`` and of the ``__main__`` guard,
the console-script lines.

    python tools/statement_coverage.py [extra pytest arguments]

Besides pytest it needs only the stdlib (``sys.settrace`` and ``ast``, no
coverage package); the trace makes the suite about three times slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualitymap"


def _statements(tree: ast.Module) -> list:
    """Every statement node but docstrings."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring compiles to no code
        found.append(node)
    return found


def _script_lines(tree: ast.Module) -> set:
    """The lines of ``entry``'s body and of the body of the ``__main__`` guard."""
    lines = set()
    for node in tree.body:
        main_guard = (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__"
        )
        if main_guard or (isinstance(node, ast.FunctionDef) and node.name == "entry"):
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def unexecuted(executed: dict) -> tuple:
    """(missed, allowed): the ``file:line`` of each statement never run, apart from and among the script lines."""
    missed, allowed = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        ran, script = executed.get(str(path), set()), _script_lines(tree)
        for node in _statements(tree):
            if ran.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                (allowed if node.lineno in script else missed).append(where)
    return sorted(set(missed), key=_order), sorted(set(allowed), key=_order)


def _order(where: str) -> tuple:
    name, line = where.rsplit(":", 1)
    return name, int(line)


def main(argv: list) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed, allowed = unexecuted(executed)
    for where in missed:
        print(f"not run: {where}")
    for where in allowed:
        print(f"not run (console script only): {where}")
    print(f"{len(missed)} statement(s) of src/dualitymap not run by the tier-1 tests")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
