"""Count the code lines of each ``src/dualitymap`` module and their total.

A code line is a line that holds a token of the program: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
a class or a function) do not count.  Only the stdlib is used: ``tokenize``
finds the lines that hold tokens, ``ast`` finds the docstrings.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dualitymap"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a token other than a comment or a docstring."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            if docstring and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.relative_to(SRC.parent.parent)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
