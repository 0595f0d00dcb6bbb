"""Count the code lines and the options of each ``src/dualitymap`` module and their totals.

A code line is a line that holds a token of the program: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
a class or a function) do not count.  An option is a parameter with a
default, a parameter named ``*tol`` of a public function (a name without a
leading underscore, or a dunder), or a field with a default of a
``@dataclass`` class: something a caller may vary.  A private helper's
``*tol`` only passes on a tolerance that its caller took already.  Only the stdlib is
used: ``tokenize`` finds the lines that hold tokens, one ``ast`` walk finds
the docstrings and the options.

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


def _options(node: ast.AST) -> int:
    """The options ``node`` declares: defaulted parameters of a function, ``*tol`` ones of a public one, defaulted fields of a dataclass."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args, name = node.args, getattr(node, "name", "_")  # a lambda is private
        public = not name.startswith("_") or name.endswith("__")
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        tols = [arg for arg in positional + args.kwonlyargs if public and arg.arg.endswith("tol")]
        return len({arg.arg for arg in defaulted + tols})
    if isinstance(node, ast.ClassDef) and any(
        ast.unparse(decorator).split("(")[0] == "dataclass" for decorator in node.decorator_list
    ):
        return sum(isinstance(field, ast.AnnAssign) and field.value is not None for field in node.body)
    return 0


def count(text: str) -> tuple:
    """(code lines, options) of ``text``: lines that hold a token other than a comment or a docstring, and options."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    options = 0
    for node in ast.walk(ast.parse(text)):
        options += _options(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            if docstring and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines), options


def main() -> None:
    total = options = 0
    print("  code options")
    for path in sorted(SRC.glob("*.py")):
        lines, found = count(path.read_text())
        total += lines
        options += found
        print(f"{lines:6d} {found:7d} {path.relative_to(SRC.parent.parent)}")
    print(f"{total:6d} {options:7d} total")


if __name__ == "__main__":
    main()
