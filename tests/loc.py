"""Lines of code per ``src/phasecode`` module, and in total.

A line counts when it holds code: blank lines, comment lines and docstrings
(the string that opens a module, class or function) are not counted.

    python tests/loc.py [SRC_DIR]

SRC_DIR defaults to this checkout's ``src/phasecode``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def lines_of_code(source: str) -> int:
    code = {
        line
        for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline)
        if tok.type not in SKIP
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code -= set(range(first.lineno, first.end_lineno + 1))
    return len(code)


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "phasecode"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = lines_of_code(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
