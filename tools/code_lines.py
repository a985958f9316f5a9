"""Count the code lines of a package's modules.

A code line holds a token other than a comment, a newline or an indent;
the lines of module, class and function docstrings (found by ``ast``) do
not count.  Blank lines, comments and docstrings are thus all left out.

    python tools/code_lines.py [DIR]    # DIR defaults to src/hhbounds

prints each module's count, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the module at path."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/hhbounds")
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    counts["total"] = sum(counts.values())
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:{width}} {count:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
