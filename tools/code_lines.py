"""Count the code lines of Python modules: lines that hold code, leaving out
blank lines, comment-only lines and docstrings (the string that opens a
module, class or function body). Standard library only.

    python tools/code_lines.py [PATH ...]    # default: src/dron

A path is a module or a directory searched for ``*.py``; one line per module
is printed, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths: List[str]) -> Iterator[Path]:
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: List[str]) -> int:
    total = 0
    for module in _modules(argv or ["src/dron"]):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
