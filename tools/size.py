"""Print the size of the package source: lines and AST statements.

Lines are counted as ``wc -l`` counts them (newline characters) over every
``.py`` file under ``src/``. Statements are the ``ast.stmt`` nodes of those
files, docstrings excluded: a string-constant expression that opens a module,
class or function body is not counted. Run from anywhere:

    python tools/size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.AST) -> int:
    """``ast.stmt`` nodes under ``tree``, docstrings excluded."""
    return sum(
        isinstance(child, ast.stmt) and not _is_docstring(child, parent)
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    )


def main(src: Path = SRC) -> int:
    files = sorted(src.rglob("*.py"))
    texts = [path.read_bytes() for path in files]
    lines = sum(text.count(b"\n") for text in texts)
    stmts = sum(statements(ast.parse(text)) for text in texts)
    print(f"src: {len(files)} files, {lines:,} lines, {stmts:,} statements (docstrings excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
