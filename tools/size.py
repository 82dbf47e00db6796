"""Print the size of the package source: lines and AST statements.

Lines are counted as ``wc -l`` counts them (newline characters) over every
``.py`` file under ``src/``. Statements are the ``ast.stmt`` nodes of those
files, docstrings excluded: a string-constant expression that opens a module,
class or function body is not counted. Run from anywhere:

    python tools/size.py [--base REV]

``--base REV`` also counts ``src/`` as committed at the git revision REV,
read through ``git show``, and prints the change from it to the working tree.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def sizes(texts: list[bytes]) -> tuple[int, int, int]:
    """Files, lines and statements of the sources ``texts``."""
    return (len(texts), sum(text.count(b"\n") for text in texts),
            sum(statements(ast.parse(text)) for text in texts))


def _git(src: Path, *args: str) -> bytes:
    proc = subprocess.run(["git", *args], cwd=src, capture_output=True)
    if proc.returncode:
        sys.exit(f"size: git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def _report(name: str, size: tuple[int, int, int]) -> str:
    files, lines, stmts = size
    return f"{name}: {files} files, {lines:,} lines, {stmts:,} statements (docstrings excluded)"


def main(src: Path = SRC, base: str | None = None) -> int:
    now = sizes([path.read_bytes() for path in sorted(src.rglob("*.py"))])
    print(_report("src", now))
    if base is not None:
        # run in ``src``, ls-tree lists that directory, relative to it
        names = _git(src, "ls-tree", "-r", "-z", "--name-only", base).split(b"\0")
        then = sizes([_git(src, "show", f"{base}:./{name.decode()}")
                      for name in names if name.endswith(b".py")])
        print(_report(f"src at {base}", then))
        print(f"change: {now[1] - then[1]:+,} lines, {now[2] - then[2]:+,} statements")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the size of the package source.")
    parser.add_argument("--base", metavar="REV", help="also count src at git revision REV")
    sys.exit(main(base=parser.parse_args().base))
