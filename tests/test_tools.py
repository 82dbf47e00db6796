"""The repository tools under ``tools/``."""

import ast
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_size():
    spec = importlib.util.spec_from_file_location("size", TOOLS / "size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_counts_statements_without_docstrings():
    source = '''"""Module docstring."""
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        "a string statement that is no docstring"
        return 1
'''
    # import, class, def, the second string, return
    assert load_size().statements(ast.parse(source)) == 5


def test_size_prints_lines_and_statements(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n\ny = 2\n', encoding="utf-8")
    assert load_size().main(tmp_path) == 0
    assert capsys.readouterr().out == "src: 1 files, 4 lines, 2 statements (docstrings excluded)\n"
