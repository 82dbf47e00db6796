"""The repository tools under ``tools/``."""

import ast
import importlib.util
import subprocess
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


def test_size_base_counts_src_at_a_revision(tmp_path, capsys):
    """``--base REV`` counts ``src`` as committed at REV, not as on disk, and
    prints the change to the working tree."""
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (src / "notes.txt").write_text("not counted\n", encoding="utf-8")
    git = ["git", "-c", "user.name=size", "-c", "user.email=size@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    (src / "a.py").write_text('"""Doc."""\nx = 1\n\ny = 2\nz = 3\n', encoding="utf-8")
    (src / "b.py").write_text("w = 4\n", encoding="utf-8")
    assert load_size().main(tmp_path / "src", base="HEAD") == 0
    assert capsys.readouterr().out == (
        "src: 2 files, 6 lines, 4 statements (docstrings excluded)\n"
        "src at HEAD: 1 files, 2 lines, 1 statements (docstrings excluded)\n"
        "change: +4 lines, +3 statements\n"
    )
