"""`tools/code_lines.py` on a small module whose lines of each kind are known."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# docstrings on lines 1-3 (the blank line 2 included), 9-10 and 16;
# comments alone on lines 5 and 11; blank lines 4, 7, 14 and 17; the rest
# code: 6, 8, 12 with its trailing comment, 13, 15, and 18-21, the lines of
# a multi-line string that is not a docstring, its blank line 20 included
FIXTURE = '''"""A module docstring

over three lines."""

# a comment line
import os

def f(x):
    """f's docstring,
    two lines."""
    # a comment inside f
    y = x + 1  # a trailing comment
    return y

class C:
    """One line."""

    text = """a string
that is not a docstring

ends here"""
'''


def test_each_line_is_counted_once_as_its_kind(tmp_path):
    assert code_lines.count(FIXTURE) == {"code": 9, "docstring": 6, "comment": 2, "blank": 4}
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    rows = code_lines.table([str(path), str(path)])
    assert rows[0].split() == ["module", "code", "docstring", "comment", "blank", "total"]
    assert rows[1].split() == ["fixture.py", "9", "6", "2", "4", "21"]
    assert rows[-1].split() == ["total", "18", "12", "4", "8", "42"]


def test_deleting_comments_alone_leaves_the_code_count():
    bare = "\n".join(line for line in FIXTURE.splitlines() if not line.lstrip().startswith("#"))
    assert code_lines.count(bare)["code"] == code_lines.count(FIXTURE)["code"]
    assert code_lines.count(bare)["comment"] == 0


def test_the_default_reads_every_library_module(capsys):
    code_lines.main([])
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(f for f in os.listdir(os.path.join(ROOT, "src", "superinv")) if f.endswith(".py"))
    assert [line.split()[0] for line in lines[1:-1]] == modules
    assert lines[-1].split()[0] == "total"
