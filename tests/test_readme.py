"""The README's quick example runs, and the values its comments state hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
STATED = ("e1 + e2", "e1 + 1/2*e2", "(3, -2)")


def _text(value):
    if isinstance(value, tuple):
        return "(%s)" % ", ".join(str(x) for x in value)
    return str(value)


def test_readme_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for line in block.splitlines():
        expr, _, comment = line.partition("#")
        for value in STATED:
            if comment.strip().startswith(value):
                assert _text(eval(expr.strip(), namespace)) == value, line
                checked.append(value)
    assert sorted(checked) == sorted(STATED)
