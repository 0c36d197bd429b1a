"""The library imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superinv"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        "%s:%d imports %s" % (path.name, lineno, module)
        for path in sources
        for lineno, module in _absolute_imports(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"superinv"}
    ]
    assert not foreign
