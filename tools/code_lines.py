"""Code, docstring, comment and blank lines of the library's modules.

    python3 tools/code_lines.py [FILE ...]

With no FILE it reads `src/superinv/*.py`.  Each physical line of a module
falls in one kind, tried in this order: docstring (inside the docstring of
the module, a class or a function, found with `ast`), code (it holds a
token other than a comment, a line break or an indent, found with
`tokenize`; a line inside another multi-line string is code), comment (it
holds a comment and nothing else) and blank.  The script prints one row per
module and a total row.  `wc -l` counts all four kinds, so a change that
only deletes comments or docstrings shows there; the code column is the
count of the lines that run.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """{kind: number of lines} of the module text source, for each of KINDS."""
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(ast.parse(source))
    out = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if n in docs else "code" if n in code
                else "comment" if n in comment else "blank")
        out[kind] += 1
    return out


def table(paths):
    """The printed rows: a header, one row per path and the total."""
    rows = [("module", *KINDS, "total")]
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            counts = count(handle.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        rows.append((os.path.basename(path), *(counts[k] for k in KINDS), sum(counts.values())))
    rows.append(("total", *(total[k] for k in KINDS), sum(total.values())))
    return ["%-16s" % row[0] + "".join("%11s" % x for x in row[1:]) for row in rows]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(ROOT, "src", "superinv", "*.py")))
    print("\n".join(table(paths)))


if __name__ == "__main__":
    main()
