"""The README's quick example runs, the values its comments state hold, its
command line section matches the parser and the suite table, every name its
library overview cites exists, and the kernel gate's density cuts it states
are the library's."""

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import superinv
from superinv.cli import build_parser
from superinv.supermatrix import _TABLE_DENSITY
from superinv.verify import SUITES

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


def test_readme_states_the_gate_density_cuts():
    """"2^q / d terms (q = ...)" for each cut, q a single count, a range
    a..b or a list, together naming every count the gate serves."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = {}
    for d, qs in re.findall(r"2\^q / (\d+) terms \(q = ([0-9., ]+)\)", text):
        lo, dots, hi = qs.partition("..")
        for q in range(int(lo), int(hi) + 1) if dots else map(int, qs.split(",")):
            assert q not in stated, q
            stated[q] = 1 / int(d)
    assert stated == _TABLE_DENSITY


# ----------------------------------------------------------------------
# the "Command line" section against the parser and the suite table

SAMPLE = {"MATRIX.json": "m.json", "SUITE": "all", "N": "1", "PATH": "out.json"}


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split("## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def _usage_lines():
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("superinv ")]
    assert lines
    return [line[1:] for line in lines]


def _choice_options(tokens):
    """{option: alternatives} for every `--opt A|B` in a usage line."""
    bare = [t.strip("[]") for t in tokens]
    return {opt: set(value.split("|")) for opt, value in zip(bare, bare[1:])
            if opt.startswith("--") and "|" in value}


def _argv_variants(tokens):
    """One argv per alternative of each `A|B` token, placeholders filled in."""
    bare = [SAMPLE.get(t.strip("[]"), t.strip("[]")) for t in tokens]
    variants = []
    for pos, token in enumerate(bare):
        for alt in token.split("|") if "|" in token else ():
            variants.append([alt if k == pos else t.split("|")[0] for k, t in enumerate(bare)])
    return variants or [bare]


def _parser_commands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: set(action.choices)
                   for action in p._actions if action.choices
                   for opt in action.option_strings}
            for name, p in sub.choices.items()}


def test_readme_commands_parse():
    parser = build_parser()
    for tokens in _usage_lines():
        for argv in _argv_variants(tokens):
            parser.parse_args(argv)


def test_readme_commands_match_parser():
    readme = {tokens[0]: _choice_options(tokens) for tokens in _usage_lines()}
    assert readme == _parser_commands()


def test_readme_lists_every_suite():
    sentence = re.search(r"Suites: (.*?), or `all`", _section("Command line"), re.S).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(names) == sorted(SUITES)


# ----------------------------------------------------------------------
# the "Library overview" table against the package

NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")


def _package_scopes():
    """superinv, its submodules and the classes they define: where a name may live."""
    modules = [superinv] + [importlib.import_module("superinv." + info.name)
                            for info in pkgutil.iter_modules(superinv.__path__)]
    return modules + [obj for mod in modules for obj in vars(mod).values()
                      if inspect.isclass(obj) and obj.__module__.startswith("superinv.")]


def _resolve(name, scopes):
    """Every object the bare name can stand for."""
    if name == "superinv":
        return [superinv]
    return [getattr(scope, name) for scope in scopes if hasattr(scope, name)]


def test_readme_overview_names_exist():
    """Each backticked identifier or dotted `A.b` in the table resolves in the
    package; tokens with other characters, such as `Q(n)`, are notation."""
    scopes = _package_scopes()
    rows = [line for line in _section("Library overview").splitlines() if line.startswith("| ")]
    tokens = {t for row in rows for t in re.findall(r"`([^`]+)`", row) if NAME.fullmatch(t)}
    assert len(tokens) > 40
    missing = []
    for token in sorted(tokens):
        head, _, attr = token.partition(".")
        found = _resolve(head, scopes)
        if not (found and (not attr or any(hasattr(obj, attr) for obj in found))):
            missing.append(token)
    assert missing == []
