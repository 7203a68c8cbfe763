"""Checks on the package's source text itself.

`python tests/test_source.py` prints the code lines of each module and their
total (see code_lines), then the settable values: each command's optional
flags, the config keys and the OptimConfig fields, with their counts.
"""
import argparse
import ast
import dataclasses
import io
import tokenize
from pathlib import Path

import pytest

import shapescene
from shapescene.cli import CONFIG_KEYS, build_parser
from shapescene.optim import OptimConfig

MODULES = sorted(p for p in Path(shapescene.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports names to re-export them


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import json\nimport os.path\nfrom x import a, b as c\nprint(os, a)\n"
    assert _unused_imports(source) == ["json (line 1)", "c (line 3)"]


def _private_imports(source: str) -> list[str]:
    """`_`-prefixed names a module imports from another shapescene module."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "shapescene")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert _private_imports(path.read_text()) == []


def test_private_import_is_found():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .metrics import _bounds, map3d\nfrom shapescene.shapedb import (\n"
              "    _write,\n)\nfrom . import _mod\n")
    assert _private_imports(source) == ["_bounds (line 3)", "_write (line 4)", "_mod (line 7)"]


def _svd_callers(source: str) -> list[str]:
    """The top-level definition (or "<module>") around each call of an `svd`."""
    return [getattr(stmt, "name", "<module>") for stmt in ast.parse(source).body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == "svd"]


def test_svd_only_in_projection():
    # The pullback reuses the projection's rotation; the SVD has one home.
    callers = {p.name: _svd_callers(p.read_text()) for p in MODULES}
    assert {name: c for name, c in callers.items() if c} == {
        "geom.py": ["project_to_so3", "project_to_so3"]}


def test_svd_caller_is_found():
    source = ("import numpy as np\nfrom numpy.linalg import svd\nu = svd(np.eye(3))\n"
              "def f(m):\n    return np.linalg.svd(m, compute_uv=False)\n"
              "class C:\n    def g(self):\n        return np.linalg.svd\n")
    assert _svd_callers(source) == ["<module>", "f"]


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level `_`-prefixed functions and constants of each module (by
    file name) that no module of `sources` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}: {d} (line {node.lineno})" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in read]
    return unused


def test_no_unused_private_names():
    package = Path(shapescene.__file__).parent
    assert _unused_private_names({p.name: p.read_text() for p in package.glob("*.py")}) == []


def test_unused_private_name_is_found():
    sources = {
        "a.py": ("__all__ = []\n_USED = 1\n_LEFT: int = 2\n"
                 "def _helper():\n    return _USED\n"
                 "def _left_over():\n    '_left_over'\n"
                 "def _called_from_b():\n    _LEFT = 5\n    return _helper()\n"),
        "b.py": "from . import a\na._called_from_b()\n",
    }
    assert _unused_private_names(sources) == ["a.py: _LEFT (line 3)", "a.py: _left_over (line 6)"]


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines on which a token other than a comment, newline, indent or dedent
    lies, outside module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_counts_code_only():
    source = '''"""Module
docstring."""
import os


# a comment
def f(a,
      b):  # trailing comment
    """One-line docstring."""
    return os.path.join(
        a,
        b,
    )


class C:
    """Class
    docstring."""
    x = """not a
    docstring"""
'''
    # import, def (2 lines), return (4 lines), class and the 2-line string.
    assert code_lines(source) == 10


def command_options() -> dict[str, list[argparse.Action]]:
    """Each command's optional flags, -h aside, by command name."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: [a for a in p._actions if a.option_strings and not a.required
                   and not isinstance(a, argparse._HelpAction)]
            for name, p in commands.items()}


def test_config_keys_are_flags():
    # Each config key supplies the default of a like-named, like-typed flag.
    flags = {(a.dest, a.type) for actions in command_options().values() for a in actions}
    assert set(CONFIG_KEYS.items()) <= flags


if __name__ == "__main__":
    total = 0
    for path in sorted(Path(shapescene.__file__).parent.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}\n")
    options = command_options()
    for name, actions in options.items():
        print(f"{name:16} {len(actions):5}  {' '.join(a.option_strings[0] for a in actions)}".rstrip())
    print(f"{'optional flags':16} {sum(map(len, options.values())):5}")
    print(f"{'config keys':16} {len(CONFIG_KEYS):5}  {' '.join(CONFIG_KEYS)}")
    fields = [f.name for f in dataclasses.fields(OptimConfig)]
    print(f"{'OptimConfig':16} {len(fields):5}  {' '.join(fields)}")
