"""Checks on the package's source text itself.

`python tests/test_source.py` prints the code lines of each module and their
total (see code_lines), then the settable values: each command's optional
flags, the config keys and the OptimConfig fields, with their counts.
"""
import argparse
import ast
import dataclasses
import io
import sys
import tokenize
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import shapescene  # noqa: E402
from shapescene.cli import CONFIG_KEYS, build_parser  # noqa: E402
from shapescene.optim import OptimConfig  # noqa: E402

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


def _callers(source: str, name: str) -> list[str]:
    """The top-level definition (or "<module>") around each call of a
    function named `name`, as `f(...)` or `x.f(...)`."""
    return [getattr(stmt, "name", "<module>") for stmt in ast.parse(source).body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == name]


def test_svd_only_in_projection():
    # The pullback reuses the projection's rotation; the SVD has one home.
    callers = {p.name: _callers(p.read_text(), "svd") for p in MODULES}
    assert {name: c for name, c in callers.items() if c} == {
        "geom.py": ["project_to_so3", "project_to_so3"]}


def test_svd_caller_is_found():
    source = ("import numpy as np\nfrom numpy.linalg import svd\nu = svd(np.eye(3))\n"
              "def f(m):\n    return np.linalg.svd(m, compute_uv=False)\n"
              "class C:\n    def g(self):\n        return np.linalg.svd\n")
    assert _callers(source, "svd") == ["<module>", "f"]


def test_distance_formula_in_one_place():
    # The point-segment distance clips its parameter in one function, which
    # only the triangle distance calls, for one triangle or stacked ones.
    source = (Path(shapescene.__file__).parent / "mesh.py").read_text()
    assert _callers(source, "clip") == ["_point_segment_distance"]
    assert _callers(source, "_point_segment_distance") == ["_triangle_distance"] * 3


def test_sdf_distance_in_one_place():
    # k-means and every exemplar decision measure SDFs with one row sum; no
    # BLAS norm, whose bits follow the thread count, measures them.
    source = (Path(shapescene.__file__).parent / "shapedb.py").read_text()
    assert _callers(source, "norm") == []
    assert _callers(source, "_squared_distances") == ["kmeans_pp", "kmeans_pp", "_sdf_distances"]
    assert _callers(source, "_sdf_distances") == ["assign_exemplar", "soft_label"]


def _stencil_sites(source: str) -> list[str]:
    """The top-level definition around each gather from a flattened array
    (`x.ravel().take(...)`), and each definition that floors coordinates and
    interpolates linearly (`a + f * (b - a)`): a trilinear stencil."""
    sites = []
    for stmt in ast.parse(source).body:
        nodes = list(ast.walk(stmt))
        gathers = [node for node in nodes if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute) and node.func.attr == "take"
                   and isinstance(node.func.value, ast.Call)
                   and ast.unparse(node.func.value.func).rpartition(".")[2] == "ravel"]
        lerps = [node for node in nodes if isinstance(node, ast.BinOp)
                 and isinstance(node.op, ast.Add) and isinstance(node.right, ast.BinOp)
                 and isinstance(node.right.op, ast.Mult) and isinstance(node.right.right, ast.BinOp)
                 and isinstance(node.right.right.op, ast.Sub)
                 and ast.unparse(node.right.right.right) == ast.unparse(node.left)]
        floors = [node for node in nodes if isinstance(node, ast.Call)
                  and ast.unparse(node.func).rpartition(".")[2] == "floor"]
        sites += [getattr(stmt, "name", "<module>")] * (len(gathers) + bool(lerps and floors))
    return sites


def test_trilinear_stencil_in_one_place():
    # The stencil's flat-grid gather and its interpolation have one home, the
    # stacked kernel, which both samplers of the package call.
    package = Path(shapescene.__file__).parent
    sites = {p.name: _stencil_sites(p.read_text()) for p in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "sdf.py": ["sample_grids", "sample_grids"]}
    assert _callers((package / "sdf.py").read_text(), "sample_grids") == ["sample_zero_outside"]
    assert _callers((package / "collision.py").read_text(), "sample_grids") == [
        "translation_step"]


def test_stencil_site_is_found():
    source = ("import numpy as np\n"
              "def gather(g, i):\n    return g.values.ravel().take(i)\n"
              "def lerp(a, b, u):\n    f = u - np.floor(u)\n    return a + f * (b - a)\n"
              "def segment(a, b, f):\n    return a + f * (b - a)\n"
              "def cells(u):\n    return np.floor(u), u.take([0])\n")
    assert _stencil_sites(source) == ["gather", "lerp"]


_WORKER_MODULES = ("multiprocessing", "concurrent")


def _worker_sites(source: str) -> list[str]:
    """The worker-process modules a module imports (multiprocessing and
    concurrent.futures, by import path), and "fork()" for each call of a
    function named fork, such as `os.fork()`."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            sites += [alias.name for alias in node.names
                      if alias.name.partition(".")[0] in _WORKER_MODULES]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").partition(".")[0] in _WORKER_MODULES):
            sites.append(node.module)
    return sites + ["fork()"] * len(_callers(source, "fork"))


def test_worker_processes_in_one_place():
    # Worker processes have one home, fork_map, which binds each worker to
    # a CPU and leaves none running after a call.
    sites = {p.name: _worker_sites(p.read_text()) for p in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "workers.py": ["multiprocessing", "concurrent.futures"]}


def test_worker_site_is_found():
    source = ("import os, multiprocessing.pool\nfrom concurrent import futures\n"
              "from concurrent.futures import ProcessPoolExecutor\nfrom . import workers\n"
              "def child():\n    return os.fork()\n")
    assert _worker_sites(source) == ["multiprocessing.pool", "concurrent",
                                     "concurrent.futures", "fork()"]


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


def _unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the dataclasses of `sources` (by file name) whose name no
    source of `readers` reads as an attribute (`x.name`)."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).partition("(")[0].rpartition(".")[2] == "dataclass"
                    for d in node.decorator_list):
                unread += [f"{name}: {node.name}.{f.target.id} (line {f.lineno})"
                           for f in node.body if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name) and f.target.id not in read]
    return unread


def test_no_unread_dataclass_fields():
    # A field no code reads is state the package carries for nothing.
    root = Path(__file__).resolve().parent.parent
    readers = [p.read_text() for d in ("src", "tests", "demos", "benchmarks")
               for p in sorted((root / d).rglob("*.py"))]
    assert _unread_fields({p.name: p.read_text() for p in MODULES}, readers) == []


def test_unread_dataclass_field_is_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    used: int\n    left: float = 0.0\n"
              "@dataclasses.dataclass\nclass B:\n    only_set: int\n"
              "    def f(self):\n        return self.used\n"
              "class C:\n    plain: int\n")
    readers = [source, "b.only_set = 1\nprint(report['left'])\n"]
    assert _unread_fields({"a.py": source}, readers) == [
        "a.py: A.left (line 6)", "a.py: B.only_set (line 9)"]


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
