"""Every name a package or benchmark module imports is used by that module.

No linter runs on the package, so this scans each module's syntax tree:
an imported name must appear as a name somewhere in the module, counting
names inside quoted annotations.  ``__init__.py`` is left out, since it
imports names in order to re-export them.  Package modules are named by
file name, benchmark modules as ``bench/<file>``.
"""
import ast
from pathlib import Path

import pytest

import mvhomog

PACKAGE = Path(mvhomog.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(p for p in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]
                 if p.name != "__init__.py")


def _module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"bench/{path.name}"


def _imported(tree: ast.Module) -> dict:
    """Imported name -> line, for every import statement of the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set:
    """Names the module reads, including those inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    return names


def test_the_scan_sees_the_package():
    assert {_module_id(p) for p in MODULES} >= {
        "config.py", "simulate.py", "experiments.py", "bench/run.py", "bench/workloads.py"}


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{_module_id(path)} imports names it never uses: {', '.join(unused)}"
