"""Every public name of the package has a caller outside the unit tests.

A public name is a top-level function, class or upper-case constant of a
package module, or a method or property of one of its top-level classes,
whose name does not start with an underscore.  It counts as referenced
when its name appears as an AST name or attribute in package code other
than its own definition, in a benchmark module, or in the acceptance
tests.  Imports, ``__all__`` strings and the unit tests do not
count: a name that only they reach is public surface no pipeline calls.
"""
import ast
import re
from pathlib import Path

import pytest

import mvhomog

PACKAGE = Path(mvhomog.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(PACKAGE.glob("*.py"))
OUTSIDE = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names and attribute names read anywhere in tree, outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public(tree: ast.Module):
    """(label, name, defining node) for each public name of the module: its
    top-level names, and the methods and properties of its classes as
    ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method.name, method
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets
                     if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node


TREES = {path: _parse(path) for path in MODULES}
READ = {path: _referenced(tree) for path, tree in TREES.items()}
OUTSIDE_NAMES = set().union(*(_referenced(_parse(path)) for path in OUTSIDE))


def test_the_scan_sees_the_package_and_its_callers():
    assert {p.name for p in MODULES} >= {"simulate.py", "torus.py", "rate.py", "__init__.py"}
    assert {p.name for p in OUTSIDE} >= {"tracer.py", "workloads.py", "test_acceptance.py"}
    assert {"simulate_lanes", "evaluate_jdg", "SimConfig.snapshot_grid", "TorusGrid.weight",
            "_LaneRun.step"} <= {label for tree in TREES.values() for label, _, _ in _public(tree)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller_outside_the_unit_tests(path):
    elsewhere = OUTSIDE_NAMES.union(*(read for other, read in READ.items() if other != path))
    unused = [f"{label} (line {node.lineno})" for label, name, node in _public(TREES[path])
              if name not in elsewhere and name not in _referenced(TREES[path], skip=node)]
    assert not unused, (f"{path.name} defines public names that only unit tests reach: "
                        f"{', '.join(unused)}")
