"""The package imports only the standard library, numpy and scipy, and
imports scipy only inside the functions that use it."""

import ast
import sys
from pathlib import Path

import pytest

import soppi

ALLOWED = {"numpy", "scipy", "soppi"}
SOURCES = sorted(Path(soppi.__file__).resolve().parent.glob("*.py"))


def top_level_imports(tree):
    """Top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def module_level_imports(node):
    """Every absolute import that runs when the module is imported, that is
    outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from module_level_imports(child)


def test_sources_found():
    assert "dynamics.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_scipy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {name for name in top_level_imports(tree)
               if name not in sys.stdlib_module_names and name not in ALLOWED}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    eager = sorted(name for name in module_level_imports(tree)
                   if name.partition(".")[0] == "scipy")
    assert not eager, (
        f"{path.name} imports {eager} at module level; import it inside the "
        f"function that uses it, so that importing the package does not pay "
        f"for it (tests/test_cold_start.py)")
