"""The package imports only the standard library, numpy and scipy."""

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


def test_sources_found():
    assert "dynamics.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_scipy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {name for name in top_level_imports(tree)
               if name not in sys.stdlib_module_names and name not in ALLOWED}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
