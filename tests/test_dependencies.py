"""The package imports only the standard library, numpy and scipy, and
imports scipy only inside the functions that use it; it holds no code that
only the tests call; and only ``soppi.dynamics`` knows how a system's step
is written."""

import ast
import sys
from pathlib import Path

import pytest

import soppi

ALLOWED = {"numpy", "scipy", "soppi"}
SOURCES = sorted(Path(soppi.__file__).resolve().parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


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


def references(path):
    """{name: {(path, owner)}} over one file's names, attributes and
    whole-string constants (the benchmark's probes look functions up by
    string); owner is the top-level function or class a reference sits in,
    None at module level."""
    refs = {}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                name = node.value
            else:
                continue
            refs.setdefault(name, set()).add((path, owner))
    return refs


def test_step_protocol_stays_in_dynamics():
    # Outside soppi.dynamics a system is stepped through step_unchecked or
    # _linearize, never through the per-component _advance.
    outside = [path.name for path in SOURCES if path.name != "dynamics.py"
               and "_advance" in references(path)]
    assert not outside, (f"{outside} reference _advance; step through "
                         f"System.step_unchecked")


def test_every_package_definition_has_a_caller_outside_the_tests():
    # A function or class that only the tests call belongs in
    # tests/oracles.py.  __init__.py only re-exports, so it calls nothing.
    defined = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                defined[top.name] = path
    callers = {"package": [p for p in SOURCES if p.name != "__init__.py"],
               "scripts": sorted((REPO / "scripts").glob("*.py")),
               "perfbench": sorted((REPO / "perfbench").glob("*.py"))}
    reached = {}
    for where, paths in callers.items():
        for path in paths:
            for name, sites in references(path).items():
                if name in defined and sites - {(defined[name], name)}:
                    reached.setdefault(name, set()).add(where)
    unreached = sorted(set(defined) - set(reached))
    assert not unreached, (f"only the tests reach {unreached}; move them "
                           f"to tests/oracles.py")
    # running_cost_gradients waits on the benchmark's probe list.
    assert sorted(name for name, where in reached.items()
                  if where == {"perfbench"}) == ["running_cost_gradients"]
