"""The package is layered: every module imports only the modules below it.

Each module of cfkcalc is read with ast, not imported.  No import statement
sits inside a function or method, and the imports between the package's
modules at module level (skipping ``if TYPE_CHECKING:`` bodies, which never
run) form an acyclic graph.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cfkcalc

PACKAGE = Path(cfkcalc.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _local_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(function name, line) of each import statement inside a function."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((fn.name, node.lineno))
    return found


def _runtime_imports(tree: ast.Module) -> set[str]:
    """Package modules imported at module level, outside TYPE_CHECKING blocks."""
    out: set[str] = set()
    pending: list[ast.AST] = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cfkcalc."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("cfkcalc."))
        pending.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_is_read():
    assert {"__init__", "cfk", "cli", "concordance", "invariants", "knots", "regions"} <= set(
        MODULES
    )


def test_no_import_runs_inside_a_function():
    found = {name: _local_imports(tree) for name, tree in MODULES.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_module_level_imports_form_an_acyclic_graph():
    graph = {name: _runtime_imports(tree) & MODULES.keys() for name, tree in MODULES.items()}
    done: list[str] = []  # modules in an order where each follows what it imports
    visiting: list[str] = []

    def visit(name: str) -> None:
        if name in done:
            return
        if name in visiting:
            cycle = visiting[visiting.index(name) :] + [name]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        visiting.append(name)
        for target in sorted(graph[name]):
            visit(target)
        visiting.pop()
        done.append(name)

    for name in sorted(graph):
        visit(name)


def test_the_complex_core_imports_no_region_code():
    # validate ranks the vertical and horizontal complexes itself, over gf2
    assert "regions" not in _runtime_imports(MODULES["cfk"])
