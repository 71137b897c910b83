"""The package is layered: every module imports only the modules below it.

Each module of cfkcalc is read with ast, not imported.  No import statement
sits inside a function or method, and the imports between the package's
modules at module level (skipping ``if TYPE_CHECKING:`` bodies, which never
run) form an acyclic graph, in the order the README's Layout block lists.
Every module-level import is used, and every public name has a use outside
its own definition.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import cfkcalc

PACKAGE = Path(cfkcalc.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
ROOT = Path(__file__).resolve().parents[1]


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


def test_each_module_imports_only_modules_above_it_in_the_readme_layout():
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1]
    order = re.findall(r"^  (\w+)\.py ", block.split("```")[1], re.M)
    assert sorted(order) == sorted(set(MODULES) - {"__init__"})
    below = {name: _runtime_imports(MODULES[name]) & set(order[i:]) for i, name in enumerate(order)}
    assert {name: sorted(hits) for name, hits in below.items() if hits} == {}


def test_the_complex_core_imports_no_region_code():
    # validate ranks the vertical and horizontal complexes itself, over gf2
    assert "regions" not in _runtime_imports(MODULES["cfk"])



def test_the_knot_class_check_has_two_callers():
    # validate reports its errors; the analysis raises the first, for every
    # complex from outside the library
    callers = {
        f"{name}.{scope.name}"
        for name, tree in MODULES.items()
        for scope in tree.body  # module-level functions and classes
        for call in ast.walk(scope)
        if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("_class_errors")
    }
    assert callers == {"cfk.validate", "invariants._Analysis"}


def _names(node: ast.AST) -> set[str]:
    """Names node reads or binds, including module.name attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in MODULES:
                out.add(sub.attr)
    return out


def _owner(statement: ast.stmt) -> str | None:
    """The name a module-level statement defines, if it defines one."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name
    if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
        target = statement.targets[0]
    elif isinstance(statement, ast.AnnAssign):
        target = statement.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def test_every_public_name_has_a_use():
    # a use is a reference from a module-level statement that is not the
    # name's own definition (and that is private or itself used), a mention
    # in the README, or a use in the acceptance suite
    public = set(cfkcalc.__all__) - {"__version__"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = {name for name in public if re.search(rf"\b{re.escape(name)}\b", readme)}
    used |= public & {node.id for node in ast.walk(acceptance) if isinstance(node, ast.Name)}
    statements = [
        (_owner(statement), _names(statement))
        for tree in MODULES.values()
        for statement in tree.body
        if not isinstance(statement, (ast.Import, ast.ImportFrom))
        and _owner(statement) != "__all__"
    ]
    grown = True
    while grown:
        before = len(used)
        for owner, names in statements:
            if owner not in public or owner in used:
                used |= (names & public) - {owner}
        grown = len(used) > before
    assert sorted(public - used) == []


def test_every_module_level_import_is_used():
    unused = {}
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        statements = [*tree.body]  # with the bodies of module-level ifs
        statements += [s for node in tree.body if isinstance(node, ast.If) for s in node.body]
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in statements
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if bound - read:
            unused[name] = sorted(bound - read)
    assert unused == {}
