"""Which package modules each module may import, read from its source with ``ast``.

The path route (``paths``, ``families`` and the ``oracles`` built on them)
must never depend on the cone route (``lattice``, ``cones``, ``catalog``)
for its answers.  ``verify``, ``cli`` and the package root are the only
modules that import both; ``verify`` and ``cli`` import the cone route only
inside the functions that use it, so loading them loads the path route alone.
No module imports ``dataclasses``, and no command loads it or ``inspect``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtcatalan"

PATH_ROUTE = {"errors", "paths", "polynomial", "families"}
CONE_ROUTE = {"lattice", "cones", "catalog"}

# the package root's literal {exported name: module} table, imported on first access
EXPORT_TABLE = "_EXPORTS"

# module -> the package modules it may import
ALLOWED = {
    "errors": set(),
    "lattice": {"errors"},
    "paths": {"errors"},
    "polynomial": {"errors"},
    "families": {"errors", "polynomial"},
    "oracles": PATH_ROUTE,
    "cones": {"errors", "lattice", "polynomial"},
    "catalog": {"errors", "lattice", "polynomial", "families", "cones"},
    "verify": PATH_ROUTE | {"oracles", "cones", "catalog"},
    "cli": PATH_ROUTE | {"oracles", "cones", "verify"},
    "__init__": PATH_ROUTE | {"oracles", "lattice", "cones", "catalog", "verify", "cli"},
}


def package_imports(module: str) -> set:
    """The package modules that ``qtcatalan.<module>`` imports, at any depth of its code.

    ``import qtcatalan`` and ``from qtcatalan import *`` count as ``__init__``.
    The modules named in the root's export table count as its imports: it
    imports each one when one of its names is first read.
    """
    nodes = list(ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))
    exported = {
        home
        for node in nodes
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == EXPORT_TABLE for target in node.targets)
        for home in ast.literal_eval(node.value).values()
    }
    return _imported(nodes) | exported


def _run_at_load(tree: ast.AST):
    """The nodes outside every function and lambda body and every ``if TYPE_CHECKING:``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def load_imports(module: str) -> set:
    """The package modules that loading ``qtcatalan.<module>`` imports by itself."""
    return _imported(_run_at_load(ast.parse((PACKAGE / f"{module}.py").read_text())))


def _imported(nodes) -> set:
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "qtcatalan":
                    found.add("__init__")
                elif alias.name.startswith("qtcatalan."):
                    found.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "qtcatalan" and not name.startswith("qtcatalan."):
                    continue
                name = name[len("qtcatalan."):]
            if name:
                found.add(name.split(".")[0])
            else:
                # from . import x, or from qtcatalan import x: x is a module or a name in __init__
                found.update(
                    alias.name if (PACKAGE / f"{alias.name}.py").exists() else "__init__"
                    for alias in node.names
                )
    return found


def import_closure(module: str, imports=package_imports) -> set:
    """Every package module that ``qtcatalan.<module>`` may load, itself excluded.

    With ``imports=load_imports``, only those that loading it loads at once.
    """
    seen, todo = set(), [module]
    while todo:
        for name in imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {module}


def test_paths_imports_only_errors():
    assert package_imports("paths") == {"errors"}


def test_the_table_lists_every_module():
    assert set(ALLOWED) == {path.stem for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_follow_the_table(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_oracles_load_nothing_of_the_cone_route():
    assert not import_closure("oracles") & {"lattice", "cones", "catalog", "verify"}


def test_the_root_exports_from_the_modules_it_always_did():
    assert package_imports("__init__") == {
        "errors", "paths", "polynomial", "families", "oracles", "cones", "catalog", "verify"
    }


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_loading_the_cli_or_verify_loads_nothing_of_the_cone_route(module):
    assert load_imports(module) & CONE_ROUTE == set()
    assert import_closure(module, load_imports) & CONE_ROUTE == set()
    # the cone route is still imported, inside the functions that use it
    assert package_imports(module) & CONE_ROUTE


def unused_imports(module: str) -> set:
    """The names ``qtcatalan.<module>`` imports and never reads, ``from __future__`` aside.

    A name is read where it occurs in the code, or inside a quoted annotation.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(annotation) if annotation is not None else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    read.update(
                        n.id for n in ast.walk(ast.parse(quoted.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )
    return imported - read


# the package root is held to this on its own, below
@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"__init__"}))
def test_every_imported_name_is_used(module):
    assert unused_imports(module) == set()


def test_the_root_imports_only_what_it_uses():
    # its exports are named in its table, not imported
    assert unused_imports("__init__") == set()


# the code that may name a package definition: the package, the benchmark and the demos
USERS = (PACKAGE, PACKAGE.parents[1] / "bench", PACKAGE.parents[1] / "demos")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """``(label, name)`` of each top-level function and class of a module and
    each method of its classes, protocol hooks (``__getattr__``, ``__eq__``) aside."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not _dunder(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def named_in(tree: ast.AST) -> set:
    """Every name the code reads or writes, every attribute and every imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(part for name in (node.name, node.asname) if name for part in name.split("."))
    return names


def test_every_definition_is_named_outside_the_tests():
    """A definition that no package, benchmark or demo code names, and that the
    root does not export, is dead: only tests could reach it."""
    trees = {path: ast.parse(path.read_text()) for folder in USERS for path in sorted(folder.rglob("*.py"))}
    named = set().union(*map(named_in, trees.values()))
    root = trees[PACKAGE / "__init__.py"]
    exported = {
        name
        for node in ast.walk(root)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == EXPORT_TABLE for target in node.targets)
        for name in ast.literal_eval(node.value)
    }
    dead = [
        f"{path.stem}.{label}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for label, name in definitions(tree)
        if name not in named and name not in exported
    ]
    assert dead == []


def test_the_cli_holds_no_work_limit():
    # the path work limits and predictions live in oracles; the CLI only calls them
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assigned = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert "count_paths" not in called
    assert not {name for name in assigned if name.endswith("_WORK")}


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, about a third of the package's import time
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name


LAUNCH = """
import sys
import qtcatalan.cli as cli
cli.build_parser()
codes = [cli.main(argv) for argv in (
    ["catalan", "--k", "1,2,1"],
    ["cone", sys.argv[1], "--index"],
    ["verify", "--theorem", "three", "--bound", "3"],
)]
print(codes, sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # -S: without the site hook, the modules loaded are the package's and what it imports
    cone = tmp_path / "cone.txt"
    cone.write_text("dim 2\ngen closed 1 1\ngen closed 1 -1\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, str(cone)], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] []"
