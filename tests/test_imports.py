"""Which package modules each module may import, read from its source with ``ast``.

The path route (``paths``, ``families`` and the ``oracles`` built on them)
must never depend on the cone route (``lattice``, ``cones``, ``catalog``)
for its answers.  ``verify``, ``cli`` and the package root are the only
modules that import both.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtcatalan"

PATH_ROUTE = {"errors", "paths", "polynomial", "families"}

# module -> the package modules it may import
ALLOWED = {
    "errors": set(),
    "lattice": set(),
    "paths": {"errors"},
    "polynomial": {"errors"},
    "families": {"errors", "paths", "polynomial"},
    "oracles": PATH_ROUTE,
    "cones": {"errors", "lattice", "polynomial"},
    "catalog": {"errors", "lattice", "polynomial", "families", "cones"},
    "verify": PATH_ROUTE | {"oracles", "cones", "catalog"},
    "cli": PATH_ROUTE | {"oracles", "cones", "verify"},
    "__init__": PATH_ROUTE | {"oracles", "lattice", "cones", "catalog", "verify", "cli"},
}


def package_imports(module: str) -> set:
    """The package modules that ``qtcatalan.<module>`` imports, at any depth of its code.

    ``import qtcatalan`` and ``from qtcatalan import *`` count as ``__init__``,
    which imports every module.
    """
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
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


def import_closure(module: str) -> set:
    """Every package module that loading ``qtcatalan.<module>`` loads, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
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


# the package root imports names to re-export them
@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"__init__"}))
def test_every_imported_name_is_used(module):
    assert unused_imports(module) == set()
