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
