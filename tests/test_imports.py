"""Which package modules each module imports, read from its source with ``ast``.

The path route must never depend on the cone route for its answers, so
``paths`` may import nothing from the package but ``errors``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtcatalan"


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


def test_paths_imports_only_errors():
    assert package_imports("paths") == {"errors"}
