"""Which classes write their own value methods, read from the source with ``ast``.

A value type gets assignment refusal, equality and hashing from
``errors.Frozen``.  ``polynomial.LaurentPoly`` alone keeps its own hash,
because its terms are a dict, which cannot be hashed.
"""

import ast

from test_imports import PACKAGE

VALUE_METHODS = {"__setattr__", "__eq__", "__hash__"}


def value_method_owners() -> dict:
    """``{"module.Class": the value methods its body defines or assigns}``, for every
    class in the package that has any."""
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            if names & VALUE_METHODS:
                owners[f"{path.stem}.{node.name}"] = names & VALUE_METHODS
    return owners


def test_only_frozen_and_the_polynomial_write_value_methods():
    assert value_method_owners() == {
        "errors.Frozen": {"__setattr__", "__eq__", "__hash__"},
        "polynomial.LaurentPoly": {"__hash__"},
    }
