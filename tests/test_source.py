"""The package holds only code that something in it reaches.

Every top-level function and class in `src/grothpoly` must be referenced by
name, as a bare name or as an attribute, somewhere in the package outside
its own definition.  A definition that only the tests use belongs in the
tests, next to what it is compared with.
"""
import ast
from pathlib import Path

import grothpoly

PACKAGE = Path(grothpoly.__file__).resolve().parent

# Kept without a caller in the package: the divided-difference operators
# are the oracle's documented operators, and tests apply them one at a time.
ALLOWED = {("poly", "divided_difference"), ("poly", "isobaric_divided_difference")}


def _names(node):
    """Every name `node` refers to, as a bare name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_definitions():
    """(module, name) of each top-level function or class referenced
    nowhere in the package outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    # Per top-level statement: the names it refers to.
    statements = [
        (module, stmt, set(_names(stmt))) for module, tree in trees.items() for stmt in tree.body
    ]
    return {
        (module, stmt.name)
        for module, stmt, _ in statements
        if isinstance(stmt, kinds)
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    }


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == ALLOWED
