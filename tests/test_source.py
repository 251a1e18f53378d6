"""Four checks on the package source.

The package holds only code that something in it reaches.  Every top-level
function and class in `src/grothpoly` must be referenced by name, as a bare
name or as an attribute, somewhere in the package outside its own
definition.  A definition that only the tests use belongs in the tests, next
to what it is compared with.

The span tracer of the benchmark (`perfbench/tracer.py`) wraps grothpoly's
layer boundaries by module attribute, so renaming one of them breaks every
traced benchmark run.  A traced sweep must keep its report, record a span
for each boundary, and leave every attribute as it found it.

What the checks of one permutation share is kept by one memo,
`perms.last_call`: no one-slot `lru_cache`, no module global that a function
rebinds to remember its last call, and every memoized fact stays a plain
function, which the tracer can wrap.

The package imports only the standard library, itself and the dependencies
`pyproject.toml` declares: a module that is installed here but not declared
would pass locally and fail on a clean install.
"""
import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import grothpoly
from grothpoly import cache, cli, perms, pipedreams, poly, posets, polytopes

PACKAGE = Path(grothpoly.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Kept without a caller in the package: `build_table` runs the whole
# divided-difference recursion, the reference table of the tests, and the
# benchmark's tracer wraps it by name.
ALLOWED = {("poly", "build_table")}

# The module globals that functions rebind: a counter and the forked
# workers' shared context, neither of them a memo.
GLOBALS = {"OPERATOR_APPLICATIONS", "_CTX"}


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


def test_one_memo_mechanism():
    one_slot, rebound = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "lru_cache" in set(_names(node.func)):
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value == 1 for v in sizes):
                    one_slot.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Global):
                rebound.update(node.names)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                rebound.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("_last"))
    assert one_slot == []
    assert rebound <= GLOBALS

    kept = perms.last_call(len).__code__
    for fn in (
        perms.length,
        perms.rajcode,
        perms.rothe_diagram,
        perms.closed_rothe_diagram,
        poly.support_view,
        polytopes.spanning_sumset,
    ):
        assert inspect.isfunction(fn) and fn.__code__ is kept, fn.__name__


def test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # A requirement's distribution name, as its module is named.
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    allowed = set(sys.stdlib_module_names) | {PACKAGE.name} | declared
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared += [
                f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    assert undeclared == []


def _functions(modules):
    return {
        (module.__name__, name): fn
        for module in modules
        for name, fn in vars(module).items()
        if callable(fn)
    }


def test_perfbench_tracer_fits_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    modules = (cache, cli, perms, pipedreams, poly, posets, polytopes)
    before = _functions(modules)
    config = cli.RunConfig(n=4)
    untraced = cli.render(cli.run(config)[0], "json")
    spans = tracer.Tracer("test")
    tracer.install(spans)
    try:
        traced = cli.render(cli.run(config)[0], "json")
    finally:
        spans.uninstall()
    assert traced == untraced
    names = {span["name"] for span in spans.spans}
    # The checkers the tracer times (rajchgot, euler and oracle it does not).
    checkers = [f"posets.check_conjecture_{k}" for k in ("1", "2", "3", "coeff", "mobius")] + [
        f"polytopes.check_{k}" for k in ("conjecture_4", "superset", "fms", "prop_converse")
    ]
    expected = ["pipedreams.pd_polynomial_all", "cache.load_or_build"]
    assert set(expected + checkers) - names == set()
    # The oracle checks the one table step by step: no second table.
    assert "poly.build_table" not in names
    after = _functions(modules)
    assert after.keys() == before.keys()
    assert [key for key, fn in after.items() if fn is not before[key]] == []
