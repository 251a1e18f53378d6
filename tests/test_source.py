"""Six checks on the package source.

The package holds only code that something in it reaches.  Every top-level
function and class in `src/grothpoly`, and every method of such a class
but the dunders, must be referenced by name, as a bare name or as an
attribute, somewhere in the package outside its own definition.  A
definition that only the tests use belongs in the tests, next to what it is
compared with.

The span tracer of the benchmark (`perfbench/tracer.py`) wraps grothpoly's
layer boundaries by module attribute, so renaming one of them breaks every
traced benchmark run.  A traced sweep must keep its report, record a span
for each checker it times, nest each build of P_w inside the mobius that
asked for it, build and load no table, and leave every attribute as it
found it.

What the checks of one permutation share is kept by one memo,
`perms.last_call`: no one-slot `lru_cache`, no module global that a function
rebinds to remember its last call, and every memoized fact stays a plain
function, which the tracer can wrap.

The package imports only the standard library, itself and the dependencies
`pyproject.toml` declares: a module that is installed here but not declared
would pass locally and fail on a clean install.  Every name a module
imports is used in it: an import left behind by a deletion is dead code.

The docs name only what exists: every backticked dotted name whose head is
a grothpoly module (`poly.code`, `poly._Box.grade`, ...) in README.md and in
the docstrings and comments of the package resolves to an attribute.
"""
import ast
import collections
import inspect
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

import grothpoly
from grothpoly import cache, cli, perms, pipedreams, poly, posets, polytopes, verdicts

PACKAGE = Path(grothpoly.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Kept without a caller in the package: `build_table` collects the walk of
# all of S_n, the reference table of the tests, and the benchmark's tracer
# wraps it by name.
ALLOWED = {("poly", "build_table")}

# The module globals that functions rebind: a counter, not a memo.
GLOBALS = {"OPERATOR_APPLICATIONS"}


def _names(node):
    """Every name `node` refers to, as a bare name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_definitions():
    """(module, name) of each top-level function or class, and
    (module, "Class.method") of each method of such a class but the
    dunders, referenced nowhere in the package outside its own definition:
    its name occurs no more often in the package than in that definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    everywhere = collections.Counter(name for tree in trees.values() for name in _names(tree))
    definitions = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (*functions, ast.ClassDef)):
                definitions.append((module, stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (module, f"{stmt.name}.{method.name}", method)
                    for method in stmt.body
                    if isinstance(method, functions) and not method.name.startswith("__")
                ]
    return {
        (module, name)
        for module, name, node in definitions
        if everywhere[node.name] == collections.Counter(_names(node))[node.name]
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


def unused_imports(source: str) -> list:
    """The names a module's source imports (but `annotations`, which only
    switches a compiler feature on) that it never refers to by bare name."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    return [name for name in imported if name != "annotations" and name not in used]


def test_imports_are_used():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}
    assert unused_imports("from operator import itemgetter, mul\nmul(1, 2)\n") == ["itemgetter"]


MODULES = {
    m.__name__.rsplit(".", 1)[-1]: m
    for m in (cache, cli, perms, pipedreams, poly, posets, polytopes, verdicts)
}
DOTTED = re.compile(r"`(?:grothpoly\.)?(" + "|".join(MODULES) + r")((?:\.[A-Za-z_]\w*)+)")


def stale_names(text: str) -> list:
    """The backticked dotted names in `text` whose head is a grothpoly
    module and that do not resolve by getattr from it."""
    stale = []
    for match in DOTTED.finditer(text):
        target = MODULES[match.group(1)]
        for attr in match.group(2)[1:].split("."):
            if not hasattr(target, attr):
                stale.append(match.group(1) + match.group(2))
                break
            target = getattr(target, attr)
    return stale


def docs_of(source: str) -> str:
    """The docstrings and comments of a module's source."""
    tree = ast.parse(source)
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(node, nodes)]
    docs += [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    return "\n".join(docs)


def test_docs_name_what_exists():
    texts = {"README.md": (ROOT / "README.md").read_text()}
    texts.update((path.name, docs_of(path.read_text())) for path in sorted(PACKAGE.glob("*.py")))
    assert {name: stale for name, text in texts.items() if (stale := stale_names(text))} == {}
    assert stale_names("`posets.gone`, `poly._Box.gone()`, `poly._Box.grade`") == [
        "posets.gone",
        "poly._Box.gone",
    ]
    assert stale_names(docs_of('"""`perms.gone`"""\n# `cli.gone`\nx = "`cli.also_gone`"\n')) == [
        "perms.gone",
        "cli.gone",
    ]


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
    assert set(checkers) - names == set()
    # The sweep walks the first-ascent tree: no pipe dreams, no cache.
    assert {"pipedreams.pd_polynomial_all", "cache.load_or_build"} & names == set()
    # mobius builds its own P_w through the module global, so each traced
    # build is a child of a mobius span.
    by_id = {span["id"]: span["name"] for span in spans.spans}
    builds = [span for span in spans.spans if span["name"] == "posets.build_Pw"]
    assert "posets.mobius" in names and builds
    assert {by_id.get(span["parent"]) for span in builds} == {"posets.mobius"}
    # Nor the divided-difference table.
    assert "poly.build_table" not in names
    after = _functions(modules)
    assert after.keys() == before.keys()
    assert [key for key, fn in after.items() if fn is not before[key]] == []
