"""Checks on the package source and the test modules themselves."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import coreset_unlearn

PACKAGE = Path(coreset_unlearn.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order.

    ``from __future__`` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom math import inf as INF, pi\n"
    assert unused_imports(source + "x: INF = numpy.linalg.norm(pi)\n") == ["os"]


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_imports(source: str) -> list[str]:
    """``name:line`` of every import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"{node.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return found


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The modules of the package (names in ``modules``) that ``source`` imports outside any function.

    ``from .mod import ...`` and ``from coreset_unlearn.mod import ...`` name
    ``mod``; ``from . import a, b`` names ``a`` and ``b`` where they are
    modules and the package's ``__init__`` otherwise.
    """
    tree = ast.parse(source)
    in_function = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in in_function:
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("coreset_unlearn.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("coreset_unlearn")):
            parts = (node.module or "").split(".")[0 if node.level else 1 :]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found |= {alias.name if alias.name in modules else "__init__" for alias in node.names}
    return found & modules


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as a path that ends where it starts, or ``[]`` if it has none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_the_guards_see_a_late_import_and_a_cycle():
    source = "from . import a\nfrom .b import f\nimport coreset_unlearn.c\ndef g():\n    from .d import h\n    return h\n"
    assert function_imports(source) == ["g:5"]
    assert package_imports(source, {"a", "b", "c", "d", "__init__"}) == {"a", "b", "c"}
    assert package_imports("from . import verify_mod, x\n", {"verify_mod", "__init__"}) == {"verify_mod", "__init__"}
    cycle = import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert sorted(cycle[1:]) == ["a", "b", "c"] and cycle[0] == cycle[-1]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_module_imports_are_acyclic():
    paths = MODULES + [PACKAGE / "__init__.py"]
    names = {p.stem for p in paths}
    graph = {p.stem: package_imports(p.read_text(encoding="utf-8"), names) for p in paths}
    assert "bbq_linear" not in graph["datastreams"] | graph["general_bbq"]  # the stored-row format lives in datastreams
    assert import_cycle(graph) == []


def private_reads(source: str) -> list[str]:
    """Every underscore-prefixed name that ``source`` imports from, or reads off, a package module.

    ``from .mod import _name`` gives ``_name``; ``mod._name``, where ``mod``
    was bound by ``from . import mod`` or ``import coreset_unlearn.mod as
    mod``, gives ``mod._name``.  Dunder names are not private.
    """
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("coreset_unlearn")):
            found += [alias.name for alias in node.names if private(alias.name)]
            if not node.module or node.module == "coreset_unlearn":
                modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.asname and alias.name.startswith("coreset_unlearn.")}
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and private(node.attr)
    ]
    return found


def test_the_guard_sees_a_private_read():
    source = (
        "from .general_bbq import _Rule, erm_fit\nfrom . import capacity, __version__\n"
        "import coreset_unlearn.bbq_linear as bl\nfrom numpy import _private\n"
        "def f(self):\n    return capacity._mean, capacity.__doc__, bl._fit, self._own, erm_fit._x\n"
    )
    assert private_reads(source) == ["_Rule", "capacity._mean", "bl._fit"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
