"""Every module-level import in `src/bweyl` is read by its module, and every
definition by some module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "bweyl").glob("*.py"))

# read by the tests alone: the sweep the point-suite tests run over
TEST_ONLY = {"suites.SWEEP_POINTS"}


def unread_imports(source: str) -> list[str]:
    """The names bound by module-level imports of `source` that no
    expression in it reads.  A local name that shadows an import counts as
    a read, so such an import is not caught."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unread_imports(path.read_text()) == []


def test_unread_imports_are_found():
    source = ("from collections import Counter\nfrom functools import cache, reduce\n"
              "import os.path\n\n@cache\ndef f(x):\n    return reduce(max, x)\n")
    assert unread_imports(source) == ["Counter", "os"]


def definitions(source: str) -> list[str]:
    """The module-level functions, classes and constants of `source` and the
    methods of its classes, dunder names aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def reads(source: str) -> set[str]:
    """The names `source` loads, bare or as an attribute of anything; a
    method counts as read wherever an attribute of its name is, and a
    definition's own body counts."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def unread_definitions(sources: dict) -> list[str]:
    """module.name for each definition in `sources` (module -> source) that
    no source reads."""
    read = set().union(*map(reads, sources.values()))
    return [f"{module}.{name}" for module, source in sources.items()
            for name in definitions(source) if name not in read]


def test_every_definition_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert sorted(set(unread_definitions(sources)) - TEST_ONLY) == []
    assert set(unread_definitions(sources)) >= TEST_ONLY


def test_unread_definitions_are_found():
    sources = {
        "a": "LIMIT = 3\nUSED = 2\n\nclass K:\n    def __init__(self):\n        pass\n\n"
             "    def method(self):\n        return USED\n\n    def spare(self):\n        pass\n",
        "b": "from a import K\n\ndef helper():\n    return K().method()\n\n"
             "def orphan():\n    return helper()\n",
    }
    assert unread_definitions(sources) == ["a.LIMIT", "a.spare", "b.orphan"]
