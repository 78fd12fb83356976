"""Every module-level import in `src/bweyl` is read by its module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "bweyl").glob("*.py"))


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
