"""Every module-level import in the package is read somewhere in its module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import reprokit

MODULES = sorted(Path(reprokit.__file__).parent.glob("*.py"))


def _module_level(body: list[ast.stmt]):
    """The module's statements, with those inside top-level ``if`` and
    ``try`` blocks (such as ``if TYPE_CHECKING:``), but none of a function's
    or class's."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _module_level(node.body + handlers + node.orelse + node.finalbody)


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name a module-level import binds that the
    module never reads. Names in annotations count as reads (they are
    expressions in the tree, under ``from __future__ import annotations``
    too), and ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports_and_counts_annotations_as_reads():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from dataclasses import dataclass, field\n"
        "from pathlib import Path\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .runner import ReproVerdict, Unused\n"
        "SCRIPT = 'import os\\nos.getcwd()\\n'\n"
        "@dataclass\n"
        "class A:\n"
        "    x: Path\n"
        "def f(v: ReproVerdict) -> None:\n"
        "    import json\n"
        "    return osp.join('a')\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: field", "line 8: Unused"]
