"""The package imports nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

import pytest

import mpturan

SOURCES = sorted(Path(mpturan.__file__).parent.glob("*.py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "verifier.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name for name in _absolute_imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
