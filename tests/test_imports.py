"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import metric_completer

PACKAGE = Path(metric_completer.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of ``source``
    reads; ``from __future__`` imports are compiler directives and exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_module_is_scanned():
    names = {p.name for p in MODULES}
    assert {"cli.py", "completion.py", "graphs.py", "obstacles.py", "params.py"} <= names
