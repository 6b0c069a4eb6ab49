"""Every binpick name the demo scripts import exists; the demos are parsed, not run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def binpick_imports(path: Path) -> list:
    """(module, name) for each `from binpick... import name` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "binpick":
            found.extend((node.module, alias.name) for alias in node.names if alias.name != "*")
    return found


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule not yet imported by its package
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = binpick_imports(demo)
    assert imports, f"{demo.name} imports nothing from binpick"
    missing = [f"{module}.{name}" for module, name in imports if not resolves(module, name)]
    assert missing == []
