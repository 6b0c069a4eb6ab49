"""The demo scripts run to the end, and every binpick name that they import, and
that the benchmark's traced runs wrap, exists; the benchmark itself is not run."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    """A demo exits 0, writing its demo_out/ under a scratch directory."""
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


TRACED_CLI = ROOT / "benchmarks" / "traced_cli.py"


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    return traced_cli


def counted_arguments() -> dict:
    """COUNTS name -> the argument names its lambda reads as <first parameter>["name"]."""
    tree = ast.parse(TRACED_CLI.read_text(), str(TRACED_CLI))
    counts = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "COUNTS" for t in node.targets))
    found = {}
    for key, value in zip(counts.keys, counts.values):
        fn = next(node for node in ast.walk(value) if isinstance(node, ast.Lambda))
        bound = fn.args.args[0].arg
        found[key.value] = {node.slice.value for node in ast.walk(fn.body) if isinstance(node, ast.Subscript)
                            and isinstance(node.value, ast.Name) and node.value.id == bound}
    return found


def test_traced_names_resolve():
    """benchmarks/traced_cli.py rebinds each TRACED name, "Class.method" on its class; a
    name missing from binpick would fail every traced benchmark run."""
    traced_cli = load_traced_cli()
    missing = []
    for module_name, names in traced_cli.TRACED.items():
        module = importlib.import_module(f"binpick.{module_name}")
        for name in names:
            class_name, _, attr = name.rpartition(".")
            owner = getattr(module, class_name, None) if class_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_counted_arguments_bind():
    """traced_cli.COUNTS reads some calls' arguments by name from their bound
    signature; a renamed parameter would fail every traced benchmark run."""
    traced_cli = load_traced_cli()
    reads = counted_arguments()
    assert set(reads) == set(traced_cli.COUNTS)
    assert any(reads.values())  # the walk finds what COUNTS reads
    unbound = []
    for name, arguments in sorted(reads.items()):
        module_name, _, fn_name = name.partition(".")
        fn = getattr(importlib.import_module(f"binpick.{module_name}"), fn_name)
        unbound += [f"{name}({arg})" for arg in sorted(arguments - set(inspect.signature(fn).parameters))]
    assert unbound == []
