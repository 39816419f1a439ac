"""Decisions that live in one module.

Every CSV and JSON artifact is written and read through the codec in
`ensdistill.core`, so only `core` may import `csv` or `json`.  Only
`distill` addresses activations by (member, layer): the weak-learner search
is handed the one array a candidate's connection reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ensdistill"


def imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module, allowed", [("csv", {"core"}), ("json", {"core"})])
def test_only_the_codec_imports_the_format_modules(module, allowed):
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    importers = {path.stem for path in files if module in imported_modules(path)}
    assert importers <= allowed, f"{module} imported by {sorted(importers - allowed)}"
    assert "core" in importers


def test_the_search_reads_no_tap_address():
    tree = ast.parse((PACKAGE / "findwl.py").read_text(encoding="utf-8"))
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not reads & {"source_round", "source_layer"}
