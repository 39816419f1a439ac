"""Artifact files are encoded in one place.

Every CSV and JSON artifact is written and read through the codec in
`ensdistill.core`, so only `core` may import `csv`.  `cli` may import `json`
as well: it parses the teacher file from the bytes it has just hashed.
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


@pytest.mark.parametrize("module, allowed", [("csv", {"core"}), ("json", {"core", "cli"})])
def test_only_the_codec_imports_the_format_modules(module, allowed):
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    importers = {path.stem for path in files if module in imported_modules(path)}
    assert importers <= allowed, f"{module} imported by {sorted(importers - allowed)}"
    assert "core" in importers
