"""Decisions that live in one module.

Every CSV and JSON artifact is written and read through the codec in
`ensdistill.core`, so only `core` may import `csv` or `json`, or `hashlib`
and `zipfile`, which hash files and read their sidecars, and only `core`
may call `open`, `write_text`, `write_bytes` or `np.savez`.  Only
`distill` addresses activations by member: the weak-learner search is
handed the one array a candidate's connection reads.  Only `distill`
knows the history file's columns: the verifier asks it whether a history
matches the replay.  Only `core` makes processes, through `multiprocessing`,
in the one helper that the weak-learner search and the table writer share,
and no module calls `os.fork` itself; that helper imports `multiprocessing`
where it starts its first child, so a process that never forks, such as a
gen-data run on a small table, never loads it.  No module makes threads, so
a fork never copies a process with a second thread running.  Every top-level
name in the package is read by the package itself.  SGD epochs run in two
drivers: `data.train_net`, which trains the teacher and each resched
student alone, and `findwl._train_stack`, which trains a search's restarts
as one stack; `evaluate` runs no epoch loop of its own.
And each config field's type and range is written once, as a rule beside
its class, which the library's `validate` and the CLI's `--config` both
apply; train-teacher's recipe flags also apply the `SgdConfig` fields' rules.
"""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from ensdistill import distill, findwl

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ensdistill"


def imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module, allowed", [("csv", {"core"}), ("json", {"core"}),
                                             ("hashlib", {"core"}), ("zipfile", {"core"})])
def test_only_the_codec_imports_the_format_modules(module, allowed):
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    importers = {path.stem for path in files if module in imported_modules(path)}
    assert importers <= allowed, f"{module} imported by {sorted(importers - allowed)}"
    assert "core" in importers


FILE_WRITERS = {"write_text", "write_bytes", "savez"}


def file_calls(path: Path) -> set:
    """The names of the calls in the file that open a file, `open(...)`, or
    write one, `p.write_text(...)`, `p.write_bytes(...)`, `np.savez(...)`."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                calls.add("open")
            elif isinstance(node.func, ast.Attribute) and node.func.attr in FILE_WRITERS:
                calls.add(node.func.attr)
    return calls


def test_only_the_codec_opens_and_writes_files():
    calls = {path.stem: file_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = {module: sorted(names) for module, names in calls.items()
               if names and module != "core"}
    assert not outside, f"files opened or written outside core: {outside}"
    assert calls["core"] >= {"open", "savez"}


def reads_os_fork(path: Path) -> bool:
    """`os.fork`, or `fork` imported from `os`, anywhere in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name == "fork" for alias in node.names)):
            return True
    return False


def test_only_core_makes_processes():
    files = sorted(PACKAGE.glob("*.py"))
    importers = {path.stem for path in files if "multiprocessing" in imported_modules(path)}
    assert importers == {"core"}, f"multiprocessing imported by {sorted(importers)}"
    forks = {path.stem for path in files if reads_os_fork(path)}
    assert not forks, f"os.fork read by {sorted(forks)}"


# gen-data on a table too small to format in children, then two chunks of
# `fork_chunks` on two workers; prints whether `multiprocessing` was loaded
# after each (gen-data prints its own line first)
_FORK_PROBE = """
import sys
from ensdistill import core
from ensdistill.cli import main
assert 160 * 5 < 2 * core._FORK_MIN_CELLS
assert main(["gen-data", "--dataset", "cube", "--n", "200", "--d", "4", "--seed", "1",
             "--out", sys.argv[1]]) == 0
print("multiprocessing" in sys.modules)
chunks = core.fork_chunks([1, 2], lambda c: iter([c * 10]), 2, lambda c: f"chunk {c}")
assert [(c, list(items)) for c, items in chunks] == [(1, [10]), (2, [20])]
print("multiprocessing" in sys.modules)
"""


def test_multiprocessing_is_loaded_only_when_a_child_starts(tmp_path):
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", _FORK_PROBE, str(tmp_path / "ds")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


def test_no_module_makes_threads():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    importers = {path.stem for path in files
                 if imported_modules(path) & {"threading", "contextvars"}}
    assert not importers, f"threading or contextvars imported by {sorted(importers)}"


def test_the_search_reads_no_tap_address():
    tree = ast.parse((PACKAGE / "findwl.py").read_text(encoding="utf-8"))
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not reads & {"source_round", "source_layer"}


def subscripted_names(path: Path) -> set:
    """Every string constant the file subscripts something with: `row["z"]`."""
    return {node.slice.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def test_only_distill_reads_the_history_columns():
    only_history = set(distill.HISTORY_COLUMNS) - {"label", "eta"}
    assert only_history == {"round", "edge_gamma", "z", "class_r", "clamp_count"}
    readers = {path.stem for path in sorted(PACKAGE.glob("*.py"))
               if subscripted_names(path) & only_history}
    assert readers <= {"distill"}, f"history rows read by {sorted(readers - {'distill'})}"


# top-level names that no package code reads, each kept on purpose; the
# second paths tests check the first ones against live in tests/oracle_runs.py
UNREAD_ON_PURPOSE = {
    "ensemble_predict": "the public prediction call: the benchmark times it, and "
                        "`evaluate` keeps it bound for the benchmark's tracer",
}


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _module_aliases(tree) -> set:
    """The names a file binds to package modules (`from . import data as data_mod`)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}


def _read_names(stmt, modules: set) -> set:
    reads = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        # module.name, e.g. data_mod.split; a method such as rng.split is not a
        # read of a top-level split
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add(node.attr)
    return reads


def test_every_top_level_name_is_read_by_the_package():
    defined, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _module_aliases(tree)
        for stmt in tree.body:
            names = _defined_names(stmt)
            defined += [(path.stem, name, len(reads)) for name in names
                        if not (name.startswith("__") and name.endswith("__"))]
            reads.append(_read_names(stmt, modules))
    # a definition's own body (a recursive call, say) does not count as a read
    unread = [f"{module}.{name}" for module, name, own in defined
              if name not in UNREAD_ON_PURPOSE
              and not any(name in r for i, r in enumerate(reads) if i != own)]
    assert not unread, f"read by no code in src/ensdistill: {unread}"
    assert set(UNREAD_ON_PURPOSE) <= {name for _, name, _ in defined}


@pytest.mark.parametrize("cls, rules, unruled", [
    (findwl.SgdConfig, findwl.SGD_RULES, set()),
    (findwl.FindWlConfig, findwl._FINDWL_RULES, {"sgd"}),
    (distill.DistillConfig, distill._DISTILL_RULES, {"findwl"}),
])
def test_every_config_field_has_a_rule(cls, rules, unruled):
    assert {f.name for f in fields(cls)} - unruled == set(rules)


def _calls_by_function(path: Path, name: str) -> list:
    """The top-level functions of the file that call `name`, directly or
    from a function nested in them, once per call."""
    callers = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    callers.append(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    return callers


def test_two_drivers_run_sgd_epochs():
    callers = [caller for path in sorted(PACKAGE.glob("*.py"))
               for caller in _calls_by_function(path, "sgd_epoch")]
    assert sorted(callers) == ["data.train_net", "findwl._train_stack"]
    # no epoch loop in `evaluate`: it reads neither a recipe's epochs nor
    # the step schedule
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"epochs", "lr_at_epoch"}
