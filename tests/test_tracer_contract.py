"""The names `benchmarks/tracer.py` rebinds stay bound where it rebinds them.

The benchmark's tracer times the pipeline by replacing functions in the
namespace of each module that imports them.  A refactor that moves or
renames one of those bindings would silently drop its span, so every row
of `TRACED` is checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("name, attr, home, importers", TRACED,
                         ids=[f"{name}:{attr}" for name, attr, _, _ in TRACED])
def test_traced_name_is_bound_in_every_importer(name, attr, home, importers):
    original = getattr(importlib.import_module(f"ensdistill.{home}"), attr)
    assert callable(original), name
    for importer in importers:
        module = importlib.import_module(f"ensdistill.{importer}")
        assert getattr(module, attr, None) is original, f"{name}: ensdistill.{importer}.{attr}"
