"""Tests of the benchmark itself, on the toy-size smoke workloads.

    python3 -m pytest benchmarks
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(SMOKE) == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_untraced_then_traced(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--smoke", "--workload", workload, "--seconds", "0.5",
                     "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = last_json(proc)
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 10
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        for metric in SPEC[kind]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "tracing overhead distill" in proc.stdout


def test_non_default_seed_checks_identity_only():
    proc = bench("--smoke", "--workload", "cube-escalate", "--seed", "4", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert last_json(proc)["correct"] is True
    result = json.loads((ROOT / ".bench_work" / "results" /
                         "cube-escalate-smoke-seed12-trace0.json").read_text())
    names = [c["check"] for c in result["checks"]]
    assert "result fields of repetition 1 equal repetition 0" in names
    assert not any("reference" in n for n in names)


# Runs the smoke workload with every 5th SGD epoch of the weak-learner search
# made 50 ms slower, then reports the time added to each repetition.
SLOW_EPOCHS = """
import sys, time
sys.path[:0] = [sys.argv.pop(1), sys.argv.pop(1)]
from ensdistill import findwl
import pipeline, run
original, calls = findwl.sgd_epoch, [0]
def slow_epoch(*args, **kwargs):
    calls[0] += 1
    if calls[0] % 5 == 0:
        time.sleep(0.05)
    return original(*args, **kwargs)
findwl.sgd_epoch = slow_epoch
code = pipeline.run(run.parse_args(sys.argv[1:]), pipeline.HERE.parent)
print(calls[0] // 5 * 0.05 / pipeline.REPS, file=sys.stderr)
sys.exit(code)
"""


def test_slowing_one_epoch_in_five_moves_distill_s():
    flags = ("--smoke", "--workload", "cube-escalate", "--seconds", "0.2")
    base = bench(*flags)
    slowed = subprocess.run([sys.executable, "-c", SLOW_EPOCHS, str(ROOT / "src"), str(HERE),
                             *flags], cwd=ROOT, capture_output=True, text=True,
                            timeout=170, check=False)
    assert base.returncode == 0 and slowed.returncode == 0, slowed.stdout + slowed.stderr
    per_rep_s = float(slowed.stderr.split()[-1])
    assert per_rep_s > 0
    moved = (last_json(slowed)["metrics"]["distill_s"]["value"]
             - last_json(base)["metrics"]["distill_s"]["value"])
    assert 0.8 * per_rep_s < moved < 1.5 * per_rep_s + 0.05


def test_record_reference_replaces_a_changed_entry(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    reference = tmp_path / HERE.name / "reference.json"
    recorded = json.loads(reference.read_text())
    changed = json.loads(json.dumps(recorded))
    entry = changed["smoke/cube-escalate"]
    entry["fields"]["members"] += 1
    entry["sha256"]["history.csv"] = "0" * 64
    reference.write_text(json.dumps(changed))
    flags = ("--smoke", "--workload", "cube-escalate", "--seconds", "0.2")
    script = tmp_path / HERE.name / "run.py"

    stale = bench(*flags, cwd=tmp_path, script=script)
    assert stale.returncode == 1 and last_json(stale)["failed"] == 2
    proc = bench(*flags, "--record-reference", cwd=tmp_path, script=script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(reference.read_text()) == recorded
    assert bench(*flags, cwd=tmp_path, script=script).returncode == 0


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from ensdistill import cli, core, data, distill, evaluate, findwl, game, nets
        from tracer import Tracer
        modules = {"core": core, "nets": nets, "game": game, "findwl": findwl,
                   "distill": distill, "data": data, "evaluate": evaluate, "cli": cli}
        before = {name: dict(vars(m)) for name, m in modules.items()}
        rng_before = dict(vars(core.RngStream))
        tracer = Tracer()
        tracer.install(modules)
        assert findwl.forward is not nets.forward
        tracer.uninstall()
        assert {name: dict(vars(m)) for name, m in modules.items()} == before
        assert dict(vars(core.RngStream)) == rng_before
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cube-escalate", "--seed", "2", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
