"""Runs one workload: set-up, pipeline phases, inference timing, checks.

Imported by run.py after BLAS threads are pinned and src/ is on sys.path.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import ensdistill
from ensdistill import cli, core, data, distill, evaluate, findwl, game, nets

from tracer import Tracer
from workloads import EARLY_EXIT_THRESHOLD, EXPECTED_EXIT, G_INF, SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = str(Path(ensdistill.__file__).resolve().parent.parent)
REFERENCE_FILE = HERE / "reference.json"
MODULES = {"core": core, "nets": nets, "game": game, "findwl": findwl,
           "distill": distill, "data": data, "evaluate": evaluate, "cli": cli}

# end-to-end metrics of an untraced run: name -> unit
E2E_UNITS = {
    "setup_s": "s", "teacher_s": "s", "distill_s": "s", "eval_s": "s", "verify_s": "s",
    "resched_s": "s", "pipeline_s": "s", "predict_rows_per_s": "rows/s",
    "predict_row_mean_us": "us", "predict_row_p50_us": "us", "predict_row_p99_us": "us",
    "peak_rss_mb": "MB", "failed_ratio": "ratio",
}
# The metrics of the final JSON line, gated by BENCHMARK.json.  The others are
# printed and written to the result file: the short phases and single-row
# latency spread too much for a gate, resched_s is absent on one workload,
# and failed_ratio is 0 whenever the program is correct.  Every phase is
# inside pipeline_s.
#
# On a shared host the CPU flips, every second or so, between its own speed
# and one up to 2x slower.  A median of samples taken across such flips
# jumps between the two levels from run to run, so the gated times are means
# over all the work of their kind in the run: the phase walls over the
# repetitions (REPS), and the inference calls over every burst.
# Both see a cost the code pays on any share of its work.
GATED = ("setup_s", "distill_s", "pipeline_s", "predict_rows_per_s", "peak_rss_mb")
# gen-data processes in one untraced run; setup_s is their median.  The
# first runs before the phases and the others between repetitions, because
# the CPU's slow state can last for tens of seconds and would cover them all
# if they ran back to back.
SETUP_REPS = 3
# Repetitions of the pipeline phases in one untraced run.  Two keep a run of
# either workload near 50 s, so that the 48 runs of a full benchmark check fit
# its time limit even when the host is slow.
REPS = 2

# a gen-data run in a fresh interpreter: process start, imports, the phase
_SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                  "from ensdistill.cli import main; sys.exit(main(sys.argv[1:]))")
_SUBPROCESS_TIMEOUT_S = 120


class Checks:
    """Correctness checks; each is one attempted operation."""

    def __init__(self):
        self.items: list[dict] = []

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not item["ok"] for item in self.items)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def phase_argv(wl, phase: str, seed: int, work: Path, out: Path | None = None) -> list:
    data_dir, teacher = str(work / "data"), str(work / "teacher.json")
    ens = str(work / "ensemble.json")
    evaluation = ["eval", "--ensemble", ens, "--data", data_dir, "--teacher", teacher]
    return {
        "gen-data": ["gen-data", "--dataset", wl.dataset, "--n", str(wl.n), "--d", str(wl.d),
                     "--seed", str(seed), "--out", str(out or work / "data")],
        "train-teacher": ["train-teacher", "--data", data_dir, "--out", teacher,
                          "--seed", str(seed), "--spec", *wl.teacher],
        "distill": ["distill", "--data", data_dir, "--teacher", teacher,
                    "--config", str(work / "config.json"), "--out", ens,
                    "--history", str(work / "history.csv")],
        "eval-anytime": evaluation + ["--mode", "anytime", "--out", str(work / "anytime.csv")],
        "eval-early-exit": evaluation + ["--mode", "early-exit", "--threshold",
                                         EARLY_EXIT_THRESHOLD,
                                         "--out", str(work / "early_exit.csv")],
        "verify": ["verify", "--history", str(work / "history.csv"), "--ensemble", ens,
                   "--data", data_dir, "--g-inf", G_INF, "--out", str(work / "verify.json")],
        "eval-resched": evaluation + ["--mode", "resched", "--out", str(work / "resched.csv"),
                                      "--seed", str(seed)],
    }[phase]


def run_phase(argv: list, log: Path) -> tuple[int, float]:
    """`cli.main(argv)` in this process, its output sent to `log`."""
    with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(fh):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the flags
            code = exc.code
        wall = time.perf_counter() - start
    return code, wall


def timed_setup(wl, seed: int, work: Path, rep: int, checks: Checks) -> tuple[float, str]:
    """Wall and output hash of one gen-data run in a fresh interpreter.  The
    output of the first run becomes the data of the pipeline phases."""
    out = work / f"setup{rep}"
    argv = phase_argv(wl, "gen-data", seed, work, out)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, SRC, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=_SUBPROCESS_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    checks.check(f"gen-data run {rep} exits {EXPECTED_EXIT['gen-data']}",
                 proc.returncode == EXPECTED_EXIT["gen-data"],
                 proc.stderr.decode(errors="replace")[-500:])
    tree = sha256_tree(out) if out.is_dir() else ""
    if rep == 0 and out.is_dir():
        out.rename(work / "data")
    else:
        shutil.rmtree(out, ignore_errors=True)
    return wall, tree


# share of each inference burst spent on single-row calls; the rest goes to
# the batch calls behind the gated predict_rows_per_s
ROW_SHARE = 0.25


class InferenceTimer:
    """Full-ensemble `ensemble_predict` on the test split, in short bursts
    spread over the run, so that they sample the CPU's speed at many times.
    A burst spends a quarter of its time on single-row calls that walk the
    test rows in order, then the rest on whole-split batch calls, which are
    gated; the last burst goes on with single rows until every row has been
    sent alone.  Each kind runs in one stretch, because a batch call evicts
    the caches that the next few single-row calls then refill."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.rows = [x[i:i + 1] for i in range(x.shape[0])]
        self.position = 0
        self.batch_s, self.row_us = array("d"), array("d")
        self.burst_rows_per_s = array("d")

    def burst(self, ens, seconds: float, last: bool) -> None:
        x, k = self.x, len(ens.members)
        predict = distill.ensemble_predict
        for _ in range(3):
            predict(ens, x[:1], k)
        deadline = time.perf_counter() + seconds * ROW_SHARE
        while time.perf_counter() < deadline or last and len(self.row_us) < len(self.rows):
            row = self.rows[self.position]
            self.position = (self.position + 1) % len(self.rows)
            start = time.perf_counter()
            predict(ens, row, k)
            self.row_us.append((time.perf_counter() - start) * 1e6)
        for _ in range(3):
            predict(ens, x, k)
        deadline = time.perf_counter() + seconds * (1 - ROW_SHARE)
        first = len(self.batch_s)
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            predict(ens, x, k)
            self.batch_s.append(time.perf_counter() - start)
        calls = self.batch_s[first:]
        if calls:
            self.burst_rows_per_s.append(x.shape[0] * len(calls) / sum(calls))

    def result(self) -> dict:
        row_us = np.asarray(self.row_us)
        return {
            "predict_rows_per_s": {
                "value": self.x.shape[0] * len(self.batch_s) / sum(self.batch_s),
                "samples": len(self.batch_s), "batch_rows": int(self.x.shape[0]),
                "bursts": list(self.burst_rows_per_s),
                "statistic": "rows of all batch calls / their total time"},
            "predict_row_mean_us": {
                "value": float(row_us.mean()), "samples": len(row_us),
                "statistic": "mean over all single-row calls"},
            "predict_row_p50_us": {
                "value": float(np.percentile(row_us, 50)), "samples": len(row_us),
                "statistic": "p50 over all single-row calls"},
            "predict_row_p99_us": {
                "value": float(np.percentile(row_us, 99)), "samples": len(row_us),
                "statistic": "p99 over all single-row calls"},
        }


def read_csv_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def result_fields(wl, work: Path) -> dict:
    """The run's results that any faithful change must reproduce."""
    meta = json.loads((work / "ensemble.json").read_text(encoding="utf-8"))["meta"]
    early = read_csv_rows(work / "early_exit.csv")[0]
    fields = {
        "members": len(meta["member_class_r"]),
        "member_class_r": meta["member_class_r"],
        "anytime_accuracy": [float(r["accuracy"]) for r in read_csv_rows(work / "anytime.csv")],
        "early_exit": {key: float(value) for key, value in early.items()},
    }
    if wl.resched:
        fields["resched_accuracy"] = [float(r["accuracy"])
                                      for r in read_csv_rows(work / "resched.csv")]
    return fields


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ensdistill").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown: not a git checkout (see source_sha256)"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown: git not available"
    return proc.stdout.strip() or "unknown"


def provenance(root: Path, wl, bench_seed, seed: int, smoke: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_hash(root),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": {var: os.environ.get(var) for var in
                                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "smoke": smoke,
        "bench_seed": bench_seed,
        "workload_seed": seed,
        "default_seed": wl.seeds[0],
        "client": "closed loop, one client, one process at a time",
    }


# -- per-module metrics of a traced run --------------------------------------

def module_metrics(tracer: Tracer, phase_walls: dict) -> dict:
    """Per-module metrics: name -> (value, unit)."""
    spans = tracer.summary()
    counts = tracer.counts

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    restarts = calls("findwl.init_params")
    steps = tracer.count_under("nets.backward", "findwl.sgd_epoch")
    members = tracer.count_under("game.md_update", "distill.run")
    attempts = calls("findwl.find_weak_learner")
    epoch_s = total("findwl.sgd_epoch")
    out = {
        "nets.forward_calls": (calls("nets.forward"), "count"),
        "nets.forward_s": (total("nets.forward"), "s"),
        "nets.forward_rows": (counts["forward_rows"], "rows"),
        "nets.backward_calls": (calls("nets.backward"), "count"),
        "nets.backward_s": (total("nets.backward"), "s"),
        "nets.gflops": (ratio(counts["forward_flop"], total("nets.forward")) / 1e9, "GFLOP/s"),
        "findwl.find_calls": (attempts, "count"),
        "findwl.find_s": (total("findwl.find_weak_learner"), "s"),
        "findwl.restarts": (restarts, "count"),
        "findwl.restarts_diverged": (restarts - calls("game.weak_learning_check"), "count"),
        "findwl.accept_ratio": (ratio(counts["accepted_searches"], restarts), "ratio"),
        "findwl.sgd_epochs": (calls("findwl.sgd_epoch"), "count"),
        "findwl.sgd_steps": (steps, "count"),
        "findwl.sgd_epoch_s": (epoch_s, "s"),
        "findwl.sgd_self_s": (spans.get("findwl.sgd_epoch", {}).get("self_s", 0.0), "s"),
        "findwl.steps_per_s": (ratio(steps, epoch_s), "1/s"),
        "distill.run_s": (total("distill.run"), "s"),
        "distill.self_s": (total("distill.run") - total("findwl.find_weak_learner"), "s"),
        "distill.attempts": (attempts, "count"),
        "distill.members": (members, "count"),
        "distill.escalations": (attempts - members, "count"),
        "distill.artifact_io_s": (total("distill.artifact_io"), "s"),
        "game.md_update_calls": (calls("game.md_update"), "count"),
        "game.md_update_s": (total("game.md_update"), "s"),
        "game.check_calls": (calls("game.weak_learning_check"), "count"),
        "game.check_s": (total("game.weak_learning_check"), "s"),
        "core.rng_calls": (calls("core.rng"), "count"),
        "core.rng_s": (total("core.rng"), "s"),
        "data.gen_s": (total("data.gen"), "s"),
        "data.train_teacher_s": (total("data.train_teacher"), "s"),
        "data.csv_write_s": (total("data.csv_write"), "s"),
        "data.csv_write_mb": (counts["csv_write_bytes"] / 1e6, "MB"),
        "data.csv_read_s": (total("data.csv_read"), "s"),
        "data.csv_read_mb": (counts["csv_read_bytes"] / 1e6, "MB"),
        "data.csv_read_calls": (calls("data.csv_read"), "count"),
        "evaluate.anytime_s": (total("evaluate.anytime_curve"), "s"),
        "evaluate.early_exit_s": (total("evaluate.early_exit"), "s"),
        "evaluate.verify_bound_s": (total("evaluate.verify_bound"), "s"),
        "evaluate.resched_s": (total("evaluate.baseline_resched"), "s"),
        "evaluate.train_plain_student_s": (total("evaluate.train_plain_student"), "s"),
        "cli.overhead_s": (sum(spans[f"phase.{p}"]["self_s"] for p in phase_walls), "s"),
    }
    for phase in EXPECTED_EXIT:
        out[f"cli.{phase_key(phase)}_s"] = (phase_walls.get(phase, 0.0), "s")
    return out


def phase_key(phase: str) -> str:
    return phase.replace("-", "_")


def module_shares(tracer: Tracer, traced_wall: float) -> dict:
    """Self time per module (prefix of the span name) as a share of the wall."""
    shares = {}
    for name, span in tracer.summary().items():
        module = "cli" if name.startswith("phase.") else name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + span["self_s"]
    return {module: self_s / traced_wall for module, self_s in sorted(shares.items())}


# -- the run -------------------------------------------------------------------

def load_reference() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def reference_key(wl, smoke: bool) -> str:
    return f"smoke/{wl.name}" if smoke else wl.name


def run(args, root: Path) -> int:
    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    src_pkg = (root / "src" / "ensdistill").resolve()
    if Path(ensdistill.__file__).resolve().parent != src_pkg:
        print(f"error: ensdistill imported from {ensdistill.__file__}, not {src_pkg}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    bench_seed = wl.seeds[0] if args.seed is None else args.seed
    seed = wl.workload_seed(bench_seed)
    tag = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{seed}"
    bench_dir = root / ".bench_work"
    work = bench_dir / f"{tag}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(dict(wl.distill, seed=seed)), encoding="utf-8")

    checks = Checks()
    walls = {}          # phase -> wall of each repetition
    timings = {}
    # the untraced run times the phases with nothing wrapped; the traced run
    # runs them once with every module traced, gen-data included
    tracer = Tracer()
    setups = []         # (wall, output hash) of each set-up run
    if args.trace:
        tracer.install(MODULES)
        reps, phases = 1, wl.phases
        setup_after = set()
    else:
        setups.append(timed_setup(wl, seed, work, 0, checks))
        reps, phases = REPS, wl.phases[1:]
        setup_after = {round(i * reps / (SETUP_REPS - 1)) - 1 for i in range(1, SETUP_REPS)}
    # untraced, an inference burst follows distill and every later phase
    timer, ens = None, None
    if not args.trace and (work / "data" / "test.csv").is_file():
        timer = InferenceTimer(data.load_dataset_csv(work / "data" / "test.csv").x)
    burst_after = phases[phases.index("distill"):]
    burst_s = args.seconds / (reps * len(burst_after))

    def run_phases(rep: int) -> bool:
        nonlocal ens
        for phase in phases:
            with tracer.phase(f"phase.{phase}"):
                code, wall = run_phase(phase_argv(wl, phase, seed, work),
                                       work / f"{phase}.log")
            walls.setdefault(phase, []).append(wall)
            if not checks.check(f"{phase} exits {EXPECTED_EXIT[phase]} (repetition {rep})",
                                code == EXPECTED_EXIT[phase], f"exit {code}"):
                return False
            if timer is not None and phase in burst_after:
                if phase == "distill":
                    ens = distill.load_ensemble(work / "ensemble.json")
                timer.burst(ens, burst_s, last=rep == reps - 1 and phase == phases[-1])
        return True

    outputs = []        # (result fields, artifact sha256) of each repetition
    for rep in range(reps):
        if not run_phases(rep):
            break
        outputs.append(rep_outputs(wl, work))
        if rep in setup_after:
            setups.append(timed_setup(wl, seed, work, len(setups), checks))
    tracer.uninstall()
    if setups:
        setup_s = [wall for wall, _ in setups]
        checks.check("gen-data output identical across set-up runs",
                     len({tree for _, tree in setups}) == 1, setups[0][1])
        timings["setup_s"] = {"value": statistics.median(setup_s), "samples": len(setup_s),
                              "statistic": f"median of {len(setup_s)} fresh processes",
                              "runs_s": setup_s}

    completed = checks.check("every phase of every repetition ran", len(outputs) == reps,
                             f"{len(outputs)} of {reps} repetitions completed")
    fields, hashes = outputs[0] if outputs else ({}, {})
    if completed:
        check_results(wl, work, seed, args, outputs, checks)

    metrics = {}
    phase_walls = {phase: statistics.fmean(w) for phase, w in walls.items()}
    if not args.trace:
        def mean_of_reps(name, phase_names):
            per_rep = [sum(walls[p][r] for p in phase_names) for r in range(len(outputs))]
            if per_rep:
                timings[name] = {"value": statistics.fmean(per_rep), "samples": len(per_rep),
                                 "statistic": f"mean of {len(per_rep)} repetitions",
                                 "runs_s": per_rep}

        mean_of_reps("teacher_s", ["train-teacher"])
        mean_of_reps("distill_s", ["distill"])
        mean_of_reps("eval_s", ["eval-anytime", "eval-early-exit"])
        mean_of_reps("verify_s", ["verify"])
        if wl.resched:
            mean_of_reps("resched_s", ["eval-resched"])
        mean_of_reps("pipeline_s", phases)
        timings["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, "statistic": "peak over the process"}
        attempted = len(checks.items)
        timings["failed_ratio"] = {"value": checks.failed / attempted, "samples": attempted,
                                   "statistic": f"{checks.failed} failed of {attempted} "
                                                f"operations (phases and checks)"}
        if timer is not None and timer.batch_s:
            timings.update(timer.result())
        for name, entry in timings.items():
            entry.setdefault("samples", 1)
            entry.setdefault("statistic", "one run")
            entry["unit"] = E2E_UNITS[name]
        metrics = {name: {"value": timings[name]["value"], "unit": E2E_UNITS[name]}
                   for name in GATED if name in timings}
    else:
        per_module = module_metrics(tracer, phase_walls)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_module.items()}
        traced_wall = sum(phase_walls.values())
        timings["module_self_share"] = module_shares(tracer, traced_wall)
        timings["spans"] = tracer.summary()
        timings["overhead"] = tracing_overhead(bench_dir, tag, phase_walls)
        tracer.save(work / "spans.npz")

    result = {
        "provenance": provenance(root, wl, bench_seed, seed, args.smoke),
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": reps,
        "phase_walls_s": phase_walls,
        "phase_walls_per_repetition_s": walls,
        "timings": timings,
        "result_fields": fields,
        "sha256": hashes,
        "checks": checks.items,
        "metrics": metrics,
    }
    results_dir = bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print_table(wl, args, seed, timings, metrics, checks, result_path)
    if args.record_reference and checks.failed == 0:
        record_reference(wl, args.smoke, seed, fields, hashes)
    line = {"correct": checks.failed == 0 and len(metrics) > 0,
            "attempted": len(checks.items), "failed": checks.failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def rep_outputs(wl, work: Path) -> tuple:
    """The result fields and artifact hashes of the repetition just run."""
    return (result_fields(wl, work),
            {name: sha256_file(work / name) for name in ("ensemble.json", "history.csv")})


def check_results(wl, work, seed, args, outputs, checks) -> None:
    report = json.loads((work / "verify.json").read_text(encoding="utf-8"))
    for flag in ("history_consistent", "prediction_paths_agree",
                 "normalizer_inequality_held"):
        checks.check(f"verify report {flag}", report[flag] is True, report[flag])
    checks.check("verify measured_sup_error <= theorem_bound",
                 report["measured_sup_error"] <= report["theorem_bound"],
                 [report["measured_sup_error"], report["theorem_bound"]])

    fields, hashes = outputs[0]
    ens = distill.load_ensemble(work / "ensemble.json")
    test = data.load_dataset_csv(work / "data" / "test.csv")
    logits = distill.ensemble_predict(ens, test.x, len(ens.members))
    predict_acc = float(np.mean(np.argmax(logits, axis=1) == test.labels))
    checks.check("predict accuracy equals the anytime curve's last point",
                 predict_acc == fields["anytime_accuracy"][-1],
                 [predict_acc, fields["anytime_accuracy"][-1]])

    # every repetition of one run must give the same fields and artifacts
    for rep, (rep_fields, rep_hashes) in enumerate(outputs[1:], start=1):
        checks.check(f"result fields of repetition {rep} equal repetition 0",
                     rep_fields == fields, {"first": fields, "this": rep_fields})
        checks.check(f"ensemble.json and history.csv sha256 of repetition {rep} equal "
                     f"repetition 0", rep_hashes == hashes, {"first": hashes, "this": rep_hashes})

    # the default seed is also held to the recorded reference, unless this
    # run records a new one
    if seed != wl.seeds[0] or args.record_reference:
        return
    ref = load_reference().get(reference_key(wl, args.smoke))
    if ref is None:
        checks.check("reference recorded for the default seed", False,
                     "run with --record-reference to record it")
        return
    for name, value in fields.items():
        checks.check(f"{name} equals the reference", ref["fields"].get(name) == value,
                     {"run": value, "reference": ref["fields"].get(name)})
    checks.check("ensemble.json and history.csv sha256 equal the reference",
                 ref["sha256"] == hashes, {"run": hashes, "reference": ref["sha256"]})


def tracing_overhead(bench_dir: Path, tag: str, phase_walls: dict) -> dict:
    """Traced minus untraced wall per phase, against the last untraced run of
    the same code, workload and seed in this checkout."""
    path = bench_dir / "results" / f"{tag}-trace0.json"
    if not path.is_file():
        return {"note": "no untraced run of this workload and seed recorded yet"}
    untraced = json.loads(path.read_text(encoding="utf-8"))
    if untraced["provenance"]["source_sha256"] != source_hash(bench_dir.parent):
        return {"note": "the recorded untraced run is of other code"}
    out = {}
    for phase, wall in phase_walls.items():
        if phase in untraced["phase_walls_s"]:
            base = untraced["phase_walls_s"][phase]
            out[phase] = {"traced_s": wall, "untraced_s": base, "overhead_s": wall - base,
                          "overhead_share": (wall - base) / base if base else None}
    return out


def print_table(wl, args, seed, timings, metrics, checks, result_path) -> None:
    print(f"workload {wl.name}{' (smoke)' if args.smoke else ''}  seed {seed}  "
          f"trace {args.trace}")
    for name in E2E_UNITS:
        if name in timings:
            entry = timings[name]
            print(f"  {name:<20} {entry['value']:>14.6g} {entry['unit']:<7} "
                  f"{'gated' if name in GATED else 'reported'}: {entry['statistic']}, "
                  f"n={entry['samples']}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
        print("  self-time share by module: " + ", ".join(
            f"{m} {s:.1%}" for m, s in timings["module_self_share"].items()))
        for phase, entry in timings["overhead"].items():
            if isinstance(entry, dict):
                print(f"  tracing overhead {phase:<16} {entry['overhead_s']:+.3f} s")
    for item in checks.items:
        if not item["ok"]:
            print(f"  FAILED {item['check']}: {item['detail']}")
    print(f"  {len(checks.items) - checks.failed}/{len(checks.items)} operations ok; "
          f"result file {result_path}")


def record_reference(wl, smoke: bool, seed: int, fields: dict, hashes: dict) -> None:
    if seed != wl.seeds[0]:
        return
    ref = load_reference()
    ref[reference_key(wl, smoke)] = {"seed": seed, "fields": fields, "sha256": hashes}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
