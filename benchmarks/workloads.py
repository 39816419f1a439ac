"""The benchmark's workloads: pipeline flags, run shape and seeds.

Each workload is one run of the real pipeline.  `seeds` lists workload seeds
whose runs have the same shape as the default seed (the first entry): the
same restarts trained, members, escalations and SGD epochs.  Spread across
benchmark seeds then measures noise, not a different amount of work.  See
WORKLOADS.md for why each workload exists and what it stresses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# exit code every phase must return; verify exits 4 (theorem premise
# violated) on every workload because T < ln(2N) and eta * G > 1
EXPECTED_EXIT = {"gen-data": 0, "train-teacher": 0, "distill": 0, "eval-anytime": 0,
                 "eval-early-exit": 0, "verify": 4, "eval-resched": 0}
EARLY_EXIT_THRESHOLD = "0.9"
G_INF = "50"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int
    d: int
    seeds: tuple                    # vetted workload seeds; seeds[0] is the default
    teacher: tuple                  # train-teacher flags after --spec
    distill: dict                   # distill config without its seed
    resched: bool = True            # run the eval --mode resched phase
    phases: tuple = field(init=False)

    def __post_init__(self):
        phases = ["gen-data", "train-teacher", "distill", "eval-anytime",
                  "eval-early-exit", "verify"]
        if self.resched:
            phases.append("eval-resched")
        object.__setattr__(self, "phases", tuple(phases))

    def workload_seed(self, bench_seed: int) -> int:
        """A vetted seed is used as given; any other maps onto the list."""
        if bench_seed in self.seeds:
            return bench_seed
        return self.seeds[bench_seed % len(self.seeds)]


# Why each workload exists is recorded in BENCHMARK.json and WORKLOADS.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="cube-escalate", dataset="cube", n=6000, d=32,
        seeds=(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
        teacher=("64,64", "--epochs", "100"),
        distill={"T": 7, "R": 3, "base_hidden": [24, 24]}),
    Workload(
        name="ellipsoid-large-io", dataset="ellipsoid", n=50000, d=32,
        seeds=(3, 5, 11, 13, 14),
        teacher=("64,64", "--epochs", "5", "--batch-size", "256"),
        distill={"T": 3, "R": 2, "eta": 0.2, "base_hidden": [24, 24],
                 "findwl": {"max_search": 1, "sgd": {"epochs": 2, "batch_size": 256}}},
        resched=False),
)}

# Toy sizes with the same phases, checks and traced run, for the benchmark's
# own tests.  Seeds are not vetted: shape does not matter at this size.
SMOKE = {w.name: w for w in (
    Workload(
        name="cube-escalate", dataset="cube", n=500, d=8, seeds=(2, 12, 22),
        teacher=("16,16", "--epochs", "4"),
        distill={"T": 3, "R": 3, "base_hidden": [8, 8],
                 "findwl": {"max_search": 2, "sgd": {"epochs": 2}}}),
    Workload(
        name="ellipsoid-large-io", dataset="ellipsoid", n=1500, d=8, seeds=(3, 13, 23),
        teacher=("16,16", "--epochs", "2", "--batch-size", "256"),
        distill={"T": 2, "R": 2, "eta": 0.2, "base_hidden": [8, 8],
                 "findwl": {"max_search": 1, "sgd": {"epochs": 1, "batch_size": 256}}},
        resched=False),
)}
