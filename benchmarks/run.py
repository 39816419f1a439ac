"""Pipeline benchmark for ensdistill.

    python3 benchmarks/run.py --workload cube-escalate --seed 2 --seconds 6 --trace 0

One process is one closed-loop client running one workload: every pipeline
phase through `ensdistill.cli.main`, anytime inference timing on the
distilled ensemble, and the correctness checks.  `--trace 1` repeats the
pipeline with span wrappers around each module's public functions and reports
per-module metrics instead of end-to-end ones.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A fuller result file with provenance goes to .bench_work/results/.

BLAS threads are pinned to 1 here, before numpy is imported, on every run.
The package is imported from src/ beside this directory and nowhere else.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed; the workload's default seed when omitted")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="total length of the inference timing bursts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size workloads: every phase and check in seconds")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's result fields as the reference for "
                             "the workload's default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ensdistill" / "cli.py").is_file():
        print(f"error: no ensdistill package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import pipeline  # numpy and ensdistill load only after the pinning above
    return pipeline.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
