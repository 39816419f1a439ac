"""Print every benchmark metric for every workload.

    python3 benchmarks/report.py [--smoke] [--seconds 6] [--seed N] [--workload NAME ...]

For each workload this runs benchmarks/run.py twice, in a fresh process each
and one at a time: untraced (end-to-end metrics by name and unit, the checks
and failed_ratio with its base) and traced (per-module metrics, self-time
shares and the tracing overhead per phase).  Exits non-zero if any run fails
a check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    all_correct = True
    for name in args.workload or WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            try:
                correct = json.loads(lines[-1])["correct"]
            except (json.JSONDecodeError, KeyError):
                print(proc.stdout + proc.stderr)
                correct = False
            all_correct &= proc.returncode == 0 and correct
            print()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
