"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload run --seed 1 --seconds 20 --trace 0

Workloads: run, sweep-phase, sweep-alpha, certify.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1); the line before it records the environment, the input
ranges and each timing's quartiles.
"""

import argparse
import sys

import harness  # first: pins the BLAS threads before numpy is imported
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
