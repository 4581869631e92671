"""Benchmark of the hierarchical parameter server reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload {hot,spill,snapshot} --seed N \\
        --seconds S --trace {0,1}

Runs one workload in its own single-threaded worker process (BLAS
threads pinned to 1, see ``WORKER_ENV``), closed loop: one training
loop, each round starting after the previous one completes.
``--seconds`` sets the timed window's length through the workload's
nominal round rate (so the window's work depends only on the
arguments).  Inputs come from ``--seed``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both print a human-readable report and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Traced runs also
write a Chrome trace-event file and a per-layer summary under
``.perfbench_out/``.  Exit code 0 means the run passed its regime and
correctness checks; 1 that it did not; 2 that the library is missing.

Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Environment of the process that runs the workload: BLAS/OpenMP pools
#: pinned to one thread, and glibc's mmap threshold fixed at its dynamic
#: ceiling (32 MiB) so peak RSS does not depend on when the allocator
#: happens to raise its threshold.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
}
#: the worker is killed after this many seconds
WORKER_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: library source not found at {SRC}/repro", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in WORKER_ENV.items()):
        # Re-run this command in a fresh process with the worker environment.
        try:
            return subprocess.run(
                [
                    sys.executable,
                    os.path.abspath(__file__),
                    *(sys.argv[1:] if argv is None else argv),
                ],
                env={**os.environ, **WORKER_ENV},
                timeout=WORKER_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"error: run exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
    sys.path[:0] = [SRC, ROOT]

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in result.lines:
        print(line)
    print(result.json_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
