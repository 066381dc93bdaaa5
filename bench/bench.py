"""Seeded benchmark of the mgcs pipeline.

    python3 bench/bench.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (desk-sweep, joint-solvers or basis-opt) as a closed loop in
this process: each trial starts when the previous one ends.  ``--trace 0``
measures the end-to-end metrics untraced.  ``--trace 1`` runs half the time
untraced, then replays the same trials with spans around every layer's
public functions and reports the per-layer metrics and the tracing overhead.
Both print a metric table, then one JSON line; write the full result to
``bench/out/``; and exit 1 when an output check fails.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-sweep", "joint-solvers", "basis-opt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_start = os.getloadavg()
    if not (SRC / "mgcs" / "__init__.py").is_file():
        print(f"bench: no mgcs package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import mgcs  # first numpy import: after the thread count is fixed

    if Path(mgcs.__file__).resolve().parent != (SRC / "mgcs").resolve():
        print(f"bench: imported mgcs from {mgcs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import runner

    return runner.run(args, BLAS_THREADS, load_start)


if __name__ == "__main__":
    sys.exit(main())
