"""Benchmark for the ``rgtn`` package: training, prediction and TT-SVD.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times every phase with no wrapper installed and prints
the end-to-end metrics.  With ``--trace 1`` it wraps the package's public
names (see ``tracing.py``), runs each phase once more under the tracer and
prints the per-layer metrics; spans go to ``.perfbench/``.  Both modes run
the correctness gate.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any operation failed and 2 when the package cannot be found.

Load comes from this one process, a closed loop with a single caller, and
OpenBLAS is pinned to one thread before NumPy is imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "rgtn" / "__init__.py"
    if not package.is_file():
        print(f"error: no rgtn package at {package.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import rgtn

    if Path(rgtn.__file__).resolve() != package.resolve():
        print(f"error: imported rgtn from {rgtn.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
