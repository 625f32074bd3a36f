"""Benchmark entry point: run one workload in a fresh worker process.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: compare-refit, serve, general-class, capacity-mc.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced pass.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` of the same checkout; without it the run fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# One BLAS thread: the benchmark measures single-client latency, and a BLAS
# pool would contend with the load-generating thread on a small machine.
BLAS_THREADS = 1
TIMEOUT_S = 170


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "coreset_unlearn" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    try:
        return subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
