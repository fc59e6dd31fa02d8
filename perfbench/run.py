"""Benchmark of robustkf: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 18 --trace 0

``--trace 0`` sets the workload up, runs its correctness gate, times it for
``--seconds`` and prints every end-to-end metric.  ``--trace 1`` times it
untraced for half the time and traced for the other half, and prints every
per-layer metric, including the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--smoke`` runs the same code at tiny sizes (see selftest.py).

This launcher pins the BLAS/OpenMP thread pools to one thread before NumPy
loads, and imports the package from ``src/`` of the checkout it sits in.  If
the package is not there, it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-mc", "many-runs", "online", "certify")

#: Thread pools pinned to one thread, so the load stays within the two cores
#: of the reference machine and timings do not depend on pool start-up.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package() -> str | None:
    """Import robustkf from this checkout's src/, or return why it failed."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import robustkf
    except ImportError as exc:
        return f"cannot import robustkf from {src}: {exc}"
    if Path(robustkf.__file__).resolve().parent.parent != src.resolve():
        return f"robustkf was imported from {robustkf.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    error = _import_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args, ROOT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
