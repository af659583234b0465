"""Minor page faults of one benchmark workload, in the benchmark's loop and
in a plain loop.

    python tools/faults.py invert-long [--seconds 10] [--seed 1]

The workload is built by bench/workloads.py.  First bench/run.py's warm-up
and closed loop run it as the benchmark does: bench/calibration.py's kernel
timed before the first operation and after each one, and each operation
checked, untimed.  The process's minor faults (resource.getrusage) are read
around each operation and each kernel run.  Then a plain loop calls the
same operation for as long again, with nothing between the calls.  For
each loop the tool prints the raw latency p50 and the median faults per
operation, and for the benchmark's loop the kernel's median time and
faults.  One BLAS thread, as in the benchmark.  The files under bench/ are
imported, never written; a workload's scratch files go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Counted:
    """fn, with the minor faults of each call appended to `faults`."""

    def __init__(self, fn):
        self.fn, self.faults = fn, []

    def __call__(self, *args):
        before = _minor_faults()
        try:
            return self.fn(*args)
        finally:
            self.faults.append(_minor_faults() - before)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import run  # bench/run.py: imports no numpy, so the BLAS setting below holds

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("workload", choices=run.WORKLOAD_NAMES)
    ap.add_argument("--seconds", type=float, default=10.0, help="per loop (default 10)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=0, help="this many operations per loop instead")
    args = ap.parse_args(argv)
    os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, str(run.SRC))
    from calibration import Calibration
    from workloads import WORKLOADS, load_heatinv

    with tempfile.TemporaryDirectory() as scratch:
        wl = WORKLOADS[args.workload](load_heatinv(run.SRC), args.seed, Path(scratch))
        cal, op = _Counted(Calibration()), _Counted(wl.op)
        wl.op = op
        k = run._warm_up(wl, cal, run.SMOKE if args.ops else run.FULL)
        del cal.faults[:], op.faults[:]
        bench = run.Phase()
        k = run._measure(wl, cal, bench, k, args.seconds, args.ops)
        if bench.failed:
            print(bench.messages[0], file=sys.stderr)
            return 1
        plain, plain_faults = [], []
        start = perf_counter()
        while (len(plain) < args.ops) if args.ops else (perf_counter() - start < args.seconds):
            before = _minor_faults()
            t0 = perf_counter()
            op.fn(k)  # one k: a CLI round trip rewrites its one output directory
            plain.append(perf_counter() - t0)
            plain_faults.append(_minor_faults() - before)

    print(f"{args.workload} seed {args.seed}, one BLAS thread, raw latencies:")
    print(f"  bench loop: {len(bench.latencies)} ops, p50 {1e3 * statistics.median(bench.latencies):.3f} ms,"
          f" median faults/op {statistics.median(op.faults):g};"
          f" kernel median {1e3 * statistics.median(bench.kernel_s):.3f} ms,"
          f" median faults/kernel {statistics.median(cal.faults):g}")
    print(f"  plain loop: {len(plain)} ops, p50 {1e3 * statistics.median(plain):.3f} ms,"
          f" median faults/op {statistics.median(plain_faults):g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
