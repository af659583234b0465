"""tools/faults.py: the benchmark's loop and a plain loop of one workload,
two operations each, in a subprocess."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "faults.py"


def test_two_operations_in_each_loop():
    proc = subprocess.run([sys.executable, str(TOOL), "invert-long", "--ops", "2"],
                          capture_output=True, text=True, timeout=300, check=True)
    head, bench, plain = proc.stdout.splitlines()
    assert head == "invert-long seed 1, one BLAS thread, raw latencies:"
    number = r"\d+(\.\d+)?"
    assert re.fullmatch(rf"  bench loop: 2 ops, p50 {number} ms, median faults/op {number};"
                        rf" kernel median {number} ms, median faults/kernel {number}", bench)
    assert re.fullmatch(rf"  plain loop: 2 ops, p50 {number} ms, median faults/op {number}", plain)
