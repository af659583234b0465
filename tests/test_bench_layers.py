"""bench/layers.py's Tracer against the program: every name it wraps exists,
and each of two operations of each bench/workloads.py workload records at
least one forward.mode_evolve span and one inverse.peel_lsq span, the
per-operation counts that bench/tests/test_bench.py asserts are above 0.  The bench files are loaded
from their paths and never written; the operations run in this process."""

import pytest
from script_modules import ROOT, load

BENCH = ROOT / "bench"
SRC = ROOT / "src"

layers = load(BENCH / "layers.py", "bench_layers")
workloads = load(BENCH / "workloads.py", "bench_workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_operation_traces_mode_evolve_and_peel_lsq(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.load_heatinv(SRC), 1, tmp_path)
    tracer = layers.Tracer()
    tracer.install()  # an AttributeError names a LAYER_FUNCTIONS entry that is gone
    try:
        for k in range(2):
            tracer.op = k
            outcome = wl.check(wl.op(k), k)
            assert outcome.ok, outcome.message
    finally:
        tracer.uninstall()
    for k in range(2):
        names = [span[0] for span in tracer.spans if span[4] == k]
        assert "forward.mode_evolve" in names
        assert "inverse.peel_lsq" in names
