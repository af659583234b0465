"""Tests of the benchmark itself, on its smoke mode (a few operations per run).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibration import REFERENCE_S, normalised  # noqa: E402
from layers import layer_metrics, parse_importtime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer numbers that must repeat exactly between runs of one seed
COUNTS = ("forward.mode_evolve_calls", "inverse.peel_lsq_calls", "inverse.design_matrix_mb",
          "io.bytes_written", "io.bytes_read")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(workload, trace=0))
    _check_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (_result(_run(workload, trace=1)) for _ in range(2))
    _check_metrics(first, SPEC["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["forward.mode_evolve_calls"]["value"] > 0
    assert first["metrics"]["inverse.peel_lsq_calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["inverse.invert", 1.0, 7.0, 0, 0, None],
        ["inverse.plan_peel", 2.0, 5.0, 1, 0, None],
        ["inverse.peel_lsq", 3.0, 4.0, 2, 0, {"design_bytes": 800}],
        ["inverse.peel_lsq", 5.0, 6.5, 1, 0, {"design_bytes": 800}],
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["cli.main_self_ms"] == (1e3 * 4.0 / 2, "ms")
    assert m["inverse.invert_self_ms"] == (1e3 * 1.5 / 2, "ms")
    assert m["inverse.peel_lsq_in_plan_peel_ms"] == (1e3 * 1.0 / 2, "ms")
    assert m["inverse.peel_condition_ms"] == (1e3 * 1.5 / 2, "ms")
    assert m["inverse.peel_lsq_calls"] == (1.0, "count")
    assert m["inverse.design_matrix_mb"] == (800 / 1e6, "MB")


def test_parse_importtime_takes_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     numpy.core",
        "import time:       100 |        150 |   numpy",
        "import time:        30 |         30 |       numpy.linalg",
        "import time:        20 |         20 |       scipy._lib",
        "import time:       200 |        250 |     scipy.linalg",
        "import time:        10 |        260 |   heatinv.forward",
        "import time:         5 |        415 | heatinv",
    ])
    expected = {"heatinv": 415e-6, "scipy": 250e-6, "numpy": 180e-6}
    assert parse_importtime(stderr) == pytest.approx(expected)


def test_normalised_scales_by_the_median_kernel_time_around_each_op():
    ref = REFERENCE_S
    # a uniformly 2x slower machine halves every latency; one slow kernel
    # run among its neighbours changes nothing
    assert normalised([2.0, 4.0], [2 * ref] * 3) == [1.0, 2.0]
    kernels = [ref, ref, 9 * ref, ref, ref, ref]
    assert normalised([1.0] * 5, kernels) == pytest.approx([1.0] * 5)
