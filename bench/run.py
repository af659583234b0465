"""heatinv benchmark: one workload per fresh process, a closed loop with one caller.

    python3 bench/run.py --workload invert-long --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; heatinv is imported from `src/`.
The next operation starts only after the previous one has completed and
been checked; the check is not timed.  Latencies are reported at reference
speed: each is scaled by a fixed calibration kernel timed just before and
after it (bench/calibration.py), which takes out most of the host's
load-dependent speed.  The raw numbers are printed beside them.  The last
line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}:

  --trace 0  end-to-end metrics (see BENCHMARK.json);
  --trace 1  per-layer metrics: half the time untraced, half with every
             layer function wrapped from outside (bench/layers.py), plus the
             tracing overhead traced p50 / untraced p50.

`--smoke` replaces the timed loop with a few operations; the benchmark's
tests use it.  Scratch files and span dumps go to `.bench_out/` in the
checkout.  The exit code is 0 whenever a result line is printed, and 2 when
the checkout holds no heatinv sources or a set-up step fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("invert-long", "noise-study", "cli-roundtrip")
# one BLAS thread in every workload process: a second thread only adds
# scheduling noise on the small products here
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Plan:
    setup_probes: int    # fresh processes timed for setup_s
    import_probes: int   # cold `python -X importtime` runs in a traced run
    warmup_ops: int      # at least this many untimed operations ...
    warmup_s: float      # ... and at least this long
    smoke_ops: int = 0   # > 0: this many operations per phase instead of a timed loop


FULL = Plan(setup_probes=5, import_probes=3, warmup_ops=3, warmup_s=1.0)
SMOKE = Plan(setup_probes=1, import_probes=1, warmup_ops=1, warmup_s=0.0, smoke_ops=2)


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # calibration around each op
    failed: int = 0
    recovery_errs: list[float] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations instead of --seconds")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _probe_setup(args) -> int:
    """Child side of a setup_s sample: import heatinv, build the inputs, say ready."""
    from workloads import WORKLOADS, load_heatinv

    scratch = OUT / f"probe-{os.getpid()}"
    try:
        WORKLOADS[args.workload](load_heatinv(SRC), args.seed, scratch)
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def _measure(wl, cal, phase: Phase, first_op: int, seconds: float, max_ops: int,
             tracer=None) -> int:
    """Closed loop: run and check operations until `seconds` or `max_ops`,
    with the calibration kernel timed before the first and after each one."""
    k = first_op
    phase.kernel_s.append(cal())
    start = perf_counter()
    while (k - first_op < max_ops) if max_ops else (perf_counter() - start < seconds):
        if tracer is not None:
            tracer.op = k
        t0 = perf_counter()
        try:
            result = wl.op(k)
        except Exception:  # a failing operation is counted, not fatal
            result = None
            error = traceback.format_exc()
        t1 = perf_counter()
        phase.latencies.append(t1 - t0)
        if result is not None:
            try:
                outcome = wl.check(result, k)
                if not math.isnan(outcome.recovery_err):
                    phase.recovery_errs.append(outcome.recovery_err)
                error = None if outcome.ok else f"op {k}: {outcome.message}"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            phase.failed += 1
            if len(phase.messages) < 3:
                phase.messages.append(error)
                print(error, file=sys.stderr)
        phase.kernel_s.append(cal())
        k += 1
    return k


def _warm_up(wl, cal, plan: Plan) -> int:
    warm = Phase()
    k = 0
    start = perf_counter()
    while k < plan.warmup_ops or perf_counter() - start < plan.warmup_s:
        k = _measure(wl, cal, warm, k, 0.0, 1)
    if warm.failed:
        raise RuntimeError("warm-up operation failed:\n" + warm.messages[0])
    return k


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """OpenBLAS build and the thread count it actually runs with."""
    import ctypes
    import glob

    import numpy as np

    info = {"env": BLAS_ENV["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # the OpenBLAS that numpy wheels bundle; loading it again reuses the copy in use
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            info["threads"] = getter()
    return info


def _environment(args, ops: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "ops_per_run": ops,
        "loop": "closed, one caller",
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "heatinv" / "__init__.py").is_file():
        print(f"error: no heatinv sources at {SRC}; run from a heatinv checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return _probe_setup(args)

    plan = SMOKE if args.smoke else FULL
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    try:
        setup = [_time_setup(args) for _ in range(plan.setup_probes)]

        from calibration import Calibration, normalised
        from layers import Tracer, import_times, layer_metrics
        from workloads import WORKLOADS, load_heatinv

        wl = WORKLOADS[args.workload](load_heatinv(SRC), args.seed, scratch)
        cal = Calibration()
        k = _warm_up(wl, cal, plan)

        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = Phase()
        k = _measure(wl, cal, untraced, k, seconds, plan.smoke_ops)
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            traced = Phase()
            tracer.install()
            try:
                _measure(wl, cal, traced, k, seconds, plan.smoke_ops, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    env = _environment(args, attempted)
    raw = untraced.latencies
    lat = normalised(raw, untraced.kernel_s)
    env["raw"] = {
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_p90_ms": 1e3 * _percentile(raw, 0.9),
        "calibration_kernel_ms": 1e3 * statistics.median(untraced.kernel_s),
    }
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics.update(import_times(sys.executable, _child_env(), plan.import_probes))
        metrics.update(layer_metrics(tracer.spans, len(traced.latencies)))
        base = statistics.median(lat)
        traced_p50 = statistics.median(normalised(traced.latencies, traced.kernel_s))
        metrics["trace.untraced_latency_p50_ms"] = (1e3 * base, "ms")
        metrics["trace.traced_latency_p50_ms"] = (1e3 * traced_p50, "ms")
        metrics["trace.overhead_ratio"] = (traced_p50 / base, "ratio")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"env": env, "ops": len(traced.latencies)})
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        errs = [e for p in phases for e in p.recovery_errs]
        metrics["latency_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        metrics["latency_p90_ms"] = (1e3 * _percentile(lat, 0.9), "ms")
        metrics["ops_per_s"] = (len(lat) / sum(lat), "1/s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        # -1 only when no operation produced a result; correct is false then
        metrics["recovery_err"] = (max(errs) if errs else -1.0, "1")

    print(json.dumps({"env": env}, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"latency percentiles over n = {len(lat)} untraced samples, at reference speed")
    print("  raw (this machine, unnormalised): " + ", ".join(
        f"{name} {value:.6g}" for name, value in env["raw"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
