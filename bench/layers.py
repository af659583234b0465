"""Outside-in per-layer tracing of heatinv.

The program is not touched: `Tracer.install` replaces each public function
listed in LAYER_FUNCTIONS, at every heatinv module attribute that binds it,
with a wrapper that records a span (name, start, end, parent, operation).
The modules import names directly (`heatinv.inverse.mode_evolve`,
`heatinv.regularize.invert`, `heatinv.cli.read_observations`, ...), so
patching the defining module alone would miss most calls.

Spans stay in memory until the run ends; `layer_metrics` turns them into
per-operation layer numbers, and `import_times` reads the cold import cost
from `python -X importtime`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: public functions timed per layer; basis, grid and presets are reached
#: only through these
LAYER_FUNCTIONS = {
    "forward": ("make_observations", "solve_spectral", "mode_evolve"),
    "inverse": (
        "invert", "extract_g13", "recover_vh", "forced_mode_values",
        "plan_peel", "peel_sequential", "peel_lsq", "assemble_g",
    ),
    "regularize": ("run_noise_study",),
    "io": (
        "write_observations", "read_observations", "write_reconstruction",
        "format_report", "write_study",
    ),
    "cli": ("main",),
}


def _size(path) -> int:
    return Path(path).stat().st_size


def _count_design_bytes(bound, result) -> dict:
    # computed, not measured: the rows x depth float64 design of one lsq fit
    return {"design_bytes": bound.arguments["q"].n * int(bound.arguments["depth"]) * 8}


def _count_written_path(bound, result) -> dict:
    return {"bytes_written": _size(bound.arguments["path"])}


def _count_read_path(bound, result) -> dict:
    return {"bytes_read": _size(bound.arguments["path"])}


def _count_written_result(bound, result) -> dict:
    return {"bytes_written": sum(_size(p) for p in result)}


#: counts taken at the same boundaries as the spans, after the call returns
COUNTERS = {
    "inverse.peel_lsq": _count_design_bytes,
    "io.write_observations": _count_written_path,
    "io.read_observations": _count_read_path,
    "io.write_reconstruction": _count_written_result,
    "io.write_study": _count_written_result,
}


class Tracer:
    """Records spans around calls into the heatinv layers while installed.

    A span is the list [name, start, end, parent, op, counts]; `parent` is
    the index of the enclosing span or -1, `op` the operation index the
    caller set in `self.op` before the call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Patch every heatinv module attribute bound to a listed function."""
        modules = {layer: importlib.import_module(f"heatinv.{layer}") for layer in LAYER_FUNCTIONS}
        package = [m for n, m in sys.modules.items() if n == "heatinv" or n.startswith("heatinv.")]
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one [op, id, parent, name, start, end] line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps([op, i, parent, name, start, end]) + "\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer numbers from a span list; name -> (value, unit).

    Times are inclusive unless the name ends in `_self_ms`; a self time is a
    span's duration minus the durations of its direct children (one thread,
    so children never overlap).
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    peel_lsq_by_parent: dict[str, float] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            counts[key] = counts.get(key, 0) + value
        if name == "inverse.peel_lsq":
            pname = spans[parent][0] if parent >= 0 else ""
            peel_lsq_by_parent[pname] = peel_lsq_by_parent.get(pname, 0.0) + dur

    def ms(seconds: float) -> tuple[float, str]:
        return 1e3 * seconds / n_ops, "ms"

    def per_op(count: int, unit: str, scale: float = 1.0) -> tuple[float, str]:
        return count / n_ops / scale, unit

    out = {
        "forward.make_observations_ms": ms(total.get("forward.make_observations", 0.0)),
        "forward.solve_spectral_ms": ms(total.get("forward.solve_spectral", 0.0)),
        "forward.mode_evolve_ms": ms(total.get("forward.mode_evolve", 0.0)),
        "forward.mode_evolve_calls": per_op(calls.get("forward.mode_evolve", 0), "count"),
        "inverse.invert_self_ms": ms(self_time.get("inverse.invert", 0.0)),
    }
    for fname in ("extract_g13", "recover_vh", "forced_mode_values", "plan_peel",
                  "peel_sequential", "peel_lsq", "assemble_g"):
        out[f"inverse.{fname}_ms"] = ms(total.get(f"inverse.{fname}", 0.0))
    # peel_lsq runs twice per sequential inversion: inside plan_peel (the
    # provisional noise-floor fit) and straight from invert (peel_condition)
    out["inverse.peel_lsq_in_plan_peel_ms"] = ms(peel_lsq_by_parent.get("inverse.plan_peel", 0.0))
    out["inverse.peel_condition_ms"] = ms(peel_lsq_by_parent.get("inverse.invert", 0.0))
    out["inverse.peel_lsq_calls"] = per_op(calls.get("inverse.peel_lsq", 0), "count")
    out["inverse.design_matrix_mb"] = per_op(counts.get("design_bytes", 0), "MB", 1e6)
    out["regularize.run_noise_study_self_ms"] = ms(self_time.get("regularize.run_noise_study", 0.0))
    for fname in LAYER_FUNCTIONS["io"]:
        out[f"io.{fname}_ms"] = ms(total.get(f"io.{fname}", 0.0))
    out["io.bytes_written"] = per_op(counts.get("bytes_written", 0), "B")
    out["io.bytes_read"] = per_op(counts.get("bytes_read", 0), "B")
    out["cli.main_self_ms"] = ms(self_time.get("cli.main", 0.0))
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `heatinv`, and of the outermost scipy and numpy
    imports, from `python -X importtime` output."""
    entries = []  # (depth, module, cumulative seconds), in print order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))

    def top(pkg: str) -> str:
        return pkg.split(".", 1)[0]

    out = {"heatinv": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    # children print before their parent; walking backwards visits parents first
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = top(name)
        if root in out and all(top(a) != root for _, a in ancestors):
            out[root] += cumulative
        ancestors.append((depth, name))
    return out


def import_times(python: str, env: dict, repeats: int) -> dict[str, tuple[float, str]]:
    """Median over `repeats` cold `import heatinv` processes."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import heatinv"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    med = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    return {
        "heatinv.import_s": (med["heatinv"], "s"),
        "heatinv.import_scipy_s": (med["scipy"], "s"),
        "heatinv.import_numpy_s": (med["numpy"], "s"),
    }
