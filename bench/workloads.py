"""The benchmark workloads: inputs built from a seed, one operation, its check.

Each workload object is built once per process (set-up), then `op(k)` runs
operation k and `check(result, k)` verifies it outside the timed region.
Operations look heatinv functions up through module attributes at call
time, so the per-layer tracer sees every call.

invert-long   one library invert on a 60 001-sample record: nearly all the
              time is in `inverse` (forced_mode_values, peel_lsq); `forward`
              runs only in set-up, `io` and `regularize` not at all.
noise-study   one 3-level x 20-trial run_noise_study: 60 short inversions
              where per-call overhead and the per-trial forward re-solve
              dominate, and the ladder schedule bypasses plan_peel's model.
cli-roundtrip simulate -> invert -> study through heatinv.cli.main in
              process: `io` emits and parses the same records, numerics
              are a small share.
"""

from __future__ import annotations

import importlib
import json
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

#: C2 tolerances of the clean round trip (tests/test_acceptance.py)
C2_VH = 1e-3
C2_G1 = 1e-3
C2_G2 = 1e-2
C2_T_MIN = 0.01

CLI_OUTPUTS = (
    "observations.csv", "observations.json", "reconstruction.json",
    "reconstruction.csv", "report.txt", "study.csv", "study.json",
    "error_vs_mode.dat", "error_vs_level.dat",
)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    message: str = ""
    recovery_err: float = float("nan")


def load_heatinv(src: Path):
    """Import heatinv and make sure it is the copy under `src`."""
    heatinv = importlib.import_module("heatinv")
    where = Path(heatinv.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"imported heatinv from {where}, not from {src}")
    return heatinv


def _round_trip_errors(heatinv, v_hat, h_hat, sin_amplitudes) -> Outcome:
    """C2 check and worst error against the 'generic' preset's closed form."""
    preset = heatinv.PRESETS["generic"]
    t = v_hat.times
    mask = t >= C2_T_MIN
    ev = heatinv.rel_l2(v_hat.values[mask], preset.v(t)[mask])
    eh = heatinv.rel_l2(h_hat.values[mask], preset.h(t)[mask])
    amps = np.asarray(sin_amplitudes, dtype=float)
    truth = np.zeros(amps.size)
    known = preset.g.sin_amplitudes[: amps.size]
    truth[: known.size] = known
    g_err = np.abs(amps - truth)
    errs = {"v": ev, "h": eh, "g1": float(g_err[0]), "g2": float(g_err[1])}
    ok = ev <= C2_VH and eh <= C2_VH and g_err[0] <= C2_G1 and g_err[1] <= C2_G2
    worst = max(ev, eh, float(g_err.max()))
    msg = "" if ok else "C2 tolerances missed: " + json.dumps(errs)
    return Outcome(ok, msg, worst)


class InvertLong:
    """generic preset, T = 6, dt = 1e-4 (60 001 samples), relative noise 1e-8."""

    name = "invert-long"

    def __init__(self, heatinv, seed: int, scratch: Path):
        self.heatinv = heatinv
        problem = heatinv.make_problem("generic", 16, 6.0, 1e-4)
        self.obs = heatinv.make_observations(
            problem, 1.0, heatinv.NoiseSpec("relative", 1e-8, seed)
        )
        self.cfg = heatinv.InversionConfig(order=16)

    def op(self, k: int):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = self.heatinv.invert(self.obs, self.cfg)
        return rec, [str(w.message) for w in caught]

    def check(self, result, k: int) -> Outcome:
        rec, caught = result
        outcome = _round_trip_errors(
            self.heatinv, rec.v_hat, rec.h_hat, rec.g_coeffs.sin_amplitudes
        )
        if caught:
            return Outcome(False, f"{len(caught)} warning(s): {caught[0]}", outcome.recovery_err)
        return outcome


class NoiseStudy:
    """fourmode preset, order 8, T = 4, dt = 2e-3; levels (0, 1e-6, 1e-4) x 20 trials."""

    name = "noise-study"
    levels = (0.0, 1e-6, 1e-4)
    trials = 20

    def __init__(self, heatinv, seed: int, scratch: Path):
        self.heatinv = heatinv
        self.seed = seed
        self.problem = heatinv.make_problem("fourmode", 8, 4.0, 2e-3)

    def op(self, k: int):
        return self.heatinv.run_noise_study(
            self.problem, 1.0, levels=self.levels, trials=self.trials, base_seed=self.seed
        )

    def check(self, study, k: int) -> Outcome:
        # recovery error of the clean level: the numerics' own accuracy,
        # which the noise draws do not move
        clean = self.levels[0]
        worst = max(study.mean_v_err(clean), study.mean_h_err(clean),
                    float(np.max(study.max_g_err(clean))))
        if study.n_failed():
            return Outcome(False, f"{study.n_failed()} failed trial(s)", worst)
        for level in self.levels[1:]:
            # C6: the peeling error cascades upwards with the mode index
            if not np.all(np.diff(study.mean_b_err(level)) >= 0.0):
                return Outcome(False, f"mean_b_err decreases in m at level {level}", worst)
        return Outcome(True, "", worst)


class CliRoundTrip:
    """simulate, invert and study via heatinv.cli.main on the generic preset,
    order 16, T = 6, dt = 1e-3, depth 2, noise 1e-8, levels (0, 1e-6) x 2."""

    name = "cli-roundtrip"

    def __init__(self, heatinv, seed: int, scratch: Path):
        self.heatinv = heatinv
        self.cli = importlib.import_module("heatinv.cli")
        self.dir = scratch / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps({
            "preset": "generic", "order": 16, "t_final": 6.0, "dt": 1e-3, "y": 1.0,
            "noise_kind": "relative", "noise_level": 1e-8, "seed": seed,
            "depth": 2, "levels": [0.0, 1e-6], "trials": 2,
        }, indent=2, sort_keys=True) + "\n")
        self.reference: dict[str, bytes] | None = None

    def op(self, k: int):
        out = self.dir / f"op{k}"
        cfg = ["--config", str(self.config), "--out", str(out)]
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            codes = (
                self.cli.main(["simulate", *cfg]),
                self.cli.main(["invert", str(out / "observations.csv"), *cfg]),
                self.cli.main(["study", *cfg]),
            )
        return out, codes

    def check(self, result, k: int) -> Outcome:
        out, codes = result
        try:
            return self._check(out, codes)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, codes) -> Outcome:
        if codes != (0, 0, 0):
            return Outcome(False, f"exit codes {codes}")
        missing = [n for n in CLI_OUTPUTS if not (out / n).is_file()]
        if missing:
            return Outcome(False, f"missing outputs {missing}")
        files = {n: (out / n).read_bytes() for n in CLI_OUTPUTS}
        rec = json.loads(files["reconstruction.json"])
        grid = self.heatinv.GridFn
        outcome = _round_trip_errors(
            self.heatinv,
            grid(rec["v_hat"]["t0"], rec["v_hat"]["dt"], rec["v_hat"]["values"]),
            grid(rec["h_hat"]["t0"], rec["h_hat"]["dt"], rec["h_hat"]["values"]),
            rec["g_sin_amplitudes"],
        )
        if self.reference is None:
            self.reference = files
        changed = [n for n in CLI_OUTPUTS if files[n] != self.reference[n]]
        if changed:
            # C7: every rerun reproduces the first operation's bytes
            return Outcome(False, f"outputs differ from the first operation: {changed}",
                           outcome.recovery_err)
        return outcome


WORKLOADS = {w.name: w for w in (InvertLong, NoiseStudy, CliRoundTrip)}
