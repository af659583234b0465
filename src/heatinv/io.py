"""File formats: experiment configs, observation sets, reconstructions, studies.

All floats are written with 17 significant digits so that parse(emit(x))
reproduces x bit for bit; '#'-prefixed header lines carry metadata as a
single canonical JSON object.  Outputs contain no timestamps or host
information: a config plus a seed determines every byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .forward import NoiseSpec, Observations, ProblemInstance
from .grid import GridFn
from .inverse import (AMPLIFICATION_CAP, DET_EXACT, DerivativeScheme, InversionConfig,
                      PeelPlan, Reconstruction)
from .presets import PRESETS, make_problem, preset_names
from .regularize import NoiseStudy
from .basis import DEFAULT_MODES, DEFAULT_POINT_THRESHOLD, SineSeries


def fmt(x: float) -> str:
    """Decimal text with full round-trip precision."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serialisable description of one experiment."""

    preset: str | None = "generic"
    h_csv: str | None = None
    v_csv: str | None = None
    g_amplitudes: tuple[float, ...] | None = None

    order: int = DEFAULT_MODES
    t_final: float = 6.0
    dt: float = 1e-3
    y: float = 1.0

    noise_kind: str = "none"
    noise_level: float = 0.0
    seed: int = 0

    depth: int = 4
    smooth_window: int = 0
    smooth_polyorder: int = 3
    burn_in: int = 2
    peel_method: str = "sequential"
    ridge: float = 0.0
    schedule_method: str = "model"
    schedule_times: tuple[float, ...] | None = None
    window: int | None = None
    divisor_threshold: float = DEFAULT_POINT_THRESHOLD
    amplification_cap: float = AMPLIFICATION_CAP

    levels: tuple[float, ...] = (0.0, 1e-6, 1e-4)
    trials: int = 20

    out_dir: str = "."

    def __post_init__(self):
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{self.preset}'; available: {', '.join(preset_names())}"
            )
        if self.preset is None and self.g_amplitudes is None:
            raise ConfigError("either a preset or explicit problem data must be given")
        if self.preset is not None and (self.h_csv or self.v_csv or self.g_amplitudes):
            raise ConfigError("a preset and explicit problem data are mutually exclusive")
        for name in ("g_amplitudes", "schedule_times", "levels"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, tuple(float(x) for x in val))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- factories ---------------------------------------------------------

    def make_problem(self) -> ProblemInstance:
        if self.preset is not None:
            return make_problem(self.preset, self.order, self.t_final, self.dt)
        n = int(round(self.t_final / self.dt)) + 1
        h = _read_time_samples(self.h_csv, self.dt, n) if self.h_csv else GridFn(
            0.0, self.dt, np.zeros(n)
        )
        v = _read_time_samples(self.v_csv, self.dt, n) if self.v_csv else GridFn(
            0.0, self.dt, np.zeros(n)
        )
        g = SineSeries.from_sin_amplitudes(self.g_amplitudes)
        return ProblemInstance(h=h, v=v, g=g, order=self.order,
                               t_final=self.t_final, dt=self.dt)

    def noise_spec(self, seed: int | None = None) -> NoiseSpec:
        return NoiseSpec(
            kind=self.noise_kind,
            level=self.noise_level,
            seed=self.seed if seed is None else seed,
        )

    def inversion_config(self, order: int | None = None) -> InversionConfig:
        schedule = None
        if self.schedule_times is not None:
            times = np.asarray(self.schedule_times, dtype=float)
            schedule = PeelPlan(times=times, windows=np.ones(times.size, dtype=int))
        return InversionConfig(
            order=self.order if order is None else order,
            depth=self.depth,
            deriv=DerivativeScheme(self.smooth_window, self.smooth_polyorder),
            burn_in=self.burn_in,
            peel_method=self.peel_method,
            ridge=self.ridge,
            schedule=schedule,
            schedule_method=self.schedule_method,
            window=self.window,
            noise_sigma=None,
            divisor_threshold=self.divisor_threshold,
            amplification_cap=self.amplification_cap,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def _read_time_samples(path: str, dt: float, n: int) -> GridFn:
    """Read a two-column (t, value) CSV sampled on the simulation grid."""
    lines = Path(path).read_text().splitlines()
    ts, vals = [], []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("t,"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns in {path}, got {len(parts)}", line=i)
        try:
            ts.append(float(parts[0]))
            vals.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"non-numeric value in {path}", line=i) from None
    if len(vals) != n:
        raise DataError(f"{path}: expected {n} samples on the simulation grid, got {len(vals)}")
    for k, tk in enumerate(ts):
        if abs(tk - k * dt) > 1e-9 * max(1.0, abs(tk)):
            raise DataError(f"{path}: sample times do not match the grid step {dt}")
    return GridFn(0.0, dt, np.asarray(vals))


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def write_observations(path: str | Path, obs: Observations, meta: dict) -> None:
    """CSV with '#' metadata lines and columns t, u1, u3, uy."""
    path = Path(path)
    lines = ["# heatinv observations"]
    lines.append("# meta = " + json.dumps(meta, sort_keys=True, separators=(", ", ": ")))
    lines.append("t,u1,u3,uy")
    t = obs.u1.times
    for k in range(obs.u1.n):
        lines.append(
            f"{fmt(t[k])},{fmt(obs.u1.values[k])},{fmt(obs.u3.values[k])},{fmt(obs.uy.values[k])}"
        )
    path.write_text("\n".join(lines) + "\n")


def read_observations(path: str | Path) -> tuple[Observations, dict]:
    path = Path(path)
    meta: dict = {}
    header_seen = False
    rows: list[tuple[float, float, float, float]] = []
    for i, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("meta"):
                _, _, payload = body.partition("=")
                try:
                    meta = json.loads(payload.strip())
                except json.JSONDecodeError:
                    raise ParseError("metadata line is not valid JSON", line=i) from None
            continue
        if not header_seen:
            if [c.strip() for c in line.split(",")] != ["t", "u1", "u3", "uy"]:
                raise ParseError(f"expected header 't,u1,u3,uy', got '{line}'", line=i)
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 columns, got {len(parts)}", line=i)
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ParseError("non-numeric value", line=i) from None
    if not header_seen or not rows:
        raise ParseError("no data rows found", line=len(path.read_text().splitlines()))
    data = np.asarray(rows)
    t = data[:, 0]
    if "y" not in meta:
        raise ParseError("metadata does not define the observation point y")
    dt = float(meta.get("dt", t[1] - t[0] if t.size > 1 else 1.0))
    for k, tk in enumerate(t):
        if abs(tk - (t[0] + k * dt)) > 1e-9 * max(1.0, abs(tk)):
            raise DataError(f"time column is not the uniform grid with dt = {dt}")
    obs = Observations(
        u1=GridFn(t[0], dt, data[:, 1]),
        u3=GridFn(t[0], dt, data[:, 2]),
        uy=GridFn(t[0], dt, data[:, 3]),
        y=float(meta["y"]),
    )
    return obs, meta


# ---------------------------------------------------------------------------
# reconstructions
# ---------------------------------------------------------------------------

def _gridfn_dict(f: GridFn) -> dict:
    return {"t0": f.t0, "dt": f.dt, "values": [float(x) for x in f.values]}


def write_reconstruction(
    out_dir: str | Path, rec: Reconstruction, provenance: dict
) -> tuple[Path, Path]:
    """Write reconstruction.json and reconstruction.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payload = {
        "g1": rec.g1,
        "g3": rec.g3,
        "b_hat": [float(x) for x in rec.b_hat],
        "g_coeffs": [float(x) for x in rec.g_coeffs.coeffs],
        "g_sin_amplitudes": [float(x) for x in rec.g_coeffs.sin_amplitudes],
        "v_hat": _gridfn_dict(rec.v_hat),
        "h_hat": _gridfn_dict(rec.h_hat),
        "diagnostics": rec.diagnostics.to_dict(),
        "provenance": provenance,
    }
    json_path = out / "reconstruction.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    csv_path = out / "reconstruction.csv"
    lines = ["# heatinv reconstruction"]
    lines.append("# meta = " + json.dumps(provenance, sort_keys=True, separators=(", ", ": ")))
    lines.append("t,v_hat,h_hat")
    t = rec.v_hat.times
    for k in range(rec.v_hat.n):
        lines.append(f"{fmt(t[k])},{fmt(rec.v_hat.values[k])},{fmt(rec.h_hat.values[k])}")
    csv_path.write_text("\n".join(lines) + "\n")
    return json_path, csv_path


def format_report(rec: Reconstruction, provenance: dict) -> str:
    d = rec.diagnostics
    rows = [
        "heatinv reconstruction report",
        "=============================",
        f"config sha256 : {provenance.get('config_sha256', 'n/a')}",
        f"seed          : {provenance.get('seed', 'n/a')}",
        f"observation y : {provenance.get('y', 'n/a')}",
        "",
        f"determinant of the (mode 1, mode 3) system : {d.determinant:.12e}",
        f"exact value -32/(3 pi)                     : {DET_EXACT:.12e}",
        f"g1 = {fmt(rec.g1)}    g3 = {fmt(rec.g3)}",
        f"derivative scheme: {d.deriv_scheme}, burn-in {d.burn_in} samples",
        f"peeling: {d.peel_method}, design condition number {d.peel_condition:.6e}",
        "",
        "mode   b_hat                    divisor f_m(y)          g_m                     amplification",
    ]
    for j, b in enumerate(rec.b_hat):
        mark = "  [rejected]" if (j + 1) in d.rejected_modes else ""
        rows.append(
            f"{j + 1:4d}   {b: .15e}   {d.divisors[j]: .15e}   "
            f"{rec.g_coeffs.coeffs[j]: .15e}   {d.amplification[j]:.3e}{mark}"
        )
    rows += [
        "",
        "self-consistency residuals (relative L2):",
        f"  u1: {d.residual_u1:.6e}   u3: {d.residual_u3:.6e}   uy: {d.residual_uy:.6e}",
    ]
    if d.predicted_mode_error is not None:
        rows.append(
            "predicted per-mode error: "
            + ", ".join(f"{e:.2e}" for e in d.predicted_mode_error)
        )
    if d.warnings:
        rows.append("warnings:")
        rows.extend(f"  - {w}" for w in d.warnings)
    else:
        rows.append("warnings: none")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# noise studies
# ---------------------------------------------------------------------------

def write_study(out_dir: str | Path, study: NoiseStudy, provenance: dict) -> list[Path]:
    """Write study.csv, study.json and gnuplot-ready .dat curves."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    depth = study.depth

    csv_path = out / "study.csv"
    header = (
        ["level", "trial", "seed", "ok", "v_rel_l2", "h_rel_l2", "peel_condition"]
        + [f"b_err_{m}" for m in range(1, depth + 1)]
        + [f"g_err_{m}" for m in range(1, depth + 1)]
    )
    lines = ["# heatinv noise study"]
    lines.append("# meta = " + json.dumps(provenance, sort_keys=True, separators=(", ", ": ")))
    lines.append(",".join(header))
    for r in study.records:
        if r.ok:
            row = (
                [fmt(r.level), str(r.trial), str(r.seed), "1",
                 fmt(r.v_rel_l2), fmt(r.h_rel_l2), fmt(r.peel_condition)]
                + [fmt(x) for x in r.b_err]
                + [fmt(x) for x in r.g_err]
            )
        else:
            row = [fmt(r.level), str(r.trial), str(r.seed), "0"] + ["nan"] * (3 + 2 * depth)
        lines.append(",".join(row))
    csv_path.write_text("\n".join(lines) + "\n")

    json_path = out / "study.json"
    payload = study.to_dict()
    payload["provenance"] = provenance
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    stamp = (
        f"# config_sha256 = {provenance.get('config_sha256', 'n/a')}"
        f"  seed = {provenance.get('seed', 'n/a')}"
    )
    mode_path = out / "error_vs_mode.dat"
    blocks = ["# heatinv study: mean absolute error of b_hat and g_hat per mode", stamp]
    for lv in study.levels:
        if not study.records_at(lv):
            continue
        blocks.append(f'# level = {fmt(lv)}')
        blocks.append("# m  mean_b_err  mean_g_err")
        mb = study.mean_b_err(lv)
        mg = study.mean_g_err(lv)
        for m in range(1, depth + 1):
            blocks.append(f"{m} {fmt(mb[m - 1])} {fmt(mg[m - 1])}")
        blocks.append("")
        blocks.append("")
    mode_path.write_text("\n".join(blocks).rstrip("\n") + "\n")

    level_path = out / "error_vs_level.dat"
    rows = ["# heatinv study: mean relative L2 error of v_hat and h_hat per noise level", stamp]
    rows.append("# level  mean_v_rel_l2  mean_h_rel_l2")
    for lv in study.levels:
        if study.records_at(lv):
            rows.append(f"{fmt(lv)} {fmt(study.mean_v_err(lv))} {fmt(study.mean_h_err(lv))}")
    level_path.write_text("\n".join(rows) + "\n")

    return [csv_path, json_path, mode_path, level_path]
