"""File formats: experiment configs, observation sets, reconstructions, studies.

CSV floats are written with 17 significant digits and JSON floats as their
shortest repr, so that parse(emit(x)) reproduces x bit for bit.  A float
series is formatted in numpy by floattext, a block of rows at a time, with
the bytes of '%.17g' % v and float.__repr__(v).
'#'-prefixed header lines carry metadata as a single canonical JSON object.
Outputs contain no timestamps or host information: a config plus a seed
determines every byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, HeatInvError, ParseError, _finite, _text
from .forward import NoiseSpec, Observations, ProblemInstance, _require_safe_point
from .grid import GridFn
from .inverse import DET_EXACT, DerivativeScheme, InversionConfig, PeelPlan, Reconstruction
from .presets import make_problem
from .regularize import NoiseStudy, check_study
from .basis import DEFAULT_MODES, SineSeries
from .floattext import _g17, _json_floats


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

    depth: int = InversionConfig.depth
    smooth_window: int = DerivativeScheme.smooth_window
    smooth_polyorder: int = DerivativeScheme.smooth_polyorder
    burn_in: int = InversionConfig.burn_in
    peel_method: str = InversionConfig.peel_method
    ridge: float = InversionConfig.ridge
    schedule_method: str = InversionConfig.schedule_method
    schedule_times: tuple[float, ...] | None = None
    window: int | None = InversionConfig.window
    divisor_threshold: float = InversionConfig.divisor_threshold
    amplification_cap: float = InversionConfig.amplification_cap

    levels: tuple[float, ...] = (0.0, 1e-6, 1e-4)
    trials: int = 20

    out_dir: str = "."

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if val is None and kind != f.type:
                continue
            items = val if kind.startswith("tuple") else (val,)
            want = {"int": int, "str": str}.get(kind, float)
            if not isinstance(items, (list, tuple)) or not all(
                    isinstance(x, str) if want is str else _is_number(x, want) for x in items):
                noun = {"int": "an integer", "float": "a finite number",
                        "str": "a string"}.get(kind, "a number list")
                raise ConfigError(f"{f.name} must be {noun}, got {_text(val)}")
            if kind.startswith("tuple"):
                object.__setattr__(self, f.name, tuple(map(float, val)))
        if self.preset is None and self.g_amplitudes is None:
            raise ConfigError("either a preset or explicit problem data must be given")
        if self.preset is not None and (self.h_csv or self.v_csv or self.g_amplitudes):
            raise ConfigError("a preset and explicit problem data are mutually exclusive")
        try:  # build what the config feeds, reading no sample file
            check_study(self.levels, self.trials)
            self.inversion_config()
            self.noise_spec()
            _require_safe_point(self.y, self.order)
            if self.preset is None:
                self._unread_problem()
            else:
                self.make_problem()
        except HeatInvError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(k if isinstance(k, str) else repr(k) for k in set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    # -- factories ---------------------------------------------------------

    def make_problem(self) -> ProblemInstance:
        if self.preset is not None:
            return make_problem(self.preset, self.order, self.t_final, self.dt)
        p = self._unread_problem()
        return dataclasses.replace(p, h=_read_time_samples(self.h_csv, p),
                                   v=_read_time_samples(self.v_csv, p))

    def _unread_problem(self) -> ProblemInstance:
        """The explicit problem on its checked grid, h and v not yet read."""
        return ProblemInstance(h=None, v=None, g=SineSeries.from_sin_amplitudes(self.g_amplitudes),
                               order=self.order, t_final=self.t_final, dt=self.dt)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(kind=self.noise_kind, level=self.noise_level, seed=self.seed)

    def inversion_config(self) -> InversionConfig:
        """The InversionConfig of this config's fields of the same name, with
        the smoothing knobs as deriv and schedule_times as schedule."""
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(InversionConfig)
                  if f.name in self.__dataclass_fields__}
        schedule = None if self.schedule_times is None else PeelPlan(self.schedule_times)
        return InversionConfig(**shared, schedule=schedule,
                               deriv=DerivativeScheme(self.smooth_window, self.smooth_polyorder))


def _config_sha256(config: dict) -> str:
    """The sha256 of the canonical JSON of a config's to_dict()."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """The ExperimentConfig of a JSON file, read as UTF-8 past a byte-order mark."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not {exc.encoding} text: {exc.reason}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-text limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    write_json(path, cfg.to_dict())


def _json(x, pad: str = ""):
    """The text of json.dumps(x, indent=2, sort_keys=True, allow_nan=False) at
    indent `pad`, in pieces, for str dict keys, with ndarrays and numpy scalars
    as plain values and every float that is not finite as null.  A 1-D
    float64 array of _SERIES_MIN values or more is formatted by _json_floats
    a block of _BLOCK_VALUES values at a time; lists and tuples go value by value."""
    inner = pad + "  "
    if (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
            and x.size >= _SERIES_MIN):
        sep = ",\n" + inner
        tail = np.frombuffer(sep.encode(), np.uint8)
        yield "[\n" + inner
        for start in range(0, x.size, _BLOCK_VALUES):
            rows = _json_floats(x[start:start + _BLOCK_VALUES])
            block = np.concatenate([rows, np.broadcast_to(tail, (len(rows), tail.size))], 1)
            text = block.tobytes().translate(None, b"\0")[:-tail.size]  # NULs dropped
            yield (sep if start else "") + text.decode()
        yield f"\n{pad}]"
        return
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, float):
        yield float.__repr__(x) if math.isfinite(x) else "null"
    elif not x or not isinstance(x, (dict, list, tuple)):
        yield json.dumps(x)
    else:
        if isinstance(x, dict):
            items, brackets = [(json.dumps(k) + ": ", x[k]) for k in sorted(x)], "{}"
        else:
            items, brackets = [("", v) for v in x], "[]"
        yield brackets[0]
        for i, (key, v) in enumerate(items):
            yield ("," if i else "") + "\n" + inner + key
            yield from _json(v, inner)
        yield f"\n{pad}{brackets[1]}"


def write_json(path: str | Path, payload) -> None:
    """Every JSON file heatinv writes: strict JSON (a float that is not finite
    becomes null), indented, keys sorted, newline-terminated, written piece by
    piece, so the text of a long float series is never held whole."""
    with open(path, "w") as f:
        f.writelines(_json(payload))
        f.write("\n")


_BLOCK_VALUES = 4096  # values per write: bounds a write's temporaries, not the file
_SERIES_MIN = 64  # below this many floats, CPython's repr per value beats numpy's cost per block


def _write_table(path: str | Path, title: str, meta: dict, header, columns) -> None:
    """Every CSV heatinv writes: a '# heatinv <title>' line, the metadata as one
    canonical JSON line, the column header, then the rows of `columns`, one
    sequence per header cell.  A column of ints is written with %d, every
    other with %.17g (by _g17), the text of fmt.  The rows go to the file a
    block at a time, so the text of the whole table is never held."""
    ints = [c.dtype.kind in "iu" if isinstance(c, np.ndarray) else all(type(x) is int for x in c)
            for c in columns]
    floats = [np.asarray(c, dtype=np.float64) for c, i in zip(columns, ints) if not i]
    head = [f"# heatinv {title}",
            "# meta = " + json.dumps(meta, sort_keys=True, separators=(", ", ": ")),
            ",".join(header), ""]
    with open(path, "w") as f:
        f.write("\n".join(head))
        n, step = len(columns[0]), max(1, _BLOCK_VALUES // len(columns))
        for start in range(0, n, step):
            rows, size = slice(start, start + step), min(step, n - start)
            texts = iter(_g17(np.array([c[rows] for c in floats]).T)
                         .reshape(size, -1, 24).transpose(1, 0, 2))
            cells = []
            for c, is_int in zip(columns, ints):
                field = next(texts) if not is_int else np.array(
                    [b"%d" % v for v in c[rows]]).view(np.uint8).reshape(size, -1)
                cells += [field, np.full((size, 1), ord(","), np.uint8)]
            cells[-1][:] = ord("\n")
            f.write(np.concatenate(cells, axis=1).tobytes().translate(None, b"\0").decode())


def _read_table(
    path: str | Path, ncols: int
) -> tuple[dict, tuple[int, list[str]] | None, np.ndarray]:
    """Parse a CSV of `ncols` numeric columns; returns (meta, header, data).

    The file is read as UTF-8, past a byte-order mark at its head.  Blank
    lines and '#' comments are skipped, except the '# meta' line, whose
    JSON object after '=' becomes `meta`.  A first non-comment line that is not
    numeric is the header, returned as (line number, cell names); any later
    non-numeric line is an error.  `data` has one row per data line.

    From the first data row on, one np.loadtxt call converts each cell as
    float() does, skips empty lines and refuses a row of another width; a
    block it refuses (a comment, a malformed row, a cell only float() takes)
    is read line by line from that row.  loadtxt strips a U+001F around a
    cell where float() does not, so a file holding one is read line by line.
    """
    meta: dict = {}
    header = None
    values: list[float] = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not {exc.encoding} text: {exc.reason}") from None
    lines = text.splitlines()
    for i, raw in enumerate(lines, start=1):
        cells = raw.split(",")
        if len(cells) == ncols:
            try:
                values.extend(map(float, cells))
            except ValueError:
                pass
            else:
                if len(values) == ncols and "\x1f" not in text:  # the first data row
                    try:
                        return meta, header, np.loadtxt(
                            lines[i - 1:], delimiter=",", comments=None, ndmin=2)
                    except ValueError:
                        pass
                continue
        line = raw.strip()
        if not line or line[0] == "#":
            body = line[1:].strip()
            if body.startswith("meta"):
                try:
                    meta = json.loads(body.partition("=")[2])
                except ValueError:  # JSONDecodeError, or an integer past the int-to-text limit
                    raise ParseError("metadata line is not valid JSON", line=i) from None
                if not isinstance(meta, dict):
                    raise ParseError("metadata line is not a JSON object", line=i)
            continue
        if len(cells) != ncols:
            raise ParseError(f"expected {ncols} columns in {path}, got {len(cells)}", line=i)
        # a header has no full row before it; drop the cells it did convert
        if len(values) >= ncols or header is not None:
            raise ParseError(f"non-numeric value in {path}", line=i)
        values.clear()
        header = (i, [c.strip() for c in cells])
    if not values:
        raise ParseError(f"no data rows found in {path}", line=len(lines))
    return meta, header, np.array(values).reshape(-1, ncols)


def _require_grid(t: np.ndarray, t0: float, dt: float, message: str) -> None:
    """Raise DataError(message) unless t[k] = t0 + k dt to 1e-9 relative."""
    k = np.arange(t.size)
    if np.any(np.abs(t - (t0 + k * dt)) > 1e-9 * np.maximum(1.0, np.abs(t))):
        raise DataError(message)


def _read_time_samples(path: str | None, p: ProblemInstance) -> GridFn:
    """Read a two-column (t, value) CSV sampled on the grid of p, with an
    optional 't,...' header line; no file stands for the zero function."""
    dt, n = p.dt, p.n_samples
    if not path:
        return GridFn(0.0, dt, np.zeros(n))
    _, header, data = _read_table(path, 2)
    if header is not None and header[1][0].lower() != "t":
        raise ParseError(f"expected a 't,...' header in {path}", line=header[0])
    if len(data) != n:
        raise DataError(f"{path}: expected {n} samples on the simulation grid, got {len(data)}")
    _require_grid(data[:, 0], 0.0, dt, f"{path}: sample times do not match the grid step {dt}")
    return GridFn(0.0, dt, data[:, 1])


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def write_observations(path: str | Path, obs: Observations, provenance: dict) -> None:
    """CSV with columns t, u1, u3, uy; its metadata line is the provenance
    plus the record's y, dt and order, the keys read_observations reads."""
    meta = {**provenance, "y": obs.y, "dt": obs.u1.dt, "order": obs.order}
    _write_table(path, "observations", meta, ["t", "u1", "u3", "uy"],
                 (obs.u1.times, obs.u1.values, obs.u3.values, obs.uy.values))


def read_observations(path: str | Path) -> tuple[Observations, dict]:
    meta, header, data = _read_table(path, 4)
    line, names = header or (None, ["(none)"])
    if names != ["t", "u1", "u3", "uy"]:
        raise ParseError(f"expected header 't,u1,u3,uy', got '{','.join(names)}'", line=line)
    t = data[:, 0]
    if "y" not in meta:
        raise ParseError("metadata does not define the observation point y")
    y = _meta_value(meta, "y", float)
    dt = _meta_value(meta, "dt", float, t[1] - t[0] if t.size > 1 else 1.0)
    _require_grid(t, t[0], dt, f"time column is not the uniform grid with dt = {dt}")
    u1, u3, uy = (GridFn(t[0], dt, data[:, j]) for j in (1, 2, 3))
    order = None if meta.get("order") is None else _meta_value(meta, "order", int)
    return Observations(u1=u1, u3=u3, uy=uy, y=y, order=order), meta


def _is_number(x, kind: type) -> bool:
    """The one rule of a number read from JSON as a `kind`: an int for int, and
    for float an int or float that is a finite float (errors._finite); never
    a bool."""
    return (not isinstance(x, bool) and isinstance(x, int if kind is int else (int, float))
            and (kind is int or _finite(x)))


def _meta_value(meta: dict, key: str, kind: type, default=None):
    """meta[key], or the default when absent, as a `kind`; a ParseError unless
    _is_number(meta[key], kind)."""
    val = meta.get(key, default)
    if not _is_number(val, kind):
        noun = "an integer" if kind is int else "a finite number"
        raise ParseError(f"metadata {key} must be {noun}, got {_text(val)}")
    return kind(val)


# ---------------------------------------------------------------------------
# reconstructions
# ---------------------------------------------------------------------------

def write_reconstruction(
    out_dir: str | Path, rec: Reconstruction, provenance: dict
) -> tuple[Path, Path]:
    """Write reconstruction.json and reconstruction.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payload = {
        "g1": rec.g1,
        "g3": rec.g3,
        "b_hat": rec.b_hat,
        "g_coeffs": rec.g_coeffs.coeffs,
        "g_sin_amplitudes": rec.g_coeffs.sin_amplitudes,
        # the series themselves: dataclasses.asdict would copy them to format them
        "v_hat": {"t0": rec.v_hat.t0, "dt": rec.v_hat.dt, "values": rec.v_hat.values},
        "h_hat": {"t0": rec.h_hat.t0, "dt": rec.h_hat.dt, "values": rec.h_hat.values},
        "diagnostics": dataclasses.asdict(rec.diagnostics),
        "provenance": provenance,
    }
    json_path = out / "reconstruction.json"
    write_json(json_path, payload)

    csv_path = out / "reconstruction.csv"
    _write_table(csv_path, "reconstruction", provenance, ["t", "v_hat", "h_hat"],
                 (rec.v_hat.times, rec.v_hat.values, rec.h_hat.values))
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
    rows = (
        [r.level, r.trial, r.seed, 1, r.v_rel_l2, r.h_rel_l2, r.peel_condition, *r.b_err, *r.g_err]
        if r.ok else [r.level, r.trial, r.seed, 0] + [math.nan] * (3 + 2 * depth)
        for r in study.records
    )
    _write_table(csv_path, "noise study", provenance, header, list(zip(*rows)))

    json_path = out / "study.json"
    write_json(json_path, {**study.to_dict(), "provenance": provenance})

    stamp = (
        f"# config_sha256 = {provenance.get('config_sha256', 'n/a')}"
        f"  seed = {provenance.get('seed', 'n/a')}"
    )
    mode_path = out / "error_vs_mode.dat"
    blocks = ["# heatinv study: mean absolute error of b_hat and g_hat per mode", stamp]
    for lv in study.levels:
        if study.records_at(lv):
            pairs = zip(study.mean_b_err(lv), study.mean_g_err(lv))
            blocks += [f"# level = {fmt(lv)}", "# m  mean_b_err  mean_g_err"]
            blocks += [f"{m} {fmt(b)} {fmt(g)}" for m, (b, g) in enumerate(pairs, 1)] + ["", ""]
    mode_path.write_text("\n".join(blocks).rstrip("\n") + "\n")

    level_path = out / "error_vs_level.dat"
    rows = ["# heatinv study: mean relative L2 error of v_hat and h_hat per noise level", stamp,
            "# level  mean_v_rel_l2  mean_h_rel_l2"]
    for lv in study.levels:
        if study.records_at(lv):
            rows.append(f"{fmt(lv)} {fmt(study.mean_v_err(lv))} {fmt(study.mean_h_err(lv))}")
    level_path.write_text("\n".join(rows) + "\n")

    return [csv_path, json_path, mode_path, level_path]
