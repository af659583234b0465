"""Noise-amplification experiments quantifying the ill-posedness of the recovery.

The reconstruction is unstable in two distinct places: numerical
differentiation of the boundary-mode data (errors scale like noise / dt) and
the exponential factors e^{m^2 t} of the peeling stage (errors grow rapidly
with the mode index).  The study harness here exhibits both with controlled,
seed-deterministic noise injections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import basis_at
from .errors import DataError, DomainError, HeatInvError, _require_int
from .forward import NoiseSpec, Observations, ProblemInstance, _noisy_stack, make_observations
from .grid import _norm, _rel_l2_to
from .inverse import InversionConfig, _solve_stacked

#: a stacked chunk of noisy records holds rows * n <= this many samples per
#: series: its (rows, n) series and temporaries, and mode_evolve's (rows, n/L,
#: 2L + 2 + M) block matrix, about 2 + (M + 2)/L series more.  At 2 001
#: samples that is 12 rows, and a study's 41 distinct records run in balanced
#: chunks of 11, 10, 10 and 10, whose tracemalloc peak is 2.4 MB
_CHUNK_SAMPLES = 24_576


@dataclass(frozen=True)
class TrialRecord:
    """Metrics of a single noisy inversion."""

    level: float
    trial: int
    seed: int
    ok: bool
    message: str = ""
    b_err: np.ndarray | None = None     # |b_hat_m - b_m|
    g_err: np.ndarray | None = None     # |g_hat_m - g_m|
    v_rel_l2: float = float("nan")
    h_rel_l2: float = float("nan")
    peel_condition: float = float("nan")


@dataclass(frozen=True)
class NoiseStudy:
    """Aggregated results of a noise study; deterministic given the base seed."""

    levels: tuple[float, ...]
    trials: int
    base_seed: int
    depth: int
    b_true: np.ndarray
    g_true: np.ndarray
    records: tuple[TrialRecord, ...]

    def records_at(self, level: float) -> list[TrialRecord]:
        return [r for r in self.records if r.level == level and r.ok]

    def _stacked(self, level: float, metric: str) -> np.ndarray:
        """One row of `metric` per successful trial at `level`."""
        rows = [getattr(r, metric) for r in self.records_at(level)]
        if not rows:
            raise DataError(f"no successful trials at level {level}")
        return np.array(rows)

    def mean_b_err(self, level: float) -> np.ndarray:
        return np.mean(self._stacked(level, "b_err"), axis=0)

    def max_g_err(self, level: float) -> np.ndarray:
        return np.max(self._stacked(level, "g_err"), axis=0)

    def mean_g_err(self, level: float) -> np.ndarray:
        return np.mean(self._stacked(level, "g_err"), axis=0)

    def mean_h_err(self, level: float) -> float:
        return float(np.mean(self._stacked(level, "h_rel_l2")))

    def mean_v_err(self, level: float) -> float:
        return float(np.mean(self._stacked(level, "v_rel_l2")))

    def n_failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def to_dict(self) -> dict:
        out = {
            "levels": list(self.levels),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "depth": self.depth,
            "b_true": self.b_true,
            "g_true": self.g_true,
            "n_failed": self.n_failed(),
            "per_level": {},
        }
        for lv in self.levels:
            if self.records_at(lv):
                out["per_level"][repr(lv)] = {
                    "mean_b_err": self.mean_b_err(lv),
                    "mean_g_err": self.mean_g_err(lv),
                    "max_g_err": self.max_g_err(lv),
                    "mean_v_rel_l2": self.mean_v_err(lv),
                    "mean_h_rel_l2": self.mean_h_err(lv),
                }
        return out


def check_study(levels, trials: int) -> list[float]:
    """The noise levels as floats; raises DomainError unless there are levels
    and an integer number of trials and the levels are finite, non-negative
    and strictly ascending (0.0 and -0.0 are one level)."""
    levels = [float(lv) for lv in levels]
    if not levels:
        raise DomainError("need at least one noise level")
    if not all(math.isfinite(lv) and lv >= 0 for lv in levels):
        raise DomainError("noise levels must be finite and non-negative")
    if any(b >= a for b, a in zip(levels, levels[1:])):
        raise DomainError(f"noise levels must be strictly ascending, got {levels}")
    _require_int("trials", trials, least=1)
    return levels


def _invert_chunk(
    clean: Observations, noises: list[NoiseSpec], cfg: InversionConfig, cond: float | None = None
) -> tuple[list, float | None]:
    """The solve stages (_solve_stacked) on the records noise.apply(clean),
    drawn into one stack just before it is solved: one (b_hat, g
    coefficients, v_hat, h_hat) row of arrays per record, and the peel
    condition of the solve, which a given cond stands in for.  If the stack
    fails, each record is drawn and solved alone, the first that succeeds
    supplying cond to the rest, and one that fails comes back as its
    HeatInvError: the same one its lone inversion raises.  cond stays None
    while no solve has succeeded."""
    try:
        s = _solve_stacked(_noisy_stack(clean, noises), cfg, cond, w_only=True)
    except HeatInvError as exc:
        if len(noises) == 1:
            return [exc], cond
        rows = []
        for noise in noises:
            row, cond = _invert_chunk(clean, [noise], cfg, cond)
            rows += row
        return rows, cond
    return list(zip(s.b_hat, s.assembled.coeffs, s.v_hat.values, s.h_hat.values)), s.cond


def run_noise_study(
    p: ProblemInstance,
    y: float,
    levels,
    trials: int,
    cfg: InversionConfig | None = None,
    base_seed: int = 0,
) -> NoiseStudy:
    """Invert noisy observations at each relative noise level.

    The clean observation record is built once; the i-th (level, trial)
    pair, counted level by level, perturbs it with seed base_seed + i
    (NoiseSpec.apply).  A level-0 trial adds no noise: its spec is the clean
    NoiseSpec(), so the clean record is inverted once, in the first chunk,
    and every level-0 trial gets that outcome under its own trial and seed.
    The distinct records are drawn and inverted a chunk at a time, as one
    stack of at most _CHUNK_SAMPLES samples per series, in the fewest such
    chunks, their sizes balanced; every trial's record equals that of its
    own lone inversion.  Only the solve stages run (a record holds no
    residual), evolving the one forced row w that they read, and the peel
    condition, which depends on the grid, depth and path alone, comes from
    the first solve that succeeds and serves every later one.  A record that
    cannot be built (an unsafe y or a negative base_seed, say) raises; a
    failure inside a single trial's inversion is recorded, not raised.
    Level 0 reproduces the clean baseline exactly.

    Without an explicit inversion config the peeling runs on the 'ladder'
    schedule with single-point evaluation: its noise multipliers e^{m^2 t_m}
    grow strictly with m, so the study exhibits the amplification cascade
    instead of the flat error profile a recovery-optimised schedule aims
    for.
    """
    levels = check_study(levels, trials)
    cfg = cfg or InversionConfig(schedule_method="ladder", window=1)

    jobs = [(trial, NoiseSpec("relative", level, base_seed + li * trials + trial))
            for li, level in enumerate(levels) for trial in range(trials)]
    g_true = p.g_coeffs(cfg.depth)
    b_true = g_true * basis_at(y, cfg.depth)
    # the truth is sampled once: the forward solve reads these samples
    v_true, h_true = p.v_grid(), p.h_grid()
    clean = make_observations(replace(p, v=v_true, h=h_true), y)
    # the truth the inversion sees after its burn-in, and its norms, once per study
    v_tail, h_tail = v_true.values[cfg.burn_in:], h_true.values[cfg.burn_in:]
    v_norm, h_norm = _norm(v_tail), _norm(h_tail)

    def outcome(row, cond) -> dict:
        """The TrialRecord fields of one solve's row, or of its failure."""
        if isinstance(row, HeatInvError):
            return {"ok": False, "message": str(row)}
        b_hat, coeffs, v_hat, h_hat = row
        return {
            "ok": True,
            "b_err": np.abs(b_hat - b_true),
            "g_err": np.abs(coeffs - g_true),
            "v_rel_l2": _rel_l2_to(v_hat - v_tail, v_norm),
            "h_rel_l2": _rel_l2_to(h_hat - h_tail, h_norm),
            "peel_condition": cond,
        }

    # every spec that adds no noise is the clean record's: one solve for all
    specs = [noise if noise.adds_noise else NoiseSpec() for _, noise in jobs]
    distinct = list(dict.fromkeys(specs))
    # the fewest chunks of at most _CHUNK_SAMPLES // n rows, their sizes balanced
    chunks = -(-len(distinct) // max(1, _CHUNK_SAMPLES // clean.u1.n))
    bounds = [-(-len(distinct) * i // chunks) for i in range(chunks + 1)]
    outcomes, cond = {}, None
    for start, stop in zip(bounds, bounds[1:]):
        chunk, cond = _invert_chunk(clean, distinct[start:stop], cfg, cond)
        outcomes.update((spec, outcome(row, cond)) for spec, row in zip(distinct[start:], chunk))
        del chunk  # its v_hat and h_hat stacks, freed before the next chunk is drawn
    records = [TrialRecord(noise.level, trial, noise.seed, **outcomes[spec])
               for (trial, noise), spec in zip(jobs, specs)]
    return NoiseStudy(
        levels=tuple(levels),
        trials=trials,
        base_seed=base_seed,
        depth=cfg.depth,
        b_true=b_true,
        g_true=g_true,
        records=tuple(records),
    )
