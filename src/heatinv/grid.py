"""Uniform time-grid carrier for sampled functions of t."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, GridMismatchError

_REL_TOL = 1e-9


@dataclass(frozen=True)
class GridFn:
    """A real function sampled on the uniform grid t0 + dt * k, k = 0..n-1."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise DataError("grid values must form a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise DataError("grid values contain non-finite entries")
        if not self.dt > 0.0:
            raise DataError(f"grid step must be positive, got {self.dt}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def sample(cls, fn: Callable, t0: float, dt: float, n: int) -> "GridFn":
        """Sample a callable (vectorised or scalar) on n grid points."""
        t = t0 + dt * np.arange(n)
        try:
            vals = np.asarray(fn(t), dtype=float)
            if vals.shape != t.shape:
                raise TypeError
        except Exception:
            vals = np.array([float(fn(ti)) for ti in t])
        return cls(t0, dt, vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def same_grid(self, other: "GridFn") -> bool:
        scale = max(abs(self.dt), abs(other.dt), 1e-300)
        return (
            self.n == other.n
            and abs(self.dt - other.dt) <= _REL_TOL * scale
            and abs(self.t0 - other.t0) <= _REL_TOL * max(scale, abs(self.t0), abs(other.t0))
        )

    def require_same_grid(self, other: "GridFn") -> None:
        if not self.same_grid(other):
            raise GridMismatchError(
                f"grids differ: (t0={self.t0}, dt={self.dt}, n={self.n}) vs "
                f"(t0={other.t0}, dt={other.dt}, n={other.n})"
            )

    def index_of(self, t: float) -> int:
        """Nearest grid index of time t; t must fall inside the grid span."""
        i = int(round((t - self.t0) / self.dt))
        if i < 0 or i >= self.n:
            raise DataError(f"time {t} outside grid span [{self.t0}, {self.t_end}]")
        return i

    def trim_head(self, k: int) -> "GridFn":
        """Drop the first k samples."""
        if k < 0 or k >= self.n:
            raise DataError(f"cannot trim {k} samples from a grid of length {self.n}")
        if k == 0:
            return self
        return GridFn(self.t0 + k * self.dt, self.dt, self.values[k:])

    def __sub__(self, other: "GridFn") -> "GridFn":
        self.require_same_grid(other)
        return GridFn(self.t0, self.dt, self.values - other.values)

    def __add__(self, other: "GridFn") -> "GridFn":
        self.require_same_grid(other)
        return GridFn(self.t0, self.dt, self.values + other.values)


def rel_l2(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 distance; falls back to the absolute norm for zero signals."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = float(np.linalg.norm(exact))
    num = float(np.linalg.norm(approx - exact))
    return num / denom if denom > 0.0 else num
