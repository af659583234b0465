"""Uniform time-grid carrier for sampled functions of t."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, GridMismatchError, _finite, _text

_REL_TOL = 1e-9

#: smallest normal float
_TINY = float(np.finfo(float).tiny)


def _owned_read_only(v) -> bool:
    """True for a float array that no one can write: it and every array on
    its .base chain are read-only, down to the one that owns the data."""
    if type(v) is not np.ndarray or v.dtype != np.float64:
        return False
    while isinstance(v, np.ndarray) and not v.flags.writeable:
        v = v.base
    return v is None


@dataclass(frozen=True)
class GridFn:
    """A real function sampled on the uniform grid t0 + dt * k, k = 0..n-1.

    values may also hold a stack of records on the one grid, shape (rows, n);
    n and every method then act along the last axis.  A float array that no
    one can write (_owned_read_only) is adopted as it is; any other input is
    copied into a read-only array.  Never write to a buffer after a GridFn
    has adopted it.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not _owned_read_only(v):
            v = np.array(v, dtype=float)
            v.flags.writeable = False
        v = np.atleast_1d(v)
        if v.ndim > 2 or v.size < 1:
            raise DataError("grid values must form a non-empty 1-D array or a 2-D stack")
        if not np.all(np.isfinite(v)):
            raise DataError("grid values contain non-finite entries")
        if not _finite(self.t0):
            raise DataError(f"grid start must be finite, got {_text(self.t0, str)}")
        if not (_finite(self.dt) and self.dt > 0.0):
            raise DataError(f"grid step must be finite and positive, got {_text(self.dt, str)}")
        object.__setattr__(self, "values", v)

    @classmethod
    def _checked(cls, t0: float, dt: float, values: np.ndarray) -> "GridFn":
        """A GridFn on read-only values taken from checked GridFns: no copy,
        no check."""
        f = object.__new__(cls)
        f.__dict__.update(t0=t0, dt=dt, values=values)
        return f

    @classmethod
    def sample(cls, fn: Callable, t0: float, dt: float, n: int) -> "GridFn":
        """Sample a callable (vectorised or scalar) on n grid points."""
        return cls(t0, dt, _evaluate(fn, t0 + dt * np.arange(n)))

    @classmethod
    def stack(cls, fns) -> "GridFn":
        """One (rows, n) GridFn from 1-D GridFns on a shared grid."""
        if not fns:
            raise DataError("cannot stack an empty list of grid functions")
        for f in fns[1:]:
            fns[0].require_same_grid(f)
        if fns[0].values.ndim != 1:
            raise DataError("only 1-D grid functions stack")
        values = fns[0].values[None] if len(fns) == 1 else np.stack([f.values for f in fns])
        return cls._checked(fns[0].t0, fns[0].dt, _read_only(values))

    def rows(self) -> list["GridFn"]:
        """The records of a stack as 1-D GridFns (one for a single record),
        views of its values."""
        return [GridFn._checked(self.t0, self.dt, v) for v in np.atleast_2d(self.values)]

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def require_same_grid(self, other: "GridFn") -> None:
        """Raise GridMismatchError unless other has this shape, dt and t0 (both
        to _REL_TOL relative)."""
        scale = max(abs(self.dt), abs(other.dt), 1e-300)
        if not (
            self.values.shape == other.values.shape
            and abs(self.dt - other.dt) <= _REL_TOL * scale
            and abs(self.t0 - other.t0) <= _REL_TOL * max(scale, abs(self.t0), abs(other.t0))
        ):
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
        return GridFn._checked(self.t0 + k * self.dt, self.dt, self.values[..., k:])

    def __sub__(self, other: "GridFn") -> "GridFn":
        self.require_same_grid(other)
        return GridFn(self.t0, self.dt, _read_only(self.values - other.values))


def _evaluate(fn: Callable, x: np.ndarray) -> np.ndarray:
    """A user callable on the 1-D array x: one vectorised call, else (for a
    scalar-only callable) one call per point."""
    try:
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != x.shape:
            raise TypeError
    except Exception:
        vals = np.array([float(fn(xi)) for xi in x])
    return vals


def _read_only(v: np.ndarray) -> np.ndarray:
    """v, a fresh array, marked read-only so that a GridFn adopts it."""
    v.flags.writeable = False
    return v


def _sum_sq(x: np.ndarray) -> float:
    """x . x by np.einsum, which sums without BLAS: the same bits at any BLAS
    thread count, and no overflow warning."""
    return float(np.einsum("i,i->", x, x))


def _norm(x: np.ndarray, sum_sq=_sum_sq) -> float:
    """sqrt(sum_sq(x)), x . x by default, rescaled by max|x| only where
    sum_sq(x) overflows or underflows."""
    sq = sum_sq(x)
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    scale = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < scale < math.inf:
        return scale
    return scale * math.sqrt(sum_sq(x / scale))


def rel_l2(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 distance; falls back to the absolute norm for zero signals.
    approx and exact must hold as many values (DataError)."""
    approx = np.asarray(approx, dtype=float).ravel()
    exact = np.asarray(exact, dtype=float).ravel()
    if approx.size != exact.size:
        raise DataError(f"rel_l2 needs equal sizes, got {approx.size} and {exact.size} values")
    return _rel_l2_to(approx - exact, _norm(exact))


def _rel_l2_to(diff: np.ndarray, exact_norm: float) -> float:
    """rel_l2 given diff = approx - exact, 1-D float arrays, and exact_norm =
    _norm(exact)."""
    num = _norm(diff)
    return num / exact_norm if exact_norm > 0.0 else num
