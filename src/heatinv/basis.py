"""Dirichlet sine eigenbasis on [0, pi].

The basis functions are f_m(x) = sqrt(2/pi) * sin(m x), m = 1, 2, ...,
orthonormal in L2(0, pi) and vanishing at both endpoints.  Each mode carries
three derived constants used throughout the solver: the decay rate m^2, the
coupling c_m = (1, f_m) of a spatially uniform source, and the boundary
coupling f_m'(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, _require_int
from .grid import _evaluate

#: sqrt(2/pi), the normalisation constant of the basis.
BASIS_NORM = math.sqrt(2.0 / math.pi)

#: default truncation order of sine series
DEFAULT_MODES = 16

#: default number of spatial quadrature points (trapezoid rule)
DEFAULT_QUAD_POINTS = 2048

#: default safety threshold for |sin(m y)| at the observation point
DEFAULT_POINT_THRESHOLD = 1e-3


@dataclass(frozen=True)
class Mode:
    """Constants attached to basis mode m."""

    m: int
    lam: float      # decay rate m^2
    c_m: float      # source coupling (1, f_m); exactly 0 for even m
    fprime0: float  # boundary coupling f_m'(0) = m * sqrt(2/pi)


def mode_constants(m: int) -> Mode:
    """Return the Mode record for index m >= 1.

    c_m = sqrt(2/pi) (1 - cos(m pi)) / m, evaluated through the parity of m
    so that even modes give an exact zero.
    """
    _require_int("mode index", m, least=1)
    m = int(m)
    c_m = 0.0 if m % 2 == 0 else 2.0 * BASIS_NORM / m
    return Mode(m=m, lam=float(m * m), c_m=c_m, fprime0=m * BASIS_NORM)


def eval_basis(m: int, x):
    """Evaluate f_m(x) = sqrt(2/pi) sin(m x) for x in [0, pi].

    x may be a scalar or an array; the domain check applies elementwise.
    """
    m = mode_constants(m).m  # checks the mode index
    out = BASIS_NORM * np.sin(m * _on_rod(x))
    return float(out) if np.isscalar(x) else out


def _on_rod(x) -> np.ndarray:
    """x as a float array; the one home of the rule 0 <= x <= pi for a position."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > math.pi):
        raise DomainError("position outside [0, pi]")
    return xa


def _require_interior(y: float) -> None:
    """The one home of the rule 0 < y < pi for an observation point."""
    if not 0.0 < y < math.pi:
        raise DomainError(f"observation point must lie in (0, pi), got {y}")


def basis_at(y: float, order: int) -> np.ndarray:
    """f_m(y) for m = 1..order at an interior point 0 < y < pi."""
    _require_interior(y)
    _require_int("truncation order", order, least=1)
    return BASIS_NORM * np.sin(np.arange(1, order + 1) * y)


def _near_zero(fy: np.ndarray, threshold: float = DEFAULT_POINT_THRESHOLD) -> np.ndarray:
    """Mask over fy = basis_at(y, order) of the modes whose divisor f_m(y) is
    near zero: |sin(m y)| < threshold (every mode for a NaN threshold)."""
    return ~(np.abs(fy) >= threshold * BASIS_NORM)


@dataclass(frozen=True)
class SineSeries:
    """Finite sine series sum_m coeffs[m-1] * f_m(x) on [0, pi]."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise DataError("coefficient vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(c)):
            raise DataError("coefficient vector contains non-finite entries")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size

    @classmethod
    def from_sin_amplitudes(cls, amplitudes) -> "SineSeries":
        """Build from plain sin(m x) amplitudes a_m, i.e. g = sum a_m sin(m x)."""
        a = np.asarray(amplitudes, dtype=float)
        return cls(a / BASIS_NORM)

    @property
    def sin_amplitudes(self) -> np.ndarray:
        """Amplitudes of plain sin(m x): a_m = coeffs[m-1] * sqrt(2/pi)."""
        return self.coeffs * BASIS_NORM

    def __call__(self, x):
        """Evaluate the truncated series at x (scalar or array) in [0, pi]."""
        m = np.arange(1, self.order + 1)
        out = BASIS_NORM * np.sin(np.multiply.outer(_on_rod(x), m)) @ self.coeffs
        return float(out) if np.isscalar(x) else out


def project(fn: Callable, order: int, quad_points: int = DEFAULT_QUAD_POINTS) -> SineSeries:
    """Project a function on [0, pi] onto the first `order` basis modes.

    Composite trapezoid rule on `quad_points` uniform points.  The rule is
    second-order for general smooth integrands, but satisfies the discrete
    sine orthogonality exactly, so projecting a sine polynomial of degree
    below the number of grid intervals is exact up to rounding.
    """
    _require_int("truncation order", order, least=1)
    _require_int("quadrature points", quad_points, least=max(16, 2 * order))
    x = np.linspace(0.0, math.pi, quad_points)
    vals = _evaluate(fn, x)
    if not np.all(np.isfinite(vals)):
        raise DataError("function values on the quadrature grid are not finite")
    m = np.arange(1, order + 1)
    integrand = BASIS_NORM * np.sin(np.outer(m, x)) * vals
    coeffs = np.trapezoid(integrand, x, axis=1)
    return SineSeries(coeffs)
