"""Forward solvers for u_t - u_xx = h(t) on [0, pi] with u(0,t) = v(t), u(pi,t) = 0.

Two independent routes are provided: a spectral solver that evolves each sine
mode by an exact exponential-integrator step (piecewise-linear forcing), and a
Crank-Nicolson finite-difference oracle.  The observation triple
{u_1(t), u_3(t), u(y,t)} is synthesised from the spectral modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .basis import (BASIS_NORM, SineSeries, _require_interior, basis_at, check_observation_point,
                    mode_constants, project)
from .errors import DataError, DomainError
from .grid import GridFn

#: tolerance for the corner-compatibility flags g(0) == v(0), g(pi) == 0
CORNER_TOL = 1e-9

TimeInput = Union[Callable, GridFn]
SpaceInput = Union[Callable, SineSeries]


#: a scan block spans at most this many decay lengths of the fastest mode
_BLOCK_DECAY = 30.0
#: floor of the rescaling exponent, binding only on 2-sample blocks of modes with a < e^-600
_STIFF_EXPONENT = -600.0
#: a scan tile holds at most this many (mode, sample) elements of each stacked
#: row (1 MiB of float64) unless one block alone is larger
_TILE_ELEMENTS = 2 ** 17


def _scan_blocks(x: np.ndarray, up: np.ndarray, lead: np.ndarray, carry: np.ndarray):
    """Scan x of shape (..., M, blocks, B) in place, block after block from the
    carry u_{s-1} of shape (..., M, 1); returns the carry out of the last block."""
    x /= up
    lanes = x.view(np.complex128)  # real part: even samples, imaginary part: odd
    np.cumsum(lanes, axis=-1, out=lanes)
    even, odd = x[..., 0::2], x[..., 1::2]
    prev = odd[..., :-1].copy()
    odd += even                # sample 2p + 1: E_p + O_p
    even[..., 1:] += prev      # sample 2p: E_p + O_{p-1}
    x *= up
    for blk in np.moveaxis(x, -2, 0):
        blk += lead * carry
        carry = blk[..., -1:]
    return carry.copy()  # x goes before the next tile is built


def mode_evolve(g, v: GridFn, h: GridFn, weights=None) -> np.ndarray:
    """Evolve modes m = 1..M = len(g) of u_m' + m^2 u_m = v(t) f_m'(0) + c_m h(t); shape (M, n).

    Forcing piecewise linear between samples makes each step the exact update
    u_k = a u_{k-1} + b_old f_{k-1} + b_new f_k with a = e^{-m^2 dt} (order 2,
    exact for constant forcing), and u_m(0) = g[m-1] exactly.  All modes run
    as one blocked prefix scan (Blelloch, "Prefix sums and their applications",
    1990): with x_0 = g and x_k the forcing term of step k, a block of B
    samples from s is one cumulative sum, u_{s+i} = a^i sum_{j<=i} a^{-j}
    x_{s+j} + a^{i+1} u_{s-1}, with B even and short enough that a^{-B} <= e^30
    for the fastest mode (B >= 2; a^{-1} is capped at e^600); the carry u_{s-1}
    passes from block to block.  The sum runs in two lanes, one np.cumsum over
    the complex view of the block: with E_p, O_p the sums of the even and odd
    samples up to 2p and 2p + 1, sample 2p + 1 is E_p + O_p and sample 2p is
    E_p + O_{p-1}.  Stacked v and h of shape (rows, n) give a leading batch
    axis, shape (rows, M, n), with every row's bits those of its own call.

    The scan walks the record in tiles of whole blocks, each of at most
    _TILE_ELEMENTS elements per row, so its working memory does not grow
    with n, and a tile does not depend on the number of rows.  With weights
    of shape (K, M) only the K projections weights @ modes are kept, shape
    (..., K, n): a row holding a single 1 copies that mode's samples and any
    other row is formed as row @ modes of the tile.  The modes, and so the
    copied rows, keep their bits at any tile size; the other rows may move
    at rounding level with it.
    """
    v.require_same_grid(h)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.ndim != 1 or g.size < 1:
        raise DomainError("initial mode values must form a non-empty 1-D array")
    order, n, dt = g.size, v.n, v.dt
    picks = []  # per kept row: the index of the mode it copies, or its weight row
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != order:
            raise DomainError(f"mode weights must have shape (K, {order}), got {weights.shape}")
        for row in weights:
            (hot,) = np.nonzero(row)
            picks.append(int(hot[0]) if hot.size == 1 and row[hot[0]] == 1.0 else row)
    modes = [mode_constants(m) for m in range(1, order + 1)]
    lam = np.array([md.lam for md in modes])
    fprime0 = np.array([md.fprime0 for md in modes])[:, None]
    c_m = np.array([md.c_m for md in modes])[:, None]
    batch = v.values.shape[:-1]

    # phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2, by series for small |z|
    z = -lam * dt
    em1 = np.expm1(z)
    small = np.abs(z) < 1e-5
    phi1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0, em1 / z)
    phi2 = np.where(small, 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0, (em1 - z) / (z * z))
    b_new = (dt * phi2)[:, None]           # weight of f_k in step k-1 -> k
    b_old = (dt * (phi1 - phi2))[:, None]  # weight of f_{k-1}

    block = 2 * max(1, min(-(-n // 2), int(_BLOCK_DECAY / (lam[-1] * dt)) // 2))
    width = block * min(-(-n // block), max(1, _TILE_ELEMENTS // (order * block)))
    carry = np.zeros((order, 1))
    for s in range(0, n, width):
        e = min(s + width, n)
        lo = max(s - 1, 0)  # step k reads the forcing at k - 1 and k
        forcing = fprime0 * v.values[..., None, lo:e]
        forcing += c_m * h.values[..., None, lo:e]
        x = np.zeros((*batch, order, -(-(e - s) // block) * block))
        if s == 0:
            x[..., 0] = g
        np.multiply(b_old, forcing[..., :-1], out=x[..., lo + 1 - s:e - s])
        forcing *= b_new
        x[..., lo + 1 - s:e - s] += forcing[..., 1:]
        del forcing
        if s == 0:  # not beside the first tile's forcing, the peak of a one-tile record
            j = np.arange(block)
            up = np.exp(np.maximum(np.outer(z, j), _STIFF_EXPONENT))[:, None, :]  # a^j
            lead = np.exp(np.outer(z, j + 1))        # a^{i+1}, weight of the carry
            out = np.empty((*batch, order if weights is None else len(picks), n))
        carry = _scan_blocks(x.reshape(*batch, order, -1, block), up, lead, carry)
        tile = x[..., :e - s]
        if weights is None:
            out[..., s:e] = tile
        for k, pick in enumerate(picks):
            out[..., k, s:e] = tile[..., pick, :] if isinstance(pick, int) else pick @ tile
        del x, tile  # before the next tile's forcing is built
    return out


@dataclass(frozen=True)
class ProblemInstance:
    """Ground-truth triple (h, v, g) with discretisation parameters.

    h and v may be callables of t or GridFns on the simulation grid; g may be
    a callable of x or a SineSeries of exact coefficients.
    """

    h: TimeInput
    v: TimeInput
    g: SpaceInput
    order: int          # mode truncation M
    t_final: float
    dt: float

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise DataError(f"final time must be positive, got {self.t_final}")
        if not self.dt > 0.0:
            raise DataError(f"time step must be positive, got {self.dt}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise DataError(
                f"final time {self.t_final} is not an integer number of steps of {self.dt}"
            )
        if self.order < 1:
            raise DomainError(f"mode truncation must be >= 1, got {self.order}")

    @property
    def n_samples(self) -> int:
        return int(round(self.t_final / self.dt)) + 1

    def _time_values(self, f: TimeInput) -> GridFn:
        if isinstance(f, GridFn):
            ref = GridFn(0.0, self.dt, np.zeros(self.n_samples))
            ref.require_same_grid(f)
            return f
        return GridFn.sample(f, 0.0, self.dt, self.n_samples)

    def h_grid(self) -> GridFn:
        return self._time_values(self.h)

    def v_grid(self) -> GridFn:
        return self._time_values(self.v)

    def g_coeffs(self, order: int | None = None) -> np.ndarray:
        """Sine coefficients of g, padded or truncated to `order` modes."""
        order = self.order if order is None else order
        if isinstance(self.g, SineSeries):
            c = np.zeros(order)
            k = min(order, self.g.order)
            c[:k] = self.g.coeffs[:k]
            return c
        return project(self.g, order).coeffs.copy()

    def compatibility(self) -> dict:
        """Corner-compatibility flags; incompatibility degrades accuracy only."""
        v0 = float(self.v_grid().values[0])
        g0 = float(self.g(0.0))
        gpi = float(self.g(math.pi))
        return {
            "g0": g0,
            "v0": v0,
            "g_pi": gpi,
            "corner_ok": abs(g0 - v0) <= CORNER_TOL,
            "right_end_ok": abs(gpi) <= CORNER_TOL,
        }


@dataclass(frozen=True)
class SpectralSolution:
    """Mode amplitudes u_m(t) for m = 1..M on a shared time grid."""

    t0: float
    dt: float
    modes: np.ndarray  # shape (M, n)

    @property
    def order(self) -> int:
        return self.modes.shape[0]

    @property
    def n(self) -> int:
        return self.modes.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def mode(self, m: int) -> GridFn:
        if not 1 <= m <= self.order:
            raise DomainError(f"mode {m} outside 1..{self.order}")
        return GridFn(self.t0, self.dt, self.modes[m - 1])

    def field(self, x: np.ndarray, v: GridFn | None = None) -> np.ndarray:
        """Synthesis of u(x, t) on a spatial grid; shape (n, len(x)).

        When the boundary values v are supplied, the identity
        u = v(t)(1 - x/pi) + sum_m (u_m - v(t) l_m) f_m(x),  l_m = sqrt(2/pi)/m,
        is used.  It regroups the exact series around the linear boundary
        lift, so the truncated sum converges uniformly up to the boundary
        instead of suffering the O(1) Gibbs error of the raw partial sum.
        """
        x = np.asarray(x, dtype=float)
        m = np.arange(1, self.order + 1)
        fx = BASIS_NORM * np.sin(np.outer(m, x))  # (M, nx)
        if v is None:
            return self.modes.T @ fx
        GridFn(self.t0, self.dt, np.zeros(self.n)).require_same_grid(v)
        lift_coeff = BASIS_NORM / m
        corrected = self.modes - np.outer(lift_coeff, np.ones(self.n)) * v.values
        return np.outer(v.values, 1.0 - x / math.pi) + corrected.T @ fx


def solve_spectral(p: ProblemInstance) -> SpectralSolution:
    """Evolve all modes m = 1..p.order with coefficients of g as initial data."""
    modes = mode_evolve(p.g_coeffs(), p.v_grid(), p.h_grid())
    return SpectralSolution(t0=0.0, dt=p.dt, modes=modes)


@dataclass(frozen=True)
class FDSolution:
    """Finite-difference solution on the full space-time grid."""

    x: np.ndarray
    t0: float
    dt: float
    u: np.ndarray  # shape (n_t, nx)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.u.shape[0])


def solve_fd(p: ProblemInstance, nx: int) -> FDSolution:
    """Crank-Nicolson oracle on nx spatial points (boundaries included).

    Second order in space and time for smooth compatible data; implicit, so
    the time step is unrestricted by nx.  Boundary rows are pinned to v(t)
    and 0 strongly.
    """
    from scipy.linalg import solve_banded  # only the oracle needs scipy

    if nx < 16:
        raise DomainError(f"need at least 16 spatial points, got {nx}")
    v = p.v_grid().values
    h = p.h_grid().values
    x = np.linspace(0.0, math.pi, nx)
    dx = x[1] - x[0]
    dt = p.dt
    r = dt / (2.0 * dx * dx)

    g0 = np.asarray(p.g(x), dtype=float)
    if not np.all(np.isfinite(g0)):
        raise DataError("initial data are not finite on the spatial grid")

    n_t = p.n_samples
    u = np.empty((n_t, nx))
    u[0] = g0
    u[0, 0] = v[0]
    u[0, -1] = 0.0

    # interior system (I - r d2) u^{n+1} = (I + r d2) u^n + dt*(h_n+h_{n+1})/2
    n_int = nx - 2
    ab = np.zeros((3, n_int))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r

    for k in range(n_t - 1):
        interior = u[k, 1:-1]
        rhs = (
            (1.0 - 2.0 * r) * interior
            + r * (u[k, :-2] + u[k, 2:])
            + dt * 0.5 * (h[k] + h[k + 1])
        )
        rhs[0] += r * v[k + 1]  # implicit-side boundary term; explicit side sits in u[k, :-2]
        u[k + 1, 1:-1] = solve_banded((1, 1), ab, rhs, check_finite=False)
        u[k + 1, 0] = v[k + 1]
        u[k + 1, -1] = 0.0
    return FDSolution(x=x, t0=0.0, dt=dt, u=u)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive i.i.d. Gaussian noise on the observed series.

    kind is 'none', 'absolute' or 'relative'; a relative level scales the
    standard deviation by the sup norm of each series.  The same seed always
    reproduces the same noise.
    """

    kind: str = "none"
    level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "absolute", "relative"):
            raise DataError(f"unknown noise kind '{self.kind}'")
        if not (math.isfinite(self.level) and self.level >= 0.0):
            raise DataError(f"noise level must be finite and non-negative, got {self.level}")

    @property
    def adds_noise(self) -> bool:
        """False for kind 'none' or a zero level (-0.0 included): apply then
        returns its record itself."""
        return self.kind != "none" and self.level != 0.0

    def apply(self, obs: Observations) -> Observations:
        """obs with this noise added: one default_rng(seed) draws, in the
        order u1, u3, uy, level * scale * standard_normal(n) per series, where
        scale is 1 ('absolute') or the series' sup norm ('relative').  A spec
        that adds no noise returns obs itself."""
        if not self.adds_noise:
            return obs
        rng = np.random.default_rng(self.seed)

        def noisy(f: GridFn) -> GridFn:
            scale = 1.0 if self.kind == "absolute" else float(np.max(np.abs(f.values)))
            return GridFn(f.t0, f.dt, f.values + (self.level * scale) * rng.standard_normal(f.n))

        u1, u3, uy = (noisy(f) for f in (obs.u1, obs.u3, obs.uy))
        return replace(obs, u1=u1, u3=u3, uy=uy)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "level": self.level, "seed": self.seed}


@dataclass(frozen=True)
class Observations:
    """The data triple {u_1(t), u_3(t), u(y, t)} on a shared grid."""

    u1: GridFn
    u3: GridFn
    uy: GridFn
    y: float
    order: int | None = None  # mode truncation of the record, when known

    def __post_init__(self):
        self.u1.require_same_grid(self.u3)
        self.u1.require_same_grid(self.uy)
        _require_interior(self.y)
        if self.order is not None:
            _require_observed_modes(self.order)


def _require_observed_modes(order: int) -> None:
    if order < 3:
        raise DomainError(f"observations need at least modes 1 and 3, got order {order}")


def _observed_rows(y: float, order: int) -> np.ndarray:
    """Weights [e_1; e_3; f(y)], shape (3, order), that project modes 1..order
    onto the observed u_1(t), u_3(t) and u(y, t)."""
    _require_observed_modes(order)
    rows = np.zeros((3, order))
    rows[0, 0] = rows[1, 2] = 1.0
    rows[2] = basis_at(y, order)
    return rows


def make_observations(
    p: ProblemInstance,
    y: float,
    noise: NoiseSpec | None = None,
) -> Observations:
    """Generate the observation triple from the instance's M modes.

    The modes are evolved straight into their three observed projections
    (_observed_rows), u(y, t) being the truncated synthesis over the M modes;
    the optional noise is added to the three series by NoiseSpec.apply.
    """
    chk = check_observation_point(y, p.order)
    if not chk.safe:
        raise DomainError(
            f"observation point y={y} unsafe: |sin({chk.worst_mode} y)| = "
            f"{chk.min_abs_sin:.3e} below threshold {chk.threshold:.3e}"
        )
    rows = mode_evolve(p.g_coeffs(), p.v_grid(), p.h_grid(), _observed_rows(y, p.order))
    u1, u3, uy = (GridFn(0.0, p.dt, r) for r in rows)
    clean = Observations(u1=u1, u3=u3, uy=uy, y=float(y), order=p.order)
    return (noise or NoiseSpec()).apply(clean)
