"""Forward solvers for u_t - u_xx = h(t) on [0, pi] with u(0,t) = v(t), u(pi,t) = 0.

Two independent routes are provided: a spectral solver that evolves each sine
mode by an exact exponential-integrator step (piecewise-linear forcing), and a
Crank-Nicolson finite-difference oracle.  The observation triple
{u_1(t), u_3(t), u(y,t)} is synthesised from the spectral modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .basis import (BASIS_NORM, DEFAULT_POINT_THRESHOLD, SineSeries, _near_zero, _on_rod,
                    _require_interior, basis_at, mode_constants, project)
from .errors import DataError, DomainError, _finite, _require_int, _text
from .grid import GridFn, _evaluate

TimeInput = Union[Callable, GridFn]
SpaceInput = Union[Callable, SineSeries]


#: samples per block of mode_evolve's kernel (a power of 2, so s * L * z is exact)
_BLOCK = 32


@functools.lru_cache(maxsize=8)
def _block_kernel(order: int, dt: float, weights, span: int):
    """mode_evolve's kernels [K_r | P_r] and E and z = -m^2 dt, read-only as
    they are cached; weights is None (the identity) or (bytes, shape)."""
    w = np.eye(order) if weights is None else np.frombuffer(weights[0]).reshape(weights[1])
    modes = [mode_constants(m) for m in range(1, order + 1)]
    lam = np.array([md.lam for md in modes])
    coeffs = (np.array([md.fprime0 for md in modes]), np.array([md.c_m for md in modes]))

    # phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2, by series for small |z|
    z = -lam * dt
    em1 = np.expm1(z)
    small = np.abs(z) < 1e-5
    phi1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0, em1 / z)
    phi2 = np.where(small, 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0, (em1 - z) / (z * z))
    b_new = (dt * phi2)[:, None]           # weight of f_k in step k-1 -> k
    b_old = (dt * (phi1 - phi2))[:, None]  # weight of f_{k-1}

    # G_m[i, j] = seq_m[i - j + 1] for 1 <= j <= i + 1 and G_m[i, 0] = b_old a^i
    power = np.exp(np.outer(z, np.arange(span + 1)))  # a^k, k = 0..L
    first = b_old * power[:, :-1]
    seq = b_new * power
    seq[:, 1:] += first
    lag = np.subtract.outer(np.arange(span), np.arange(span + 1)) + 1
    lag[lag < 0] = span + 1  # above the superdiagonal: the zero past seq's end
    width = 2 * span + 2
    kernel = np.empty((len(w), span, width + order))  # [K_r | P_r], (K, L, 2L + 2 + M)
    last = seq[:, ::-1].copy()  # each mode's kernel row L - 1
    last[:, 0] = first[:, -1]
    carry_kernel = np.empty((order, width))  # E
    for part, coeff in enumerate(coeffs):
        cols = slice(part * (span + 1), (part + 1) * (span + 1))
        wc = w * coeff
        gen = np.zeros((len(w), span + 2))
        gen[:, :-1] = wc @ seq
        kernel[:, :, cols] = gen[:, lag]
        kernel[:, :, cols.start] = wc @ first
        carry_kernel[:, cols] = coeff[:, None] * last
    kernel[:, :, width:] = w[:, None, :] * power[:, 1:].T
    for a in (kernel, carry_kernel, z):
        a.flags.writeable = False
    return kernel, carry_kernel, z


def mode_evolve(g, v: GridFn, h: GridFn, weights=None) -> np.ndarray:
    """Evolve modes m = 1..M = len(g) of u_m' + m^2 u_m = v(t) f_m'(0) + c_m h(t); shape (M, n).

    Forcing piecewise linear between samples makes each step the exact update
    u_k = a u_{k-1} + b_old f_{k-1} + b_new f_k with a = e^{-m^2 dt} (order 2,
    exact for constant forcing), and u_m(0) = g[m-1] exactly.  With weights of
    shape (K, M) only the K projections weights @ modes are kept, shape
    (..., K, n); without them the weights are the identity.  Stacked v and h
    of shape (rows, n) give a leading batch axis.

    The steps run in blocks of L = _BLOCK samples, in the chunked form of a
    linear recurrence (Dao and Gu, ICML 2024).  Block b's outputs, samples
    bL + 1 .. bL + L, read the L + 1 samples Z_b of v and of h from bL on and
    the carry C_b = u_{bL} of every mode, so row r is the product

        out_r[block b] = [Z_b | C_b] [K_r | P_r]^T,

    with K_r = sum_m W[r, m] (f_m'(0), c_m) (x) G_m the fixed lower-triangular
    Toeplitz kernel, G_m[i, j] = b_old a^{i-j} [j <= i] + b_new a^{i-j+1}
    [1 <= j <= i + 1], and P_r[i, m] = W[r, m] a_m^{i+1}.  The carries obey
    C_0 = g, C_{b+1} = a^L C_b + Z_b E^T, E the last row of each mode's
    kernel; recursive doubling (Kogge and Stone, 1973) solves them in
    log2(n / L) steps, each factor a^{sL} taken as exp(s L z) directly, so
    the rounding of a^L is not compounded.  The doubling runs on a
    contiguous (rows, blocks, M) buffer of carries, its products written
    into one scratch array of that shape, and one copy puts the carries into
    [Z | C]: the operations of a doubling on [Z | C] itself, in the same
    order, so the same bits in less time.  No exponent is positive, and
    with weights nothing of size M x n is built.  The output is read-only,
    so a GridFn adopts its rows without a copy.  A row holding a single 1
    has the kernel of its mode, so it keeps the bits of the unweighted
    output.

    [K_r | P_r], E and z are built once per grid (_block_kernel, cached).  A
    stack fills one [Z | C] of shape (rows, blocks, 2L + 2 + M) and the two
    carry arrays, about rows x n x (2 + (3M + 2)/L) floats (487 KiB for a
    noise-study chunk of 11 rows), and each product runs once over it:
    np.matmul still calls one GEMM per (row, r) with a lone call's shapes,
    so each row keeps the bits of its own call.
    """
    return _evolve(g, v, h, weights)


def _evolve(g, v: GridFn, h: GridFn, weights=None, keep=slice(None)) -> np.ndarray:
    """mode_evolve's output rows `keep` alone, shape (..., len(kept), n).  The
    kept rows of the cached kernel of all the weights run each (row, r) GEMM
    with the shapes of the whole call, so each row keeps its bits there; a
    kernel built for the kept weights alone would not."""
    v.require_same_grid(h)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.ndim != 1 or g.size < 1:
        raise DomainError("initial mode values must form a non-empty 1-D array")
    order, n, dt, span = g.size, v.n, v.dt, _BLOCK
    w = np.eye(order) if weights is None else np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != order:
        raise DomainError(f"mode weights must have shape (K, {order}), got {w.shape}")
    key = None if weights is None else (w.tobytes(), w.shape)
    kernel, carry_kernel, z = _block_kernel(order, dt, key, span)
    kernel = kernel[keep]

    batch = v.values.shape[:-1]
    vs, hs = (f.values.reshape(-1, n) for f in (v, h))
    rows, width = len(vs), 2 * span + 2
    blocks, full = -(-(n - 1) // span), (n - 1) // span
    out = np.empty((rows, len(kernel), blocks * span + 1))
    out[..., 0] = (w @ g)[keep]
    if blocks:
        zc = np.empty((rows, blocks, width + order))  # [Z_b | C_b]
        zc[:, full:, :width] = 0.0  # zeros pad the last block
        for part, series in enumerate((vs, hs)):
            start = part * (span + 1)
            zc[:, :full, start:start + span] = series[:, :full * span].reshape(rows, full, span)
            zc[:, :full, start + span] = series[:, span:full * span + 1:span]
            zc[:, full:, start:start + n - full * span] = series[:, None, full * span:]
        carries, scratch = np.empty((2, rows, blocks, order))
        carries[:, 0] = g
        np.matmul(zc[:, :-1, :width], carry_kernel.T, out=carries[:, 1:])
        steps = [1 << i for i in range((blocks - 1).bit_length())]  # 1, 2, 4, ... < blocks
        factors = np.exp(np.outer([s * span for s in steps], z))  # a^{sL}, directly
        for step, factor in zip(steps, factors):
            carries[:, step:] += np.multiply(carries[:, :-step], factor, out=scratch[:, step:])
        zc[..., width:] = carries
        # one GEMM per (row, r); copy=False: a copy would drop the products
        products = out[..., 1:].reshape(rows, len(kernel), blocks, span, copy=False)
        np.matmul(zc[:, None], kernel.transpose(0, 2, 1), out=products)
    out.flags.writeable = False
    return out.reshape(*batch, len(kernel), -1)[..., :n]


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
        if not (_finite(self.t_final) and self.t_final > 0.0):
            raise DataError(
                f"final time must be finite and positive, got {_text(self.t_final, str)}")
        if not self.dt > 0.0:
            raise DataError(f"time step must be positive, got {_text(self.dt, str)}")
        if not (_finite(self.dt) or self.dt == math.inf):
            raise DataError(f"time step must fit a float, got {_text(self.dt, str)}")
        steps = self.t_final / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise DataError(
                f"final time {self.t_final} is not an integer number of steps of {self.dt}"
            )
        if round(steps) < 1:
            raise DataError(f"final time {self.t_final} is shorter than one step of {self.dt}")
        _require_int("mode truncation", self.order, least=1)

    @property
    def n_samples(self) -> int:
        return int(round(self.t_final / self.dt)) + 1

    def _time_values(self, f: TimeInput) -> GridFn:
        if isinstance(f, GridFn):
            _require_grid(f, 0.0, self.dt, self.n_samples)
            return f
        return GridFn.sample(f, 0.0, self.dt, self.n_samples)

    def h_grid(self) -> GridFn:
        return self._time_values(self.h)

    def v_grid(self) -> GridFn:
        return self._time_values(self.v)

    def g_coeffs(self, order: int | None = None) -> np.ndarray:
        """Sine coefficients of g, padded or truncated to `order` modes."""
        order = self.order if order is None else order
        _require_int("mode truncation", order, least=1)
        if isinstance(self.g, SineSeries):
            c = np.zeros(order)
            k = min(order, self.g.order)
            c[:k] = self.g.coeffs[:k]
            return c
        return project(self.g, order).coeffs.copy()


def solve_spectral(p: ProblemInstance) -> GridFn:
    """Evolve all modes m = 1..p.order with coefficients of g as initial data;
    row m - 1 of the (M, n) stack is u_m(t)."""
    return GridFn(0.0, p.dt, mode_evolve(p.g_coeffs(), p.v_grid(), p.h_grid()))


def spectral_field(modes: GridFn, x: np.ndarray, v: GridFn) -> np.ndarray:
    """Synthesis of u(x, t) from the (M, n) mode stack of solve_spectral and
    the boundary values v on a spatial grid; shape (n, len(x)).

    The identity
    u = v(t)(1 - x/pi) + sum_m (u_m - v(t) l_m) f_m(x),  l_m = sqrt(2/pi)/m,
    regroups the exact series around the linear boundary lift, so the
    truncated sum converges uniformly up to the boundary instead of
    suffering the O(1) Gibbs error at x = 0 of the raw partial sum
    sum_m u_m f_m(x) whenever v != 0.  A position outside [0, pi] raises
    DomainError, modes that are not an (M, n) stack DataError, and v off
    the modes' grid GridMismatchError.
    """
    if modes.values.ndim != 2:
        raise DataError(f"spectral_field needs an (M, n) mode stack, got {modes.values.shape}")
    x = _on_rod(x)
    _require_grid(v, modes.t0, modes.dt, modes.n)
    m = np.arange(1, modes.values.shape[0] + 1)
    fx = BASIS_NORM * np.sin(np.outer(m, x))  # (M, nx)
    corrected = modes.values - np.outer(BASIS_NORM / m, v.values)  # u_m - v(t) l_m
    return np.outer(v.values, 1.0 - x / math.pi) + corrected.T @ fx


def solve_fd(p: ProblemInstance, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Crank-Nicolson oracle on nx spatial points (boundaries included): the
    points x and u of shape (n, nx) on the problem's time grid.

    Second order in space and time for smooth compatible data; implicit, so
    the time step is unrestricted by nx.  Boundary rows are pinned to v(t)
    and 0 strongly.  The DST-I diagonalises the constant step, so each step is
    one scalar recurrence per discrete sine mode.
    """
    _require_int("spatial points", nx, least=16)
    v = p.v_grid().values
    h = p.h_grid().values
    x = np.linspace(0.0, math.pi, nx)
    dt = p.dt
    r = dt / (2.0 * (x[1] - x[0]) ** 2)

    g0 = _evaluate(p.g, x)
    if not np.all(np.isfinite(g0)):
        raise DataError("initial data are not finite on the spatial grid")

    # interior system (I - r d2) u^{n+1} = (I + r d2) u^n + dt*(h_n+h_{n+1})/2
    # + r*(v_n+v_{n+1}) e_1, where -r d2 = S diag(mu) S for the DST-I matrix S
    n_int = nx - 2
    k = np.arange(1, n_int + 1)
    dst = math.sqrt(2.0 / (n_int + 1)) * np.sin(np.outer(k, k) * (math.pi / (n_int + 1)))
    mu = 4.0 * r * np.sin(k * (math.pi / (2.0 * (n_int + 1)))) ** 2
    load = (np.outer(0.5 * dt * (h[:-1] + h[1:]), dst.sum(axis=0))
            + np.outer(r * (v[:-1] + v[1:]), dst[0]))
    modes = np.vstack((dst @ g0[1:-1], load / (1.0 + mu)))
    decay = (1.0 - mu) / (1.0 + mu)
    for j in range(1, len(modes)):
        modes[j] += decay * modes[j - 1]
    u = np.column_stack((v, modes @ dst, np.zeros_like(v)))
    return x, u


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
        if not (_finite(self.level) and self.level >= 0.0):
            raise DataError(
                f"noise level must be finite and non-negative, got {_text(self.level, str)}")
        _require_int("noise seed", self.seed, DataError, least=0)

    @property
    def adds_noise(self) -> bool:
        """False for kind 'none' or a zero level (-0.0 included): apply then
        returns its record itself."""
        return self.kind != "none" and self.level != 0.0

    def apply(self, obs: Observations) -> Observations:
        """obs with this noise added (noisy_stack of one).  A spec that adds
        no noise returns obs itself."""
        if not self.adds_noise:
            return obs
        noisy = _noisy_stack(obs, [self])
        u1, u3, uy = (f.rows()[0] for f in (noisy.u1, noisy.u3, noisy.uy))
        return replace(obs, u1=u1, u3=u3, uy=uy)


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing draw is rejected below
def _noisy_stack(obs: Observations, noises: list[NoiseSpec]) -> Observations:
    """The one record obs with noises[i] added to row i, as a stacked
    record of (rows, n) series, views of one (rows, 3, n) array.  One
    default_rng(seed) per spec fills its record's u1, u3, uy, in that order,
    by one standard_normal(out=...) (the bits of three draws of n); each
    series is scaled by level * scale, where scale is 1 ('absolute') or the
    clean series' sup norm ('relative'), and the clean series is added last.
    A spec that adds no noise leaves its record clean; a stacked obs raises
    DataError."""
    if obs.u1.values.ndim != 1:
        raise DataError(f"noise is drawn onto one record, got a stack of {len(obs.u1.values)} rows")
    series = [f.values for f in (obs.u1, obs.u3, obs.uy)]
    sups = [float(np.max(np.abs(x))) for x in series]
    out = np.empty((len(noises), 3, obs.u1.n))
    for noise, record in zip(noises, out):
        if not noise.adds_noise:
            for row, x in zip(record, series):
                row[...] = x
            continue
        np.random.default_rng(noise.seed).standard_normal(out=record)
        for row, x, sup in zip(record, series, sups):
            row *= noise.level * (1.0 if noise.kind == "absolute" else sup)
            row += x
        if not np.all(np.isfinite(record)):
            raise DataError(f"noise level {noise.level} (seed {noise.seed}) overflows the data")
    out.flags.writeable = False
    u1, u3, uy = (GridFn(obs.u1.t0, obs.u1.dt, out[:, j]) for j in range(3))
    return replace(obs, u1=u1, u3=u3, uy=uy)


def _require_grid(f: GridFn, t0: float, dt: float, n: int) -> None:
    """Raise GridMismatchError unless f is one record on t0 + dt * (0..n-1)."""
    GridFn._checked(t0, dt, np.broadcast_to(0.0, n)).require_same_grid(f)


def _require_observed_modes(order: int) -> None:
    _require_int("mode truncation", order, least=3)


#: the row of u(y, t) in the observed rows [u_1; u_3; u(y, .)], and in the
#: one row that _observe keeps with uy_only: the last
_UY = -1


def _observed_rows(y: float, order: int) -> np.ndarray:
    """Weights [e_1; e_3; f(y)], shape (3, order), that project modes 1..order
    onto the observed u_1(t), u_3(t) and u(y, t)."""
    _require_observed_modes(order)
    rows = np.zeros((3, order))
    rows[0, 0] = rows[1, 2] = 1.0
    rows[2] = basis_at(y, order)
    return rows


def _require_safe_point(y: float, order: int) -> None:
    """The rule of an observation point y for modes 1..order (at least 3):
    a y with some f_m(y) near zero (basis._near_zero) is refused with a
    DomainError, the worst mode named."""
    _require_observed_modes(order)
    fy = basis_at(y, order)
    if _near_zero(fy).any():
        worst = int(np.argmin(np.abs(fy)))
        raise DomainError(f"observation point y={y} unsafe: |sin({worst + 1} y)| = "
                          f"{abs(fy[worst]) / BASIS_NORM:.3e} below threshold "
                          f"{DEFAULT_POINT_THRESHOLD:.3e}")


def _observe(g, v: GridFn, h: GridFn, y: float, order: int, uy_only: bool = False):
    """The observed rows [u_1; u_3; u(y, .)] of modes 1..order evolved from
    initial values g under the forcing v, h: mode_evolve with the weights
    _observed_rows(y, order), shape (..., 3, n).  uy_only evolves the row
    u(y, .) alone, shape (..., 1, n), with its bits in the full call
    (_evolve); row _UY is u(y, .) either way.  The forward record and the
    inverse's rebuild of its forced part both come from here."""
    rows = _observed_rows(y, order)
    return _evolve(g, v, h, rows, keep=slice(_UY, None)) if uy_only else mode_evolve(g, v, h, rows)


def make_observations(
    p: ProblemInstance,
    y: float,
    noise: NoiseSpec | None = None,
) -> Observations:
    """Generate the observation triple from the instance's M modes.

    The modes are evolved straight into their three observed projections
    (_observe), u(y, t) being the truncated synthesis over the M modes;
    the optional noise is added to the three series by NoiseSpec.apply.  A y
    with some f_m(y) near zero is refused first (_require_safe_point).
    """
    _require_safe_point(y, p.order)
    rows = _observe(p.g_coeffs(), p.v_grid(), p.h_grid(), y, p.order)
    clean = Observations(*(GridFn(0.0, p.dt, r) for r in rows), y=float(y), order=p.order)
    return (noise or NoiseSpec()).apply(clean)
