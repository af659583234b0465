"""Constructive recovery of (h, v, g) from the observation triple.

Pipeline: read g_1, g_3 off the initial samples; differentiate the
exponentially weighted boundary-mode data and solve a 2x2 linear system for
v(t) and h(t) at every grid point; rebuild the forced response w(y, t);
peel the coefficients b_m = g_m f_m(y) out of the exponential sum
q(y, t) = u(y, t) - w(y, t); divide by f_m(y) to obtain the sine
coefficients of g.

Every stage records diagnostics; the final reconstruction is checked for
self-consistency against the observations it came from.  The stages work
along the last axis, so one pass inverts a stack of records that share a
grid; `invert` runs a stack of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import (
    DEFAULT_MODES,
    DEFAULT_POINT_THRESHOLD,
    SineSeries,
    _near_zero,
    basis_at,
    mode_constants,
)
from .errors import (
    DataError,
    DomainError,
    InversionError,
    ScheduleError,
    _finite,
    _require_int,
    _text,
)
from .forward import _UY, Observations, _observe, _require_observed_modes
from .grid import GridFn, _norm, _read_only, _rel_l2_to

#: exact determinant of the (f_1'(0), c_1; f_3'(0), c_3) system
DET_EXACT = -32.0 / (3.0 * math.pi)

#: amplification e^{m^2 t_m} above which a peeled mode is flagged
AMPLIFICATION_CAP = 1e12

#: samples dropped at the head of v_hat, h_hat
DEFAULT_BURN_IN = 2

#: ridge of the provisional fit behind the peel schedule and peel_condition
PROVISIONAL_RIDGE = 1e-12

#: the methods plan_peel knows
SCHEDULE_METHODS = ("model", "balance", "ladder")

_EPS = float(np.finfo(float).eps)

#: largest x with e^x finite
_LOG_MAX = math.log(np.finfo(float).max)

#: elements of one design tile of e^{-k^2 t} (512 KiB): every reader's buffers
#: stay this size whatever the record length
_FIT_TILE_ELEMENTS = 2 ** 16

#: the stride of the 'model' schedule's coarse search: one sample in 64
_SEARCH_STEP = 64


# ---------------------------------------------------------------------------
# stage 1: initial values of the observed modes
# ---------------------------------------------------------------------------

def extract_g13(obs: Observations) -> tuple[np.ndarray, np.ndarray]:
    """g_1 = u_1(0), g_3 = u_3(0), one per row of a stacked record; the grid
    must start at t = 0."""
    if abs(obs.u1.t0) > 1e-12:
        raise DataError(f"observation grid must start at t = 0, got t0 = {obs.u1.t0}")
    return obs.u1.values[..., 0], obs.u3.values[..., 0]


# ---------------------------------------------------------------------------
# stage 2: boundary input and source from the 2x2 mode system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeScheme:
    """Differentiation applied to the weighted data F_1, F_3.

    smooth_window > 0 switches on Savitzky-Golay pre-smoothing (a moving
    local polynomial fit) before the finite-difference stencil; useful for
    noisy data, off by default.  Each row of a stack is smoothed alone.
    """

    smooth_window: int = 0
    smooth_polyorder: int = 3

    def __post_init__(self):
        w, p = self.smooth_window, self.smooth_polyorder
        _require_int("smoothing window", w)
        _require_int("smoothing polynomial order", p)
        if w and (w % 2 == 0 or not 0 <= p < w):
            raise DomainError(
                "smoothing window must be odd and exceed the polynomial order >= 0, "
                f"got window {w}, polyorder {p}"
            )

    def apply(self, values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        w, n, half = self.smooth_window, values.shape[-1], self.smooth_window // 2
        if w:
            if n < w:
                raise DataError("series shorter than the smoothing window")
            # each window's least-squares polynomial read at its centre, by Q of
            # the Legendre Vandermonde on [-1, 1] (an orthonormal basis: the fit is
            # Q^T, the (w, w) hat Q Q^T is never formed); the first and last half
            # samples read the end windows' fits (savgol_filter's mode "interp") by
            # row-wise sums, not BLAS products, so that a stacked row keeps its bits
            basis = np.linalg.qr(np.polynomial.legendre.legvander(
                np.arange(-half, half + 1) / max(half, 1), self.smooth_polyorder))[0]
            fit = basis.T
            ends = np.stack((values[..., :w], values[..., n - w:]), axis=-2)
            fitted = ((ends[..., None, :] * fit).sum(-1)[..., None, :] * basis).sum(-1)
            values = np.concatenate((
                fitted[..., 0, :half],
                np.lib.stride_tricks.sliding_window_view(values, w, axis=-1) @ (basis[half] @ fit),
                fitted[..., 1, half + 1:]), axis=-1)
        if n < 3:
            raise DataError("derivative stencil needs at least 3 samples")
        # second order: central stencils inside, one-sided at the ends
        return values, np.gradient(values, dt, axis=-1, edge_order=2)

    @property
    def name(self) -> str:
        if self.smooth_window:
            return f"savgol({self.smooth_window},{self.smooth_polyorder})+central"
        return "central"


def system_determinant() -> float:
    """Determinant of the (f_1'(0), c_1; f_3'(0), c_3) matrix; equals -32/(3 pi)."""
    m1, m3 = mode_constants(1), mode_constants(3)
    return m1.fprime0 * m3.c_m - m3.fprime0 * m1.c_m


def _require_burn_in(burn_in: int) -> None:
    _require_int("burn-in", burn_in, least=0)


@np.errstate(over="ignore", invalid="ignore")  # GridFn rejects an overflow's inf or nan
def recover_vh(
    obs: Observations,
    g1: float,
    g3: float,
    deriv: DerivativeScheme | None = None,
    burn_in: int = DEFAULT_BURN_IN,
) -> tuple[GridFn, GridFn]:
    """Recover v(t) and h(t) from the two observed boundary modes.

    Forms F_1 = u_1 - g_1 e^{-t} and F_3 = u_3 - g_3 e^{-9t}, differentiates
    them, and solves at every grid point the system

        v f_1'(0) + c_1 h = F_1' + F_1
        v f_3'(0) + c_3 h = F_3' + 9 F_3

    (the weighted derivatives expanded algebraically, which avoids the
    overflowing factor e^{9t}).  The first `burn_in` samples are dropped from
    the returned grid functions: one-sided stencils near t = 0 amplify noise
    the most.
    """
    _require_burn_in(burn_in)
    deriv = deriv or DerivativeScheme()
    n = obs.u1.n
    if n < burn_in + 3:
        raise DataError(
            f"series of {n} samples too short for differentiation with burn-in {burn_in}"
        )
    t = obs.u1.times
    dt = obs.u1.dt

    # the arithmetic of the formulas above, in place on this call's fresh arrays
    e9 = np.multiply(-9.0, t)
    f1 = np.multiply.outer(g1, np.exp(np.negative(t, out=t), out=t))
    np.subtract(obs.u1.values, f1, out=f1)
    f3 = np.multiply.outer(g3, np.exp(e9, out=e9))
    np.subtract(obs.u3.values, f3, out=f3)
    f1s, d1 = deriv.apply(f1, dt)
    f3s, d3 = deriv.apply(f3, dt)
    r1 = np.add(d1, f1s, out=d1)
    r3 = np.add(d3, np.multiply(9.0, f3s, out=f3s), out=d3)

    m1, m3 = mode_constants(1), mode_constants(3)
    det = system_determinant()
    v, scratch = np.multiply(m3.c_m, r1), np.multiply(m1.c_m, r3)
    v -= scratch
    v /= det
    h = np.multiply(m1.fprime0, r3, out=r3)
    h -= np.multiply(m3.fprime0, r1, out=scratch)
    h /= det

    return tuple(GridFn(obs.u1.t0, dt, _read_only(f)).trim_head(burn_in) for f in (v, h))


# ---------------------------------------------------------------------------
# stage 3: forced response at the observation point
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # GridFn rejects an overflow's inf or nan
def _extend_to_zero(f: GridFn) -> GridFn:
    """Extend a grid function back to t = 0 by linear extrapolation.

    recover_vh trims a short burn-in at the head; the Duhamel integrals need
    the forcing from t = 0, and the extrapolation error over the trimmed
    span is O((burn_in * dt)^2) for smooth inputs.
    """
    k = int(round(f.t0 / f.dt))
    if k == 0:
        return f
    first = f.values[..., :1]
    slope = (f.values[..., 1:2] - first) / f.dt if f.n > 1 else 0.0
    # only the head is new: it alone is checked, then joined to f's checked values
    head = GridFn(0.0, f.dt, _read_only(first + slope * f.dt * (np.arange(k) - k)))
    return GridFn._checked(0.0, f.dt, _read_only(np.concatenate([head.values, f.values], axis=-1)))


def forced_mode_values(v_hat: GridFn, h_hat: GridFn, y: float, order: int) -> np.ndarray:
    """The zero-initial-data Duhamel response of modes 1..order, observed:
    the rows [u_1; u_3; w] from t = 0, shape (3, n), or (rows, 3, n) for
    stacked inputs, where w(y, t) = sum_m f_m(y) * (forced response of mode
    m), by the forward record's own rule (forward._observe).  Inputs that
    start after t = 0 (burn-in trim) are extended back by linear
    extrapolation before integrating."""
    return _observe(np.zeros(order), *map(_extend_to_zero, (v_hat, h_hat)), y, order)


def compute_w(v_hat: GridFn, h_hat: GridFn, y: float, order: int) -> GridFn:
    """w(y, t) from t = 0, order >= 3: row _UY of forced_mode_values, evolved
    alone with its bits there; u_1 and u_3 are not evolved."""
    w = _observe(np.zeros(order), *map(_extend_to_zero, (v_hat, h_hat)), y, order, uy_only=True)
    return GridFn(0.0, v_hat.dt, w[..., _UY, :])


# ---------------------------------------------------------------------------
# stage 4: exponential-sum peeling
# ---------------------------------------------------------------------------

def _design_tiles(grid: GridFn, depth: int, extra: int = 0, start: int = 0):
    """Yield (s, e, tile) over samples start..n-1: tile, the Fortran-order
    (e - s, depth + extra) view of one reused buffer, holds e^{-k^2 t},
    k = 1..depth, at t = t0 + dt * (s..e-1) (the bits of grid.times[s:e]),
    then extra columns for the caller.  Tiles are whole 64s of samples, at
    most _FIT_TILE_ELEMENTS elements where 64 rows fit, the last one the rest."""
    width = depth + extra
    rows = max(64, _FIT_TILE_ELEMENTS // width // 64 * 64)
    store = np.empty(min(rows, grid.n - start) * width)
    for s in range(start, grid.n, rows):
        e = min(s + rows, grid.n)
        tile = store[: (e - s) * width].reshape((e - s, width), order="F")
        a = np.outer(_time_at(grid, np.arange(s, e)), -np.arange(1, depth + 1) ** 2,
                     out=tile[:, :depth])
        np.exp(a, out=a)
        yield s, e, tile


def _time_at(grid: GridFn, k):
    """grid.times[k] for an index or index array k, without building
    grid.times: t0 + dt * k, its expression, so its bits (-0.0 included)."""
    return grid.t0 + grid.dt * k


def _exp_sums(b: np.ndarray, grid: GridFn, start: int = 0) -> np.ndarray:
    """b[i] @ e^{-k^2 t}, k = 1..depth, for each row of b over samples
    start..n-1 of grid; shape (rows, n - start).  One gemv per row and design
    tile (its transpose a C-order block): whole 64s of samples keep the bits
    of one gemv over the whole decay (with one BLAS thread)."""
    out = np.empty((len(b), grid.n - start))
    for s, e, tile in _design_tiles(grid, b.shape[1], start=start):
        for row, sums in zip(b, out):
            np.matmul(row, tile.T, out=sums[s - start:e - start])
    return out


def _require_ridge(reg: float) -> None:
    if not (_finite(reg) and reg >= 0.0):
        raise DomainError(f"ridge must be >= 0 and finite, got {_text(reg, str)}")


def _require_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise DomainError(f"divisor threshold must be >= 0 and < 1, got {_text(threshold, str)}")


def _require_depth(depth: int, q: GridFn | None = None) -> None:
    """The peeling depth's rule: an integer >= 1, and no more than the samples
    of a given record q, which cannot support more modes (DataError)."""
    _require_int("peeling depth", depth, least=1)
    if q is not None and q.n < depth:
        raise DataError(f"grid of {q.n} samples cannot support depth {depth}")


def _require_cap(cap: float) -> None:
    """The amplification cap's rule: cap > 0, inf (never warn) included, and
    no integer past float range."""
    if not cap > 0.0:
        raise DomainError(f"amplification cap must be > 0, got {_text(cap, str)}")
    if not (_finite(cap) or cap == math.inf):
        raise DomainError(f"amplification cap must fit a float, got {_text(cap, str)}")


def _require_schedule(method: str = "model", windows=()) -> None:
    """The rule of the schedule knobs method and window, raising ScheduleError:
    method is one of SCHEDULE_METHODS and each window that is not None (the
    default) an odd whole number from 1 to _require_int's bound, 3.0 included."""
    if method not in SCHEDULE_METHODS:
        raise ScheduleError(f"unknown scheduling method '{method}'")
    for w in windows:
        if w is None:
            continue
        # w % 2 == 1 holds for odd whole numbers only; inf goes first, as inf % 2 warns
        if not (isinstance(w, numbers.Real) and 1 <= w < math.inf and w % 2 == 1):
            raise ScheduleError(f"peeling window must be odd and >= 1, got {_text(w)}")
        _require_int("peeling window", int(w), ScheduleError)


def _require_plan_depth(plan: PeelPlan | None, depth: int) -> None:
    if plan is not None and plan.depth != depth:
        raise ScheduleError(f"schedule of {plan.depth} times does not match depth {depth}")


class LsqFit(tuple):
    """peel_lsq's pair (b, cond), carrying the R factor of [design | q] for
    callers that read it again; the fit's depth is r.shape[1] - 1."""

    r: np.ndarray


def peel_lsq(q: GridFn, depth: int, reg: float = 0.0) -> LsqFit:
    """Fit q(t) ~ sum_m b_m e^{-m^2 t} by (ridge-regularised) least squares.

    Returns the coefficient vector and the condition number of the plain
    design matrix as an LsqFit.  reg must be >= 0, and with reg = 0 a
    rank-deficient design raises DataError.  [design | q] is factored one
    row tile at a time and the tiles' R factors once more (a tall-skinny
    QR), so no buffer grows with the record; the QR of one triangular R is
    that R, so a record of one tile is one QR of the whole [design | q].
    """
    _require_depth(depth, q)
    _require_ridge(reg)
    if q.values.ndim != 1:
        raise DataError(f"peel_lsq fits one record, got a stack of {len(q.values)} rows")
    # R of [A | q] has A's singular values, and R b = Q^T q
    rs = []
    for s, e, tile in _design_tiles(q, depth, extra=1):
        tile[:, depth] = q.values[s:e]
        rs.append(np.linalg.qr(tile, mode="r"))
    r = np.linalg.qr(np.vstack(rs), mode="r")
    a, rhs = r[:depth, :depth], r[:depth, depth]
    cond = float(np.linalg.cond(a))
    if reg > 0.0:
        a = np.vstack([a, math.sqrt(reg) * np.eye(depth)])
        rhs = np.concatenate([rhs, np.zeros(depth)])
    # drop singular values below the cut lstsq(rcond=None) makes on the n x depth design
    sol, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=np.finfo(float).eps * max(q.n, depth))
    if reg == 0.0 and rank < depth:
        raise DataError(
            f"exponential design is rank deficient (rank {rank} < depth {depth}, "
            f"condition number {cond:.3e}); use a ridge parameter"
        )
    fit = LsqFit((sol, cond))
    fit.r = r
    return fit


@dataclass(frozen=True)
class PeelPlan:
    """Evaluation schedule for sequential peeling.

    times[m-1] is the evaluation time of mode m, windows[m-1] the odd number
    of neighbouring samples over which the instantaneous estimate is
    averaged (1 = single-point evaluation, the default); `predicted` is the
    scheduling model's per-mode error forecast.  `condition`, the condition
    number of the depth-mode exponential design, is an output of plan_peel's
    provisional fit, not a constructor argument; it is None otherwise.
    """

    times: np.ndarray
    windows: np.ndarray | None = None
    predicted: np.ndarray | None = None
    condition: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        try:
            t = np.atleast_1d(np.asarray(self.times, dtype=float))
        except OverflowError:  # an integer past float range
            raise ScheduleError(
                f"schedule times must be finite, got {_text(self.times, str)}") from None
        if not np.all(np.isfinite(t)):
            raise ScheduleError(f"schedule times must be finite, got {t.tolist()}")
        w = np.ones(t.size, dtype=int) if self.windows is None else self.windows
        w = np.atleast_1d(np.asarray(w))
        if t.size != w.size:
            raise ScheduleError("times and windows must have equal length")
        _require_schedule(windows=w.tolist())
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "windows", w.astype(int))

    @property
    def depth(self) -> int:
        return self.times.size


def _provisional_fit(q: GridFn, depth: int) -> LsqFit:
    """The ridge fit of depth + 1 modes (fewer on a record of at most depth + 1
    samples) behind the 'model' and 'balance' schedules."""
    return peel_lsq(q, min(depth + 1, max(1, q.n - 1)), reg=PROVISIONAL_RIDGE)


def _noise_floor(q: GridFn, depth: int, fit: LsqFit) -> tuple[np.ndarray, float]:
    """|b| estimates of depth + 1 modes and an absolute noise scale from the
    residual of the provisional fit over the last quarter of the record."""
    b_prov, _ = fit
    k = int(0.75 * q.n)
    tail = q.values[k:] - _exp_sums(b_prov[None], q, k)[0]
    # the root mean square, rescaled where the mean square overflows or underflows
    with np.errstate(over="ignore"):
        sigma = _norm(tail, lambda x: float(np.mean(x ** 2)))
    b_abs = np.zeros(depth + 1)
    b_abs[: b_prov.size] = np.abs(b_prov)
    return b_abs, sigma


def plan_peel(
    q: GridFn,
    depth: int,
    method: str = "model",
    window: int | None = None,
) -> PeelPlan:
    """Choose evaluation times balancing truncation decay against noise blow-up.

    method 'model' (default) minimises, greedily in m, the forecast

        err_m(t) = sum_{k>m} |b_k| e^{-(k^2-m^2) t}            truncation
                 + (sigma + 4 eps env(t)) e^{m^2 t} / sqrt(w)   amplified noise
                 + sum_{k<m} err_k e^{(m^2-k^2) t}              inherited error

    with |b_k| and the noise scale sigma from a provisional ridge fit and
    env(t) = sum_k |b_k| e^{-k^2 t} the fitted envelope of |q|.  err_m is a
    sum of exponentials in t with weights >= 0, so convex: it is evaluated
    at every _SEARCH_STEP-th sample, then at the 2 _SEARCH_STEP - 1 samples
    around the first of those minima, which keeps np.argmin's index and
    minimum over the whole grid bit for bit.  env(t) and t are formed there
    alone, env(t) summed over k in turn at each sample, so with the bits of
    the same sum over the whole record (whatever the BLAS), t with those of
    q.times.
    method 'balance' applies the plain two-term rule
    t_m = log(|b_{m+1}| / sigma) / (m^2 + (m+1)^2); both plans carry the
    condition number of the depth-mode design from the fit's R.  method
    'ladder' needs no data at all: t_m = (T/2) / m, so mode 1 is read at
    the midpoint of the record and the noise multipliers e^{m^2 t_m} =
    e^{m T/2} grow strictly with m; it is the no-knowledge default and the
    schedule used by ill-posedness exhibits.  (Evaluating every mode at the
    same time would telescope the bracket to zero, so the naive single-time
    choice must be staggered like this.)

    depth may not exceed the samples of q (DataError).  A given window must
    be an odd whole number from 1 to 2^63 - 1.  Windows default to about a
    quarter of the local decay time of mode m, 1/(4 m^2 dt) samples in
    total, made odd, which averages rounding noise without inflating the
    truncation bias.
    """
    _require_depth(depth, q)
    _require_schedule(method, [window])
    n = q.n
    dt = q.dt
    t_first, t_last = _time_at(q, 0), q.t_end

    def window_for(m: int) -> int:
        if window is not None:
            return int(window)
        w = min(int(round(0.25 / (m * m * dt))), max(1, n // 8))
        return max(1, w) | 1

    windows = np.array([window_for(m) for m in range(1, depth + 1)])

    if method == "ladder":
        half = t_first + 0.5 * (t_last - t_first)
        times = half / np.arange(1, depth + 1)
        times = np.clip(times, t_first, t_last)
        return PeelPlan(times=times, windows=windows)

    fit = _provisional_fit(q, depth)
    b_abs, sigma_est = _noise_floor(q, depth, fit)
    sigma_abs = max(sigma_est, 1e-300)
    # the leading block of R is the depth-mode design's own R
    condition = float(np.linalg.cond(fit.r[:depth, :depth])) if fit.r.shape[1] > depth else None

    def fitted_plan(times: np.ndarray, predicted: np.ndarray | None = None) -> PeelPlan:
        plan = PeelPlan(times=times, windows=windows, predicted=predicted)
        object.__setattr__(plan, "condition", condition)
        return plan

    if method == "balance":
        times = np.empty(depth)
        for m in range(1, depth + 1):
            b_next = b_abs[m]
            if b_next <= sigma_abs:
                times[m - 1] = t_first
            else:
                tm = math.log(b_next / sigma_abs) / (m * m + (m + 1) ** 2)
                times[m - 1] = min(max(tm, t_first), t_last)
        return fitted_plan(times)

    # propagation-aware greedy minimisation over the grid
    times = np.empty(depth)
    errs = np.empty(depth)

    # the sums run over the fit's own modes: a padded |b_k| = 0 times an
    # exponential that overflows would make them nan
    fitted = fit[0].size

    def envelope(idx: np.ndarray) -> np.ndarray:
        """sigma + 4 eps env(t) at the samples idx alone, summed over k in turn."""
        # one sample's terms np.sum adds pairwise from 8 on; the one such gather,
        # the coarse search of n <= 64 samples, has that sample for its argmin
        decay = np.exp(np.outer(-np.arange(1, fitted + 1) ** 2, _time_at(q, idx)))
        return sigma_abs + 4.0 * _EPS * (b_abs[:fitted, None] * decay).sum(axis=0)

    def forecast(m: int, idx: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """err_m at the samples idx, given envelope(idx)."""
        m2, ts = m * m, _time_at(q, idx)
        # late times overflow to +inf, which is never the argmin
        with np.errstate(over="ignore"):
            model = noise * np.exp(m2 * ts) / math.sqrt(windows[m - 1])
            terms = [(k, b_abs[k - 1]) for k in range(m + 1, fitted + 1)]  # truncation
            for k, scale in terms + [(k, errs[k - 1]) for k in range(1, m)]:  # + inherited
                model += np.exp((m2 - k * k) * ts) * scale
        return model

    coarse = np.arange(0, n, _SEARCH_STEP)
    coarse_noise = envelope(coarse)  # read by every mode
    for m in range(1, depth + 1):
        # err_m, a sum of exponentials in t with weights >= 0, is convex: samples
        # _SEARCH_STEP or more away from c, the first argmin of every
        # _SEARCH_STEP-th sample, are no lower than c and lie after c where
        # equal to it, so the first argmin of the samples between is np.argmin's
        c = int(coarse[np.argmin(forecast(m, coarse, coarse_noise))])
        near = np.arange(max(0, c - _SEARCH_STEP + 1), min(n, c + _SEARCH_STEP))
        model = forecast(m, near, envelope(near))
        i = int(np.argmin(model))
        times[m - 1] = _time_at(q, near[i])
        errs[m - 1] = model[i]
    return fitted_plan(times, errs)


@dataclass(frozen=True)
class PeelResult:
    b_hat: np.ndarray
    plan: PeelPlan
    amplification: np.ndarray  # e^{m^2 t_m} noise multipliers
    warnings: list[str] = field(default_factory=list)


def peel_sequential(
    q: GridFn,
    depth: int,
    plan: PeelPlan | None = None,
    amplification_cap: float = AMPLIFICATION_CAP,
) -> PeelResult:
    """Sequential extraction of b_m from q(t) = sum_m b_m e^{-m^2 t}.

    b_hat_m = e^{m^2 t_m} [ q(t_m) - sum_{k<m} b_hat_k e^{-k^2 t_m} ],
    the instantaneous estimate averaged over the plan's window around t_m.
    A stacked q peels every row on the one plan; b_hat then has shape
    (rows, depth).  Without a plan, plan_peel picks the default schedule,
    which fits one record: a stack needs a given plan or the 'ladder'.
    Amplification factors above the cap, and a plan forecast that is not
    finite, are recorded as warnings, not failures.
    """
    _require_depth(depth, q)
    _require_cap(amplification_cap)
    plan = plan or plan_peel(q, depth)
    _require_plan_depth(plan, depth)
    if np.any(plan.times > q.t_end + 1e-12) or np.any(plan.times < q.t0 - 1e-12):
        raise ScheduleError("scheduled times fall outside the data grid")

    warnings: list[str] = []
    b_hat = np.zeros((*q.values.shape[:-1], depth))
    amp = np.empty(depth)
    for m in range(1, depth + 1):
        i = q.index_of(plan.times[m - 1])
        half = (int(plan.windows[m - 1]) - 1) // 2
        lo, hi = max(0, i - half), min(q.n, i + half + 1)
        m2, t_hi = m * m, _time_at(q, hi - 1)
        if m2 * t_hi > _LOG_MAX:
            raise ScheduleError(
                f"mode {m} at t = {t_hi:.6g}: the multiplier e^(m^2 t) overflows"
            )
        ts = _time_at(q, np.arange(lo, hi))
        bracket = q.values[..., lo:hi].copy()
        for k in range(1, m):
            bracket -= b_hat[..., k - 1:k] * np.exp(-(k * k) * ts)
        b_hat[..., m - 1] = np.mean(np.exp(m2 * ts) * bracket, axis=-1)
        amp[m - 1] = math.exp(m2 * _time_at(q, i))
        if amp[m - 1] > amplification_cap:
            warnings.append(
                f"mode {m}: amplification {amp[m - 1]:.3e} exceeds cap {amplification_cap:.1e}"
            )
        if plan.predicted is not None and not np.isfinite(plan.predicted[m - 1]):
            warnings.append(f"mode {m}: schedule forecast {plan.predicted[m - 1]} is not finite")
    return PeelResult(b_hat=b_hat, plan=plan, amplification=amp, warnings=warnings)


# ---------------------------------------------------------------------------
# stage 5: assembly of g
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssembledG:
    """Sine coefficients of g with per-mode division diagnostics.

    Modes whose divisor |f_m(y)| falls below the threshold are rejected:
    their coefficient is zeroed and the index recorded.  coeffs holds one row
    per row of a stacked b_hat.
    """

    coeffs: np.ndarray
    divisors: np.ndarray
    rejected: tuple[int, ...]


def assemble_g(
    b_hat: np.ndarray, y: float, threshold: float = DEFAULT_POINT_THRESHOLD
) -> AssembledG:
    """g_m = b_m / f_m(y) along the last axis, rejecting modes with a
    near-vanishing divisor; non-finite coefficients raise DataError, and a
    threshold outside [0, 1) DomainError."""
    _require_threshold(threshold)
    b_hat = np.atleast_1d(np.asarray(b_hat, dtype=float))
    divisors = basis_at(y, b_hat.shape[-1])
    keep = ~_near_zero(divisors, threshold)
    coeffs = np.zeros_like(b_hat)
    coeffs[..., keep] = b_hat[..., keep] / divisors[keep]
    if not np.all(np.isfinite(coeffs)):
        raise DataError("coefficient vector contains non-finite entries")
    rejected = tuple(int(j) + 1 for j in np.flatnonzero(~keep))
    return AssembledG(coeffs=coeffs, divisors=divisors, rejected=rejected)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionConfig:
    """Knobs of the reconstruction pipeline."""

    order: int = DEFAULT_MODES       # modes rebuilding w(y, t) for a record of unknown truncation
    depth: int = 4                   # peeling depth
    deriv: DerivativeScheme = field(default_factory=DerivativeScheme)
    burn_in: int = DEFAULT_BURN_IN   # samples dropped at the head of v_hat, h_hat
    peel_method: str = "sequential"  # or "lsq"
    ridge: float = 0.0               # ridge parameter of peel_lsq
    schedule: PeelPlan | None = None
    schedule_method: str = "model"
    window: int | None = None
    divisor_threshold: float = DEFAULT_POINT_THRESHOLD
    amplification_cap: float = AMPLIFICATION_CAP

    def __post_init__(self):
        if self.peel_method not in ("sequential", "lsq"):
            raise DomainError(f"unknown peeling method '{self.peel_method}'")
        _require_schedule(self.schedule_method, [self.window])
        _require_observed_modes(self.order)
        _require_depth(self.depth)
        _require_burn_in(self.burn_in)
        _require_ridge(self.ridge)
        _require_plan_depth(self.schedule, self.depth)
        if self.schedule is not None and self.window is not None:
            raise ScheduleError("a given schedule carries its own windows: window must be None")
        _require_cap(self.amplification_cap)
        _require_threshold(self.divisor_threshold)


@dataclass(frozen=True)
class Diagnostics:
    """Per-stage numbers accumulated by invert()."""

    determinant: float
    deriv_scheme: str
    burn_in: int
    peel_method: str
    peel_condition: float
    amplification: np.ndarray
    predicted_mode_error: np.ndarray | None
    divisors: np.ndarray
    rejected_modes: tuple[int, ...]
    residual_u1: float
    residual_u3: float
    residual_uy: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class Reconstruction:
    """Recovered triple with diagnostics.

    g_coeffs holds the sine-basis coefficients g_m = b_m / f_m(y); b_hat the
    raw peeled products g_m f_m(y).
    """

    v_hat: GridFn
    h_hat: GridFn
    g_coeffs: SineSeries
    b_hat: np.ndarray
    g1: float
    g3: float
    diagnostics: Diagnostics


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # surface the failing stage; exc is the __cause__
        raise InversionError(name, str(exc)) from exc


def invert(obs: Observations, cfg: InversionConfig | None = None) -> Reconstruction:
    """Run the full constructive reconstruction on one observation set."""
    return invert_stack([obs], cfg)[0]


def invert_stack(
    records: list[Observations], cfg: InversionConfig | None = None
) -> list[Reconstruction]:
    """Reconstruct every record of a list that shares one grid, point y and
    truncation in one pass: each stage runs once along the last axis of the
    stacked rows, and row i's result carries the bits of its own lone
    inversion.  The 'model' and 'balance' schedules and the lsq peel stay
    per row.  peel_condition depends on the grid, depth and path alone: it
    comes from the first row's plan (its depth + 1 fit) or lsq fit, or, for
    the ladder and a given plan, one more peel_lsq on the first row.  w(y, t) is rebuilt from the
    modes of the records' truncation, or from cfg.order when they do not
    state one.  Records that differ in y or order raise InversionError
    (stage 'stack'); a failing stage fails the whole stack.  The solve
    stages (_solve_stacked) run first, then the self-consistency check and
    the Reconstructions (_report_stacked).  Each Reconstruction's v_hat and
    h_hat are views into the stack's."""
    for r in records[1:]:
        if (r.y, r.order) != (records[0].y, records[0].order):
            raise InversionError(
                "stack", f"records differ in y or order: (y={records[0].y}, "
                f"order={records[0].order}) vs (y={r.y}, order={r.order})")
    obs = Observations(
        *[GridFn.stack([getattr(r, name) for r in records]) for name in ("u1", "u3", "uy")],
        y=records[0].y, order=records[0].order,
    )
    cfg = cfg or InversionConfig()
    return _report_stacked(obs, cfg, _solve_stacked(obs, cfg))


class _Solved(NamedTuple):
    """What the solve stages give for a stacked record: one row per record,
    except the peel condition, which every row shares."""

    g1: np.ndarray
    g3: np.ndarray
    v_hat: GridFn
    h_hat: GridFn
    forced: np.ndarray                   # [u_1; u_3; w], (rows, 3, n); [w] alone if w_only
    b_hat: np.ndarray
    assembled: AssembledG
    cond: float
    peels: list                          # per row: (amplification, predicted, warnings)


def _solve_stacked(
    obs: Observations, cfg: InversionConfig, cond: float | None = None, w_only: bool = False
) -> _Solved:
    """The stages extract_g13 through assemble_g on a record whose series are
    (rows, n) stacks.  A given cond, the peel condition of an earlier solve
    on the same grid and depth, stands in for this solve's own, so the
    ladder and a given plan skip their extra peel_lsq.  w_only evolves the
    forced row w alone, which is all a solve reads: the u_1 and u_3 rows
    serve only _report_stacked's residuals."""
    g1, g3 = _stage("extract_g13", extract_g13, obs)
    v_hat, h_hat = _stage("recover_vh", recover_vh, obs, g1, g3, cfg.deriv, cfg.burn_in)

    order = cfg.order if obs.order is None else obs.order
    forced = _stage("compute_w", lambda: _observe(
        np.zeros(order), *map(_extend_to_zero, (v_hat, h_hat)), obs.y, order, uy_only=True)
    ) if w_only else _stage("compute_w", forced_mode_values, v_hat, h_hat, obs.y, order)

    q = _stage("form_q", lambda: obs.uy - GridFn(0.0, v_hat.dt, forced[..., _UY, :]))

    if cfg.peel_method == "lsq":
        fits = [_stage("peel", peel_lsq, qr, cfg.depth, cfg.ridge) for qr in q.rows()]
        b_hat = np.array([b for b, _ in fits])
        cond = fits[0][1] if cond is None else cond
        peels = [(np.ones(cfg.depth), None, []) for _ in fits]
    else:
        # only the ladder and a given plan ignore the data: one plan peels the stack
        shared = cfg.schedule is not None or cfg.schedule_method == "ladder"
        results = []
        for qt in [q] if shared else q.rows():
            plan = cfg.schedule or _stage(
                "peel_schedule", plan_peel, qt, cfg.depth,
                method=cfg.schedule_method, window=cfg.window,
            )
            results.append(_stage(
                "peel", peel_sequential, qt, cfg.depth, plan=plan,
                amplification_cap=cfg.amplification_cap,
            ))
        b_hat = np.vstack([r.b_hat for r in results])
        # unless an earlier solve gave cond, the ladder, a given plan (a
        # plan_peel output may come from another grid) and a record too short
        # for the plan's fit need one more fit
        if cond is None and cfg.schedule is None:
            cond = results[0].plan.condition
        if cond is None:
            _, cond = _stage("peel_condition", peel_lsq, q.rows()[0], cfg.depth, PROVISIONAL_RIDGE)
        peels = [(r.amplification, r.plan.predicted, r.warnings) for r in results]
        peels *= len(b_hat) // len(peels)  # a shared plan's numbers hold for every row

    assembled = _stage("assemble_g", assemble_g, b_hat, obs.y, cfg.divisor_threshold)
    return _Solved(g1, g3, v_hat, h_hat, forced, b_hat, assembled, cond, peels)


def _report_stacked(obs: Observations, cfg: InversionConfig, s: _Solved) -> list[Reconstruction]:
    """The Reconstructions of a solved stack, each with its self-consistency
    residuals: every reconstruction pushed back through the forward map."""
    # approx - exact of u_1, u_3 and u(y, t), one row per record, in place;
    # e^{-t} and e^{-9t} are columns 1 and 3 of the peeled sums' design tiles
    diffs = np.empty((3, *obs.u1.values.shape))
    for lo, hi, tile in _design_tiles(obs.u1, max(cfg.depth, 3)):
        np.multiply.outer(s.g1, tile[:, 0], out=diffs[0, :, lo:hi])
        np.multiply.outer(s.g3, tile[:, 2], out=diffs[1, :, lo:hi])
        for row, sums in zip(s.b_hat, diffs[2]):
            np.matmul(row, tile[:, :cfg.depth].T, out=sums[lo:hi])  # _exp_sums' gemv
    for j, (diff, exact) in enumerate(zip(diffs, (obs.u1, obs.u3, obs.uy))):
        diff += s.forced[:, j]
        diff -= exact.values
    det = system_determinant()
    out = []
    rows = zip(s.peels, s.v_hat.rows(), s.h_hat.rows())
    for i, ((amp, predicted, peel_warnings), v_row, h_row) in enumerate(rows):
        diagnostics = Diagnostics(
            determinant=det,
            deriv_scheme=cfg.deriv.name,
            burn_in=cfg.burn_in,
            peel_method=cfg.peel_method,
            peel_condition=s.cond,
            amplification=amp,
            predicted_mode_error=predicted,
            divisors=s.assembled.divisors,
            rejected_modes=s.assembled.rejected,
            residual_u1=_rel_l2_to(diffs[0, i], _norm(obs.u1.values[i])),
            residual_u3=_rel_l2_to(diffs[1, i], _norm(obs.u3.values[i])),
            residual_uy=_rel_l2_to(diffs[2, i], _norm(obs.uy.values[i])),
            warnings=tuple(peel_warnings),
        )
        out.append(Reconstruction(
            v_hat=v_row,
            h_hat=h_row,
            g_coeffs=SineSeries(s.assembled.coeffs[i]),
            b_hat=s.b_hat[i],
            g1=float(s.g1[i]),
            g3=float(s.g3[i]),
            diagnostics=diagnostics,
        ))
    return out
