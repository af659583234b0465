"""Constructive recovery of (h, v, g) from the observation triple.

Pipeline: read g_1, g_3 off the initial samples; differentiate the
exponentially weighted boundary-mode data and solve a 2x2 linear system for
v(t) and h(t) at every grid point; rebuild the forced response w(y, t);
peel the coefficients b_m = g_m f_m(y) out of the exponential sum
q(y, t) = u(y, t) - w(y, t); divide by f_m(y) to obtain the sine
coefficients of g.

Every stage records diagnostics; the final reconstruction is checked for
self-consistency against the observations it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    BASIS_NORM,
    DEFAULT_MODES,
    DEFAULT_POINT_THRESHOLD,
    SineSeries,
    eval_basis,
    mode_constants,
)
from .errors import (
    DataError,
    DomainError,
    InversionError,
    PreconditionError,
    ScheduleError,
)
from .forward import Observations, mode_evolve
from .grid import GridFn, rel_l2

#: exact determinant of the (f_1'(0), c_1; f_3'(0), c_3) system
DET_EXACT = -32.0 / (3.0 * math.pi)

#: amplification e^{m^2 t_m} above which a peeled mode is flagged
AMPLIFICATION_CAP = 1e12

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# stage 1: initial values of the observed modes
# ---------------------------------------------------------------------------

def extract_g13(obs: Observations) -> tuple[float, float]:
    """g_1 = u_1(0), g_3 = u_3(0); the grid must start at t = 0."""
    if abs(obs.u1.t0) > 1e-12:
        raise PreconditionError(f"observation grid must start at t = 0, got t0 = {obs.u1.t0}")
    return float(obs.u1.values[0]), float(obs.u3.values[0])


# ---------------------------------------------------------------------------
# stage 2: boundary input and source from the 2x2 mode system
# ---------------------------------------------------------------------------

def _derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order derivative: central stencils inside, one-sided at the ends."""
    if values.size < 3:
        raise DataError("derivative stencil needs at least 3 samples")
    return np.gradient(values, dt, edge_order=2)


@dataclass(frozen=True)
class DerivativeScheme:
    """Differentiation applied to the weighted data F_1, F_3.

    smooth_window > 0 switches on Savitzky-Golay pre-smoothing (a moving
    local polynomial fit) before the finite-difference stencil; useful for
    noisy data, off by default.
    """

    smooth_window: int = 0
    smooth_polyorder: int = 3

    def apply(self, values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        if self.smooth_window:
            w = int(self.smooth_window)
            if w % 2 == 0 or w <= self.smooth_polyorder:
                raise DataError(
                    f"smoothing window must be odd and exceed the polynomial order, got {w}"
                )
            if values.size < w:
                raise DataError("series shorter than the smoothing window")
            from scipy.signal import savgol_filter  # only smoothing needs scipy

            values = savgol_filter(values, w, self.smooth_polyorder)
        return values, _derivative(values, dt)

    @property
    def name(self) -> str:
        if self.smooth_window:
            return f"savgol({self.smooth_window},{self.smooth_polyorder})+central"
        return "central"


def system_determinant() -> float:
    """Determinant of the (f_1'(0), c_1; f_3'(0), c_3) matrix; equals -32/(3 pi)."""
    m1, m3 = mode_constants(1), mode_constants(3)
    return m1.fprime0 * m3.c_m - m3.fprime0 * m1.c_m


def recover_vh(
    obs: Observations,
    g1: float,
    g3: float,
    deriv: DerivativeScheme | None = None,
    burn_in: int = 2,
) -> tuple[GridFn, GridFn, dict]:
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
    deriv = deriv or DerivativeScheme()
    n = obs.u1.n
    if n < burn_in + 3:
        raise DataError(
            f"series of {n} samples too short for differentiation with burn-in {burn_in}"
        )
    t = obs.u1.times
    dt = obs.u1.dt

    f1 = obs.u1.values - g1 * np.exp(-t)
    f3 = obs.u3.values - g3 * np.exp(-9.0 * t)
    f1s, d1 = deriv.apply(f1, dt)
    f3s, d3 = deriv.apply(f3, dt)
    r1 = d1 + f1s
    r3 = d3 + 9.0 * f3s

    m1, m3 = mode_constants(1), mode_constants(3)
    det = system_determinant()
    if abs(det - DET_EXACT) > 1e-12:
        raise InversionError(
            "recover_vh", f"system determinant {det!r} deviates from -32/(3 pi)",
            {"determinant": det},
        )
    v = (m3.c_m * r1 - m1.c_m * r3) / det
    h = (m1.fprime0 * r3 - m3.fprime0 * r1) / det

    v_hat = GridFn(obs.u1.t0, dt, v).trim_head(burn_in)
    h_hat = GridFn(obs.u1.t0, dt, h).trim_head(burn_in)
    info = {"determinant": det, "scheme": deriv.name, "burn_in": burn_in}
    return v_hat, h_hat, info


# ---------------------------------------------------------------------------
# stage 3: forced response at the observation point
# ---------------------------------------------------------------------------

def _extend_to_zero(f: GridFn) -> GridFn:
    """Extend a grid function back to t = 0 by linear extrapolation.

    recover_vh trims a short burn-in at the head; the Duhamel integrals need
    the forcing from t = 0, and the extrapolation error over the trimmed
    span is O((burn_in * dt)^2) for smooth inputs.
    """
    k = int(round(f.t0 / f.dt))
    if k == 0:
        return f
    slope = (f.values[1] - f.values[0]) / f.dt if f.n > 1 else 0.0
    head = f.values[0] + slope * f.dt * (np.arange(k) - k)
    return GridFn(0.0, f.dt, np.concatenate([head, f.values]))


def forced_mode_values(v: GridFn, h: GridFn, order: int) -> np.ndarray:
    """Zero-initial-data Duhamel response of modes 1..order; shape (order, n)."""
    return mode_evolve(np.zeros(order), v, h)


def _forced_response(
    v_hat: GridFn, h_hat: GridFn, y: float, order: int
) -> tuple[GridFn, np.ndarray]:
    """w(y, t) and the forced modes 1..order it sums, both from t = 0."""
    if not 0.0 < y < math.pi:
        raise DomainError(f"observation point must lie in (0, pi), got {y}")
    v_hat.require_same_grid(h_hat)
    v0 = _extend_to_zero(v_hat)
    h0 = _extend_to_zero(h_hat)
    modes = forced_mode_values(v0, h0, order)
    fy = np.array([eval_basis(m, y) for m in range(1, order + 1)])
    return GridFn(v0.t0, v0.dt, fy @ modes), modes


def compute_w(v_hat: GridFn, h_hat: GridFn, y: float, order: int) -> GridFn:
    """w(y, t) = sum_{m<=order} f_m(y) * (forced response of mode m).

    Inputs that start after t = 0 (burn-in trim) are extended back by linear
    extrapolation before integrating.
    """
    return _forced_response(v_hat, h_hat, y, order)[0]


# ---------------------------------------------------------------------------
# stage 4: exponential-sum peeling
# ---------------------------------------------------------------------------

def _design_matrix(t: np.ndarray, depth: int) -> np.ndarray:
    return np.exp(-np.outer(t, np.arange(1, depth + 1) ** 2))


def peel_lsq(q: GridFn, depth: int, reg: float = 0.0) -> tuple[np.ndarray, float]:
    """Fit q(t) ~ sum_m b_m e^{-m^2 t} by (ridge-regularised) least squares.

    Returns the coefficient vector and the condition number of the plain
    design matrix.  With reg = 0 a rank-deficient design raises DataError.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if q.n < depth:
        raise DataError(f"grid of {q.n} samples cannot support depth {depth}")
    a = _design_matrix(q.times, depth)
    cond = float(np.linalg.cond(a))
    if reg > 0.0:
        a_aug = np.vstack([a, math.sqrt(reg) * np.eye(depth)])
        rhs = np.concatenate([q.values, np.zeros(depth)])
    else:
        a_aug, rhs = a, q.values
    sol, _, rank, _ = np.linalg.lstsq(a_aug, rhs, rcond=None)
    if reg == 0.0 and rank < depth:
        raise DataError(
            f"exponential design is rank deficient (rank {rank} < depth {depth}, "
            f"condition number {cond:.3e}); use a ridge parameter"
        )
    return sol, cond


@dataclass(frozen=True)
class PeelPlan:
    """Evaluation schedule for sequential peeling.

    times[m-1] is the evaluation time of mode m, windows[m-1] the odd number
    of neighbouring samples over which the instantaneous estimate is
    averaged (1 = single-point evaluation).  `sigma` is the absolute noise
    scale assumed by the scheduling model and `predicted` its per-mode error
    forecast.
    """

    times: np.ndarray
    windows: np.ndarray
    sigma: float = 0.0
    predicted: np.ndarray | None = None

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        w = np.atleast_1d(np.asarray(self.windows, dtype=int))
        if t.size != w.size:
            raise ScheduleError("times and windows must have equal length")
        if np.any(w < 1) or np.any(w % 2 == 0):
            raise ScheduleError("windows must be odd and >= 1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "windows", w)

    @property
    def depth(self) -> int:
        return self.times.size


def _noise_floor(q: GridFn, depth: int, ridge: float) -> tuple[np.ndarray, float]:
    """Provisional ridge fit of depth+1 modes; returns |b| estimates and an
    absolute noise scale from the late-time residual."""
    fit_depth = min(depth + 1, max(1, q.n - 1))
    b_prov, _ = peel_lsq(q, fit_depth, reg=ridge)
    resid = q.values - _design_matrix(q.times, fit_depth) @ b_prov
    tail = resid[int(0.75 * q.n):]
    sigma = float(np.sqrt(np.mean(tail ** 2))) if tail.size else float(np.abs(resid).max())
    b_abs = np.zeros(depth + 1)
    b_abs[: b_prov.size] = np.abs(b_prov)
    return b_abs, sigma


def plan_peel(
    q: GridFn,
    depth: int,
    sigma: float | None = None,
    method: str = "model",
    window: int | None = None,
    window_frac: float = 0.25,
    ridge: float = 1e-12,
) -> PeelPlan:
    """Choose evaluation times balancing truncation decay against noise blow-up.

    method 'model' (default) minimises, greedily in m, the forecast

        err_m(t) = sum_{k>m} |b_k| e^{-(k^2-m^2) t}            truncation
                 + (sigma + 4 eps env(t)) e^{m^2 t} / sqrt(w)   amplified noise
                 + sum_{k<m} err_k e^{(m^2-k^2) t}              inherited error

    with |b_k| taken from a provisional ridge fit and env(t) the fitted
    envelope of |q|.  method 'balance' applies the plain two-term rule
    t_m = log(|b_{m+1}| / sigma) / (m^2 + (m+1)^2).  method 'ladder' needs
    no data at all: t_m = (T/2) / m, so mode 1 is read at the midpoint of
    the record and the noise multipliers e^{m^2 t_m} = e^{m T/2} grow
    strictly with m; it is the no-knowledge default and the schedule used
    by ill-posedness exhibits.  (Evaluating every mode at the same time
    would telescope the bracket to zero, so the naive single-time choice
    must be staggered like this.)

    Windows default to about a quarter of the local decay time of mode m,
    1/(4 m^2 dt) samples in total, which averages rounding noise without
    inflating the truncation bias.
    """
    if depth < 1:
        raise DomainError(f"peeling depth must be >= 1, got {depth}")
    if method not in ("model", "balance", "ladder"):
        raise ScheduleError(f"unknown scheduling method '{method}'")
    t = q.times
    n = q.n
    dt = q.dt

    def window_for(m: int) -> int:
        if window is not None:
            w = int(window)
        else:
            w = int(round(window_frac / (m * m * dt)))
            w = min(w, max(1, n // 8))
        return max(1, w) | 1

    windows = np.array([window_for(m) for m in range(1, depth + 1)])

    if method == "ladder":
        half = t[0] + 0.5 * (t[-1] - t[0])
        times = half / np.arange(1, depth + 1)
        times = np.clip(times, t[0], t[-1])
        return PeelPlan(times=times, windows=windows, sigma=0.0)

    b_abs, sigma_est = _noise_floor(q, depth, ridge)
    sigma_abs = max(sigma if sigma is not None else 0.0, sigma_est, 1e-300)

    if method == "balance":
        times = np.empty(depth)
        for m in range(1, depth + 1):
            b_next = b_abs[m]
            if b_next <= sigma_abs:
                times[m - 1] = t[0]
            else:
                tm = math.log(b_next / sigma_abs) / (m * m + (m + 1) ** 2)
                times[m - 1] = min(max(tm, t[0]), t[-1])
        return PeelPlan(times=times, windows=windows, sigma=sigma_abs)

    # propagation-aware greedy minimisation over the grid
    k2 = np.arange(1, depth + 2) ** 2
    envelope = b_abs @ np.exp(-np.outer(k2, t))
    noise_t = sigma_abs + 4.0 * _EPS * envelope
    times = np.empty(depth)
    errs = np.empty(depth)
    for m in range(1, depth + 1):
        m2 = m * m
        model = noise_t * np.exp(m2 * t) / math.sqrt(windows[m - 1])
        for k in range(m + 1, depth + 2):
            model = model + b_abs[k - 1] * np.exp(-(k * k - m2) * t)
        for k in range(1, m):
            model = model + errs[k - 1] * np.exp((m2 - k * k) * t)
        i = int(np.argmin(model))
        times[m - 1] = t[i]
        errs[m - 1] = model[i]
    return PeelPlan(times=times, windows=windows, sigma=sigma_abs, predicted=errs)


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
    eval_times=None,
    amplification_cap: float = AMPLIFICATION_CAP,
    **plan_kwargs,
) -> PeelResult:
    """Sequential extraction of b_m from q(t) = sum_m b_m e^{-m^2 t}.

    b_hat_m = e^{m^2 t_m} [ q(t_m) - sum_{k<m} b_hat_k e^{-k^2 t_m} ],
    the instantaneous estimate averaged over the plan's window around t_m.
    Explicit `eval_times` (one per mode, single-point evaluation) override
    the plan; with neither given, plan_peel picks the default schedule.
    Amplification factors above the cap are recorded as warnings, not
    failures.
    """
    if eval_times is not None:
        times = np.atleast_1d(np.asarray(eval_times, dtype=float))
        if times.size != depth:
            raise ScheduleError(f"need {depth} evaluation times, got {times.size}")
        plan = PeelPlan(times=times, windows=np.ones(depth, dtype=int))
    elif plan is None:
        plan = plan_peel(q, depth, **plan_kwargs)
    if plan.depth != depth:
        raise ScheduleError(f"plan depth {plan.depth} does not match requested {depth}")
    if np.any(plan.times > q.t_end + 1e-12) or np.any(plan.times < q.t0 - 1e-12):
        raise ScheduleError("scheduled times fall outside the data grid")

    t = q.times
    warnings: list[str] = []
    b_hat = np.zeros(depth)
    amp = np.empty(depth)
    for m in range(1, depth + 1):
        i = q.index_of(plan.times[m - 1])
        half = (int(plan.windows[m - 1]) - 1) // 2
        lo, hi = max(0, i - half), min(q.n, i + half + 1)
        ts = t[lo:hi]
        bracket = q.values[lo:hi].copy()
        for k in range(1, m):
            bracket -= b_hat[k - 1] * np.exp(-(k * k) * ts)
        m2 = m * m
        b_hat[m - 1] = float(np.mean(np.exp(m2 * ts) * bracket))
        amp[m - 1] = math.exp(m2 * t[i])
        if amp[m - 1] > amplification_cap:
            warnings.append(
                f"mode {m}: amplification {amp[m - 1]:.3e} exceeds cap {amplification_cap:.1e}"
            )
    return PeelResult(b_hat=b_hat, plan=plan, amplification=amp, warnings=warnings)


# ---------------------------------------------------------------------------
# stage 5: assembly of g
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssembledG:
    """Sine coefficients of g with per-mode division diagnostics.

    Modes whose divisor |f_m(y)| falls below the threshold are rejected:
    their coefficient is zeroed and the index recorded.
    """

    series: SineSeries
    divisors: np.ndarray
    rejected: tuple[int, ...]


def assemble_g(
    b_hat: np.ndarray, y: float, threshold: float = DEFAULT_POINT_THRESHOLD
) -> AssembledG:
    """g_m = b_m / f_m(y), rejecting modes with a near-vanishing divisor."""
    if not 0.0 < y < math.pi:
        raise DomainError(f"observation point must lie in (0, pi), got {y}")
    b_hat = np.atleast_1d(np.asarray(b_hat, dtype=float))
    m = np.arange(1, b_hat.size + 1)
    divisors = BASIS_NORM * np.sin(m * y)
    coeffs = np.zeros_like(b_hat)
    rejected = []
    for j in range(b_hat.size):
        if abs(divisors[j]) < threshold * BASIS_NORM:
            rejected.append(j + 1)
        else:
            coeffs[j] = b_hat[j] / divisors[j]
    return AssembledG(
        series=SineSeries(coeffs), divisors=divisors, rejected=tuple(rejected)
    )


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionConfig:
    """Knobs of the reconstruction pipeline."""

    order: int = DEFAULT_MODES       # modes used when rebuilding w(y, t)
    depth: int = 4                   # peeling depth
    deriv: DerivativeScheme = field(default_factory=DerivativeScheme)
    burn_in: int = 2                 # samples dropped at the head of v_hat, h_hat
    peel_method: str = "sequential"  # or "lsq"
    ridge: float = 0.0               # ridge parameter of peel_lsq
    schedule: PeelPlan | None = None
    schedule_method: str = "model"
    window: int | None = None
    noise_sigma: float | None = None
    divisor_threshold: float = DEFAULT_POINT_THRESHOLD
    amplification_cap: float = AMPLIFICATION_CAP

    def __post_init__(self):
        if self.peel_method not in ("sequential", "lsq"):
            raise DomainError(f"unknown peeling method '{self.peel_method}'")
        if self.schedule_method not in ("model", "balance", "ladder"):
            raise DomainError(f"unknown scheduling method '{self.schedule_method}'")
        if self.order < 3:
            raise DomainError("need at least modes 1..3 to rebuild the forced response")
        if self.depth < 1:
            raise DomainError(f"peeling depth must be >= 1, got {self.depth}")


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

    def to_dict(self) -> dict:
        return {
            "determinant": self.determinant,
            "deriv_scheme": self.deriv_scheme,
            "burn_in": self.burn_in,
            "peel_method": self.peel_method,
            "peel_condition": self.peel_condition,
            "amplification": list(map(float, self.amplification)),
            "predicted_mode_error": (
                None
                if self.predicted_mode_error is None
                else list(map(float, self.predicted_mode_error))
            ),
            "divisors": list(map(float, self.divisors)),
            "rejected_modes": list(self.rejected_modes),
            "residual_u1": self.residual_u1,
            "residual_u3": self.residual_u3,
            "residual_uy": self.residual_uy,
            "warnings": list(self.warnings),
        }


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
    except InversionError:
        raise
    except Exception as exc:  # surface the failing stage with its payload
        raise InversionError(name, str(exc), {"exception": type(exc).__name__}) from exc


def invert(obs: Observations, cfg: InversionConfig | None = None) -> Reconstruction:
    """Run the full constructive reconstruction on one observation set."""
    cfg = cfg or InversionConfig()

    g1, g3 = _stage("extract_g13", extract_g13, obs)
    v_hat, h_hat, vh_info = _stage(
        "recover_vh", recover_vh, obs, g1, g3, cfg.deriv, cfg.burn_in
    )

    w, forced = _stage("compute_w", _forced_response, v_hat, h_hat, obs.y, cfg.order)

    q = _stage("form_q", lambda: obs.uy - w)

    warnings: list[str] = []
    if cfg.peel_method == "lsq":
        b_hat, cond = _stage("peel", peel_lsq, q, cfg.depth, cfg.ridge)
        amp = np.ones(cfg.depth)
        predicted = None
    else:
        plan = cfg.schedule
        if plan is None:
            plan = _stage(
                "peel_schedule",
                plan_peel,
                q,
                cfg.depth,
                sigma=cfg.noise_sigma,
                method=cfg.schedule_method,
                window=cfg.window,
            )
        result = _stage(
            "peel", peel_sequential, q, cfg.depth, plan=plan,
            amplification_cap=cfg.amplification_cap,
        )
        b_hat = result.b_hat
        amp = result.amplification
        predicted = result.plan.predicted
        warnings.extend(result.warnings)
        _, cond = _stage("peel_condition", peel_lsq, q, cfg.depth, max(cfg.ridge, 1e-12))

    assembled = _stage("assemble_g", assemble_g, b_hat, obs.y, cfg.divisor_threshold)

    # self-consistency: push the reconstruction back through the forward map
    t = obs.u1.times
    m2 = np.arange(1, cfg.depth + 1) ** 2
    u1_pred = g1 * np.exp(-t) + forced[0]
    u3_pred = g3 * np.exp(-9.0 * t) + forced[2]
    uy_pred = w.values + b_hat @ np.exp(-np.outer(m2, t))

    diagnostics = Diagnostics(
        determinant=vh_info["determinant"],
        deriv_scheme=vh_info["scheme"],
        burn_in=vh_info["burn_in"],
        peel_method=cfg.peel_method,
        peel_condition=cond,
        amplification=amp,
        predicted_mode_error=predicted,
        divisors=assembled.divisors,
        rejected_modes=assembled.rejected,
        residual_u1=rel_l2(u1_pred, obs.u1.values),
        residual_u3=rel_l2(u3_pred, obs.u3.values),
        residual_uy=rel_l2(uy_pred, obs.uy.values),
        warnings=tuple(warnings),
    )
    return Reconstruction(
        v_hat=v_hat,
        h_hat=h_hat,
        g_coeffs=assembled.series,
        b_hat=b_hat,
        g1=g1,
        g3=g3,
        diagnostics=diagnostics,
    )
