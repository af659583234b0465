"""Forward-solver tests: exponential mode integrator, spectral solution,
Crank-Nicolson oracle, observation synthesis."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import heatinv
from heatinv import forward
from heatinv import (
    DataError,
    DomainError,
    GridFn,
    GridMismatchError,
    NoiseSpec,
    ProblemInstance,
    SineSeries,
    make_observations,
    make_problem,
    mode_constants,
    mode_evolve,
    solve_fd,
    solve_spectral,
    spectral_field,
)
SQ = math.sqrt(2.0 / math.pi)


def _zeros(n=101, dt=0.01):
    return GridFn(0.0, dt, np.zeros(n))


def _ones(n=101, dt=0.01):
    return GridFn(0.0, dt, np.ones(n))


def _step(m, v, h):
    """Mode m's forcing series and the weights (a, b_old, b_new) of its exact step."""
    mode = mode_constants(m)
    forcing = mode.fprime0 * v.values + mode.c_m * h.values
    z = -mode.lam * v.dt
    if abs(z) < 1e-5:
        phi1 = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
        phi2 = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    else:
        phi1 = math.expm1(z) / z
        phi2 = (math.expm1(z) - z) / (z * z)
    return forcing, math.exp(z), v.dt * (phi1 - phi2), v.dt * phi2


def _recurrence_modes(g, v, h):
    """Per-step reference for mode_evolve: u_k = a u_{k-1} + b_old f_{k-1} + b_new f_k,
    one sample at a time in plain Python, for 1-D or stacked (rows, n) inputs."""
    out = np.empty((*v.values.shape[:-1], len(g), v.n))
    for m in range(1, len(g) + 1):
        f, a, b_old, b_new = _step(m, v, h)
        u = np.full(v.values.shape[:-1], float(g[m - 1]))
        out[..., m - 1, 0] = u
        for k in range(1, v.n):
            u = a * u + b_old * f[..., k - 1] + b_new * f[..., k]
            out[..., m - 1, k] = u
    return out


def _lfilter_modes(g, v, h):
    """Per-mode reference for mode_evolve: the former scipy.signal.lfilter loop."""
    from scipy.signal import lfilter

    dt, n = v.dt, v.n
    out = np.empty((len(g), n))
    for m in range(1, len(g) + 1):
        forcing, a, b_old, b_new = _step(m, v, h)
        z = -mode_constants(m).lam * dt
        # lfilter starts from a zero state, which differs from the forced
        # response p_0 = 0 by the homogeneous tail b_new f_0 a^k
        decay = np.exp(z * np.arange(n))
        p = lfilter([b_new, b_old], [1.0, -a], forcing) - (b_new * forcing[0]) * decay
        out[m - 1] = g[m - 1] * decay + p
    return out


class TestModeEvolve:
    def test_homogeneous_decay(self):
        u = mode_evolve([1.0], _zeros(), _zeros())[0]
        np.testing.assert_allclose(u, np.exp(-_zeros().times), atol=1e-13)
        assert u[0] == 1.0  # initial value exact

    def test_constant_source_closed_form(self):
        m1 = mode_constants(1)
        u = mode_evolve([0.0], _zeros(), _ones())[0]
        np.testing.assert_allclose(u, m1.c_m * (1.0 - np.exp(-_ones().times)), atol=1e-13)

    def test_constant_source_quad_oracle(self):
        # independent oracle: adaptive quadrature of the Duhamel integral
        m1 = mode_constants(1)
        h = _ones()
        u = mode_evolve([0.0], _zeros(), h)[0]
        for t in (0.25, 0.6, 1.0):
            ref, _ = quad(lambda s: math.exp(-(t - s)) * m1.c_m, 0.0, t)
            assert u[h.index_of(t)] == pytest.approx(ref, abs=1e-12)

    def test_steady_state_preserved_exactly(self):
        # v = 1 with g_2 = sqrt(2/pi)/2 sits at equilibrium of mode 2
        u = mode_evolve([0.0, SQ / 2.0], _ones(), _zeros())[1]
        np.testing.assert_allclose(u, SQ / 2.0, atol=1e-14)

    def test_smooth_forcing_second_order(self):
        # piecewise-linear forcing interpolation converges at order 2
        m1 = mode_constants(1)
        t_final = 1.0
        errs = []
        for dt in (1e-2, 5e-3):
            n = int(round(t_final / dt)) + 1
            h = GridFn.sample(np.cos, 0.0, dt, n)
            u = mode_evolve([0.0], GridFn(0.0, dt, np.zeros(n)), h)[0]
            ref, _ = quad(lambda s: math.exp(-(t_final - s)) * m1.c_m * math.cos(s), 0.0, t_final,
                          epsabs=1e-14)
            errs.append(abs(u[-1] - ref))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            mode_evolve([0.0], _zeros(101), _zeros(100))

    @pytest.mark.parametrize(
        "order, t_final, dt",
        [
            (16, 6.0, 1e-4),   # the long record: 60 001 samples, many blocks
            (64, 6.0, 1e-2),   # M^2 dt ~ 41: the fast modes' powers of a underflow
            (16, 1e-2, 1e-2),  # n = 2
            (16, 2e-2, 1e-2),  # n = 3
        ],
        ids=["long", "one-per-block", "n2", "n3"],
    )
    def test_parity_with_per_mode_lfilter(self, order, t_final, dt):
        p = make_problem("generic", order, t_final, dt)
        g, v, h = p.g_coeffs(), p.v_grid(), p.h_grid()
        u = mode_evolve(g, v, h)
        ref = _lfilter_modes(g, v, h)
        assert u.shape == ref.shape == (order, p.n_samples)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


    # in blocks of forward._BLOCK = 32 samples, n - 1 steps fill (n - 1) // 32
    # whole blocks and a partial one; TestBlockKernel runs other block lengths
    @pytest.mark.parametrize("n", [1, 2, 3, 115, 116, 117])
    def test_matches_per_step_recurrence(self, n):
        order, dt = 16, 1e-3
        rng = np.random.default_rng(n)
        g = rng.standard_normal(order)
        v, h = (GridFn(0.0, dt, rng.standard_normal((3, n))) for _ in range(2))
        u = mode_evolve(g, v, h)
        ref = _recurrence_modes(g, v, h)
        assert u.shape == ref.shape == (3, order, n)
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))
        for row in range(3):  # each row of the stack is its own lone call
            lone = mode_evolve(g, GridFn(0.0, dt, v.values[row]), GridFn(0.0, dt, h.values[row]))
            np.testing.assert_array_equal(u[row], lone)

    def test_stiff_two_sample_blocks(self):
        # M^2 dt = 1024: a = e^{-1024} underflows to 0 in every power of a;
        # an overflow or a NaN would raise a RuntimeWarning here
        rng = np.random.default_rng(0)
        g = rng.standard_normal(32)
        v, h = (GridFn(0.0, 1.0, rng.standard_normal(7)) for _ in range(2))
        u = mode_evolve(g, v, h)
        ref = _recurrence_modes(g, v, h)
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBlockKernel:
    """The block-Toeplitz kernel at several block lengths (a patched forward._BLOCK)."""

    @pytest.fixture(params=[1, 2, 3, forward._BLOCK], ids=["L1", "L2", "L3", "default"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(forward, "_BLOCK", request.param)
        return request.param

    # samples per record, relative to the block length L: n - 1 steps fill
    # no block, a partial one, exactly one, or one and a partial one; 1 001
    # samples are many blocks, so the carries take several doubling steps
    @pytest.mark.parametrize("n_of", [lambda L: 1, lambda L: 2, lambda L: 3,
                                      lambda L: L - 1, lambda L: L, lambda L: L + 1,
                                      lambda L: L + 2, lambda L: 1001],
                             ids=["1", "2", "3", "L-1", "L", "L+1", "L+2", "1001"])
    def test_rows_against_the_per_step_recurrence(self, block, n_of):
        n = max(1, n_of(block))
        rng = np.random.default_rng(13)
        g = rng.standard_normal(16)
        v, h = (GridFn(0.0, 1e-3, rng.standard_normal((3, n))) for _ in range(2))
        modes = mode_evolve(g, v, h)
        ref = _recurrence_modes(g, v, h)
        assert modes.shape == (3, 16, n)
        assert np.max(np.abs(modes - ref)) <= 1e-13 * np.max(np.abs(ref))
        fy = forward.basis_at(1.0, 16)
        weights = forward._observed_rows(1.0, 16)
        rows = mode_evolve(g, v, h, weights)
        assert rows.shape == (3, 3, n)
        for k in range(3):
            assert np.max(np.abs(rows[:, k] - weights[k] @ ref)) <= 1e-13 * np.max(np.abs(ref))
        np.testing.assert_array_equal(rows[:, 0], modes[:, 0])  # u_1: a one-hot row
        np.testing.assert_array_equal(rows[:, 1], modes[:, 2])  # u_3
        # two sums of the same 16 products in any order differ by at most
        # 2 * 16 eps times the sum of their magnitudes
        bound = 2 * 16 * np.finfo(float).eps * (np.abs(fy) @ np.abs(modes))
        assert np.all(np.abs(rows[:, 2] - fy @ modes) <= bound)
        for row in range(3):  # each row of the stack keeps the bits of its own call
            lone_v, lone_h = (GridFn(0.0, 1e-3, f.values[row]) for f in (v, h))
            np.testing.assert_array_equal(rows[row], mode_evolve(g, lone_v, lone_h, weights))
            np.testing.assert_array_equal(modes[row], mode_evolve(g, lone_v, lone_h))

    def test_stiff_modes_raise_no_warning(self, block):
        # M^2 dt = 1024: every power of a = e^{-1024} underflows to 0; an
        # overflow or a NaN would raise a RuntimeWarning here
        rng = np.random.default_rng(0)
        g = rng.standard_normal(32)
        v, h = (GridFn(0.0, 1.0, rng.standard_normal(9)) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = mode_evolve(g, v, h)
            rows = mode_evolve(g, v, h, forward._observed_rows(1.0, 32))
        ref = _recurrence_modes(g, v, h)
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))
        np.testing.assert_array_equal(rows[0], u[0])

    @pytest.mark.parametrize("rows", [4, 40])
    def test_stack_keeps_the_bits_of_each_lone_call(self, block, rows):
        rng = np.random.default_rng(rows)
        g = rng.standard_normal(8)
        v, h = (GridFn(0.0, 2e-3, rng.standard_normal((rows, 2 * block + 3))) for _ in range(2))
        for weights in (None, forward._observed_rows(1.0, 8)):
            stack = mode_evolve(g, v, h, weights)
            for row in range(rows):
                lone_v, lone_h = (GridFn(0.0, 2e-3, f.values[row]) for f in (v, h))
                np.testing.assert_array_equal(stack[row], mode_evolve(g, lone_v, lone_h, weights))

    def test_weights_must_match_the_modes(self):
        v = GridFn(0.0, 1e-3, np.zeros(11))
        with pytest.raises(DomainError, match=r"shape \(K, 16\)"):
            mode_evolve(np.zeros(16), v, v, np.ones((2, 8)))

    @pytest.mark.parametrize("g", [[], np.zeros((2, 2))], ids=["empty", "2-D"])
    def test_initial_values_a_non_empty_vector(self, g):
        v = GridFn(0.0, 1e-3, np.zeros(11))
        with pytest.raises(DomainError, match="^initial mode values must form a non-empty 1-D array$"):
            mode_evolve(g, v, v)


class TestKernelCache:
    """mode_evolve builds its block kernel once per (order, dt, weights, _BLOCK)."""

    def test_cached_arrays_are_read_only(self):
        for arr in forward._block_kernel(8, 2e-3, None, forward._BLOCK):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_each_grid_gets_its_own_entry(self, monkeypatch):
        forward._block_kernel.cache_clear()
        v = GridFn(0.0, 1e-2, np.ones(101))
        coarse = GridFn(0.0, 2e-2, np.ones(101))
        w = forward._observed_rows(1.0, 8)
        calls = [
            lambda: mode_evolve(np.zeros(8), v, v),
            lambda: mode_evolve(np.zeros(8), v, v),  # the same grid: a hit
            lambda: mode_evolve(np.zeros(8), coarse, coarse),  # dt
            lambda: mode_evolve(np.zeros(9), v, v),  # the order
            lambda: mode_evolve(np.zeros(8), v, v, w),  # the weights
            lambda: mode_evolve(np.zeros(8), v, v, forward._observed_rows(2.0, 8)),
            lambda: mode_evolve(np.zeros(8), v, v, w),  # a hit
        ]
        for call in calls:
            call()
        assert forward._block_kernel.cache_info()[:2] == (2, 5)  # (hits, misses)
        monkeypatch.setattr(forward, "_BLOCK", 4)
        calls[0]()
        assert forward._block_kernel.cache_info()[:2] == (2, 6)

    def test_a_noise_study_builds_one_kernel(self):
        from heatinv.regularize import run_noise_study

        forward._block_kernel.cache_clear()
        run_noise_study(make_problem("fourmode", 8, 4.0, 2e-3), 1.0, (0.0, 1e-6, 1e-4), 20)
        info = forward._block_kernel.cache_info()
        # make_observations and 4 chunks: 5 evolutions on one grid
        assert (info.misses, info.hits) == (1, 4)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: nothing imports scipy, and the
    # smoothing and the FD oracle run where scipy cannot be imported at all;
    # the file layer (heatinv.io and what it imports) loads only on request
    file_layer = ("heatinv.io", "heatinv.floattext", "heatinv.cli", "json", "hashlib")
    code = ("import sys, heatinv; print(sorted(m for m in sys.modules"
            f" if m.startswith('scipy') or m in {file_layer!r}))")
    env = {**os.environ, "PYTHONPATH": str(Path(heatinv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import heatinv as h\n"
        "p = h.make_problem('generic', 8, 0.5, 1e-3)\n"
        "cfg = h.InversionConfig(order=8, deriv=h.DerivativeScheme(smooth_window=21))\n"
        "rec = h.invert(h.make_observations(p, 1.0), cfg)\n"
        "x, u = h.solve_fd(p, 64)\n"
        "print(rec.v_hat.n, u.shape)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["499", "(501,", "64)"]


class TestSolveSpectral:
    def test_pure_first_mode(self):
        p = make_problem("decay1", 4, 1.0, 1e-3)
        sol = solve_spectral(p)
        t = sol.times
        np.testing.assert_allclose(sol.values[0], np.exp(-t), atol=1e-13)
        np.testing.assert_allclose(sol.values[1:], 0.0, atol=1e-15)

    def test_steady_state_all_modes_constant(self):
        p = make_problem("steady", 8, 1.0, 1e-3)
        sol = solve_spectral(p)
        target = SQ / np.arange(1, 9)
        # g comes from quadrature projection, so the wiggle is bounded by
        # its O(h^2) error, not by the integrator
        assert np.max(np.abs(sol.values - target[:, None])) < 1e-5
        drift = np.max(np.abs(sol.values - sol.values[:, :1]), axis=1)
        assert np.max(drift) < 2e-5

    def test_uniform_source_closed_form(self):
        p = ProblemInstance(
            h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
            g=SineSeries([0.0]), order=4, t_final=1.0, dt=1e-3,
        )
        sol = solve_spectral(p)
        t = sol.times
        for m in range(1, 5):
            cm = mode_constants(m).c_m
            expect = cm * (1.0 - np.exp(-m * m * t)) / (m * m)
            np.testing.assert_allclose(sol.values[m - 1], expect, atol=1e-13)
        assert np.all(sol.values[1] == 0.0)  # even modes blind to the source
        assert np.all(sol.values[3] == 0.0)

    def test_mode_stack_is_a_grid_function_without_a_copy(self):
        p = make_problem("generic", 8, 0.5, 1e-3)
        sol = solve_spectral(p)
        assert (sol.t0, sol.dt, sol.values.shape) == (0.0, 1e-3, (8, 501))
        # mode_evolve's read-only output, adopted as it is: a view, not a fresh copy
        assert not sol.values.flags.writeable and sol.values.base is not None
        np.testing.assert_array_equal(
            sol.values, mode_evolve(p.g_coeffs(), p.v_grid(), p.h_grid()))

    def test_field_needs_v_on_the_mode_grid(self):
        p = make_problem("generic", 8, 0.5, 1e-3)
        x = np.linspace(0.0, math.pi, 5)
        sol = solve_spectral(p)
        with pytest.raises(GridMismatchError):
            spectral_field(sol, x, v=make_problem("generic", 8, 1.0, 1e-3).v_grid())
        assert spectral_field(sol, x, p.v_grid()).shape == (501, 5)

    def test_field_needs_a_mode_stack(self):
        # one record of 101 samples gave shape (2,), and with v a (101, 2)
        # array broadcast from (101,) against (101, 101)
        row = GridFn(0.0, 1e-2, np.linspace(0.0, 1.0, 101))
        for v in (None, row):
            with pytest.raises(DataError, match=re.escape(
                    "spectral_field needs an (M, n) mode stack, got (101,)")):
                spectral_field(row, [0.5, 1.0], v)

    @pytest.mark.parametrize("x", [[-1.0, 4.0], [0.0, math.pi + 1e-9], -0.5])
    def test_field_only_on_the_rod(self, x):
        # spectral_field(modes, [-1.0, 4.0], v) returned a field outside the rod
        p = make_problem("generic", 8, 0.5, 1e-3)
        sol = solve_spectral(p)
        for v in (None, p.v_grid()):
            with pytest.raises(DomainError, match=r"^position outside \[0, pi\]$"):
                spectral_field(sol, x, v)

    def test_initial_condition_matches_projection(self):
        p = make_problem("generic", 8, 0.5, 1e-3)
        sol = solve_spectral(p)
        np.testing.assert_allclose(sol.values[:, 0], p.g_coeffs(8), atol=1e-15)

    def test_smoothing_bound(self):
        # |u_m(t)| <= |g_m| e^{-m^2 t0} + sup|forcing| (f_m'(0) + c_m) / m^2
        p = make_problem("generic", 8, 2.0, 1e-3)
        sol = solve_spectral(p)
        g = p.g_coeffs(8)
        v, h = p.v_grid().values, p.h_grid().values
        t0 = 0.1
        k0 = sol.index_of(t0)
        for m in range(1, 9):
            mc = mode_constants(m)
            sup_force = np.max(np.abs(v)) * mc.fprime0 + np.max(np.abs(h)) * mc.c_m
            bound = abs(g[m - 1]) * math.exp(-mc.lam * t0) + sup_force / mc.lam
            assert np.max(np.abs(sol.values[m - 1, k0:])) <= bound * (1 + 1e-9)


class TestProblemInstance:
    def test_grid_consistency_required(self):
        with pytest.raises(DataError):
            ProblemInstance(h=lambda t: t, v=lambda t: t, g=SineSeries([1.0]),
                            order=4, t_final=1.0, dt=0.3)

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan])
    def test_time_step_positive(self, dt):
        with pytest.raises(DataError, match=f"^time step must be positive, got {dt}$"):
            ProblemInstance(h=lambda t: t, v=lambda t: t, g=SineSeries([1.0]),
                            order=4, t_final=1.0, dt=dt)

    def test_gridfn_inputs_must_match_grid(self):
        h = GridFn(0.0, 1e-2, np.zeros(101))
        p = ProblemInstance(h=h, v=lambda t: np.zeros_like(t), g=SineSeries([1.0]),
                            order=4, t_final=1.0, dt=1e-2)
        assert p.h_grid() is h
        bad = ProblemInstance(h=GridFn(0.0, 1e-2, np.zeros(50)), v=lambda t: np.zeros_like(t),
                              g=SineSeries([1.0]), order=4, t_final=1.0, dt=1e-2)
        with pytest.raises(GridMismatchError):
            bad.h_grid()

    @pytest.mark.parametrize("order", [8.5, 8.0, True])
    def test_order_an_integer(self, order):
        # ProblemInstance(order=8.5) was built and failed only in make_observations
        with pytest.raises(DomainError, match=f"^mode truncation must be an integer, got {order!r}$"):
            ProblemInstance(h=lambda t: t, v=lambda t: t, g=SineSeries([1.0]),
                            order=order, t_final=1.0, dt=0.5)

    @pytest.mark.parametrize("preset", ["steady", "decay1"])  # g projected, g a SineSeries
    def test_g_coeffs_order_an_integer(self, preset):
        # g_coeffs(2.5) raised a bare TypeError from np.zeros
        with pytest.raises(DomainError, match="^mode truncation must be an integer, got 2.5$"):
            make_problem(preset, 8, 1.0, 1e-2).g_coeffs(2.5)

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("preset", ["steady", "decay1"])
    def test_g_coeffs_order_at_least_one(self, preset, order):
        # with g a SineSeries (decay1), g_coeffs(-1) raised numpy's bare
        # ValueError and g_coeffs(0) returned an empty array
        with pytest.raises(DomainError, match=f"^mode truncation must be >= 1, got {order}$"):
            make_problem(preset, 8, 1.0, 1e-2).g_coeffs(order)

    @pytest.mark.parametrize("t_final, dt", [(math.inf, 1e-3), (1e300, 1e-300)])
    def test_step_count_must_be_finite(self, t_final, dt):
        # round() of an infinite step count raised a bare OverflowError
        with pytest.raises(DataError):
            ProblemInstance(h=lambda t: t, v=lambda t: t, g=SineSeries([1.0]),
                            order=4, t_final=t_final, dt=dt)


    @pytest.mark.parametrize("dt", [1e10, 1e308, math.inf])
    def test_at_least_one_step(self, dt):
        # t_final / dt rounded to 0 steps within the tolerance, so the grid had
        # one sample, and make_observations at dt = inf died on a numpy warning
        with pytest.raises(DataError) as exc:
            make_problem("generic", 8, 1.0, dt)
        assert str(exc.value) == f"final time 1.0 is shorter than one step of {dt}"


def _solve_fd_banded(p, nx):
    """The former solve_fd: one banded Crank-Nicolson solve per time step."""
    from scipy.linalg import solve_banded

    v, h = p.v_grid().values, p.h_grid().values
    x = np.linspace(0.0, math.pi, nx)
    r = p.dt / (2.0 * (x[1] - x[0]) ** 2)
    u = np.empty((p.n_samples, nx))
    u[0] = p.g(x)
    u[:, 0], u[:, -1] = v, 0.0
    ab = np.zeros((3, nx - 2))
    ab[0, 1:] = ab[2, :-1] = -r
    ab[1] = 1.0 + 2.0 * r
    for k in range(p.n_samples - 1):
        rhs = ((1.0 - 2.0 * r) * u[k, 1:-1] + r * (u[k, :-2] + u[k, 2:])
               + p.dt * 0.5 * (h[k] + h[k + 1]))
        rhs[0] += r * v[k + 1]  # implicit-side boundary term; explicit side sits in u[k, :-2]
        u[k + 1, 1:-1] = solve_banded((1, 1), ab, rhs, check_finite=False)
    return u


class TestSolveFD:
    @pytest.mark.parametrize("nx", [16, 64, 256, 512])
    @pytest.mark.parametrize("preset", ["decay1", "steady", "generic"])
    def test_matches_banded_reference(self, preset, nx):
        p = make_problem(preset, 8, 1.0, 1e-2)
        _, u = solve_fd(p, nx)
        ref = _solve_fd_banded(p, nx)
        assert np.max(np.abs(u - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_separable_decay(self):
        p = make_problem("decay1", 4, 1.0, 1e-3)
        x, u = solve_fd(p, 128)
        t = p.v_grid().times
        exact = np.exp(-t)[:, None] * (SQ * np.sin(x))[None, :]
        assert np.max(np.abs(u - exact)) < 5e-5

    def test_space_convergence_second_order(self):
        p = make_problem("decay1", 4, 0.5, 1e-4)
        errs = []
        for nx in (33, 65):
            x, u = solve_fd(p, nx)
            exact = np.exp(-p.v_grid().times)[:, None] * (SQ * np.sin(x))[None, :]
            errs.append(np.max(np.abs(u - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_steady_profile_preserved(self):
        p = make_problem("steady", 4, 1.0, 1e-2)
        x, u = solve_fd(p, 64)
        profile = 1.0 - x / math.pi
        assert np.max(np.abs(u - profile[None, :])) < 1e-12

    def test_cross_solver_uniform_source(self):
        # the source-driven coefficients decay like m^-3, so M = 64 modes are
        # needed before the synthesis tail drops under the 1e-4 target
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([0.0]), order=64, t_final=1.0, dt=1e-3)
        x, u = solve_fd(p, 256)
        spec = solve_spectral(p)
        field = spectral_field(spec, x, p.v_grid())
        mask = spec.times >= 0.1
        assert np.max(np.abs(field[mask] - u[mask])) < 1e-4

    def test_boundary_rows_pinned(self):
        p = make_problem("generic", 4, 0.5, 1e-2)
        _, u = solve_fd(p, 64)
        np.testing.assert_allclose(u[:, 0], p.v_grid().values, atol=0.0)
        np.testing.assert_allclose(u[:, -1], 0.0, atol=0.0)

    def test_scalar_only_initial_data(self):
        # a g that takes only scalars is called once per point, as project
        # and GridFn.sample call it; solve_fd raised a bare TypeError
        scalar = make_problem("decay1", 4, 0.2, 1e-2)
        scalar = replace(scalar, g=lambda x: math.sin(x) + 0.5 * math.sin(3.0 * x))
        vector = replace(scalar, g=lambda x: np.array([scalar.g(xi) for xi in x]))
        np.testing.assert_array_equal(solve_fd(scalar, 64)[1], solve_fd(vector, 64)[1])
        np.testing.assert_array_equal(solve_spectral(scalar).values, solve_spectral(vector).values)

    def test_initial_data_finite_on_the_grid(self):
        # g = 1/x is finite inside the rod but not at x = 0
        p = replace(make_problem("decay1", 4, 0.5, 1e-2), g=lambda x: 1.0 / np.asarray(x))
        with np.errstate(divide="ignore"):
            with pytest.raises(DataError, match="^initial data are not finite on the spatial grid$"):
                solve_fd(p, 64)

    def test_too_few_points(self):
        p = make_problem("decay1", 4, 0.5, 1e-2)
        with pytest.raises(DomainError):
            solve_fd(p, 8)

    def test_points_an_integer(self):
        # solve_fd raised a bare TypeError for 64.5
        p = make_problem("decay1", 4, 0.5, 1e-2)
        with pytest.raises(DomainError, match="^spatial points must be an integer, got 64.5$"):
            solve_fd(p, 64.5)


class TestLiftedField:
    def test_lift_matches_fd_near_boundary(self):
        # nonzero boundary input: the lifted synthesis has no Gibbs error
        # near x = 0
        p = make_problem("generic", 32, 0.5, 1e-3)
        x, u = solve_fd(p, 256)
        spec = solve_spectral(p)
        mask = spec.times >= 0.1
        lifted = spectral_field(spec, x, v=p.v_grid())
        assert np.max(np.abs(lifted[mask] - u[mask])) < 1e-3


class TestMakeObservations:
    def test_decay1_triple(self):
        p = make_problem("decay1", 4, 1.0, 1e-3)
        obs = make_observations(p, 1.0)
        t = obs.u1.times
        np.testing.assert_allclose(obs.u1.values, np.exp(-t), atol=1e-13)
        np.testing.assert_allclose(obs.u3.values, 0.0, atol=1e-15)
        np.testing.assert_allclose(obs.uy.values, np.exp(-t) * SQ * math.sin(1.0), atol=1e-13)

    def test_uniform_source_uy_series(self):
        # closed form: uy(t) = sum over odd m of c_m (1 - e^{-m^2 t}) f_m(y) / m^2
        order, y = 8, 1.0
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([0.0]), order=order, t_final=1.0, dt=1e-3)
        obs = make_observations(p, y)
        t = obs.uy.times
        expect = np.zeros_like(t)
        for m in range(1, order + 1, 2):
            cm = 2.0 * SQ / m
            expect += cm * (1.0 - np.exp(-m * m * t)) / (m * m) * SQ * math.sin(m * y)
        np.testing.assert_allclose(obs.uy.values, expect, atol=1e-13)

    def test_noise_deterministic_under_seed(self):
        p = make_problem("generic", 8, 1.0, 1e-3)
        spec = NoiseSpec(kind="relative", level=1e-3, seed=42)
        a = make_observations(p, 1.0, spec)
        b = make_observations(p, 1.0, spec)
        assert np.array_equal(a.u1.values, b.u1.values)
        assert np.array_equal(a.u3.values, b.u3.values)
        assert np.array_equal(a.uy.values, b.uy.values)
        c = make_observations(p, 1.0, NoiseSpec(kind="relative", level=1e-3, seed=43))
        assert not np.array_equal(a.u1.values, c.u1.values)

    def test_zero_level_is_clean(self):
        p = make_problem("generic", 8, 1.0, 1e-3)
        clean = make_observations(p, 1.0)
        noisy0 = make_observations(p, 1.0, NoiseSpec(kind="relative", level=0.0, seed=5))
        assert np.array_equal(clean.u1.values, noisy0.u1.values)

    def test_unsafe_point_rejected_with_mode(self):
        p = make_problem("generic", 4, 1.0, 1e-3)
        with pytest.raises(DomainError, match=r"\|sin\(2 y\)\|"):
            make_observations(p, math.pi / 2)

    def test_needs_three_modes(self):
        p = make_problem("decay1", 2, 1.0, 1e-3)
        with pytest.raises(DomainError):
            make_observations(p, 1.0)

    def test_triple_projects_the_spectral_modes(self):
        p = make_problem("generic", 8, 1.0, 1e-3)
        obs = make_observations(p, 1.0)
        modes = solve_spectral(p).values
        np.testing.assert_array_equal(obs.u1.values, modes[0])
        np.testing.assert_array_equal(obs.u3.values, modes[2])
        fy = forward.basis_at(1.0, 8)
        bound = 2 * 8 * np.finfo(float).eps * (np.abs(fy) @ np.abs(modes))
        assert np.all(np.abs(obs.uy.values - fy @ modes) <= bound)

    def test_memory_does_not_grow_with_the_order(self):
        # the modes go block by block into the three observed rows: 5.4 MiB
        # on 60 001 samples at order 64, where holding every mode took 59.6 MiB
        p = make_problem("generic", 64, 6.0, 1e-4)
        tracemalloc.start()
        try:
            make_observations(p, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_clean_record_returned_unchanged(self):
        p = make_problem("generic", 8, 1.0, 1e-2)
        clean = make_observations(p, 1.0)
        for spec in (NoiseSpec(), NoiseSpec("relative", 0.0, seed=5),
                     NoiseSpec("absolute", -0.0, seed=5), NoiseSpec("none", 1e-3, seed=5)):
            assert not spec.adds_noise
            assert spec.apply(clean) is clean
        assert NoiseSpec("relative", 1e-3, seed=5).adds_noise
        assert NoiseSpec("absolute", 5e-324).adds_noise

    @pytest.mark.parametrize("seed", [-1, -(2 ** 40)])
    def test_seed_must_be_non_negative(self, seed):
        # default_rng refuses it only when the noise is drawn
        with pytest.raises(DataError, match="seed must be >= 0"):
            NoiseSpec("relative", 1e-3, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None, np.float64(4.0)])
    def test_seed_must_be_an_integer(self, seed):
        # default_rng refused a float seed with a bare TypeError at the draw
        with pytest.raises(DataError, match=re.escape(f"noise seed must be an integer, got {seed!r}")):
            NoiseSpec("relative", 1e-3, seed=seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        p = make_problem("generic", 4, 0.1, 1e-2)
        a = make_observations(p, 1.0, NoiseSpec("relative", 1e-3, seed=np.int64(7)))
        b = make_observations(p, 1.0, NoiseSpec("relative", 1e-3, seed=7))
        assert a.uy.values.tobytes() == b.uy.values.tobytes()

    @pytest.mark.parametrize("level", [-1e-6, math.nan, math.inf, -math.inf])
    def test_level_must_be_finite_and_non_negative(self, level):
        with pytest.raises(DataError, match="finite and non-negative"):
            NoiseSpec("relative", level, seed=0)

    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_apply_draws_u1_u3_uy_in_order(self, kind):
        # one standard_normal(out=...) over a record's three series holds the
        # bits of three standard_normal(n) draws from its default_rng(seed)
        p = make_problem("generic", 8, 1.0, 1e-2)
        clean = make_observations(p, 1.0)
        noisy = NoiseSpec(kind, 1e-3, seed=9).apply(clean)
        direct = make_observations(p, 1.0, NoiseSpec(kind, 1e-3, seed=9))
        rng = np.random.default_rng(9)
        for name in ("u1", "u3", "uy"):
            values = getattr(clean, name).values
            scale = 1.0 if kind == "absolute" else np.max(np.abs(values))
            expect = (values + (1e-3 * scale) * rng.standard_normal(values.size)).tobytes()
            assert getattr(noisy, name).values.tobytes() == expect
            assert getattr(direct, name).values.tobytes() == expect
        assert (noisy.y, noisy.order, noisy.u1.dt) == (clean.y, clean.order, clean.u1.dt)

    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_a_stack_drawn_in_place_equals_apply(self, kind):
        p = make_problem("generic", 8, 1.0, 1e-2)
        clean = make_observations(p, 1.0)
        specs = [NoiseSpec(kind, 1e-3, seed=9), NoiseSpec(), NoiseSpec(kind, 1e-6, seed=10)]
        stack = forward._noisy_stack(clean, specs)
        for name in ("u1", "u3", "uy"):
            rows = getattr(stack, name).values
            assert rows.shape == (3, clean.u1.n) and not rows.flags.writeable
            for row, spec in zip(rows, specs):
                np.testing.assert_array_equal(row, getattr(spec.apply(clean), name).values)
        assert (stack.y, stack.order, stack.u1.dt) == (clean.y, clean.order, clean.u1.dt)

    def test_apply_refuses_a_stack(self):
        # a stack of two rows raised numpy's bare ValueError: non-broadcastable output operand
        clean = make_observations(make_problem("generic", 8, 1.0, 1e-2), 1.0)
        stack = forward._noisy_stack(clean, [NoiseSpec(), NoiseSpec()])
        with pytest.raises(DataError, match="^noise is drawn onto one record, got a stack of 2 rows$"):
            NoiseSpec("relative", 1e-3, 1).apply(stack)

    def test_noise_that_overflows_is_rejected(self):
        p = make_problem("generic", 8, 1.0, 1e-2)
        clean = make_observations(p, 1.0)
        message = re.escape("noise level 1e+308 (seed 1) overflows the data")
        with np.errstate(over="ignore"), pytest.raises(DataError, match=message):
            NoiseSpec("absolute", 1e308, seed=1).apply(clean)
        with np.errstate(over="ignore"), pytest.raises(DataError, match=message):
            forward._noisy_stack(clean, [NoiseSpec(), NoiseSpec("absolute", 1e308, seed=1)])

    def test_absolute_noise_kind(self):
        p = make_problem("decay1", 4, 1.0, 1e-2)
        obs = make_observations(p, 1.0, NoiseSpec(kind="absolute", level=1e-2, seed=0))
        resid = obs.u3.values  # true u3 is 0, so the residual is pure noise
        assert 3e-3 < np.std(resid) < 3e-2
