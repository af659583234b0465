"""Forward-solver tests: exponential mode integrator, spectral solution,
Crank-Nicolson oracle, observation synthesis."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import heatinv
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
)
SQ = math.sqrt(2.0 / math.pi)


def _zeros(n=101, dt=0.01):
    return GridFn(0.0, dt, np.zeros(n))


def _ones(n=101, dt=0.01):
    return GridFn(0.0, dt, np.ones(n))


def _lfilter_modes(g, v, h):
    """Per-mode reference for mode_evolve: the former scipy.signal.lfilter loop."""
    from scipy.signal import lfilter

    dt, n = v.dt, v.n
    out = np.empty((len(g), n))
    for m in range(1, len(g) + 1):
        mode = mode_constants(m)
        forcing = mode.fprime0 * v.values + mode.c_m * h.values
        z = -mode.lam * dt
        a = math.exp(z)
        if abs(z) < 1e-5:
            phi1 = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
            phi2 = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
        else:
            phi1 = math.expm1(z) / z
            phi2 = (math.expm1(z) - z) / (z * z)
        b_new, b_old = dt * phi2, dt * (phi1 - phi2)
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
            (64, 6.0, 1e-2),   # M^2 dt ~ 41: one sample per block
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


def test_import_loads_no_scipy():
    # scipy is imported lazily, only by Savitzky-Golay smoothing and the FD oracle
    code = "import sys, heatinv; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(heatinv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


class TestSolveSpectral:
    def test_pure_first_mode(self):
        p = make_problem("decay1", 4, 1.0, 1e-3)
        sol = solve_spectral(p)
        t = sol.times
        np.testing.assert_allclose(sol.modes[0], np.exp(-t), atol=1e-13)
        np.testing.assert_allclose(sol.modes[1:], 0.0, atol=1e-15)

    def test_steady_state_all_modes_constant(self):
        p = make_problem("steady", 8, 1.0, 1e-3)
        sol = solve_spectral(p)
        target = SQ / np.arange(1, 9)
        # g comes from quadrature projection, so the wiggle is bounded by
        # its O(h^2) error, not by the integrator
        assert np.max(np.abs(sol.modes - target[:, None])) < 1e-5
        drift = np.max(np.abs(sol.modes - sol.modes[:, :1]), axis=1)
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
            np.testing.assert_allclose(sol.modes[m - 1], expect, atol=1e-13)
        assert np.all(sol.modes[1] == 0.0)  # even modes blind to the source
        assert np.all(sol.modes[3] == 0.0)

    def test_initial_condition_matches_projection(self):
        p = make_problem("generic", 8, 0.5, 1e-3)
        sol = solve_spectral(p)
        np.testing.assert_allclose(sol.modes[:, 0], p.g_coeffs(8), atol=1e-15)

    def test_smoothing_bound(self):
        # |u_m(t)| <= |g_m| e^{-m^2 t0} + sup|forcing| (f_m'(0) + c_m) / m^2
        p = make_problem("generic", 8, 2.0, 1e-3)
        sol = solve_spectral(p)
        g = p.g_coeffs(8)
        v, h = p.v_grid().values, p.h_grid().values
        t0 = 0.1
        k0 = sol.mode(1).index_of(t0)
        for m in range(1, 9):
            mc = mode_constants(m)
            sup_force = np.max(np.abs(v)) * mc.fprime0 + np.max(np.abs(h)) * mc.c_m
            bound = abs(g[m - 1]) * math.exp(-mc.lam * t0) + sup_force / mc.lam
            assert np.max(np.abs(sol.modes[m - 1, k0:])) <= bound * (1 + 1e-9)


class TestProblemInstance:
    def test_grid_consistency_required(self):
        with pytest.raises(DataError):
            ProblemInstance(h=lambda t: t, v=lambda t: t, g=SineSeries([1.0]),
                            order=4, t_final=1.0, dt=0.3)

    def test_compatibility_flags(self):
        p = make_problem("generic", 4, 1.0, 1e-2)
        flags = p.compatibility()
        assert flags["corner_ok"] and flags["right_end_ok"]
        q = ProblemInstance(h=lambda t: np.zeros_like(t), v=lambda t: np.ones_like(t),
                            g=SineSeries([1.0]), order=4, t_final=1.0, dt=1e-2)
        assert not q.compatibility()["corner_ok"]  # g(0) = 0 but v(0) = 1

    def test_gridfn_inputs_must_match_grid(self):
        h = GridFn(0.0, 1e-2, np.zeros(101))
        p = ProblemInstance(h=h, v=lambda t: np.zeros_like(t), g=SineSeries([1.0]),
                            order=4, t_final=1.0, dt=1e-2)
        assert p.h_grid() is h
        bad = ProblemInstance(h=GridFn(0.0, 1e-2, np.zeros(50)), v=lambda t: np.zeros_like(t),
                              g=SineSeries([1.0]), order=4, t_final=1.0, dt=1e-2)
        with pytest.raises(GridMismatchError):
            bad.h_grid()


class TestSolveFD:
    def test_separable_decay(self):
        p = make_problem("decay1", 4, 1.0, 1e-3)
        fd = solve_fd(p, 128)
        t = fd.times
        exact = np.exp(-t)[:, None] * (SQ * np.sin(fd.x))[None, :]
        assert np.max(np.abs(fd.u - exact)) < 5e-5

    def test_space_convergence_second_order(self):
        p = make_problem("decay1", 4, 0.5, 1e-4)
        errs = []
        for nx in (33, 65):
            fd = solve_fd(p, nx)
            exact = np.exp(-fd.times)[:, None] * (SQ * np.sin(fd.x))[None, :]
            errs.append(np.max(np.abs(fd.u - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_steady_profile_preserved(self):
        p = make_problem("steady", 4, 1.0, 1e-2)
        fd = solve_fd(p, 64)
        profile = 1.0 - fd.x / math.pi
        assert np.max(np.abs(fd.u - profile[None, :])) < 1e-12

    def test_cross_solver_uniform_source(self):
        # the source-driven coefficients decay like m^-3, so M = 64 modes are
        # needed before the synthesis tail drops under the 1e-4 target
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([0.0]), order=64, t_final=1.0, dt=1e-3)
        fd = solve_fd(p, 256)
        spec = solve_spectral(p)
        field = spec.field(fd.x)
        mask = spec.times >= 0.1
        assert np.max(np.abs(field[mask] - fd.u[mask])) < 1e-4

    def test_boundary_rows_pinned(self):
        p = make_problem("generic", 4, 0.5, 1e-2)
        fd = solve_fd(p, 64)
        np.testing.assert_allclose(fd.u[:, 0], p.v_grid().values, atol=0.0)
        np.testing.assert_allclose(fd.u[:, -1], 0.0, atol=0.0)

    def test_too_few_points(self):
        p = make_problem("decay1", 4, 0.5, 1e-2)
        with pytest.raises(DomainError):
            solve_fd(p, 8)


class TestLiftedField:
    def test_lift_matches_fd_near_boundary(self):
        # nonzero boundary input: raw truncated synthesis has an O(1) Gibbs
        # error near x = 0, the lifted one does not
        p = make_problem("generic", 32, 0.5, 1e-3)
        fd = solve_fd(p, 256)
        spec = solve_spectral(p)
        mask = spec.times >= 0.1
        lifted = spec.field(fd.x, v=p.v_grid())
        raw = spec.field(fd.x)
        err_lift = np.max(np.abs(lifted[mask] - fd.u[mask]))
        err_raw = np.max(np.abs(raw[mask] - fd.u[mask]))
        assert err_lift < 1e-3
        assert err_raw > 0.1


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

    def test_absolute_noise_kind(self):
        p = make_problem("decay1", 4, 1.0, 1e-2)
        obs = make_observations(p, 1.0, NoiseSpec(kind="absolute", level=1e-2, seed=0))
        resid = obs.u3.values  # true u3 is 0, so the residual is pure noise
        assert 3e-3 < np.std(resid) < 3e-2
