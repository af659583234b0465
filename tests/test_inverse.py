"""Reconstruction-pipeline tests: stage by stage, then end to end."""

import math
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import heatinv.inverse
from heatinv import (
    DET_EXACT,
    ConfigError,
    DataError,
    DomainError,
    GridFn,
    InversionConfig,
    InversionError,
    NoiseSpec,
    ProblemInstance,
    ScheduleError,
    SineSeries,
    assemble_g,
    compute_w,
    extract_g13,
    invert,
    invert_stack,
    make_observations,
    make_problem,
    mode_constants,
    peel_lsq,
    peel_sequential,
    plan_peel,
    recover_vh,
    rel_l2,
    system_determinant,
)
from heatinv.forward import Observations, _observe, _observed_rows
from heatinv.io import ExperimentConfig
from heatinv.inverse import (PROVISIONAL_RIDGE, DerivativeScheme, PeelPlan, _exp_sums,
                             forced_mode_values)

SQ = math.sqrt(2.0 / math.pi)


def observe(preset: str, order=8, t_final=2.0, dt=1e-3, y=1.0, noise=None):
    p = make_problem(preset, order, t_final, dt)
    return p, make_observations(p, y, noise)


def assert_same_reconstruction(a, b):
    """Every field of two reconstructions equal bit for bit."""
    for name in ("v_hat", "h_hat"):
        fa, fb = getattr(a, name), getattr(b, name)
        assert (fa.t0, fa.dt) == (fb.t0, fb.dt)
        np.testing.assert_array_equal(fa.values, fb.values)
    np.testing.assert_array_equal(a.b_hat, b.b_hat)
    np.testing.assert_array_equal(a.g_coeffs.coeffs, b.g_coeffs.coeffs)
    assert (a.g1, a.g3) == (b.g1, b.g3)
    b_diag = asdict(b.diagnostics)
    for key, value in asdict(a.diagnostics).items():
        np.testing.assert_array_equal(value, b_diag[key], err_msg=key)


class TestExtractG13:
    def test_first_mode_data(self):
        _, obs = observe("decay1", order=4)
        g1, g3 = extract_g13(obs)
        assert g1 == 1.0
        assert g3 == 0.0

    def test_zero_initial_data(self):
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([0.0]), order=4, t_final=1.0, dt=1e-3)
        obs = make_observations(p, 1.0)
        assert extract_g13(obs) == (0.0, 0.0)

    def test_ramp_initial_data(self):
        # g = 1 - x/pi has coefficients sqrt(2/pi)/m (projection oracle)
        _, obs = observe("steady", order=8)
        g1, g3 = extract_g13(obs)
        assert g1 == pytest.approx(SQ, abs=1e-5)
        assert g3 == pytest.approx(SQ / 3.0, abs=1e-5)

    def test_grid_must_start_at_zero(self):
        _, obs = observe("decay1", order=4)
        shifted = Observations(
            u1=obs.u1.trim_head(1), u3=obs.u3.trim_head(1), uy=obs.uy.trim_head(1), y=obs.y
        )
        with pytest.raises(DataError, match="must start at t = 0"):
            extract_g13(shifted)


class TestDeterminant:
    def test_value_matches_closed_form(self):
        assert system_determinant() == pytest.approx(-32.0 / (3.0 * math.pi), abs=1e-12)
        assert system_determinant() == pytest.approx(-3.395305452627100496402854, abs=1e-12)

    def test_built_from_mode_constants(self):
        m1, m3 = mode_constants(1), mode_constants(3)
        det = m1.fprime0 * m3.c_m - m3.fprime0 * m1.c_m
        assert det == pytest.approx(DET_EXACT, abs=1e-12)


class TestRecoverVH:
    def test_quiet_problem_recovers_zeros(self):
        _, obs = observe("decay1", order=4)
        g1, g3 = extract_g13(obs)
        v_hat, h_hat = recover_vh(obs, g1, g3)
        assert np.max(np.abs(v_hat.values)) < 1e-11
        assert np.max(np.abs(h_hat.values)) < 1e-11

    def test_constant_source_round_trip(self):
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([0.0]), order=4, t_final=2.0, dt=1e-3)
        obs = make_observations(p, 1.0)
        v_hat, h_hat = recover_vh(obs, 0.0, 0.0)
        # O(dt^2) with constant ~ |F_3'''|/6 ~ 14 near t = 0, tiny later
        assert np.max(np.abs(h_hat.values - 1.0)) < 5e-6
        late = h_hat.values[h_hat.times >= 0.5]
        assert np.max(np.abs(late[:-1] - 1.0)) < 1e-7
        assert np.max(np.abs(v_hat.values)) < 1e-5

    def test_burn_in_trims_head(self):
        _, obs = observe("generic", order=8)
        v_hat, h_hat = recover_vh(obs, *extract_g13(obs), burn_in=2)
        assert v_hat.t0 == pytest.approx(2e-3)
        assert v_hat.n == obs.u1.n - 2
        v0, _ = recover_vh(obs, *extract_g13(obs), burn_in=0)
        assert v0.n == obs.u1.n

    def test_short_series_rejected(self):
        p = make_problem("decay1", 4, 4e-3, 1e-3)
        obs = make_observations(p, 1.0)
        tiny = Observations(
            u1=GridFn(0.0, 1e-3, obs.u1.values[:3]),
            u3=GridFn(0.0, 1e-3, obs.u3.values[:3]),
            uy=GridFn(0.0, 1e-3, obs.uy.values[:3]),
            y=obs.y,
        )
        with pytest.raises(DataError):
            recover_vh(tiny, 1.0, 0.0)

    def test_smoothing_scheme_on_noisy_data(self):
        p = make_problem("generic", 8, 2.0, 1e-3)
        obs = make_observations(p, 1.0, NoiseSpec("relative", 1e-5, seed=11))
        raw_v, raw_h = recover_vh(obs, *extract_g13(obs))
        sm_v, sm_h = recover_vh(
            obs, *extract_g13(obs), deriv=DerivativeScheme(smooth_window=21)
        )
        t = raw_h.times
        h_true = 1.0 + np.cos(t)
        assert rel_l2(sm_h.values, h_true) < rel_l2(raw_h.values, h_true)
        assert DerivativeScheme(21, 3).name == "savgol(21,3)+central"

    def test_even_smoothing_window_rejected_when_built(self):
        with pytest.raises(DomainError, match="window 4, polyorder 3"):
            DerivativeScheme(smooth_window=4)

    def test_even_mode_invisibility(self):
        # adding f_2 content to g must not change v_hat or h_hat at all
        base = make_problem("decay1", 4, 1.0, 1e-3)
        bumped = ProblemInstance(h=base.h, v=base.v, g=SineSeries([1.0, 0.7]),
                                 order=4, t_final=1.0, dt=1e-3)
        obs_a = make_observations(base, 1.0)
        obs_b = make_observations(bumped, 1.0)
        va, ha = recover_vh(obs_a, *extract_g13(obs_a))
        vb, hb = recover_vh(obs_b, *extract_g13(obs_b))
        assert np.array_equal(va.values, vb.values)
        assert np.array_equal(ha.values, hb.values)



def _smoothing_cases():
    """(n, window, polyorder) where scipy's savgol_filter is itself accurate:
    it builds its coefficients from unscaled powers of the positions, which
    lose digits as the window and order grow (8e-10 relative at w = 101,
    p = 4, against exact rational coefficients; 1e-10 at w = n = 2001,
    p = 2, in its end fits), and its p = w - 1 filter drifts from the
    identity from w = 9 on."""
    cases = []
    for n in (9, 60, 61, 2001, 60001):
        for w in sorted({1, 5, 7, 21, 51, 101, n if n <= 61 else 1}):
            for p in sorted({0, 1, 2, 3, 4, w - 1}):
                if w % 2 and p < w <= n and (p <= 3 or w <= 21) and (p < w - 1 or w <= 7):
                    cases.append((n, w, p))
    return cases


class TestSmoothing:
    @pytest.mark.parametrize("n, w, p", _smoothing_cases())
    def test_matches_savgol_filter(self, n, w, p):
        from scipy.signal import savgol_filter

        rng = np.random.default_rng(n + 100 * w + p)
        x = np.sin(np.linspace(0.0, 3.0, n)) + 0.1 * rng.standard_normal((3, n))
        smooth = DerivativeScheme(w, p).apply(x, 0.1)[0]
        ref = savgol_filter(x, w, p, axis=-1)  # mode "interp"
        assert np.max(np.abs(smooth - ref)) <= 1e-12 * np.max(np.abs(x))
        for row in range(3):  # a stacked row carries the bits of its lone filtering
            np.testing.assert_array_equal(DerivativeScheme(w, p).apply(x[row], 0.1)[0],
                                          smooth[row])

    @pytest.mark.parametrize("n, w, p", [(2001, 101, 4), (2001, 2001, 4), (60001, 60001, 3)])
    def test_wide_windows_are_local_least_squares_fits(self, n, w, p):
        # where savgol_filter loses digits: each window's fit by Polynomial.fit
        from numpy.polynomial import Polynomial

        rng = np.random.default_rng(5)
        x = np.sin(np.linspace(0.0, 3.0, n)) + 0.1 * rng.standard_normal(n)
        smooth = DerivativeScheme(w, p).apply(x, 0.1)[0]
        h = w // 2
        pos = np.arange(-h, h + 1)
        for i in (h, n // 2, n - 1 - h):
            fit = Polynomial.fit(pos, x[i - h:i + h + 1], p)
            assert abs(smooth[i] - fit(0)) <= 1e-12 * np.max(np.abs(x))
        head, tail = Polynomial.fit(pos, x[:w], p), Polynomial.fit(pos, x[n - w:], p)
        assert np.max(np.abs(smooth[:h] - head(pos[:h]))) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(smooth[n - h:] - tail(pos[h + 1:]))) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("w", [31, 41, 61])
    def test_order_one_below_the_window_is_the_identity(self, w):
        # a polynomial of degree w - 1 fits every window exactly, even where the
        # Legendre Vandermonde on equispaced points is ill-conditioned
        x = np.random.default_rng(w).standard_normal((3, 4 * w))
        for values in (x[0], x):
            smooth = DerivativeScheme(w, w - 1).apply(values, 0.1)[0]
            assert np.max(np.abs(smooth - values)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("w, p", [(5, 5), (5, 7), (5, -1)])
    def test_order_outside_the_window_rejected(self, w, p):
        with pytest.raises(DomainError, match=f"window {w}, polyorder {p}"):
            DerivativeScheme(w, p)

    @pytest.mark.parametrize("n", [1, 2])
    def test_series_shorter_than_the_stencil_rejected(self, n):
        with pytest.raises(DataError, match="^derivative stencil needs at least 3 samples$"):
            DerivativeScheme().apply(np.ones(n), 0.1)

    def test_series_shorter_than_the_window_rejected(self):
        with pytest.raises(DataError, match="shorter than the smoothing window"):
            DerivativeScheme(21).apply(np.zeros((2, 20)), 0.1)
        smooth, _ = DerivativeScheme(21).apply(np.ones(21), 0.1)
        np.testing.assert_allclose(smooth, 1.0, rtol=1e-14)


class TestComputeW:
    def test_zero_forcing(self):
        z = GridFn(0.0, 1e-3, np.zeros(1001))
        w = compute_w(z, z, 1.0, 8)
        np.testing.assert_array_equal(w.values, 0.0)

    def test_uniform_source_series(self):
        n = 1001
        ones = GridFn(0.0, 1e-3, np.ones(n))
        zeros = GridFn(0.0, 1e-3, np.zeros(n))
        w = compute_w(zeros, ones, 1.0, 8)
        t = w.times
        expect = np.zeros_like(t)
        for m in range(1, 9, 2):
            cm = 2.0 * SQ / m
            expect += cm * (1.0 - np.exp(-m * m * t)) / (m * m) * SQ * math.sin(m * 1.0)
        np.testing.assert_allclose(w.values, expect, atol=1e-12)

    def test_round_trip_with_recovered_inputs(self):
        p, obs = observe("generic", order=8, t_final=4.0)
        v_hat, h_hat = recover_vh(obs, *extract_g13(obs))
        w_rec = compute_w(v_hat, h_hat, obs.y, 8)
        w_true = compute_w(p.v_grid(), p.h_grid(), obs.y, 8)
        w_rec.require_same_grid(w_true)
        assert np.max(np.abs(w_rec.values - w_true.values)) < 1e-5

    def test_head_extension_restores_full_grid(self):
        v = GridFn(2e-3, 1e-3, np.linspace(0.5, 1.0, 999))
        h = GridFn(2e-3, 1e-3, np.zeros(999))
        w = compute_w(v, h, 1.0, 4)
        assert w.t0 == 0.0
        assert w.n == 1001

    def test_domain_check(self):
        z = GridFn(0.0, 1e-3, np.zeros(11))
        with pytest.raises(DomainError):
            compute_w(z, z, math.pi, 4)

    def test_large_finite_forcing_stays_finite(self):
        # forcing of size 1e300 has a response of size 1e299: no step may
        # rescale it past the largest double
        p = make_problem("fourmode", 8, 4.0, 2e-3)
        v, h = (GridFn(0.0, 2e-3, 1e300 * f.values / np.max(np.abs(f.values)))
                for f in (p.v_grid(), p.h_grid()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = forced_mode_values(v, h, 1.0, 8)
        assert np.all(np.isfinite(rows))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than a double")
    def test_matches_extended_precision_recurrence(self):
        # the forced rows [u_1; u_3; w] of the generic record (order 16, dt =
        # 1e-4, 20 001 samples) against the per-step recurrence in long
        # double on the same step weights: 4e-16 / 4e-16 / 1.0e-15 relative.
        # Carry factors a^{sL} formed by squaring a^L or a carry chain run
        # block by block compound the rounding of a^L over mode 1's memory
        # of hundreds of blocks: 1.4e-14 / 1.6e-14 and 1.1e-14 / 1.3e-14 on
        # u_1 / w
        order, dt = 16, 1e-4
        p = make_problem("generic", order, 2.0, dt)
        v, h = p.v_grid(), p.h_grid()
        rows = forced_mode_values(v, h, 1.0, order)
        ld = np.longdouble
        u = np.zeros(order, dtype=ld)
        a = np.empty(order, dtype=ld)
        b_old, b_new = np.empty(order, dtype=ld), np.empty(order, dtype=ld)
        forcing = np.empty((order, v.n), dtype=ld)
        for m in range(1, order + 1):
            mode = mode_constants(m)
            z = -mode.lam * dt
            a[m - 1] = np.exp(ld(z))
            phi1, phi2 = math.expm1(z) / z, (math.expm1(z) - z) / (z * z)
            b_old[m - 1], b_new[m - 1] = dt * (phi1 - phi2), dt * phi2
            forcing[m - 1] = (mode.fprime0 * v.values.astype(ld)
                              + mode.c_m * h.values.astype(ld))
        modes = np.empty((order, v.n), dtype=ld)
        modes[:, 0] = 0.0
        for k in range(1, v.n):
            u = a * u + b_old * forcing[:, k - 1] + b_new * forcing[:, k]
            modes[:, k] = u
        ref = _observed_rows(1.0, order).astype(ld) @ modes
        for row, expect in zip(rows, ref):
            assert np.max(np.abs(row - expect)) <= 2e-15 * np.max(np.abs(expect))

    @pytest.mark.parametrize("order", [8, 16])
    @pytest.mark.parametrize("preset, t_final, dt", [("fourmode", 4.0, 2e-3),
                                                     ("generic", 6.0, 1e-4)],
                             ids=["n2001", "n60001"])
    def test_w_row_alone_keeps_its_bits(self, preset, t_final, dt, order):
        # a noise study evolves only w, from the rows of the three-row kernel
        # (forward._observe with uy_only): stacks of 1, 10 and 11 records (a
        # study's chunk sizes) and a lone record keep the bits of row 2 of
        # forced_mode_values, and compute_w reads the same row
        p = make_problem(preset, order, t_final, dt)
        v, h = p.v_grid(), p.h_grid()
        rng = np.random.default_rng(5)
        for rows in (1, 10, 11):
            scale = 1.0 + 1e-3 * rng.standard_normal((rows, 1))
            vs, hs = (GridFn(2 * dt, dt, scale * f.values[2:]) for f in (v, h))
            from_zero = [heatinv.inverse._extend_to_zero(f) for f in (vs, hs)]
            w = _observe(np.zeros(order), *from_zero, 1.0, order, uy_only=True)
            assert w.shape == (rows, 1, v.n)
            full = forced_mode_values(vs, hs, 1.0, order)
            np.testing.assert_array_equal(w, full[:, 2:3])
            np.testing.assert_array_equal(compute_w(vs, hs, 1.0, order).values, full[:, 2])
        w = compute_w(v, h, 1.0, order)
        np.testing.assert_array_equal(w.values, forced_mode_values(v, h, 1.0, order)[2])

    @pytest.mark.parametrize("preset, order, y", [("generic", 8, 1.0), ("fourmode", 16, 2.3)])
    def test_record_and_rebuild_are_one_rule(self, preset, order, y):
        # with zero g the observed record is its own forced part: the three
        # rows of make_observations are forced_mode_values' bits, and
        # compute_w is their row 2, as the record and the inverse's rebuild
        # of w evolve through one function
        p = replace(make_problem(preset, order, 4.0, 2e-3), g=SineSeries(np.zeros(order)))
        obs = make_observations(p, y)
        rows = forced_mode_values(p.v_grid(), p.h_grid(), y, order)
        for j, series in enumerate((obs.u1, obs.u3, obs.uy)):
            np.testing.assert_array_equal(series.values, rows[j])
        np.testing.assert_array_equal(compute_w(p.v_grid(), p.h_grid(), y, order).values, rows[2])


class TestAssembleG:
    def test_inverts_first_mode_product(self):
        res = assemble_g(np.array([SQ * math.sin(1.0)]), 1.0)
        assert res.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert res.rejected == ()

    def test_zero_vector(self):
        res = assemble_g(np.zeros(4), 1.0)
        np.testing.assert_array_equal(res.coeffs, 0.0)

    def test_near_zero_divisor_rejected_per_mode(self):
        # y = pi/2 makes f_2 vanish; mode 1 must still come through
        res = assemble_g(np.array([0.3, 0.4]), math.pi / 2)
        assert res.rejected == (2,)
        assert res.coeffs[0] == pytest.approx(0.3 / SQ, abs=1e-14)
        assert res.coeffs[1] == 0.0
        assert abs(res.divisors[1]) < 1e-12

    def test_divisors_recorded(self):
        res = assemble_g(np.array([1.0, 1.0, 1.0]), 1.0)
        for m in (1, 2, 3):
            assert res.divisors[m - 1] == pytest.approx(SQ * math.sin(m), abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            assemble_g(np.array([1.0, bad, 1.0]), 1.0)


class TestInvert:
    def test_uniform_source_round_trip(self):
        p = ProblemInstance(h=lambda t: np.ones_like(t), v=lambda t: np.zeros_like(t),
                            g=SineSeries([1.0]), order=8, t_final=4.0, dt=1e-3)
        obs = make_observations(p, 1.0)
        rec = invert(obs, InversionConfig(order=8, depth=3))
        t = rec.h_hat.times
        assert rel_l2(rec.h_hat.values, np.ones_like(t)) < 1e-5
        assert np.max(np.abs(rec.v_hat.values)) < 1e-5
        assert rec.g_coeffs.coeffs[0] == pytest.approx(1.0, abs=1e-4)
        assert np.max(np.abs(rec.g_coeffs.coeffs[1:])) < 1e-4

    def test_zero_observations_zero_reconstruction(self):
        z = GridFn(0.0, 1e-3, np.zeros(2001))
        obs = Observations(u1=z, u3=z, uy=z, y=1.0)
        rec = invert(obs, InversionConfig(order=4, depth=2))
        assert np.max(np.abs(rec.v_hat.values)) == 0.0
        assert np.max(np.abs(rec.h_hat.values)) == 0.0
        np.testing.assert_array_equal(rec.b_hat, 0.0)
        np.testing.assert_array_equal(rec.g_coeffs.coeffs, 0.0)

    def test_generic_round_trip_sin_amplitudes(self):
        p, obs = observe("generic", order=16, t_final=6.0)
        rec = invert(obs, InversionConfig(order=16, depth=2))
        amps = rec.g_coeffs.sin_amplitudes
        assert amps[0] == pytest.approx(1.0, abs=1e-3)
        assert amps[1] == pytest.approx(0.5, abs=1e-2)

    def test_diagnostics_payload(self):
        _, obs = observe("generic", order=8, t_final=4.0)
        rec = invert(obs, InversionConfig(order=8, depth=2))
        d = rec.diagnostics
        assert d.determinant == pytest.approx(DET_EXACT, abs=1e-12)
        assert d.residual_u1 < 1e-5
        assert d.residual_u3 < 1e-4
        assert d.residual_uy < 1e-3
        assert d.peel_condition > 1.0
        assert len(d.amplification) == 2
        assert asdict(d)["burn_in"] == 2

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_residuals_are_rel_l2_of_the_forward_map(self, depth):
        # the residuals read e^{-t} and e^{-9t} off the peeled sums' design
        # tiles, 3 columns wide below depth 3: the bits of rel_l2 on each
        # reconstruction pushed back through the forward map, here on a
        # 60 001-sample stack of two rows that spans three tiles
        p = make_problem("generic", 16, 6.0, 1e-4)
        records = [make_observations(p, 1.0, NoiseSpec("relative", 1e-8, seed)) for seed in (1, 2)]
        t = records[0].u1.times
        for obs, rec in zip(records, invert_stack(records, InversionConfig(order=16, depth=depth))):
            forced = forced_mode_values(rec.v_hat, rec.h_hat, 1.0, 16)
            peeled = _exp_sums(rec.b_hat[None], obs.u1)[0]
            d = rec.diagnostics
            assert d.residual_u1 == rel_l2(rec.g1 * np.exp(-t) + forced[0], obs.u1.values)
            assert d.residual_u3 == rel_l2(rec.g3 * np.exp(-9.0 * t) + forced[1], obs.u3.values)
            assert d.residual_uy == rel_l2(forced[2] + peeled, obs.uy.values)

    def test_lsq_method_agrees_on_clean_data(self):
        p, obs = observe("generic", order=16, t_final=6.0)
        seq = invert(obs, InversionConfig(order=16, depth=2))
        lsq = invert(obs, InversionConfig(order=16, depth=2, peel_method="lsq"))
        np.testing.assert_allclose(seq.b_hat, lsq.b_hat, atol=1e-4)

    def test_deep_model_schedule_emits_no_runtime_warning(self):
        # the forecast overflows exp at late times from depth 11 on
        _, obs = observe("generic", order=16, t_final=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = invert(obs, InversionConfig(order=16, depth=20))
        assert np.all(np.isfinite(rec.diagnostics.predicted_mode_error))

    def test_non_finite_forecast_recorded(self):
        from heatinv import PeelPlan

        _, obs = observe("generic", order=8, t_final=4.0)
        plan = PeelPlan(times=np.array([1.0, 0.5]), windows=np.ones(2, dtype=int),
                        predicted=np.array([1e-6, np.inf]))
        rec = invert(obs, InversionConfig(order=8, depth=2, schedule=plan))
        assert [w for w in rec.diagnostics.warnings if w.startswith("mode 2: schedule")]

    @pytest.mark.parametrize("preset, order, t_final, dt, cfg", [
        ("fourmode", 8, 4.0, 2e-3, InversionConfig()),
        ("generic", 16, 6.0, 1e-3, InversionConfig(order=3)),
    ], ids=["default-on-8-modes", "order-3-on-16-modes"])
    def test_record_truncation_rebuilds_w(self, preset, order, t_final, dt, cfg):
        _, obs = observe(preset, order=order, t_final=t_final, dt=dt)
        expected = invert(obs, replace(cfg, order=order))
        assert_same_reconstruction(invert(obs, cfg), expected)
        # a record of unknown truncation takes the config's order
        assert_same_reconstruction(invert(replace(obs, order=None), replace(cfg, order=order)),
                                   expected)

    @pytest.mark.parametrize("cfg", [
        InversionConfig(order=8, depth=3),
        InversionConfig(order=8, depth=3, schedule_method="balance"),
        InversionConfig(order=8, depth=3, schedule_method="ladder"),
        InversionConfig(order=8, depth=3, schedule=PeelPlan([2.0, 1.0, 0.5])),
        # planned on a grid of T = 2: the condition it carries is not the record's
        InversionConfig(order=8, depth=3, schedule=plan_peel(
            GridFn(0.0, 2e-3, np.exp(-np.arange(1001) * 2e-3)), 3)),
    ], ids=["model", "balance", "ladder", "given-plan", "given-fitted-plan"])
    def test_peel_condition_is_the_designs(self, cfg):
        # whichever fit it is read from
        _, obs = observe("fourmode", order=8, t_final=4.0, dt=2e-3,
                         noise=NoiseSpec("relative", 1e-6, 0))
        v_hat, h_hat = recover_vh(obs, *extract_g13(obs))
        q = obs.uy - compute_w(v_hat, h_hat, obs.y, 8)
        expect = peel_lsq(q, 3, PROVISIONAL_RIDGE)[1]
        cond = invert(obs, cfg).diagnostics.peel_condition
        assert cond == pytest.approx(expect, rel=1e-13, abs=0.0)
        if cfg.schedule is not None and cfg.schedule.condition is not None:
            assert cfg.schedule.condition != pytest.approx(expect, rel=1e-3)

    @pytest.mark.parametrize("method", ["model", "balance", "ladder"])
    def test_record_too_short_for_the_depth_fails_in_peel_schedule(self, method):
        # plan_peel refuses the depth before it builds a window per mode (it
        # planned 5 modes on 4 samples, and peel_condition's fit failed later)
        _, obs = observe("decay1", order=4, t_final=3e-3, dt=1e-3)  # 4 samples
        with pytest.raises(InversionError) as err:
            invert(obs, InversionConfig(order=4, depth=5, burn_in=0, schedule_method=method))
        assert err.value.stage == "peel_schedule"
        assert type(err.value.__cause__).__name__ == "DataError"
        assert "cannot support depth 5" in str(err.value)

    def test_overflowing_schedule_names_mode_and_time(self):
        _, obs = observe("generic", order=16, t_final=10.0, dt=1e-2)
        cfg = InversionConfig(order=16, depth=10, schedule=PeelPlan([1.0] * 9 + [8.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InversionError, match="mode 10 at t = 8:") as err:
                invert(obs, cfg)
        assert err.value.stage == "peel"
        assert type(err.value.__cause__).__name__ == "ScheduleError"

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ScheduleError, match=f"window must be odd and >= 1, got {window}"):
            InversionConfig(window=window)

    def test_even_window_rejected(self):
        with pytest.raises(ScheduleError, match="peeling window must be odd and >= 1, got 4"):
            InversionConfig(window=4)

    def test_non_integral_window_rejected(self):
        with pytest.raises(ScheduleError, match="peeling window must be odd and >= 1, got 3.5"):
            InversionConfig(window=3.5)

    def test_explicit_schedule_must_match_depth(self):
        # rejected when the config is built, before any stage runs
        plan = PeelPlan(times=np.array([1.0]), windows=np.ones(1, dtype=int))
        with pytest.raises(ScheduleError, match="schedule of 1 times does not match depth 2"):
            InversionConfig(order=8, depth=2, schedule=plan)

    def test_given_schedule_refuses_a_window(self):
        # the window was ignored: b_hat equalled the one with window=None
        text = "^a given schedule carries its own windows: window must be None$"
        with pytest.raises(ScheduleError, match=text):
            InversionConfig(depth=2, schedule=PeelPlan([1.0, 0.5]), window=5)
        with pytest.raises(ConfigError, match=text):
            ExperimentConfig(depth=2, schedule_times=(1.0, 0.5), window=5)

    def test_stage_error_carries_stage_name(self):
        from heatinv import InversionError

        p = make_problem("decay1", 4, 4e-3, 1e-3)
        obs = make_observations(p, 1.0)
        tiny = Observations(
            u1=GridFn(0.0, 1e-3, obs.u1.values[:4]),
            u3=GridFn(0.0, 1e-3, obs.u3.values[:4]),
            uy=GridFn(0.0, 1e-3, obs.uy.values[:4]),
            y=obs.y,
        )
        with pytest.raises(InversionError) as err:
            invert(tiny, InversionConfig(order=4, depth=2))
        assert err.value.stage == "recover_vh"

    def test_even_mode_perturbation_invisible_end_to_end(self):
        # horizon long enough for the peel to separate modes 1 and 2
        base = make_problem("decay1", 4, 4.0, 1e-3)
        bumped = ProblemInstance(h=base.h, v=base.v, g=SineSeries([1.0, 0.7]),
                                 order=4, t_final=4.0, dt=1e-3)
        cfg = InversionConfig(order=4, depth=2)
        rec_a = invert(make_observations(base, 1.0), cfg)
        rec_b = invert(make_observations(bumped, 1.0), cfg)
        assert np.max(np.abs(rec_a.v_hat.values - rec_b.v_hat.values)) < 1e-10
        assert np.max(np.abs(rec_a.h_hat.values - rec_b.h_hat.values)) < 1e-10
        # while the even mode itself is recovered from u(y, t)
        assert rec_b.g_coeffs.coeffs[1] == pytest.approx(0.7, abs=1e-3)


class TestInvertStack:
    @pytest.mark.parametrize("cfg", [
        InversionConfig(order=8, schedule_method="ladder", window=1),
        InversionConfig(order=8, schedule_method="ladder"),
        InversionConfig(order=8),
        InversionConfig(order=8, schedule_method="balance"),
        InversionConfig(order=8, depth=3, schedule=PeelPlan([2.0, 1.0, 0.5], [5, 3, 1])),
        InversionConfig(order=8, peel_method="lsq"),
        InversionConfig(order=8, deriv=DerivativeScheme(smooth_window=51)),
        InversionConfig(order=6),
    ], ids=["ladder", "ladder-windows", "model", "balance", "schedule-times", "lsq",
            "smooth-51", "order-below-record"])
    def test_rows_equal_lone_inversions_bit_for_bit(self, cfg):
        p = make_problem("fourmode", 8, 4.0, 2e-3)
        records = [make_observations(p, 1.0, NoiseSpec("relative", level, seed))
                   for level, seed in ((0.0, 0), (1e-6, 1), (1e-4, 2), (1e-2, 3))]
        for row, obs in zip(invert_stack(records, cfg), records):
            assert_same_reconstruction(row, invert(obs, cfg))

    @pytest.mark.parametrize("cfg", [
        InversionConfig(order=8, depth=3),
        InversionConfig(order=8, depth=3, schedule_method="balance"),
        InversionConfig(order=8, depth=3, peel_method="lsq"),
        InversionConfig(order=8, depth=3, schedule_method="ladder", window=1),
    ], ids=["model", "balance", "lsq", "ladder"])
    def test_one_peel_condition_per_stack(self, cfg):
        # R's leading block depends on the design columns alone, so every
        # row's own fit gives the stack's one condition number bit for bit
        p = make_problem("fourmode", 8, 4.0, 2e-3)
        records = [make_observations(p, 1.0, NoiseSpec("relative", 1e-6, seed))
                   for seed in range(12)]
        conds = {rec.diagnostics.peel_condition for rec in invert_stack(records, cfg)}
        assert len(conds) == 1
        assert {invert(obs, cfg).diagnostics.peel_condition for obs in records} == conds

    @pytest.mark.parametrize("order", [16, 64])
    def test_memory_does_not_grow_with_the_order(self, order):
        # the forced modes are kept only as the rows u_1, u_3 and w: 11 MiB on
        # 60 001 samples at either order, where holding every mode took 18 MiB
        # at order 16 and 62 MiB at order 64
        _, obs = observe("generic", order=order, t_final=6.0, dt=1e-4)
        cfg = InversionConfig(order=order)
        tracemalloc.start()
        try:
            invert(obs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_grids_must_match(self):
        _, a = observe("generic", order=8, t_final=2.0)
        _, b = observe("generic", order=8, t_final=3.0)
        with pytest.raises(DataError):
            invert_stack([a, b])

    def test_records_must_share_y_and_order(self):
        # one w(y, t) serves the whole stack: a y = 2 record inverted with the
        # y = 1 record's w gave g = [4.23, -13.84, 145.27, 14.43] and no warning
        p = make_problem("fourmode", 8, 4.0, 2e-3)
        at_1, at_2 = make_observations(p, 1.0), make_observations(p, 2.0)
        unknown = replace(at_1, order=None)  # would take the order-8 record's truncation
        for records in ([at_1, at_2], [at_1, unknown]):
            with pytest.raises(InversionError, match="differ in y or order") as err:
                invert_stack(records)
            assert err.value.stage == "stack"
        # alone it gives [1.253, 0.750, 0.492, 0.264]
        np.testing.assert_allclose(invert(at_2).g_coeffs.coeffs[:4], p.g_coeffs(4), atol=0.1)
        noisy = make_observations(p, 1.0, NoiseSpec("relative", 1e-6, 1))
        assert len(invert_stack([at_1, noisy])) == 2


def _decay(n=201, dt=1e-2):
    return GridFn(0.0, dt, np.exp(-np.arange(n) * dt))


#: each bad schedule knob: its one ScheduleError text, the library calls that
#: take it, and the ExperimentConfig fields that give it (None: not a config value)
BAD_SCHEDULE_KNOBS = {
    "method": ("unknown scheduling method 'bogus'", [
        lambda q: InversionConfig(schedule_method="bogus"),
        lambda q: plan_peel(q, 2, method="bogus"),
    ], {"schedule_method": "bogus"}),
    **{f"window-{w}": (f"peeling window must be odd and >= 1, got {w}", [
        lambda q, w=w: InversionConfig(window=w),
        lambda q, w=w: plan_peel(q, 2, window=w),
        lambda q, w=w: PeelPlan([1.0], [w]),
        lambda q, w=w: PeelPlan([1.0, 2.0], np.array([1, w])),
    ], {"window": w} if isinstance(w, int) else None) for w in (4, 0, -3, 3.5, math.nan, math.inf)},
    "plan-lengths": ("times and windows must have equal length", [
        lambda q: PeelPlan([1.0, 0.5], [1]),
        lambda q: PeelPlan([1.0], [1, 3]),
    ], None),
    "plan-depth": ("schedule of 1 times does not match depth 2", [
        lambda q: InversionConfig(depth=2, schedule=PeelPlan([1.0])),
        lambda q: peel_sequential(q, 2, plan=PeelPlan([1.0])),
    ], {"depth": 2, "schedule_times": [1.0]}),
}


class TestKnobRules:
    """Each knob has one rule, which every entry point that takes it reads."""

    @pytest.mark.parametrize("knob", BAD_SCHEDULE_KNOBS)
    def test_bad_schedule_knob_has_one_type_and_text(self, knob):
        text, builds, config = BAD_SCHEDULE_KNOBS[knob]
        for build in builds:
            with pytest.raises(ScheduleError) as exc:
                build(_decay())
            assert (type(exc.value), str(exc.value)) == (ScheduleError, text)
        if config is not None:
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(**config)
            assert str(exc.value) == text

    def test_good_windows_pass_every_entry_point(self):
        assert InversionConfig(window=3.0).window == 3.0
        assert np.all(plan_peel(_decay(), 2, window=np.int64(5)).windows == 5)

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, -math.inf])
    def test_amplification_cap_must_be_positive(self, cap):
        q, plan = _decay(), PeelPlan([0.5])
        text = f"amplification cap must be > 0, got {cap}"
        for build in (lambda: InversionConfig(amplification_cap=cap),
                      lambda: peel_sequential(q, 1, plan=plan, amplification_cap=cap)):
            with pytest.raises(DomainError) as exc:
                build()
            assert str(exc.value) == text
        if math.isfinite(cap):
            with pytest.raises(ConfigError, match=f"^{text}$"):
                ExperimentConfig(amplification_cap=cap)

    def test_amplification_cap_flags_the_modes_above_it(self):
        _, obs = observe("fourmode", order=8, t_final=4.0, dt=2e-3)
        flagged = []
        for cap in (50.0, math.inf):
            diag = invert(obs, InversionConfig(order=8, depth=6, amplification_cap=cap)).diagnostics
            np.testing.assert_allclose(diag.amplification[:3], [54.6, 110.4, 107.8], rtol=1e-3)
            flagged.append([w.split(":")[0] for w in diag.warnings if "exceeds cap" in w])
        assert flagged == [["mode 1", "mode 2", "mode 3"], []]

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1e-3, 1.0, 2.0])
    def test_divisor_threshold_in_unit_interval(self, threshold):
        # a NaN or infinite threshold rejected every mode with no warning
        text = f"divisor threshold must be >= 0 and < 1, got {threshold}"
        for build in (lambda: InversionConfig(divisor_threshold=threshold),
                      lambda: assemble_g(np.ones(4), 1.0, threshold)):
            with pytest.raises(DomainError) as exc:
                build()
            assert str(exc.value) == text
        if math.isfinite(threshold):
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(divisor_threshold=threshold)
            assert str(exc.value) == text

    def test_divisor_threshold_bounds_pass(self):
        assert InversionConfig().divisor_threshold == 1e-3
        assert InversionConfig(divisor_threshold=0.0).divisor_threshold == 0.0
        assert assemble_g(np.ones(4), 1.0, 0.999).rejected == (1, 2, 3, 4)

    @pytest.mark.parametrize("ridge", [math.inf, -math.inf])
    def test_ridge_must_be_finite(self, ridge, capfd):
        text = f"ridge must be >= 0 and finite, got {ridge}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: peel_lsq(_decay(), 3, ridge),
                          lambda: InversionConfig(peel_method="lsq", ridge=ridge)):
                with pytest.raises(DomainError) as exc:
                    build()
                assert str(exc.value) == text
        assert capfd.readouterr() == ("", "")  # nothing from LAPACK

    @pytest.mark.parametrize("knobs", [
        {"depth": 2.5}, {"depth": 4.0}, {"depth": True}, {"burn_in": 2.5}, {"burn_in": False},
        {"order": 8.0}, {"order": 4.5},
    ])
    def test_integer_inversion_knobs_refuse_other_numbers(self, knobs):
        (name, value), = knobs.items()
        with pytest.raises(DomainError, match=f"must be an integer, got {value!r}$"):
            InversionConfig(**knobs)

    @pytest.mark.parametrize("burn_in, text", [
        (2.5, "^burn-in must be an integer, got 2.5$"), (-1, "^burn-in must be >= 0, got -1$")])
    def test_recover_vh_reads_the_burn_in_rule(self, burn_in, text):
        # recover_vh raised a bare TypeError about slice indices for 2.5
        _, obs = observe("generic")
        with pytest.raises(DomainError, match=text):
            recover_vh(obs, 1.0, 0.0, burn_in=burn_in)
        with pytest.raises(DomainError, match=text):
            InversionConfig(burn_in=burn_in)

    @pytest.mark.parametrize("knobs", [(5.0, 3), (5, 2.5), (True, 0), (5, np.float64(3.0))])
    def test_smoothing_knobs_are_integers(self, knobs):
        with pytest.raises(DomainError, match="must be an integer"):
            DerivativeScheme(*knobs)

    def test_integer_knob_fails_where_it_is_built_not_in_a_stage(self):
        _, obs = observe("generic")
        with pytest.raises(DomainError, match="^peeling depth must be an integer, got 2.5$"):
            invert(obs, InversionConfig(depth=2.5))
        q = _decay()
        for build in (lambda: peel_lsq(q, 2.5), lambda: plan_peel(q, 2.5),
                      lambda: peel_sequential(q, 2.5)):
            with pytest.raises(DomainError, match="^peeling depth must be an integer"):
                build()

    def test_numpy_integers_are_integers(self):
        _, obs = observe("generic")
        cfg = InversionConfig(order=np.int64(8), depth=np.int32(3), burn_in=np.int64(2),
                              deriv=DerivativeScheme(np.int64(5), np.int16(2)))
        expect = invert(obs, InversionConfig(order=8, depth=3, deriv=DerivativeScheme(5, 2)))
        assert_same_reconstruction(invert(obs, cfg), expect)
