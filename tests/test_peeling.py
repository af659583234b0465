"""Exponential-sum peeling tests, run against synthetic sums independent of the PDE."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from heatinv import (
    DataError,
    DomainError,
    GridFn,
    InversionConfig,
    NoiseSpec,
    PeelPlan,
    ScheduleError,
    compute_w,
    extract_g13,
    make_observations,
    make_problem,
    peel_lsq,
    peel_sequential,
    plan_peel,
    recover_vh,
)
from heatinv import inverse
from heatinv.inverse import _noise_floor, _provisional_fit

SQ = math.sqrt(2.0 / math.pi)


def design(t, depth):
    """The whole (n, depth) exponential design e^{-k^2 t}, k = 1..depth."""
    return np.exp(np.outer(t, -np.arange(1, depth + 1) ** 2))


def model_schedule_reference(q, depth, window=None):
    """plan_peel's 'model' schedule with the forecast summed term by term over
    the whole grid, each argmin np.argmin's, and no overflow handling; where
    nothing overflows (depth <= 10 on T = 6) the two must agree bit for bit.
    The noise envelope is summed over k in turn at every sample, as the
    schedule sums it at the samples its search reads."""
    b_abs, sigma = _noise_floor(q, depth, _provisional_fit(q, depth))
    sigma = max(sigma, 1e-300)
    t, dt = q.times, q.dt
    decay = np.exp(np.outer(-np.arange(1, depth + 2) ** 2, t))
    noise = sigma + 4.0 * np.finfo(float).eps * (b_abs[:, None] * decay).sum(axis=0)
    times, errs = np.empty(depth), np.empty(depth)
    for m in range(1, depth + 1):
        w = window or max(1, min(int(round(0.25 / (m * m * dt))), max(1, q.n // 8))) | 1
        model = noise * np.exp(m * m * t) / math.sqrt(w)
        for k in range(m + 1, depth + 2):
            model = model + b_abs[k - 1] * np.exp(-(k * k - m * m) * t)
        for k in range(1, m):
            model = model + errs[k - 1] * np.exp((m * m - k * k) * t)
        i = int(np.argmin(model))
        times[m - 1], errs[m - 1] = t[i], model[i]
    return times, errs


def forecast_at_plan(q, plan):
    """plan.predicted recomputed at plan.times, each sample alone: err_m with
    the noise envelope summed over the fitted modes k in turn, then the
    truncation and inherited terms added in the schedule's order."""
    fit = _provisional_fit(q, plan.times.size)
    b_abs, sigma = _noise_floor(q, plan.times.size, fit)
    fitted, errs = fit[0].size, []
    for m, (t, w) in enumerate(zip(plan.times, plan.windows), 1):
        terms = b_abs[:fitted] * np.exp(-np.arange(1, fitted + 1) ** 2 * t)
        env = 0.0
        for term in terms:
            env += term
        model = (max(sigma, 1e-300) + 4.0 * np.finfo(float).eps * env) * np.exp(m * m * t) \
            / math.sqrt(w)
        for k in range(m + 1, fitted + 1):
            model += np.exp((m * m - k * k) * t) * b_abs[k - 1]
        for k in range(1, m):
            model += np.exp((m * m - k * k) * t) * errs[k - 1]
        errs.append(model)
    return np.array(errs)


def exp_sum(b, t_final, dt, noise=0.0, seed=0):
    t = np.arange(round(t_final / dt) + 1) * dt
    q = np.exp(-np.outer(t, np.arange(1, len(b) + 1) ** 2)) @ np.asarray(b, dtype=float)
    if noise:
        q = q + noise * np.random.default_rng(seed).standard_normal(q.size)
    return GridFn(0.0, dt, q)


class TestPeelSequential:
    def test_single_exponential_exact_anywhere(self):
        b1 = SQ * math.sin(1.0)
        q = exp_sum([b1], 4.0, 1e-3)
        for t1 in (0.1, 1.0, 3.5):
            res = peel_sequential(q, 1, plan=PeelPlan([t1]))
            assert res.b_hat[0] == pytest.approx(b1, abs=1e-12)

    def test_zero_input(self):
        q = GridFn(0.0, 1e-3, np.zeros(4001))
        res = peel_sequential(q, 3, plan=PeelPlan([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(res.b_hat, 0.0)

    def test_three_modes_default_schedule(self):
        b = (1.0, 0.5, 0.25)
        q = exp_sum(b, 12.0, 1e-3)
        res = peel_sequential(q, 3)
        np.testing.assert_allclose(res.b_hat, b, atol=1e-6)

    def test_schedule_beyond_horizon_rejected(self):
        q = exp_sum([1.0], 2.0, 1e-3)
        with pytest.raises(ScheduleError):
            peel_sequential(q, 1, plan=PeelPlan([3.0]))

    def test_wrong_number_of_times(self):
        q = exp_sum([1.0, 0.5], 2.0, 1e-3)
        with pytest.raises(ScheduleError):
            peel_sequential(q, 2, plan=PeelPlan([1.0]))

    def test_overflowing_multiplier_rejected_before_any_exp(self):
        q = exp_sum([1.0 / m for m in range(1, 11)], 10.0, 1e-2)
        plan = PeelPlan([1.0] * 9 + [8.0])  # 10^2 * 8 = 800 > log(max float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match="mode 10 at t = 8:"):
                peel_sequential(q, 10, plan=plan)
        # 100 * 7.09 is below the limit, but a window reaching 7.1 is not
        peel_sequential(q, 10, plan=PeelPlan([1.0] * 9 + [7.09]))
        with pytest.raises(ScheduleError, match="mode 10 at t = 7.1:"):
            peel_sequential(q, 10, plan=PeelPlan([1.0] * 9 + [7.09], [1] * 9 + [3]))

    def test_amplification_cap_warns_not_fails(self):
        q = exp_sum([1.0, 0.5], 6.0, 1e-3)
        res = peel_sequential(q, 2, plan=PeelPlan([6.0, 5.0]), amplification_cap=10.0)
        assert len(res.warnings) == 2
        assert "amplification" in res.warnings[0]

    def test_noisy_recovery_reasonable(self):
        b = (1.0, 0.5)
        q = exp_sum(b, 6.0, 1e-3, noise=1e-6, seed=3)
        res = peel_sequential(q, 2)
        np.testing.assert_allclose(res.b_hat, b, atol=1e-4)


class TestStacks:
    @pytest.mark.parametrize("peel", [
        lambda s: peel_lsq(s, 2),
        lambda s: plan_peel(s, 2, method="model"),
        lambda s: plan_peel(s, 2, method="balance"),
        lambda s: peel_sequential(s, 2),
    ], ids=["peel_lsq", "plan_peel-model", "plan_peel-balance", "peel_sequential"])
    def test_a_one_record_fit_refuses_a_stack(self, peel):
        # each raised numpy's bare ValueError "could not broadcast input array"
        q = exp_sum([1.0, 0.5], 2.0, 1e-2)
        with pytest.raises(DataError, match="^peel_lsq fits one record, got a stack of 2 rows$"):
            peel(GridFn.stack([q, q]))

    def test_a_stack_peels_on_a_given_plan_or_the_ladder(self):
        q = exp_sum([1.0, 0.5], 2.0, 1e-2)
        stack = GridFn.stack([q, q])
        for plan in (PeelPlan([1.0, 0.5]), plan_peel(stack, 2, method="ladder")):
            lone = peel_sequential(q, 2, plan=plan).b_hat
            np.testing.assert_array_equal(peel_sequential(stack, 2, plan=plan).b_hat, [lone, lone])


class TestPeelLsq:
    def test_matches_sequential_on_clean_three_modes(self):
        b = (1.0, 0.5, 0.25)
        q = exp_sum(b, 12.0, 1e-3)
        seq = peel_sequential(q, 3)
        lsq, cond = peel_lsq(q, 3)
        np.testing.assert_allclose(seq.b_hat, lsq, atol=1e-8)
        assert cond < 1e3

    def test_zero_input_any_ridge(self):
        q = GridFn(0.0, 1e-3, np.zeros(2001))
        for reg in (0.0, 1e-8, 1e-2):
            sol, _ = peel_lsq(q, 3, reg=reg)
            np.testing.assert_array_equal(sol, 0.0)

    def test_condition_grows_with_depth(self):
        q = exp_sum([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03], 4.0, 1e-3)
        conds = [peel_lsq(q, d)[1] for d in range(1, 7)]
        assert all(a < b for a, b in zip(conds, conds[1:]))

    def test_short_grid_rejected(self):
        q = GridFn(0.0, 1e-3, np.ones(3))
        with pytest.raises(DataError):
            peel_lsq(q, 4)

    def test_ridge_biases_towards_zero(self):
        b = (1.0, 0.5)
        q = exp_sum(b, 4.0, 1e-3)
        loose, _ = peel_lsq(q, 2, reg=0.0)
        tight, _ = peel_lsq(q, 2, reg=1e3)
        assert np.linalg.norm(tight) < np.linalg.norm(loose)

    @pytest.mark.parametrize("t_final, dt", [(4.0, 1e-3), (12.0, 1e-3), (6.0, 1e-4)])
    def test_condition_number_is_the_designs(self, t_final, dt):
        q = exp_sum([1.0, 0.5, 0.25, 0.125], t_final, dt)
        for d in range(1, 9):
            cond = np.linalg.cond(design(q.times, d))
            assert peel_lsq(q, d)[1] == pytest.approx(cond, rel=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    @pytest.mark.parametrize("reg", [0.0, 1e-12, 1e-2])
    def test_solution_matches_lstsq_on_the_design(self, reg, noise):
        eps = np.finfo(float).eps
        for t_final, dt in ((4.0, 1e-3), (12.0, 1e-3), (6.0, 1e-4)):
            q = exp_sum([1.0, 0.5, 0.25, 0.125], t_final, dt, noise=noise, seed=3)
            for d in range(1, 6):
                # the reference: lstsq on the n x d design, ridge rows stacked under it
                a, rhs = design(q.times, d), q.values
                if reg > 0.0:
                    a = np.vstack([a, math.sqrt(reg) * np.eye(d)])
                    rhs = np.concatenate([rhs, np.zeros(d)])
                expect = np.linalg.lstsq(a, rhs, rcond=None)[0]
                b, cond = peel_lsq(q, d, reg=reg)
                tol = 100.0 * eps * cond * np.abs(expect).max()
                np.testing.assert_allclose(b, expect, rtol=0.0, atol=tol)

    def test_rank_deficient_design(self):
        t = np.arange(10) * 1e-6
        q = GridFn(0.0, 1e-6, np.exp(-t) + 0.5 * np.exp(-4.0 * t))
        with pytest.raises(DataError, match=r"rank deficient \(rank 4 < depth 6"):
            peel_lsq(q, 6)
        b, _ = peel_lsq(q, 6, reg=1e-12)
        assert np.all(np.isfinite(b))

    @pytest.mark.parametrize("reg", [-1.0, math.nan])
    def test_ridge_must_be_non_negative(self, reg):
        # 11 samples at depth 9 give rank 8: reg = 0 says so, and a negative or
        # NaN ridge must not skip that check and return coefficients
        q = exp_sum([1.0, 0.5], 0.01, 1e-3)
        with pytest.raises(DataError, match=r"rank 8 < depth 9"):
            peel_lsq(q, 9)
        with pytest.raises(DomainError, match="ridge must be >= 0"):
            peel_lsq(q, 9, reg=reg)
        with pytest.raises(DomainError, match="ridge must be >= 0"):
            InversionConfig(ridge=reg)

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_rule_has_one_message(self, depth):
        q = exp_sum([1.0, 0.5], 0.01, 1e-3)
        messages = set()
        for build in (lambda: peel_lsq(q, depth), lambda: plan_peel(q, depth),
                      lambda: InversionConfig(depth=depth)):
            with pytest.raises(DomainError) as exc:
                build()
            messages.add(str(exc.value))
        assert messages == {f"peeling depth must be >= 1, got {depth}"}

    @pytest.mark.parametrize("depth", [102, 200, 2 ** 62])
    def test_depth_above_the_samples_is_refused(self, depth):
        # depth 200 on 101 samples gave a 'model' plan and a b_hat with no
        # warning, and a huge depth built one window per mode without end
        q = exp_sum([1.0, 0.5], 1.0, 1e-2)
        stack = GridFn.stack([q, q])
        text = f"^grid of 101 samples cannot support depth {depth}$"
        builds = [lambda: peel_lsq(q, depth), lambda: plan_peel(q, depth),
                  lambda: plan_peel(stack, depth, method="ladder"),
                  lambda: peel_sequential(q, depth)]
        if depth <= 200:  # a given plan of 2^62 times would not fit in memory
            builds.append(lambda: peel_sequential(stack, depth, plan=PeelPlan([0.5] * depth)))
        for build in builds:
            with pytest.raises(DataError, match=text):
                build()

    def test_rank_cut_scales_with_the_record_length(self):
        # 1 / cond lies between eps * depth and eps * n: deficient for the n x depth design
        t = np.arange(1000) * 5e-7
        q = GridFn(0.0, 5e-7, np.exp(-t))
        cond = np.linalg.cond(design(t, 5))
        assert 1.0 / (1000 * np.finfo(float).eps) < cond < 1.0 / (5 * np.finfo(float).eps)
        with pytest.raises(DataError, match=r"rank deficient \(rank 4 < depth 5"):
            peel_lsq(q, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_floor_of_short_records(self, n):
        q = GridFn(0.0, 1e-3, np.linspace(1.0, 0.5, n))
        _, sigma = _noise_floor(q, 3, _provisional_fit(q, 3))
        assert math.isfinite(sigma)


class TestPlanPeel:
    def test_ladder_times(self):
        q = exp_sum([1.0], 2.0, 1e-2)
        plan = plan_peel(q, 4, method="ladder")
        np.testing.assert_allclose(plan.times, [1.0, 0.5, 1.0 / 3.0, 0.25])

    def test_ladder_amplification_strictly_increases(self):
        # t_m = (T/2) / m, so the factors e^{m^2 t_m} = e^{m T/2} grow with m
        q = GridFn(0.0, 1e-2, np.zeros(401))
        res = peel_sequential(q, 5, plan=plan_peel(q, 5, method="ladder"))
        assert np.all(np.diff(res.amplification) > 0.0)

    def test_model_times_decrease(self):
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 12.0, 1e-3)
        plan = plan_peel(q, 4)
        assert all(a >= b for a, b in zip(plan.times, plan.times[1:]))

    @pytest.mark.parametrize("method", ["model", "balance"])
    def test_huge_record_scales_the_plan(self, method):
        # the noise floor of 2**1000 q overflows its mean square unless it is
        # rescaled; the plan must scale exactly as q does, with no warning
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 6.0, 1e-3, noise=1e-6, seed=1)
        huge = GridFn(q.t0, q.dt, 2.0 ** 1000 * q.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, sigma = _noise_floor(huge, 3, _provisional_fit(huge, 3))
            plan = plan_peel(huge, 3, method=method)
        expect = plan_peel(q, 3, method=method)
        assert sigma == pytest.approx(2.0 ** 1000 * _noise_floor(q, 3, _provisional_fit(q, 3))[1],
                                      rel=1e-14)
        np.testing.assert_array_equal(plan.times, expect.times)
        if method == "model":
            assert np.all(np.isfinite(plan.predicted))
            np.testing.assert_allclose(plan.predicted, 2.0 ** 1000 * expect.predicted, rtol=1e-14)

    def test_balance_rule_matches_formula(self):
        b = (1.0, 0.5, 0.25)
        q = exp_sum(b, 12.0, 1e-3)
        _, sigma = _noise_floor(q, 2, _provisional_fit(q, 2))
        plan = plan_peel(q, 2, method="balance")
        # t_m = log(|b_{m+1}|/sigma) / (m^2 + (m+1)^2), |b| and sigma from
        # the provisional fit, whose |b| is accurate on clean data
        expect1 = math.log(0.5 / sigma) / 5.0
        expect2 = math.log(0.25 / sigma) / 13.0
        assert plan.times[0] == pytest.approx(expect1, rel=1e-3)
        assert plan.times[1] == pytest.approx(expect2, rel=1e-3)

    def test_balance_reads_a_mode_at_the_start_below_the_noise_floor(self):
        # q holds mode 1 alone: the fitted |b_2| lies under the noise floor
        # sigma, so log(|b_2| / sigma) < 0 has no time and mode 1 is read at t0
        q = exp_sum([1.0], 6.0, 1e-3, noise=1e-6, seed=1)
        b_abs, sigma = _noise_floor(q, 1, _provisional_fit(q, 1))
        assert b_abs[1] <= sigma
        assert plan_peel(q, 1, method="balance").times.tolist() == [q.t0]

    def test_model_schedule_matches_reference_bit_for_bit(self):
        q = exp_sum([1.0 / m for m in range(1, 12)], 6.0, 1e-3)
        for depth in range(1, 11):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = plan_peel(q, depth)
                times, errs = model_schedule_reference(q, depth)
            np.testing.assert_array_equal(plan.times, times)
            np.testing.assert_array_equal(plan.predicted, errs)

    @pytest.mark.parametrize("noise", [0.0, 1e-8, 1e-4])
    @pytest.mark.parametrize("seed", range(5))
    def test_bounded_model_matches_reference_bit_for_bit(self, noise, seed):
        # each mode's forecast is evaluated at every 64th sample and around the
        # coarse minimum only; its argmin and minimum must be those of the
        # full-length forecast
        q = exp_sum([1.0 / m for m in range(1, 12)], 6.0, 1e-3, noise=noise, seed=seed)
        for depth in range(1, 11):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = plan_peel(q, depth)
                times, errs = model_schedule_reference(q, depth)
            np.testing.assert_array_equal(plan.times, times)
            np.testing.assert_array_equal(plan.predicted, errs)

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129, 4097])
    def test_searched_model_matches_reference_at_each_last_partial_64(self, n, noise):
        # records that end at each class of their last partial 64 of samples,
        # down to one coarse sample (n <= 64): the search reads the envelope at
        # its own samples alone, yet its argmin and minimum are the whole grid's
        q = exp_sum([1.0 / m for m in range(1, 10)], 6.0, 6.0 / (n - 1), noise=noise, seed=n)
        assert q.n == n
        for depth in range(1, min(8, n - 1) + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = plan_peel(q, depth)
                times, errs = model_schedule_reference(q, depth)
            np.testing.assert_array_equal(plan.times, times)
            np.testing.assert_array_equal(plan.predicted, errs)

    @pytest.mark.parametrize("y", [1.0, 2.0])
    @pytest.mark.parametrize("noise", [0.0, 1e-8, 1e-4])
    def test_searched_model_matches_full_grid_on_a_long_record(self, noise, y):
        # the forecast is searched at every 64th sample and around the coarse
        # minimum; on a 60 001-sample q of many design tiles (the invert-long
        # record) its argmin and minimum must be those of the whole grid
        problem = make_problem("generic", 16, 6.0, 1e-4)
        obs = make_observations(problem, y, NoiseSpec("relative", noise, 0) if noise else None)
        v_hat, h_hat = recover_vh(obs, *extract_g13(obs))
        q = obs.uy - compute_w(v_hat, h_hat, y, 16)
        for depth in range(1, 9):
            for window in (None, 1, 5):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    plan = plan_peel(q, depth, window=window)
                    times, errs = model_schedule_reference(q, depth, window)
                np.testing.assert_array_equal(plan.times, times)
                np.testing.assert_array_equal(plan.predicted, errs)

    @pytest.mark.parametrize("b", [[1.7, 1.7, 1.3, 0.9, 0.6], [1.1, 1.9, 0.9, 0.6, 1.0],
                                   [1.0, 0.5, 1.0 / 3, 0.25, 0.2]])
    def test_model_forecast_keeps_the_envelope_bits(self, b):
        # the last quarter of these clean records underflows to 0, so the noise
        # scale is 0 and the noise term 4 eps env(t) alone, with several modes
        # in env at the chosen samples: the envelope summed in reverse k order,
        # or by gemv, moves a last bit of predicted
        q = exp_sum(b, 1000.0, 0.5)
        assert _noise_floor(q, 4, _provisional_fit(q, 4))[1] == 0.0
        plan = plan_peel(q, 4)
        np.testing.assert_array_equal(plan.predicted, forecast_at_plan(q, plan))

    @pytest.mark.parametrize("q, depth, predicted", [
        (GridFn(-100.0, 1.0, [1.0, 2.0, 0.5]), 2, [5.244554405699817e-44, 3.6569205275944076e-174]),
        (GridFn(-200.0, 1.0, [1.0, 2.0]), 1, [1.9894440047167449e-87]),
    ])
    def test_model_sums_only_the_fitted_modes(self, q, depth, predicted):
        # a record of at most depth + 1 samples fits fewer modes; on one that
        # starts far before t = 0 a padded |b_k| = 0 times an exponential that
        # overflows made the forecast nan, with numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = plan_peel(q, depth)
        np.testing.assert_allclose(plan.predicted, predicted, rtol=1e-12)
        np.testing.assert_array_equal(plan.predicted, forecast_at_plan(q, plan))

    @pytest.mark.parametrize("method", ["model", "balance"])
    def test_condition_of_the_provisional_fit(self, method):
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 6.0, 1e-3, noise=1e-6)
        for depth in range(1, 9):
            plan = plan_peel(q, depth, method=method)
            assert plan.condition == pytest.approx(peel_lsq(q, depth)[1], rel=1e-13, abs=0.0)
        assert plan_peel(q, 4, method="ladder").condition is None
        # a record of depth samples has no depth + 1 mode fit to read it from
        assert plan_peel(GridFn(0.0, 1e-3, np.linspace(1.0, 0.5, 4)), 4).condition is None

    def test_windows_odd_and_adaptive(self):
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 12.0, 1e-3)
        plan = plan_peel(q, 4)
        assert np.all(plan.windows % 2 == 1)
        assert np.all(np.diff(plan.windows) <= 0)  # narrower for faster modes

    @pytest.mark.parametrize("window", [4, 0, -3, 3.5])
    def test_given_window_must_be_odd_and_positive(self, window):
        q = exp_sum([1.0, 0.5], 12.0, 1e-3)
        with pytest.raises(ScheduleError, match=f"window must be odd and >= 1, got {window}"):
            plan_peel(q, 2, window=window)
        assert np.all(plan_peel(q, 2, window=5).windows == 5)

    def test_unknown_method(self):
        q = exp_sum([1.0], 2.0, 1e-2)
        with pytest.raises(ScheduleError):
            plan_peel(q, 1, method="nonsense")


class TestPeelPlan:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ScheduleError, match="finite"):
            PeelPlan([bad, 1.0])

    @pytest.mark.parametrize("windows", [[3.7], [4], [0], [math.nan]])
    def test_windows_must_be_odd_whole_numbers(self, windows):
        with pytest.raises(ScheduleError, match=f"window must be odd and >= 1, got {windows[0]}"):
            PeelPlan([1.0], windows)
        assert PeelPlan([1.0, 2.0], [3.0, 5]).windows.tolist() == [3, 5]

    def test_condition_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            PeelPlan([1.0], condition=1.0)
        assert PeelPlan([1.0]).condition is None


class TestTiledFit:
    """[design | q] fitted in row tiles (a small _FIT_TILE_ELEMENTS) against one tile."""

    # tiles hold max(64, elements // width // 64 * 64) rows: 64 at every width,
    # 64 to 1024 and 384 to 4992 rows at the widths 1..12 used here
    @pytest.fixture(params=[1, 1024, 5000], ids=["64-row-tiles", "few-row-tiles", "long-tiles"])
    def tile_elements(self, request):
        return request.param

    @pytest.mark.parametrize("reg", [0.0, 1e-12])
    def test_one_tile_is_one_qr_of_the_whole(self, reg):
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 4.0, 1e-3, noise=1e-6, seed=3)
        for d in range(1, 7):
            assert q.n * (d + 1) <= inverse._FIT_TILE_ELEMENTS
            aq = np.empty((q.n, d + 1), order="F")
            aq[:, :d] = design(q.times, d)
            aq[:, d] = q.values
            r = np.linalg.qr(aq, mode="r")
            a, rhs = r[:d, :d], r[:d, d]
            if reg > 0.0:
                a = np.vstack([a, math.sqrt(reg) * np.eye(d)])
                rhs = np.concatenate([rhs, np.zeros(d)])
            b = np.linalg.lstsq(a, rhs, rcond=np.finfo(float).eps * q.n)[0]
            fit = peel_lsq(q, d, reg=reg)
            np.testing.assert_array_equal(fit.r, r)
            np.testing.assert_array_equal(fit[0], b)
            assert fit[1] == float(np.linalg.cond(r[:d, :d]))

    @pytest.mark.parametrize("reg", [0.0, 1e-12])
    def test_tiles_match_one_tile(self, reg, tile_elements, monkeypatch):
        eps = np.finfo(float).eps
        q = exp_sum([1.0, 0.5, 0.25, 0.125], 4.0, 1e-3, noise=1e-6, seed=3)
        one_tile = [peel_lsq(q, d, reg=reg) for d in range(1, 7)]
        monkeypatch.setattr(inverse, "_FIT_TILE_ELEMENTS", tile_elements)
        for d, (b_one, cond_one) in enumerate(one_tile, start=1):
            b, cond = peel_lsq(q, d, reg=reg)
            tol = 100.0 * eps * cond_one * np.abs(b_one).max()
            np.testing.assert_allclose(b, b_one, rtol=0.0, atol=tol)
            assert cond == pytest.approx(cond_one, rel=1e-12, abs=0.0)

    def test_exp_sums_keep_the_bits_of_the_whole_decay(self, tile_elements, monkeypatch):
        # the self-consistency model b @ e^{-k^2 t}, built a design tile at a time,
        # over the whole grid and over the noise floor's tail from int(0.75 n)
        rng = np.random.default_rng(5)
        grid = GridFn(0.004, 2e-3, np.zeros(3001))
        k = int(0.75 * grid.n)
        monkeypatch.setattr(inverse, "_FIT_TILE_ELEMENTS", tile_elements)
        for d in range(1, 7):
            b = rng.standard_normal((3, d)) * 10.0 ** rng.uniform(-3, 3, d)
            decay = np.exp(-np.outer(np.arange(1, d + 1) ** 2, grid.times))
            np.testing.assert_array_equal(inverse._exp_sums(b, grid), [row @ decay for row in b])
            np.testing.assert_array_equal(inverse._exp_sums(b, grid, k),
                                          [row @ decay[:, k:] for row in b])

    def test_rank_deficient_design_across_tiles(self, tile_elements, monkeypatch):
        monkeypatch.setattr(inverse, "_FIT_TILE_ELEMENTS", tile_elements)
        t = np.arange(10) * 1e-6
        q = GridFn(0.0, 1e-6, np.exp(-t) + 0.5 * np.exp(-4.0 * t))
        with pytest.raises(DataError, match=r"rank deficient \(rank 4 < depth 6"):
            peel_lsq(q, 6)
        t = np.arange(1000) * 5e-7
        with pytest.raises(DataError, match=r"rank deficient \(rank 4 < depth 5"):
            peel_lsq(GridFn(0.0, 5e-7, np.exp(-t)), 5)

    @pytest.mark.parametrize("tile_elements", [1024, 5000], ids=["few-row-tiles", "long-tiles"])
    @pytest.mark.parametrize("noise", [0.0, 1e-8, 1e-4])
    def test_plans_match_across_tiles(self, noise, tile_elements, monkeypatch):
        q = exp_sum([1.0 / m for m in range(1, 12)], 6.0, 1e-3, noise=noise, seed=0)
        one_tile = [plan_peel(q, depth) for depth in range(1, 11)]
        monkeypatch.setattr(inverse, "_FIT_TILE_ELEMENTS", tile_elements)
        for depth, expect in enumerate(one_tile, start=1):
            plan = plan_peel(q, depth)
            np.testing.assert_array_equal(plan.times, expect.times)
            # at depth 10 on the clean grid the provisional fit holds all 11
            # modes of q: sigma is the rounding of its residual and moves by
            # tens of percent between tilings, the forecast by up to 2.1e-8
            rtol = 1e-7 if (noise, depth) == (0.0, 10) else 1e-8
            np.testing.assert_allclose(plan.predicted, expect.predicted, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n", [60_001, 240_001])
    def test_memory_does_not_grow_with_the_record(self, n):
        # the fit holds one tile and LAPACK's copies of it: under 2 MiB at
        # either length, where a whole-record design took 5.5 and 22 MiB
        t = np.arange(n) * 1e-4
        q = GridFn(0.0, 1e-4, np.exp(-t) + 0.5 * np.exp(-4.0 * t))
        tracemalloc.start()
        try:
            peel_lsq(q, 5, reg=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestDesignMatrix:
    def test_columns_are_mode_decays(self, monkeypatch):
        # the design tiles of a grid, gathered: e^{-k^2 t} at the bits of grid.times
        monkeypatch.setattr(inverse, "_FIT_TILE_ELEMENTS", 1)
        grid = GridFn(0.004, 2e-3, np.zeros(1001))
        tiles = [(s, e, tile.copy(order="A")) for s, e, tile in inverse._design_tiles(grid, 3, 1)]
        assert [(s, e) for s, e, _ in tiles] == [(s, min(s + 64, 1001)) for s in range(0, 1001, 64)]
        assert all(tile.shape == (e - s, 4) and tile.flags.f_contiguous for s, e, tile in tiles)
        a = np.vstack([tile[:, :3] for _, _, tile in tiles])
        np.testing.assert_array_equal(a, design(grid.times, 3))
        np.testing.assert_allclose(a[:, 0], np.exp(-grid.times))
        np.testing.assert_allclose(a[:, 2], np.exp(-9.0 * grid.times))

    def test_same_time_plan_degenerates(self):
        # evaluating every mode at one common time telescopes the bracket to
        # zero; the plan builders must never emit such a schedule
        b = (1.0, 0.5, 0.25)
        q = exp_sum(b, 4.0, 1e-3)
        res = peel_sequential(q, 3, plan=PeelPlan([2.0, 2.0, 2.0]))
        assert res.b_hat[1] == pytest.approx(0.0, abs=1e-12)
        assert res.b_hat[2] == pytest.approx(0.0, abs=1e-9)
