"""Noise-study harness tests: determinism, baselines, failure recording."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from heatinv import (
    ConfigError,
    DataError,
    DomainError,
    GridFn,
    HeatInvError,
    InversionConfig,
    NoiseSpec,
    invert,
    make_observations,
    make_problem,
    peel_lsq,
    rel_l2,
    run_noise_study,
)
import heatinv.grid
import heatinv.inverse
import heatinv.regularize
from heatinv.cli import main
from heatinv.io import ExperimentConfig
from heatinv.regularize import check_study


@pytest.fixture(scope="module")
def fourmode_problem():
    return make_problem("fourmode", 8, 4.0, 2e-3)


@pytest.fixture
def stack_calls(monkeypatch):
    """The rows, as values (u1, u3, uy), of every stack a noise study solves."""
    calls = []
    real = heatinv.regularize._solve_stacked

    def counting(obs, cfg, cond=None, **kwargs):
        calls.append(list(zip(obs.u1.values, obs.u3.values, obs.uy.values)))
        return real(obs, cfg, cond, **kwargs)

    monkeypatch.setattr(heatinv.regularize, "_solve_stacked", counting)
    return calls


@pytest.fixture
def lsq_calls(monkeypatch):
    """The (depth, reg) of every peel_lsq call the inversion stages make."""
    calls = []
    real = heatinv.inverse.peel_lsq

    def counting(q, depth, reg=0.0):
        calls.append((depth, reg))
        return real(q, depth, reg)

    monkeypatch.setattr(heatinv.inverse, "peel_lsq", counting)
    return calls


def _is_clean(row, clean) -> bool:
    return all(np.array_equal(values, getattr(clean, name).values)
               for values, name in zip(row, ("u1", "u3", "uy")))


class TestRunNoiseStudy:
    def test_zero_level_equals_clean_baseline(self, fourmode_problem):
        p = fourmode_problem
        cfg = InversionConfig(order=8, depth=4, schedule_method="ladder", window=1)
        study = run_noise_study(p, 1.0, levels=[0.0], trials=1, cfg=cfg, base_seed=9)
        rec = invert(make_observations(p, 1.0), cfg)
        r = study.records[0]
        assert r.ok
        np.testing.assert_array_equal(r.b_err, np.abs(rec.b_hat - study.b_true))
        t = rec.h_hat.times
        assert r.h_rel_l2 == pytest.approx(
            rel_l2(rec.h_hat.values, 1.0 + np.cos(t)), abs=1e-12
        )

    def test_deterministic_rerun(self, fourmode_problem):
        kw = dict(levels=[0.0, 1e-5], trials=3, base_seed=21)
        a = run_noise_study(fourmode_problem, 1.0, **kw)
        b = run_noise_study(fourmode_problem, 1.0, **kw)
        for ra, rb in zip(a.records, b.records):
            assert ra.seed == rb.seed
            np.testing.assert_array_equal(ra.b_err, rb.b_err)
            assert ra.h_rel_l2 == rb.h_rel_l2

    def test_distinct_seeds_across_trials(self, fourmode_problem):
        study = run_noise_study(fourmode_problem, 1.0, levels=[1e-5, 1e-4], trials=4,
                                base_seed=0)
        seeds = [r.seed for r in study.records]
        assert len(set(seeds)) == len(seeds)

    def test_monotone_mode_errors(self, fourmode_problem):
        study = run_noise_study(fourmode_problem, 1.0, levels=[1e-6, 1e-4], trials=5,
                                base_seed=3)
        for lv in (1e-6, 1e-4):
            assert np.all(np.diff(study.mean_b_err(lv)) >= 0.0)
            assert np.all(np.diff(study.mean_g_err(lv)) >= 0.0)

    def test_noise_scaling_of_h_error(self, fourmode_problem):
        study = run_noise_study(fourmode_problem, 1.0, levels=[1e-6, 1e-5, 1e-4],
                                trials=8, base_seed=5)
        errs = [study.mean_h_err(lv) for lv in (1e-6, 1e-5, 1e-4)]
        # differentiation amplification is linear in the noise level; allow a
        # factor-3 band around the exact decade ratios
        assert 10.0 / 3.0 < errs[1] / errs[0] < 30.0
        assert 10.0 / 3.0 < errs[2] / errs[1] < 30.0

    def test_failed_trial_recorded_not_raised(self):
        # 4 samples cannot support the derivative stencil with burn-in 2
        p = make_problem("fourmode", 8, 6e-3, 2e-3)
        study = run_noise_study(p, 1.0, levels=[0.0], trials=2, base_seed=0)
        assert study.n_failed() == 2
        assert all(not r.ok and r.message for r in study.records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for aggregate in (study.mean_b_err, study.mean_g_err, study.max_g_err,
                              study.mean_h_err, study.mean_v_err):
                with pytest.raises(DataError):
                    aggregate(0.0)

    @pytest.mark.parametrize("t_final, levels", [
        (6e-3, [0.0, 1e-3]),   # every chunk fails: 4 samples are too few to differentiate
        (4.0, [0.0, 1e305]),   # a chunk mixes clean rows with rows that overflow
    ])
    def test_failing_chunk_records_lone_messages(self, t_final, levels):
        p = make_problem("fourmode", 8, t_final, 2e-3)
        cfg = InversionConfig(order=8, schedule_method="ladder", window=1)
        study = run_noise_study(p, 1.0, levels, trials=3, cfg=cfg, base_seed=2)
        lone = []
        for r in study.records:
            try:
                noisy = NoiseSpec("relative", r.level, r.seed).apply(make_observations(p, 1.0))
                lone.append((True, "", invert(noisy, cfg).b_hat))
            except HeatInvError as exc:
                lone.append((False, str(exc), None))
        assert study.n_failed() == (6 if t_final < 1 else 3)
        for r, (ok, message, b_hat) in zip(study.records, lone):
            assert (r.ok, r.message) == (ok, message)
            if ok:
                np.testing.assert_array_equal(r.b_err, np.abs(b_hat - study.b_true))

    @pytest.mark.parametrize("level, stages", [
        (1e305, {"stage 'compute_w': ", "stage 'recover_vh': "}),  # _extend_to_zero's slope, h
        (1e308, {"noise level 1e+308 (seed N) overflows the data"}),  # the noise draw itself
    ])
    def test_overflow_fails_with_a_data_error(self, level, stages):
        # run under the project's filterwarnings = error: a RuntimeWarning
        # would become the trial's message instead of the DataError
        p = make_problem("generic", 8, 0.5, 0.01)
        study = run_noise_study(p, 1.0, [0.0, level], trials=2)
        failed = [r.message.replace(f"(seed {r.seed})", "(seed N)")
                  for r in study.records if not r.ok]
        assert len(failed) == 2
        assert {m.removesuffix("grid values contain non-finite entries") for m in failed} == stages

    def test_huge_finite_noise_keeps_errors_finite(self, fourmode_problem):
        # the noisy rows invert; their errors near 1e302 must stay finite and silent
        cfg = InversionConfig(order=8, schedule_method="ladder", window=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = run_noise_study(fourmode_problem, 1.0, [0.0, 1e300], trials=3, cfg=cfg,
                                    base_seed=2)
        noisy = study.records_at(1e300)
        assert study.n_failed() == 0 and len(noisy) == 3
        for r in noisy:
            assert math.isfinite(r.v_rel_l2) and math.isfinite(r.h_rel_l2)
            assert r.v_rel_l2 > 1e200
        assert math.isfinite(study.mean_v_err(1e300))

    def test_chunked_stack_memory_bounded(self, fourmode_problem):
        # the benchmark's study: 60 trials in chunks of 11, 10, 10 and 10 peak
        # at 2.4 MB; one stack per level takes 8.8 MB.  One draw first: the
        # lazy import of numpy.random (0.76 MB) stays out of the window when
        # this test runs alone
        np.random.default_rng(0).standard_normal()
        tracemalloc.start()
        try:
            run_noise_study(fourmode_problem, 1.0, (0.0, 1e-6, 1e-4), 20, base_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_matches_per_trial_resimulation(self, fourmode_problem):
        # reference: every trial re-simulates its own noisy record; the trials
        # of the zero level share the one clean inversion.  20 trials a level
        # run the noisy records in balanced chunks of at most 12, and the peel
        # condition of the first solve stands in for every later one
        p, trials, base_seed = fourmode_problem, 20, 7
        ladder = InversionConfig(order=p.order, schedule_method="ladder", window=1)
        # the default (ladder, window 1), the 'model' schedule and the lsq peel
        for cfg, lone_cfg in ((None, ladder), (InversionConfig(order=8),) * 2,
                              (InversionConfig(order=8, peel_method="lsq"),) * 2):
            for levels in ((0.0, 1e-6, 1e-4), (0.0, 1e-6)):
                study = run_noise_study(p, 1.0, levels, trials, cfg=cfg, base_seed=base_seed)
                reference = []
                for li, level in enumerate(levels):
                    for trial in range(trials):
                        seed = base_seed + li * trials + trial
                        noise = NoiseSpec("relative" if level > 0 else "none", level, seed)
                        try:
                            obs = make_observations(p, 1.0, noise)
                            reference.append((seed, invert(obs, lone_cfg)))
                        except HeatInvError:
                            reference.append((seed, None))
                assert len(study.records) == len(reference)
                for r, (seed, rec) in zip(study.records, reference):
                    assert r.seed == seed
                    assert r.ok == (rec is not None)
                    if rec is None:
                        continue
                    np.testing.assert_array_equal(r.b_err, np.abs(rec.b_hat - study.b_true))
                    np.testing.assert_array_equal(r.g_err,
                                                  np.abs(rec.g_coeffs.coeffs - study.g_true))
                    k = int(round(rec.v_hat.t0 / rec.v_hat.dt))
                    assert r.v_rel_l2 == rel_l2(rec.v_hat.values, p.v_grid().values[k:])
                    assert r.h_rel_l2 == rel_l2(rec.h_hat.values, p.h_grid().values[k:])
                    assert r.peel_condition == rec.diagnostics.peel_condition

    def test_ladder_study_fits_one_peel_condition(self, fourmode_problem, lsq_calls):
        # the benchmark's study: the clean record and 5 noisy chunks, one peel_lsq
        study = run_noise_study(fourmode_problem, 1.0, (0.0, 1e-6, 1e-4), 20, base_seed=0)
        assert lsq_calls == [(4, heatinv.inverse.PROVISIONAL_RIDGE)]
        assert len({r.peel_condition for r in study.records}) == 1

    def test_failing_first_chunk_keeps_lone_conditions(self, fourmode_problem, stack_calls,
                                                       lsq_calls):
        # no level 0, and the one chunk (6 records at 1e-6, 6 at 1e308) fails
        # at its draw: its records are solved alone, the first that succeeds
        # fits the peel condition, and every later solve reuses it
        p = fourmode_problem
        study = run_noise_study(p, 1.0, (1e-6, 1e308), 6, base_seed=3)
        assert [len(records) for records in stack_calls] == [1] * 6
        assert len(lsq_calls) == 1
        assert [r.ok for r in study.records] == [True] * 6 + [False] * 6
        cfg = InversionConfig(order=8, schedule_method="ladder", window=1)
        for r in study.records_at(1e-6):
            lone = invert(NoiseSpec("relative", 1e-6, r.seed).apply(make_observations(p, 1.0)), cfg)
            assert r.peel_condition == lone.diagnostics.peel_condition
            np.testing.assert_array_equal(r.b_err, np.abs(lone.b_hat - study.b_true))

    def test_unsafe_point_raises(self, fourmode_problem, tmp_path, capsys):
        # sin(2 y) vanishes at y = pi/2: no record can be built, so no trial runs
        with pytest.raises(DomainError, match="unsafe"):
            run_noise_study(fourmode_problem, math.pi / 2, levels=[0.0], trials=2)
        # the config refuses the point at load, so it is written by hand
        (tmp_path / "c.json").write_text(json.dumps(
            {"preset": "fourmode", "order": 8, "t_final": 0.2, "dt": 2e-3, "y": math.pi / 2,
             "levels": [0.0], "trials": 2}))
        out = tmp_path / "out"
        assert main(["study", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not (out / "study.csv").exists()

    def test_truth_sampled_once(self, fourmode_problem, monkeypatch):
        # the benchmark's study: the sampled v and h are the only arrays a
        # GridFn copies, and the forward solve reads the same samples
        copies = []
        real = heatinv.grid._owned_read_only

        def counting(v):
            owned = real(v)
            if not owned:
                copies.append(np.shape(v))
            return owned

        monkeypatch.setattr(heatinv.grid, "_owned_read_only", counting)
        run_noise_study(fourmode_problem, 1.0, (0.0, 1e-6, 1e-4), 20, base_seed=0)
        assert copies == [(2001,), (2001,)]

    def test_huge_noise_floor_is_silent(self):
        # the 'model' schedule's noise floor at level 1e300: its mean square
        # overflows and is rescaled, so sigma stays finite and no warning fires
        p = make_problem("generic", 8, 0.5, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = run_noise_study(p, 1.0, [0.0, 1e300], trials=2, cfg=InversionConfig(order=8))
        assert study.n_failed() == 0
        assert all(math.isfinite(r.v_rel_l2) for r in study.records)

    def test_negative_base_seed_refused(self, fourmode_problem, stack_calls):
        with pytest.raises(DataError, match="seed must be >= 0"):
            run_noise_study(fourmode_problem, 1.0, levels=[0.0, 1e-6], trials=2, base_seed=-1)
        assert stack_calls == []

    def test_validation(self, fourmode_problem):
        with pytest.raises(DomainError):
            run_noise_study(fourmode_problem, 1.0, levels=[1e-4, 1e-6], trials=2)
        with pytest.raises(DomainError):
            run_noise_study(fourmode_problem, 1.0, levels=[-1e-6], trials=2)
        with pytest.raises(DomainError):
            run_noise_study(fourmode_problem, 1.0, levels=[0.0], trials=0)
        with pytest.raises(DomainError, match="^need at least one noise level$"):
            run_noise_study(fourmode_problem, 1.0, levels=[], trials=2)
        with pytest.raises(ConfigError, match="^need at least one noise level$"):
            ExperimentConfig(levels=[])
        for levels in ([float("nan")], [0.0, float("inf")]):
            with pytest.raises(DomainError, match="finite"):
                check_study(levels, 1)
            with pytest.raises(DomainError, match="finite"):
                run_noise_study(fourmode_problem, 1.0, levels=levels, trials=2)

    @pytest.mark.parametrize("levels", [[0.0, 1e-6, 1e-6], [0.0, -0.0], [1e-4, 1e-4]])
    def test_levels_strictly_ascending(self, fourmode_problem, stack_calls, levels):
        # a repeated level printed its error_vs_level.dat row twice, merged its
        # trials in study.json and repeated trial indices in study.csv
        text = f"noise levels must be strictly ascending, got {[float(lv) for lv in levels]}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            run_noise_study(fourmode_problem, 1.0, levels=levels, trials=2)
        assert stack_calls == []
        with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
            ExperimentConfig(levels=levels)

    @pytest.mark.parametrize("trials", [2.5, 2.0, True, "2"])
    def test_trials_an_integer(self, fourmode_problem, trials):
        with pytest.raises(DomainError, match=f"^trials must be an integer, got {re.escape(repr(trials))}$"):
            run_noise_study(fourmode_problem, 1.0, levels=[0.0], trials=trials)
        assert check_study([0.0, 1e-6], np.int64(2)) == [0.0, 1e-6]

    def test_clean_record_inverted_once(self, fourmode_problem, stack_calls):
        # the benchmark's study: 20 level-0 trials share one inversion of the
        # clean record, which leads the 41 distinct records in the fewest
        # chunks of at most 24_576 // 2001 = 12, their sizes balanced
        p = fourmode_problem
        study = run_noise_study(p, 1.0, (0.0, 1e-6, 1e-4), 20, base_seed=0)
        assert [len(records) for records in stack_calls] == [11, 10, 10, 10]
        clean = make_observations(p, 1.0)
        assert [[_is_clean(r, clean) for r in records] for records in stack_calls] \
            == [[True] + [False] * 10] + [[False] * 10] * 3
        assert [(r.ok, r.trial, r.seed) for r in study.records[:20]] \
            == [(True, t, t) for t in range(20)]

    @pytest.mark.parametrize("bound, sizes", [(1, [1] * 41), (5, [5, 5, 4, 5, 4, 5, 4, 5, 4]),
                                              (12, [11, 10, 10, 10]), (20, [14, 14, 13]),
                                              (41, [41]), (64, [41])])
    def test_fewest_balanced_chunks(self, fourmode_problem, stack_calls, monkeypatch, bound,
                                    sizes):
        # the 41 distinct records of the benchmark's study under a bound of
        # `bound` rows: ceil(41 / bound) chunks, whose sizes differ by at most
        # one, and the clean record leads the first
        monkeypatch.setattr(heatinv.regularize, "_CHUNK_SAMPLES", bound * 2001 + 2000)
        run_noise_study(fourmode_problem, 1.0, (0.0, 1e-6, 1e-4), 20, base_seed=0)
        assert [len(records) for records in stack_calls] == sizes
        clean = make_observations(fourmode_problem, 1.0)
        assert [_is_clean(r, clean) for records in stack_calls for r in records] \
            == [True] + [False] * 40

    def test_repeated_zero_levels_invert_once(self, fourmode_problem, stack_calls):
        # a zero level is given once (levels are strictly ascending), and its
        # trials repeat the one clean inversion
        with pytest.raises(DomainError, match="strictly ascending"):
            run_noise_study(fourmode_problem, 1.0, (0.0, 0.0), 3, base_seed=4)
        assert stack_calls == []
        study = run_noise_study(fourmode_problem, 1.0, (0.0,), 3, base_seed=4)
        assert [len(records) for records in stack_calls] == [1]
        assert [(r.level, r.trial, r.seed) for r in study.records] == [
            (0.0, t, 4 + t) for t in range(3)]
        assert study.n_failed() == 0

    def test_failing_clean_record_attempted_once(self, stack_calls):
        # 4 samples cannot support the derivative stencil with burn-in 2
        p = make_problem("fourmode", 8, 6e-3, 2e-3)
        study = run_noise_study(p, 1.0, levels=[0.0], trials=2, base_seed=0)
        assert [len(records) for records in stack_calls] == [1]
        with pytest.raises(HeatInvError) as lone:
            invert(make_observations(p, 1.0),
                   InversionConfig(schedule_method="ladder", window=1))
        assert [(r.ok, r.message) for r in study.records] == [(False, str(lone.value))] * 2

    def test_summary_dict(self, fourmode_problem):
        study = run_noise_study(fourmode_problem, 1.0, levels=[0.0, 1e-5], trials=2,
                                base_seed=1)
        d = study.to_dict()
        assert d["trials"] == 2
        assert d["n_failed"] == 0
        assert len(d["per_level"]) == 2


class TestAmplificationProfile:
    """Noise amplification of the peeling as the depth grows."""

    def test_condition_numbers_grow_with_depth(self):
        grid = GridFn(0.0, 1e-3, np.zeros(4001))
        conditions = [peel_lsq(grid, d)[1] for d in range(1, 5)]
        assert conditions[3] > conditions[2] > conditions[1]
