"""Serialisation and command-line behaviour: formats, round trips, determinism."""

import argparse
import builtins
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from heatinv import (
    ConfigError,
    DataError,
    DomainError,
    GridFn,
    InversionConfig,
    NoiseSpec,
    Observations,
    ParseError,
    PeelPlan,
    SineSeries,
    invert,
    make_observations,
    make_problem,
)
import heatinv
from heatinv.basis import basis_at
from heatinv import cli
from heatinv.cli import main
from heatinv.inverse import DET_EXACT, Diagnostics, Reconstruction
from heatinv.io import (ExperimentConfig, _config_sha256, fmt, format_report, load_config,
                        read_observations, save_config, write_json, write_observations,
                        write_reconstruction, write_study)
from heatinv.presets import PRESETS
from heatinv.regularize import run_noise_study


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_round_trip(x):
    assert float(fmt(x)) == x


@given(st.floats())
def test_percent_format_matches_fmt(x):
    # the CSV writer writes '%.17g' (by _g17, tested in test_write_table.py); fmt is
    # the per-value text
    assert "%.17g" % x == fmt(x)


def make_obs(preset="decay1", order=4, t_final=0.02, dt=1e-3, noise=None):
    p = make_problem(preset, order, t_final, dt)
    return make_observations(p, 1.0, noise)


class TestExperimentConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(preset="generic", t_final=2.0, dt=1e-2, seed=5,
                               levels=(0.0, 1e-5), depth=2, schedule_times=(1.0, 0.5))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            ExperimentConfig.from_dict({"preset": "generic", "bogus": 1})
        # a key that is no string is named by its repr; joining it raised a
        # bare TypeError, and sorting it among strings another
        with pytest.raises(ConfigError, match="^unknown config keys: 5$"):
            ExperimentConfig.from_dict({5: 1})
        with pytest.raises(ConfigError, match="^unknown config keys: None, bogus$"):
            ExperimentConfig.from_dict({None: 1, "bogus": 2})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ExperimentConfig.from_dict({"preset": "nope"})

    def test_problem_data_required(self):
        text = "^either a preset or explicit problem data must be given$"
        with pytest.raises(ConfigError, match=text):
            ExperimentConfig(preset=None)

    def test_preset_and_samples_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            ExperimentConfig(preset="generic", g_amplitudes=(1.0,))

    @pytest.mark.parametrize("y", [5.0, 0.0, -1.0, math.pi / 2])
    def test_observation_point_checked_at_load(self, y):
        # each of these loaded, and only simulate or study refused the point
        with pytest.raises(DomainError) as exc:
            make_observations(make_problem("generic", ExperimentConfig.order, 0.1, 1e-2), y)
        with pytest.raises(ConfigError) as cfg_exc:
            ExperimentConfig(y=y)
        assert str(cfg_exc.value) == str(exc.value)

    @pytest.mark.parametrize("key", ["t_final", "dt", "y", "noise_level", "ridge",
                                     "divisor_threshold", "amplification_cap",
                                     "levels", "g_amplitudes", "schedule_times"])
    def test_number_too_large_for_a_float_refused_at_load(self, tmp_path, capsys, key):
        # a 401-digit dt, t_final, noise_level or level ended simulate with a
        # bare OverflowError; the same ridge loaded and failed at stage peel
        big = 10 ** 400
        value = [0.5, big] if key in ("levels", "g_amplitudes", "schedule_times") else big
        noun = "a number list" if isinstance(value, list) else "a finite number"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": None if key == "g_amplitudes" else "generic",
                                    key: value}))
        with pytest.raises(ConfigError, match=f"^{key} must be {noun}, got "):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_grid_of_at_least_one_step(self):
        with pytest.raises(ConfigError, match="^final time 1.0 is shorter than one step of "):
            ExperimentConfig(t_final=1.0, dt=1e10)

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert _config_sha256(a.to_dict()) == _config_sha256(b.to_dict())
        assert _config_sha256(a.to_dict()) != _config_sha256(c.to_dict())

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,}')
        with pytest.raises(ConfigError, match=f"^config {path} is not valid JSON: "):
            load_config(path)

    def test_byte_order_mark_read_past(self, tmp_path):
        # a config saved with a UTF-8 byte-order mark was refused as
        # "not valid JSON: Unexpected UTF-8 BOM"
        cfg = ExperimentConfig(preset="generic", t_final=2.0, dt=1e-2, seed=5)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(path) == cfg

    def test_not_json_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_sample_file_problem(self, tmp_path):
        n = 11
        dt = 0.1
        t = dt * np.arange(n)
        hp = tmp_path / "h.csv"
        hp.write_text("t,value\n" + "\n".join(f"{ti},{1.0 + ti}" for ti in t) + "\n")
        cfg = ExperimentConfig(preset=None, h_csv=str(hp), g_amplitudes=(1.0,),
                               order=4, t_final=1.0, dt=dt)
        p = cfg.make_problem()
        np.testing.assert_allclose(p.h_grid().values, 1.0 + t)
        np.testing.assert_allclose(p.v_grid().values, 0.0)

    def test_inversion_knobs_checked_at_load(self):
        with pytest.raises(ConfigError, match="peeling method"):
            ExperimentConfig(peel_method="bogus", depth=0)

    def test_invalid_inversion_knob_simulates_nothing(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text('{"peel_method": "bogus", "depth": 0}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("knobs", [
        {"levels": [-1e-6]}, {"levels": [1e-4, 1e-6]}, {"trials": 0},
        {"amplification_cap": math.inf}, {"ridge": math.nan},
        {"trials": 2.5}, {"order": 4.5}, {"order": 4.0}, {"depth": 2.5}, {"seed": "1"},
        {"smooth_window": True}, {"smooth_polyorder": 3.0}, {"burn_in": "2"}, {"window": 1.0},
        {"y": "1.0"}, {"t_final": "0.05"}, {"ridge": "0"}, {"noise_level": True},
        {"levels": ["0"]}, {"levels": "0"}, {"schedule_times": [1.0, None]}, {"dt": None},
        {"preset": "decay1", "out_dir": 5}, {"noise_kind": 3},
        {"preset": None, "h_csv": 5, "g_amplitudes": [1.0]},
        {"preset": None, "v_csv": 1.5, "g_amplitudes": [1.0]},
        {"noise_kind": "gaussian"}, {"noise_level": -0.1}, {"smooth_window": 4},
        {"smooth_window": 5, "smooth_polyorder": -1}, {"burn_in": -1},
        {"depth": 2, "schedule_times": [1.0]}, {"ridge": -1.0}, {"t_final": 1.0, "dt": 0.3},
        {"preset": None, "g_amplitudes": [1.0], "t_final": 1.0, "dt": 0.3},
        {"schedule_method": "bogus"}, {"depth": 0}, {"window": 0}, {"window": -5},
        {"window": 4}, {"seed": -1}, {"levels": [0.0, 1e-6, 1e-6]}, {"levels": [0.0, -0.0]},
        {"amplification_cap": 0.0},
    ])
    def test_bad_knob_rejected_at_load(self, tmp_path, capsys, knobs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**knobs)
        (tmp_path / "c.json").write_text(json.dumps(knobs))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not out.exists()

    def test_integer_knobs_accepted(self):
        assert ExperimentConfig(window=3, trials=2, seed=0).window == 3
        assert ExperimentConfig().window is None

    def test_integers_accepted_for_float_knobs(self):
        cfg = ExperimentConfig(preset="decay1", y=1, t_final=2, ridge=0, levels=[0, 1])
        assert (cfg.y, cfg.t_final, cfg.ridge, cfg.levels) == (1, 2, 0, (0.0, 1.0))

    def test_inversion_defaults_shared(self):
        assert ExperimentConfig().inversion_config() == InversionConfig()
        assert _config_sha256(ExperimentConfig().to_dict()) == (
            "a04a7804856582c0ac54cac0d3acd06ed9784001ebbea3f85837a65c43525694"
        )


class TestSampleFiles:
    """h_csv / v_csv: two columns (t, value) with an optional 't,...' header."""

    def load(self, tmp_path, text, n=4, dt=0.5):
        path = tmp_path / "h.csv"
        path.write_text(text)
        cfg = ExperimentConfig(preset=None, h_csv=str(path), g_amplitudes=(1.0,),
                               order=4, t_final=(n - 1) * dt, dt=dt)
        return cfg.make_problem().h_grid()

    def test_header_optional(self, tmp_path):
        rows = "0,1\n0.5,2\n1,3\n1.5,4\n"
        with_header = self.load(tmp_path, "# source\nt,value\n" + rows)
        without = self.load(tmp_path, rows)
        assert (with_header.t0, with_header.dt) == (without.t0, without.dt)
        np.testing.assert_array_equal(with_header.values, without.values)
        np.testing.assert_array_equal(without.values, [1.0, 2.0, 3.0, 4.0])

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            self.load(tmp_path, "t,value\n0,1\n0.5,zap\n1,3\n1.5,4\n")
        with pytest.raises(ParseError, match="line 2"):
            self.load(tmp_path, "0,1\n0.5\n1,3\n1.5,4\n")

    def test_times_off_grid_rejected(self, tmp_path):
        with pytest.raises(DataError, match="grid step"):
            self.load(tmp_path, "0,1\n0.5,2\n1.25,3\n1.5,4\n")

    def test_header_must_start_with_t(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 2: expected a 't,\.\.\.' header in "):
            self.load(tmp_path, "# source\nx,value\n0,1\n0.5,2\n1,3\n1.5,4\n")

    def test_sample_count_must_match_the_grid(self, tmp_path):
        with pytest.raises(DataError, match="expected 4 samples on the simulation grid, got 3$"):
            self.load(tmp_path, "t,value\n0,1\n0.5,2\n1,3\n")

    def test_header_after_first_row_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            self.load(tmp_path, "0,1\nt,value\n0.5,2\n1,3\n1.5,4\n")

    def test_byte_order_mark_read_past(self, tmp_path):
        # a sample CSV saved with a UTF-8 byte-order mark was refused with
        # "line 1: expected a 't,...' header"
        rows = "t,value\n0,1\n0.5,2\n1,3\n1.5,4\n"
        np.testing.assert_array_equal(self.load(tmp_path, "\ufeff" + rows).values,
                                      self.load(tmp_path, rows).values)


class TestFormatPins:
    """Literal bytes of every CSV heatinv writes."""

    def test_observations_csv(self, tmp_path):
        obs = Observations(u1=GridFn(0.0, 0.1, [1 / 3, -0.0, 1e-300]),
                           u3=GridFn(0.0, 0.1, [0.1, -2.0, 123456789.0]),
                           uy=GridFn(0.0, 0.1, [1.0, 1e-5, -7e-12]), y=1.0, order=4)
        write_observations(tmp_path / "obs.csv", obs, {})
        assert (tmp_path / "obs.csv").read_text() == (
            "# heatinv observations\n"
            '# meta = {"dt": 0.1, "order": 4, "y": 1.0}\n'
            "t,u1,u3,uy\n"
            "0,0.33333333333333331,0.10000000000000001,1\n"
            "0.10000000000000001,-0,-2,1.0000000000000001e-05\n"
            "0.20000000000000001,1e-300,123456789,-7.0000000000000001e-12\n"
        )

    def test_reconstruction_csv(self, tmp_path):
        diag = Diagnostics(determinant=DET_EXACT, deriv_scheme="central", burn_in=2,
                           peel_method="lsq", peel_condition=1.0, amplification=np.ones(1),
                           predicted_mode_error=None, divisors=np.ones(1), rejected_modes=(),
                           residual_u1=0.0, residual_u3=0.0, residual_uy=0.0, warnings=())
        rec = Reconstruction(v_hat=GridFn(0.002, 1e-3, [1 / 3, -0.0, 1e-300]),
                             h_hat=GridFn(0.002, 1e-3, [-1 / 3, 0.0, 2.5]),
                             g_coeffs=SineSeries([1.0]), b_hat=np.ones(1), g1=1.0, g3=0.0,
                             diagnostics=diag)
        _, csv_path = write_reconstruction(tmp_path, rec, {"seed": 7})
        assert csv_path.read_text() == (
            "# heatinv reconstruction\n"
            '# meta = {"seed": 7}\n'
            "t,v_hat,h_hat\n"
            "0.002,0.33333333333333331,-0.33333333333333331\n"
            "0.0030000000000000001,-0,0\n"
            "0.0040000000000000001,1e-300,2.5\n"
        )

    def test_reconstruction_json(self, tmp_path):
        diag = Diagnostics(determinant=DET_EXACT, deriv_scheme="central", burn_in=2,
                           peel_method="lsq", peel_condition=1.0, amplification=np.ones(1),
                           predicted_mode_error=np.array([np.inf]), divisors=np.ones(1),
                           rejected_modes=(), residual_u1=0.0, residual_u3=0.0,
                           residual_uy=0.0, warnings=())
        rec = Reconstruction(v_hat=GridFn(0.002, 1e-3, [1 / 3, -0.0, 1e-300]),
                             h_hat=GridFn(0.002, 1e-3, [-1 / 3, 0.0, 2.5]),
                             g_coeffs=SineSeries([1.0]), b_hat=np.ones(1), g1=1.0, g3=0.0,
                             diagnostics=diag)
        json_path, _ = write_reconstruction(tmp_path, rec, {"seed": 7})
        assert json_path.read_text() == (
            '{\n  "b_hat": [\n    1.0\n  ],\n'
            '  "diagnostics": {\n'
            '    "amplification": [\n      1.0\n    ],\n'
            '    "burn_in": 2,\n'
            '    "deriv_scheme": "central",\n'
            '    "determinant": -3.3953054526271007,\n'
            '    "divisors": [\n      1.0\n    ],\n'
            '    "peel_condition": 1.0,\n'
            '    "peel_method": "lsq",\n'
            '    "predicted_mode_error": [\n      null\n    ],\n'
            '    "rejected_modes": [],\n'
            '    "residual_u1": 0.0,\n'
            '    "residual_u3": 0.0,\n'
            '    "residual_uy": 0.0,\n'
            '    "warnings": []\n'
            '  },\n'
            '  "g1": 1.0,\n'
            '  "g3": 0.0,\n'
            '  "g_coeffs": [\n    1.0\n  ],\n'
            '  "g_sin_amplitudes": [\n    0.7978845608028654\n  ],\n'
            '  "h_hat": {\n    "dt": 0.001,\n    "t0": 0.002,\n'
            '    "values": [\n      -0.3333333333333333,\n      0.0,\n      2.5\n    ]\n  },\n'
            '  "provenance": {\n    "seed": 7\n  },\n'
            '  "v_hat": {\n    "dt": 0.001,\n    "t0": 0.002,\n'
            '    "values": [\n      0.3333333333333333,\n      -0.0,\n      1e-300\n    ]\n  }\n'
            '}\n'
        )

    def test_report_lists_warnings(self):
        # ladder times (2, 1) on T = 4: amplifications e^2 and e^4, both above a cap of 1
        p = make_problem("generic", 8, 4.0, 1e-3)
        rec = invert(make_observations(p, 1.0), InversionConfig(
            order=8, depth=2, schedule_method="ladder", amplification_cap=1.0))
        assert format_report(rec, {}).endswith(
            "warnings:\n"
            "  - mode 1: amplification 7.389e+00 exceeds cap 1.0e+00\n"
            "  - mode 2: amplification 5.460e+01 exceeds cap 1.0e+00\n"
        )

    def test_study_csv_failed_rows(self, tmp_path):
        # the all-failed study of test_failed_trial_recorded_not_raised
        p = make_problem("fourmode", 8, 6e-3, 2e-3)
        study = run_noise_study(p, 1.0, levels=[0.0], trials=2, base_seed=0)
        write_study(tmp_path, study, {"seed": 0})
        nans = ",".join(["nan"] * 11)
        assert (tmp_path / "study.csv").read_text() == (
            "# heatinv noise study\n"
            '# meta = {"seed": 0}\n'
            "level,trial,seed,ok,v_rel_l2,h_rel_l2,peel_condition,"
            "b_err_1,b_err_2,b_err_3,b_err_4,g_err_1,g_err_2,g_err_3,g_err_4\n"
            f"0,0,0,0,{nans}\n"
            f"0,1,1,0,{nans}\n"
        )


def plain(x):
    """The former JSON payload conversion: ndarrays and numpy scalars as plain
    values and every float that is not finite as None; the reference of
    test_matches_json_dumps."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist() if np.isfinite(x).all() else plain(x.tolist())
    if isinstance(x, np.generic):
        x = x.item()
    return None if isinstance(x, float) and not math.isfinite(x) else x


edge_floats = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072009e-308]))
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=5), edge_floats,
    edge_floats.map(np.float64), st.integers(-2**62, 2**62).map(np.int64),
    st.lists(edge_floats, max_size=8),
    arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
           elements=edge_floats),
    arrays(np.int64, array_shapes(max_dims=1, min_side=0, max_side=4)),
)
json_payloads = st.recursive(json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=5), kids, max_size=4)), max_leaves=20)


class TestStrictJson:
    @given(json_payloads)
    def test_matches_json_dumps(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "payload.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(
            plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize("array", [
        np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]),
        np.array([[1.5, math.nan], [-0.0, 1e16]]),
        np.array([3, -1, 2**62]),
        np.array([]),
        np.zeros((2, 0)),
    ], ids=["float-1d", "float-2d", "int", "empty", "empty-2d"])
    def test_array_written_as_its_list(self, tmp_path, array):
        # an array is written as the list it holds
        by_array, by_list = tmp_path / "a.json", tmp_path / "l.json"
        write_json(by_array, {"x": array, "y": [array]})
        write_json(by_list, {"x": array.tolist(), "y": [array.tolist()]})
        assert by_array.read_text() == by_list.read_text()

    def test_non_finite_written_as_null(self, tmp_path):
        obs = make_obs("generic", order=8, t_final=4.0)
        plan = PeelPlan([1.0, 0.5], predicted=np.array([1e-6, np.inf]))
        rec = invert(obs, InversionConfig(order=8, depth=2, schedule=plan))
        json_path, _ = write_reconstruction(tmp_path, rec, {})

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(json_path.read_text(), parse_constant=reject)
        assert payload["diagnostics"]["predicted_mode_error"] == [1e-6, None]


class TestObservationFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        obs = make_obs("generic", order=8, t_final=0.05,
                       noise=NoiseSpec("relative", 1e-4, seed=3))
        meta = {"y": obs.y, "dt": obs.u1.dt, "order": 8, "seed": 3}
        path = tmp_path / "obs.csv"
        write_observations(path, obs, meta)
        back, meta2 = read_observations(path)
        assert np.array_equal(back.u1.values, obs.u1.values)
        assert np.array_equal(back.u3.values, obs.u3.values)
        assert np.array_equal(back.uy.values, obs.uy.values)
        assert back.y == obs.y
        assert meta2["order"] == 8

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text('# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n0,1,0\n')
        with pytest.raises(ParseError, match="line 3"):
            read_observations(path)

    def test_blank_and_comment_lines_between_rows(self, tmp_path):
        path = tmp_path / "obs.csv"
        head = '# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n0,1,0,0\n'
        path.write_text(head + "\n   \n# note,a,b,c\n  # indented\n0.001,2,0,0\n")
        obs, _ = read_observations(path)
        assert obs.u1.values.tolist() == [1.0, 2.0]
        path.write_text(head + "\n# a note\n\n0.001,2,0\n")
        with pytest.raises(ParseError, match="line 7"):
            read_observations(path)
        path.write_text(head + "\n# a note\n\n0.001,2,zap,0\n")
        with pytest.raises(ParseError, match="line 7"):
            read_observations(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text('# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n0,1,0,zap\n')
        with pytest.raises(ParseError, match="line 3"):
            read_observations(path)

    def test_missing_y_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("# meta = {}\nt,u1,u3,uy\n0,1,0,0\n0.001,1,0,0\n")
        with pytest.raises(ParseError, match="observation point"):
            read_observations(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text('# meta = {"y": 1.0}\ntime,u1,u3,uy\n0,1,0,0\n')
        with pytest.raises(ParseError, match="header"):
            read_observations(path)

    def test_time_column_must_match_meta_step(self, tmp_path):
        from heatinv import DataError

        path = tmp_path / "obs.csv"
        path.write_text(
            '# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n0,1,0,0\n0.002,1,0,0\n'
        )
        with pytest.raises(DataError, match="uniform grid"):
            read_observations(path)

    def test_time_column_of_nan_is_a_grid_error(self, tmp_path):
        # this failed with "grids differ" between two printings of one grid
        path = tmp_path / "obs.csv"
        path.write_text('# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n'
                        + "nan,1,0,0\n" * 3)
        with pytest.raises(DataError) as exc:
            read_observations(path)
        assert str(exc.value) == "grid start must be finite, got nan"

    def test_meta_integer_past_the_text_limit_exits_2(self, tmp_path, capsys):
        # json refuses an integer literal of more than 4,300 digits with a bare
        # ValueError, which read_observations let through
        path, cfg_path = self._simulate_with_meta(tmp_path, "order", 7)
        path.write_text(path.read_text().replace('"order": 7', '"order": ' + "1" * 5000))
        with pytest.raises(ParseError, match="^line 2: metadata line is not valid JSON$"):
            read_observations(path)
        capsys.readouterr()
        assert main(["invert", str(path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ParseError",
                                    "message": "line 2: metadata line is not valid JSON"}

    @pytest.mark.parametrize("value", ["5", "null", '"y"', "[1, 2]"])
    def test_meta_not_an_object_exits_2(self, tmp_path, capsys, value):
        path, cfg_path = self._simulate_with_meta(tmp_path, "y", 1.0)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = f"# meta = {value}\n"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match="^line 2: metadata line is not a JSON object$"):
            read_observations(path)
        capsys.readouterr()
        assert main(["invert", str(path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ParseError",
                                    "message": "line 2: metadata line is not a JSON object"}
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _simulate_with_meta(tmp_path, key, value):
        """observations.csv of a short decay1 run with its metadata key set to
        value, and the config that made it."""
        cfg = ExperimentConfig(preset="decay1", order=4, t_final=0.05, dt=1e-2)
        save_config(cfg, tmp_path / "c.json")
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
        path = tmp_path / "observations.csv"
        lines = path.read_text().splitlines(keepends=True)
        meta = json.loads(lines[1].partition("=")[2])
        meta[key] = value
        lines[1] = "# meta = " + json.dumps(meta) + "\n"
        path.write_text("".join(lines))
        return path, tmp_path / "c.json"

    @pytest.mark.parametrize("key, value", [("order", "x"), ("y", "x"), ("dt", None)])
    def test_malformed_meta_value_is_parse_error(self, tmp_path, capsys, key, value):
        path, cfg_path = self._simulate_with_meta(tmp_path, key, value)
        with pytest.raises(ParseError, match=f"metadata {key} must be"):
            read_observations(path)
        capsys.readouterr()
        assert main(["invert", str(path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400],
                             ids=["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("key", ["dt", "y"])
    def test_non_finite_meta_value_exits_2(self, tmp_path, capsys, key, value):
        # json writes and reads these as Infinity, -Infinity, NaN and an int
        # literal that no float holds
        path, cfg_path = self._simulate_with_meta(tmp_path, key, value)
        message = f"metadata {key} must be a finite number, got {value}"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=f"^{message}$"):
                read_observations(path)
            assert main(["invert", str(path), "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ParseError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("order", 2), ("y", 0), ("y", 3.5)])
    def test_meta_value_out_of_domain_exits_2(self, tmp_path, capsys, key, value):
        path, cfg_path = self._simulate_with_meta(tmp_path, key, value)
        with pytest.raises(DomainError):
            read_observations(path)
        capsys.readouterr()
        assert main(["invert", str(path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "DomainError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ["basis_at", "make_observations", "cli_invert"])
    def test_boundary_point_has_one_message(self, tmp_path, capsys, entry):
        if entry == "cli_invert":
            path, cfg_path = self._simulate_with_meta(tmp_path, "y", 0)
            capsys.readouterr()
            assert main(["invert", str(path), "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "DomainError"
            message = err["message"]
        else:
            with pytest.raises(DomainError) as exc:
                if entry == "basis_at":
                    basis_at(0.0, 4)
                else:
                    make_observations(make_problem("decay1", 4, 0.05, 1e-2), 0.0)
            message = str(exc.value)
        assert message == "observation point must lie in (0, pi), got 0.0"

    def test_schedule_times_reach_the_peel(self):
        cfg = ExperimentConfig(preset="generic", depth=2, schedule_times=(3.0, 1.5))
        inv = cfg.inversion_config()
        np.testing.assert_allclose(inv.schedule.times, [3.0, 1.5])
        assert np.all(inv.schedule.windows == 1)


class TestCliSimulate:
    def test_decay1_u1_column(self, tmp_path):
        cfg = ExperimentConfig(preset="decay1", order=4, t_final=0.1, dt=1e-2)
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        obs, meta = read_observations(tmp_path / "observations.csv")
        np.testing.assert_allclose(obs.u1.values, np.exp(-obs.u1.times), atol=1e-13)
        assert meta["preset"] == "decay1"
        assert "config_sha256" in meta

    def test_steady_uy_constant(self, tmp_path):
        cfg = ExperimentConfig(preset="steady", order=8, t_final=0.5, dt=1e-2)
        save_config(cfg, tmp_path / "c.json")
        main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)])
        obs, _ = read_observations(tmp_path / "observations.csv")
        assert np.max(np.abs(obs.uy.values - obs.uy.values[0])) < 1e-5

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(preset="generic", order=8, t_final=0.2, dt=1e-2,
                               noise_kind="relative", noise_level=1e-4, seed=11)
        save_config(cfg, tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out1)])
        main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out2)])
        assert (out1 / "observations.csv").read_bytes() == (out2 / "observations.csv").read_bytes()
        assert (out1 / "observations.json").read_bytes() == (out2 / "observations.json").read_bytes()

    def test_unsafe_point_cited(self, tmp_path, capsys):
        # the config refuses the point at load, so it is written by hand
        (tmp_path / "c.json").write_text(json.dumps(
            {"preset": "generic", "order": 4, "t_final": 0.1, "dt": 1e-2, "y": math.pi / 2}))
        code = main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        diag = json.loads(err.strip())
        assert "sin" in diag["message"]  # cites the non-vanishing condition
        assert diag["error"] == "ConfigError"

    def test_seed_and_preset_overrides(self, tmp_path):
        cfg = ExperimentConfig(preset="generic", order=4, t_final=0.1, dt=1e-2, seed=0)
        save_config(cfg, tmp_path / "c.json")
        main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path),
              "--preset", "decay1", "--seed", "9"])
        obs, meta = read_observations(tmp_path / "observations.csv")
        assert meta["preset"] == "decay1"
        assert meta["seed"] == 9

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        # numpy's default_rng refused it with a traceback and exit 1
        save_config(ExperimentConfig(preset="generic", order=4, t_final=0.1, dt=1e-2,
                                     noise_kind="relative", noise_level=1e-4),
                    tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(out),
                     "--seed", "-1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert "seed must be >= 0" in json.loads(line)["message"]
        assert not out.exists()

    def test_config_serialised_once_per_command(self, tmp_path, monkeypatch):
        # the provenance, its hash and the observations' meta each serialised it
        cfg = ExperimentConfig(preset="generic", order=8, t_final=0.5, dt=1e-2, depth=2,
                               levels=(0.0,), trials=1)
        save_config(cfg, tmp_path / "c.json")
        calls = []
        to_dict = ExperimentConfig.to_dict
        monkeypatch.setattr(ExperimentConfig, "to_dict", lambda c: calls.append(c) or to_dict(c))
        args = ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]
        for command in (["simulate"], ["invert", str(tmp_path / "observations.csv")], ["study"]):
            calls.clear()
            assert main(command + args) == 0
            assert calls == [cfg]
        meta = read_observations(tmp_path / "observations.csv")[1]
        assert meta["config_sha256"] == _config_sha256(cfg.to_dict())

    def test_runs_without_config_file(self, tmp_path):
        # all-defaults invocation: the built-in generic preset
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        obs, meta = read_observations(tmp_path / "observations.csv")
        assert obs.u1.n == 6001
        assert meta["preset"] == "generic"

    def test_config_integer_past_the_text_limit_exits_2(self, tmp_path, capsys):
        # a depth of 5,000 digits ended invert in a traceback: json refused
        # it with a bare ValueError, not a JSONDecodeError
        bad = tmp_path / "bad.json"
        bad.write_text('{"preset": "generic", "depth": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match=f"^config {re.escape(str(bad))} is not valid JSON: "):
            load_config(bad)
        code = main(["invert", str(tmp_path / "observations.csv"), "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ConfigError"
        assert diag["message"].startswith(f"config {bad} is not valid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exits_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"preset": "generic", "no_such_key": true}')
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip())
        assert diag["error"] == "ConfigError"
        assert "no_such_key" in diag["message"]


class TestCliInvert:
    def _simulate(self, tmp_path, **overrides):
        params = dict(preset="decay1", order=4, t_final=4.0, dt=1e-3, depth=2)
        params.update(overrides)
        cfg = ExperimentConfig(**params)
        save_config(cfg, tmp_path / "c.json")
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "observations.csv", tmp_path / "c.json"

    def test_round_trip_report(self, tmp_path, capsys):
        obs_path, cfg_path = self._simulate(tmp_path)
        code = main(["invert", str(obs_path), "--config", str(cfg_path),
                     "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "-3.395305452627e+00" in report  # determinant to 12 digits
        rec = json.loads((tmp_path / "reconstruction.json").read_text())
        assert rec["g_coeffs"][0] == pytest.approx(1.0, abs=1e-6)
        assert rec["g1"] == 1.0
        csv_lines = (tmp_path / "reconstruction.csv").read_text().splitlines()
        assert csv_lines[2] == "t,v_hat,h_hat"

    def test_truncated_input_clean_failure(self, tmp_path, capsys):
        obs_path, cfg_path = self._simulate(tmp_path)
        lines = obs_path.read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:5]) + "\n")  # 3 data rows
        code = main(["invert", str(short), "--config", str(cfg_path),
                     "--out", str(tmp_path)])
        assert code == 2
        diag = json.loads(capsys.readouterr().err.strip())
        assert diag["stage"] == "recover_vh"
        assert "too short" in diag["message"]

    def test_grid_starting_late_fails_at_extract_g13(self, tmp_path, capsys):
        obs_path, cfg_path = self._simulate(tmp_path)
        obs, meta = read_observations(obs_path)
        late = [GridFn(1e-3, obs.u1.dt, f.values) for f in (obs.u1, obs.u3, obs.uy)]
        write_observations(tmp_path / "late.csv", Observations(*late, y=obs.y, order=obs.order),
                           meta)
        code = main(["invert", str(tmp_path / "late.csv"), "--config", str(cfg_path),
                     "--out", str(tmp_path / "late")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "InversionError", "stage": "extract_g13",
            "message": "stage 'extract_g13': observation grid must start at t = 0, got t0 = 0.001"}

    def test_invert_rerun_byte_identical(self, tmp_path):
        obs_path, cfg_path = self._simulate(tmp_path)
        a, b = tmp_path / "ra", tmp_path / "rb"
        main(["invert", str(obs_path), "--config", str(cfg_path), "--out", str(a)])
        main(["invert", str(obs_path), "--config", str(cfg_path), "--out", str(b)])
        for name in ("reconstruction.json", "reconstruction.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_meta_order_wins_over_config(self, tmp_path):
        # observations generated with order 8; invert config says 16: the
        # file's truncation must be reused so the forced tails cancel
        obs_path, _ = self._simulate(tmp_path, preset="generic", order=8)
        cfg2 = ExperimentConfig(preset="generic", order=16, t_final=4.0, dt=1e-3, depth=2)
        save_config(cfg2, tmp_path / "c16.json")
        code = main(["invert", str(obs_path), "--config", str(tmp_path / "c16.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        rec = json.loads((tmp_path / "reconstruction.json").read_text())
        assert rec["provenance"]["order"] == 8
        assert rec["g_sin_amplitudes"][0] == pytest.approx(1.0, abs=1e-3)


    def test_record_truncation_reaches_the_inversion(self, tmp_path):
        # the C7 config: invert reuses the record's order, so nothing is flagged
        cfg = ExperimentConfig(preset="fourmode", order=8, t_final=2.0, dt=2e-3, depth=4,
                               noise_kind="relative", noise_level=1e-5, seed=13)
        save_config(cfg, tmp_path / "c.json")
        args = ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]
        assert main(["simulate", *args]) == 0
        assert read_observations(tmp_path / "observations.csv")[0].order == 8
        assert main(["invert", str(tmp_path / "observations.csv"), *args]) == 0
        rec = json.loads((tmp_path / "reconstruction.json").read_text())
        assert not [w for w in rec["diagnostics"]["warnings"] if "truncation" in w]


class TestCliFileErrors:
    """A file that cannot be read or written exits 2 with one JSON error line."""

    @pytest.mark.parametrize("case", ["missing-observations", "observations-dir",
                                      "missing-config", "missing-h-csv", "out-is-file"])
    def test_file_error_exits_2(self, tmp_path, capsys, case):
        cfg = tmp_path / "c.json"
        save_config(ExperimentConfig(preset="decay1", order=4, t_final=0.1, dt=1e-2), cfg)
        no_h = tmp_path / "no_h.json"
        save_config(ExperimentConfig(preset=None, h_csv=str(tmp_path / "nope.csv"),
                                     g_amplitudes=(1.0,), order=4, t_final=0.1, dt=1e-2), no_h)
        out = ["--out", str(tmp_path / "out")]
        argv = {
            "missing-observations": ["invert", str(tmp_path / "nope.csv"), *out],
            "observations-dir": ["invert", str(tmp_path), *out],
            "missing-config": ["simulate", "--config", str(tmp_path / "nope.json"), *out],
            "missing-h-csv": ["simulate", "--config", str(no_h), *out],
            "out-is-file": ["simulate", "--config", str(cfg), "--out", str(cfg)],
        }[case]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert issubclass(getattr(builtins, diag["error"]), OSError)
        assert diag["message"]
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("case, error", [("observations", "ParseError"),
                                             ("config", "ConfigError"),
                                             ("h-csv", "ParseError")])
    def test_file_not_text_exits_2(self, tmp_path, capsys, case, error):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00t,u1\n")
        cfg = tmp_path / "c.json"
        save_config(ExperimentConfig(preset="decay1", order=4, t_final=0.1, dt=1e-2), cfg)
        h_cfg = tmp_path / "h.json"
        save_config(ExperimentConfig(preset=None, h_csv=str(binary), g_amplitudes=(1.0,),
                                     order=4, t_final=0.1, dt=1e-2), h_cfg)
        out = ["--out", str(tmp_path / "out")]
        argv = {
            "observations": ["invert", str(binary), "--config", str(cfg), *out],
            "config": ["simulate", "--config", str(binary), *out],
            "h-csv": ["simulate", "--config", str(h_cfg), *out],
        }[case]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == error
        assert f"{binary} is not " in diag["message"] and " text: " in diag["message"]
        assert not (tmp_path / "out").exists()


class TestCliParser:
    def test_built_once_for_many_commands(self, tmp_path, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cfg = tmp_path / "c.json"
        save_config(ExperimentConfig(preset="decay1", order=4, t_final=0.1, dt=1e-2), cfg)
        out = ["--config", str(cfg), "--out", str(tmp_path)]
        cli._build_parser.cache_clear()
        try:
            assert main(["simulate", *out]) == 0
            with pytest.raises(SystemExit) as bad:
                main(["simulate", "--bogus", *out])
            assert main(["invert", str(tmp_path / "observations.csv"), *out]) == 0
        finally:
            cli._build_parser.cache_clear()
        assert bad.value.code == 2 and "--bogus" in capsys.readouterr().err
        assert built.count("heatinv") == 1


    def test_runs_as_a_script(self, capsys, monkeypatch):
        # `python -m heatinv.cli`: the module's __main__ guard exits with main's code
        monkeypatch.setattr(sys, "argv", ["heatinv", "--help"])
        monkeypatch.delitem(sys.modules, "heatinv.cli")  # runpy warns when it is imported
        with pytest.raises(SystemExit) as done:
            runpy.run_module("heatinv.cli", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heatinv")

    @pytest.mark.parametrize("command", ["simulate", "invert", "study"])
    def test_preset_help_describes_every_preset(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = "".join(capsys.readouterr().out.split())  # argparse wraps the help
        for name, preset in PRESETS.items():
            assert "".join(f"{name}, {preset.description}".split()) in text


class TestCliStudy:
    def test_single_row_matches_invert(self, tmp_path):
        cfg = ExperimentConfig(preset="fourmode", order=8, t_final=2.0, dt=2e-3,
                               depth=4, levels=(0.0,), trials=1)
        save_config(cfg, tmp_path / "c.json")
        assert main(["study", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path)]) == 0
        study = json.loads((tmp_path / "study.json").read_text())
        assert study["trials"] == 1
        assert study["n_failed"] == 0

        # direct pipeline with the same inversion config gives the same metrics
        from heatinv import invert

        p = cfg.make_problem()
        rec = invert(make_observations(p, cfg.y), cfg.inversion_config())
        b_true = np.asarray(study["b_true"])
        expect = np.abs(rec.b_hat - b_true)
        got = np.asarray(study["per_level"]["0.0"]["mean_b_err"])
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_failed_trials_noted(self, tmp_path, capsys):
        # 4 samples are too few for the derivative stencil: all 4 trials fail
        cfg = ExperimentConfig(preset="fourmode", order=8, t_final=6e-3, dt=2e-3,
                               levels=(0.0, 1e-3), trials=2)
        save_config(cfg, tmp_path / "c.json")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["study", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "error_vs_level.dat", "error_vs_mode.dat", "study.csv", "study.json"]
        assert json.loads((out / "study.json").read_text())["n_failed"] == 4
        assert capsys.readouterr().err.splitlines() == ["note: 4 trial(s) failed; see study.csv"]

    @pytest.mark.parametrize("level", [1e305, 1e308])
    def test_overflowing_trials_noted_alone(self, tmp_path, level):
        # the trials that overflow fail, and stderr holds the note alone under
        # Python's default warning filter, in a process of its own as a user
        # runs the CLI
        cfg = ExperimentConfig(preset="generic", order=8, t_final=0.5, dt=0.01,
                               levels=(0.0, level), trials=2)
        save_config(cfg, tmp_path / "c.json")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(heatinv.__file__).resolve().parents[1])}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "heatinv.cli", "study", "--config", str(tmp_path / "c.json"),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads((out / "study.json").read_text())["n_failed"] == 2
        assert proc.stderr.splitlines() == ["note: 2 trial(s) failed; see study.csv"]

    def test_no_levels_exits_2(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps(
            {"preset": "decay1", "order": 4, "t_final": 0.1, "dt": 0.01, "levels": []}))
        out = tmp_path / "out"
        assert main(["study", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ConfigError",
                                    "message": "need at least one noise level"}
        assert not out.exists()

    def test_outputs_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(preset="fourmode", order=8, t_final=2.0, dt=2e-3,
                               depth=4, levels=(0.0, 1e-5), trials=2, seed=4)
        save_config(cfg, tmp_path / "c.json")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["study", "--config", str(tmp_path / "c.json"), "--out", str(a)])
        main(["study", "--config", str(tmp_path / "c.json"), "--out", str(b)])
        for name in ("study.csv", "study.json", "error_vs_mode.dat", "error_vs_level.dat"):
            assert (a / name).exists()
            assert (a / name).read_bytes() == (b / name).read_bytes()
        head = (a / "study.csv").read_text().splitlines()
        assert head[2].startswith("level,trial,seed,ok,v_rel_l2,h_rel_l2")
