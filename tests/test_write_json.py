"""The JSON writer: its vectorised shortest repr and blocked writes against
float.__repr__ and json.dumps."""

import json
import math
import struct
import tracemalloc
from decimal import ROUND_DOWN, ROUND_UP, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatinv.io
from heatinv import InversionConfig, NoiseSpec, invert, make_observations, make_problem
from heatinv.floattext import _json_floats
from heatinv.io import write_json, write_reconstruction
from test_io_cli import plain


def texts(x):
    """_json_floats(x) as one str per value."""
    return [bytes(row[row != 0]).decode() for row in _json_floats(np.asarray(x, np.float64))]


def reprs(x):
    return [float.__repr__(v) if math.isfinite(v) else "null"
            for v in np.asarray(x, np.float64).tolist()]


def neighbours(x):
    x = np.asarray(x, np.float64)
    return np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])


def decimal_ties():
    """Odd multiples of powers of two whose exact decimal has 17 digits and
    ends in 5, with both 16-digit neighbours reading back as the value: repr
    rounds such a tie to even."""
    m = np.random.default_rng(25).integers(2 ** 16, 2 ** 30, 300) * 2 + 1
    ties = []
    for v in np.concatenate([m * 2.0 ** q for q in range(-40, -8)]).tolist():
        d = Decimal(v)
        unit = Decimal(1).scaleb(d.adjusted() - 15)
        if (1e-4 <= v < 1e16 and d.as_tuple().digits[-1] == 5 and len(d.as_tuple().digits) == 17
                and float(d.quantize(unit, ROUND_DOWN)) == v == float(d.quantize(unit, ROUND_UP))):
            ties.append(v)
    assert len(ties) >= 5
    return ties


def digits_of(k, count):
    """count-digit decimals from 1e-4 to 1e16, by seed k."""
    rng = np.random.default_rng(k)
    return np.round(rng.uniform(1, 10, 20), count - 1) * 10.0 ** rng.integers(-4, 16, 20)


EDGES = np.concatenate([
    neighbours(2.0 ** np.arange(-13, 54)),
    [float(2 ** 53 + k) for k in range(1, 40, 2)],  # odd integers: ties of the binary rounding
    decimal_ties(),
    (2.0 ** 52 + np.arange(1, 40, 2)) / 4,  # 17-digit ties: a 5 in the 18th digit
    neighbours([1e-4, 1e16]),
    digits_of(15, 15), digits_of(16, 16), digits_of(17, 17),
    [0.1, 0.3, 2 / 3, 1 / 3, 9007199254740993.0, 1e15 + 0.5, 123456789012345.67],
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
     np.nan, np.inf, -np.inf],
])


class TestJsonFloats:
    @given(st.integers(0, 2 ** 64 - 1))
    def test_bit_pattern(self, bits):
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        assert texts([x]) == reprs([x])

    @given(st.floats(1e-4, 1e16, exclude_max=True), st.booleans())
    def test_fixed_point_range(self, x, negative):
        x = -x if negative else x
        assert texts([x]) == reprs([x])

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, xs):
        assert texts(xs) == reprs(xs)

    def test_edge_table(self):
        x = np.concatenate([EDGES, -EDGES])
        assert [(v, t) for v, t, r in zip(x.tolist(), texts(x), reprs(x)) if t != r] == []

    def test_edge_table_has_reprs_of_15_16_and_17_digits(self):
        fixed = [t for t in reprs(EDGES) if t[-1].isdigit() and "e" not in t and t[-2:] != ".0"]
        assert {15, 16, 17} <= {len(t.lstrip("-0.").replace(".", "")) for t in fixed}

    @pytest.mark.parametrize("values", [
        pytest.param(np.arange(60_001) * 0.001, id="grid-1e-3"),
        pytest.param(np.random.default_rng(26).standard_normal(100_000)
                     * 10.0 ** np.random.default_rng(27).uniform(-10, 16, 100_000), id="log"),
        pytest.param(np.concatenate([np.round(np.random.default_rng(28).uniform(-1e3, 1e3, 5_000),
                                              k) for k in range(12)]), id="rounded"),
        pytest.param(np.random.default_rng(29).integers(0, 2 ** 60, 50_000).astype(np.float64),
                     id="integers"),
        pytest.param(np.random.default_rng(30).integers(-2 ** 63, 2 ** 63, 100_000,
                                                        dtype=np.int64).view(np.float64),
                     id="bits"),
    ])
    def test_bulk(self, values):
        assert texts(values) == reprs(values)


def observed_reconstruction(dt):
    p = make_problem("generic", 16, 6.0, dt)
    obs = make_observations(p, 1.0, NoiseSpec("relative", 1e-8, seed=1))
    return invert(obs, InversionConfig(order=16))


class TestWriteJson:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=12),
           rows=st.sampled_from([1, 2, 3, heatinv.io._BLOCK_VALUES]), as_array=st.booleans())
    def test_blocks_join_as_json_dumps(self, tmp_path_factory, values, rows, as_array):
        path = tmp_path_factory.mktemp("json") / "x.json"
        series = np.array(values) if as_array else values
        with mock.patch.object(heatinv.io, "_BLOCK_VALUES", rows), \
                mock.patch.object(heatinv.io, "_SERIES_MIN", 1):
            write_json(path, {"a": {"values": series}, "b": [series, 1]})
        expect = [v if math.isfinite(v) else None for v in values]
        assert path.read_text() == json.dumps(
            {"a": {"values": expect}, "b": [expect, 1]}, indent=2, sort_keys=True) + "\n"

    def test_reconstruction_at_60001_samples(self, tmp_path):
        rec = observed_reconstruction(1e-4)
        assert rec.v_hat.n > 59_000
        with mock.patch.object(heatinv.io, "write_json", wraps=write_json) as spy:
            json_path, _ = write_reconstruction(tmp_path, rec, {"seed": 1})
        (path, payload), = [call.args for call in spy.call_args_list]
        assert path == json_path
        assert json_path.read_text() == json.dumps(
            plain(payload), indent=2, sort_keys=True) + "\n"

    def test_memory_bounded_by_the_block(self, tmp_path):
        # formatting a whole series at once held 26 MiB at this size, the one
        # join of float reprs 10 MiB, and a copy of v_hat and h_hat
        # (dataclasses.asdict) 2.5 MiB
        rec = observed_reconstruction(1e-4)
        tracemalloc.start()
        try:
            write_reconstruction(tmp_path, rec, {"seed": 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

