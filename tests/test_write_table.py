"""The CSV writer: its vectorised '%.17g' and blocked writes against the '%' writer."""

import math
import struct
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatinv.io
from heatinv import GridFn, Observations, make_problem
from heatinv.inverse import InversionConfig
from heatinv.floattext import _fixed_text, _json_floats
from heatinv.io import _g17, _write_table, write_observations, write_study
from heatinv.regularize import run_noise_study


def reference_write_table(path, title, meta, header, columns):
    """The writer that formatted the whole table with one '%' operation; the
    reference for _write_table's bytes."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    row = ",".join("%d" if all(type(x) is int for x in c) else "%.17g" for c in columns)
    lines = [f"# heatinv {title}",
             "# meta = " + heatinv.io.json.dumps(meta, sort_keys=True, separators=(", ", ": ")),
             ",".join(header), ""]
    body = (row + "\n") * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))
    Path(path).write_text("\n".join(lines) + body)


def texts(x):
    """_g17(x) as one bytes object per value."""
    return [bytes(row[row != 0]) for row in _g17(np.asarray(x, dtype=np.float64))]


def percent(x):
    return [b"%.17g" % v for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


def powers_of_ten():
    p = np.array([10.0 ** k for k in range(-6, 0)] + [float(10 ** k) for k in range(18)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def ties():
    """M 2**-k for 53-bit M: exact values of 17 and more significant digits;
    for odd M and k = 2 the 18 digits end in 5, a tie that goes to even."""
    m = np.random.default_rng(20).integers(2 ** 52, 2 ** 53, 2_000).astype(np.float64)
    return np.concatenate([m * 2.0 ** -k for k in range(1, 8)])


EDGES = np.concatenate([
    powers_of_ten(),
    [1e-4, 1e16],
    np.nextafter([1e-4, 1e-4, 1e16, 1e16], [0, 1, 0, np.inf]),
    [0.0, -0.0, 5e-324, -5e-324, np.nan, -np.nan, np.inf, -np.inf,
     2.2250738585072014e-308, 1.7976931348623157e308, -1.2345678901234567e-308],
])


class TestG17:
    @given(st.integers(0, 2 ** 64 - 1))
    def test_bit_pattern(self, bits):
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        assert texts([x]) == percent([x])

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, xs):
        assert texts(xs) == percent(xs)

    @pytest.mark.parametrize("x", EDGES.tolist() + (-EDGES).tolist())
    def test_edge(self, x):
        assert texts([x]) == percent([x])

    @pytest.mark.parametrize("values", [
        pytest.param(ties(), id="ties"),
        pytest.param(np.arange(60_001) * 0.001, id="grid-1e-3"),
        pytest.param(np.arange(60_001) * 1e-4, id="grid-1e-4"),
        pytest.param(np.random.default_rng(21).standard_normal(100_000)
                     * 10.0 ** np.random.default_rng(22).uniform(-6, 18, 100_000), id="normal"),
        pytest.param(np.random.default_rng(23).integers(-2 ** 63, 2 ** 63, 100_000,
                                                        dtype=np.int64).view(np.float64),
                     id="bits"),
    ])
    def test_bulk(self, values):
        assert texts(values) == percent(values)

    @pytest.mark.parametrize("k", range(-3, 17))
    def test_no_carry_below_a_power_of_ten(self, k):
        # _g17 has no carry step: the 17 digits of the largest double below
        # 10**k, rounded, stay below 10**17
        power = Fraction(10) ** k
        below = float(power) if Fraction(float(power)) < power else math.nextafter(
            float(power), 0)
        digits = Fraction(below) * Fraction(10) ** (17 - k)
        assert Fraction(10 ** 17) - digits > Fraction(1, 2)
        assert texts([below]) == percent([below])

    def test_rows_are_24_bytes_nul_padded(self):
        out = _g17(np.array([-1.2345678901234567e-308, 0.5, -0.0]))
        assert out.shape == (3, 24) and out.dtype == np.uint8
        assert bytes(out[0]) == b"-1.2345678901234567e-308"
        assert bytes(out[1]).strip(b"\0") == b"0.5"


def short_decimals():
    """Floats in [1e-4, 1e16) near decimals of 1 to 17 significant digits
    with each exponent, both signs, and their neighbours: their '%.17g' and
    repr texts reach every row of floattext's mask table."""
    values = [float(f"{k}e{e - last}") for e in range(-4, 16) for last in range(17)
              for k in range(10 ** last, 10 ** last + 60) if last == 0 or k % 10]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    values = values[(values >= 1e-4) & (values < 1e16)]
    return np.concatenate([values, -values])


def mask_row(text, point):
    """The mask-table row (e, last digit kept, sign) of a fixed-point text
    and the 17 digits n of its decimal, read off the text alone."""
    whole, _, frac = text.lstrip("-").partition(".")
    digits = (whole + frac).lstrip("0")
    e = len(whole) - 1 if whole != "0" else len(digits) - len(frac) - 1
    last = max(len(digits.rstrip("0")) - 1, e + point)
    return (e, last, int(text[0] == "-")), int(digits.ljust(17, "0"))


@st.composite
def tables(draw):
    """Columns of one length: float and int64 arrays, and tuples of ints or
    of floats and ints, the edge values among the floats."""
    n = draw(st.integers(1, 9))
    floats = st.floats() | st.sampled_from(EDGES.tolist())
    ints = st.integers(-2 ** 70, 2 ** 70)
    kinds = {"array": st.lists(floats, min_size=n, max_size=n).map(np.array),
             "int-array": st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                                   max_size=n).map(lambda v: np.array(v, np.int64)),
             "ints": st.lists(ints, min_size=n, max_size=n).map(tuple),
             "mixed": st.lists(floats | ints, min_size=n, max_size=n).map(tuple)}
    return [draw(kinds[k]) for k in draw(st.lists(st.sampled_from(sorted(kinds)),
                                                    min_size=1, max_size=5))]


class TestMaskTable:
    @pytest.mark.parametrize("point, reference", [(0, lambda v: "%.17g" % v),
                                                  (1, float.__repr__)], ids=["g17", "repr"])
    def test_every_row_against_the_reference(self, point, reference):
        # each exponent -4..15, each last digit kept and each sign, given the
        # digits of the reference text; and the same values end to end
        x = short_decimals()
        text = [reference(v) for v in x.tolist()]
        rows, n = zip(*(mask_row(t, point) for t in text))
        assert set(rows) == {(e, last, sign) for e in range(-4, 16)
                             for last in range(max(0, e + point), 17) for sign in (0, 1)}
        e = np.array([row[0] for row in rows])
        out = _fixed_text(x, e, np.array(n, np.int64), point)
        assert out.shape == (x.size, 24) and out.dtype == np.uint8
        assert [bytes(row).strip(b"\0").decode() for row in out] == text
        rows = (_json_floats if point else _g17)(x)
        assert [bytes(row[row != 0]).decode() for row in rows] == text


class TestWriteTable:
    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), values=st.sampled_from([1, 2, 3, 8, 16, heatinv.io._BLOCK_VALUES]))
    def test_same_bytes_as_reference(self, tmp_path_factory, columns, values):
        path = tmp_path_factory.mktemp("t")
        header = [f"c{j}" for j in range(len(columns))]
        with mock.patch.object(heatinv.io, "_BLOCK_VALUES", values):
            _write_table(path / "new.csv", "t", {"k": 1}, header, columns)
        reference_write_table(path / "ref.csv", "t", {"k": 1}, header, columns)
        assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()

    def test_observations_at_60001_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        n = 60_001
        scale = 10.0 ** rng.integers(-8, 18, size=(3, n))
        u1, u3, uy = (GridFn(0.0, 1e-4, v) for v in rng.standard_normal((3, n)) * scale)
        obs = Observations(u1=u1, u3=u3, uy=uy, y=1.0, order=16)
        write_observations(tmp_path / "new.csv", obs, {"seed": 20})
        monkeypatch.setattr(heatinv.io, "_write_table", reference_write_table)
        write_observations(tmp_path / "ref.csv", obs, {"seed": 20})
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_study_with_failed_trials(self, tmp_path, monkeypatch):
        p = make_problem("fourmode", 8, 4.0, 2e-3)
        cfg = InversionConfig(order=8, schedule_method="ladder", window=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow at level 1e305
            study = run_noise_study(p, 1.0, [0.0, 1e305], trials=3, cfg=cfg, base_seed=2)
        assert study.n_failed() == 3 and study.n_failed() < len(study.records)
        write_study(tmp_path / "new", study, {"seed": 2})
        monkeypatch.setattr(heatinv.io, "_write_table", reference_write_table)
        write_study(tmp_path / "ref", study, {"seed": 2})
        new = (tmp_path / "new" / "study.csv").read_bytes()
        assert new == (tmp_path / "ref" / "study.csv").read_bytes()
        assert b",nan," in new and b",0,nan," in new

    def test_memory_bounded_by_the_block(self, tmp_path):
        n = 60_001
        values = np.sin(np.arange(n) * 1e-3)
        obs = Observations(u1=GridFn(0.0, 1e-4, values), u3=GridFn(0.0, 1e-4, values),
                           uy=GridFn(0.0, 1e-4, values), y=1.0, order=16)
        tracemalloc.start()
        try:
            write_observations(tmp_path / "obs.csv", obs, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20
