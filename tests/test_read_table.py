"""The CSV reader: its one-call number block against the line-by-line reader."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatinv.io
from heatinv import GridFn, Observations, ParseError
from heatinv.cli import main
from heatinv.io import (ExperimentConfig, _read_table, read_observations, save_config,
                        write_observations)


def reference_read_table(path, ncols):
    """The line-by-line reader that parsed every data row with float(); the
    reference for _read_table's accepted files, results and errors."""
    meta: dict = {}
    header = None
    values: list[float] = []
    lines = Path(path).read_text().splitlines()
    for i, raw in enumerate(lines, start=1):
        cells = raw.split(",")
        if len(cells) == ncols:
            try:
                values.extend(map(float, cells))
                continue
            except ValueError:
                pass
        line = raw.strip()
        if not line or line[0] == "#":
            body = line[1:].strip()
            if body.startswith("meta"):
                try:
                    meta = json.loads(body.partition("=")[2])
                except json.JSONDecodeError:
                    raise ParseError("metadata line is not valid JSON", line=i) from None
            continue
        if len(cells) != ncols:
            raise ParseError(f"expected {ncols} columns in {path}, got {len(cells)}", line=i)
        if len(values) >= ncols or header is not None:
            raise ParseError(f"non-numeric value in {path}", line=i)
        values.clear()
        header = (i, [c.strip() for c in cells])
    if not values:
        raise ParseError(f"no data rows found in {path}", line=len(lines))
    return meta, header, np.array(values).reshape(-1, ncols)


def outcome(read, path, ncols):
    """read(path, ncols) as comparable data: the meta, the header and the
    data's shape and bytes, or the ParseError's text."""
    try:
        meta, header, data = read(path, ncols)
    except ParseError as exc:
        return "ParseError", str(exc)
    return meta, header, data.shape, data.dtype.str, data.tobytes()


# cells that float() and np.loadtxt may read differently: float() alone takes
# underscores and non-ASCII digits, loadtxt alone strips U+001F, and neither
# takes the cells on the last line
ODD_CELLS = ["nan", "-nan", "inf", "-Infinity", "1e400", "-0", "5e-324", ".5", "1.", "1e5",
             "1_000", "١٢", "\x1f1", "2\x1f",
             "0x10", "1d5", "", " ", "1e", "1 2", "x", "1j"]
finite = st.floats(allow_nan=False, allow_infinity=False)
number_text = st.one_of(
    finite.map(lambda x: "%.17g" % x), finite.map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(ODD_CELLS))
pad = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
cell = st.builds(lambda a, x, b: a + x + b, pad, number_text, pad)


@st.composite
def data_row(draw, ncols):
    return ",".join(draw(cell) for _ in range(ncols))


@st.composite
def odd_line(draw, ncols):
    kind = draw(st.sampled_from(["blank", "spaces", "comment", "indented", "meta", "bad-meta",
                                 "short", "long", "trailing-comma", "note", "word"]))
    row = draw(data_row(ncols))
    return {
        "blank": "",
        "spaces": draw(st.sampled_from([" ", "  \t", "\t"])),
        "comment": "# note," + row,
        "indented": "   # indented",
        "meta": '# meta = {"y": 2.0, "late": true}',
        "bad-meta": "# meta = {oops",
        "short": row.rpartition(",")[0],
        "long": row + ",1",
        "trailing-comma": row + ",",
        "note": row + " # note",
        "word": ",".join(["x"] + row.split(",")[1:]),
    }[kind]


@st.composite
def csv_files(draw):
    """(text, ncols): a head of comments, a meta line and a header, then a
    block of number rows, clean or with odd lines and bad cells mixed in."""
    ncols = draw(st.sampled_from([2, 4]))
    head = []
    if draw(st.booleans()):
        head.append("# heatinv observations")
    if draw(st.booleans()):
        head.append('# meta = {"y": 1.0, "dt": 0.001}')
    if draw(st.booleans()):
        head.append(",".join(["t", "u1", "u3", "uy"][:ncols]))
    plain = st.lists(finite, min_size=ncols, max_size=ncols).map(
        lambda xs: ",".join("%.17g" % x for x in xs))
    rows = draw(st.lists(plain, max_size=12))
    if rows and draw(st.booleans()):  # odd cells in the first, a middle or the last row
        for at in draw(st.sets(st.sampled_from([0, len(rows) // 2, len(rows) - 1]), min_size=1)):
            row = rows[at].split(",")
            row[draw(st.integers(0, ncols - 1))] = draw(cell)
            rows[at] = ",".join(row)
    if draw(st.booleans()):  # odd lines between the rows
        for line in draw(st.lists(odd_line(ncols), min_size=1, max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(head + rows) + end, ncols


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(csv_files())
    def test_same_result_or_same_error(self, tmp_path_factory, case):
        text, ncols = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text(text, newline="")
        assert outcome(_read_table, path, ncols) == outcome(reference_read_table, path, ncols)

    @pytest.mark.parametrize("odd", ODD_CELLS)
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_odd_cell_in_a_row(self, tmp_path, odd, at):
        rows = [[str(k / 1000), str(k + 1), "0", "0"] for k in range(3)]
        rows[at][1] = odd
        path = tmp_path / "obs.csv"
        path.write_text("t,u1,u3,uy\n" + "".join(",".join(r) + "\n" for r in rows))
        assert outcome(_read_table, path, 4) == outcome(reference_read_table, path, 4)

    def test_observations_round_trip_at_60001_rows(self, tmp_path):
        rng = np.random.default_rng(19)
        n = 60_001
        scale = 10.0 ** rng.integers(-300, 300, size=(3, n))
        u1, u3, uy = (GridFn(0.0, 1e-4, v) for v in rng.standard_normal((3, n)) * scale)
        obs = Observations(u1=u1, u3=u3, uy=uy, y=1.0, order=16)
        path = tmp_path / "observations.csv"
        write_observations(path, obs, {"seed": 19})
        back, _ = read_observations(path)
        for f in ("u1", "u3", "uy"):
            assert getattr(back, f).values.tobytes() == getattr(obs, f).values.tobytes()
        assert back.u1.t0 == 0.0 and back.u1.dt == 1e-4 and back.order == 16
        assert outcome(_read_table, path, 4) == outcome(reference_read_table, path, 4)


class TestNumberBlock:
    HEAD = '# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n'

    @pytest.fixture
    def loadtxt_results(self, monkeypatch):
        results = []
        real = heatinv.io.np.loadtxt

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(heatinv.io.np, "loadtxt", spy)
        return results

    def test_clean_block_is_one_call(self, tmp_path, loadtxt_results):
        path = tmp_path / "obs.csv"
        path.write_text(self.HEAD + "0,1,0,0\n\n0.001,2,0,0\n0.002,3,0,0\n")
        _, _, data = _read_table(path, 4)
        assert len(loadtxt_results) == 1 and data is loadtxt_results[0]
        assert data.tolist() == [[0, 1, 0, 0], [0.001, 2, 0, 0], [0.002, 3, 0, 0]]

    def test_comment_in_block_falls_back(self, tmp_path, loadtxt_results):
        path = tmp_path / "obs.csv"
        path.write_text(self.HEAD + "0,1,0,0\n# note\n0.001,2,0,0\n# meta = {\"y\": 2.0}\n")
        meta, _, data = _read_table(path, 4)
        assert len(loadtxt_results) == 0  # loadtxt raised
        assert meta == {"y": 2.0}
        assert data.tolist() == [[0, 1, 0, 0], [0.001, 2, 0, 0]]

    def test_one_row_parses(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(self.HEAD + "0,1,0,0\n")
        obs, _ = read_observations(path)
        assert obs.u1.values.tolist() == [1.0] and obs.u1.dt == 0.001

    @pytest.mark.parametrize("rows, line", [
        ("0,1,0,0 # note\n0.001,2,0,0\n", 3),
        ("0,1,0,0\n0.001,2,0,0 # note\n0.002,3,0,0\n", 4),
        ("0,1,0,0\n0.001,2,0,0\n0.002,3,0,0 # note\n", 5),
    ])
    def test_trailing_note_rejected_at_its_line(self, tmp_path, rows, line):
        path = tmp_path / "obs.csv"
        path.write_text(self.HEAD + rows)
        with pytest.raises(ParseError, match=f"^line {line}: non-numeric value"):
            read_observations(path)

    @pytest.mark.parametrize("text, last", [
        ('# meta = {"y": 1.0, "dt": 0.001}\nt,u1,u3,uy\n', 2),
        ("# heatinv observations\n\n# nothing here\n", 3),
    ])
    def test_no_rows_is_one_error_line(self, tmp_path, capsys, text, last):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {last}: no data rows found"):
            read_observations(path)
        save_config(ExperimentConfig(preset="decay1", order=4, t_final=0.1, dt=1e-2),
                    tmp_path / "c.json")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["invert", str(path), "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 2 and caught == []
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ParseError" and "no data rows found" in diag["message"]
        assert not (tmp_path / "out").exists()


def test_byte_order_mark_read_past(tmp_path):
    # an observations.csv saved with a UTF-8 byte-order mark was refused with
    # "line 1: expected 4 columns in ..., got 1"; it reads back bit for bit
    t = 1e-3 * np.arange(7)
    obs = Observations(*(GridFn(0.0, 1e-3, np.sin(k * t + 0.1)) for k in (1, 3, 5)), y=1.0,
                       order=8)
    path = tmp_path / "observations.csv"
    write_observations(path, obs, {})
    plain = read_observations(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back, meta = read_observations(path)
    assert meta == plain[1] and (back.y, back.order) == (obs.y, obs.order)
    for name in ("u1", "u3", "uy"):
        got, sent = getattr(back, name), getattr(obs, name)
        assert (got.t0, got.dt) == (sent.t0, sent.dt)
        np.testing.assert_array_equal(got.values, sent.values)
