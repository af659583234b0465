"""GridFn carrier tests."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatinv
from heatinv import DataError, GridFn, GridMismatchError, HeatInvError, invert_stack
from heatinv.grid import rel_l2


def test_times_and_span():
    f = GridFn(0.5, 0.25, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(f.times, [0.5, 0.75, 1.0])
    assert f.n == 3
    assert f.t_end == pytest.approx(1.0)


def test_values_read_only():
    f = GridFn(0.0, 0.1, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_rejects_non_finite():
    with pytest.raises(DataError):
        GridFn(0.0, 0.1, [1.0, np.nan])
    with pytest.raises(DataError):
        GridFn(0.0, 0.1, [np.inf])


@pytest.mark.parametrize("values", [[], np.zeros((2, 2, 2)), np.zeros((2, 0))],
                         ids=["empty", "3-D", "empty-stack"])
def test_rejects_values_that_are_no_series_or_stack(values):
    with pytest.raises(DataError, match="^grid values must form a non-empty 1-D array or a 2-D stack$"):
        GridFn(0.0, 0.1, values)


def test_rejects_bad_step():
    with pytest.raises(DataError):
        GridFn(0.0, 0.0, [1.0])
    with pytest.raises(DataError):
        GridFn(0.0, -0.1, [1.0])


@pytest.mark.parametrize("t0, dt, text", [
    (math.nan, 1e-3, "grid start must be finite, got nan"),
    (-math.inf, 1e-3, "grid start must be finite, got -inf"),
    (0.0, math.inf, "grid step must be finite and positive, got inf"),
    (0.0, math.nan, "grid step must be finite and positive, got nan"),
])
def test_grid_start_and_step_must_be_finite(t0, dt, text):
    # GridFn(nan, 1e-3, ...) was built, and its grid then differed from itself
    with pytest.raises(DataError) as exc:
        GridFn(t0, dt, [1.0, 2.0])
    assert str(exc.value) == text


def test_arithmetic_requires_same_grid():
    a = GridFn(0.0, 0.1, [1.0, 2.0, 3.0])
    b = GridFn(0.0, 0.1, [1.0, 1.0, 1.0])
    np.testing.assert_allclose((a - b).values, [0.0, 1.0, 2.0])
    c = GridFn(0.0, 0.2, [1.0, 1.0, 1.0])
    with pytest.raises(GridMismatchError):
        a - c
    d = GridFn(0.1, 0.1, [1.0, 1.0, 1.0])
    with pytest.raises(GridMismatchError):
        a - d


def test_sample_vectorised_and_scalar():
    f = GridFn.sample(np.exp, 0.0, 0.5, 3)
    np.testing.assert_allclose(f.values, np.exp([0.0, 0.5, 1.0]))
    import math

    g = GridFn.sample(lambda t: math.cos(t), 0.0, 0.5, 3)
    np.testing.assert_allclose(g.values, np.cos([0.0, 0.5, 1.0]))
    # a callable that takes the array but gives one value for it is called per point
    calls = []
    c = GridFn.sample(lambda t: calls.append(np.shape(t)) or 1.0, 0.0, 0.5, 3)
    assert c.values.tolist() == [1.0, 1.0, 1.0]
    assert calls == [(3,), (), (), ()]


def test_index_of_snaps_to_nearest():
    f = GridFn(0.0, 0.1, np.zeros(11))
    assert f.index_of(0.51) == 5
    assert f.index_of(1.0) == 10
    with pytest.raises(DataError):
        f.index_of(1.2)


def test_trim_head():
    f = GridFn(0.0, 0.1, [1.0, 2.0, 3.0, 4.0])
    g = f.trim_head(2)
    assert g.t0 == pytest.approx(0.2)
    np.testing.assert_allclose(g.values, [3.0, 4.0])
    assert f.trim_head(0) is f
    with pytest.raises(DataError):
        f.trim_head(4)


def test_rel_l2():
    assert rel_l2(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
    assert rel_l2(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)
    assert rel_l2(np.array([0.5]), np.zeros(1)) == pytest.approx(0.5)  # zero signal
    # arrays of different sizes are refused, not broadcast
    with pytest.raises(DataError, match="got 1 and 3 values"):
        rel_l2([1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="got 2 and 3 values"):
        rel_l2([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-200])
def test_rel_l2_at_extreme_scales(scale):
    # the plain sum of squares overflows or underflows here; the norm must not
    approx, exact = np.array([1.0, 2.0]) * scale, np.array([1.1, 2.0]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rel_l2(approx, exact)
    assert got == pytest.approx(rel_l2(np.array([1.0, 2.0]), np.array([1.1, 2.0])), rel=1e-15)
    assert got == pytest.approx(0.1 / math.hypot(1.1, 2.0), rel=1e-15)


def test_rel_l2_keeps_the_bits_of_the_plain_norm():
    # the plain norm is sqrt(x . x), its sum of squares taken by np.einsum
    rng = np.random.default_rng(3)
    approx, exact = rng.standard_normal(1001), rng.standard_normal(1001)
    diff = approx - exact
    plain = math.sqrt(np.einsum("i,i->", diff, diff)) / math.sqrt(np.einsum("i,i->", exact, exact))
    assert rel_l2(approx, exact) == plain
    assert plain == pytest.approx(np.linalg.norm(diff) / np.linalg.norm(exact), rel=1e-15)
    assert math.isnan(rel_l2(np.array([np.nan]), np.ones(1)))
    assert rel_l2(np.array([np.inf]), np.ones(1)) == math.inf


def test_stack_and_rows_round_trip():
    a = GridFn(0.0, 0.1, [1.0, 2.0, 3.0])
    b = GridFn(0.0, 0.1, [4.0, 5.0, 6.0])
    s = GridFn.stack([a, b])
    assert s.n == 3
    assert s.trim_head(1).values.tolist() == [[2.0, 3.0], [5.0, 6.0]]
    assert [r.values.tolist() for r in s.rows()] == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(GridMismatchError):
        GridFn.stack([a, GridFn(0.0, 0.2, [1.0, 2.0, 3.0])])
    # a stack of another row count is another grid, not a broadcast
    with pytest.raises(GridMismatchError):
        s - GridFn.stack([a, b, a])
    # nothing to stack is a typed error, and so is an empty stack of records
    with pytest.raises(DataError, match="empty"):
        GridFn.stack([])
    # a stack is not a row of another stack
    with pytest.raises(DataError, match="^only 1-D grid functions stack$"):
        GridFn.stack([s, s])
    with pytest.raises(HeatInvError, match="empty"):
        invert_stack([])


def test_residuals_keep_their_bits_at_any_blas_thread_count():
    # np.dot splits a long vector across BLAS threads; on 60 001 samples the
    # sums of squares of rel_l2 then moved in the last bits between 1 and 2
    code = (
        "import heatinv\n"
        "p = heatinv.make_problem('generic', 16, 6.0, 1e-4)\n"
        "obs = heatinv.make_observations(p, 1.0, heatinv.NoiseSpec('relative', 1e-8, 1))\n"
        "d = heatinv.invert(obs, heatinv.InversionConfig(order=16)).diagnostics\n"
        "print([d.residual_u1.hex(), d.residual_u3.hex(), d.residual_uy.hex()])\n"
    )
    src = str(Path(heatinv.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_a_read_only_owned_array_is_adopted():
    v = np.arange(4.0)
    v.flags.writeable = False
    f = GridFn(0.0, 0.1, v)
    assert f.values is v
    stack = GridFn(0.0, 0.1, v.reshape(2, 2))  # a read-only view of a read-only owner
    assert np.shares_memory(stack.values, v)


def test_rows_and_trim_head_share_memory():
    s = GridFn(0.0, 0.1, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    for part in s.rows() + [s.trim_head(1)] + [r.trim_head(2) for r in s.rows()]:
        assert np.shares_memory(part.values, s.values) and not part.values.flags.writeable
    a = GridFn(0.0, 0.1, [1.0, 2.0, 3.0])
    assert np.shares_memory(GridFn.stack([a]).values, a.values)


def test_an_array_someone_can_write_is_copied():
    v = np.array([1.0, 2.0, 3.0])
    f = GridFn(0.0, 0.1, v)
    v[0] = 9.0
    assert f.values.tolist() == [1.0, 2.0, 3.0]
    view = v[1:]
    view.flags.writeable = False  # read-only, but its base is not
    g = GridFn(0.0, 0.1, view)
    v[1] = 7.0
    assert g.values.tolist() == [2.0, 3.0]
    assert not np.shares_memory(g.values, v)


@pytest.mark.parametrize("make", [
    lambda bad: GridFn(0.0, 0.1, bad),
    lambda bad: GridFn(0.0, 0.1, bad.tolist()),
    lambda bad: GridFn(0.0, 0.1, bad.copy()),  # writeable: copied, then checked
    lambda bad: GridFn.sample(lambda t: bad, 0.0, 0.1, 3),
], ids=["read-only", "list", "writeable", "sample"])
def test_every_public_path_rejects_non_finite_values(make):
    bad = np.array([1.0, np.nan, np.inf])
    bad.flags.writeable = False
    with pytest.raises(DataError, match="non-finite"):
        make(bad)


def test_arithmetic_that_overflows_is_rejected():
    big = GridFn(0.0, 0.1, [1e308, 1.0])
    with np.errstate(over="ignore"), pytest.raises(DataError, match="non-finite"):
        big - GridFn(0.0, 0.1, [-1e308, 1.0])
