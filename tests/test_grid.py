"""GridFn carrier tests."""

import math
import warnings

import numpy as np
import pytest

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


def test_rejects_bad_step():
    with pytest.raises(DataError):
        GridFn(0.0, 0.0, [1.0])
    with pytest.raises(DataError):
        GridFn(0.0, -0.1, [1.0])


def test_arithmetic_requires_same_grid():
    a = GridFn(0.0, 0.1, [1.0, 2.0, 3.0])
    b = GridFn(0.0, 0.1, [1.0, 1.0, 1.0])
    np.testing.assert_allclose((a - b).values, [0.0, 1.0, 2.0])
    np.testing.assert_allclose((a + b).values, [2.0, 3.0, 4.0])
    c = GridFn(0.0, 0.2, [1.0, 1.0, 1.0])
    with pytest.raises(GridMismatchError):
        a - c
    d = GridFn(0.1, 0.1, [1.0, 1.0, 1.0])
    with pytest.raises(GridMismatchError):
        a + d


def test_sample_vectorised_and_scalar():
    f = GridFn.sample(np.exp, 0.0, 0.5, 3)
    np.testing.assert_allclose(f.values, np.exp([0.0, 0.5, 1.0]))
    import math

    g = GridFn.sample(lambda t: math.cos(t), 0.0, 0.5, 3)
    np.testing.assert_allclose(g.values, np.cos([0.0, 0.5, 1.0]))


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
    rng = np.random.default_rng(3)
    approx, exact = rng.standard_normal(1001), rng.standard_normal(1001)
    assert rel_l2(approx, exact) == np.linalg.norm(approx - exact) / np.linalg.norm(exact)
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
    assert not s.same_grid(a)
    with pytest.raises(GridMismatchError):
        s - GridFn.stack([a, b, a])
    # nothing to stack is a typed error, and so is an empty stack of records
    with pytest.raises(DataError, match="empty"):
        GridFn.stack([])
    with pytest.raises(HeatInvError, match="empty"):
        invert_stack([])
