"""Tests of the sine eigenbasis: constants, projection, synthesis, point checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatinv import (
    DomainError,
    DataError,
    SineSeries,
    assemble_g,
    eval_basis,
    make_observations,
    make_problem,
    mode_constants,
    project,
)
from heatinv.basis import _near_zero, basis_at

SQ = math.sqrt(2.0 / math.pi)


class TestBasisAt:
    def test_matches_eval_basis_bit_for_bit(self):
        for y in (1.0, 0.3, 2.9, math.pi / 3 + 0.1):
            fy = basis_at(y, 64)
            assert fy.shape == (64,)
            assert all(fy[m - 1] == eval_basis(m, y) for m in range(1, 65))

    @pytest.mark.parametrize("y", [0.0, math.pi, -0.5, 4.0])
    def test_interior_points_only(self, y):
        with pytest.raises(DomainError, match=r"observation point must lie in \(0, pi\)"):
            basis_at(y, 4)


MODE_COUNTS = pytest.mark.parametrize("count", [
    lambda n: project(np.sin, n),
    lambda n: basis_at(1.0, n),
], ids=["project", "basis_at"])


@MODE_COUNTS
@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_mode_counts_are_integers(count, n):
    # project(f, 2.5) gave 3 coefficients and basis_at(1.0, 2.5) 3 values
    with pytest.raises(DomainError, match=f"^truncation order must be an integer, got {n!r}$"):
        count(n)


@MODE_COUNTS
@pytest.mark.parametrize("n", [0, -2])
def test_mode_counts_at_least_one(count, n):
    # basis_at(1.0, 0) and basis_at(1.0, -2) returned empty arrays
    with pytest.raises(DomainError, match=f"^truncation order must be >= 1, got {n}$"):
        count(n)


class TestModeConstants:
    def test_mode_1(self):
        m = mode_constants(1)
        assert m.lam == 1.0
        assert m.c_m == pytest.approx(2.0 * SQ, abs=1e-15)
        assert m.fprime0 == pytest.approx(SQ, abs=1e-15)

    def test_mode_2_source_blind(self):
        assert mode_constants(2).c_m == 0.0  # exact zero, not approximate

    def test_mode_3(self):
        m = mode_constants(3)
        assert m.lam == 9.0
        assert m.c_m == pytest.approx(2.0 * SQ / 3.0, abs=1e-15)
        assert m.fprime0 == pytest.approx(3.0 * SQ, abs=1e-15)

    def test_all_even_modes_blind(self):
        assert all(mode_constants(m).c_m == 0.0 for m in range(2, 65, 2))

    def test_lambda_exact(self):
        assert all(mode_constants(m).lam == m * m for m in range(1, 65))

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            mode_constants(0)
        with pytest.raises(DomainError):
            mode_constants(-3)


class TestEvalBasis:
    def test_peak_of_first_mode(self):
        assert eval_basis(1, math.pi / 2) == pytest.approx(SQ, abs=1e-15)

    def test_zero_of_second_mode(self):
        assert abs(eval_basis(2, math.pi / 2)) < 1e-12

    def test_high_precision_value(self):
        # sqrt(2/pi) sin(3) evaluated with 50-digit arithmetic
        assert eval_basis(3, 1.0) == pytest.approx(0.1125974756513439776570336, abs=1e-15)

    def test_vanishes_at_endpoints(self):
        for m in (1, 2, 7):
            assert eval_basis(m, 0.0) == 0.0
            assert abs(eval_basis(m, math.pi)) < 1e-12

    def test_unit_l2_norm_quad_oracle(self):
        # independent oracle: adaptive quadrature of f_m^2
        for m in (1, 2, 5):
            norm2, _ = quad(lambda x: eval_basis(m, x) ** 2, 0.0, math.pi)
            assert norm2 == pytest.approx(1.0, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_basis(1, -0.1)
        with pytest.raises(DomainError):
            eval_basis(1, math.pi + 0.1)


class TestProject:
    def test_basis_function_projects_to_unit_vector(self):
        series = project(lambda x: eval_basis(2, x), 4)
        np.testing.assert_allclose(series.coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_linear_ramp(self):
        # analytic: integral of (1 - x/pi) sin(m x) over [0, pi] equals 1/m,
        # so the coefficient is sqrt(2/pi)/m; trapezoid error is O(h^2)
        series = project(lambda x: 1.0 - x / math.pi, 3)
        np.testing.assert_allclose(series.coeffs, SQ / np.arange(1, 4), atol=1e-5)

    def test_linear_ramp_vs_quad_oracle(self):
        series = project(lambda x: 1.0 - x / math.pi, 3, quad_points=8192)
        for m in (1, 2, 3):
            ref, _ = quad(lambda x: (1.0 - x / math.pi) * eval_basis(m, x), 0.0, math.pi)
            assert series.coeffs[m - 1] == pytest.approx(ref, abs=1e-6)

    def test_zero_function(self):
        series = project(lambda x: np.zeros_like(x), 5)
        assert np.all(series.coeffs == 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            project(lambda x: np.where(x > 1.0, np.inf, 1.0), 3)

    def test_scalar_only_callable(self):
        series = project(lambda x: math.sin(x), 2)  # math.sin rejects arrays
        np.testing.assert_allclose(series.coeffs, [1.0 / SQ, 0.0], atol=1e-6)


class TestSynthesize:
    def test_single_mode(self):
        s = SineSeries([1.0])
        assert s(math.pi / 2) == pytest.approx(SQ, abs=1e-15)

    def test_zero_series(self):
        s = SineSeries([0.0, 0.0, 0.0])
        assert s(1.234) == 0.0

    def test_two_modes(self):
        s = SineSeries([1.0, 0.5])
        expect = SQ * (math.sin(1.0) + 0.5 * math.sin(2.0))
        assert s(1.0) == pytest.approx(expect, abs=1e-15)

    def test_boundary_values_vanish(self):
        s = SineSeries([0.3, -1.2, 0.7])
        assert s(0.0) == 0.0
        assert abs(s(math.pi)) < 1e-14

    def test_sin_amplitude_convention(self):
        s = SineSeries.from_sin_amplitudes([1.0, 0.5])
        x = np.linspace(0.0, math.pi, 7)
        np.testing.assert_allclose(s(x), np.sin(x) + 0.5 * np.sin(2 * x), atol=1e-14)
        np.testing.assert_allclose(s.sin_amplitudes, [1.0, 0.5], atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            SineSeries([1.0])(4.0)

    @pytest.mark.parametrize("coeffs, text", [
        ([], "coefficient vector must be one-dimensional and non-empty"),
        ([[1.0, 0.5]], "coefficient vector must be one-dimensional and non-empty"),
        ([1.0, math.nan], "coefficient vector contains non-finite entries"),
        ([math.inf], "coefficient vector contains non-finite entries"),
    ], ids=["empty", "2-D", "nan", "inf"])
    def test_malformed_coefficients_refused(self, coeffs, text):
        with pytest.raises(DataError, match=f"^{text}$"):
            SineSeries(coeffs)


class TestOrthonormality:
    def test_gram_matrix_is_identity(self):
        order = 8
        x = np.linspace(0.0, math.pi, 2048)
        f = np.array([eval_basis(m, x) for m in range(1, order + 1)])
        gram = np.trapezoid(f[:, None, :] * f[None, :, :], x, axis=2)
        np.testing.assert_allclose(gram, np.eye(order), atol=1e-12)

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_random_pair(self, m, n):
        x = np.linspace(0.0, math.pi, 2048)
        val = np.trapezoid(eval_basis(m, x) * eval_basis(n, x), x)
        assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


class TestRoundTrip:
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=64)
    )
    @settings(max_examples=25, deadline=None)
    def test_project_synthesize_identity(self, coeffs):
        s = SineSeries(coeffs)
        back = project(s, s.order)
        np.testing.assert_allclose(back.coeffs, s.coeffs, atol=1e-10)


class TestObservationPoint:
    """The rule "f_m(y) is near zero" (basis._near_zero): make_observations
    refuses such a point, and assemble_g rejects the mode."""

    def test_pi_half_unsafe_at_mode_2(self):
        assert np.flatnonzero(_near_zero(basis_at(math.pi / 2, 4))).tolist() == [1, 3]
        with pytest.raises(DomainError, match=r"unsafe: \|sin\(2 y\)\| = 1\.225e-16 below"):
            make_observations(make_problem("generic", 4, 0.1, 1e-2), math.pi / 2)

    def test_y1_safe_to_50_modes(self):
        fy = basis_at(1.0, 50)
        assert not _near_zero(fy).any()
        make_observations(make_problem("generic", 50, 0.1, 1e-2), 1.0)
        # 50-digit scan: the minimum is |sin 22| = 8.85131e-3
        assert int(np.argmin(np.abs(fy))) + 1 == 22
        assert np.abs(fy[21]) / SQ == pytest.approx(0.0088513092904038759, abs=1e-12)
        assert np.flatnonzero(_near_zero(fy, 8.86e-3)).tolist() == [21]

    def test_pi_third_unsafe_at_mode_3(self):
        assert np.flatnonzero(_near_zero(basis_at(math.pi / 3, 3))).tolist() == [2]
        with pytest.raises(DomainError, match=r"\|sin\(3 y\)\|"):
            make_observations(make_problem("generic", 3, 0.1, 1e-2), math.pi / 3)

    def test_boundary_rejected(self):
        p = make_problem("generic", 4, 0.1, 1e-2)
        for y in (0.0, math.pi, -1.0):
            with pytest.raises(DomainError, match="must lie in"):
                make_observations(p, y)

    def test_threshold_configurable(self):
        b = np.ones(50)
        assert assemble_g(b, 1.0, threshold=1e-6).rejected == ()
        assert assemble_g(b, 1.0, threshold=8.86e-3).rejected == (22,)
        loose = assemble_g(b, 1.0, threshold=1e-1)
        near = np.flatnonzero(_near_zero(basis_at(1.0, 50), 1e-1))
        assert 22 in loose.rejected and loose.rejected == tuple(near + 1)
        assert np.all(loose.coeffs[near] == 0.0)
