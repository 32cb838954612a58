"""Tests for the numerical kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biscv import (
    BracketError,
    DomainError,
    EvaluationError,
    QuadratureError,
    StudentT,
    SphericalPower,
    bisect_boundary,
    integrate_adaptive,
    maximize_scalar,
)
from biscv.shape import cr
from conftest import central_difference


# ---------------------------------------------------------------- quadrature

def test_integrate_constant():
    res = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-13)
    assert res.subdivisions >= 1
    assert res.abs_error_estimate >= 0.0


def test_integrate_cauchy_density_over_real_line():
    res = integrate_adaptive(lambda x: (1.0 / math.pi) / (1.0 + x * x),
                             -math.inf, math.inf, 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_integrate_spherical_power_score_matches_gamma_formula():
    # location-information integrand of the r=4 spherical-power density;
    # the expected value comes from the independent gamma-function route
    # (r/2) G(r/2-1) G((r+3)/2) / (G(r/2+1) G((r+1)/2)), which is exactly
    # 5/2 at r=4 (also confirmed by the direct polynomial integral).
    r = 4.0
    d = SphericalPower(r)

    def integrand(x):
        f = d.pdf(x)
        fp = d.pdf_deriv(x)
        return np.where(np.asarray(f) > 0, fp * fp / np.where(f > 0, f, 1.0), 0.0)

    expected = (r / 2.0) * math.gamma(r / 2 - 1) * math.gamma((r + 3) / 2) \
        / (math.gamma(r / 2 + 1) * math.gamma((r + 1) / 2))
    assert expected == pytest.approx(2.5, rel=1e-14)
    res = integrate_adaptive(integrand, -2.0, 2.0, 1e-9)
    assert res.value == pytest.approx(expected, rel=1e-4)


def test_integrate_half_infinite():
    res = integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf, 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-11)
    res = integrate_adaptive(lambda x: np.exp(x), -math.inf, 0.0, 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_integrate_endpoint_singularity():
    # integrable x^(-1/2) singularity at the lower endpoint
    res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-8)
    assert res.value == pytest.approx(2.0, rel=1e-6)


def test_integrate_divergent_raises_with_best_estimate():
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, 1e-10)
    assert exc.value.best_estimate > 0.0
    assert exc.value.subdivisions > 100


def test_integrate_nan_reports_abscissa():
    def bad(x):
        return np.where(np.asarray(x) > 0.5, np.nan, 1.0)
    with pytest.raises(EvaluationError) as exc:
        integrate_adaptive(bad, 0.0, 1.0, 1e-10)
    assert exc.value.abscissa > 0.5


def test_integrate_rejects_bad_bounds():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-10)


@pytest.mark.parametrize("d, lo, hi", [
    (StudentT(1.0), -5.0, 5.0),
    (SphericalPower(4.0), -2.0, 2.0),
])
def test_quadrature_linearity_on_catalog_densities(d, lo, hi):
    alpha = 3.7
    base = integrate_adaptive(d.pdf, lo, hi, 1e-12).value
    scaled = integrate_adaptive(lambda x: alpha * d.pdf(x), lo, hi, 1e-12).value
    assert scaled == pytest.approx(alpha * base, rel=1e-12)


# ----------------------------------------------------------- maximize_scalar

def test_maximize_parabola():
    res = maximize_scalar(lambda x: -x * x, -1.0, 1.0, seed_points=33, tol=1e-10)
    assert res.location == pytest.approx(0.0, abs=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.bracket_width <= 1e-10


def test_maximize_sin():
    res = maximize_scalar(np.sin, 0.0, math.pi, seed_points=33, tol=1e-10)
    assert res.location == pytest.approx(math.pi / 2, abs=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_maximize_cauchy_cr_reaches_two():
    # sup over the truncated quantile range of |CR| for the heavy-tailed
    # r=1 member is its tail limit 2
    d = StudentT(1.0)

    def objective(p):
        return np.abs(cr(d, d.quantile(p)))

    res = maximize_scalar(objective, 1e-8, 1.0 - 1e-8, seed_points=201,
                          tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-3)


def test_maximize_seed_doubling_stability():
    def f(x):
        return -(x - 0.3) ** 2

    v1 = maximize_scalar(f, 0.0, 1.0, seed_points=100, tol=1e-8).value
    v2 = maximize_scalar(f, 0.0, 1.0, seed_points=200, tol=1e-8).value
    assert abs(v1 - v2) <= 1e-8


def test_maximize_deterministic_and_tie_break():
    res1 = maximize_scalar(lambda x: float(np.cos(x)), -2.0, 2.0, 33, 1e-9)
    res2 = maximize_scalar(lambda x: float(np.cos(x)), -2.0, 2.0, 33, 1e-9)
    assert res1 == res2
    # flat objective: ties resolve to the smallest abscissa
    flat = maximize_scalar(lambda x: 1.0, 0.0, 1.0, 11, 1e-6)
    assert flat.location == 0.0


def test_maximize_nan_objective():
    with pytest.raises(EvaluationError):
        maximize_scalar(lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0),
                        -1.0, 1.0, 11, 1e-6)


def test_maximize_nan_reached_only_by_a_rescan():
    # the seeds (spacing 1/16) and the first rescan miss the NaN window
    # around the peak at 0.01; the second rescan lands in it
    def objective(x):
        x = np.asarray(x)
        return np.where(np.abs(x - 0.01) < 1e-3, np.nan, -(x - 0.01) ** 2)

    assert not np.isnan(objective(np.linspace(-1.0, 1.0, 33))).any()
    with pytest.raises(EvaluationError) as exc:
        maximize_scalar(objective, -1.0, 1.0, seed_points=33, tol=1e-10)
    assert abs(exc.value.abscissa - 0.01) < 1e-3
    assert not np.any(np.linspace(-1.0, 1.0, 33) == exc.value.abscissa)


def test_maximize_three_seeds_narrow_to_tol():
    res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0,
                          seed_points=3, tol=1e-9)
    assert res.bracket_width <= 1e-9
    assert res.location == pytest.approx(0.3, abs=1e-9)


def test_maximize_samples_on_arrays_only():
    sizes = []

    def objective(x):
        sizes.append(np.size(x))
        return np.sin(x)

    maximize_scalar(objective, 0.0, math.pi, seed_points=33, tol=1e-12)
    assert sizes[0] == 33 and set(sizes[1:]) == {17}


# ------------------------------------------------------------ bisect_boundary

def test_bisect_step_function():
    m = bisect_boundary(lambda x: x < 0.5, 0.0, 1.0, 1e-6)
    assert m == pytest.approx(0.5, abs=1e-6)


def test_bisect_invalid_brackets():
    with pytest.raises(BracketError):
        bisect_boundary(lambda x: False, 0.0, 1.0, 1e-6)
    with pytest.raises(BracketError):
        bisect_boundary(lambda x: True, 0.0, 1.0, 1e-6)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bisect_recovers_arbitrary_boundary(boundary):
    m = bisect_boundary(lambda x: x < boundary, 0.0, 1.0, 1e-9)
    assert abs(m - boundary) <= 1e-9


# --------------------------------------------------------- central_difference

def test_central_difference_polynomial():
    assert central_difference(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-9)
    # fourth-order stencil is exact on quartics up to rounding
    assert central_difference(lambda x: x ** 4, 2.0) == pytest.approx(32.0, rel=1e-11)


def test_central_difference_even_function_critical_point():
    d = StudentT(1.0)
    assert abs(central_difference(d.pdf, 0.0)) <= 1e-10


def test_central_difference_pareto_density():
    # f(x) = a b^a x^-(a+1) with a=2, b=1: f(2) = 2/8 and
    # f'(2) = -(a+1)/x * f(x) = -0.375
    from biscv import Pareto
    d = Pareto(2.0, 1.0)
    assert d.pdf(2.0) == pytest.approx(0.25, rel=1e-15)
    got = central_difference(d.pdf, 2.0, scale=0.1)
    assert got == pytest.approx(-0.375, rel=1e-9)
