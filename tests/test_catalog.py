"""Tests for the distribution catalog."""

import math

import numpy as np
import pytest

from biscv import (
    DomainError,
    FDist,
    NonDifferentiableError,
    Normal,
    NormalMixture,
    Pareto,
    ParseError,
    SphericalPower,
    StudentT,
    TMixture,
    Uniform,
    integrate_adaptive,
    parse_spec,
)
from conftest import central_difference

ALL_MEMBERS = [
    StudentT(0.5), StudentT(1.0), StudentT(4.0),
    FDist(4.0, 6.0),
    Pareto(1.0, 1.0), Pareto(2.0, 1.0), Pareto(5.0, 1.0),
    SphericalPower(1.0), SphericalPower(4.0),
    Normal(0.0, 1.0), Uniform(0.0, 1.0),
    NormalMixture(1.3), TMixture(1.0, 1.3),
]


# --------------------------------------------------------------------- parse

def test_parse_basic():
    assert parse_spec("t:r=1") == StudentT(1.0)
    assert parse_spec("tmix:r=1,delta=1.475") == TMixture(1.0, 1.475)
    assert parse_spec("pareto:a=2,b=1") == Pareto(2.0, 1.0)
    assert parse_spec("gpow:r=4") == SphericalPower(4.0)
    assert parse_spec("fdist:a=4,b=6") == FDist(4.0, 6.0)
    assert parse_spec("normmix:delta=1.34") == NormalMixture(1.34)


def test_parse_defaults():
    assert parse_spec("norm") == Normal(0.0, 1.0)
    assert parse_spec("norm:mu=3") == Normal(3.0, 1.0)
    assert parse_spec("unif") == Uniform(0.0, 1.0)


def test_parse_constraint_violation_named():
    with pytest.raises(DomainError, match="a must be > 0"):
        parse_spec("pareto:a=0,b=1")
    with pytest.raises(DomainError, match="sigma must be > 0"):
        parse_spec("norm:mu=0,sigma=0")
    with pytest.raises(DomainError, match="lo must be < hi"):
        parse_spec("unif:lo=2,hi=1")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        parse_spec("t:r=abc")
    with pytest.raises(ParseError, match="unknown family"):
        parse_spec("cauchy:r=1")
    with pytest.raises(ParseError, match="unknown key"):
        parse_spec("t:nu=1")
    with pytest.raises(ParseError, match="missing required"):
        parse_spec("tmix:r=1")
    with pytest.raises(ParseError):
        parse_spec("")


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_spec_string_round_trip(d):
    assert parse_spec(d.spec_string()) == d


# ------------------------------------------------------------- point values

def test_student_t_cdf_closed_form():
    d = StudentT(1.0)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    xs = np.linspace(-30.0, 30.0, 101)
    expect = 0.5 + np.arctan(xs) / math.pi
    np.testing.assert_allclose(d.cdf(xs), expect, rtol=1e-13, atol=1e-15)


def test_pareto_density_value():
    assert Pareto(2.0, 1.0).pdf(2.0) == pytest.approx(0.25, rel=1e-15)


def test_max_known_s_values():
    assert StudentT(1.0).max_known_s() == pytest.approx(-0.5)
    assert StudentT(4.0).max_known_s() == pytest.approx(-0.2)
    assert SphericalPower(4.0).max_known_s() == pytest.approx(0.5)
    assert Pareto(2.0, 1.0).max_known_s() == pytest.approx(-1.0 / 3.0)
    assert FDist(4.0, 6.0).max_known_s() == pytest.approx(-1.0 / 3.0)
    assert FDist(1.0, 6.0).max_known_s() is None  # outside a, b >= 2
    assert Normal().max_known_s() == 0.0
    assert Uniform(0, 1).max_known_s() == math.inf
    assert NormalMixture(1.3).max_known_s() is None
    assert TMixture(1.0, 1.3).max_known_s() is None


def test_student_t_normalization_constant():
    # C_r = Gamma((r+1)/2) / (sqrt(pi r) Gamma(r/2))
    for r in (0.5, 1.0, 4.0):
        want = math.gamma((r + 1) / 2) / (math.sqrt(math.pi * r) * math.gamma(r / 2))
        assert StudentT(r).normalization == pytest.approx(want, rel=1e-12)


def test_spherical_power_constant_and_edges():
    for r in (1.0, 4.0):
        d = SphericalPower(r)
        want = math.gamma((3 + r) / 2) / (math.sqrt(math.pi * r)
                                          * math.gamma(1 + r / 2))
        assert d.normalization == pytest.approx(want, rel=1e-12)
        edge = math.sqrt(r)
        assert d.pdf(edge) == 0.0
        assert d.pdf(-edge) == 0.0


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_unit_mass(d):
    sup = d.support()
    if isinstance(d, StudentT) and d.r < 1.0:
        # the rational tail map resolves |x| only up to ~1/(2 eps_machine),
        # and an r<1 tail still carries ~1e-8 mass beyond; integrate a wide
        # quantile window and account for the excluded tail mass exactly
        eps = 1e-10
        a, b = d.quantile(eps), d.quantile(1.0 - eps)
        res = integrate_adaptive(d.pdf, a, b, 1e-12)
        assert res.value == pytest.approx(1.0 - 2 * eps, abs=1e-10)
    else:
        res = integrate_adaptive(d.pdf, sup.lo, sup.hi, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------- cdf / sf / quantile

@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_cdf_monotone_with_limits(d):
    g = np.linspace(0.001, 0.999, 500)
    xs = d.quantile(g)
    F = d.cdf(xs)
    assert np.all(np.diff(F) >= 0.0)
    assert np.all(F >= 0.0) and np.all(F <= 1.0)
    sup = d.support()
    lo_probe = sup.lo - 1.0 if math.isfinite(sup.lo) else -1e300
    hi_probe = sup.hi + 1.0 if math.isfinite(sup.hi) else 1e300
    assert d.cdf(lo_probe) <= 1e-10
    assert d.cdf(hi_probe) >= 1.0 - 1e-10


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_cdf_sf_complement(d):
    xs = d.quantile(np.linspace(0.01, 0.99, 51))
    np.testing.assert_allclose(d.cdf(xs) + d.sf(xs), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_quantile_inverts_cdf(d):
    p = np.concatenate([[1e-8, 1e-4], np.linspace(0.01, 0.99, 30),
                        [1.0 - 1e-4, 1.0 - 1e-8]])
    q = d.quantile(p)
    assert np.all(np.diff(q) > 0.0)
    np.testing.assert_allclose(d.cdf(q), p, rtol=0, atol=1e-10)


def test_quantile_domain():
    with pytest.raises(DomainError):
        Normal().quantile(0.0)
    with pytest.raises(DomainError):
        Normal().quantile(1.0)


# ------------------------------------------------------------- differentials

@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_cdf_derivative_is_pdf(d):
    xs = d.quantile(np.linspace(0.01, 0.99, 100))
    pdf = d.pdf(xs)
    got = np.array([central_difference(d.cdf, float(x), scale=0.05) for x in xs])
    np.testing.assert_allclose(got, pdf, rtol=1e-7,
                               atol=1e-10 * max(1.0, pdf.max()))


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_pdf_derivative_is_pdf_deriv(d):
    xs = d.quantile(np.linspace(0.01, 0.99, 100))
    pd = d.pdf_deriv(xs)
    got = np.array([central_difference(d.pdf, float(x), scale=0.05) for x in xs])
    scale = np.abs(pd).max()
    if scale == 0.0:  # uniform: flat density
        assert np.all(np.abs(got) <= 1e-12)
    else:
        np.testing.assert_allclose(got, pd, rtol=1e-7, atol=1e-9 * scale)


def test_pareto_non_differentiable_at_edge():
    d = Pareto(2.0, 1.0)
    with pytest.raises(NonDifferentiableError):
        d.pdf_deriv(1.0)
    assert d.pdf_deriv(0.5) == 0.0
    assert d.pdf_deriv(2.0) == pytest.approx(-0.375, rel=1e-14)


def test_spherical_power_edge_derivative_limits():
    assert SphericalPower(4.0).pdf_deriv(2.0) == 0.0
    d2 = SphericalPower(2.0)
    val = d2.pdf_deriv(math.sqrt(2.0))
    assert val == pytest.approx(-math.sqrt(2.0) * d2.normalization, rel=1e-12)


@pytest.mark.parametrize("mix, comp, delta", [
    (NormalMixture(1.3), Normal(0.0, 1.0), 1.3),
    (TMixture(1.0, 1.475), StudentT(1.0), 1.475),
])
def test_mixture_is_exact_half_half_average(mix, comp, delta):
    xs = np.linspace(-8.0, 8.0, 321)
    want = 0.5 * (comp.pdf(xs - delta) + comp.pdf(xs + delta))
    assert np.all(mix.pdf(xs) == want)
    want_cdf = 0.5 * (comp.cdf(xs - delta) + comp.cdf(xs + delta))
    assert np.all(mix.cdf(xs) == want_cdf)


def test_immutability():
    d = StudentT(1.0)
    with pytest.raises(Exception):
        d.r = 2.0
