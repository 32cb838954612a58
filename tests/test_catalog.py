"""Tests for the distribution catalog."""

import math
from dataclasses import dataclass

import mpmath
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
from biscv import catalog
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


# every family's parameters, in spec order, and those that must be > 0
FAMILY_PARAMS = {
    "t": (StudentT, ("r",), ("r",)),
    "fdist": (FDist, ("a", "b"), ("a", "b")),
    "pareto": (Pareto, ("a", "b"), ("a", "b")),
    "gpow": (SphericalPower, ("r",), ("r",)),
    "norm": (Normal, ("mu", "sigma"), ("sigma",)),
    "unif": (Uniform, ("lo", "hi"), ()),
    "normmix": (NormalMixture, ("delta",), ("delta",)),
    "tmix": (TMixture, ("r", "delta"), ("r", "delta")),
}


def test_registry_holds_each_family_under_a_unique_tag():
    assert {tag: cls for tag, (cls, _, _) in FAMILY_PARAMS.items()} \
        == catalog._FAMILY_TABLE
    tags = [cls.tag for cls in catalog._FAMILY_TABLE.values()]
    assert len(set(tags)) == len(tags)


@pytest.mark.parametrize("tag", FAMILY_PARAMS)
def test_every_family_round_trips_through_its_spec(tag):
    cls, keys, _ = FAMILY_PARAMS[tag]
    d = cls(*[2.5 + k for k in range(len(keys))])
    assert d.spec_parts() == (tag, [(k, 2.5 + i) for i, k in enumerate(keys)])
    assert parse_spec(d.spec_string()) == d


def test_defaults_round_trip():
    assert parse_spec("norm").spec_string() == "norm:mu=0,sigma=1"
    assert parse_spec("unif").spec_string() == "unif:lo=0,hi=1"
    for spec in ("norm", "unif", "norm:sigma=2", "unif:hi=3"):
        d = parse_spec(spec)
        assert parse_spec(d.spec_string()) == d


@pytest.mark.parametrize("tag", FAMILY_PARAMS)
def test_parameter_checks_name_the_parameter(tag):
    cls, keys, positive = FAMILY_PARAMS[tag]
    good = dict(zip(keys, (2.0, 3.0)))
    for key in keys:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError) as exc:
                cls(**{**good, key: bad})
            assert str(exc.value) == f"{key} must be a finite number"
    for key in positive:
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError) as exc:
                cls(**{**good, key: bad})
            assert str(exc.value) == f"{key} must be > 0"


def test_parameter_checks_run_in_order():
    # every finiteness check comes before every sign check
    for d_args, message in [
            ((0.0, math.inf), "b must be a finite number"),
            ((0.0, 0.0), "a must be > 0"),
    ]:
        for cls in (FDist, Pareto):
            with pytest.raises(DomainError) as exc:
                cls(*d_args)
            assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        TMixture(-1.0, math.nan)
    assert str(exc.value) == "delta must be a finite number"
    with pytest.raises(DomainError) as exc:
        Uniform(2.0, 1.0)
    assert str(exc.value) == "lo must be < hi"
    with pytest.raises(DomainError) as exc:
        Uniform(2.0, math.inf)
    assert str(exc.value) == "hi must be a finite number"


@pytest.mark.parametrize("d", [StudentT(3.0), StudentT(0.5),
                               SphericalPower(4.0), NormalMixture(1.3),
                               TMixture(1.0, 1.475)])
def test_symmetric_law_survival_is_the_reflected_cdf(d):
    xs = np.concatenate([np.linspace(-9.0, 9.0, 361), [-1e30, -0.0, 1e30]])
    assert np.array_equal(d.sf(xs), d.cdf(-xs))


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


# Test-local mpmath distribution functions: (F, 1 - F) for each family,
# written from the textbook forms and not from biscv.catalog.

def _mp_t_cdf(x, r):
    tail = mpmath.betainc(r / 2, mpmath.mpf(1) / 2, 0, r / (r + x * x),
                          regularized=True) / 2
    return tail if x <= 0 else 1 - tail


def _mp_cdf_sf(d):
    mpf = mpmath.mpf
    if isinstance(d, StudentT):
        r = mpf(d.r)
        return (lambda x: _mp_t_cdf(x, r)), (lambda x: _mp_t_cdf(-x, r))
    if isinstance(d, FDist):
        a, b = mpf(d.a), mpf(d.b)
        return ((lambda x: mpmath.betainc(b / 2, a / 2, 0, b * x / (a + b * x),
                                          regularized=True)),
                (lambda x: mpmath.betainc(a / 2, b / 2, 0, a / (a + b * x),
                                          regularized=True)))
    if isinstance(d, Pareto):
        a, b = mpf(d.a), mpf(d.b)
        return (lambda x: 1 - (x / b) ** -a), (lambda x: (x / b) ** -a)
    if isinstance(d, SphericalPower):
        k, edge = mpf(d.r) / 2 + 1, mpmath.sqrt(mpf(d.r))

        def cdf(x):
            return mpmath.betainc(k, k, 0, (x / edge + 1) / 2, regularized=True)
        return cdf, (lambda x: cdf(-x))
    if isinstance(d, Normal):
        mu, sigma = mpf(d.mu), mpf(d.sigma)
        return ((lambda x: mpmath.ncdf(x, mu, sigma)),
                (lambda x: mpmath.ncdf(-x, -mu, sigma)))
    if isinstance(d, Uniform):
        lo, hi = mpf(d.lo), mpf(d.hi)
        return (lambda x: (x - lo) / (hi - lo)), (lambda x: (hi - x) / (hi - lo))
    delta = mpf(d.delta)
    if isinstance(d, NormalMixture):
        def comp(x):
            return mpmath.ncdf(x)
    else:
        r = mpf(d.r)

        def comp(x):
            return _mp_t_cdf(x, r)

    def cdf(x):
        return (comp(x - delta) + comp(x + delta)) / 2
    return cdf, (lambda x: cdf(-x))


def _mp_quantile(d, p: float, start: float):
    """Root of F(x) = p (p <= 1/2) or 1 - F(x) = 1 - p at 40 digits; the
    secant search starts from ``start`` and checks its own residual."""
    cdf, sf = _mp_cdf_sf(d)
    with mpmath.workdps(40):
        pm = mpmath.mpf(p)
        if p <= 0.5:
            def g(x):
                return cdf(x) - pm
        else:
            def g(x):
                return sf(x) - (1 - pm)
        x0 = mpmath.mpf(start)
        return float(mpmath.findroot(g, (x0, x0 * (1 + mpmath.mpf(1e-9))
                                         + mpmath.mpf(1e-12))))


_REFERENCE_P = (1e-8, 1e-4, 0.3, 0.5, 1.0 - 1e-4, 1.0 - 1e-8)


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_quantile_matches_mpmath(d):
    got = d.quantile(np.array(_REFERENCE_P))
    want = np.array([_mp_quantile(d, p, x) for p, x in zip(_REFERENCE_P, got)])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_normal_quantile_deep_tail_matches_mpmath():
    # criterion 2 grids the normal from p = 1e-290
    got = Normal().quantile(1e-290)
    assert got == pytest.approx(_mp_quantile(Normal(), 1e-290, got), rel=1e-15)


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_grid_quantiles_within_one_ulp(d):
    # |F(x) - p| may exceed f(x) ulp(x), the change of F across one double
    # at x, only by the rounding noise of F itself.  The subtracted term is
    # what limits pareto and unif near their lower ends.
    p = np.linspace(1e-8, 1.0 - 1e-8, 2000)
    x = d.quantile(p)
    resid = np.where(p <= 0.5, np.abs(d.cdf(x) - p),
                     np.abs(d.sf(x) - (1.0 - p)))
    excess = (resid - d.pdf(x) * np.spacing(np.abs(x))) / np.minimum(p, 1.0 - p)
    assert excess.max() <= 2e-13


@pytest.mark.parametrize("d", [NormalMixture(1.3), NormalMixture(0.2),
                               TMixture(1.0, 0.57), TMixture(3.0, 2.0)])
def test_mixture_quantile_odd_symmetric(d):
    upper = 1.0 - np.geomspace(1e-8, 0.45, 200)
    lower = 1.0 - upper  # exact: upper >= 1/2
    q_lo, q_hi = d.quantile(lower), d.quantile(upper)
    assert np.all(np.abs(q_hi + q_lo) <= 4.0 * np.spacing(np.abs(q_lo)))
    assert abs(d.quantile(0.5)) <= 1e-15


def test_quantile_domain():
    with pytest.raises(DomainError):
        Normal().quantile(0.0)
    with pytest.raises(DomainError):
        Normal().quantile(1.0)
    with pytest.raises(DomainError):
        Normal().quantile(np.nan)


@pytest.mark.parametrize("r, p", [(0.06, 1e-16), (3.0, 1e-300),
                                  (1.5, 1e-300), (1.0, 1e-12)])
def test_student_t_deep_tail_quantile_matches_mpmath(r, p):
    # stdtrit gives -1.6e153 at (0.06, 1e-16) and +inf at (3, 1e-300); the
    # search starts from the power tail F(-x) = K x^-r, worked out in mpmath
    with mpmath.workdps(40):
        rm = mpmath.mpf(r)
        k = (mpmath.gamma((rm + 1) / 2) / (mpmath.sqrt(mpmath.pi * rm)
                                           * mpmath.gamma(rm / 2))
             * rm ** ((rm - 1) / 2))
        start = float(-(k / p) ** (1 / rm))
    want = _mp_quantile(StudentT(r), p, start)
    assert StudentT(r).quantile(p) == pytest.approx(want, rel=1e-12)


def _mp_cdf_at(d, xs):
    cdf, _ = _mp_cdf_sf(d)
    with mpmath.workdps(40):
        return np.array([float(cdf(mpmath.mpf(float(x)))) for x in xs])


def test_student_t_cdf_near_zero_matches_mpmath():
    # betainc(r/2, 1/2, r/(r+x^2)) rounds its argument to 1 near x = 0
    # (relative error 3.3e-11 at x = -1e-6); the complementary form does not
    xs = np.array([-1e-6, -1e-3, 1e-4, 0.3, -0.7, -1.9])
    d = StudentT(4.0)
    np.testing.assert_allclose(d.cdf(xs), _mp_cdf_at(d, xs), rtol=1e-14, atol=0)


@pytest.mark.parametrize("cls", [StudentT, SphericalPower])
@pytest.mark.parametrize("r", [60.0, 1e6, 1e20, 1e300, 1e308])
def test_normalizing_constant_at_large_r_matches_mpmath(cls, r):
    # Gamma(b + 1/2) / (Gamma(b) sqrt(pi r)), b = r/2 (t) or 1 + r/2 (gpow);
    # a difference of two double log Gammas kept no digit of it at r = 1e20
    with mpmath.workdps(40 + int(math.log10(r))):
        b = mpmath.mpf(r) / 2 + (0 if cls is StudentT else 1)
        want = mpmath.exp(mpmath.loggamma(b + mpmath.mpf(1) / 2)
                          - mpmath.loggamma(b)) / mpmath.sqrt(mpmath.pi * r)
    assert cls(r).normalization == pytest.approx(float(want), rel=4e-16)


@pytest.mark.parametrize("r, xs", [(1000.0, [-3.0, -6.0, -10.0]),
                                   (100.0, [-3.0])])
def test_student_t_cdf_tail_at_large_r_matches_mpmath(r, xs):
    # the complement ½ - ½ I would cancel here, where F is far below ¼
    xs = np.array(xs)
    d = StudentT(r)
    np.testing.assert_allclose(d.cdf(xs), _mp_cdf_at(d, xs), rtol=1e-12, atol=0)


def test_t_mixture_cdf_near_component_centre_matches_mpmath():
    # near x = -2 the component t_r(x + delta) is evaluated near its centre
    xs = np.array([-2.0006, -2.0001, -2.00001, -1.99999, -1.9994])
    d = TMixture(7.9, 2.0)
    np.testing.assert_allclose(d.cdf(xs), _mp_cdf_at(d, xs), rtol=1e-14, atol=0)


def _mp_spherical_z(r: float, p: float):
    """z with I_z(a, a) = p, a = r/2 + 1, at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(r) / 2 + 1
        z0 = (p * a * mpmath.beta(a, a)) ** (1 / a)
        # in logs: |I_z - p| is below any tolerance at these sizes
        y = mpmath.findroot(
            lambda y: mpmath.log(mpmath.betainc(a, a, 0, mpmath.exp(y),
                                                regularized=True) / p),
            mpmath.log(z0))
        return mpmath.exp(y)


@pytest.mark.parametrize("r", [2.2, 3.7, 8.5])
@pytest.mark.parametrize("p", [1e-150, 1e-300])
def test_spherical_power_deep_tail_matches_mpmath(r, p):
    # betaincinv returns NaN at both p for r = 3.7
    d = SphericalPower(r)
    z = _mp_spherical_z(r, p)
    with mpmath.workdps(40):
        edge = mpmath.sqrt(mpmath.mpf(r))
        x = edge * (2 * z - 1)
        w = 4 * z * (1 - z)
        c = mpmath.gamma((3 + mpmath.mpf(r)) / 2) / (
            mpmath.sqrt(mpmath.pi * r) * mpmath.gamma(1 + mpmath.mpf(r) / 2))
        f, score = c * w ** (mpmath.mpf(r) / 2), -x / w
    # x rounds to the support end; quantile keeps it one double inside
    assert d.quantile(p) == pytest.approx(float(x), rel=1e-15)
    assert d.quantile(p) > d.support().lo
    (f_lo, s_lo), (f_hi, s_hi) = d.density_at_quantiles(np.array([p]))
    assert f_lo[0] == pytest.approx(float(f), rel=1e-12)
    assert f_hi[0] == f_lo[0]
    assert s_lo[0] == pytest.approx(float(score), rel=1e-12)
    assert s_hi[0] == -s_lo[0]


def test_quantile_raises_instead_of_nan():
    @dataclass(frozen=True)
    class Broken(Normal):
        def _quantile(self, p):
            return np.where(p < 0.25, np.nan, p)

    with pytest.raises(DomainError, match=r"p=0\.125"):
        Broken().quantile(np.array([0.5, 0.125, 0.25]))
    assert Broken().quantile(0.5) == 0.5


@pytest.mark.parametrize("d", ALL_MEMBERS)
def test_density_at_quantiles_matches_the_evaluators(d):
    v = np.array([1e-6, 0.01, 0.3, 0.5])
    (f_lo, s_lo), (f_hi, s_hi) = d.density_at_quantiles(v)
    for p, f, score in ((v, f_lo, s_lo), (1.0 - v, f_hi, s_hi)):
        x = d.quantile(p)
        np.testing.assert_allclose(f, d.pdf(x), rtol=1e-9)
        np.testing.assert_allclose(score, d.pdf_deriv(x) / d.pdf(x),
                                   rtol=1e-9, atol=1e-12)


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
