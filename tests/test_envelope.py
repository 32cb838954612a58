"""Tests for the envelope bounds, density-derivative corridor, and band."""

import io
import math

import numpy as np
import pytest

import biscv as bv
from biscv import (
    DomainError,
    Normal,
    NormalMixture,
    Pareto,
    SphericalPower,
    StudentT,
    Uniform,
)
from biscv.envelope import (
    CSV_HEADER,
    emit_envelope_table,
    f_lower,
    f_upper,
    fl_prime,
    fprime_corridor,
    fu_prime,
    pointwise_band,
    write_envelope_csv,
)
from biscv.shape import check_condition_iv, make_grid
from conftest import grid_for

SANDWICH_MEMBERS = [
    (StudentT(0.5), -2.0 / 3.0), (StudentT(1.0), -0.5), (StudentT(4.0), -0.2),
    (bv.FDist(4.0, 6.0), -1.0 / 3.0),
    (Pareto(2.0, 1.0), -1.0 / 3.0),
    (SphericalPower(1.0), 2.0), (SphericalPower(4.0), 0.5),
    (Normal(), 0.0), (Uniform(0.0, 1.0), math.inf),
]


# ----------------------------------------------------------------- spot values

def test_scalar_x_gives_python_floats():
    d, s, x = StudentT(1.0), -0.5, 0.7
    values = [f_upper(d, s, x), f_lower(d, s, x), fu_prime(d, s, x),
              fl_prime(d, s, x), *fprime_corridor(d, s, x),
              *pointwise_band(d, s, x, 0.3)]
    assert [type(v) for v in values] == [float] * 8


def test_table_columns_match_the_public_transforms():
    d, s = NormalMixture(1.0), -0.25
    grid = make_grid(d, 64)
    pts, F, FL, FU, f, FLp, FUp, fp, lo, hi = emit_envelope_table(d, s, grid)
    np.testing.assert_array_equal(FU, f_upper(d, s, pts))
    np.testing.assert_array_equal(FL, f_lower(d, s, pts))
    np.testing.assert_array_equal(FUp, fu_prime(d, s, pts))
    np.testing.assert_array_equal(FLp, fl_prime(d, s, pts))
    corridor = fprime_corridor(d, s, pts)
    np.testing.assert_array_equal(lo, corridor[0])
    np.testing.assert_array_equal(hi, corridor[1])
    np.testing.assert_array_equal(F, d.cdf(pts))
    np.testing.assert_array_equal(f, d.pdf(pts))
    np.testing.assert_array_equal(fp, d.pdf_deriv(pts))


def test_f_upper_lower_student_t_spot():
    d = StudentT(1.0)
    # F(0) = 1/2 and s* = -1: F_U = (1/2)^-1 - 1, F_L = 2 - (1/2)^-1
    assert f_upper(d, -0.5, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert f_lower(d, -0.5, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_f_upper_spherical_power_spot():
    d = SphericalPower(1.0)
    # F(0) = 1/2 and s* = 2/3: F_U = (3/2)(1 - 2^(-2/3))
    want = 1.5 * (1.0 - 0.5 ** (2.0 / 3.0))
    assert f_upper(d, 2.0, 0.0) == pytest.approx(want, rel=1e-13)


def test_prime_spot_values():
    d = StudentT(1.0)
    assert fu_prime(d, -0.5, 0.0) == pytest.approx(4.0 / math.pi, rel=1e-13)
    u = Uniform(0.0, 1.0)
    # s* = 1 makes both derivative transforms equal the density itself
    assert fu_prime(u, math.inf, 0.5) == pytest.approx(1.0)
    assert fl_prime(u, math.inf, 0.5) == pytest.approx(1.0)


def test_corridor_spot_values():
    lo, hi = fprime_corridor(Normal(), 0.0, 0.0)
    assert hi == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert lo == pytest.approx(-1.0 / math.pi, rel=1e-13)
    lo, hi = fprime_corridor(Uniform(0.0, 1.0), math.inf, 0.5)
    assert lo == 0.0 and hi == 0.0


def test_pareto_derivative_hits_corridor_floor():
    d = Pareto(2.0, 1.0)
    xs = d.quantile(np.linspace(0.05, 0.95, 19))
    lo, hi = fprime_corridor(d, -1.0 / 3.0, xs)
    np.testing.assert_allclose(d.pdf_deriv(xs), lo, rtol=1e-12)


def test_outside_support_rejected():
    d = SphericalPower(1.0)
    for fn in (f_upper, f_lower, fu_prime, fl_prime):
        with pytest.raises(DomainError):
            fn(d, 2.0, 1.5)
    with pytest.raises(DomainError):
        pointwise_band(d, 2.0, 1.5, 0.1)


# ------------------------------------------------------------------ sandwich

@pytest.mark.parametrize("d, s", SANDWICH_MEMBERS)
def test_sandwich_on_catalog_members(d, s):
    pts = grid_for(d).points
    F = d.cdf(pts)
    FU = f_upper(d, s, pts)
    FL = f_lower(d, s, pts)
    assert np.all(FL <= F + 1e-9 * np.maximum(1.0, np.abs(FL)))
    assert np.all(F <= FU + 1e-9 * np.maximum(1.0, np.abs(FU)))


def _slope_margins(x, y):
    k = np.diff(y) / np.diff(x)
    scale = np.maximum.reduce([np.ones(k.size - 1), np.abs(k[1:]),
                               np.abs(k[:-1])])
    return np.diff(k) / scale


@pytest.mark.parametrize("d, s", [(StudentT(1.0), -0.5),
                                  (SphericalPower(1.0), 2.0),
                                  (Normal(), 0.0),
                                  (Pareto(2.0, 1.0), -1.0 / 3.0)])
def test_bound_shapes_on_concave_members(d, s):
    pts = grid_for(d).points
    FU = f_upper(d, s, pts)
    FL = f_lower(d, s, pts)
    assert np.min(_slope_margins(pts, FU)) >= -1e-8   # convex
    assert np.max(_slope_margins(pts, FL)) <= 1e-8    # concave
    FUp = fu_prime(d, s, pts)
    FLp = fl_prime(d, s, pts)
    assert np.min((FUp[1:] - FUp[:-1])
                  / np.maximum(FUp[1:], FUp[:-1])) >= -1e-9
    assert np.min((FLp[:-1] - FLp[1:])
                  / np.maximum(FLp[1:], FLp[:-1])) >= -1e-9


def test_fl_prime_monotone_for_pareto_exponent_two():
    # f/F^2 for the boundary-attaining member with s* = -1
    d = Pareto(1.0, 1.0)
    pts = grid_for(d).points
    vals = fl_prime(d, -0.5, pts)
    assert np.all(np.diff(vals) <= 1e-9 * vals[:-1])


# ---------------------------------------------------- corridor <-> checker iv

@pytest.mark.parametrize("d, s, expect", [
    (StudentT(1.0), -0.5, True),
    (NormalMixture(1.34), 0.0, True),
    (NormalMixture(1.35), 0.0, False),
    (StudentT(1.0), 0.5, False),
])
def test_corridor_consistency_with_checker(d, s, expect):
    g = grid_for(d)
    cert = check_condition_iv(d, s, g)
    assert cert.passed is expect
    pts = g.points
    lo, hi = fprime_corridor(d, s, pts)
    fp = d.pdf_deriv(pts)
    tol = cert.tolerance
    oms = 1.0 / (1.0 + s)
    slack = tol * oms * d.pdf(pts) ** 2 / np.minimum(d.cdf(pts), d.sf(pts))
    inside = bool(np.all(fp >= lo - slack) and np.all(fp <= hi + slack))
    assert inside is expect


# ---------------------------------------------------------------------- band

def test_band_degenerate_at_zero_shift():
    d = StudentT(1.0)
    for x in (-2.0, 0.3, 5.0):
        lo_b, hi_b = pointwise_band(d, -0.5, x, 0.0)
        assert lo_b == d.cdf(x) == hi_b


def test_band_student_t_spot():
    d = StudentT(1.0)
    lo_b, hi_b = pointwise_band(d, -0.5, 0.0, 1.0)
    assert hi_b == pytest.approx(0.5 / (1.0 - 2.0 / math.pi), rel=1e-12)
    assert d.cdf(1.0) <= hi_b
    assert d.cdf(1.0) >= lo_b


def test_band_contains_normal_mixture():
    d = NormalMixture(1.3)
    rng = np.random.default_rng(11)
    xs = d.quantile(rng.uniform(0.001, 0.999, size=100))
    ts = rng.uniform(-6.0, 6.0, size=100)
    lo_b, hi_b = pointwise_band(d, 0.0, xs, ts)
    F = d.cdf(xs + ts)
    assert np.all(F <= hi_b + 1e-12)
    assert np.all(F >= lo_b - 1e-12)


def test_band_spherical_domain_restriction():
    d = SphericalPower(1.0)  # support (-1, 1), s > 0
    lo_b, hi_b = pointwise_band(d, 2.0, 0.5, -2.0)  # t <= lo - x: vacuous upper
    assert hi_b == 1.0
    lo_b, hi_b = pointwise_band(d, 2.0, -0.5, 2.0)  # t >= hi - x: vacuous lower
    assert lo_b == 0.0


def test_band_vacuous_upper_is_inf_for_negative_s():
    d = StudentT(1.0)
    # s* = -1: the upper base 1 - (f/F) t hits zero at t = pi/2, beyond
    # which the bound is vacuous (+inf); the lower side mirrors at t < 0
    lo_b, hi_b = pointwise_band(d, -0.5, 0.0, 2.0)
    assert hi_b == math.inf
    assert d.cdf(2.0) >= lo_b
    lo_b, _ = pointwise_band(d, -0.5, 0.0, -2.0)
    assert lo_b == -math.inf


# --------------------------------------------------------------- s* -> 0 seam

@pytest.mark.parametrize("d", [Normal(), StudentT(1.0)])
def test_envelope_seam_across_zero(d):
    g = make_grid(d, 500, 1e-4)
    pts = g.points
    fu0 = f_upper(d, 0.0, pts)
    fl0 = f_lower(d, 0.0, pts)
    for s in (1e-6, -1e-6):
        assert np.max(np.abs(f_upper(d, s, pts) - fu0)) <= 1e-4
        assert np.max(np.abs(f_lower(d, s, pts) - fl0)) <= 1e-4


# --------------------------------------------------------------------- table

def test_envelope_table_and_csv():
    d = StudentT(1.0)
    g = make_grid(d, 64, 1e-6)
    cols = emit_envelope_table(d, -0.5, g)
    assert len(cols) == len(CSV_HEADER.split(","))
    assert all(c.shape == (64,) for c in cols)
    x, F_U, fp_lo, fp_hi = cols[0], cols[3], cols[8], cols[9]
    assert np.all(np.diff(x) > 0.0)
    assert np.all((fp_lo < 0.0) & (fp_hi > 0.0))
    buf = io.StringIO()
    write_envelope_csv(cols, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "x,F,F_L,F_U,f,FL_prime,FU_prime,f_prime,fp_lo,fp_hi"
    assert len(lines) == 66 and lines[-1] == ""
    # 17-significant-digit round trip
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == x[0]
    assert first[3] == F_U[0]
