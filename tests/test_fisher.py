"""Tests for the Fisher-information chain."""

import math

import numpy as np
import pytest

from biscv import (
    DomainError,
    Normal,
    NormalMixture,
    Pareto,
    PreconditionError,
    QuadratureError,
    SphericalPower,
    StudentT,
    Uniform,
    check_fisher_chain,
    fisher_closed_form_spherical,
    fisher_info,
    hardy_integrals,
    integrate_adaptive,
)
from biscv.fisher import fisher_integrals


# ----------------------------------------------------------------- closed form

def test_closed_form_values():
    # (r/2) G(r/2-1) G((r+3)/2) / (G(r/2+1) G((r+1)/2)) = (r+1)/(r-2);
    # confirmed independently by direct integration of the r=4 polynomial
    # integrand: C_4 * integral of x^2 over [-2, 2] = (15/32)(16/3) = 5/2
    assert fisher_closed_form_spherical(3.0) == pytest.approx(4.0, rel=1e-12)
    assert fisher_closed_form_spherical(4.0) == pytest.approx(2.5, rel=1e-12)
    assert fisher_closed_form_spherical(6.0) == pytest.approx(1.75, rel=1e-12)
    assert fisher_closed_form_spherical(10.0) == pytest.approx(1.375, rel=1e-12)


def test_closed_form_matches_simplification():
    rng = np.random.default_rng(5)
    for r in rng.uniform(2.05, 50.0, size=50):
        assert fisher_closed_form_spherical(r) == pytest.approx(
            (r + 1.0) / (r - 2.0), rel=1e-11)


def test_closed_form_domain_and_divergence_onset():
    for r in (2.0, 1.0, 0.5):
        with pytest.raises(DomainError, match="diverges"):
            fisher_closed_form_spherical(r)
    assert fisher_closed_form_spherical(2.1) > 20.0


def test_closed_form_monotone_decreasing():
    rs = np.linspace(2.05, 50.0, 200)
    vals = [fisher_closed_form_spherical(float(r)) for r in rs]
    assert np.all(np.diff(vals) < 0.0)


# ----------------------------------------------------------------- fisher_info

def test_fisher_info_normal():
    assert fisher_info(Normal()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("r", [3.0, 4.0, 6.0, 10.0])
def test_fisher_info_matches_closed_form(r):
    got = fisher_info(SphericalPower(r))
    assert got == pytest.approx(fisher_closed_form_spherical(r), rel=1e-4)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_fisher_info_divergence_flag(r):
    assert math.isinf(fisher_info(SphericalPower(r)))


@pytest.mark.parametrize("r", [2.2, 2.5, 2.8, 3.0])
def test_fisher_info_spherical_power_near_the_divergence(r):
    # the integrand grows like u^(-4/(r+2)) at both ends of (0, 1)
    assert fisher_info(SphericalPower(r)) == pytest.approx(
        (r + 1.0) / (r - 2.0), rel=1e-8)


def test_fisher_info_spherical_power_r_2_05_is_right_or_raises():
    # the slope is -0.988: most of the value lies in the power-law remainder
    want = 3.05 / 0.05
    try:
        got = fisher_info(SphericalPower(2.05))
    except QuadratureError as exc:
        assert exc.best_estimate == pytest.approx(want, rel=1e-6)
    else:
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("r", [1.5, 5.0, 9.5])
def test_fisher_info_student_t_closed_form(r):
    assert fisher_info(StudentT(r)) == pytest.approx((r + 1.0) / (r + 3.0),
                                                     rel=1e-8)


def test_fisher_info_translation_invariance():
    a = fisher_info(Normal(0.0, 1.0))
    b = fisher_info(Normal(3.0, 1.0))
    assert abs(a - b) <= 1e-8


# ------------------------------------------------------------- hardy integrals

def test_hardy_normal_bounded_by_four_times_information():
    i_f = fisher_info(Normal())
    left, right = hardy_integrals(Normal())
    assert left <= 4.0 * i_f + 1e-6
    assert right <= 4.0 * i_f + 1e-6


def test_hardy_symmetric_distribution():
    left, right = hardy_integrals(StudentT(4.0))
    assert left == pytest.approx(right, abs=1e-8)


# int_0^1 (f(Q(u))/u)^2 du for gpow: 30-digit mpmath quadrature in z, where
# u = I_z(a, a), with z = s^k, k = 1/(r/2 - 1), to remove the z^(r/2-2) end
_GPOW_HARDY = {2.2: 30.831224652209359, 2.5: 12.873797426637856,
               3.7: 4.5050192166576463}


@pytest.mark.parametrize("r", sorted(_GPOW_HARDY))
def test_hardy_spherical_power_matches_mpmath(r):
    left, right = hardy_integrals(SphericalPower(r))
    assert left == pytest.approx(_GPOW_HARDY[r], rel=1e-10)
    assert right == pytest.approx(_GPOW_HARDY[r], rel=1e-10)


def test_one_sweep_gives_all_three_integrals():
    d = SphericalPower(2.5)
    i_f, left, right = fisher_integrals(d)
    assert i_f == fisher_info(d)
    assert (left, right) == hardy_integrals(d)
    assert fisher_integrals(SphericalPower(1.8)) == (math.inf,) * 3
    with pytest.raises(DomainError):
        fisher_integrals(d, rel_tol=0.0)


def test_normal_mixture_with_a_deep_valley_matches_mpmath():
    # f(0) = 0.0044 between the modes, so in u the valley is ~0.003 wide
    # around u = 1/2; references by 30-digit mpmath quadrature in x
    i_f, left, right = fisher_integrals(NormalMixture(3.0))
    assert i_f == pytest.approx(0.96264028234086838, rel=1e-10)
    assert left == pytest.approx(0.61723162264000517, rel=1e-10)
    assert right == pytest.approx(0.61723162264000517, rel=1e-10)


def test_law_beyond_double_precision_is_refused():
    # t with r = 0.001 has |Q(1/4)| far beyond 1e308
    with pytest.raises(DomainError, match="not finite"):
        fisher_integrals(StudentT(0.001))


def test_hardy_pareto_left_diverges_right_analytic():
    # f(b) > 0 at the lower support endpoint makes (f/F)^2 dF blow up like
    # (x-b)^-2; the right integral is a^3/((a+2) b^2) in closed form
    for a, b in ((2.0, 1.0), (2.0, 2.0), (5.0, 1.0)):
        left, right = hardy_integrals(Pareto(a, b))
        assert math.isinf(left)
        assert right == pytest.approx(a ** 3 / ((a + 2.0) * b * b), rel=1e-6)


def test_hardy_right_matches_high_resolution_quadrature():
    d = Pareto(2.0, 1.0)

    def integrand(x):
        f = d.pdf(x)
        S = d.sf(x)
        return np.where(np.asarray(S) > 0, (f / np.where(S > 0, S, 1)) ** 2 * f, 0.0)

    oracle = integrate_adaptive(integrand, 1.0, math.inf, 1e-12).value
    _, right = hardy_integrals(d, rel_tol=1e-6)
    assert right == pytest.approx(oracle, rel=1e-6)


# ----------------------------------------------------------------------- chain

def test_chain_normal():
    rep = check_fisher_chain(Normal(), 0.0)
    assert rep.chain_holds
    assert not rep.all_infinite
    assert rep.i_f == pytest.approx(1.0, abs=1e-6)
    assert rep.chain_lo <= rep.i_f <= rep.chain_hi


def test_chain_spherical_power_four():
    rep = check_fisher_chain(SphericalPower(4.0), 0.5)
    assert rep.chain_holds
    assert rep.i_f == pytest.approx(2.5, rel=1e-4)


def test_chain_spherical_power_six():
    rep = check_fisher_chain(SphericalPower(6.0), 1.0 / 3.0)
    assert rep.chain_holds
    assert rep.i_f == pytest.approx(1.75, rel=1e-4)


def test_chain_spherical_power_near_the_divergence():
    rep = check_fisher_chain(SphericalPower(2.2), 0.9)
    assert rep.chain_holds
    assert not rep.all_infinite
    assert rep.i_f == pytest.approx(16.0, rel=1e-8)
    assert rep.chain_lo <= rep.i_f <= rep.chain_hi


def test_chain_all_infinite_for_r_two():
    rep = check_fisher_chain(SphericalPower(2.0), 1.0)
    assert rep.all_infinite
    assert rep.chain_holds  # vacuously: every integral diverges
    assert rep.to_dict()["note"] == "all integrals infinite"
    assert rep.to_dict()["I_f"] is None


def test_chain_refuses_failing_distribution():
    with pytest.raises(PreconditionError, match="witness"):
        check_fisher_chain(StudentT(1.0), 0.5)


def test_chain_uniform_reports_broken_hardy():
    # the uniform density does not vanish at its endpoints, so the Hardy
    # integrals diverge while the information is 0: the chain cannot hold
    rep = check_fisher_chain(Uniform(0.0, 1.0), math.inf)
    assert rep.i_f == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(rep.hardy_left)
    assert not rep.chain_holds
    assert not rep.all_infinite
