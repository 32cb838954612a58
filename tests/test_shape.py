"""Tests for the bi-s*-concavity machinery."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biscv as bv
from biscv import (
    BracketError,
    DomainError,
    FDist,
    Normal,
    NormalMixture,
    Pareto,
    SphericalPower,
    StudentT,
    TMixture,
    Uniform,
)
from biscv.envelope import emit_envelope_table
from biscv.shape import (
    Grid,
    _log_mid_mean,
    _midpoint_pairs,
    check_condition_iii,
    check_condition_iv,
    check_midpoint,
    cr,
    cr_min,
    cr_report,
    cr_right,
    delta_threshold,
    from_star,
    make_grid,
    max_s,
    to_index,
)
from conftest import grid_for

CHECKERS = (check_condition_iv, check_condition_iii, check_midpoint)

# catalog members with a known maximal s, used by the agreement suites
KNOWN_MAX_MEMBERS = [
    StudentT(0.5), StudentT(1.0), StudentT(4.0),
    bv.FDist(4.0, 6.0),
    Pareto(1.0, 1.0), Pareto(2.0, 1.0), Pareto(5.0, 1.0),
    SphericalPower(1.0), SphericalPower(4.0),
    Normal(0.0, 1.0),
]


# --------------------------------------------------------------------- index

def test_index_examples():
    assert to_index(0.0).s_star == 0.0
    assert to_index(-0.5).s_star == pytest.approx(-1.0, abs=1e-15)
    # s = -1/(1+r) at r=4 gives s* = -1/r
    assert to_index(-0.2).s_star == pytest.approx(-0.25, abs=1e-15)
    assert to_index(math.inf).s_star == 1.0
    assert from_star(1.0).s == math.inf
    assert from_star(-1.0).s == pytest.approx(-0.5)


def test_index_domain_errors():
    for bad in (-1.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            to_index(bad)
    with pytest.raises(DomainError):
        from_star(1.5)


def test_index_monotone():
    ss = np.linspace(-0.95, 60.0, 400)
    stars = [to_index(float(s)).s_star for s in ss]
    assert np.all(np.diff(stars) > 0.0)


@given(st.floats(min_value=-0.99, max_value=100.0))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_index_round_trip(s):
    back = from_star(to_index(s).s_star).s
    assert back == pytest.approx(s, rel=1e-14, abs=1e-14)


# ------------------------------------------------- midpoint mean in log space

# log F down to -690, F = e^-690 ~ 3e-300, the smallest tail mass a grid
# can hold
_LOG_PAIRS = [(-0.1, -0.2), (-1e-9, -3.0), (-5.0, -5.0), (-40.0, -1e-12),
              (-690.0, -0.5), (-690.0, -689.0), (-300.0, -690.0),
              (-2.0, -0.7)]


@pytest.mark.parametrize("t", [-999.0, -1.0, -1e-12, 0.0, 1e-12, 0.5, 1.0])
def test_log_mid_mean_matches_mpmath(t):
    la, lb = (np.array(v) for v in zip(*_LOG_PAIRS))
    got = _log_mid_mean(la, lb, t)
    with mpmath.workdps(60):
        for a, b, g in zip(la, lb, got):
            if t == 0.0:
                ref = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
            else:
                tt = mpmath.mpf(t)
                ref = mpmath.log((mpmath.exp(tt * mpmath.mpf(a))
                                  + mpmath.exp(tt * mpmath.mpf(b))) / 2) / tt
            assert abs(g - float(ref)) <= 2e-13, (a, b, g, float(ref))


# ------------------------------------------------------------- CR functionals

def test_cr_symmetric_center_is_zero():
    assert cr(Normal(), 0.0) == 0.0


def test_cr_right_pareto_is_constant():
    # (1-F)/f = x/a and f'/f = -(a+1)/x give the signed constant -(1+1/a)
    d = Pareto(1.0, 1.0)
    for x in (1.5, 2.0, 7.0, 123.0):
        assert cr_right(d, x) == pytest.approx(-2.0, rel=1e-12)


def test_cr_cauchy_tail_approaches_two():
    d = StudentT(1.0)
    x = d.quantile(1.0 - 1e-8)
    assert abs(cr(d, x)) == pytest.approx(2.0, abs=1e-6)


def test_cr_magnitude_dominated_by_cr_min():
    # F(1-F) <= min(F, 1-F) pointwise
    for d in (StudentT(1.0), NormalMixture(1.3), SphericalPower(4.0)):
        pts = grid_for(d).points
        assert np.all(np.abs(cr(d, pts)) <= np.abs(cr_min(d, pts)) + 1e-15)


def test_cr_requires_positive_density():
    with pytest.raises(DomainError):
        cr(SphericalPower(1.0), 1.0)  # support endpoint, f = 0


def test_cr_report_values():
    d = StudentT(4.0)
    rep = cr_report(d, -0.2, grid_for(d))
    assert rep.gamma == pytest.approx(1.25, abs=1e-3)
    assert rep.theoretical_cap == pytest.approx(1.25)
    assert rep.gamma <= rep.gamma_tilde + 1e-12

    u = Uniform(0.0, 1.0)
    rep = cr_report(u, math.inf, grid_for(u))
    assert rep.gamma == 0.0
    assert rep.gamma_tilde == 0.0
    assert rep.theoretical_cap == 0.0


def test_cr_report_refines_the_interior_peak():
    # grid-only gamma is 1.4 % low here; the rescans must reach the peak
    # that a dense scan between the argmax's grid neighbours sees
    d = NormalMixture(3.0)
    grid = make_grid(d, 2000)
    rep = cr_report(d, 0.0, grid)
    pts = grid.points
    i = int(np.argmax(np.abs(cr(d, pts))))
    assert 0 < i < grid.count - 1  # an interior peak, not a tail limit
    scan = np.max(np.abs(cr(d, np.linspace(pts[i - 1], pts[i + 1], 10 ** 6))))
    assert rep.gamma >= scan * (1.0 - 1e-13)
    assert rep.gamma - scan <= 1e-10 * scan
    assert rep.gamma > np.max(np.abs(cr(d, pts))) * 1.01


# ------------------------------------------------------------------ checkers

def test_iv_pareto_boundary_case():
    # the density derivative sits exactly on the corridor's lower edge
    d = Pareto(2.0, 1.0)
    cert = check_condition_iv(d, -1.0 / 3.0, grid_for(d))
    assert cert.passed
    assert abs(cert.margin) <= 1e-8


def test_iv_normal_mixture_fails_beyond_threshold():
    d = NormalMixture(1.35)
    cert = check_condition_iv(d, 0.0, grid_for(d))
    assert not cert.passed
    assert cert.witness is not None
    assert cert.margin < -cert.tolerance


def test_iv_uniform_at_infinite_s():
    u = Uniform(0.0, 1.0)
    assert check_condition_iv(u, math.inf, grid_for(u)).passed
    # any non-flat density must fail the degenerate f' = 0 condition
    d = Normal()
    assert not check_condition_iv(d, math.inf, grid_for(d)).passed


def test_iii_examples():
    d = StudentT(1.0)
    assert check_condition_iii(d, -0.5, grid_for(d)).passed
    m = TMixture(1.0, 1.48)
    cert = check_condition_iii(m, -0.5, grid_for(m))
    assert not cert.passed
    assert isinstance(cert.witness, tuple)
    n = Normal()
    assert check_condition_iii(n, 0.0, grid_for(n)).passed


def test_midpoint_examples():
    u = Uniform(0.0, 1.0)
    assert check_midpoint(u, 1.0, grid_for(u)).passed
    m = NormalMixture(1.34)
    assert check_midpoint(m, 0.0, grid_for(m)).passed
    t = TMixture(1.0, 1.5)
    cert = check_midpoint(t, -0.5, grid_for(t))
    assert not cert.passed
    assert isinstance(cert.witness, tuple)


def test_midpoint_all_pairs_small_grid():
    d = StudentT(1.0)
    g = make_grid(d, 50, 1e-6)
    assert check_midpoint(d, -0.5, g).passed


# t1 mixtures just past the s = -1/2 boundary delta = 1/sqrt(3): the corridor
# fails, so the midpoint oracle must fail too, on dense grids as well, where
# its random fill and its relative slack keep the tail deficits in view
@pytest.mark.parametrize("delta", [0.7, 0.578])
@pytest.mark.parametrize("n", [2000, 20000])
def test_checkers_agree_on_t1_mixture_faults(delta, n):
    d = TMixture(1.0, delta)
    g = grid_for(d, n)
    assert [c(d, -0.5, g).verdict for c in CHECKERS] == ["fail"] * 3


def test_midpoint_fill_is_kept_on_dense_grids():
    for n in (2000, 20000):
        i, j = _midpoint_pairs(n)
        lag = j - i
        fixed = (lag <= 2) | (i == 0) | (j == n - 1)
        assert np.count_nonzero(~fixed) > 11000


def test_certificate_fail_contract():
    d = NormalMixture(1.5)
    for checker in CHECKERS:
        cert = checker(d, 0.0, grid_for(d))
        assert cert.verdict == "fail"
        assert cert.witness is not None
        assert cert.margin < -cert.tolerance


def test_checker_determinism():
    d = TMixture(1.0, 1.48)
    g = grid_for(d)
    a = check_midpoint(d, -0.5, g)
    b = check_midpoint(d, -0.5, g)
    assert a == b


# ----------------------------------------------------- agreement & invariants

@pytest.mark.parametrize("d", KNOWN_MAX_MEMBERS)
def test_checker_agreement_at_max_and_half(d):
    smax = d.max_known_s()
    g = grid_for(d)
    for s in (smax, smax / 2.0):
        verdicts = {c(d, s, g).verdict for c in CHECKERS}
        assert len(verdicts) == 1, f"{d.spec_string()} s={s}: {verdicts}"


def test_checker_agreement_uniform():
    u = Uniform(0.0, 1.0)
    g = grid_for(u)
    for s in (1.0, math.inf):
        verdicts = {c(u, s, g).verdict for c in CHECKERS}
        assert verdicts == {"pass"}


@pytest.mark.parametrize("d", KNOWN_MAX_MEMBERS)
def test_preservation_at_max_known_s(d):
    s = d.max_known_s()
    g = grid_for(d)
    for checker in CHECKERS:
        assert checker(d, s, g).passed, checker.__name__


@pytest.mark.parametrize("d", KNOWN_MAX_MEMBERS)
def test_corollary_cap_on_passing_members(d):
    s = d.max_known_s()
    rep = cr_report(d, s, grid_for(d))
    cap = 1.0 / (1.0 + s)
    assert rep.gamma <= cap + 1e-6
    assert rep.gamma_tilde <= cap + 1e-6


@pytest.mark.parametrize("d", [StudentT(1.0), Pareto(2.0, 1.0),
                               SphericalPower(4.0), Normal()])
def test_corridor_nestedness_in_s(d):
    # a pass at s implies a pass at every smaller s: the corridor widens
    g = grid_for(d)
    smax = d.max_known_s()
    ladder = [(1.0 + smax) * f - 1.0
              for f in (0.5, 0.65, 0.8, 0.9, 1.0, 1.1, 1.25, 1.45, 1.7, 2.0)]
    results = [check_condition_iv(d, s, g).passed for s in ladder]
    # once a failure appears, everything above fails too
    first_fail = results.index(False) if False in results else len(results)
    assert all(results[:first_fail])
    assert not any(results[first_fail:])


# ------------------------------------------------------------------ searches

def test_max_s_pareto():
    d = Pareto(2.0, 1.0)
    got = max_s(d, -0.6, -0.1, grid_for(d))
    assert got == pytest.approx(-1.0 / 3.0, abs=1e-3)


def test_max_s_student_t_with_bracket_confirmation():
    d = StudentT(1.0)
    g = grid_for(d)
    # brute-force confirmation on both sides of the boundary first
    assert check_condition_iv(d, -0.55, g).passed
    assert not check_condition_iv(d, -0.45, g).passed
    got = max_s(d, -0.7, -0.3, g)
    assert got == pytest.approx(-0.5, abs=1e-2)


def test_max_s_uniform_returns_hi():
    u = Uniform(0.0, 1.0)
    assert max_s(u, -0.5, 50.0, grid_for(u)) == 50.0


def test_max_s_invalid_bracket():
    d = StudentT(1.0)
    with pytest.raises(BracketError):
        max_s(d, -0.4, -0.1, grid_for(d))  # already fails at lo


# one member per family with a finite boundary, two for t
_BOUNDED = [StudentT(3.0), StudentT(0.5), FDist(4.0, 6.0), Pareto(2.0, 1.0),
            SphericalPower(1.8), Normal(), NormalMixture(1.0),
            TMixture(1.0, 0.3)]


@pytest.mark.parametrize("d", _BOUNDED, ids=lambda d: d.spec_string())
def test_max_s_is_the_boundary_of_the_checker(d):
    g = grid_for(d)
    got = max_s(d, -0.99, 1e6, g)
    assert -0.99 < got < 1e6
    assert check_condition_iv(d, got - 1e-9, g).passed
    assert not check_condition_iv(d, got + 1e-9, g).passed


@pytest.mark.parametrize("d", _BOUNDED + [FDist(1.0, 3.0), Uniform(0.0, 1.0)],
                         ids=lambda d: d.spec_string())
def test_gamma_within_the_corridor_bound(d):
    # gamma = sup |F(1-F) f'/f^2| is bounded by the corridor maximum kappa,
    # kappa = 1/(1 + max_s); the checker tol folded into kappa costs ~1e-9
    g = grid_for(d)
    bound = max_s(d, -0.99, 1e6, g)
    assert cr_report(d, bound, g).gamma <= (1.0 + 1e-8) / (1.0 + bound)


def test_delta_threshold_normal_mixture():
    got = delta_threshold("normmix", 0.0, 1.0, 2.0, 1e-3)
    assert 1.34 < got < 1.35


def test_delta_threshold_invalid_bracket():
    with pytest.raises(BracketError, match="bracket invalid"):
        delta_threshold("normmix", 0.0, 0.1, 0.2, 1e-3)


def test_delta_threshold_requires_r_for_tmix():
    with pytest.raises(DomainError):
        delta_threshold("tmix", -0.5, 1.0, 2.0, 1e-3)


# ---------------------------------------------------------------------- grid

def test_grid_validation():
    with pytest.raises(DomainError):
        Grid.at_levels(Normal(), np.array([0.25, 0.75]), eps=1e-8)
    with pytest.raises(DomainError):
        Grid.at_levels(Normal(), np.array([0.25, 0.25, 0.75]), eps=1e-8)
    with pytest.raises(DomainError):
        make_grid(StudentT(1.0), 2000, 0.5)


def test_grid_carries_one_read_only_sample_of_its_law():
    d = NormalMixture(1.5)
    g = make_grid(d, 64, 1e-6)
    assert g.law == d
    for got, evaluator in ((g.f, d.pdf), (g.fp, d.pdf_deriv), (g.F, d.cdf),
                           (g.S, d.sf)):
        assert np.array_equal(got, evaluator(g.points))
        with pytest.raises(ValueError):
            got[0] = 0.0
    # every document embedding the grid shares one list of its points
    assert g.to_dict()["points"] is g.to_dict()["points"]
    assert g.to_dict()["points"] == [float(x) for x in g.points]


@pytest.mark.parametrize("consume", [
    lambda d, g: check_condition_iv(d, 0.0, g),
    lambda d, g: check_condition_iii(d, 0.0, g),
    lambda d, g: check_midpoint(d, 0.0, g),
    lambda d, g: max_s(d, -0.9, 1.0, g),
    lambda d, g: cr_report(d, 0.0, g),
    lambda d, g: emit_envelope_table(d, 0.0, g),
], ids=["iv", "iii", "midpoint", "max_s", "cr_report", "envelope_table"])
def test_a_grid_sampled_from_another_law_is_refused(consume):
    g = make_grid(Normal(), 64, 1e-6)
    with pytest.raises(DomainError, match="the grid samples norm"):
        consume(Normal(0.0, 2.0), g)
    consume(Normal(0.0, 1.0), g)  # an equal law is the same law


def test_grid_spans_requested_mass():
    d = StudentT(1.0)
    g = make_grid(d, 100, 1e-6)
    assert d.cdf(g.points[0]) == pytest.approx(1e-6, rel=1e-6)
    assert d.sf(g.points[-1]) == pytest.approx(1e-6, rel=1e-6)
    assert g.count == 100
