"""Acceptance suite.

Each numbered test exercises one acceptance criterion at its configured
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines for passing criteria too).

The three ``*_UNATTAINABLE`` tests pin the t_1 mixture
0.5 t_1(x - delta) + 0.5 t_1(x + delta) at s = -1/2 (s* = -1).  It is
bi-s*-concave exactly for delta <= 1/sqrt(3): the tail of CR_R behaves
like -2 - 2(delta^2 - 1/3)/x^2, and from delta ~ 1.26 on a central
violation near x = +-0.7 appears as well.  The names keep the separations
once expected to be members (delta = 1.475, and 1.3 for the envelope
shape and band); those only satisfy the necessary cap |CR_min| <= 2, which
``test_diagnostic_t_mixture_cap_crossing`` reproduces.  Every negative
verdict on the mixture is confirmed against a closed-form arctan
reference that does not go through ``biscv.catalog``; see README.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import biscv as bv
from biscv import (
    FDist,
    Normal,
    NormalMixture,
    Pareto,
    SphericalPower,
    StudentT,
    TMixture,
    Uniform,
)
from biscv.shape import (
    Grid,
    check_condition_iii,
    check_condition_iv,
    check_midpoint,
    cr_min,
    cr_report,
    cr_right,
    delta_threshold,
    make_grid,
)
from conftest import grid_for

CHECKERS = (check_condition_iv, check_condition_iii, check_midpoint)

KNOWN_MAX_MEMBERS = [
    StudentT(0.5), StudentT(1.0), StudentT(4.0),
    FDist(4.0, 6.0),
    Pareto(1.0, 1.0), Pareto(2.0, 1.0), Pareto(5.0, 1.0),
    SphericalPower(1.0), SphericalPower(4.0),
    Normal(0.0, 1.0),
]

FIGURE_CONFIGS = [
    ("t1", StudentT(1.0), -0.5),
    ("tmix", TMixture(1.0, 1.3), -0.5),
    ("gpow1", SphericalPower(1.0), 2.0),
]


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _slope_margins(x, y):
    k = np.diff(y) / np.diff(x)
    scale = np.maximum.reduce([np.ones(k.size - 1), np.abs(k[1:]),
                               np.abs(k[:-1])])
    return np.diff(k) / scale


# The t_1 mixture in closed form, independent of biscv.catalog:
# F = 1/2 + (atan(x - delta) + atan(x + delta)) / (2 pi).  Both F and 1 - F
# are written through arctan2(1, u) = pi/2 - atan(u), so neither tail
# cancels.  At s = -1/2 condition iv reads CR_R >= -2 and CR_L <= 2.

def _tmix_cdf(x, delta):
    x = np.asarray(x, dtype=float)
    return (np.arctan2(1.0, delta - x)
            + np.arctan2(1.0, -x - delta)) / (2 * np.pi)


def _tmix_sf(x, delta):
    x = np.asarray(x, dtype=float)
    return (np.arctan2(1.0, x - delta)
            + np.arctan2(1.0, x + delta)) / (2 * np.pi)


def _tmix_pdf(x, delta):
    x = np.asarray(x, dtype=float)
    u, v = x - delta, x + delta
    return (1.0 / (1.0 + u * u) + 1.0 / (1.0 + v * v)) / (2 * np.pi)


def _tmix_pdf_deriv(x, delta):
    x = np.asarray(x, dtype=float)
    u, v = x - delta, x + delta
    return -(u / (1.0 + u * u) ** 2 + v / (1.0 + v * v) ** 2) / np.pi


def _tmix_corridor_cr(x, delta):
    """min(CR_R, -CR_L) of the t_1 mixture; below -2 exactly where
    condition iv fails at s = -1/2."""
    f = _tmix_pdf(x, delta)
    fp = _tmix_pdf_deriv(x, delta)
    return np.minimum(_tmix_sf(x, delta) * fp,
                      -_tmix_cdf(x, delta) * fp) / (f * f)


def _tmix_corridor_cr_exact(x, delta):
    """_tmix_corridor_cr at 40 digits, one value per point of ``x``.

    Next to -2 the float64 form cannot decide the sign of CR + 2: at the
    first delta = 0.57 grid point (x ~ -3.2e7) the tail term
    2(1/3 - delta^2)/x^2 is 1.7e-17, below the rounding of -2."""
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        two_pi = 2 * mpmath.pi
        out = []
        for xi in np.atleast_1d(x):
            u, v = mpmath.mpf(float(xi)) - d, mpmath.mpf(float(xi)) + d
            F = (mpmath.atan2(1, -u) + mpmath.atan2(1, -v)) / two_pi
            S = (mpmath.atan2(1, u) + mpmath.atan2(1, v)) / two_pi
            f = (1 / (1 + u * u) + 1 / (1 + v * v)) / two_pi
            fp = -2 * (u / (1 + u * u) ** 2 + v / (1 + v * v) ** 2) / two_pi
            out.append(min(S * fp, -F * fp) / (f * f))
    return out


# -------------------------------------------------------------- criterion 1

def test_criterion_01_gamma_regression_heavy_tails():
    t0 = time.perf_counter()
    errors = {}
    for r, want in ((0.5, 3.0), (1.0, 2.0), (4.0, 1.25)):
        d = StudentT(r)
        rep = cr_report(d, -1.0 / (1.0 + r), make_grid(d, 2000, 1e-8))
        errors[r] = abs(rep.gamma - want)
    elapsed = time.perf_counter() - t0
    ok = all(e <= 1e-3 for e in errors.values()) and elapsed < 5.0
    _report("01", ok, f"gamma(t_r) = 1 + 1/r within 1e-3, "
                      f"errors={ {k: f'{v:.1e}' for k, v in errors.items()} }, "
                      f"{elapsed:.2f}s")
    assert errors[0.5] <= 1e-3
    assert errors[1.0] <= 1e-3
    assert errors[4.0] <= 1e-3
    assert elapsed < 5.0


# -------------------------------------------------------------- criterion 2

def test_criterion_02_gamma_normal():
    # the normal's |CR| approaches 1 only like 1 - 1/x^2, so the sup needs
    # quantiles far deeper than the default 1e-8 truncation; a one-sided
    # grid reaching mass 1e-290 (x ~ -36.4) resolves it within 1e-3 while
    # staying inside double-precision range
    d = Normal()
    grid = Grid.at_levels(d, np.linspace(1e-290, 0.5, 2000), eps=1e-290)
    rep = cr_report(d, 0.0, grid)
    err = abs(rep.gamma - 1.0)
    ok = err <= 1e-3
    _report("02", ok, f"gamma(N(0,1)) = 1 within 1e-3, error={err:.1e}")
    assert ok


# -------------------------------------------------------------- criterion 3

def test_criterion_03_pareto_boundary():
    worst_dev = 0.0
    worst_margin = 0.0
    for a in (1.0, 2.0, 5.0):
        d = Pareto(a, 1.0)
        pts = make_grid(d, 100, 1e-4).points
        dev = float(np.max(np.abs(np.abs(cr_right(d, pts)) - (1.0 + 1.0 / a))))
        cert = check_condition_iv(d, -1.0 / (1.0 + a), grid_for(d))
        worst_dev = max(worst_dev, dev)
        worst_margin = max(worst_margin, abs(cert.margin))
        assert cert.passed
    ok = worst_dev <= 1e-10 and worst_margin <= 1e-8
    _report("03", ok, f"|cr_right| = 1 + 1/a within 1e-10 "
                      f"(worst {worst_dev:.1e}); boundary margin "
                      f"|{worst_margin:.1e}| <= 1e-8")
    assert worst_dev <= 1e-10
    assert worst_margin <= 1e-8


# -------------------------------------------------------------- criterion 4

def test_criterion_04_normal_mixture_threshold():
    t0 = time.perf_counter()
    pass_cert = check_condition_iv(NormalMixture(1.34), 0.0,
                                   grid_for(NormalMixture(1.34)))
    fail_cert = check_condition_iv(NormalMixture(1.35), 0.0,
                                   grid_for(NormalMixture(1.35)))
    threshold = delta_threshold("normmix", 0.0, 1.0, 2.0, 1e-3)
    elapsed = time.perf_counter() - t0
    ok = (pass_cert.passed and not fail_cert.passed
          and 1.34 < threshold < 1.35 and elapsed < 30.0)
    _report("04a", ok, f"normal mixture: pass@1.34 fail@1.35, "
                       f"threshold={threshold:.4f} in (1.34, 1.35), "
                       f"{elapsed:.1f}s")
    assert pass_cert.passed
    assert not fail_cert.passed
    assert 1.34 < threshold < 1.35
    assert elapsed < 30.0


def test_criterion_04_t_mixture_threshold_UNATTAINABLE():
    """Condition iv on the t_1 mixture at s = -1/2 flips at 1/sqrt(3).

    The tail of CR_R behaves like -2 - 2(delta^2 - 1/3)/x^2, so iv passes
    at delta = 0.57 and fails at 0.58.  At 1.475 and 1.48 it fails with a
    central witness (closed-form CR_R = -2.69 near x = -0.74); the pair
    1.475 / 1.48 only brackets the necessary cap crossing shown by the
    diagnostic test below."""
    t0 = time.perf_counter()
    certs = {delta: check_condition_iv(TMixture(1.0, delta), -0.5,
                                       grid_for(TMixture(1.0, delta)))
             for delta in (0.57, 0.58, 1.475, 1.48)}
    threshold = delta_threshold("tmix", -0.5, 0.3, 1.0, 1e-3, r=1.0)
    elapsed = time.perf_counter() - t0
    delta_star = 1.0 / math.sqrt(3.0)
    failing = (0.58, 1.475, 1.48)
    ref_at_witness = {
        delta: float(_tmix_corridor_cr(certs[delta].witness, delta))
        for delta in failing if not certs[delta].passed}
    ok = (certs[0.57].passed
          and all(not certs[delta].passed for delta in failing)
          and 0.5 < abs(certs[1.475].witness) < 0.9
          and all(v < -2.0 for v in ref_at_witness.values())
          and abs(threshold - delta_star) <= 1e-3 and elapsed < 30.0)
    _report("04b", ok,
            f"t_1 mixture s=-1/2: pass@0.57 fail@0.58, "
            f"threshold={threshold:.4f} vs 1/sqrt(3)={delta_star:.4f}; "
            f"{certs[1.475].verdict}@1.475 (margin {certs[1.475].margin:.3f}, "
            f"witness {certs[1.475].witness}) / {certs[1.48].verdict}@1.48; "
            f"closed-form CR at the witnesses "
            f"{ {k: f'{v:.6f}' for k, v in ref_at_witness.items()} }, "
            f"{elapsed:.1f}s")
    assert not certs[1.48].passed
    assert not certs[1.475].passed, (
        "TMixture(1, 1.475) at s=-1/2 is not bi-s*-concave: the closed-form "
        "CR_R of the arctan cdf reaches -2.69 near x = -0.74")
    assert 0.5 < abs(certs[1.475].witness) < 0.9, (
        f"expected the central violation, got witness {certs[1.475].witness}")
    assert certs[0.57].passed
    assert not certs[0.58].passed
    for delta in failing:
        w = certs[delta].witness
        assert _tmix_corridor_cr(w, delta) < -2.0, (
            f"closed-form CR at the delta={delta} witness x={w} is "
            f"{float(_tmix_corridor_cr(w, delta)):.6f}, not below -2")
    # the closed form brackets delta* on its own: its grid minimum stays
    # above -2 at 0.57, and the tail term changes sign between the two
    assert min(_tmix_corridor_cr_exact(grid_for(TMixture(1.0, 0.57)).points,
                                       0.57)) >= -2.0
    assert (_tmix_corridor_cr(100.0, 0.57) > -2.0
            > _tmix_corridor_cr(100.0, 0.58))
    assert 0.57 < delta_star < 0.58
    assert abs(threshold - delta_star) <= 1e-3
    assert elapsed < 30.0


def test_diagnostic_t_mixture_cap_crossing():
    # the separation at which the *central* |CR_min| crosses the cap
    # 1/(1+s) = 2 lies inside (1.475, 1.48): this is the quantity that the
    # configured pass/fail deltas of the t_1 mixture actually measure.
    # |CR_min| <= cap is necessary (not sufficient) for bi-s*-concavity.
    def central_crmin_max(delta: float) -> float:
        d = TMixture(1.0, delta)
        xs = np.linspace(-3.0, 3.0, 12001)
        return float(np.max(np.abs(cr_min(d, xs))))

    below = central_crmin_max(1.475)
    above = central_crmin_max(1.48)
    _report("diag", below < 2.0 < above,
            f"central |CR_min| crosses the cap 2 inside (1.475, 1.48): "
            f"{below:.5f} -> {above:.5f}")
    assert below < 2.0 < above


# -------------------------------------------------------------- criterion 5

def test_criterion_05_preservation_oracle():
    disagreements = []
    failures = []
    for d in KNOWN_MAX_MEMBERS + [Uniform(0.0, 1.0)]:
        s = d.max_known_s()
        g = grid_for(d)
        verdicts = [c(d, s, g).verdict for c in CHECKERS]
        if len(set(verdicts)) != 1:
            disagreements.append((d.spec_string(), verdicts))
        if verdicts[0] != "pass":
            failures.append((d.spec_string(), verdicts))
    ok = not disagreements and not failures
    _report("05", ok, f"all catalog members pass all three checkers at "
                      f"max known s ({len(KNOWN_MAX_MEMBERS) + 1} members, "
                      f"{len(disagreements)} disagreements)")
    assert disagreements == []
    assert failures == []


# -------------------------------------------------------------- criterion 6

def test_criterion_06_corollary_cap():
    worst = -math.inf
    for d in KNOWN_MAX_MEMBERS + [Uniform(0.0, 1.0)]:
        s = d.max_known_s()
        cap = 1.0 / (1.0 + s) if not math.isinf(s) else 0.0
        rep = cr_report(d, s, grid_for(d))
        worst = max(worst, rep.gamma - cap, rep.gamma_tilde - cap)
        assert rep.gamma <= cap + 1e-6, d.spec_string()
        assert rep.gamma_tilde <= cap + 1e-6, d.spec_string()
    _report("06", True, f"gamma and gamma-tilde within 1e-6 of the cap "
                        f"1/(1+s) on every passing member "
                        f"(worst excess {worst:+.1e})")


# -------------------------------------------------------------- criterion 7

def _envelope_shape(d, s):
    """Inner grid points, the sandwich flag, the slope-difference margins
    of F_U (convex: >= 0) and F_L (concave: <= 0) at those points, and the
    worst monotonicity margins of F_U' and F_L'."""
    pts = grid_for(d).points
    F = d.cdf(pts)
    FU = bv.f_upper(d, s, pts)
    FL = bv.f_lower(d, s, pts)
    sandwich = bool(np.all(FL <= F + 1e-9 * np.maximum(1.0, np.abs(FL)))
                    and np.all(F <= FU + 1e-9 * np.maximum(1.0, np.abs(FU))))
    FUp = bv.fu_prime(d, s, pts)
    FLp = bv.fl_prime(d, s, pts)
    mono_u = float(np.min((FUp[1:] - FUp[:-1]) / np.maximum(FUp[1:], FUp[:-1])))
    mono_l = float(np.min((FLp[:-1] - FLp[1:]) / np.maximum(FLp[1:], FLp[:-1])))
    return (pts[1:-1], sandwich, _slope_margins(pts, FU),
            _slope_margins(pts, FL), mono_u, mono_l)


@pytest.mark.parametrize("name, d, s", [FIGURE_CONFIGS[0], FIGURE_CONFIGS[2]])
def test_criterion_07_envelope_shape(name, d, s):
    _, sandwich, conv_m, conc_m, mono_u, mono_l = _envelope_shape(d, s)
    conv = float(np.min(conv_m))
    conc = float(np.max(conc_m))
    ok = sandwich and conv >= -1e-8 and conc <= 1e-8 \
        and mono_u >= -1e-9 and mono_l >= -1e-9
    _report("07", ok, f"{name}: sandwich + convex F_U / concave F_L "
                      f"(margins {conv:+.1e}/{conc:+.1e}) + monotone "
                      f"derivative transforms")
    assert sandwich
    assert conv >= -1e-8
    assert conc <= 1e-8
    assert mono_u >= -1e-9
    assert mono_l >= -1e-9


def test_criterion_07_envelope_shape_t_mixture_UNATTAINABLE():
    """Envelope shape on the t_1 mixture at s = -1/2.

    At delta = 0.5 < 1/sqrt(3) the mixture is a member: F_U is convex, F_L
    concave and the derivative transforms monotone.  At delta = 1.3 it is
    not, and the shape check must say so: the largest slope reversal of
    F_U (~ -4.5e-4) sits in the right tail near x = 6.05, where the
    closed-form CR_R is -2.049, mirrored for F_L near x = -6.05; the
    central reversals on x in [-0.77, -0.53] are only ~3e-5.  The sandwich
    is an identity and holds at both separations."""
    s = -0.5
    inner, sandwich, conv_m, conc_m, mono_u, mono_l = _envelope_shape(
        TMixture(1.0, 0.5), s)
    conv, conc = float(np.min(conv_m)), float(np.max(conc_m))
    member_ok = sandwich and conv >= -1e-8 and conc <= 1e-8 \
        and mono_u >= -1e-9 and mono_l >= -1e-9
    inner13, sandwich13, conv_m13, conc_m13, _, _ = _envelope_shape(
        TMixture(1.0, 1.3), s)
    conv13, conc13 = float(np.min(conv_m13)), float(np.max(conc_m13))
    x_conv = float(inner13[np.argmin(conv_m13)])
    x_conc = float(inner13[np.argmax(conc_m13)])
    ref_conv = float(_tmix_corridor_cr(x_conv, 1.3))
    ref_conc = float(_tmix_corridor_cr(x_conc, 1.3))
    ok = (member_ok and sandwich13 and conv13 < -1e-8 and conc13 > 1e-8
          and ref_conv < -2.0 and ref_conc < -2.0)
    _report("07", ok, f"tmix(1, 0.5) s=-1/2 member: margins {conv:+.1e}/"
                      f"{conc:+.1e}; tmix(1, 1.3) non-member: sandwich="
                      f"{sandwich13}, convexity margin {conv13:+.1e} at "
                      f"x={x_conv:.3f} (closed-form CR {ref_conv:.4f}), "
                      f"concavity margin {conc13:+.1e} at x={x_conc:.3f} "
                      f"(closed-form CR {ref_conc:.4f})")
    assert sandwich
    assert conv >= -1e-8
    assert conc <= 1e-8
    assert mono_u >= -1e-9
    assert mono_l >= -1e-9
    assert np.min(_tmix_corridor_cr(inner, 0.5)) >= -2.0
    assert sandwich13  # holds for any distribution function
    assert conv13 < -1e-8 and conc13 > 1e-8, (
        "the shape check missed that the t_1 mixture at delta=1.3 is not "
        f"bi-(-1/2)*-concave (margins {conv13:+.1e}/{conc13:+.1e})")
    assert ref_conv < -2.0, (
        f"closed-form CR_R at the F_U witness x={x_conv} is {ref_conv:.6f}")
    assert ref_conc < -2.0, (
        f"closed-form -CR_L at the F_L witness x={x_conc} is {ref_conc:.6f}")


# -------------------------------------------------------------- criterion 8

def _band_excess(d, s, seed: int):
    """1000 random (x, t) pairs and how far F(x + t) lies outside the
    two-sided band at each (positive means outside)."""
    rng = np.random.default_rng(seed)
    g = grid_for(d)
    iqr = d.quantile(0.75) - d.quantile(0.25)
    xs = rng.choice(g.points, size=1000)
    ts = rng.uniform(-5.0 * iqr, 5.0 * iqr, size=1000)
    lo_b, up_b = bv.pointwise_band(d, s, xs, ts)
    F = d.cdf(xs + ts)
    return xs, ts, np.maximum(lo_b - F, F - up_b)


def _band_violations(d, s, seed: int) -> int:
    return int(np.sum(_band_excess(d, s, seed)[2] > 1e-12))


@pytest.mark.parametrize("name, d, s", [FIGURE_CONFIGS[0], FIGURE_CONFIGS[2]])
def test_criterion_08_band_containment(name, d, s):
    bad = _band_violations(d, s, seed=20260810)
    _report("08", bad == 0,
            f"{name}: F(x+t) inside the two-sided band for 1000 random "
            f"(x, t) pairs ({bad} violations)")
    assert bad == 0


def test_criterion_08_band_t_mixture_UNATTAINABLE():
    """Band containment on the t_1 mixture at s = -1/2.

    At delta = 0.5 < 1/sqrt(3) every sampled pair lies inside the band.
    At delta = 1.3 the mixture is not bi-s*-concave and about a fifth of
    the pairs land outside, the worst by ~1.5e-2.  A violation at (x, t)
    means F^(s*) or (1-F)^(s*) is not convex on [x, x + t], so the
    closed-form CR must drop below -2 somewhere on that segment."""
    bad_member = _band_violations(TMixture(1.0, 0.5), -0.5, seed=20260810)
    xs, ts, excess = _band_excess(TMixture(1.0, 1.3), -0.5, seed=20260810)
    bad = int(np.sum(excess > 1e-12))
    k = int(np.argmax(excess))
    segment = np.linspace(xs[k], xs[k] + ts[k], 2001)
    ref_min = float(np.min(_tmix_corridor_cr(segment, 1.3)))
    ok = bad_member == 0 and bad > 0 and excess[k] > 1e-6 and ref_min < -2.0
    _report("08", ok, f"tmix(1, 0.5) s=-1/2: {bad_member}/1000 band "
                      f"violations; tmix(1, 1.3): {bad}/1000, worst excess "
                      f"{excess[k]:.1e} at x={xs[k]:.3f}, t={ts[k]:.3f} "
                      f"(closed-form CR min {ref_min:.4f} on the segment)")
    assert bad_member == 0
    assert bad > 0, "the band missed that the t_1 mixture at delta=1.3 is " \
                    "not bi-(-1/2)*-concave"
    assert excess[k] > 1e-6
    assert ref_min < -2.0, (
        f"closed-form CR stays >= -2 on [{xs[k]}, {xs[k] + ts[k]}] "
        f"(min {ref_min:.6f})")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_fisher_chain():
    rel_errs = {}
    for r in (3.0, 4.0, 6.0, 10.0):
        got = bv.fisher_info(SphericalPower(r))
        want = bv.fisher_closed_form_spherical(r)
        rel_errs[r] = abs(got - want) / want
        assert rel_errs[r] <= 1e-4
    rep_n = bv.check_fisher_chain(Normal(), 0.0)
    rep_s = bv.check_fisher_chain(SphericalPower(4.0), 0.5)
    rep_div = bv.check_fisher_chain(SphericalPower(2.0), 1.0)
    ok = rep_n.chain_holds and rep_s.chain_holds and rep_div.all_infinite
    _report("09", ok, f"fisher: quadrature matches the closed form within "
                      f"1e-4 (worst {max(rel_errs.values()):.1e}); chain "
                      f"holds for normal and r=4; r=2 reports all "
                      f"integrals infinite")
    assert rep_n.chain_holds
    assert rep_s.chain_holds
    assert rep_div.all_infinite


# ------------------------------------------------------------- criterion 10

def test_criterion_10_checker_equivalence_ladder():
    # ten indices per member, multiplicative in (1+s) so the ladder always
    # stays inside (-1, inf), straddling the maximal known s
    factors = (0.60, 0.72, 0.84, 0.93, 1.0, 1.07, 1.16, 1.28, 1.45, 1.65)
    cases = 0
    disagreements = []
    for d in KNOWN_MAX_MEMBERS:
        smax = d.max_known_s()
        g = grid_for(d)
        for f in factors:
            s = (1.0 + smax) * f - 1.0
            verdicts = [c(d, s, g).verdict for c in CHECKERS]
            cases += 1
            if len(set(verdicts)) != 1:
                disagreements.append((d.spec_string(), s, verdicts))
    # the uniform density is s-concave for every s: no straddle exists, so
    # its ladder checks agreement on an all-pass ladder including s = inf
    u = Uniform(0.0, 1.0)
    gu = grid_for(u)
    for s in (-0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e6, math.inf):
        verdicts = [c(u, s, gu).verdict for c in CHECKERS]
        cases += 1
        if set(verdicts) != {"pass"}:
            disagreements.append(("unif", s, verdicts))
    ok = not disagreements
    _report("10", ok, f"three checkers agree on all {cases} ladder cases "
                      f"({len(disagreements)} disagreements)")
    assert disagreements == []


# ------------------------------------------------------------- criterion 11

def test_criterion_11_seam_across_zero_index():
    # the power-form bounds differ from the logarithmic limits by
    # ~|s*| log(1/eps)^2 / 2 at the grid edge, so eps = 1e-4 keeps the
    # true gap (~4e-5) inside the 1e-4 agreement window at s = +-1e-6
    worst = 0.0
    for d in (Normal(), StudentT(1.0)):
        pts = make_grid(d, 500, 1e-4).points
        fu0 = bv.f_upper(d, 0.0, pts)
        fl0 = bv.f_lower(d, 0.0, pts)
        for s in (1e-6, -1e-6):
            worst = max(worst,
                        float(np.max(np.abs(bv.f_upper(d, s, pts) - fu0))),
                        float(np.max(np.abs(bv.f_lower(d, s, pts) - fl0))))
    ok = worst <= 1e-4
    _report("11", ok, f"envelope bounds at s = +-1e-6 match the "
                      f"logarithmic limit forms within 1e-4 on 500 points "
                      f"(worst {worst:.1e})")
    assert ok
