"""Bi-s*-concavity machinery.

A distribution function F is bi-s*-concave for index s in (-1, inf],
s* = s/(1+s), when

* s < 0:  F^(s*) and (1-F)^(s*) are convex on J(F);
* s = 0:  log F and log(1-F) are concave on J(F);
* s > 0:  F^(s*) is concave on (inf J(F), inf) and (1-F)^(s*) is concave
  on (-inf, sup J(F)).

A quantile ``Grid`` carries the law's one sample (f, f', F, 1-F) at its
points; three independent checkers read it to certify the property:

``check_condition_iv``
    The derivative corridor -(1-s*) f^2/(1-F) <= f' <= (1-s*) f^2/F.
``check_condition_iii``
    Monotonicity of the s*-hazard f/(1-F)^(1-s*) (non-decreasing) and the
    reverse s*-hazard f/F^(1-s*) (non-increasing).
``check_midpoint``
    The definition-level midpoint inequality F((x+y)/2) >= M_{s*}(F(x),
    F(y); 1/2), together with the same for 1-F, where M is the generalized
    (power) mean.  This checker is derivative-free, evaluates F and 1-F at
    the midpoints only, and acts as the oracle for the other two.

``cr_report`` evaluates the Csorgo-Revesz functionals

    CR(x)     = F(x)(1-F(x)) f'(x)/f(x)^2
    CR_min(x) = min(F(x), 1-F(x)) f'(x)/f(x)^2

whose suprema (gamma and gamma-tilde) are bounded by 1/(1+s) on the
bi-s*-concave class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .catalog import Distribution
from .errors import BracketError, DomainError
from .numerics import bisect_boundary, maximize_scalar

__all__ = [
    "ConcavityIndex",
    "to_index",
    "from_star",
    "Grid",
    "make_grid",
    "Certificate",
    "CRReport",
    "cr",
    "cr_min",
    "cr_right",
    "cr_report",
    "check_condition_iv",
    "check_condition_iii",
    "check_midpoint",
    "max_s",
    "delta_threshold",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_EPS",
    "DEFAULT_TOL",
]

DEFAULT_GRID_POINTS = 2000
DEFAULT_EPS = 1e-8
DEFAULT_TOL = 1e-9

_FILL_PER_BIN = 750
_PAIR_SEED = 181181
_ALL_PAIRS_LIMIT = 200


@dataclass(frozen=True)
class ConcavityIndex:
    """The pair (s, s*) with s in (-1, inf] and s* = s/(1+s) in (-inf, 1]."""

    s: float
    s_star: float

    @property
    def one_minus_star(self) -> float:
        """1 - s* = 1/(1+s); the corridor width factor."""
        return 1.0 - self.s_star


def to_index(s: float) -> ConcavityIndex:
    """Build the index pair from s; s = inf maps to s* = 1."""
    if math.isnan(s) or s <= -1.0:
        raise DomainError("s must lie in (-1, inf]")
    if math.isinf(s):
        return ConcavityIndex(s=math.inf, s_star=1.0)
    if s > 1.0:
        # 1 - 1/(1+s) stays within ~half an ulp for large s, where the
        # direct quotient's rounding would be amplified by (1+s) on the
        # way back through from_star
        return ConcavityIndex(s=s, s_star=1.0 - 1.0 / (1.0 + s))
    return ConcavityIndex(s=s, s_star=s / (1.0 + s))


def from_star(s_star: float) -> ConcavityIndex:
    """Build the index pair from s*; s* = 1 maps to s = inf."""
    if math.isnan(s_star) or s_star > 1.0:
        raise DomainError("s_star must lie in (-inf, 1]")
    if s_star == 1.0:
        return ConcavityIndex(s=math.inf, s_star=1.0)
    return ConcavityIndex(s=s_star / (1.0 - s_star), s_star=s_star)


@dataclass(frozen=True)
class Grid:
    """Quantile-spaced abscissas strictly inside J(F), and the law sampled
    there once: ``f``, ``fp``, ``F`` and ``S`` are the density, its
    derivative, F and 1-F at ``points``, read-only.  The checkers, ``max_s``,
    the grid sweep of ``cr_report`` and the envelope table read them.
    ``make_grid`` takes the quantile levels equispaced on [eps, 1-eps].
    """

    points: np.ndarray
    eps: float
    law: Distribution = field(compare=False)
    f: np.ndarray = field(compare=False, repr=False)
    fp: np.ndarray = field(compare=False, repr=False)
    F: np.ndarray = field(compare=False, repr=False)
    S: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def at_levels(cls, d: Distribution, p, eps: float) -> Grid:
        """The grid at the quantiles of ``d`` at levels ``p``: a DomainError
        where a point, its squared density or the density's derivative is not
        finite or the density is not positive, or where there are fewer than
        3 points or they do not strictly increase."""
        points = d.quantile(p)
        with np.errstate(over="ignore"):
            f = d.pdf(points)
            ok = np.isfinite(points) & np.isfinite(f * f) & (f > 0.0)
        if not np.all(ok):
            raise _beyond_double(p, points, f)
        if np.ndim(points) != 1 or np.size(points) < 3:
            raise DomainError("grid needs at least 3 points")
        if not np.all(np.diff(points) > 0.0):
            raise DomainError("grid points must be strictly increasing")
        fp = d.pdf_deriv(points)
        if not np.all(np.isfinite(fp)):
            x = float(points[np.argmax(~np.isfinite(fp))])
            raise DomainError(f"the density's derivative at x={x!r} is not finite")
        sample = (points, f, fp, d.cdf(points), d.sf(points))
        for a in sample:
            a.setflags(write=False)
        return cls(points, eps, d, *sample[1:])

    @property
    def count(self) -> int:
        return int(self.points.size)

    @cached_property
    def _point_list(self) -> list:  # one list for every document that embeds it
        return self.points.tolist()

    def to_dict(self) -> dict:
        return {"points": self._point_list, "eps": self.eps, "count": self.count}


def _beyond_double(p, points, f) -> DomainError:
    """Names the first point where x or f^2 leaves the normal double range."""
    with np.errstate(over="ignore"):
        f2 = f * f
    i = int(np.argmax(~(np.isfinite(points) & np.isfinite(f2)
                        & (f2 >= np.finfo(float).tiny))))
    return DomainError(
        f"the grid point at p={float(p[i])!r} is x={float(points[i])!r}, "
        f"where the point or its squared density is beyond double "
        f"precision; use a larger eps (--eps)")


def make_grid(d: Distribution, n: int = DEFAULT_GRID_POINTS,
              eps: float = DEFAULT_EPS) -> Grid:
    """Quantile-spaced grid of n points on [eps, 1-eps].

    Raises DomainError when a tail point is beyond double precision: its
    quantile is not finite, or the square of its density, which the
    checkers divide by, leaves the normal double range.
    """
    if n < 3:
        raise DomainError("n must be >= 3")
    if not 0.0 < eps < 0.1:
        raise DomainError("eps must lie in (0, 0.1)")
    p = np.linspace(eps, 1.0 - eps, n)
    grid = Grid.at_levels(d, p, eps)
    if np.any(grid.f * grid.f < np.finfo(float).tiny):
        raise _beyond_double(p, grid.points, grid.f)
    return grid


@dataclass(frozen=True)
class Certificate:
    """Verdict of a concavity check on a grid.

    ``margin`` is the worst signed slack in units of the local tolerance
    scale; negative means violation.  On failure ``witness`` is the
    offending abscissa (condition iv) or pair (conditions iii / midpoint),
    deterministic under ties (smallest abscissa).
    """

    verdict: str  # "pass" | "fail"
    condition: str  # "deriv_ineq_iv" | "hazard_mono_iii" | "midpoint_def"
    witness: float | tuple[float, float] | None
    margin: float
    grid: Grid
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        return {"verdict": self.verdict, "condition": self.condition,
                "witness": witness, "margin": float(self.margin),
                "grid": self.grid.to_dict(), "tolerance": self.tolerance}


@dataclass(frozen=True)
class CRReport:
    """Grid-refined suprema of |CR| and |CR_min| with the theoretical cap."""

    gamma: float
    gamma_tilde: float
    argmax_gamma: float
    theoretical_cap: float

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "gamma_tilde": self.gamma_tilde,
                "argmax_gamma": self.argmax_gamma,
                "theoretical_cap": self.theoretical_cap}


# -- Csorgo-Revesz functionals ------------------------------------------------

def _density(d: Distribution, x):
    f = d.pdf(x)
    if np.any(np.asarray(f) <= 0.0):
        raise DomainError("density must be positive at the evaluation point")
    return f


def _fields(d: Distribution, x):
    return _density(d, x), d.pdf_deriv(x), d.cdf(x), d.sf(x)


def _sample(d: Distribution, grid: Grid):
    """The grid's (f, f', F, 1-F), once it is known to be a sample of d."""
    if grid.law != d:
        raise DomainError(f"the grid samples {grid.law.spec_string()}, "
                          f"not {d.spec_string()}")
    return grid.f, grid.fp, grid.F, grid.S


def _corridor(one_minus_star: float, f, F, S):
    """-(1-s*) f^2/(1-F) and (1-s*) f^2/F."""
    return -one_minus_star * f * f / S, one_minus_star * f * f / F


def cr(d: Distribution, x):
    """F (1-F) f'/f^2, evaluated as (F/f)(f'/f)(1-F) to survive deep tails."""
    f, fp, F, S = _fields(d, x)
    return (F / f) * (fp / f) * S


def cr_min(d: Distribution, x):
    """min(F, 1-F) f'/f^2."""
    f, fp, F, S = _fields(d, x)
    return (np.minimum(F, S) / f) * (fp / f)


def cr_right(d: Distribution, x):
    """(1-F) f'/f^2 (signed; negative where the density decreases)."""
    f, fp, _, S = _fields(d, x)
    return (S / f) * (fp / f)


def cr_report(d: Distribution, s: float, grid: Grid) -> CRReport:
    """Grid suprema of |CR| and |CR_min|, refined around the best point.

    The grid's sample gives both functionals, with the same floating-point
    operations as ``cr`` and ``cr_min``.  Each is refined by
    ``maximize_scalar``, whose array rescans narrow in between the grid
    neighbours of the argmax, so values attained in a tail limit are reported
    as the grid-refined maximum up to the truncation eps.
    """
    to_index(s)  # validate
    f, fp, F, S = _sample(d, grid)
    pts = grid.points

    def refine(values: np.ndarray, cr_fn):
        i = int(np.argmax(values))
        lo, hi = float(pts[max(i - 1, 0)]), float(pts[min(i + 1, grid.count - 1)])
        res = maximize_scalar(lambda x: np.abs(cr_fn(d, x)), lo, hi, seed_points=33,
                              tol=max((hi - lo) * 1e-8, 1e-13))
        if res.value > values[i]:
            return res.location, res.value
        return float(pts[i]), float(values[i])

    left = (F / f) * (fp / f)
    argmax_gamma, gamma = refine(np.abs(left * S), cr)
    _, gamma_tilde = refine(
        np.abs(np.where(F <= S, left, (S / f) * (fp / f))), cr_min)
    gamma_tilde = max(gamma_tilde, gamma)  # F(1-F) <= min(F, 1-F) pointwise
    return CRReport(gamma=gamma, gamma_tilde=gamma_tilde,
                    argmax_gamma=argmax_gamma,
                    theoretical_cap=1.0 / (1.0 + s) if not math.isinf(s) else 0.0)


# -- checkers -----------------------------------------------------------------

def check_condition_iv(d: Distribution, s: float, grid: Grid,
                       tol: float = DEFAULT_TOL) -> Certificate:
    """Check -(1-s*) f^2/(1-F) <= f' <= (1-s*) f^2/F on the grid.

    Slack is relative to the local bound magnitude
    (1-s*) f^2 max(1/F, 1/(1-F)); where s* = 1 (s = inf, or an s so large
    that s* rounds to 1) the condition degenerates to f' = 0 and |f'| is
    compared against the same scale without the vanishing (1-s*) factor.
    """
    idx = to_index(s)
    f, fp, F, S = _sample(d, grid)
    base = f * f / np.minimum(F, S)
    if idx.s_star == 1.0:
        margins = -np.abs(fp) / base
    else:
        oms = idx.one_minus_star
        unit = oms * base
        lo_b, hi_b = _corridor(oms, f, F, S)
        margins = np.minimum((hi_b - fp) / unit, (fp - lo_b) / unit)
    i = int(np.argmin(margins))
    margin = float(margins[i])
    if margin >= -tol:
        return Certificate("pass", "deriv_ineq_iv", None, margin, grid, tol)
    witness = float(grid.points[i])
    return Certificate("fail", "deriv_ineq_iv", witness, margin, grid, tol)


def check_condition_iii(d: Distribution, s: float, grid: Grid,
                        tol: float = DEFAULT_TOL) -> Certificate:
    """Check the s*-hazard monotonicities on consecutive grid pairs.

    f/(1-F)^(1-s*) must be non-decreasing and f/F^(1-s*) non-increasing,
    each up to relative slack ``tol``.  The comparison runs on the hazard
    logarithms, which are immune to the overflow the hazards themselves
    suffer near s = -1 and whose consecutive differences agree with the
    relative-slack semantics to first order.
    """
    idx = to_index(s)
    f, _, F, S = _sample(d, grid)
    log_f = np.log(f)
    lt = log_f + (idx.s_star - 1.0) * np.log(S)
    lh = log_f + (idx.s_star - 1.0) * np.log(F)
    up = lt[1:] - lt[:-1]
    down = lh[:-1] - lh[1:]
    margins = np.minimum(up, down)
    i = int(np.argmin(margins))
    margin = float(margins[i])
    if margin >= -tol:
        return Certificate("pass", "hazard_mono_iii", None, margin, grid, tol)
    witness = (float(grid.points[i]), float(grid.points[i + 1]))
    return Certificate("fail", "hazard_mono_iii", witness, margin, grid, tol)


def _midpoint_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j for the midpoint test.

    All pairs when n <= 200; otherwise a deterministic sample: all lag-1 and
    lag-2 pairs, all pairs anchored at either grid end, and a random fill
    (fixed seed) of 750 pairs in each of up to 16 geometric lag bins from 3
    to n - 1.  The fill does not shrink as the fixed pairs grow with n, so
    dense grids keep their long lags.
    """
    if n <= _ALL_PAIRS_LIMIT:
        return np.triu_indices(n, k=1)
    i_parts = [np.arange(n - 1), np.arange(n - 2),
               np.zeros(n - 1, dtype=int), np.arange(n - 1)]
    j_parts = [np.arange(1, n), np.arange(2, n),
               np.arange(1, n), np.full(n - 1, n - 1)]
    rng = np.random.default_rng(_PAIR_SEED)
    bins = np.unique(np.geomspace(3, n - 1, num=17).astype(int))
    for lo_lag, hi_lag in zip(bins[:-1], bins[1:]):
        lag = rng.integers(lo_lag, hi_lag + 1, size=_FILL_PER_BIN)
        i = rng.integers(0, n - lag)
        i_parts.append(i)
        j_parts.append(i + lag)
    return np.concatenate(i_parts), np.concatenate(j_parts)


def _log_mid_mean(la, lb, t: float):
    """log M_t(a, b; 1/2) from la = log a, lb = log b: with mu = (la + lb)/2
    and delta = (la - lb)/2 it is mu + log cosh(t delta)/t, and mu at t = 0.
    Below |t delta| = 1, log cosh x is log1p(2 sinh(x/2)^2), which keeps its
    digits as t -> 0."""
    mu = 0.5 * (la + lb)
    if t == 0.0:
        return mu
    x = np.abs(t * (0.5 * (la - lb)))
    small = x < 1.0
    log_cosh = np.empty_like(x)
    log_cosh[small] = np.log1p(2.0 * np.sinh(0.5 * x[small]) ** 2)
    big = x[~small]
    log_cosh[~small] = big + np.log1p(np.exp(-2.0 * big)) - math.log(2.0)
    return mu + log_cosh / t


def check_midpoint(d: Distribution, s: float, grid: Grid,
                   tol: float = DEFAULT_TOL) -> Certificate:
    """Definition-level midpoint test with theta = 1/2.

    For grid pairs x < y checks F((x+y)/2) >= M_{s*}(F(x), F(y); 1/2) and
    (1-F)((x+y)/2) >= M_{s*}(1-F(x), 1-F(y); 1/2), up to slack ``tol``
    relative to the pair's mean M: the margins are F(m)/M - 1 and
    (1-F)(m)/M - 1, so a deficit deep in a tail counts as much as one in
    the body.  M is formed in log space from the logs of the grid's F and
    1-F; both are finite, as every grid point lies inside J(F).
    For every s the two inequalities together are equivalent to the
    convexity/concavity statements of the definition; for s > 0 all grid
    pairs already lie inside the one-sided domains, so no pair is excluded.
    """
    idx = to_index(s)
    _, _, F, S = _sample(d, grid)
    pts = grid.points
    i, j = _midpoint_pairs(grid.count)
    mid = 0.5 * (pts[i] + pts[j])

    def deficit(sampled, tail):
        log_tail = np.log(sampled)
        mean = np.exp(_log_mid_mean(log_tail[i], log_tail[j], idx.s_star))
        return tail(mid) / mean - 1.0

    margins = np.minimum(deficit(F, d.cdf), deficit(S, d.sf))
    margin = float(margins.min())
    if margin >= -tol:
        return Certificate("pass", "midpoint_def", None, margin, grid, tol)
    # deterministic witness: the smallest pair (x, y) among the worst ties
    worst = np.flatnonzero(margins == margin)
    k = worst[np.lexsort((j[worst], i[worst]))[0]]
    wi, wj = float(pts[i[k]]), float(pts[j[k]])
    return Certificate("fail", "midpoint_def", (wi, wj), margin, grid, tol)


# -- largest index and mixture threshold ----------------------------------------

def max_s(d: Distribution, lo: float, hi: float, grid: Grid | None = None,
          check_tol: float = DEFAULT_TOL) -> float:
    """Supremal s at which ``check_condition_iv`` passes: min(1/kappa - 1, hi).

    kappa is the grid maximum of (f'/f^2)/(1/F + tol/m) and
    (-f'/f^2)/(1/(1-F) + tol/m), m = min(F, 1-F): the checker's test solved
    for 1/(1+s).  kappa <= 0 gives inf; a value below ``lo`` is a BracketError.
    """
    to_index(lo)
    to_index(hi)
    if not lo < hi:
        raise DomainError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if grid is None:
        grid = make_grid(d)
    f, fp, F, S = _sample(d, grid)
    slope = fp / (f * f)
    slack = check_tol / np.minimum(F, S)
    kappa = float(np.max(np.maximum(slope / (1.0 / F + slack),
                                    -slope / (1.0 / S + slack))))
    s = math.inf if kappa <= 0.0 else 1.0 / kappa - 1.0
    if not s >= lo:
        raise BracketError(
            f"bracket invalid: check fails at s={lo}; widen the bracket downward")
    return min(s, hi)


def delta_threshold(family: str, s: float, lo: float, hi: float,
                    tol: float = 1e-3, *, r: float | None = None,
                    grid_points: int = DEFAULT_GRID_POINTS,
                    eps: float = DEFAULT_EPS,
                    check_tol: float = DEFAULT_TOL) -> float:
    """Mixture separation at which ``check_condition_iv`` flips to fail.

    ``family`` is ``"normmix"`` or ``"tmix"`` (the latter needs ``r``).
    Requires a pass at delta = ``lo`` and a failure at delta = ``hi``.
    """
    from .catalog import NormalMixture, TMixture

    if family == "normmix":
        build = NormalMixture
    elif family == "tmix":
        if r is None:
            raise DomainError("family 'tmix' requires r")
        def build(delta: float) -> TMixture:
            return TMixture(r, delta)
    else:
        raise DomainError("family must be 'normmix' or 'tmix'")
    to_index(s)

    def passes(delta: float) -> bool:
        d = build(delta)
        grid = make_grid(d, grid_points, eps)
        return check_condition_iv(d, s, grid, check_tol).passed

    return bisect_boundary(passes, lo, hi, tol)
