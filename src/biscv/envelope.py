"""Explicit envelope bounds implied by bi-s*-concavity.

For F bi-s*-concave the transforms

    F_U = -expm1(s* log(1-F)) / s*      (upper, convex)
    F_L = 1 + expm1(s* log F) / s*      (lower, concave)

sandwich F pointwise (the sandwich itself is a Bernoulli-inequality
identity valid for any F; convexity of F_U and concavity of F_L are what
bi-s*-concavity adds).  Their derivatives are the s*-hazards

    F_U' = f/(1-F)^(1-s*)   non-decreasing,
    F_L' = f/F^(1-s*)       non-increasing,

and the density derivative is confined to the corridor

    -(1-s*) f^2/(1-F) <= f' <= (1-s*) f^2/F.

At s = 0 the expm1 forms reduce exactly to the logarithmic limits
F_U = -log(1-F), F_L = 1 + log F, so the family is continuous across s = 0.
Values are reported unclamped: F_U may exceed 1 (recorded as written, +inf
where the bound is vacuous).
"""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

from .catalog import Distribution
from .errors import DomainError
from .shape import Grid, _corridor, _density, _sample, to_index

__all__ = [
    "f_upper",
    "f_lower",
    "fu_prime",
    "fl_prime",
    "fprime_corridor",
    "pointwise_band",
    "emit_envelope_table",
    "write_envelope_csv",
    "CSV_HEADER",
]

CSV_HEADER = "x,F,F_L,F_U,f,FL_prime,FU_prime,f_prime,fp_lo,fp_hi"


def _require_inside(d: Distribution, x) -> None:
    sup = d.support()
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= sup.lo) or np.any(arr >= sup.hi):
        raise DomainError(
            f"x must lie strictly inside the support ({sup.lo}, {sup.hi})")


def _like(x, out):
    """``out`` as a Python float when x is a scalar."""
    return out if np.ndim(x) else float(out)


def _star_log(s_star: float, u):
    """(u^s* - 1)/s* as expm1(s* log u)/s*, and its limit log u at s* = 0."""
    if s_star == 0.0:
        return np.log(u)
    with np.errstate(over="ignore"):
        return np.expm1(s_star * np.log(u)) / s_star


def _hazard(s_star: float, f, tail):
    """f/tail^(1-s*); +inf where it overflows, deep in a tail near s = -1."""
    with np.errstate(over="ignore"):
        return f * np.exp((s_star - 1.0) * np.log(tail))


def f_upper(d: Distribution, s: float, x):
    """Convex upper transform F_U at x (may exceed 1; +inf where vacuous)."""
    s_star = to_index(s).s_star
    _require_inside(d, x)
    return _like(x, -_star_log(s_star, d.sf(x)))


def f_lower(d: Distribution, s: float, x):
    """Concave lower transform F_L at x (may fall below 0)."""
    s_star = to_index(s).s_star
    _require_inside(d, x)
    return _like(x, 1.0 + _star_log(s_star, d.cdf(x)))


def fu_prime(d: Distribution, s: float, x):
    """F_U' = f/(1-F)^(1-s*), the s*-hazard (non-decreasing on the class)."""
    s_star = to_index(s).s_star
    _require_inside(d, x)
    return _like(x, _hazard(s_star, _density(d, x), d.sf(x)))


def fl_prime(d: Distribution, s: float, x):
    """F_L' = f/F^(1-s*), the reverse s*-hazard (non-increasing on the class)."""
    s_star = to_index(s).s_star
    _require_inside(d, x)
    return _like(x, _hazard(s_star, _density(d, x), d.cdf(x)))


def fprime_corridor(d: Distribution, s: float, x):
    """The (lo, hi) corridor for f': -(1-s*) f^2/(1-F) and (1-s*) f^2/F."""
    oms = to_index(s).one_minus_star
    _require_inside(d, x)
    lo, hi = _corridor(oms, _density(d, x), d.cdf(x), d.sf(x))
    return _like(x, lo), _like(x, hi)


def pointwise_band(d: Distribution, s: float, x, t):
    """Two-sided band for F(x + t) implied by bi-s*-concavity at x.

    upper = F (1 + s* (f/F) t)_+^(1/s*),
    lower = 1 - (1-F) (1 - s* (f/(1-F)) t)_+^(1/s*),

    with the exponential limit forms at s = 0 and the linear forms at
    s = inf.  At t = 0 both sides equal F(x) exactly.  For s > 0 the upper
    side is only informative for t > inf(J)-x and the lower side for
    t < sup(J)-x; outside those ranges the vacuous bounds 1 and 0 are
    returned.  For s < 0 a vanishing base makes the upper side +inf
    (vacuous) rather than clamped.
    """
    idx = to_index(s)
    _require_inside(d, x)
    scalar = np.ndim(x) == 0 and np.ndim(t) == 0
    xa, ta = np.broadcast_arrays(np.atleast_1d(np.asarray(x, float)),
                                 np.atleast_1d(np.asarray(t, float)))
    F = d.cdf(xa)
    S = d.sf(xa)
    f = d.pdf(xa)
    ss = idx.s_star

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if ss == 0.0:
            upper = F * np.exp(f / F * ta)
            lower = 1.0 - S * np.exp(-f / S * ta)
        else:
            base_u = np.maximum(1.0 + ss * (f / F) * ta, 0.0)
            base_l = np.maximum(1.0 - ss * (f / S) * ta, 0.0)
            upper = F * base_u ** (1.0 / ss)
            lower = 1.0 - S * base_l ** (1.0 / ss)

    if idx.s > 0.0:
        sup = d.support()
        upper = np.where(ta <= sup.lo - xa, 1.0, upper)
        lower = np.where(ta >= sup.hi - xa, 0.0, lower)

    at_zero = ta == 0.0
    upper = np.where(at_zero, F, upper)
    lower = np.where(at_zero, F, lower)
    if scalar:
        return float(lower[0]), float(upper[0])
    return lower, upper


def emit_envelope_table(d: Distribution, s: float,
                        grid: Grid) -> tuple[np.ndarray, ...]:
    """The table as one array per CSV_HEADER column, in header order; rows
    follow the grid, strictly increasing in x, and the columns are the
    transforms above applied to the grid's sample of the law."""
    idx = to_index(s)
    f, fp, F, S = _sample(d, grid)
    pts = grid.points
    _require_inside(d, pts)
    FU = -_star_log(idx.s_star, S)
    FL = 1.0 + _star_log(idx.s_star, F)
    lo, hi = _corridor(idx.one_minus_star, f, F, S)
    return (pts, F, FL, FU, f, _hazard(idx.s_star, f, F),
            _hazard(idx.s_star, f, S), fp, lo, hi)


def write_envelope_csv(columns: Sequence[np.ndarray], stream: IO[str]) -> None:
    """Emit the table with the fixed header and 17-significant-digit floats
    (infinities print as inf and -inf)."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    stream.write(CSV_HEADER + "\n")
    stream.write("".join(line % row for row in rows))
