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
from .shape import Grid, reverse_s_star_hazard, s_star_hazard, to_index

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


def f_upper(d: Distribution, s: float, x):
    """Convex upper transform F_U at x (may exceed 1; +inf where vacuous)."""
    idx = to_index(s)
    _require_inside(d, x)
    S = d.sf(x)
    if idx.s_star == 0.0:
        return -np.log(S) if np.ndim(x) else float(-np.log(S))
    with np.errstate(over="ignore"):
        out = -np.expm1(idx.s_star * np.log(S)) / idx.s_star
    return out if np.ndim(x) else float(out)


def f_lower(d: Distribution, s: float, x):
    """Concave lower transform F_L at x (may fall below 0)."""
    idx = to_index(s)
    _require_inside(d, x)
    F = d.cdf(x)
    if idx.s_star == 0.0:
        return 1.0 + np.log(F) if np.ndim(x) else float(1.0 + np.log(F))
    with np.errstate(over="ignore"):
        out = 1.0 + np.expm1(idx.s_star * np.log(F)) / idx.s_star
    return out if np.ndim(x) else float(out)


def fu_prime(d: Distribution, s: float, x):
    """F_U' = f/(1-F)^(1-s*); coincides with the s*-hazard."""
    _require_inside(d, x)
    return s_star_hazard(d, s, x)


def fl_prime(d: Distribution, s: float, x):
    """F_L' = f/F^(1-s*); coincides with the reverse s*-hazard."""
    _require_inside(d, x)
    return reverse_s_star_hazard(d, s, x)


def fprime_corridor(d: Distribution, s: float, x):
    """The (lo, hi) corridor for f': -(1-s*) f^2/(1-F) and (1-s*) f^2/F."""
    idx = to_index(s)
    _require_inside(d, x)
    f = d.pdf(x)
    if np.any(np.asarray(f) <= 0.0):
        raise DomainError("density must be positive at the evaluation point")
    F = d.cdf(x)
    S = d.sf(x)
    oms = idx.one_minus_star
    lo = -oms * f * f / S
    hi = oms * f * f / F
    if np.ndim(x) == 0:
        return float(lo), float(hi)
    return lo, hi


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
    follow the grid, strictly increasing in x."""
    to_index(s)
    pts = grid.points
    F = d.cdf(pts)
    f = d.pdf(pts)
    fp = d.pdf_deriv(pts)
    FU = f_upper(d, s, pts)
    FL = f_lower(d, s, pts)
    FUp = fu_prime(d, s, pts)
    FLp = fl_prime(d, s, pts)
    lo, hi = fprime_corridor(d, s, pts)
    return pts, F, FL, FU, f, FLp, FUp, fp, lo, hi


def write_envelope_csv(columns: Sequence[np.ndarray], stream: IO[str]) -> None:
    """Emit the table with the fixed header and 17-significant-digit floats
    (infinities print as inf and -inf)."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    stream.write(CSV_HEADER + "\n")
    stream.write("".join(line % row for row in rows))
