"""Fisher information for location and the associated inequality chain.

For a distribution with absolutely continuous density f and distribution
function F that satisfies the derivative corridor at index s, the location
Fisher information I_f = int (f'/f)^2 f dx obeys

    max(H_left, H_right) / 4  <=  I_f  <=  (2/(1+s)^2) max(H_left, H_right)

where H_left = int (f/F)^2 dF and H_right = int (f/(1-F))^2 dF are the
Hardy integrals (each bounded by 4 I_f whenever finite).

All three are taken in u = F(x), x = Q(u), on (0, 1):

    I_f = int (f'/f)^2(Q(u)) du,   H_left = int (f(Q(u))/u)^2 du,
    H_right = int (f(Q(u))/(1-u))^2 du.

d log f(Q(u)) / d log u = F f'/f^2 is the tail functional of condition
(iv), so near each end of (0, 1) an integrand behaves like v^beta in the
distance v to that end, and the integral is finite there iff beta > -1.

One tanh-sinh sweep serves all three.  Its nodes v = 1/(1 + e^(pi sinh t)),
t = 0, h, 2h, ..., run on each half of (0, 1), so that they crowd towards
u = 1/2 as well as towards 0 and 1: each v is used at u = v/2, 1/2 - v/2,
1/2 + v/2 and 1 - v/2, with weight h pi cosh(t) v (1 - v) / 2.  (A
mixture's valley between its modes sits at u = 1/2, squeezed to a width of
about f(0); normmix at delta = 3 does not settle without these inner ends.)
h halves, reusing the nodes already evaluated, until two levels agree to
``rel_tol``; an integral not settled at h = 2^-9 raises QuadratureError
with its last estimate.  Each end's sum runs to its deepest node with a finite
integrand, at most v ~ 1e-300, and beta is the log-log slope through its
last two nodes:

* beta <= -1 + 1e-6 reports the integral as infinite.  An exact v^-1 end
  (gpow r = 2) measures -1 to rounding, and a finite end that close to -1
  would leave a remainder of over 10^6 c; gpow r = 2.05 measures -0.988.
* otherwise the end is closed with the power-law remainder
  c v*^(beta+1)/(beta+1), v* half a step past the last node.

On the first level the sweep goes outward in stages (t <= 3, 4.5, then
all the way), and an end stops at the first stage where each of its
remainders is below 1e-3 rel_tol of its sum.  Light tails, and the inner
ends, so never evaluate the quantile deep in a tail, where the mixtures'
Newton iteration is costly.  The slope rule would misjudge an end that
approaches v^-1 only logarithmically (v^-1 / log(1/v)); no catalog family
has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Distribution
from .errors import DomainError, PreconditionError, QuadratureError
# bench/tracing.py wraps fisher.integrate_adaptive by name
from .numerics import integrate_adaptive  # noqa: F401
from .shape import (DEFAULT_EPS, DEFAULT_GRID_POINTS, DEFAULT_TOL,
                    check_condition_iv, make_grid)

__all__ = [
    "FisherReport",
    "fisher_integrals",
    "fisher_info",
    "hardy_integrals",
    "check_fisher_chain",
    "fisher_closed_form_spherical",
]

_H0 = 0.25  # the first level's step
_H_MIN = 2.0 ** -9
_T_MAX = math.asinh(690.0 / math.pi)  # v = e^-690 ~ 1e-300
_STAGES = (3.0, 4.5, _T_MAX)  # v ~ 2e-14, 5e-62, 1e-300
_BETA_TOL = 1e-6
_CUT = 1e-3
_NAMES = ("I_f", "hardy_left", "hardy_right")


@dataclass(frozen=True)
class FisherReport:
    """Fisher information, Hardy integrals, and the chain bounds at index s.

    Infinite entries are represented as math.inf; ``all_infinite`` is set
    when every integral diverges, in which case the chain holds vacuously.
    ``chain_lo = max(hardy)/4`` and ``chain_hi = (2/(1+s)^2) max(hardy)``
    bracket I_f when everything is finite.
    """

    i_f: float
    hardy_left: float
    hardy_right: float
    chain_lo: float
    chain_hi: float
    s: float
    chain_holds: bool
    all_infinite: bool

    def to_dict(self) -> dict:
        def enc(v: float):
            return None if math.isinf(v) else v
        return {"I_f": enc(self.i_f), "hardy_left": enc(self.hardy_left),
                "hardy_right": enc(self.hardy_right),
                "chain_lo": enc(self.chain_lo), "chain_hi": enc(self.chain_hi),
                "s": self.s, "chain_holds": self.chain_holds,
                "all_integrals_infinite": self.all_infinite,
                "note": "all integrals infinite" if self.all_infinite else None}


def _log_v(t):
    """log v(t), v = 1/(1 + e^(pi sinh t)), without underflow."""
    return -np.logaddexp(0.0, np.pi * np.sinh(t))


def _integrands(d: Distribution, log_v: np.ndarray) -> np.ndarray:
    """g[end, k] at the nodes, k over I_f, H_left, H_right.  The ends are
    u = v/2 and 1 - v/2 (outer), then 1/2 - v/2 and 1/2 + v/2 (inner)."""
    a = 0.5 * np.exp(log_v)
    p = np.concatenate([a, 0.5 - a])
    q = 1.0 - p
    (f_lo, s_lo), (f_hi, s_hi) = d.density_at_quantiles(p)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.array([s_lo * s_lo, (f_lo / p) ** 2, (f_lo / q) ** 2])
        hi = np.array([s_hi * s_hi, (f_hi / q) ** 2, (f_hi / p) ** 2])
    n = a.size
    return np.array([lo[:, :n], hi[:, :n], lo[:, n:], hi[:, n:]])


def _remainder(g: np.ndarray, log_v: np.ndarray, t_star: float) -> float:
    """int_0^v* c v^beta dv for the power law through the last two nodes
    (g, log_v); math.inf when beta <= -1 + _BETA_TOL."""
    if g.size < 2 or not np.all(g > 0.0):
        return 0.0  # nothing to fit, or the integrand underflowed
    beta = math.log(g[1] / g[0]) / (log_v[1] - log_v[0])
    if beta <= -1.0 + _BETA_TOL:
        return math.inf
    log_star = float(_log_v(t_star))
    return float(g[1] * math.exp(log_v[1] + (beta + 1.0) * (log_star - log_v[1]))
                 / (beta + 1.0))


def _ends(h, t, g, reach):
    """(sums, remainders), each [end, k], in u: the trapezoid sum over the
    nodes up to the end's last finite integrand value, and the remainder
    past it.  ``reach`` bounds the nodes each end may use."""
    log_v = _log_v(t)
    # du = pi cosh(t) v (1 - v) dt / 2; t = 0 is shared by an outer and an
    # inner end
    weight = 0.5 * np.pi * np.cosh(t) * np.exp(log_v) * -np.expm1(log_v)
    weight[0] *= 0.5
    sums = np.zeros((4, 3))
    rems = np.zeros((4, 3))
    for end in range(4):
        for k in range(3):
            ok = np.isfinite(g[end, k]) & (t <= reach[end])
            n = t.size if ok.all() else int(np.argmin(ok))
            if n < 2:  # no power law to close the end with
                a = 0.5 * math.exp(log_v[n])
                u = (a, 1.0 - a, 0.5 - a, 0.5 + a)[end]
                raise DomainError(f"the {_NAMES[k]} integrand is not finite at "
                                  f"u={u!r}: the law leaves double precision")
            sums[end, k] = h * np.dot(weight[:n], g[end, k, :n])
            rems[end, k] = 0.5 * _remainder(g[end, k, n - 2:n], log_v[n - 2:n],
                                            t[n - 1] + 0.5 * h)
    return sums, rems


def _add_nodes(d, t, g, new):
    """Nodes t and integrands g with the nodes ``new`` merged in, in order."""
    t = np.concatenate([t, new])
    g = np.concatenate([g, _integrands(d, _log_v(new))], axis=2)
    order = np.argsort(t, kind="stable")
    return t[order], g[:, :, order]


def _values(sums, rems):
    return np.where(np.isinf(rems).any(axis=0), math.inf, (sums + rems).sum(axis=0))


def fisher_integrals(d: Distribution,
                     rel_tol: float = 1e-8) -> tuple[float, float, float]:
    """(I_f, H_left, H_right) from one tanh-sinh sweep in u = F(x).

    Any of them may be math.inf (see the module docstring for the rule).
    Raises QuadratureError, with the last estimate, when a finite one does
    not settle to ``rel_tol`` by the finest level.
    """
    if not rel_tol > 0.0:
        raise DomainError("rel_tol must be > 0")
    h = _H0
    t, g = np.empty(0), np.empty((4, 3, 0))
    reach = [_T_MAX] * 4  # an end that is cut reaches its last node only
    for depth in _STAGES:  # the first level, outward until every end is cut
        t, g = _add_nodes(d, t, g, h * np.arange(t.size, math.floor(depth / h) + 1))
        sums, rems = _ends(h, t, g, reach)
        for end in range(4):
            if reach[end] == _T_MAX and np.all(rems[end] <= _CUT * rel_tol * sums[end]):
                reach[end] = t[-1]
        if max(reach) < _T_MAX:
            break
    values = _values(sums, rems)
    while np.isfinite(values).any():
        if h <= _H_MIN:
            k = int(np.argmax(np.isfinite(values) & ~settled))
            raise QuadratureError(
                f"{_NAMES[k]} did not settle to rel_tol {rel_tol!r} by step {h!r}",
                float(values[k]), float(abs(values[k] - prev[k])), t.size)
        h *= 0.5
        t, g = _add_nodes(d, t, g, h * np.arange(1, math.floor(max(reach) / h) + 1, 2))
        prev, values = values, _values(*_ends(h, t, g, reach))
        values[np.isinf(prev)] = math.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            settled = np.abs(values - prev) <= rel_tol * np.abs(values)
        if np.all(settled | np.isinf(values)):
            break
    return tuple(float(v) for v in values)


def fisher_info(d: Distribution, rel_tol: float = 1e-8) -> float:
    """Location Fisher information int (f'/f)^2 f over J(F); math.inf when
    it diverges at an end of the support."""
    return fisher_integrals(d, rel_tol)[0]


def hardy_integrals(d: Distribution, rel_tol: float = 1e-8) -> tuple[float, float]:
    """The pair (int (f/F)^2 dF, int (f/(1-F))^2 dF) over J(F).

    Either component may be math.inf; this happens exactly when the density
    does not vanish at the corresponding finite support endpoint or decays
    too slowly there.
    """
    return fisher_integrals(d, rel_tol)[1:]


def check_fisher_chain(d: Distribution, s: float, rel_tol: float = 1e-8,
                       grid_points: int = DEFAULT_GRID_POINTS,
                       eps: float = DEFAULT_EPS,
                       check_tol: float = DEFAULT_TOL) -> FisherReport:
    """Evaluate the Fisher chain max(H)/4 <= I_f <= (2/(1+s)^2) max(H).

    The derivative corridor must hold at s (checked first; a failing
    distribution is refused, naming the witness).  When every integral is
    infinite the report records that and the chain holds vacuously.
    """
    cert = check_condition_iv(d, s, make_grid(d, grid_points, eps), check_tol)
    if not cert.passed:
        raise PreconditionError(
            "the derivative corridor fails at s=%r (witness x=%r, margin %r); "
            "the chain hypotheses do not hold" % (s, cert.witness, cert.margin))
    i_f, left, right = fisher_integrals(d, rel_tol)
    hmax = max(left, right)
    if math.isinf(hmax):
        chain_lo = chain_hi = math.inf
    else:
        chain_lo = hmax / 4.0
        factor = 0.0 if math.isinf(s) else 2.0 / (1.0 + s) ** 2
        chain_hi = factor * hmax
    all_inf = math.isinf(i_f) and math.isinf(left) and math.isinf(right)
    if all_inf:
        holds = True
    else:
        slack = 10.0 * rel_tol * ((abs(i_f) if math.isfinite(i_f) else 0.0)
                                  + (hmax if math.isfinite(hmax) else 0.0)) + 1e-12
        lower_ok = math.isfinite(chain_lo) and math.isfinite(i_f) \
            and chain_lo <= i_f + slack
        upper_ok = math.isinf(chain_hi) or (math.isfinite(i_f)
                                            and i_f <= chain_hi + slack)
        holds = bool(lower_ok and upper_ok)
    return FisherReport(i_f=i_f, hardy_left=left, hardy_right=right,
                        chain_lo=chain_lo, chain_hi=chain_hi, s=s,
                        chain_holds=holds, all_infinite=all_inf)


def fisher_closed_form_spherical(r: float) -> float:
    """Closed-form I_f for the spherical-power family, r > 2.

    Evaluates (r/2) Gamma(r/2-1) Gamma((r+3)/2) /
    (Gamma(r/2+1) Gamma((r+1)/2)), which simplifies to (r+1)/(r-2); the
    value grows without bound as r decreases to 2, where the integral
    diverges.
    """
    if not r > 2.0:
        raise DomainError("formula diverges for r <= 2")
    return math.exp(math.log(r / 2.0)
                    + math.lgamma(r / 2.0 - 1.0) + math.lgamma((r + 3.0) / 2.0)
                    - math.lgamma(r / 2.0 + 1.0) - math.lgamma((r + 1.0) / 2.0))
