"""Self-contained numerical kernels: adaptive quadrature, 1-D maximization
and predicate bisection (the mixture threshold search; max_s needs none).

Everything here is a pure function of its arguments.  The quadrature rule is
an embedded Gauss-Kronrod 7/15 pair; infinite endpoints are mapped to a
finite parameter interval with the rational substitution ``x = t/(1 - t^2)``,
whose smoothness preserves polynomial and sub-exponential tails.  The
maximizer samples its objective on arrays only: a seed scan, then rescans of
17 points between the best point's neighbours.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, EvaluationError, QuadratureError

__all__ = [
    "QuadratureResult",
    "BracketResult",
    "integrate_adaptive",
    "maximize_scalar",
    "bisect_boundary",
    "SUBDIVISION_CAP",
]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].  The seven Gauss nodes
# are the odd-indexed Kronrod nodes.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G7_SLICE = slice(1, 15, 2)

SUBDIVISION_CAP = 2000
_ABS_FLOOR = 1e-14
_RESCAN_POINTS = 17  # the bracket narrows 8x per rescan


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class BracketResult:
    """Location/value of a 1-D maximum and the final bracket width."""

    location: float
    value: float
    bracket_width: float


def _eval_vectorized(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` on an array, falling back to a scalar loop.

    Overflow in the callable is tolerated (it produces inf, which the
    caller treats as non-convergent); NaN is reported by the caller.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            out = np.asarray(fn(xs), dtype=float)
            if out.shape != xs.shape:
                raise ValueError
        except (TypeError, ValueError):
            out = np.array([float(fn(float(x))) for x in xs])
    return out


def _checked_eval(fn: Callable, xs: np.ndarray, what: str = "integrand") -> np.ndarray:
    out = _eval_vectorized(fn, xs)
    bad = np.isnan(out)
    if bad.any():
        raise EvaluationError(f"{what} returned NaN", float(xs[np.argmax(bad)]))
    return out


def _robust_sum(values) -> float:
    """fsum that degrades gracefully in the presence of infinities."""
    pos = neg = False
    items = []
    for v in values:
        if math.isnan(v):
            return math.nan
        if v == math.inf:
            pos = True
        elif v == -math.inf:
            neg = True
        else:
            items.append(v)
    finite = math.fsum(items)
    if pos and neg:
        return math.nan
    if pos:
        return math.inf
    if neg:
        return -math.inf
    return finite


def _transform(integrand: Callable, lo: float, hi: float):
    """Map an interval with infinite endpoint(s) onto a finite t-interval.

    Uses ``x = t/(1-t^2)`` (doubly infinite) or a shifted half of it
    (half-infinite); returns the transformed integrand and finite bounds.
    """
    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)
    if not lo_inf and not hi_inf:
        def g(t):
            return _checked_eval(integrand, t)
        return g, lo, hi
    if lo_inf and hi_inf:
        shift = 0.0
        t_lo, t_hi = -1.0, 1.0
    elif hi_inf:
        shift = lo
        t_lo, t_hi = 0.0, 1.0
    else:
        shift = hi
        t_lo, t_hi = -1.0, 0.0

    def g(t):
        # cells adjacent to t = +-1 can round a node onto the endpoint
        # itself; its contribution is measure-zero, so evaluate it as 0
        denom = 1.0 - t * t
        interior = denom > 0.0
        safe = np.where(interior, denom, 1.0)
        x = shift + t / safe
        jac = (1.0 + t * t) / (safe * safe)
        vals = _checked_eval(integrand, np.where(interior, x, shift)) * jac
        return np.where(interior, vals, 0.0)

    return g, t_lo, t_hi


def _gk15(fn: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 value and error estimate on one cell."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = _eval_vectorized(fn, mid + half * _GK_NODES)
    bad = np.isnan(fx)
    if bad.any():
        raise EvaluationError("integrand returned NaN",
                              float((mid + half * _GK_NODES)[np.argmax(bad)]))
    with np.errstate(over="ignore", invalid="ignore"):
        k15 = float(np.dot(_GK_WEIGHTS, fx))
        g7 = float(np.dot(_G7_WEIGHTS, fx[_G7_SLICE]))
    if not (math.isfinite(k15) and math.isfinite(g7)):
        return k15, math.inf  # non-finite rule values can never converge
    # Kronrod error estimate with the standard resasc normalization: the
    # damping is applied relative to the cell's own variation so that cells
    # whose sampled values are small but unrepresentative keep a large
    # error and continue to be refined.
    raw = abs(k15 - g7) * abs(half)
    resasc = float(np.dot(_GK_WEIGHTS, np.abs(fx - 0.5 * k15))) * abs(half)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return float(half * k15), float(err)


def integrate_adaptive(integrand: Callable, lo: float, hi: float,
                       rel_tol: float = 1e-10) -> QuadratureResult:
    """Adaptively integrate ``integrand`` over ``(lo, hi)``.

    Worst-cell-first bisection of an embedded Gauss-Kronrod 7/15 rule.
    Either endpoint may be infinite.  Integrable endpoint singularities are
    tolerated because the rule never evaluates the endpoints themselves.

    Raises
    ------
    QuadratureError
        If the subdivision cap is reached before the total error estimate
        drops below ``rel_tol * |value| + 1e-14``.
    EvaluationError
        If the integrand returns NaN; the offending abscissa is recorded.
    """
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not rel_tol > 0.0:
        raise DomainError("rel_tol must be > 0")

    g, a, b = _transform(integrand, lo, hi)

    # A modest initial partition guards against features that a single
    # 15-point rule would step over; an odd cell count keeps the midpoint
    # of a symmetric interval interior to a cell rather than on an edge.
    n0 = 9
    edges = np.linspace(a, b, n0 + 1)
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    for i in range(n0):
        val, err = _gk15(g, edges[i], edges[i + 1])
        heapq.heappush(heap, (-err, counter, edges[i], edges[i + 1], val, err))
        counter += 1
        total_val += val
        total_err += err

    while True:
        # NaN-safe convergence check: non-finite totals never satisfy it
        if math.isfinite(total_val) and math.isfinite(total_err) \
                and total_err <= rel_tol * abs(total_val) + _ABS_FLOOR:
            break
        if len(heap) >= SUBDIVISION_CAP:
            raise QuadratureError("quadrature failed to converge",
                                  _robust_sum(item[4] for item in heap),
                                  _robust_sum(item[5] for item in heap),
                                  len(heap))
        neg_err, _, ca, cb, cval, cerr = heapq.heappop(heap)
        mid = 0.5 * (ca + cb)
        if mid <= ca or mid >= cb:
            # Cell width is below floating-point resolution; keep the cell
            # and give up on shrinking its error further.
            heapq.heappush(heap, (0.0, counter, ca, cb, cval, cerr))
            counter += 1
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        lval, lerr = _gk15(g, ca, mid)
        rval, rerr = _gk15(g, mid, cb)
        total_val += lval + rval - cval
        total_err += lerr + rerr - cerr
        heapq.heappush(heap, (-lerr, counter, ca, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, cb, rval, rerr))
        counter += 1

    value = math.fsum(item[4] for item in heap)
    err = math.fsum(item[5] for item in heap)
    return QuadratureResult(value=value, abs_error_estimate=err,
                            subdivisions=len(heap))


def maximize_scalar(objective: Callable, lo: float, hi: float,
                    seed_points: int = 33, tol: float = 1e-8) -> BracketResult:
    """Locate a maximum of ``objective`` on ``[lo, hi]``.

    Scans ``seed_points`` equispaced abscissas in one vectorized call, then
    rescans 17 equispaced points between the best point's neighbours, a
    bracket 8x narrower per level, until its width is at most ``tol`` (or
    stops narrowing at floating-point resolution).  The best point of every
    scan is kept.  Deterministic: ties go to the smaller abscissa.
    """
    if not lo < hi:
        raise DomainError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if seed_points < 3:
        raise DomainError("seed_points must be >= 3")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")

    xs = np.linspace(lo, hi, seed_points)
    best_x, best_v, width = math.inf, -math.inf, math.inf
    while True:
        vals = _checked_eval(objective, xs, "objective")
        i = int(np.argmax(vals))  # first occurrence: smaller abscissa on ties
        x, v = float(xs[i]), float(vals[i])
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if b - a <= tol or not b - a < width:
            break
        width = b - a
        xs = np.linspace(a, b, _RESCAN_POINTS)
    return BracketResult(location=best_x, value=best_v,
                         bracket_width=float(b - a))


def bisect_boundary(predicate: Callable[[float], bool], lo: float, hi: float,
                    tol: float) -> float:
    """Locate the boundary of a monotone predicate.

    Requires ``predicate(lo)`` true and ``predicate(hi)`` false (checked);
    monotonicity in between is the caller's responsibility.  Returns the
    midpoint of the final bracket, whose width is at most ``tol``.
    """
    if not lo < hi:
        raise DomainError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    if not predicate(lo):
        raise BracketError(f"bracket invalid: predicate is false at lo={lo}")
    if predicate(hi):
        raise BracketError(f"bracket invalid: predicate is true at hi={hi}")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
