"""Analytic distribution families: pdf, pdf derivative, cdf, survival
function, support, quantile, and the largest index s at which each density
is known to be s-concave.

Families
--------
====================  ==========================================================
StudentT(r)           f(x) = C_r (1 + x^2/r)^(-(r+1)/2),
                      C_r = Gamma((r+1)/2) / (sqrt(pi r) Gamma(r/2));
                      s-concave for s <= -1/(1+r).
FDist(a, b)           f(x) = C x^(b/2-1) (a + b x)^(-(a+b)/2) on (0, inf),
                      C = a^(a/2) b^(b/2) / B(a/2, b/2);
                      s-concave for s <= -1/(1+a/2) when a, b >= 2.
Pareto(a, b)          f(x) = (a/b) (x/b)^(-(a+1)) on [b, inf);
                      s-concave for s <= -1/(1+a).
SphericalPower(r)     f(x) = C_r (1 - x^2/r)^(r/2) on [-sqrt(r), sqrt(r)],
                      C_r = Gamma((3+r)/2) / (sqrt(pi r) Gamma(1+r/2));
                      s-concave with s = 2/r.
Normal(mu, sigma)     log-concave (s = 0).
Uniform(lo, hi)       s-concave for every s (s = inf).
NormalMixture(delta)  0.5 N(-delta, 1) + 0.5 N(delta, 1); maximal s unknown.
TMixture(r, delta)    0.5 t_r(. - delta) + 0.5 t_r(. + delta); unknown.
====================  ==========================================================

Each family inverts its own cdf: Normal by ``ndtri``, StudentT by
``stdtrit``, FDist and SphericalPower by ``betaincinv``, Pareto and Uniform
in closed form.  The two mixtures run a safeguarded Newton iteration inside
the bracket q_c(p) -+ delta, where q_c is the component quantile.  Upper
tails are inverted through 1 - F (``_isf``), or by symmetry, never through
a cdf value rounded near 1.  Deep tails switch to the leading term of the
cdf where that is exact in double: the power tail K |x|^-r for StudentT,
where ``stdtrit`` goes wrong past ~1e153, and z = (p a B(a, a))^(1/a) for
SphericalPower, where ``betaincinv`` returns NaN.

All evaluators accept scalars or numpy arrays and are pure; instances are
immutable, so concurrent grid sweeps are safe.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np
import scipy.special as _sps

from .errors import DomainError, NonDifferentiableError, ParseError

__all__ = [
    "Support",
    "Distribution",
    "StudentT",
    "FDist",
    "Pareto",
    "SphericalPower",
    "Normal",
    "Uniform",
    "NormalMixture",
    "TMixture",
    "parse_spec",
]


@dataclass(frozen=True)
class Support:
    """The open interval J(F) = {x : 0 < F(x) < 1}."""

    lo: float
    hi: float


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


class Distribution(ABC):
    """Base class wiring scalar/array dispatch and the quantile's domain
    check; each family supplies ``_quantile`` and ``_isf``.

    A family is a frozen dataclass whose fields are its parameters, in spec
    order, with their defaults.  The class attribute ``tag`` names it in
    spec strings, and ``_positive`` names the fields that must be > 0.
    """

    _positive: tuple[str, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _require(isinstance(value, (int, float)) and math.isfinite(value),
                     f"{f.name} must be a finite number")
        for name in self._positive:
            _require(getattr(self, name) > 0, f"{name} must be > 0")

    # -- public evaluators -------------------------------------------------
    def pdf(self, x):
        """Density, defined on all of R (zero outside the support)."""
        return self._dispatch(self._pdf, x)

    def pdf_deriv(self, x):
        """Analytic density derivative on the open support.

        Raises NonDifferentiableError at a non-differentiable point (the
        Pareto support endpoint); outside the support the density is flat
        and the derivative is 0.
        """
        return self._dispatch(self._pdf_deriv, x)

    def cdf(self, x):
        """Distribution function F."""
        return self._dispatch(self._cdf, x)

    def sf(self, x):
        """Survival function 1 - F, computed without cancellation."""
        return self._dispatch(self._sf, x)

    @abstractmethod
    def support(self) -> Support:
        """J(F) as an open interval."""

    def max_known_s(self) -> float | None:
        """Largest s at which the density is known s-concave; None if unknown."""
        return None

    def quantile(self, p):
        """Inverse of the cdf on (0, 1), from the family's own inverse.

        J(F) is open, so a value that rounds onto a finite end of the
        support is moved to the nearest double inside it.  Raises
        DomainError, naming p, where the inversion yields no number.
        """
        arr = np.asarray(p, dtype=float)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("p must lie strictly inside (0, 1)")
        x = self._dispatch(lambda q: self._inside(self._quantile(q)), arr)
        bad = np.isnan(x)
        if np.any(bad):
            raise DomainError(f"the quantile at p={float(arr[bad].flat[0])!r} "
                              "is not a number")
        return x

    def density_at_quantiles(self, v: np.ndarray):
        """((f, f'/f) at Q(v), (f, f'/f) at Q(1 - v)) for an array v in
        (0, 1/2].

        These are all the Fisher chain needs in u = F(x).  Q(1 - v) comes
        from ``_isf``, so neither tail goes through 1 - v.  A family whose
        x loses the distance to a finite end of its support overrides this.
        """
        x = self._inside(np.concatenate([self._quantile(v), self._isf(v)]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = self._pdf(x)
            score = self._pdf_deriv(x) / f
        n = v.size
        return (f[:n], score[:n]), (f[n:], score[n:])

    @property
    def normalization(self) -> float:
        """The density's normalizing constant exp(_log_c); AttributeError
        for a family without ``_log_c``."""
        return math.exp(self._log_c)

    def spec_parts(self) -> tuple[str, list[tuple[str, float]]]:
        """Family tag and ordered (key, value) parameter pairs."""
        return self.tag, [(f.name, getattr(self, f.name))
                          for f in fields(self)]

    def spec_string(self) -> str:
        """Canonical spec string that parse_spec() maps back to this object."""
        name, params = self.spec_parts()
        body = ",".join(f"{k}={_fmt_param(v)}" for k, v in params)
        return f"{name}:{body}" if body else name

    # -- machinery ---------------------------------------------------------
    def _inside(self, x: np.ndarray) -> np.ndarray:
        """x with a finite support end moved to the nearest double inside."""
        sup = self.support()
        lo = sup.lo if math.isinf(sup.lo) else math.nextafter(sup.lo, math.inf)
        hi = sup.hi if math.isinf(sup.hi) else math.nextafter(sup.hi, -math.inf)
        return np.clip(x, lo, hi)

    def _dispatch(self, fn, x):
        arr = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(arr))
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    @abstractmethod
    def _pdf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _pdf_deriv(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _cdf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _sf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _quantile(self, p: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _isf(self, q: np.ndarray) -> np.ndarray:
        """Q(1 - q), without forming 1 - q."""


def _log_c_gamma_ratio(a: float, b: float, r: float) -> float:
    """log(Gamma(a) / (Gamma(b) sqrt(pi r))) with a = b + 1/2, the t and gpow
    log normalizing constant.  From b = 30 on, log Gamma(a) - log Gamma(b) is
    its asymptotic series in 1/b, within 3e-16 there for every finite r; the
    difference of two log Gammas would lose its digits as r grows."""
    if b < 30.0:
        return math.lgamma(a) - math.lgamma(b) - 0.5 * math.log(math.pi * r)
    u = 1.0 / (b * b)
    series = (u * (1.0 / 192 - u * (1.0 / 640 - u * 17.0 / 14336)) - 0.125) / b
    return series + 0.5 * (math.log(b / r) - math.log(math.pi))


def _fmt_param(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Symmetric(Distribution):
    """A law symmetric about 0: 1 - F(x) = F(-x) and Q(1 - v) = -Q(v), with
    f even and f' odd, so each upper-tail quantity is a reflected lower one."""

    def _sf(self, x):
        return self._cdf(-x)

    def _quantile(self, p):
        # isf(1 - p) for p > 1/2, where 1 - p is exact, and -isf(p) below, so
        # neither tail goes through a value rounded near 1
        x = self._isf(np.minimum(p, 1.0 - p))
        return np.where(p > 0.5, x, -x)

    def density_at_quantiles(self, v):
        # one inversion serves both points: Q(v) = -Q(1 - v), f is even and
        # f'/f odd
        x = self._isf(v)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = self._pdf(x)
            score = self._pdf_deriv(x) / f
        return (f, -score), (f, score)


@dataclass(frozen=True)
class StudentT(_Symmetric):
    """Student t density with r > 0 degrees of freedom."""

    tag = "t"
    _positive = ("r",)
    r: float

    @cached_property
    def _log_c(self) -> float:
        return _log_c_gamma_ratio((self.r + 1.0) / 2.0, self.r / 2.0, self.r)

    def _pdf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self._log_c
                          - 0.5 * (self.r + 1.0) * np.log1p(x * x / self.r))

    def _pdf_deriv(self, x):
        with np.errstate(over="ignore"):
            return self._pdf(x) * (-(self.r + 1.0) * x / (self.r + x * x))

    def _cdf(self, x):
        # F(-|x|) = ½ I_z(r/2, ½), z = r/(r+x²); where z rounds near 1 take
        # the complement ½ - ½ I_{1-z}(½, r/2), but only for |x| < min(√r, 2)/3,
        # below every t quartile, so F ≥ ¼ and the subtraction keeps its digits
        r = self.r
        with np.errstate(over="ignore"):
            x2 = x * x
        near = x2 < min(r, 4.0) / 9.0
        ib = _sps.betainc(np.where(near, 0.5, r / 2.0),
                          np.where(near, r / 2.0, 0.5),
                          np.where(near, x2, r) / (r + x2))
        low = 0.5 * np.where(near, 1.0 - ib, ib)
        return np.where(x <= 0.0, low, 1.0 - low)

    @cached_property
    def _power_tail(self) -> tuple[float, float]:
        """(K^(1/r), q_t) for the tail F(-x) = K x^-r (1 + e(x)), x > 0,
        K = C_r r^((r-1)/2).  Inverting K x^-r puts a relative error of
        r(r+1) / (2(r+2) x^2) on x; q_t is the mass where that is 1e-17."""
        r = self.r
        log_k = self._log_c + 0.5 * (r - 1.0) * math.log(r)
        log_x = 0.5 * math.log(r * (r + 1.0) / (2.0 * (r + 2.0)) * 1e17)
        return math.exp(log_k / r), math.exp(log_k - r * log_x)

    def _isf(self, q):
        # stdtrit loses ~1e-9 relative in the upper tail, where it works from
        # 1 - p, so only its lower tail is used.  It also goes wrong past
        # |x| ~ 1e153 (finite values ~1e153 where the true one is 1e200, +inf
        # at r = 3, q = 1e-300): take the power tail wherever it is exact
        k_root, q_t = self._power_tail
        x = np.empty_like(q)
        deep = q <= q_t
        with np.errstate(over="ignore"):  # an overflowing tail is +inf
            x[deep] = k_root * q[deep] ** (-1.0 / self.r)
        x[~deep] = -_sps.stdtrit(self.r, q[~deep])
        return x

    def support(self) -> Support:
        return Support(-math.inf, math.inf)

    def max_known_s(self) -> float:
        return -1.0 / (1.0 + self.r)


@dataclass(frozen=True)
class FDist(Distribution):
    """F-distribution density x^(b/2-1) (a+bx)^(-(a+b)/2), x > 0."""

    tag = "fdist"
    _positive = ("a", "b")
    a: float
    b: float

    @cached_property
    def _log_c(self) -> float:
        a, b = self.a, self.b
        return (0.5 * a * math.log(a) + 0.5 * b * math.log(b)
                - _sps.betaln(a / 2.0, b / 2.0))

    def _pdf(self, x):
        a, b = self.a, self.b
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.exp(self._log_c + (0.5 * b - 1.0) * np.log(xs)
                         - 0.5 * (a + b) * np.log(a + b * xs))
        return np.where(pos, val, 0.0)

    def _pdf_deriv(self, x):
        a, b = self.a, self.b
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        ratio = (0.5 * b - 1.0) / xs - 0.5 * b * (a + b) / (a + b * xs)
        return np.where(pos, self._pdf(x) * ratio, 0.0)

    def _cdf(self, x):
        a, b = self.a, self.b
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        val = _sps.betainc(b / 2.0, a / 2.0, b * xs / (a + b * xs))
        return np.where(pos, val, 0.0)

    def _sf(self, x):
        a, b = self.a, self.b
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        val = _sps.betainc(a / 2.0, b / 2.0, a / (a + b * xs))
        return np.where(pos, val, 1.0)

    def _quantile(self, p):
        # invert F on the lower half and 1 - F on the upper half, so that
        # neither tail goes through a value rounded near 1
        a, b = self.a, self.b
        out = np.empty_like(p)
        low = p <= 0.5
        y = _sps.betaincinv(b / 2.0, a / 2.0, p[low])  # y = bx / (a + bx)
        with np.errstate(divide="ignore"):  # y = 1: inf
            out[low] = a * y / (b * (1.0 - y))
        out[~low] = self._isf(1.0 - p[~low])
        return out

    def _isf(self, q):
        a, b = self.a, self.b
        z = _sps.betaincinv(a / 2.0, b / 2.0, q)  # z = a / (a + bx)
        with np.errstate(divide="ignore", over="ignore"):  # z = 0: inf
            return a * (1.0 - z) / (b * z)

    def support(self) -> Support:
        return Support(0.0, math.inf)

    def max_known_s(self) -> float | None:
        # the s-concavity statement is only known for a >= 2 and b >= 2
        if self.a >= 2.0 and self.b >= 2.0:
            return -1.0 / (1.0 + self.a / 2.0)
        return None


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto density (a/b)(x/b)^(-(a+1)) on [b, inf)."""

    tag = "pareto"
    _positive = ("a", "b")
    a: float
    b: float

    def _pdf(self, x):
        inside = x >= self.b
        xs = np.where(inside, x, self.b)
        val = (self.a / self.b) * (xs / self.b) ** (-(self.a + 1.0))
        return np.where(inside, val, 0.0)

    def _pdf_deriv(self, x):
        if np.any(x == self.b):
            raise NonDifferentiableError(
                f"pdf is non-differentiable at the support endpoint x={self.b}")
        inside = x > self.b
        xs = np.where(inside, x, self.b)
        return np.where(inside, self._pdf(x) * (-(self.a + 1.0) / xs), 0.0)

    def _cdf(self, x):
        inside = x > self.b
        xs = np.where(inside, x, self.b)
        return np.where(inside, -np.expm1(-self.a * np.log(xs / self.b)), 0.0)

    def _sf(self, x):
        inside = x > self.b
        xs = np.where(inside, x, self.b)
        return np.where(inside, np.exp(-self.a * np.log(xs / self.b)), 1.0)

    def _quantile(self, p):
        with np.errstate(over="ignore"):  # a tiny a overflows to +inf
            return self.b * np.exp(-np.log1p(-p) / self.a)

    def _isf(self, q):
        with np.errstate(over="ignore"):
            return self.b * np.exp(-np.log(q) / self.a)

    def support(self) -> Support:
        return Support(self.b, math.inf)

    def max_known_s(self) -> float:
        return -1.0 / (1.0 + self.a)


@dataclass(frozen=True)
class SphericalPower(_Symmetric):
    """Density C_r (1 - x^2/r)^(r/2) on [-sqrt(r), sqrt(r)]."""

    tag = "gpow"
    _positive = ("r",)
    r: float

    @cached_property
    def _log_c(self) -> float:
        return _log_c_gamma_ratio((3.0 + self.r) / 2.0, 1.0 + self.r / 2.0,
                                  self.r)

    @cached_property
    def _edge(self) -> float:
        return math.sqrt(self.r)

    def _pdf(self, x):
        inside = np.abs(x) < self._edge
        xs = np.where(inside, x, 0.0)
        val = np.exp(self._log_c + 0.5 * self.r * np.log1p(-xs * xs / self.r))
        return np.where(inside, val, 0.0)

    def _pdf_deriv(self, x):
        # one-sided limits at the support endpoints: 0 for r > 2, finite for
        # r = 2, and +-inf for r < 2
        r = self.r
        edge = self._edge
        inside = np.abs(x) <= edge
        xs = np.where(inside, x, 0.0)
        expo = 0.5 * r - 1.0
        if expo == 0.0:
            power = np.ones_like(xs)
        else:
            with np.errstate(divide="ignore"):
                power = np.exp(expo * np.log1p(-np.minimum(xs * xs / r, 1.0)))
        val = -xs * math.exp(self._log_c) * power
        return np.where(inside, val, 0.0)

    def _cdf(self, x):
        u = np.clip((x / self._edge + 1.0) / 2.0, 0.0, 1.0)
        return _sps.betainc(self.r / 2.0 + 1.0, self.r / 2.0 + 1.0, u)

    @cached_property
    def _z_scale(self) -> float:
        a = self.r / 2.0 + 1.0
        return math.exp((math.log(a) + _sps.betaln(a, a)) / a)

    def _lower_z(self, q):
        """z = I^-1_{a,a}(q) with a = r/2 + 1, so that x = sqrt(r) (2z - 1).

        betaincinv returns NaN for tiny q (r = 3.7 at q = 1e-150).  There
        I_{a,a}(z) = z^a / (a B(a, a)) (1 + O(a z)), and the leading term
        z = (q a B(a, a))^(1/a) is exact in double once it is below 1e-20.
        """
        a = self.r / 2.0 + 1.0
        lead = q ** (1.0 / a) * self._z_scale
        deep = lead < 1e-20
        return np.where(deep, lead,
                        _sps.betaincinv(a, a, np.where(deep, 0.5, q)))

    def _isf(self, q):
        # written as -(edge (2z - 1)), so that reflecting gives Q(1/2) = +0.0
        return -self._edge * (2.0 * self._lower_z(q) - 1.0)

    def density_at_quantiles(self, v):
        # in z, 1 - x^2/r = 4z(1 - z) exactly, so f and f'/f keep full
        # precision next to +-sqrt(r), where x itself does not
        z = self._lower_z(v)
        w = 4.0 * z * (1.0 - z)
        f = np.exp(self._log_c + 0.5 * self.r * np.log(w))
        score = self._edge * (1.0 - 2.0 * z) / w
        return (f, score), (f, -score)

    def support(self) -> Support:
        return Support(-self._edge, self._edge)

    def max_known_s(self) -> float:
        return 2.0 / self.r


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Normal(Distribution):
    """Normal density with mean mu and standard deviation sigma."""

    tag = "norm"
    _positive = ("sigma",)
    mu: float = 0.0
    sigma: float = 1.0

    def _z(self, x):
        return (x - self.mu) / self.sigma

    def _pdf(self, x):
        z = self._z(x)
        with np.errstate(over="ignore"):  # z * z = inf far out: exp gives 0
            return np.exp(-0.5 * z * z - _LOG_SQRT_2PI) / self.sigma

    def _pdf_deriv(self, x):
        return -self._z(x) / self.sigma * self._pdf(x)

    def _cdf(self, x):
        return 0.5 * _sps.erfc(-self._z(x) / _SQRT2)

    def _sf(self, x):
        return 0.5 * _sps.erfc(self._z(x) / _SQRT2)

    def _quantile(self, p):
        return self.mu + self.sigma * _sps.ndtri(p)

    def _isf(self, q):
        return self.mu - self.sigma * _sps.ndtri(q)

    def support(self) -> Support:
        return Support(-math.inf, math.inf)

    def max_known_s(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform density on (lo, hi)."""

    tag = "unif"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require(self.lo < self.hi, "lo must be < hi")

    def _pdf(self, x):
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def _pdf_deriv(self, x):
        return np.zeros_like(x)

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _sf(self, x):
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, p):
        return self.lo + p * (self.hi - self.lo)

    def _isf(self, q):
        return self.hi - q * (self.hi - self.lo)

    def support(self) -> Support:
        return Support(self.lo, self.hi)

    def max_known_s(self) -> float:
        return math.inf


# Newton needs at most ~25 steps on the mixtures tried; the cap only bounds
# a point that keeps bisecting
_NEWTON_CAP = 100
# a residual |F(x) - p| within one rounding of p is noise: no nearer x can
# be told apart by F, and a Newton step computed from it would only wander
_F_NOISE = float(np.finfo(float).eps)


class _HalfHalfMixture(_Symmetric):
    """Equal-weight mixture of one component shifted to +-delta.

    Subclasses provide ``delta`` (a dataclass field) and ``_component``.
    """

    def _pdf(self, x):
        c = self._component
        return 0.5 * (c._pdf(x - self.delta) + c._pdf(x + self.delta))

    def _pdf_deriv(self, x):
        c = self._component
        return 0.5 * (c._pdf_deriv(x - self.delta) + c._pdf_deriv(x + self.delta))

    def _cdf(self, x):
        c = self._component
        return 0.5 * (c._cdf(x - self.delta) + c._cdf(x + self.delta))

    def _isf(self, q):
        return -self._lower_quantile(q)

    def _lower_quantile(self, p):
        """Safeguarded Newton on F - p for p <= 1/2, each point on its own.

        F(x) lies between the component cdfs at x - delta and x + delta, so
        the root lies in [q_c(p) - delta, q_c(p) + delta].  Each step shrinks
        that bracket, and a Newton step that leaves it is replaced by
        bisection.  A point stops once its step is a few ulps or its
        residual is down to the rounding of F.
        """
        qc = self._component._quantile(p)
        lo, hi = qc - self.delta, qc + self.delta
        # F is convex in the lower tail: Newton from above does not overshoot
        x = hi.copy()
        out = np.empty_like(p)
        todo = np.arange(p.size)
        for _ in range(_NEWTON_CAP):
            g = self._cdf(x) - p
            lo = np.where(g < 0.0, x, lo)
            hi = np.where(g > 0.0, x, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - g / self._pdf(x)
            inside = ((newton > lo) & (newton < hi)) | (newton == x)
            nxt = np.where(inside, newton, 0.5 * (lo + hi))
            quiet = np.abs(g) <= _F_NOISE * p
            done = quiet | (np.abs(nxt - x) <= 4.0 * np.spacing(np.abs(x)))
            out[todo[done]] = np.where(quiet, x, nxt)[done]
            keep = ~done
            if not keep.any():
                return out
            todo, p, x, lo, hi = (todo[keep], p[keep], nxt[keep], lo[keep],
                                  hi[keep])
        out[todo] = x
        return out

    def support(self) -> Support:
        return Support(-math.inf, math.inf)


@dataclass(frozen=True)
class NormalMixture(_HalfHalfMixture):
    """0.5 N(-delta, 1) + 0.5 N(delta, 1)."""

    tag = "normmix"
    _positive = ("delta",)
    delta: float

    @cached_property
    def _component(self) -> Normal:
        return Normal(0.0, 1.0)


@dataclass(frozen=True)
class TMixture(_HalfHalfMixture):
    """0.5 t_r(. - delta) + 0.5 t_r(. + delta)."""

    tag = "tmix"
    _positive = ("r", "delta")
    r: float
    delta: float

    @cached_property
    def _component(self) -> StudentT:
        return StudentT(self.r)


# -- spec-string grammar ----------------------------------------------------
#
#   spec    = family [ ":" pair { "," pair } ]
#   pair    = key "=" number
#
# The keys are the family's dataclass fields; a key may be omitted only when
# its field has a default.

_FAMILY_TABLE: dict[str, type[Distribution]] = {
    cls.tag: cls for cls in (StudentT, FDist, Pareto, SphericalPower, Normal,
                             Uniform, NormalMixture, TMixture)}

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def parse_spec(text: str) -> Distribution:
    """Parse a spec string like ``"t:r=1"`` or ``"tmix:r=1,delta=1.475"``.

    Raises ParseError (with the offending position) for grammar errors and
    DomainError (naming the constraint) for parameter-constraint violations.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty spec string", 0)
    text = text.strip()
    colon = text.find(":")
    family = text if colon < 0 else text[:colon]
    if family not in _FAMILY_TABLE:
        raise ParseError(f"unknown family {family!r} "
                         f"(known: {', '.join(sorted(_FAMILY_TABLE))})", 0)
    cls = _FAMILY_TABLE[family]
    keys = [f.name for f in fields(cls)]
    params = {}
    if colon >= 0:
        body = text[colon + 1:]
        if not body:
            raise ParseError("expected key=value after ':'", colon + 1)
        pos = colon + 1
        for chunk in body.split(","):
            eq = chunk.find("=")
            if eq < 0:
                raise ParseError(f"expected key=value, got {chunk!r}", pos)
            key = chunk[:eq].strip()
            if key not in keys:
                raise ParseError(f"unknown key {key!r} for family {family!r} "
                                 f"(expected: {', '.join(keys)})", pos)
            if key in params:
                raise ParseError(f"duplicate key {key!r}", pos)
            value_text = chunk[eq + 1:].strip()
            if not _NUMBER_RE.fullmatch(value_text):
                raise ParseError(f"expected number, got {value_text!r}",
                                 pos + eq + 1)
            params[key] = float(value_text)
            pos += len(chunk) + 1
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in params]
    if missing:
        raise ParseError(f"missing required key(s): {', '.join(missing)}",
                         len(text))
    return cls(**params)
