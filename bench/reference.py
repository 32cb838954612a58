"""Reference values computed with mpmath, without calling biscv.

Closed forms come from the tail indices of each family.  Where a value needs
numerics (the normal-mixture threshold, Hardy integrals, the mixture's
Fisher information, deep-tail quantiles) it is computed here anew with
mpmath: at 20 significant digits, or in mpmath's double-precision context
for the integrals and the threshold, which the checks compare at 1e-6 and
1e-3.

    python3 bench/reference.py          # print the run-independent references
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 20
EPS = 1e-8


class Ref:
    """pdf, pdf', cdf and sf of one family member, in an mpmath context."""

    def __init__(self, family: str, p: dict, ctx=mpmath.mp):
        self.family = family
        self.m = m = ctx
        self.p = q = {k: m.mpf(v) for k, v in p.items()}
        if family in ("t", "tmix"):
            r = q["r"]
            self._c = m.gamma((r + 1) / 2) / (m.sqrt(m.pi * r) * m.gamma(r / 2))
        elif family == "fdist":
            a, b = q["a"], q["b"]
            self._c = a ** (a / 2) * b ** (b / 2) / m.beta(a / 2, b / 2)
        elif family == "gpow":
            r = q["r"]
            self._c = m.gamma((3 + r) / 2) / (m.sqrt(m.pi * r) * m.gamma(1 + r / 2))

    def _t_pdf(self, x):
        r = self.p["r"]
        return self._c * (1 + x * x / r) ** (-(r + 1) / 2)

    def _t_pdf_deriv(self, x):
        r = self.p["r"]
        return -(r + 1) * x / (r + x * x) * self._t_pdf(x)

    def _t_cdf(self, x):
        r = self.p["r"]
        half = self.m.betainc(r / 2, 0.5, 0, r / (r + x * x), regularized=True) / 2
        return half if x <= 0 else 1 - half

    def support(self):
        m, q, fam = self.m, self.p, self.family
        if fam == "fdist":
            return m.mpf(0), m.inf
        if fam == "pareto":
            return q["b"], m.inf
        if fam == "gpow":
            return -m.sqrt(q["r"]), m.sqrt(q["r"])
        if fam == "unif":
            return q["lo"], q["hi"]
        return -m.inf, m.inf

    def pdf(self, x):
        m, q, fam = self.m, self.p, self.family
        if fam == "t":
            return self._t_pdf(x)
        if fam == "tmix":
            return (self._t_pdf(x - q["delta"]) + self._t_pdf(x + q["delta"])) / 2
        if fam == "norm":
            return m.npdf(x, q["mu"], q["sigma"])
        if fam == "normmix":
            return (m.npdf(x - q["delta"]) + m.npdf(x + q["delta"])) / 2
        if fam == "fdist":
            a, b = q["a"], q["b"]
            return self._c * x ** (b / 2 - 1) * (a + b * x) ** (-(a + b) / 2)
        if fam == "pareto":
            a, b = q["a"], q["b"]
            return a / b * (x / b) ** (-(a + 1))
        if fam == "gpow":
            r = q["r"]
            return self._c * (1 - x * x / r) ** (r / 2)
        if fam == "unif":
            return 1 / (q["hi"] - q["lo"])
        raise ValueError(fam)

    def pdf_deriv(self, x):
        m, q, fam = self.m, self.p, self.family
        if fam == "t":
            return self._t_pdf_deriv(x)
        if fam == "tmix":
            d = q["delta"]
            return (self._t_pdf_deriv(x - d) + self._t_pdf_deriv(x + d)) / 2
        if fam == "norm":
            return -(x - q["mu"]) / q["sigma"] ** 2 * self.pdf(x)
        if fam == "normmix":
            d = q["delta"]
            return -((x - d) * m.npdf(x - d) + (x + d) * m.npdf(x + d)) / 2
        if fam == "fdist":
            a, b = q["a"], q["b"]
            return self.pdf(x) * ((b / 2 - 1) / x - b * (a + b) / 2 / (a + b * x))
        if fam == "pareto":
            return -(q["a"] + 1) / x * self.pdf(x)
        if fam == "gpow":
            r = q["r"]
            return -x * self._c * (1 - x * x / r) ** (r / 2 - 1)
        if fam == "unif":
            return m.mpf(0)
        raise ValueError(fam)

    def cdf(self, x):
        m, q, fam = self.m, self.p, self.family
        if fam == "t":
            return self._t_cdf(x)
        if fam == "tmix":
            return (self._t_cdf(x - q["delta"]) + self._t_cdf(x + q["delta"])) / 2
        if fam == "norm":
            return m.ncdf(x, q["mu"], q["sigma"])
        if fam == "normmix":
            return (m.ncdf(x - q["delta"]) + m.ncdf(x + q["delta"])) / 2
        if fam == "fdist":
            a, b = q["a"], q["b"]
            return m.betainc(b / 2, a / 2, 0, b * x / (a + b * x), regularized=True)
        if fam == "pareto":
            return 1 - (x / q["b"]) ** (-q["a"])
        if fam == "gpow":
            r = q["r"]
            u = (x / m.sqrt(r) + 1) / 2
            return m.betainc(r / 2 + 1, r / 2 + 1, 0, u, regularized=True)
        if fam == "unif":
            return (x - q["lo"]) / (q["hi"] - q["lo"])
        raise ValueError(fam)

    def sf(self, x):
        m, q, fam = self.m, self.p, self.family
        if fam in ("t", "tmix", "normmix", "gpow"):
            return self.cdf(-x)
        if fam == "norm":
            return self.cdf(2 * q["mu"] - x)
        if fam == "fdist":
            a, b = q["a"], q["b"]
            return m.betainc(a / 2, b / 2, 0, a / (a + b * x), regularized=True)
        if fam == "pareto":
            return (x / q["b"]) ** (-q["a"])
        if fam == "unif":
            return (q["hi"] - x) / (q["hi"] - q["lo"])
        raise ValueError(fam)

    # -- derived quantities ----------------------------------------------------
    def quantile(self, prob):
        """x with F(x) = prob, by bisection (on the sf side above 1/2)."""
        m = self.m
        prob = m.mpf(prob)
        right = prob > 0.5
        target = 1 - prob if right else prob
        side = self.sf if right else self.cdf
        lo, hi = self.support()
        step = self.p.get("sigma", m.mpf(1))
        if m.isinf(lo):
            lo = min(hi, m.mpf(0)) - step
            while self.cdf(lo) > prob:
                lo = 2 * lo
        if m.isinf(hi):
            hi = max(lo, m.mpf(0)) + step
            while self.cdf(hi) < prob:
                hi = 2 * hi
        for _ in range(90):
            mid = (lo + hi) / 2
            if (side(mid) > target) != right:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    def abs_cr(self, x):
        """|F (1-F) f'/f^2| at x."""
        f = self.pdf(x)
        return abs(self.cdf(x) * self.sf(x) * self.pdf_deriv(x) / (f * f))

    def hardy_left(self):
        """int f^3 / F^2 over the support."""
        m, q = self.m, self.p
        if self.family == "gpow":
            # x = sqrt(r) (2v - 1) keeps the nodes strictly inside the support
            r = q["r"]
            a = r / 2 + 1

            def g(v):
                f = self._c * (4 * v * (1 - v)) ** (r / 2)
                F = m.betainc(a, a, 0, v, regularized=True)
                return f ** 3 / F ** 2 * 2 * m.sqrt(r)
            return m.quad(g, [0, 0.5, 1])
        c, w = q.get("mu", 0), q.get("sigma", 1)
        return m.quad(lambda x: _ratio(self.pdf(x) ** 3, self.cdf(x) ** 2),
                      [-m.inf] + [c + w * k for k in (-10, -1, 0, 1, 10)] + [m.inf])

    def fisher_info(self):
        """int f'^2 / f over the real line."""
        m = self.m
        return m.quad(lambda x: _ratio(self.pdf_deriv(x) ** 2, self.pdf(x)),
                      [-m.inf, -1, 0, 1, m.inf])


def _ratio(num, den):
    """num/den, taken as 0 where both underflow far out in a tail (in double
    precision), where the integrands above are below 1e-300."""
    return num / den if den else num * 0


# -- closed forms ----------------------------------------------------------------

def max_s(family: str, p: dict) -> float:
    """Largest s at which F is bi-s*-concave, from the tail index."""
    if family == "t":
        return -1.0 / (1.0 + p["r"])
    if family == "pareto":
        return -1.0 / (1.0 + p["a"])
    if family == "fdist":
        return -1.0 / (1.0 + p["a"] / 2.0)
    if family == "gpow":
        return 2.0 / p["r"]
    raise ValueError(family)


def max_s_on_grid(family: str, p: dict, eps: float = EPS) -> float:
    """Largest s whose corridor holds at the binding end of the grid.

    Condition iv binds in a tail: at the last grid point through
    (1-F) f'/f^2 >= -1/(1+s) for the heavy-tailed families, at the first
    through F f'/f^2 <= 1/(1+s) for gpow.  Truncating at eps keeps the
    tail functional below its limit, so this value sits at or above the
    tail-index value ``max_s``.
    """
    ref = Ref(family, p)
    if family == "gpow":
        x = ref.quantile(eps)
        c = ref.cdf(x) * ref.pdf_deriv(x) / ref.pdf(x) ** 2
    else:
        x = ref.quantile(1 - eps)
        c = -ref.sf(x) * ref.pdf_deriv(x) / ref.pdf(x) ** 2
    return float(1 / c - 1)


def gamma_limit(family: str, p: dict) -> float:
    """sup |CR| as the truncation eps goes to 0."""
    if family == "t":
        return (p["r"] + 1.0) / p["r"]
    if family == "pareto":
        return (p["a"] + 1.0) / p["a"]
    if family == "norm":
        return 1.0
    raise ValueError(family)


def gamma_at_truncation(family: str, p: dict, eps: float = EPS) -> float:
    """|CR| at the first grid point, where the grid-refined gamma sits
    (the last one for Pareto, whose CR = -F (a+1)/a grows with F)."""
    ref = Ref(family, p)
    return float(ref.abs_cr(ref.quantile(1 - eps if family == "pareto" else eps)))


def fisher_closed_form(family: str, p: dict) -> float:
    """I_f for the normal, t_r and the spherical-power family."""
    if family == "norm":
        return 1.0 / p["sigma"] ** 2
    if family == "t":
        return (p["r"] + 1.0) / (p["r"] + 3.0)
    if family == "gpow":
        return (p["r"] + 1.0) / (p["r"] - 2.0) if p["r"] > 2.0 else math.inf
    raise ValueError(family)


def hardy(family: str, p: dict) -> float:
    """Hardy integral int (f/F)^2 dF; both sides agree for these laws."""
    return float(Ref(family, p, mpmath.fp).hardy_left())


def fisher_info(family: str, p: dict) -> float:
    return float(Ref(family, p, mpmath.fp).fisher_info())


TMIX_THRESHOLD = 1.0 / math.sqrt(3.0)  # tmix r = 1 at s = -1/2


def normmix_threshold() -> float:
    """Separation at which the normal mixture stops being bi-log-concave.

    At s = 0 condition iv reads F f'/f^2 <= 1 (and its mirror).  Its tail
    limit is 1, approached from below; the central bump reaches 1 at the
    threshold.  Bisect on delta; for each delta maximise over the centre.
    """
    m = mpmath.fp  # double precision is ample for a 1e-3 comparison

    def bump(delta):
        ref = Ref("normmix", {"delta": delta}, m)

        def crl(x):
            f = ref.pdf(x)
            return ref.cdf(x) * ref.pdf_deriv(x) / (f * f)

        xs = [-delta - 2 + k * (delta + 3) / 100 for k in range(101)]
        i = max(range(len(xs)), key=lambda k: crl(xs[k]))
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 100)]
        g = (m.sqrt(5) - 1) / 2
        for _ in range(45):
            m1, m2 = b - g * (b - a), a + g * (b - a)
            if crl(m1) >= crl(m2):
                b = m2
            else:
                a = m1
        return crl((a + b) / 2)

    lo, hi = 1.0, 2.0
    for _ in range(34):
        mid = (lo + hi) / 2
        if bump(mid) <= 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


if __name__ == "__main__":
    print(f"tmix r=1 threshold at s=-1/2: {TMIX_THRESHOLD:.12f}")
    print(f"normmix threshold at s=0:     {normmix_threshold():.12f}")
    print(f"standard normal Hardy:        {hardy('norm', {'mu': 0.0, 'sigma': 1.0}):.12f}")
    print(f"normal gamma at eps=1e-8:     "
          f"{gamma_at_truncation('norm', {'mu': 0.0, 'sigma': 1.0}):.12f}")
