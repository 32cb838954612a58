"""Job generators for the three benchmark workloads.

A job is one ``biscv.cli.run`` call.  Its argv is drawn from the workload
seed; the program sees nothing else.  Each workload is built from rounds of
a fixed make-up (the same kinds of job, the same known-fault jobs, in the
same numbers), so the share of failed operations is the same in every run
whatever the seed.  Continuous parameters are drawn per job, so no two jobs
of a run share a grid.

Every job carries what the checks need: the family, its parameters as the
program parsed them, ``s``, the grid size and, for the known-fault jobs,
the name of the fault.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference

FAMILIES = ("t", "fdist", "pareto", "gpow", "norm", "unif", "normmix", "tmix")
DEFAULT_N = 2000


@dataclass
class Job:
    kind: str  # the subcommand
    family: str | None
    params: dict
    argv: list[str]
    s: float | None = None
    n: int = DEFAULT_N
    member: bool = True  # s is at most the family's boundary
    extra: dict = field(default_factory=dict)
    fault: str | None = None  # known-fault name; the job is expected to fail


def _num(x: float) -> float:
    """Round to 6 significant digits, as written on the command line."""
    return float("%.6g" % x)


def _fmt(x: float) -> str:
    return "%.6g" % x


def _opt(name: str, x: float) -> str:
    """``--name=value``: argparse would take a separate ``-9.1e-05`` for an
    option, since it reads only plain decimals as negative numbers."""
    return f"{name}={_fmt(x)}"


def spec(family: str, params: dict) -> str:
    if not params:
        return family
    return family + ":" + ",".join(f"{k}={_fmt(v)}" for k, v in params.items())


def boundary(family: str, p: dict) -> float:
    """Largest s at which F is bi-s*-concave, from the tail indices.

    ``normmix`` (delta <= 1, a log-concave density) is certified at s = 0
    and ``tmix`` (r = 1, delta <= 1/sqrt(3)) at s = -1/2; both fail above
    those values in their normal-like or Cauchy-like tails.
    """
    if family in ("t", "fdist", "pareto", "gpow"):
        return reference.max_s(family, p)
    if family in ("norm", "normmix"):
        return 0.0
    if family == "unif":
        return math.inf
    if family == "tmix":
        return -0.5
    raise ValueError(family)


def draw_params(rng: random.Random, family: str) -> dict:
    u = rng.uniform
    if family == "t":
        return {"r": _num(u(1.5, 8.0))}
    if family == "fdist":
        return {"a": _num(u(2.0, 8.0)), "b": _num(u(2.0, 8.0))}
    if family == "pareto":
        return {"a": _num(u(0.5, 4.0)), "b": _num(u(0.5, 3.0))}
    if family == "gpow":
        return {"r": _num(u(2.0, 8.0))}
    if family == "norm":
        return {"mu": _num(u(-2.0, 2.0)), "sigma": _num(u(0.5, 3.0))}
    if family == "unif":
        lo = _num(u(-1.0, 0.0))
        return {"lo": lo, "hi": _num(lo + u(0.5, 3.0))}
    if family == "normmix":
        return {"delta": _num(u(0.2, 1.0))}
    if family == "tmix":
        return {"r": 1.0, "delta": _num(u(0.1, 0.55))}
    raise ValueError(family)


def member_s(rng: random.Random, family: str, p: dict) -> float:
    """An s at or below the boundary, kept inside (-1, inf)."""
    b = boundary(family, p)
    if math.isinf(b):
        return _num(rng.uniform(-0.5, 3.0))
    return _num(b - rng.uniform(0.02, 0.3) * (1.0 + b))


def nonmember_s(rng: random.Random, family: str, p: dict) -> float:
    """An s far enough above the boundary that a 2000-point grid at eps
    1e-8 resolves the violation: the tail functional at the last grid
    point already exceeds the corridor 1/(1+s)."""
    b = boundary(family, p)
    if family in ("norm", "normmix"):
        return _num(rng.uniform(0.15, 0.4))
    return _num(b + rng.uniform(0.1, 0.3))


def _argv(kind: str, family: str, p: dict, s: float, *rest: str) -> list[str]:
    return [kind, "--dist", spec(family, p), _opt("--s", s), *rest]


def _check(rng, family, n=DEFAULT_N, member=True) -> Job:
    p = draw_params(rng, family)
    s = member_s(rng, family, p) if member else nonmember_s(rng, family, p)
    rest = ["--method", "all"]
    if n != DEFAULT_N:
        rest += ["--grid-points", str(n)]
    return Job("check", family, p, _argv("check", family, p, s, *rest),
               s=s, n=n, member=member)


def _gamma(rng, family, n=DEFAULT_N) -> Job:
    p = draw_params(rng, family)
    s = member_s(rng, family, p)
    rest = [] if n == DEFAULT_N else ["--grid-points", str(n)]
    return Job("gamma", family, p, _argv("gamma", family, p, s, *rest),
               s=s, n=n)


def _envelope(rng, family) -> Job:
    p = draw_params(rng, family)
    s = member_s(rng, family, p)
    return Job("envelope", family, p, _argv("envelope", family, p, s), s=s)


MAX_S_FAMILIES = ("t", "fdist", "pareto", "gpow")


# Bracket widths stay inside (256, 512) x search_tol, so every bisection
# makes the same number of steps whatever the seed.
_WIDTH = (0.3, 0.5)


def _max_s(rng, family) -> Job:
    p = draw_params(rng, family)
    b = boundary(family, p)
    lo = _num(b - rng.uniform(0.05, 0.12) * (1.0 + b))
    hi = _num(lo + rng.uniform(*_WIDTH))
    argv = ["max-s", "--dist", spec(family, p), _opt("--lo", lo),
            _opt("--hi", hi)]
    return Job("max-s", family, p, argv, extra={"lo": lo, "hi": hi,
                                                "search_tol": 1e-3})


def _threshold(rng, family) -> Job:
    if family == "tmix":
        lo = _num(rng.uniform(0.3, 0.5))
        argv = ["threshold", "--family", "tmix", "--r", "1", "--s", "-0.5"]
        s = -0.5
    else:
        lo = _num(rng.uniform(1.1, 1.3))
        argv = ["threshold", "--family", "normmix", "--s", "0"]
        s = 0.0
    hi = _num(lo + rng.uniform(*_WIDTH))
    argv += [_opt("--lo", lo), _opt("--hi", hi)]
    return Job("threshold", family, {}, argv, s=s,
               extra={"lo": lo, "hi": hi, "search_tol": 1e-3})


# -- known-fault jobs: fixed argv, independent of the seed -------------------

def fault_jobs(workload: str) -> list[Job]:
    if workload == "certify":
        p = {"lo": 0.0, "hi": 1.0}
        return [
            Job("check", "unif", p, ["check", "--dist", "unif", "--s", "inf",
                                     "--method", "all"], s=math.inf,
                fault="unif-s-inf"),
            Job("gamma", "unif", p, ["gamma", "--dist", "unif", "--s", "inf"],
                s=math.inf, fault="unif-s-inf"),
        ]
    if workload == "dense":
        p = {"r": 1.0, "delta": 0.7}
        return [Job("check", "tmix", p,
                    ["check", "--dist", "tmix:r=1,delta=0.7", "--s", "-0.5",
                     "--method", "all", "--grid-points", "20000"],
                    s=-0.5, n=20000, member=False,
                    fault="tmix-midpoint-dense")]
    if workload == "fisher":
        return [
            Job("fisher", "gpow", {"r": 2.2},
                ["fisher", "--dist", "gpow:r=2.2", "--s", "0.9"], s=0.9,
                fault="gpow-endpoint-singularity"),
            Job("fisher", "gpow", {"r": 2.5},
                ["fisher", "--dist", "gpow:r=2.5", "--s", "0.8"], s=0.8,
                fault="gpow-endpoint-singularity"),
        ]
    raise ValueError(workload)


# -- rounds ------------------------------------------------------------------

# The make-up of each round places the percentiles inside one kind of job
# rather than on the edge between two (see README), and it is the same in
# every round, so the number of rounds a run makes does not shift them.

def certify_round(rng: random.Random, k: int) -> list[Job]:
    # seven tmix thresholds, the slowest kind, fill the top fifth of the
    # successful jobs; four of the seven non-uniform checks are non-members
    nonmembers = set(rng.sample([f for f in FAMILIES if f != "unif"], 4))
    jobs = []
    for fam in FAMILIES:
        jobs.append(_check(rng, fam, member=fam not in nonmembers))
        jobs.append(_gamma(rng, fam))
        jobs.append(_envelope(rng, fam))
    for fam in MAX_S_FAMILIES:
        jobs.append(_max_s(rng, fam))
    for fam in ("tmix",) * 7 + ("normmix",):
        jobs.append(_threshold(rng, fam))
    return jobs + fault_jobs("certify")


def dense_round(rng: random.Random, k: int) -> list[Job]:
    # normal and mixture grids are cheap enough for 100 jobs in a run; the
    # two 2e5 jobs stay under the top tenth of them
    big = ("norm", "normmix")[k % 2]
    jobs = [_check(rng, big, n=200000), _gamma(rng, big, n=200000)]
    for fam in ("norm", "normmix"):
        jobs += [_check(rng, fam, n=20000) for _ in range(12)]
        jobs += [_gamma(rng, fam, n=20000) for _ in range(5)]
    return jobs + fault_jobs("dense")


def _fisher(rng, family, p) -> Job:
    s = member_s(rng, family, p)
    return Job("fisher", family, p,
               ["fisher", "--dist", spec(family, p), _opt("--s", s)], s=s)


def fisher_round(rng: random.Random, k: int) -> list[Job]:
    # the t jobs fill the middle of the samples and the finite gpow jobs
    # the band below the divergent one, which holds the top twenty-second
    u = rng.uniform
    jobs = []
    for _ in range(3):
        jobs.append(_fisher(rng, "norm", draw_params(rng, "norm")))
        jobs.append(_fisher(rng, "normmix", draw_params(rng, "normmix")))
    for _ in range(10):
        jobs.append(_fisher(rng, "t", {"r": _num(u(1.5, 10.0))}))
    for _ in range(5):
        jobs.append(_fisher(rng, "gpow", {"r": _num(u(3.5, 9.0))}))
    jobs.append(_fisher(rng, "gpow", {"r": _num(u(1.5, 2.0))}))
    return jobs + fault_jobs("fisher")


ROUNDS = {"certify": certify_round, "dense": dense_round,
          "fisher": fisher_round}


def rounds(workload: str, seed: int):
    """Endless stream of rounds for ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    k = 0
    while True:
        jobs = ROUNDS[workload](rng, k)
        rng.shuffle(jobs)
        yield jobs
        k += 1
