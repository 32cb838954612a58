"""Each output check accepts the program's answer and rejects a wrong one.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from biscv import cli  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
from jobs import Job  # noqa: E402

CK = checks.Checker(HERE.parent / "src" / "biscv" / "schemas")


def run(job: Job):
    buf = io.StringIO()
    try:
        rc = cli.run(job.argv, stdout=buf, stderr=io.StringIO())
    except Exception as exc:  # noqa: BLE001 - the known faults raise
        return None, "", exc
    return rc, buf.getvalue(), None


def problems(job: Job, rc, text: str, exc=None) -> list[str]:
    return checks.check_job(job, rc, text, exc, CK)


def mutated(job: Job, edit) -> list[str]:
    """Problems found after ``edit`` changes the parsed document."""
    rc, text, _ = run(job)
    doc = json.loads(text)
    edit(doc)
    return problems(job, rc, json.dumps(doc))


def _check_job(family, params, s, member=True, n=2000):
    argv = ["check", "--dist", jobs.spec(family, params), "--s", repr(s),
            "--method", "all"]
    if n != 2000:
        argv += ["--grid-points", str(n)]
    return Job("check", family, params, argv, s=s, n=n, member=member)


def _simple(kind, family, params, s):
    return Job(kind, family, params,
               [kind, "--dist", jobs.spec(family, params), "--s", repr(s)], s=s)


T3 = {"r": 3.0}


# -- check ----------------------------------------------------------------------

def test_check_accepts_member_and_nonmember():
    for member, s in ((True, -0.3), (False, 0.0)):
        job = _check_job("t", T3, s, member)
        assert problems(job, *run(job)) == []


def test_check_rejects_wrong_verdicts():
    job = _check_job("t", T3, -0.3)

    def flip(doc):
        doc["certificates"][2]["verdict"] = "fail"
    assert mutated(job, flip)
    rc, text, _ = run(job)
    wrong = _check_job("t", T3, -0.3, member=False)
    assert problems(wrong, rc, text)


def test_check_rejects_schema_violations():
    job = _check_job("t", T3, -0.3)

    def extra(doc):
        doc["surprise"] = 1
    assert any("schema" in p for p in mutated(job, extra))

    def bad_point(doc):
        doc["certificates"][0]["grid"]["points"][500] = "x"
    assert any("schema" in p for p in mutated(job, bad_point))


def test_check_rejects_unordered_grid():
    job = _check_job("t", T3, -0.3)

    def swap(doc):
        pts = doc["certificates"][1]["grid"]["points"]
        pts[10], pts[11] = pts[11], pts[10]
    assert mutated(job, swap)


def test_dense_tmix_fault_is_caught():
    job = jobs.fault_jobs("dense")[0]
    found = problems(job, *run(job))
    assert any("midpoint_def says pass" in p for p in found)


# -- gamma ----------------------------------------------------------------------

@pytest.mark.parametrize("family,params,s", [
    ("t", T3, -0.3), ("norm", {"mu": 0.5, "sigma": 2.0}, -0.1),
    ("pareto", {"a": 2.0, "b": 1.0}, -0.5), ("unif", {"lo": 0.0, "hi": 1.0}, 1.0)])
def test_gamma_accepts_and_rejects(family, params, s):
    job = _simple("gamma", family, params, s)
    assert problems(job, *run(job)) == []

    def high(doc):
        doc["report"]["gamma"] = doc["report"]["gamma"] * 1.001 + 1e-3
    assert mutated(job, high)


def test_gamma_rejects_value_below_truncation():
    job = _simple("gamma", "t", T3, -0.3)

    def low(doc):
        doc["report"]["gamma"] *= 0.999
    assert mutated(job, low)


def test_gamma_rejects_value_above_cap():
    job = _simple("gamma", "gpow", {"r": 4.0}, 0.4)

    def above(doc):
        doc["report"]["gamma"] = 1 / 1.4 + 1e-3
        doc["report"]["gamma_tilde"] = 1.0
    assert mutated(job, above)


def test_unif_s_inf_fault_is_caught():
    for job in jobs.fault_jobs("certify"):
        rc, text, exc = run(job)
        assert exc is not None
        assert problems(job, rc, text, exc)


# -- envelope ---------------------------------------------------------------------

def _csv_edit(text: str, row: int, col: int, value: float) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(value)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_envelope_accepts_and_rejects():
    job = _simple("envelope", "tmix", {"r": 1.0, "delta": 0.4}, -0.55)
    rc, text, _ = run(job)
    assert problems(job, rc, text) == []
    f_row = [float(v) for v in text.splitlines()[1001].split(",")]
    # F_L above F
    assert problems(job, rc, _csv_edit(text, 1000, 2, f_row[1] * 1.01))
    # F_U below F
    assert problems(job, rc, _csv_edit(text, 1000, 3, f_row[1] * 0.99))
    # F off the reference cdf at the first grid point
    first = float(text.splitlines()[1].split(",")[1])
    assert problems(job, rc, _csv_edit(text, 0, 1, first * 1.001))
    # a row missing
    assert problems(job, rc, "\n".join(text.splitlines()[:-1]) + "\n")


# -- max-s and threshold ----------------------------------------------------------

@pytest.mark.parametrize("family,params", [
    ("t", {"r": 4.0}), ("pareto", {"a": 1.5, "b": 1.0}),
    ("fdist", {"a": 4.0, "b": 5.0}), ("gpow", {"r": 5.0})])
def test_max_s_accepts_and_rejects(family, params):
    b = jobs.boundary(family, params)
    lo, hi = b - 0.2 * (1 + b), b + 0.2
    job = Job("max-s", family, params,
              ["max-s", "--dist", jobs.spec(family, params), "--lo", repr(lo),
               "--hi", repr(hi)], extra={"lo": lo, "hi": hi, "search_tol": 1e-3})
    assert problems(job, *run(job)) == []

    def shift(doc):
        doc["max_s"] += 0.01
    assert mutated(job, shift)


@pytest.mark.parametrize("family", ["tmix", "normmix"])
def test_threshold_accepts_and_rejects(family):
    job = jobs._threshold(random.Random(5), family)
    assert problems(job, *run(job)) == []

    def shift(doc):
        doc["delta_threshold"] += 0.005
    assert mutated(job, shift)


# -- fisher -----------------------------------------------------------------------

FINITE = [("norm", {"mu": 0.3, "sigma": 1.7}, -0.1), ("t", {"r": 4.0}, -0.3),
          ("gpow", {"r": 5.0}, 0.2), ("normmix", {"delta": 0.8}, -0.1)]


@pytest.mark.parametrize("family,params,s", FINITE)
def test_fisher_accepts_and_rejects(family, params, s):
    job = _simple("fisher", family, params, s)
    assert problems(job, *run(job)) == []

    def off_i(doc):
        doc["report"]["I_f"] *= 1 + 1e-4
    assert mutated(job, off_i)

    def off_h(doc):
        doc["report"]["hardy_left"] *= 1 + 1e-4
    assert mutated(job, off_h)

    def off_both_h(doc):
        rep = doc["report"]
        rep["hardy_left"] = rep["hardy_right"] = rep["hardy_left"] * (1 + 1e-4)
        rep["chain_lo"] = rep["hardy_left"] / 4
        rep["chain_hi"] = 2 / (1 + s) ** 2 * rep["hardy_left"]
    assert mutated(job, off_both_h)

    def off_chain(doc):
        doc["report"]["chain_hi"] = doc["report"]["I_f"] * 0.9
    assert mutated(job, off_chain)


def test_fisher_divergent_accepts_and_rejects():
    job = _simple("fisher", "gpow", {"r": 1.7}, 1.0)
    assert problems(job, *run(job)) == []

    def finite(doc):
        doc["report"]["I_f"] = 3.0
    assert mutated(job, finite)


def test_fisher_faults_are_caught():
    found = [problems(job, *run(job)) for job in jobs.fault_jobs("fisher")]
    assert any("reported infinite" in p for p in found[0])
    assert any("exit 1" in p for p in found[1])


# -- workloads --------------------------------------------------------------------

def test_validation_shortcut_agrees_with_full_validation():
    job = _check_job("norm", {"mu": 0.0, "sigma": 1.0}, 0.0)
    doc = json.loads(run(job)[1])
    full = [e.message for e in CK.validators["check"].iter_errors(doc)]
    assert full == [] and CK.validate(doc, "check") == []
    doc["certificates"][0]["grid"]["points"][7] = None
    full = list(CK.validators["check"].iter_errors(doc))
    assert full and CK.validate(doc, "check")


@pytest.mark.parametrize("workload", sorted(jobs.ROUNDS))
def test_rounds_have_a_fixed_fault_share(workload):
    shares = set()
    for seed in (1, 2):
        stream = jobs.rounds(workload, seed)
        for _ in range(2):
            batch = next(stream)
            shares.add((len(batch), sum(j.fault is not None for j in batch)))
    assert len(shares) == 1
    faults = [j.argv for j in jobs.fault_jobs(workload)]
    assert faults == [j.argv for j in jobs.fault_jobs(workload)]
    assert not any(math.isnan(j.s) for j in jobs.fault_jobs(workload))


def test_small_negative_option_values_parse():
    # argparse reads a separate "-9.1322e-05" as an option name
    argv = ["max-s", "--dist", "pareto:a=2.76637,b=2.00867",
            jobs._opt("--lo", -0.324356), jobs._opt("--hi", -9.1322e-05)]
    args = cli._build_parser().parse_args(argv)
    assert (args.lo, args.hi) == (-0.324356, -9.1322e-05)


@pytest.mark.parametrize("workload", sorted(jobs.ROUNDS))
def test_generated_argv_parse(workload):
    parser = cli._build_parser()
    for seed in range(20):
        for job in next(jobs.rounds(workload, seed)):
            if job.fault is None:
                parser.parse_args(job.argv)


def test_metric_names_match_benchmark_json():
    import run
    import tracing
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(jobs.ROUNDS) == sorted(run.WARMUPS)
