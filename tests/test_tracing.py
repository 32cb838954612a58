"""The benchmark drives biscv from outside: its set-up runs warm-up argv,
and its trace mode wraps library names.  These guard that every warm-up
runs cleanly and that every wrapped name still exists and is put back."""

import ast
import io
from pathlib import Path

import pytest

from biscv import catalog, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_trace_install_runs_jobs_and_restores(tracing):
    before = [getattr(owner, attr) for owner, attr, _ in tracing.SPANS]
    methods = dict(cli._METHODS)
    evaluators = [getattr(catalog.Distribution, a) for a in tracing.EVALUATORS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fast = ["--grid-points", "64", "--eps", "1e-6"]
        code = tracer.run_job(0, cli.run, ["max-s", "--dist", "t:r=3",
                                           "--lo", "-0.5", "--hi", "0", *fast],
                              io.StringIO(), io.StringIO())
        assert code == 0
        assert tracer.counts["numerics.bisect_boundary.steps"] == 0
        code = tracer.run_job(1, cli.run, ["threshold", "--family", "normmix",
                                           "--s", "0", "--lo", "1", "--hi", "2",
                                           "--search-tol", "0.1", *fast],
                              io.StringIO(), io.StringIO())
        assert code == 0
        assert tracer.counts["numerics.bisect_boundary.steps"] > 0
    finally:
        tracer.uninstall()
    after = [getattr(owner, attr) for owner, attr, _ in tracing.SPANS]
    assert all(a is b for a, b in zip(after, before))
    assert cli._METHODS == methods
    assert all(getattr(catalog.Distribution, a) is f
               for a, f in zip(tracing.EVALUATORS, evaluators))


def _warmups() -> dict:
    # read as data: importing run.py would change this process's environment
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WARMUPS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no WARMUPS")


@pytest.mark.parametrize("argv", [a for argvs in _warmups().values()
                                  for a in argvs])
def test_benchmark_warmups_run_cleanly(argv):
    err = io.StringIO()
    assert cli.run(argv, io.StringIO(), err) == 0
    assert err.getvalue() == ""
