"""CLI tests: exit codes, schema validity, determinism, output handling."""

import io
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from biscv import StudentT, catalog, cli, fisher, shape
from biscv.envelope import CSV_HEADER
from biscv.shape import cr_right


def run(*argv, env_grid=None, monkeypatch=None):
    if env_grid is not None:
        monkeypatch.setenv("BISCV_GRID_POINTS", env_grid)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    path = resources.files("biscv") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


# fast settings shared by most invocations
FAST = ("--grid-points", "64", "--eps", "1e-6")


# ------------------------------------------------------------------ exit codes

def test_exit_pass_on_passing_check():
    code, out, _ = run("check", "--dist", "t:r=1", "--s", "-0.5",
                       "--method", "all", *FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert len(doc["certificates"]) == 3
    validate(doc, "check")


def test_normal_mixture_at_boundary_passes_all_methods():
    code, out, _ = run("check", "--dist", "normmix:delta=1.34", "--s", "0",
                       "--method", "all")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "check")
    assert [c["verdict"] for c in doc["certificates"]] == ["pass"] * 3


def test_exit_two_on_mathematical_failure():
    code, out, _ = run("check", "--dist", "t:r=1", "--s", "0.5",
                       "--method", "iv", *FAST)
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["certificates"][0]["witness"] is not None
    validate(doc, "check")


@pytest.mark.parametrize("method, condition", [
    ("iv", "deriv_ineq_iv"),
    ("iii", "hazard_mono_iii"),
    ("midpoint", "midpoint_def"),
])
def test_single_method_documents(method, condition):
    code, out, _ = run("check", "--dist", "tmix:r=1,delta=1.48",
                       "--s", "-0.5", "--method", method, *FAST)
    assert code == 2
    doc = json.loads(out)
    validate(doc, "check")
    [cert] = doc["certificates"]
    assert cert["condition"] == condition
    assert cert["witness"] is not None  # iv: point; iii/midpoint: pair


def test_exit_one_on_numerical_error():
    code, out, _ = run("threshold", "--family", "normmix", "--s", "0",
                       "--lo", "0.1", "--hi", "0.2", *FAST)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "BracketError"
    validate(doc, "error")


@pytest.mark.parametrize("spec", ["t:r=1e308", "gpow:r=1e308",
                                  "tmix:r=1e308,delta=1"])
def test_exit_one_when_r_leaves_the_evaluators_range(spec):
    # the normalizing constant holds its digits here, but the t density's
    # derivative overflows and the gpow and tmix quantiles stop increasing
    code, out, err = run("check", "--dist", spec, "--s", "0", *FAST)
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    validate(doc, "error")
    assert doc["error"]["type"] == "DomainError"


@pytest.mark.parametrize("spec, where", [
    ("t:r=1,r=2", "position 6: duplicate key 'r'"),
    # a key with a default is refused like one without
    ("norm:mu=1,mu=2", "position 10: duplicate key 'mu'"),
    ("unif:lo=0,lo=0.5", "position 10: duplicate key 'lo'"),
])
def test_exit_one_on_repeated_key(spec, where):
    code, out, _ = run("catalog", "--dist", spec)
    assert code == 1
    doc = json.loads(out)
    validate(doc, "error")
    assert doc["error"]["type"] == "ParseError"
    assert where in doc["error"]["message"]


def test_exit_one_on_bad_spec_string():
    code, out, _ = run("catalog", "--dist", "pareto:a=0,b=1")
    assert code == 1
    doc = json.loads(out)
    assert "a must be > 0" in doc["error"]["message"]
    validate(doc, "error")


@pytest.mark.parametrize("spec", ["t:r=0.05", "t:r=0.001", "pareto:a=0.01,b=1"])
def test_exit_one_when_the_grid_leaves_double_precision(spec):
    # the tail quantile at eps = 1e-8 is past ~1e152, where f^2 underflows
    code, out, err = run("check", "--dist", spec, "--s", "-0.9",
                         "--method", "iv")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    validate(doc, "error")
    assert doc["error"]["type"] == "DomainError"
    assert "--eps" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("check", "--dist", "t:r=1"),                      # missing --s
    ("check", "--dist", "t:r=1", "--s", "0", "--s-star", "0"),
    ("check", "--dist", "t:r=1", "--s", "0", "--grid-points", "4"),
    ("threshold", "--family", "tmix", "--s", "0",
     "--lo", "1", "--hi", "2"),                        # tmix without --r
    ("gamma", "--dist", "t:r=1", "--s", "0", "--format", "csv"),
    ("check", "--dist", "t:r=1", "--s", "0", "--eps", "0.5"),
    ("check", "--dist", "norm", "--s", "0", "--eps", "1e-300"),  # 1 - eps == 1
    ("check", "--dist", "t:r=1", "--s", "0", "--format", "csv"),
    ("max-s", "--dist", "t:r=1", "--lo", "-0.9", "--hi", "0",
     "--format", "csv"),
    ("threshold", "--family", "normmix", "--s", "0",
     "--lo", "1", "--hi", "2", "--format", "csv"),
    ("fisher", "--dist", "norm", "--s", "0", "--format", "csv"),
    ("catalog", "--dist", "t:r=1", "--format", "csv"),
    ("max-s", "--dist", "t:r=3", "--lo", "-0.5", "--hi", "0",
     "--s", "0"),                                      # max-s takes no --s
    ("max-s", "--dist", "t:r=3", "--lo", "-0.5", "--hi", "0",
     "--search-tol", "1e-3"),                          # closed form: no search
    ("threshold", "--family", "normmix", "--s", "0", "--lo", "1",
     "--hi", "2", "--search", "0.1"),                  # not --search-tol
    ("check", "--dist", "norm", "--s", "0", "--tol", "inf"),
    ("check", "--dist", "norm", "--s", "0", "--tol", "nan"),
    ("check", "--dist", "norm", "--s", "0", "--tol", "-1"),
    ("max-s", "--dist", "norm", "--lo", "-0.9", "--hi", "1", "--tol", "inf"),
])
def test_exit_usage(argv):
    code, _, err = run(*argv)
    assert code == 64
    assert err.strip()
    for option in ("--eps", "--tol"):
        if option in argv:
            assert option in err


# ------------------------------------------------------------------- commands

def test_gamma_document():
    code, out, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "gamma")
    assert doc["report"]["gamma"] == pytest.approx(2.0, abs=1e-3)
    assert doc["report"]["theoretical_cap"] == pytest.approx(2.0)


def test_gamma_s_star_equivalent_to_s():
    _, out_s, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5", *FAST)
    _, out_star, _ = run("gamma", "--dist", "t:r=1", "--s-star", "-1", *FAST)
    assert json.loads(out_s)["report"] == json.loads(out_star)["report"]


def test_max_s_document():
    code, out, _ = run("max-s", "--dist", "pareto:a=2,b=1",
                       "--lo", "-0.6", "--hi", "-0.1", *FAST)
    assert code == 0
    doc = json.loads(out)
    validate(doc, "max_s")
    assert doc["max_s"] == pytest.approx(-1.0 / 3.0, abs=5e-3)
    assert doc["grid"]["count"] == 64
    assert "search_tol" not in doc


@pytest.mark.parametrize("dist, want", [("unif", "inf"), ("norm", None)])
def test_max_s_unbounded_bracket(dist, want):
    code, out, err = run("max-s", "--dist", dist, "--lo", "-0.5",
                         "--hi", "inf", *FAST)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    validate(doc, "max_s")
    assert doc["hi"] == "inf"
    if want is None:
        assert isinstance(doc["max_s"], float)
    else:
        assert doc["max_s"] == want


def test_max_s_wide_bracket_is_exact():
    # a bisection capped at 200 steps returned 3.1e239 here.  The tail
    # index gives -1/(1+r) = -0.25; truncating the grid at eps = 1e-8 lifts
    # the answer to the corridor bound at the last grid point, -0.2499980
    code, out, _ = run("max-s", "--dist", "t:r=3", "--lo", "-0.5",
                       "--hi", "1e300")
    assert code == 0
    d = StudentT(3.0)
    on_grid = -1.0 / float(cr_right(d, d.quantile(1.0 - 1e-8))) - 1.0
    got = json.loads(out)["max_s"]
    assert -0.25 < got == pytest.approx(on_grid, abs=1e-8)


def test_threshold_document():
    code, out, _ = run("threshold", "--family", "normmix", "--s", "0",
                       "--lo", "1.0", "--hi", "2.0", "--grid-points", "512")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "threshold")
    assert 1.3 < doc["delta_threshold"] < 1.4


def test_envelope_csv_bit_exact_header():
    code, out, _ = run("envelope", "--dist", "t:r=1", "--s", "-0.5", *FAST)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 66  # header + 64 rows + trailing newline
    assert len(lines[1].split(",")) == 10


def test_envelope_json_format():
    code, out, _ = run("envelope", "--dist", "gpow:r=1", "--s", "2",
                       "--format", "json", *FAST)
    assert code == 0
    doc = json.loads(out)
    validate(doc, "envelope")
    assert len(doc["rows"]) == 64


@pytest.mark.parametrize("cell, valid", [
    ("-inf", True), ("inf", True), ("nan", False), (None, False)])
def test_envelope_schema_cells(cell, valid):
    code, out, _ = run("envelope", "--dist", "norm", "--s", "0",
                       "--format", "json", *FAST)
    assert code == 0
    doc = json.loads(out)
    doc["rows"][3]["FU_prime"] = cell
    if valid:
        validate(doc, "envelope")
    else:
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "envelope")


EVALUATORS = ("pdf", "pdf_deriv", "cdf", "sf")


def test_no_job_evaluates_the_law_at_a_single_point(monkeypatch):
    # count points per call of each public evaluator, as the benchmark's
    # catalog.eval.points does, and note every call outside make_grid on an
    # array equal to the points of a grid already made
    calls, grids, building, resampled = [], [], [], []
    for name in EVALUATORS:
        def counted(dist, x, _fn=getattr(catalog.Distribution, name)):
            calls.append(int(np.size(x)))
            if not building and any(np.array_equal(x, g) for g in grids):
                resampled.append(int(np.size(x)))
            return _fn(dist, x)
        monkeypatch.setattr(catalog.Distribution, name, counted)
    real_make_grid = shape.make_grid

    def tracked_make_grid(*args, **kwargs):
        building.append(True)
        try:
            grid = real_make_grid(*args, **kwargs)
        finally:
            building.pop()
        grids.append(grid.points)
        return grid
    monkeypatch.setattr(shape, "make_grid", tracked_make_grid)
    monkeypatch.setattr(fisher, "make_grid", tracked_make_grid)
    n = 64
    g = ["--grid-points", str(n)]
    jobs = {
        "check": ["check", "--dist", "normmix:delta=1", "--s", "0", *g],
        "gamma": ["gamma", "--dist", "normmix:delta=3", "--s", "0", *g],
        "max-s": ["max-s", "--dist", "t:r=3", "--lo", "-0.5", "--hi", "0", *g],
        "threshold": ["threshold", "--family", "normmix", "--s", "0",
                      "--lo", "1", "--hi", "2", "--search-tol", "0.1", *g],
        "envelope": ["envelope", "--dist", "t:r=1", "--s", "-0.5", *g],
        "fisher": ["fisher", "--dist", "norm", "--s", "0", *g],
        "catalog": ["catalog", "--dist", "gpow:r=4"],
    }
    points = {}
    for kind, argv in jobs.items():
        del calls[:]
        code, _, err = run(*argv)
        assert code == 0 and err == "", kind
        assert all(k >= 2 for k in calls), (kind, min(calls))
        assert resampled == [], kind
        points[kind] = sum(calls)
    # four fields per grid point, and F and 1-F at each midpoint pair's
    # midpoint (every pair at this n)
    assert points["check"] == 4 * n + 2 * (n * (n - 1) // 2)
    assert points["envelope"] <= 4 * n
    assert points["max-s"] == 4 * n
    assert points["gamma"] > 0


def test_fisher_document():
    code, out, _ = run("fisher", "--dist", "norm", "--s", "0",
                       "--grid-points", "256")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "fisher")
    assert doc["report"]["chain_holds"] is True
    assert doc["report"]["I_f"] == pytest.approx(1.0, abs=1e-6)


def test_fisher_all_infinite_document():
    code, out, _ = run("fisher", "--dist", "gpow:r=2", "--s", "1",
                       "--grid-points", "256")
    assert code == 0  # honest all-infinite report; chain vacuous
    doc = json.loads(out)
    validate(doc, "fisher")
    assert doc["report"]["all_integrals_infinite"] is True
    assert doc["report"]["I_f"] is None
    assert doc["report"]["note"] == "all integrals infinite"


@pytest.mark.parametrize("spec, s, i_f", [("gpow:r=2.2", "0.9", 16.0),
                                          ("gpow:r=2.5", "0.8", 7.0)])
def test_fisher_near_the_divergence(spec, s, i_f):
    code, out, err = run("fisher", "--dist", spec, "--s", s)
    assert code == 0 and err == ""
    doc = json.loads(out)
    validate(doc, "fisher")
    assert doc["report"]["I_f"] == pytest.approx(i_f, rel=1e-8)
    assert doc["report"]["chain_holds"] is True


# s = inf admits only the uniform law, whose Hardy integrals diverge while
# I_f = 0: the fisher chain is broken there (exit 2)
@pytest.mark.parametrize("command, code", [("check", 0), ("gamma", 0),
                                           ("fisher", 2)])
def test_s_inf_is_echoed_as_a_string(command, code):
    for flag in (("--s", "inf"), ("--s-star", "1")):
        got, out, err = run(command, "--dist", "unif", *flag, *FAST)
        assert got == code and err == ""
        doc = json.loads(out)
        validate(doc, command)
        assert doc["config"]["s"] == "inf" and doc["config"]["s_star"] == 1.0
        if command == "fisher":
            assert doc["report"]["s"] == "inf"
            assert doc["report"]["chain_holds"] is False


# s* = 1 - 1/(1+s) rounds to 1 from s ~ 9e15 on: the corridor degenerates to
# f' = 0 there as at s = inf, so the margins stay finite
@pytest.mark.parametrize("dist, code", [("norm", 2), ("unif", 0)])
def test_s_star_rounding_to_one_is_the_flat_corridor(dist, code):
    got, out, err = run("check", "--dist", dist, "--s", "1e300",
                        "--method", "all", *FAST)
    assert got == code and err == ""
    doc = json.loads(out)
    validate(doc, "check")
    assert doc["config"]["s_star"] == 1.0


def test_fisher_refusal_at_huge_s_has_a_finite_margin():
    code, out, err = run("fisher", "--dist", "norm", "--s", "1e300", *FAST)
    assert code == 2 and err == ""
    message = json.loads(out)["error"]["message"]
    margin = float(message.split("margin ")[1].split(")")[0])
    assert math.isfinite(margin) and margin < 0.0


def test_fisher_refusal_exits_two():
    code, out, _ = run("fisher", "--dist", "t:r=1", "--s", "0.5",
                       "--grid-points", "256")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "PreconditionError"


def test_catalog_document():
    code, out, _ = run("catalog", "--dist", "t:r=1")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "catalog")
    assert doc["max_known_s"] == pytest.approx(-0.5)
    assert doc["support"] == {"lo": "-inf", "hi": "inf"}

    _, out, _ = run("catalog", "--dist", "unif")
    doc = json.loads(out)
    validate(doc, "catalog")
    assert doc["max_known_s"] == "inf"

    _, out, _ = run("catalog", "--dist", "normmix:delta=1.3")
    doc = json.loads(out)
    validate(doc, "catalog")
    assert doc["max_known_s"] == "unknown"


# -------------------------------------------------------------- reproducibility

def test_byte_identical_documents():
    argv = ("check", "--dist", "tmix:r=1,delta=1.4", "--s", "-0.5",
            "--method", "all", *FAST)
    _, first, _ = run(*argv)
    _, second, _ = run(*argv)
    assert first == second


def test_config_echoed_in_documents():
    _, out, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5", *FAST)
    cfg = json.loads(out)["config"]
    assert cfg == {"s": -0.5, "s_star": -1.0, "grid_points": 64,
                   "eps": 1e-6, "tol": 1e-9, "format": "json"}


def test_env_var_must_be_integer(monkeypatch):
    code, _, err = run("gamma", "--dist", "t:r=1", "--s", "-0.5",
                       env_grid="many", monkeypatch=monkeypatch)
    assert code == 64
    assert "BISCV_GRID_POINTS" in err


def test_env_var_overrides_default_grid(monkeypatch):
    code, out, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5",
                       env_grid="128", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["config"]["grid_points"] == 128
    # explicit flag beats the environment
    code, out, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5",
                       "--grid-points", "99",
                       env_grid="128", monkeypatch=monkeypatch)
    assert json.loads(out)["config"]["grid_points"] == 99


def test_output_file(tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run("gamma", "--dist", "t:r=1", "--s", "-0.5", *FAST,
                       "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    validate(doc, "gamma")
