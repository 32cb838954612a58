"""Output checks, made apart from the program.

``check_job`` takes a job, the exit code and text it produced (or the
exception it raised) and returns a list of problems; an empty list means
the output is correct.  References come from ``reference`` (closed forms
and mpmath), never from biscv.  JSON documents are validated against the
schemas shipped in ``src/biscv/schemas``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

import reference

EPS = reference.EPS
VALUE_RTOL = 1e-6  # fisher values against references; requested rel_tol 1e-8
_LONG = 16
# values computed as 1 - x (F_U from 1-F, F_L and cdfs near 1, Pareto's F
# near its lower end) cannot resolve differences below a few ulps of 1
ULP1 = 4 * 2.0 ** -52


class Checker:
    """Schema validators and run-wide references, built once per run."""

    def __init__(self, schema_dir: Path):
        self.validators = {}
        for path in schema_dir.glob("*.schema.json"):
            schema = json.loads(path.read_text())
            _require_shrinkable(schema, path.name)
            cls = jsonschema.validators.validator_for(schema)
            self.validators[path.name[:-len(".schema.json")]] = cls(schema)
        self._cache = {}

    def ref(self, name: str, fn):
        if name not in self._cache:
            self._cache[name] = fn()
        return self._cache[name]

    # -- documents -----------------------------------------------------------
    def validate(self, doc, schema: str) -> list[str]:
        """Schema validation, with long number arrays checked in one pass.

        jsonschema spends ~1 us per array item; a 2e5-point grid makes that
        seconds.  Arrays longer than 16 whose items are all finite numbers
        are shortened to 3 items before validation.  That leaves the verdict
        unchanged because ``_require_shrinkable`` admits only schemas whose
        long arrays are plain number lists (``minItems`` at most 3) or lists
        of objects.
        """
        errors = []

        def shrink(node):
            if isinstance(node, dict):
                return {k: shrink(v) for k, v in node.items()}
            if isinstance(node, list):
                if len(node) > _LONG and all(
                        type(v) in (int, float) and math.isfinite(v) for v in node):
                    return node[:3]
                return [shrink(v) for v in node]
            return node

        for err in self.validators[schema].iter_errors(shrink(doc)):
            errors.append(f"schema {schema}: {err.message[:200]}")
        return errors


def _require_shrinkable(node, where: str) -> None:
    """Fail unless every array schema that can hold more than _LONG items
    lists objects, or plain numbers with minItems <= 3, as ``validate``
    assumes."""
    if isinstance(node, dict):
        if node.get("type") == "array" and node.get("maxItems", _LONG + 1) > _LONG:
            items = node.get("items", {})
            if (set(node) - {"type", "items", "minItems"}
                    or node.get("minItems", 0) > 3
                    or items != {"type": "number"} and items.get("type") != "object"):
                raise ValueError(f"{where}: array schema {node} defeats the "
                                 "long-array shortcut")
        for v in node.values():
            _require_shrinkable(v, where)
    elif isinstance(node, list):
        for v in node:
            _require_shrinkable(v, where)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _grid_errors(grid: dict, n: int) -> list[str]:
    pts = grid["points"]
    errors = []
    if grid["count"] != n or len(pts) != n:
        errors.append(f"grid has {len(pts)} points, expected {n}")
    if grid["eps"] != EPS:
        errors.append(f"grid eps {grid['eps']}")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        errors.append("grid points not strictly increasing")
    return errors


# -- per command ---------------------------------------------------------------

def _check_check(job, rc, doc, ck: Checker) -> list[str]:
    errors = []
    certs = doc["certificates"]
    want = "pass" if job.member else "fail"
    if rc != (0 if job.member else 2):
        errors.append(f"exit {rc} for a {'member' if job.member else 'non-member'}")
    if doc["verdict"] != want:
        errors.append(f"verdict {doc['verdict']}, expected {want}")
    if doc["config"]["s"] != job.s:
        errors.append("config does not echo s")
    if len(certs) != 3:
        errors.append(f"{len(certs)} certificates, expected 3")
    for c in certs:
        if c["verdict"] != want:
            errors.append(f"{c['condition']} says {c['verdict']} "
                          f"(margin {c['margin']:.3g}), expected {want}")
        if (c["verdict"] == "pass") != (c["margin"] >= -c["tolerance"]):
            errors.append(f"{c['condition']} verdict disagrees with its margin")
        if c["verdict"] == "pass" and c["witness"] is not None:
            errors.append(f"{c['condition']} passes with a witness")
        if c["verdict"] == "fail":
            pts = c["grid"]["points"]
            w = c["witness"]
            ws = w if isinstance(w, list) else [w]
            if w is None or not all(pts[0] <= v <= pts[-1] for v in ws):
                errors.append(f"{c['condition']} witness {w} off the grid")
        errors += _grid_errors(c["grid"], job.n)
    return errors


def _check_gamma(job, rc, doc, ck: Checker) -> list[str]:
    errors = [] if rc == 0 else [f"exit {rc}"]
    rep = doc["report"]
    g = rep["gamma"]
    cap = 1.0 / (1.0 + job.s)
    if not _close(rep["theoretical_cap"], cap, 1e-12):
        errors.append(f"cap {rep['theoretical_cap']} != 1/(1+s) = {cap}")
    if job.member and g > cap * (1 + 1e-9):
        errors.append(f"gamma {g} above the cap {cap} on a member")
    if rep["gamma_tilde"] < g:
        errors.append("gamma_tilde below gamma")
    if doc["grid"] != {"count": job.n, "eps": EPS}:
        errors.append(f"grid {doc['grid']}")
    if job.family == "unif" and g != 0.0:
        errors.append(f"gamma {g} for a flat density")
    if job.family in ("t", "pareto", "norm"):
        top = reference.gamma_limit(job.family, job.params)
        at_eps = reference.gamma_at_truncation(job.family, job.params)
        if not at_eps * (1 - 1e-6) <= g <= top * (1 + 1e-9):
            errors.append(f"gamma {g} outside [{at_eps}, {top}] "
                          "(value at the truncation, tail limit)")
    return errors


def _check_envelope(job, rc, text: str, ck: Checker) -> list[str]:
    errors = [] if rc == 0 else [f"exit {rc}"]
    lines = text.splitlines()
    if not lines or lines[0] != "x,F,F_L,F_U,f,FL_prime,FU_prime,f_prime,fp_lo,fp_hi":
        return errors + ["bad CSV header"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != job.n:
        return errors + [f"{len(rows)} rows, expected {job.n}"]
    xs = [r[0] for r in rows]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        errors.append("x not strictly increasing")
    for x, F, FL, FU, *_ in rows:
        slack = 1e-12 * abs(F) + ULP1
        if not FL <= F + slack or not F <= FU + slack:
            errors.append(f"sandwich F_L <= F <= F_U broken at x={x}: "
                          f"{FL} {F} {FU}")
            break
    ref = reference.Ref(job.family, job.params)
    for i in (0, job.n // 2, job.n - 1):
        x, F = rows[i][0], rows[i][1]
        p = EPS + i * (1 - 2 * EPS) / (job.n - 1)
        want = float(ref.cdf(x))
        if abs(F - want) > 1e-9 * min(want, 1 - want) + ULP1:
            errors.append(f"F({x}) = {F}, reference {want}")
        if abs(want - p) > 1e-6 * min(p, 1 - p):
            errors.append(f"grid point {i} at F = {want}, expected p = {p}")
    return errors


def _check_max_s(job, rc, doc, ck: Checker) -> list[str]:
    errors = [] if rc == 0 else [f"exit {rc}"]
    v = doc["max_s"]
    limit = reference.max_s(job.family, job.params)
    on_grid = reference.max_s_on_grid(job.family, job.params)
    if not job.extra["lo"] <= v <= job.extra["hi"]:
        errors.append(f"max_s {v} outside the bracket")
    # bisection ends within search_tol/2 of the grid's boundary, which
    # truncation at eps can only move above the tail-index value
    if abs(v - on_grid) > job.extra["search_tol"] or on_grid < limit - 1e-12:
        errors.append(f"max_s {v}, grid reference {on_grid}, "
                      f"tail-index value {limit}")
    errors += _grid_errors(doc["grid"], job.n)
    return errors


def _check_threshold(job, rc, doc, ck: Checker) -> list[str]:
    errors = [] if rc == 0 else [f"exit {rc}"]
    v = doc["delta_threshold"]
    if job.family == "tmix":
        want = reference.TMIX_THRESHOLD
    else:
        want = ck.ref("normmix_threshold", reference.normmix_threshold)
    if not job.extra["lo"] <= v <= job.extra["hi"]:
        errors.append(f"threshold {v} outside the bracket")
    if abs(v - want) > job.extra["search_tol"]:
        errors.append(f"threshold {v}, reference {want}")
    return errors


def _fisher_refs(job, ck: Checker) -> tuple[float, float]:
    """(I_f, Hardy integral) references; Hardy sides agree by symmetry."""
    fam, p = job.family, job.params
    if fam == "gpow" and p["r"] <= 2.0:
        return math.inf, math.inf
    if fam == "norm":  # the Hardy integral scales as 1/sigma^2
        unit = ck.ref("norm_hardy", lambda: reference.hardy(fam, {"mu": 0.0, "sigma": 1.0}))
        return reference.fisher_closed_form(fam, p), unit / p["sigma"] ** 2
    if fam == "normmix":
        return reference.fisher_info(fam, p), reference.hardy(fam, p)
    return reference.fisher_closed_form(fam, p), reference.hardy(fam, p)


def _check_fisher(job, rc, doc, ck: Checker) -> list[str]:
    if "error" in doc:
        return [f"exit {rc}: {doc['error']['message']}"]
    errors = [] if rc == 0 else [f"exit {rc}"]
    rep = doc["report"]
    i_want, h_want = _fisher_refs(job, ck)
    if math.isinf(i_want):
        if not rep["all_integrals_infinite"] or rep["I_f"] is not None \
                or rep["hardy_left"] is not None or rep["hardy_right"] is not None:
            errors.append("divergent integrals reported finite")
        return errors
    i_f, hl, hr = rep["I_f"], rep["hardy_left"], rep["hardy_right"]
    if i_f is None or hl is None or hr is None:
        return errors + [f"finite integrals reported infinite "
                         f"(I_f {i_f}, reference {i_want})"]
    if not _close(i_f, i_want, VALUE_RTOL):
        errors.append(f"I_f {i_f}, reference {i_want}")
    if not _close(hl, hr, VALUE_RTOL):
        errors.append(f"hardy_left {hl} != hardy_right {hr} for a symmetric law")
    if not _close(hl, h_want, VALUE_RTOL):
        errors.append(f"hardy {hl}, reference {h_want}")
    hmax = max(hl, hr)
    lo, hi = hmax / 4.0, 2.0 / (1.0 + job.s) ** 2 * hmax
    if not (_close(rep["chain_lo"], lo, 1e-12) and _close(rep["chain_hi"], hi, 1e-12)):
        errors.append("chain bounds do not follow from the Hardy integrals")
    if not lo <= i_f * (1 + 1e-9) or not i_f <= hi * (1 + 1e-9):
        errors.append(f"chain broken: {lo} <= {i_f} <= {hi}")
    if not rep["chain_holds"] or rep["all_integrals_infinite"]:
        errors.append("chain flags wrong")
    return errors


_SCHEMAS = {"check": "check", "gamma": "gamma", "max-s": "max_s",
            "threshold": "threshold", "fisher": "fisher"}
_JSON_CHECKS = {
    "check": _check_check,
    "gamma": _check_gamma,
    "max-s": _check_max_s,
    "threshold": _check_threshold,
    "fisher": _check_fisher,
}


def check_job(job, rc, text: str, exc: BaseException | None,
              ck: Checker) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    if exc is not None:  # cli.run documents every failure; it never raises
        return [f"raised {type(exc).__name__}: {str(exc)[:200]}"]
    if job.kind == "envelope":
        return _check_envelope(job, rc, text, ck)
    try:
        doc = json.loads(text)
    except ValueError as err:
        return [f"output is not JSON: {err}"]
    errors = ck.validate(doc, "error" if "error" in doc else _SCHEMAS[job.kind])
    try:
        return errors + _JSON_CHECKS[job.kind](job, rc, doc, ck)
    except (KeyError, TypeError) as err:
        return errors + [f"exit {rc}: unexpected document ({err!r}): {text[:200]}"]
