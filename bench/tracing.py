"""Spans and counts around biscv's layer boundaries, from outside biscv.

``Tracer.install()`` wraps the public functions of each module, and every
name another module imported directly, so that nothing inside ``src/biscv``
changes.  Spans (name, start, end, parent span, job id) are kept in memory
and written out when the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from biscv import catalog, cli, envelope, fisher, numerics, shape
from biscv.errors import QuadratureError

# (owner, attribute, span name); an owner that imported the name directly
# is listed beside the module that defines it
SPANS = [
    (catalog.Distribution, "quantile", "catalog.quantile"),
    (shape, "make_grid", "shape.make_grid"),
    (fisher, "make_grid", "shape.make_grid"),
    (shape, "check_condition_iv", "shape.check_condition_iv"),
    (fisher, "check_condition_iv", "shape.check_condition_iv"),
    (shape, "check_condition_iii", "shape.check_condition_iii"),
    (shape, "check_midpoint", "shape.check_midpoint"),
    (shape, "cr_report", "shape.cr_report"),
    (numerics, "maximize_scalar", "numerics.maximize_scalar"),
    (shape, "maximize_scalar", "numerics.maximize_scalar"),
    (numerics, "bisect_boundary", "numerics.bisect_boundary"),
    (shape, "bisect_boundary", "numerics.bisect_boundary"),
    (envelope, "emit_envelope_table", "envelope.emit_envelope_table"),
    (envelope, "write_envelope_csv", "envelope.write_envelope_csv"),
    (numerics, "integrate_adaptive", "numerics.integrate_adaptive"),
    (fisher, "integrate_adaptive", "numerics.integrate_adaptive"),
    (fisher, "fisher_info", "fisher.fisher_info"),
    (fisher, "hardy_integrals", "fisher.hardy_integrals"),
]
EVALUATORS = ("pdf", "pdf_deriv", "cdf", "sf")

# per-layer metric -> unit; every one is reported per attempted job except
# the ladder ratio, which is integrate_adaptive calls per reported integral
METRICS = {
    "cli.run.self_ms": "ms",
    "cli.run.out_kb": "kB",
    "catalog.quantile.ms": "ms",
    "catalog.quantile.points": "count",
    "catalog.eval.points": "count",
    "shape.make_grid.calls": "count",
    "shape.check_condition_iv.ms": "ms",
    "shape.check_condition_iii.ms": "ms",
    "shape.check_midpoint.ms": "ms",
    "shape.check_midpoint.points": "count",
    "shape.cr_report.ms": "ms",
    "numerics.maximize_scalar.ms": "ms",
    "numerics.bisect_boundary.steps": "count",
    "envelope.emit_envelope_table.ms": "ms",
    "envelope.write_envelope_csv.ms": "ms",
    "numerics.integrate_adaptive.ms": "ms",
    "numerics.integrate_adaptive.calls": "count",
    "numerics.integrate_adaptive.cells": "count",
    "fisher.ladder.calls_per_integral": "ratio",
    "fisher.infinite_integrals": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def run_job(self, job_id: int, fn, *args, **kwargs):
        """Run one cli.run call under a root span."""
        self.job = job_id
        idx = self._open("cli.run")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "catalog.quantile":
                tracer.counts["catalog.quantile.points"] += np.size(args[1])
            elif name == "numerics.bisect_boundary":
                pred = args[0]

                def counted(v):
                    tracer.counts["numerics.bisect_boundary.steps"] += 1
                    return pred(v)
                args = (counted,) + args[1:]
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except QuadratureError as exc:
                tracer.counts["numerics.integrate_adaptive.cells"] += exc.subdivisions
                raise
            finally:
                tracer._close(idx)
            if name == "numerics.integrate_adaptive":
                tracer.counts["numerics.integrate_adaptive.cells"] += out.subdivisions
            elif name == "fisher.fisher_info":
                tracer.counts["integrals"] += 1
                tracer.counts["fisher.infinite_integrals"] += out == float("inf")
            elif name == "fisher.hardy_integrals":
                tracer.counts["integrals"] += 2
                tracer.counts["fisher.infinite_integrals"] += sum(
                    v == float("inf") for v in out)
            return out
        return wrapper

    def _wrap_eval(self, fn):
        tracer = self

        def wrapper(dist, x):
            n = np.size(x)
            tracer.counts["catalog.eval.points"] += n
            if tracer._current() == "shape.check_midpoint":
                tracer.counts["shape.check_midpoint.points"] += n
            return fn(dist, x)
        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        wrapped = {}
        for owner, attr, name in SPANS:
            orig = getattr(owner, attr)
            if orig not in wrapped:
                wrapped[orig] = self._wrap(name, orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[orig])
        # cli keeps its own table of checker functions
        for key, orig in list(cli._METHODS.items()):
            self._saved.append((cli._METHODS, key, orig))
            cli._METHODS[key] = wrapped[orig]
        for attr in EVALUATORS:
            orig = getattr(catalog.Distribution, attr)
            self._saved.append((catalog.Distribution, attr, orig))
            setattr(catalog.Distribution, attr, self._wrap_eval(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    # -- reduction -------------------------------------------------------------
    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def metrics(self, jobs: int, out_bytes: int) -> dict[str, dict]:
        selfs = self.self_ms()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        totals = dict(self.counts)
        totals["cli.run.out_kb"] = out_bytes / 1024.0
        totals["shape.make_grid.calls"] = calls["shape.make_grid"]
        totals["numerics.integrate_adaptive.calls"] = calls["numerics.integrate_adaptive"]
        for key in METRICS:
            if key.endswith(".ms"):
                totals[key] = selfs.get(key[:-3], 0.0)
        totals["cli.run.self_ms"] = selfs.get("cli.run", 0.0)
        out = {}
        for key, unit in METRICS.items():
            if key == "fisher.ladder.calls_per_integral":
                n = self.counts.get("integrals", 0)
                value = calls["numerics.integrate_adaptive"] / n if n else 0.0
            else:
                value = totals.get(key, 0.0) / jobs
            out[key] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
