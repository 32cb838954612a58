"""Command-line front end.

Subcommands: check, gamma, max-s, threshold, envelope, fisher, catalog.
JSON documents echo the resolved configuration for reproducibility; the
envelope table is emitted as CSV with a fixed header (or as JSON rows with
``--format json``).

Exit codes: 0 pass, 2 mathematical failure (a failing certificate, refused
chain precondition, or broken chain), 1 numerical or evaluation error
(reported as a structured JSON document), 64 usage error.

The environment variable BISCV_GRID_POINTS overrides the built-in default
grid size (2000); an explicit --grid-points beats both.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import IO

from . import catalog, envelope, fisher, shape
from .errors import BiscvError, PreconditionError

__all__ = ["main", "run", "UsageError"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad command line; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: "threshold ... --search 0.1" is a usage error
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # route argparse errors to exit 64
        raise UsageError(message)


def _default_grid_points() -> int:
    raw = os.environ.get("BISCV_GRID_POINTS")
    if raw is None:
        return shape.DEFAULT_GRID_POINTS
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"BISCV_GRID_POINTS must be an integer, got {raw!r}")


def _add_common(p: argparse.ArgumentParser, need_dist: bool = True,
                need_s: bool = True, need_grid: bool = True) -> None:
    if need_dist:
        p.add_argument("--dist", required=True, help="distribution spec string")
    if need_s:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--s", type=float, help="concavity index s in (-1, inf]")
        g.add_argument("--s-star", type=float, dest="s_star",
                       help="transformed index s* in (-inf, 1]")
    if need_grid:
        p.add_argument("--grid-points", type=int, default=None)
        p.add_argument("--eps", type=float, default=shape.DEFAULT_EPS,
                       help="quantile mass excluded per tail (default 1e-8)")
        p.add_argument("--tol", type=float, default=shape.DEFAULT_TOL,
                       help="checker tolerance (default 1e-9)")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="biscv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run concavity checkers")
    _add_common(p)
    p.add_argument("--method", choices=("iv", "iii", "midpoint", "all"),
                   default="all")

    _add_common(sub.add_parser("gamma", help="Csorgo-Revesz constants"))

    p = sub.add_parser("max-s", help="supremal passing index, in closed form")
    _add_common(p, need_s=False)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)

    p = sub.add_parser("threshold", help="mixture separation threshold")
    p.add_argument("--family", choices=("normmix", "tmix"), required=True)
    p.add_argument("--r", type=float, default=None)
    _add_common(p, need_dist=False)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--search-tol", type=float, default=1e-3)

    _add_common(sub.add_parser("envelope", help="emit the envelope-bound table"))

    p = sub.add_parser("fisher", help="Fisher-information chain report")
    _add_common(p)
    p.add_argument("--rel-tol", type=float, default=1e-8)

    _add_common(sub.add_parser("catalog", help="family metadata"),
                need_s=False, need_grid=False)
    return parser


def _encode_inf(v: float) -> float | str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


_METHODS = {
    "iv": shape.check_condition_iv,
    "iii": shape.check_condition_iii,
    "midpoint": shape.check_midpoint,
}


# Each command computes its document body (a dict, or finished CSV text) and
# whether it passed, from the resolved distribution, index s and grid size.

def _check(args, d, s, n):
    grid = shape.make_grid(d, n, args.eps)
    names = ("iv", "iii", "midpoint") if args.method == "all" else (args.method,)
    certs = [_METHODS[m](d, s, grid, args.tol) for m in names]
    ok = all(c.passed for c in certs)
    return {"method": args.method,
            "certificates": [c.to_dict() for c in certs],
            "verdict": "pass" if ok else "fail"}, ok


def _gamma(args, d, s, n):
    grid = shape.make_grid(d, n, args.eps)
    return {"report": shape.cr_report(d, s, grid).to_dict(),
            "grid": {"count": grid.count, "eps": grid.eps}}, True


def _max_s(args, d, s, n):
    grid = shape.make_grid(d, n, args.eps)
    value = shape.max_s(d, args.lo, args.hi, grid, args.tol)
    return {"lo": args.lo, "hi": _encode_inf(args.hi),
            "max_s": _encode_inf(value), "grid": grid.to_dict()}, True


def _threshold(args, d, s, n):
    value = shape.delta_threshold(args.family, s, args.lo, args.hi,
                                  args.search_tol, r=args.r, grid_points=n,
                                  eps=args.eps, check_tol=args.tol)
    return {"family": args.family, "r": args.r, "lo": args.lo, "hi": args.hi,
            "search_tol": args.search_tol, "delta_threshold": value}, True


def _envelope(args, d, s, n):
    grid = shape.make_grid(d, n, args.eps)
    columns = envelope.emit_envelope_table(d, s, grid)
    if args.format != "json":
        buf = io.StringIO()
        envelope.write_envelope_csv(columns, buf)
        return buf.getvalue(), True
    names = envelope.CSV_HEADER.split(",")
    cells = [[_encode_inf(v) for v in c.tolist()] for c in columns]
    return {"rows": [dict(zip(names, row)) for row in zip(*cells)]}, True


def _fisher(args, d, s, n):
    report = fisher.check_fisher_chain(d, s, args.rel_tol, n, args.eps, args.tol)
    doc = report.to_dict()
    doc["s"] = _encode_inf(doc["s"])
    return {"rel_tol": args.rel_tol, "report": doc}, report.chain_holds


def _catalog(args, d, s, n):
    sup = d.support()
    max_s = d.max_known_s()
    name, params = d.spec_parts()
    constants = {}
    if hasattr(d, "normalization"):
        constants["normalization"] = d.normalization
    return {"family": name,
            "params": dict(params),
            "support": {"lo": _encode_inf(sup.lo), "hi": _encode_inf(sup.hi)},
            "max_known_s": "unknown" if max_s is None else _encode_inf(max_s),
            "constants": constants}, True


# name -> (compute, accepted formats; the first is the default)
_COMMANDS = {
    "check": (_check, ("json",)),
    "gamma": (_gamma, ("json",)),
    "max-s": (_max_s, ("json",)),
    "threshold": (_threshold, ("json",)),
    "envelope": (_envelope, ("csv", "json")),
    "fisher": (_fisher, ("json",)),
    "catalog": (_catalog, ("json",)),
}


def _execute(args) -> tuple[dict | str, int]:
    """Resolve the options the command declares, in a fixed order (spec, s,
    grid points, eps, format), then compute its document."""
    compute, formats = _COMMANDS[args.command]
    d = catalog.parse_spec(args.dist) if "dist" in args else None
    if "family" in args and args.family == "tmix" and args.r is None:
        raise UsageError("--family tmix requires --r")
    s = n = None
    if "s" in args:
        s = args.s if args.s is not None else shape.from_star(args.s_star).s
    if "grid_points" in args:
        n = args.grid_points
        if n is None:
            n = _default_grid_points()
        if n < 16:
            raise UsageError("--grid-points must be >= 16")
        if not 0.0 < args.eps < 0.1:
            raise UsageError("--eps must lie in (0, 0.1)")
        if 1.0 - args.eps == 1.0:
            raise UsageError("--eps is too small: 1 - eps rounds to 1")
        if not 0.0 <= args.tol < math.inf:
            raise UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise UsageError(f"{args.command} only supports --format json")
    body, passed = compute(args, d, s, n)
    code = EXIT_PASS if passed else EXIT_FAIL
    if isinstance(body, str):
        return body, code
    doc = {"command": args.command, **body}
    if d is not None:
        doc["dist"] = d.spec_string()
    if n is not None:
        idx = shape.to_index(s) if s is not None else None
        doc["config"] = {"s": None if idx is None else _encode_inf(idx.s),
                         "s_star": None if idx is None else idx.s_star,
                         "grid_points": n, "eps": args.eps, "tol": args.tol,
                         "format": fmt}
    return doc, code


def run(argv: list[str], stdout: IO[str] | None = None,
        stderr: IO[str] | None = None) -> int:
    """Execute one command; returns the exit status.

    Identical argv (and environment) produce byte-identical output.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = None
    try:
        args = _build_parser().parse_args(argv)
        out, code = _execute(args)
    except UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except BiscvError as exc:
        # a refused mathematical hypothesis is a mathematical failure
        code = EXIT_FAIL if isinstance(exc, PreconditionError) else EXIT_ERROR
        out = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(out, dict):
        out = json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "output", None) not in (None, "-"):
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        stdout.write(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
