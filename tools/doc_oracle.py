"""Byte-level oracle for refactors: run a fixed argv matrix through the CLI.

Each argv runs in-process through ``biscv.cli.run``.  One line per argv is
printed: the exit code, the sha256 of stdout, the sha256 of stderr plus any
warnings raised, and the argv itself.  Run it once on each checkout and
compare the two outputs::

    PYTHONPATH=src python tools/doc_oracle.py > new.txt
    PYTHONPATH=/path/to/parent/src python tools/doc_oracle.py > old.txt
    python tools/doc_oracle.py --compare old.txt new.txt

``--compare`` prints each argv whose line differs and exits 1 if any does.
The matrix holds 15 laws x 6 values of s x n in {64, 2000} for check, gamma
and the envelope (CSV and JSON), fisher at n = 64, max-s, gamma at a
coarse and a fine eps, catalog, four threshold searches, and check, gamma
and max-s at n = 2e4.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import warnings

LAWS = ["t:r=1", "t:r=3", "fdist:a=1,b=1", "fdist:a=4,b=6", "pareto:a=2,b=1",
        "gpow:r=0.5", "gpow:r=4", "norm", "norm:mu=1,sigma=2", "unif",
        "normmix:delta=1", "normmix:delta=1.5", "normmix:delta=3",
        "tmix:r=1,delta=0.5", "tmix:r=1,delta=0.7"]
S_VALUES = ["-0.9", "-0.5", "-0.25", "0", "0.5", "inf"]
THRESHOLDS = [
    ["--family", "normmix", "--s", "0", "--lo", "1", "--hi", "2"],
    ["--family", "normmix", "--s", "-0.5", "--lo", "1", "--hi", "3"],
    ["--family", "tmix", "--r", "1", "--s", "-0.5", "--lo", "0.3", "--hi", "1"],
    ["--family", "tmix", "--r", "3", "--s", "-0.25", "--lo", "0.3", "--hi", "2"],
]


def matrix() -> list[list[str]]:
    out = []
    for law in LAWS:
        dist = ["--dist", law]
        for n in ("64", "2000"):
            g = ["--grid-points", n]
            for s in S_VALUES:
                sv = ["--s", s]
                out.append(["check", *dist, *sv, *g])
                out.append(["gamma", *dist, *sv, *g])
                out.append(["envelope", *dist, *sv, *g])
                out.append(["envelope", *dist, *sv, *g, "--format", "json"])
            for hi in ("1", "inf"):
                out.append(["max-s", *dist, "--lo=-0.9", "--hi", hi, *g])
            out.append(["gamma", *dist, "--s-star=-0.3", "--eps", "1e-4", *g])
            out.append(["gamma", *dist, "--s=-0.5", "--eps", "1e-12", *g])
        for s in S_VALUES:
            out.append(["fisher", *dist, "--s", s, "--grid-points", "64"])
        out.append(["catalog", *dist])
    out.extend(["threshold", *t] for t in THRESHOLDS)
    dense = ["--grid-points", "20000"]
    for law in ["normmix:delta=1.2", *LAWS]:
        out.append(["check", "--dist", law, "--s", "0", "--method", "all", *dense])
        out.append(["gamma", "--dist", law, "--s", "-0.5", *dense])
        out.append(["max-s", "--dist", law, "--lo=-0.9", "--hi", "1", *dense])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_matrix() -> None:
    from biscv import cli

    os.environ.pop("BISCV_GRID_POINTS", None)
    for argv in matrix():
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(argv, stdout, stderr)
        err = stderr.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)
        print(code, _sha(stdout.getvalue()), _sha(err), " ".join(argv), flush=True)


def compare(a: str, b: str) -> int:
    def load(path):
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(" ", 3) for line in fh if line.strip()]
        return {r[3]: r[:3] for r in rows}

    old, new = load(a), load(b)
    differ = [k for k in old if new.get(k) != old[k]]
    differ += [k for k in new if k not in old]
    for k in differ:
        print(f"{k}\n  {old.get(k)}\n  {new.get(k)}")
    print(f"{len(old)} vs {len(new)} argv, {len(differ)} differ")
    return 1 if differ else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    run_matrix()


if __name__ == "__main__":
    main()
