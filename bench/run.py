"""biscv benchmark: one client, one thread, closed loop, in process.

    python3 bench/run.py --workload certify|dense|fisher --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; biscv is imported from ``src``.
Jobs are ``biscv.cli.run(argv, stdout=...)`` calls whose argv is drawn from
the seed (see jobs.py).  Whole rounds of jobs run until their summed wall
time reaches ``--seconds`` and at least 100 jobs have succeeded, so the
90th percentile has ten samples beyond it.  Each job's output is checked
(checks.py) outside its timed region.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import os

# BLAS pools held to one thread before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BISCV_GRID_POINTS", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_OK_JOBS = 100
WORKLOADS = ("certify", "dense", "fisher")

# one warm-up argv per command kind a workload uses, run before timing
WARMUPS = {
    "certify": [["check", "--dist", "norm", "--s", "0"],
                ["gamma", "--dist", "norm", "--s", "0"],
                ["envelope", "--dist", "norm", "--s", "0"],
                ["max-s", "--dist", "t:r=3", "--lo", "-0.5", "--hi", "0"],
                ["threshold", "--family", "normmix", "--s", "0", "--lo", "1",
                 "--hi", "2", "--search-tol", "0.1"]],
    "dense": [["check", "--dist", "norm", "--s", "0"],
              ["gamma", "--dist", "norm", "--s", "0"]],
    "fisher": [["fisher", "--dist", "norm", "--s", "0"]],
}


def _import_biscv():
    if not (SRC / "biscv" / "__init__.py").is_file():
        sys.exit(f"biscv sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from biscv import cli
    return cli


def setup(workload: str):
    """Import biscv and make one untimed warm-up call per command kind."""
    cli = _import_biscv()
    for argv in WARMUPS[workload]:
        cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
    return cli


def measure_setup(workload: str) -> float:
    """Median time from process start to ready, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload],
            stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            sys.exit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        setup(args.workload)
        print("ready", flush=True)
        return 0

    cli = setup(args.workload)
    setup_s = None if args.trace else measure_setup(args.workload)
    import checks
    import jobs
    checker = checks.Checker(SRC / "biscv" / "schemas")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    latencies: list[float] = []
    timed = 0.0
    attempted = failed = out_bytes = 0
    correct = True
    unexpected: dict[str, int] = {}
    for batch in jobs.rounds(args.workload, args.seed):
        for job in batch:
            buf = io.StringIO()
            exc = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.run(job.argv, stdout=buf, stderr=io.StringIO())
                else:
                    rc = tracer.run_job(attempted, cli.run, job.argv,
                                        stdout=buf, stderr=io.StringIO())
            except Exception as err:  # a crash is a failed operation
                rc, exc = None, err
            dt = time.perf_counter() - t0
            text = buf.getvalue()
            del buf  # release the program's buffer before the checks allocate
            timed += dt
            attempted += 1
            out_bytes += len(text)
            problems = checks.check_job(job, rc, text, exc, checker)
            if problems:
                failed += 1
                if job.fault is None:
                    correct = False
                    print(f"FAIL {' '.join(job.argv)}: {'; '.join(problems)}",
                          file=sys.stderr)
            else:
                latencies.append(dt)
                if job.fault is not None:
                    unexpected[job.fault] = unexpected.get(job.fault, 0) + 1
        if timed >= args.seconds and len(latencies) >= MIN_OK_JOBS:
            break
    for fault, n in unexpected.items():
        print(f"note: known fault {fault} did not show in {n} jobs",
              file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(attempted, out_bytes)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        latencies.sort()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": attempted / timed, "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(latencies, 0.5) * 1e3,
                               "unit": "ms"},
            "latency_p90_ms": {"value": percentile(latencies, 0.9) * 1e3,
                               "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "timed_s": timed,
                    "ok_jobs": len(latencies), **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
