"""Benchmark of routegrad's train -> descend -> grade loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search_n50 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run builds one workload from ``--seed``, times its steps for
``--seconds`` seconds, checks the outputs, and prints a report line and
then, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps routegrad's public calls in spans and reports the
per-layer metrics (see README.md).  ``--workload all`` runs every workload
untraced and traced, each in its own process, and prints a table.  The
exit code is 1 when a correctness check fails and 2 when the program
under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("search_n50", "descent_n24", "train_n24")
# One BLAS thread.  On a 2-CPU host OpenBLAS's spinning worker threads
# compete with the interpreter's own thread: the median train step of
# 5-second windows within one run swung by about 10% with two threads and
# held within about 2% with one, and these mostly element-wise workloads
# ran no slower.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def run_all(args) -> int:
    """Every workload untraced and traced, each in a process of its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                status = 1
            if len(lines) < 2:
                status = 1
                continue
            print(lines[-2])
            result = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = result
            for key, m in result["metrics"].items():
                print(f"{name:12s} {key:45s} {m['value']:>14.6g} {m['unit']}")
    correct = status == 0 and all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: r["metrics"] for k, r in results.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import routegrad
    except ImportError as exc:
        print(f"cannot import routegrad from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(routegrad.__file__).startswith(src + os.sep):
        print(f"routegrad was imported from {routegrad.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import harness
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            metrics, report, attempted, failed = harness.per_layer(cls, args.seed, args.seconds, out_dir)
            report["spans"] = os.path.relpath(report["spans"], ROOT)
        else:
            metrics, report, attempted, failed = harness.end_to_end(cls, args.seed, args.seconds)
    except Exception:  # set-up (with its warm-up step) failed: nothing to measure
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_share": failed / attempted,
        **report,
        "env": harness.environment(BLAS_THREADS),
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
