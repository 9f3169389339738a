"""Timing, tracing and checking of one workload run.

:func:`end_to_end` gives the untraced metrics a user of routegrad sees;
:func:`per_layer` gives the traced per-module metrics.  Both return
``(metrics, report, attempted, failed)``: ``metrics`` maps each name to
``{"value", "unit"}``, ``report`` holds sample counts and the instance
digest, and ``attempted``/``failed`` count steps and checks.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

import hostspeed
import instances
import spans

# Set-up repeats at least this often and until this much set-up time has
# passed, so cheap set-ups give a median over many repetitions.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
UNTRACED_SHARE = 1 / 3  # of a traced run, the part stepped untraced as the overhead baseline
QUALITY = (("mlu_ratio", "ratio"), ("final_bce", "nats"), ("edge_acc", "ratio"))
NOT_APPLICABLE = 1.0  # reported for a quality metric the workload does not produce


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_steps(wl, seconds: float, min_steps: int, after_step=None, tracer=None, calibration=None) -> dict:
    """Steps ``wl`` until ``seconds`` of step time and ``min_steps`` steps.

    A step that raises counts as failed.  ``after_step(count)`` runs
    between steps, outside the timed intervals, and so does the host-speed
    sampling of a :class:`hostspeed.Calibration`.
    """
    durations, work, failed, busy = [], 0, 0, 0.0
    while busy < seconds or len(durations) < min_steps:
        span = tracer.begin(spans.STEP) if tracer else None
        t0 = perf_counter()
        try:
            work += wl.step()
        except Exception:  # a failed step is counted and the run goes on
            failed += 1
            traceback.print_exc()
        elapsed = perf_counter() - t0
        if tracer:
            tracer.stop_memory()
            tracer.end(span)
        if calibration:
            calibration.measured(elapsed)
        durations.append(elapsed)
        busy += elapsed
        if after_step:
            after_step(len(durations))
    return {"durations": durations, "work": work, "failed": failed, "busy": busy}


def run_checks(wl) -> tuple[int, int]:
    """Runs the post-run correctness checks; returns (attempted, failed)."""
    failed = 0
    checks = wl.checks()
    for check in checks:
        try:
            check()
        except Exception:
            failed += 1
            traceback.print_exc()
    return len(checks), failed


def end_to_end(cls, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Times are reported at nominal host speed (see ``hostspeed.py``);
    the report also gives them as measured."""
    speed = hostspeed.HostSpeed(*cls.reference_arrays)
    setup_calibration = hostspeed.Calibration(speed)
    setups = []
    wl = None
    while len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_MIN_SECONDS:
        wl = None  # free the previous instance before timing the next set-up
        t0 = perf_counter()
        wl = cls(seed)
        setups.append(perf_counter() - t0)
        setup_calibration.measured(setups[-1])

    attempted, failed = 0, 0

    def after_step(count):
        nonlocal attempted, failed
        if count == wl.quality_step:
            attempted += 1
            try:
                wl.snapshot()
            except Exception:
                failed += 1
                traceback.print_exc()

    step_calibration = hostspeed.Calibration(speed)
    steps = run_steps(wl, seconds, wl.quality_step, after_step, calibration=step_calibration)
    checked, check_failed = run_checks(wl)
    attempted += len(steps["durations"]) + checked
    failed += steps["failed"] + check_failed

    durations = np.array(steps["durations"])
    slowdowns = step_calibration.slowdowns()
    at_nominal = durations / slowdowns
    setups_at_nominal = np.array(setups) / setup_calibration.slowdowns()
    p90 = np.percentile(at_nominal, 90)
    quality = wl.quality() if failed == 0 else {}
    metrics = {
        "setup_s": metric(np.median(setups_at_nominal), "s"),
        "step_s.p50": metric(np.median(at_nominal), "s"),
        "work_per_s": metric(steps["work"] / at_nominal.sum(), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, unit in QUALITY:
        metrics[name] = metric(quality.get(name, NOT_APPLICABLE), unit)
    report = {
        "samples": {"steps": len(durations), "beyond_p90": int(np.sum(at_nominal > p90))},
        "step_s.p90": p90,
        "host_slowdown": {"p10": np.percentile(slowdowns, 10), "p90": np.percentile(slowdowns, 90)},
        "as_measured": {
            "setup_s": statistics.median(setups),
            "step_s.p50": float(np.median(durations)),
            "work_per_s": steps["work"] / steps["busy"],
        },
        "setup_s": setups,
        "quality_step": wl.quality_step,
        "not_applicable": [name for name, _ in QUALITY if name not in cls.applicable],
        "instance": instances.describe(wl.insts),
    }
    return metrics, report, attempted, failed


def per_layer(cls, seed: int, seconds: float, out_dir: str) -> tuple[dict, dict, int, int]:
    """Self times are as measured; the tracing overhead compares the two
    phases at nominal host speed."""
    wl = cls(seed)
    speed = hostspeed.HostSpeed(*cls.reference_arrays)
    plain_calibration, traced_calibration = hostspeed.Calibration(speed), hostspeed.Calibration(speed)
    plain = run_steps(wl, seconds * UNTRACED_SHARE, min_steps=2, calibration=plain_calibration)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run_steps(
            wl, seconds * (1 - UNTRACED_SHARE), min_steps=2, tracer=tracer, calibration=traced_calibration
        )
    checked, check_failed = run_checks(wl)
    attempted = len(plain["durations"]) + len(traced["durations"]) + checked
    failed = plain["failed"] + traced["failed"] + check_failed

    n = len(traced["durations"])
    totals = tracer.totals()
    metrics = {}

    def calls_and_self(name, calls=True):
        c, s = totals.get(name, (0, 0.0))
        if calls:
            metrics[f"{name}.calls"] = metric(c / n, "count/step")
        metrics[f"{name}.self_s"] = metric(s / n, "s/step")

    for name in (
        "exact_routing.shortest_path_tree",
        "exact_routing.link_loads",
        "exact_routing.exact_max_utilization",
        "exact_routing.routing_matrix",
        "netgraph.validate_weights",
    ):
        calls_and_self(name)
    for op in spans.DIFFCORE_OPS:
        calls_and_self(f"diffcore.{op}")
    for name in ("diffcore.affine_sum.flops", "diffcore.affine.flops"):
        metrics[name] = metric(tracer.counters[name] / n, "flop/step")
    calls_and_self("diffcore.tape_gradient")
    metrics["diffcore.tape.retained_mb"] = metric(tracer.counters["diffcore.tape.retained_mb"] / n, "MB/step")
    for name in ("surrogate.forward", "surrogate.query_indicators", "surrogate.gnnmodel_tensors"):
        calls_and_self(name, calls=False)
    metrics["surrogate.params_unreached"] = metric(wl.unreached_parameters(), "count")
    metrics["search.accept_ratio"] = metric(wl.accept_ratio(), "ratio")
    residual = totals[spans.STEP][1]
    metrics["driver.residual_s"] = metric(residual / n, "s/step")
    p50_traced = float(np.median(traced["durations"] / traced_calibration.slowdowns()))
    p50_plain = float(np.median(plain["durations"] / plain_calibration.slowdowns()))
    metrics["driver.trace_overhead_s"] = metric(p50_traced - p50_plain, "s")

    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{cls.name}-seed{seed}.json")
    tracer.write(spans_path)
    report = {
        "samples": {"untraced_steps": len(plain["durations"]), "traced_steps": n},
        "step_s.p50": {"untraced": p50_plain, "traced": p50_traced},
        "residual_share": residual / traced["busy"],
        "spans": spans_path,
        "instance": instances.describe(wl.insts),
    }
    return metrics, report, attempted, failed
