"""The benchmark in ``perfbench/`` reaches into ``routegrad`` by name.

Its tracer wraps each ``(owner, attribute)`` of ``spans.TARGETS`` through
``owner.__dict__``, so removing or renaming one of those functions breaks
every traced benchmark run.  These tests make that a tier-1 failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from routegrad import surrogate  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [name for owner, attr, name in spans.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_benchmark_model_holds_no_dead_parameter():
    # the workloads train what reaches the tape; every stored array must
    model = surrogate.GnnModel.initialize(workloads.MODEL, seed=1)
    assert workloads.reached_parameter_names(model) == model.parameter_names()


def test_traced_train_step_runs_and_restores_originals():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.TARGETS]
    work = workloads.TrainN24(1)
    with spans.installed(spans.Tracer()) as tracer:
        assert work.step() == work.batch
    totals = tracer.totals()
    assert totals["surrogate.forward"][0] == 1
    assert totals["diffcore.affine"][0] > 0 and totals["diffcore.affine_sum"][0] > 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_search_step_evaluates_once():
    # one candidate is one exact evaluation: its weights are checked once,
    # not once per Dijkstra source
    work = workloads.SearchN50(1)
    with spans.installed(spans.Tracer()) as tracer:
        assert work.step() == 1
    totals = tracer.totals()
    assert totals["exact_routing.link_loads"][0] == 1
    assert totals["netgraph.validate_weights"][0] == 1


def test_routing_imports_leave_scipy_unloaded():
    # importing scipy.sparse adds about 22 MB of resident memory, and the
    # search workload's peak of about 45 MB may grow by 5% at most
    code = (
        "import sys, routegrad.surrogate, routegrad.exact_routing; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"
