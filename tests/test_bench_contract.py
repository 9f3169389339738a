"""The benchmark in ``perfbench/`` reaches into ``routegrad`` by name.

Its tracer wraps each ``(owner, attribute)`` of ``spans.TARGETS`` through
``owner.__dict__``, so removing or renaming one of those functions breaks
every traced benchmark run.  These tests make that a tier-1 failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [name for owner, attr, name in spans.TARGETS if attr not in owner.__dict__]
    assert missing == []


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
