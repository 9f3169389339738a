"""The benchmark in ``perfbench/`` reaches into ``routegrad`` by name.

Its tracer wraps each ``(owner, attribute)`` of ``spans.TARGETS`` through
``owner.__dict__``, so removing or renaming one of those functions breaks
every traced benchmark run.  These tests make that a tier-1 failure, and
the converse one too: a function or class of ``routegrad`` that no call
chain from the benchmark reaches.
"""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from routegrad import surrogate  # noqa: E402


def _names_read(node, strings=False) -> set:
    """Identifiers and attribute names under ``node``, and its strings if asked."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def test_every_public_name_is_called_by_src_or_the_benchmark():
    # a test alone is no caller: a name only tests reach is a second path
    # to an answer the loop computes another way.  Every top-level function
    # and class, private ones included, must be reached from a name the
    # benchmark reads, from a statement that runs on import, or from the
    # checkpoint pair, which waits for the training loop of ROADMAP item 1,
    # through the bodies of reached definitions only: a helper read by
    # nothing but an unreached function is unreached too.
    reached = {"save_checkpoint", "load_checkpoint"}
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= _names_read(ast.parse(path.read_text()), strings=True)
    bodies = {}
    for path in sorted((ROOT / "src" / "routegrad").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_names_read(stmt))
            else:
                reached |= _names_read(stmt)
    frontier = reached & bodies.keys()
    seen = set()
    while frontier:
        name = frontier.pop()
        seen.add(name)
        frontier |= (bodies[name] & bodies.keys()) - seen
    assert sorted(bodies.keys() - seen) == []


def test_every_traced_target_is_defined_on_its_owner():
    missing = [name for owner, attr, name in spans.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_benchmark_model_holds_no_dead_parameter():
    # the workloads train what reaches the tape; every stored array must
    model = surrogate.GnnModel.initialize(workloads.MODEL, seed=1)
    assert workloads.reached_parameter_names(model) == model.parameter_names()


def thread_recording_tracer():
    """A tracer, and the set of threads its spans opened on."""
    tracer, threads = spans.Tracer(), set()
    begin = tracer.begin

    def recorded(name):
        threads.add(threading.get_ident())
        return begin(name)

    tracer.begin = recorded
    return tracer, threads


def test_traced_train_step_runs_and_restores_originals():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.TARGETS]
    work = workloads.TrainN24(1)
    tracer, threads = thread_recording_tracer()
    with spans.installed(tracer):
        assert work.step() == work.batch
    assert threads == {threading.get_ident()}
    totals = tracer.totals()
    assert totals["surrogate.forward"][0] == 1
    assert totals["diffcore.affine"][0] > 0 and totals["diffcore.affine_sum"][0] > 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_descent_step_runs(monkeypatch):
    # the tracer keeps one stack of open spans, so every traced call must
    # run on the calling thread.  The chunks' message passing and the
    # decoder's hidden layer run on the pool, and so do their pullbacks,
    # but none calls a traced op; the decoder's one-unit head runs once
    # per chunk on the calling thread, one sigmoid each.
    work = workloads.DescentN24(1)
    chunks = []
    forward_chunk = surrogate._forward_chunk

    def counted(*args):
        chunks.append(None)
        return forward_chunk(*args)

    monkeypatch.setattr(surrogate, "_forward_chunk", counted)
    tracer, threads = thread_recording_tracer()
    with spans.installed(tracer):
        assert work.step() == work.g.pair_count
    assert threads == {threading.get_ident()}
    assert tracer._open == [] and all(span[2] > 0.0 for span in tracer.spans)
    totals = tracer.totals()
    assert totals["diffcore.tape_gradient"][0] == 1
    assert totals["surrogate.forward"][0] == 1
    assert len(chunks) >= 2 and totals["diffcore.sigmoid"][0] == len(chunks)


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
