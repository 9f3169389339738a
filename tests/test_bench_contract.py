"""The benchmark in ``perfbench/`` reaches into ``routegrad`` by name.

Its tracer wraps each ``(owner, attribute)`` of ``spans.TARGETS`` through
``owner.__dict__``, so removing or renaming one of those functions breaks
every traced benchmark run.  These tests make that a tier-1 failure, and
the converse one too: a public name that neither ``routegrad`` itself nor
the benchmark reaches.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from routegrad import diffcore, surrogate  # noqa: E402


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
    # to an answer the loop computes another way.  The checkpoint pair
    # waits for the training loop of ROADMAP item 1.
    allowed = {"save_checkpoint", "load_checkpoint"}
    reached = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= _names_read(ast.parse(path.read_text()), strings=True)
    public, statements = [], []
    for path in sorted((ROOT / "src" / "routegrad").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.append(own)
            statements.append((own, _names_read(stmt)))
    unreached = [
        name
        for name in public
        if name not in allowed | reached
        and not any(name in names for own, names in statements if own != name)
    ]
    assert unreached == []


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


def test_traced_descent_step_runs():
    # the tracer keeps one stack of open spans, so every traced call must
    # run on the calling thread: the chunk forwards do, and only their
    # untraced pullbacks run on the pool.  The decoder's one sigmoid per
    # chunk counts the chunks.
    work = workloads.DescentN24(1)
    with spans.installed(spans.Tracer()) as tracer:
        assert work.step() == work.g.pair_count
    assert tracer._open == [] and all(span[2] > 0.0 for span in tracer.spans)
    totals = tracer.totals()
    workers = diffcore.POOL_WORKERS
    block = work.g.edge_count * work.model.config.hidden * 8
    chunks = -(-work.g.pair_count // (surrogate.QUERY_BLOCK_BYTES // workers // block))
    chunks = min(work.g.pair_count, -(-chunks // workers) * workers)
    assert totals["diffcore.tape_gradient"][0] == 1
    assert totals["surrogate.forward"][0] == 1
    assert totals["diffcore.sigmoid"][0] == chunks


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
