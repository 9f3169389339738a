import contextlib
import gc
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from routegrad import diffcore as dc
from routegrad.netgraph import DimensionMismatchError, GraphError

from oracles import (
    binary_cross_entropy_chain,
    central_difference,
    finite_difference_check,
    soft_maximum_chain,
    softmax_temperature_reference,
)


def total(y, weights=None) -> dc.Tensor:
    """``sum(y * weights)``, weights one by default, as a 0-d Tensor.

    A row of ``y`` times a constant column: the ops the library keeps.
    """
    column = np.ones((y.size, 1)) if weights is None else np.reshape(weights, (y.size, 1))
    return dc.reshape(dc.matmul(dc.reshape(y, (1, y.size)), column), ())


def taped_gradient(fn, *arrays):
    tensors = [dc.Tensor(a, requires_grad=True) for a in arrays]
    with dc.Tape() as tape:
        out = fn(*tensors)
    return tape.gradient(out, tensors)


def fd_gradient(fn, arrays, which, h=1e-5):
    """Central differences w.r.t. arrays[which], other inputs fixed."""

    def scalar(x):
        args = [a.copy() for a in arrays]
        args[which] = x
        return float(fn(*[dc.Tensor(a) for a in args]).data)

    return central_difference(scalar, arrays[which], h)


def value_and_gradient(op, x, g_out):
    """``op(x)``'s value and its gradient in ``x`` for the output gradient ``g_out``."""
    xt = dc.Tensor(x, requires_grad=True)
    with dc.Tape() as tape:
        y = op(xt)
        out = total(y, g_out)
    return y.data, tape.gradient(out, xt)


def assert_grads_match(fn, arrays, tol=1e-4):
    analytic = taped_gradient(fn, *arrays)
    for i in range(len(arrays)):
        fd = fd_gradient(fn, arrays, i)
        rel = np.max(np.abs(analytic[i] - fd) / (np.abs(analytic[i]) + 1e-12))
        assert rel < tol, f"input {i}: rel err {rel}"


class TestAffine:
    def test_identity(self):
        W = np.eye(3)
        b = np.zeros(3)
        x = np.array([1.0, -2.0, 3.0])
        y = dc.affine(dc.Tensor(x), dc.Tensor(W), dc.Tensor(b))
        assert np.array_equal(y.data, x)

    def test_scalar_case(self):
        y = dc.affine(dc.Tensor([3.0]), dc.Tensor([[2.0]]), dc.Tensor([1.0]))
        assert y.data.tolist() == [7.0]

    def test_bias_gradient_is_ones(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        bt = dc.Tensor(b, requires_grad=True)
        with dc.Tape() as tape:
            y = total(dc.affine(dc.Tensor(x), dc.Tensor(W), bt))
        g = tape.gradient(y, bt)
        assert np.array_equal(g, np.full(2, 4.0))  # one per batch row

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.affine(dc.Tensor(np.zeros(3)), dc.Tensor(np.zeros((2, 4))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)]
        assert_grads_match(lambda x, W, b: total(dc.sigmoid(dc.affine(x, W, b))), arrays)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 3))
        W = rng.normal(size=(4, 3))
        y = dc.affine(dc.Tensor(x), dc.Tensor(W))
        assert y.shape == (2, 5, 4)
        assert np.allclose(y.data, x @ W.T)


class TestOneUnitLayer:
    @pytest.mark.parametrize("rows", [1, 7, 640, 552 * 80])
    def test_input_gradient_bitwise_equals_gemm(self, rows):
        # the decoder's last layer, 64 hidden units to one: its input
        # gradient, a broadcast product, is the K=1 gemm's bit for bit
        rng = np.random.default_rng(rows)
        h = dc.Tensor(rng.normal(size=(rows, 64)), requires_grad=True)
        w = rng.normal(size=(1, 64))
        g = rng.normal(size=(rows, 1))
        with dc.Tape() as tape:
            out = total(dc.affine(h, w, np.zeros(1)), g)
        assert np.array_equal(tape.gradient(out, h), g @ w)


class TestAffineSum:
    def test_no_inputs_rejected(self):
        # a [3, 0] weight is tiled by no inputs at all, which left no
        # product to sum: a NaN scalar, or an AttributeError with a bias
        for bias in (None, np.zeros(3)):
            with pytest.raises(dc.ShapeMismatchError, match="do not tile"):
                dc.affine_sum([], np.zeros((3, 0)), bias)

    def test_matches_concat(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(6, 3))
        x2 = rng.normal(size=(6, 2))
        W = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        lhs = dc.affine_sum([dc.Tensor(x1), dc.Tensor(x2)], dc.Tensor(W), dc.Tensor(b))
        rhs = np.concatenate([x1, x2], axis=-1) @ W.T + b
        assert np.allclose(lhs.data, rhs, atol=1e-14)

    def test_broadcast_leading_axis(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=(1, 6, 3))  # shared across the leading batch
        x2 = rng.normal(size=(4, 6, 2))
        W = rng.normal(size=(5, 5))
        y = dc.affine_sum([dc.Tensor(x1), dc.Tensor(x2)], dc.Tensor(W))
        expect = np.concatenate([np.broadcast_to(x1, (4, 6, 3)), x2], axis=-1) @ W.T
        assert np.allclose(y.data, expect, atol=1e-13)

    def test_sums_in_place(self):
        # the products and the bias are summed into an operand that already
        # has the output's shape, so at most one product lives beside it
        rng = np.random.default_rng(20)
        shapes = [(1, 32, 16), (64, 32, 16), (64, 32, 16)]
        xs = [dc.Tensor(rng.normal(size=shape)) for shape in shapes]
        W, b = rng.normal(size=(16, 48)), rng.normal(size=16)
        tracemalloc.start()
        try:
            y = dc.affine_sum(xs, dc.Tensor(W), dc.Tensor(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.data.nbytes, f"peak {peak / y.data.nbytes:.2f} outputs"
        expect = np.concatenate(np.broadcast_arrays(*(x.data for x in xs)), axis=-1) @ W.T + b
        assert np.allclose(y.data, expect, atol=1e-13)

    def test_gradients_including_broadcast(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(1, 4, 2)), rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4)), rng.normal(size=3)]
        assert_grads_match(
            lambda a, b, W, bias: total(dc.relu(dc.affine_sum([a, b], W, bias))),
            arrays,
        )


def _part_term(h, rows, w):
    """One part of a row map: dense, ReLU and a sigmoid over gathered rows."""
    return (dc.sigmoid(dc.relu(dc.affine(dc.index_rows(h, rows), w))),)


def _failing_copy(x: dc.Tensor) -> dc.Tensor:
    """A copy of ``x`` whose backward raises."""

    def make_backward(out, want):
        def run(g):
            raise FloatingPointError("part backward failed")

        return run

    return dc._finish(x.data.copy(), [x], make_backward)


class TestMapRows:
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_values_and_part_shapes(self, taped):
        a, b = np.arange(6.0).reshape(3, 2), -np.ones((1, 2))
        x = dc.Tensor(np.zeros(2), requires_grad=True)
        with dc.Tape() if taped else contextlib.nullcontext():
            (y,) = dc.map_rows(lambda p: (dc.add(p, x),), [a, b])
            assert np.array_equal(y.data, np.concatenate([a, b]))
            assert y.requires_grad == taped
            bad = [
                [np.zeros((2, 3)), np.zeros((1, 4))],
                [np.zeros((2, 3, 1)), np.zeros((2, 3))],
                [np.zeros(()), np.zeros(())],
                [],
            ]
            for parts in bad:
                with pytest.raises(dc.ShapeMismatchError):
                    dc.map_rows(lambda p: (dc.add(p, 0.0),), parts)
            # a part returns a tuple of Tensors, and nothing else
            for fn in (lambda p: dc.add(p, x), lambda p: (p,), lambda p: [dc.Tensor(p)]):
                with pytest.raises(dc.ShapeMismatchError):
                    dc.map_rows(fn, [a, b])

    def test_several_outputs_stack_output_by_output(self):
        a, b = np.arange(6.0).reshape(3, 2), -np.ones((1, 2))
        y, z = dc.map_rows(lambda p: (dc.Tensor(p), dc.Tensor(p[:1] * 2.0)), [a, b])
        assert np.array_equal(y.data, np.concatenate([a, b]))
        assert np.array_equal(z.data, np.concatenate([a[:1], b[:1]]) * 2.0)
        (alone,) = dc.map_rows(lambda p: (dc.Tensor(p),), [a, b])
        assert np.array_equal(alone.data, y.data)
        with pytest.raises(dc.ShapeMismatchError, match="output counts"):
            dc.map_rows(lambda p: (dc.Tensor(p),) * len(p), [a, b])

    @staticmethod
    def _several_outputs(x, r, w):
        """Three outputs of one part: two of its rows differ, and the first
        is also the third, so two slices seed one part output."""
        (y,) = _part_term(x, r, w)
        return y, dc.sigmoid(dc.affine(dc.index_rows(x, r[:1]), w)), y

    @staticmethod
    def _gradient(w0, x0, rows, fn=_part_term):
        w = dc.Tensor(w0, requires_grad=True)
        x = dc.Tensor(x0, requires_grad=True)
        with dc.Tape() as tape:
            ys = dc.map_rows(lambda r: fn(x, r, w), rows)
            out = 0.0
            for k, y in enumerate(ys):
                out = dc.add(out, total(y, np.cos(np.arange(y.size) + k)))
        return tape.gradient(out, [w, x])

    def test_several_outputs_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        w0, x0 = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        rows = [rng.integers(0, 5, k) for k in (3, 1, 4)]
        grads = self._gradient(w0, x0, rows, self._several_outputs)

        def total(w, x):
            ys = [self._several_outputs(dc.Tensor(x), r, dc.Tensor(w)) for r in rows]
            out = 0.0
            for k in range(3):
                y = np.concatenate([part[k].data for part in ys])
                out += float(np.sum(y * np.cos(np.arange(y.size) + k).reshape(y.shape)))
            return out

        for grad, fd in zip(
            grads,
            [central_difference(lambda w: total(w, x0), w0, 1e-6), central_difference(lambda x: total(w0, x), x0, 1e-6)],
        ):
            assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(fd))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_pullback_bitwise_equals_inline(self, monkeypatch, workers):
        self._assert_pool_equals_inline(monkeypatch, workers, _part_term)

    def test_several_outputs_pool_pullback_bitwise_equals_inline(self, monkeypatch):
        self._assert_pool_equals_inline(monkeypatch, 4, self._several_outputs)

    def _assert_pool_equals_inline(self, monkeypatch, workers, fn):
        # 4 workers outnumber the cores of a 2-CPU host, and a short switch
        # interval interleaves the part pullbacks as finely as it can
        rng = np.random.default_rng(7)
        w0, x0 = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        rows = [rng.integers(0, 5, k) for k in (3, 1, 4, 2, 5, 3)]
        monkeypatch.setattr(dc, "POOL_WORKERS", 1)
        inline = self._gradient(w0, x0, rows, fn)

        threads, pullback = [], dc.Tape._pullback

        def recorded(tape, seeds):
            threads.append(threading.current_thread())
            return pullback(tape, seeds)

        monkeypatch.setattr(dc.Tape, "_pullback", recorded)
        monkeypatch.setattr(dc, "POOL_WORKERS", workers)
        monkeypatch.setattr(dc, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = self._gradient(w0, x0, rows, fn)
        finally:
            sys.setswitchinterval(interval)
            if dc._pool is not None:
                dc._pool.shutdown()
        assert len(threads) == 1 + len(rows)
        assert threads[0] is threading.current_thread()
        assert all(t is not threading.current_thread() for t in threads[1:])
        for a, b in zip(inline, pooled):
            assert np.array_equal(a, b)

    def test_error_in_part_backward_surfaces_and_pool_recovers(self, monkeypatch):
        monkeypatch.setattr(dc, "POOL_WORKERS", 2)
        x = dc.Tensor(np.arange(1.0, 7.0).reshape(3, 2), requires_grad=True)
        with dc.Tape() as tape:
            (y,) = dc.map_rows(lambda k: (_failing_copy(x) if k == 2 else dc.add(x, float(k)),), range(4))
            out = total(y)
        with pytest.raises(FloatingPointError, match="part backward failed"):
            tape.gradient(out, x)
        with dc.Tape() as tape:
            out = total(dc.map_rows(lambda k: (dc.add(x, float(k)),), range(4))[0])
        assert np.array_equal(tape.gradient(out, x), np.full((3, 2), 4.0))

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_finish_runs_on_the_caller_in_part_order(self, monkeypatch, taped):
        # each part's fn runs on the pool and its finish on the calling
        # thread, in part order, on the tape its fn recorded on
        monkeypatch.setattr(dc, "POOL_WORKERS", 2)
        x = dc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ran, finished = [], []

        def fn(k):
            ran.append(threading.get_ident())
            return dc.add(x, float(k)), k

        def finish(result):
            y, k = result
            finished.append((k, threading.get_ident()))
            return (dc.sigmoid(y),)

        with dc.Tape() if taped else contextlib.nullcontext() as tape:
            (y,) = dc.map_rows(fn, range(5), finish)
            out = total(y, np.cos(np.arange(30.0)))
        me = threading.get_ident()
        assert len(ran) == 5 and me not in ran
        assert finished == [(k, me) for k in range(5)]
        expect = 1.0 / (1.0 + np.exp(-(np.tile(x.data, (5, 1)) + np.arange(5.0).repeat(3)[:, None])))
        assert np.allclose(y.data, expect, rtol=1e-15, atol=0.0)
        if taped:
            s = expect * (1.0 - expect) * np.cos(np.arange(30.0)).reshape(15, 2)
            assert np.allclose(tape.gradient(out, x), s.reshape(5, 3, 2).sum(axis=0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("where", ["fn", "finish"])
    def test_error_in_part_forward_surfaces_and_pool_recovers(self, monkeypatch, where):
        # part 3 is still running when part 2 fails, on the pool or in its
        # finish on the calling thread; the error reaches the caller only
        # once no part is running, and the pool and the tape stay usable
        monkeypatch.setattr(dc, "POOL_WORKERS", 2)
        x = dc.Tensor(np.arange(1.0, 7.0).reshape(3, 2), requires_grad=True)
        lock, running, third = threading.Lock(), [0], threading.Event()

        def fn(k):
            with lock:
                running[0] += 1
            try:
                if k == 3:
                    third.set()
                    time.sleep(0.05)
                if k == 2 and where == "fn":
                    third.wait(timeout=5.0)
                    raise FloatingPointError("part forward failed")
                return (dc.add(x, float(k)),)
            finally:
                with lock:
                    running[0] -= 1

        def finish(result):
            if where == "finish" and result[0].data[0, 0] == 3.0:
                third.wait(timeout=5.0)
                raise FloatingPointError("part forward failed")
            return result

        with dc.Tape() as tape:
            with pytest.raises(FloatingPointError, match="part forward failed"):
                dc.map_rows(fn, range(6), finish)
            assert third.is_set() and running == [0]
            assert dc._active_tape() is tape
            out = total(dc.map_rows(lambda k: (dc.add(x, float(k)),), range(4))[0])
        assert np.array_equal(tape.gradient(out, x), np.full((3, 2), 4.0))

    def test_nested_map_rows_runs_inline_in_a_pooled_part(self, monkeypatch):
        # the inner parts of each outer part run on the outer part's pool
        # thread, one after another
        monkeypatch.setattr(dc, "POOL_WORKERS", 2)
        x = dc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        threads = {}

        def inner(pair):
            k, j = pair
            threads.setdefault(k, []).append((j, threading.get_ident()))
            return (dc.add(x, float(10 * k + j)),)

        def outer(k):
            threads.setdefault(k, []).append((None, threading.get_ident()))
            return dc.map_rows(inner, [(k, j) for j in range(3)])

        with dc.Tape() as tape:
            (y,) = dc.map_rows(outer, range(3))
            out = total(y)
        offsets = np.array([10 * k + j for k in range(3) for j in range(3)], dtype=float).repeat(3)
        assert np.array_equal(y.data, np.tile(x.data, (9, 1)) + offsets[:, None])
        assert np.array_equal(tape.gradient(out, x), np.full((3, 2), 9.0))
        for k, seen in threads.items():
            (_, mine), *inner_parts = seen
            assert mine != threading.get_ident()
            assert inner_parts == [(j, mine) for j in range(3)]

    @pytest.mark.parametrize("returned", [False, True], ids=["read", "returned"])
    def test_part_reading_another_parts_output_raises(self, returned):
        # the outer tape would drop the gradient that reaches the first
        # part's output through the second part.  The parts may run at once
        # on the pool, so the second waits for the first part's output
        x = dc.Tensor(np.ones((2, 3)), requires_grad=True)
        first, made = [], threading.Event()

        def part(k):
            if not k:
                first.append(dc.add(x, 1.0))
                made.set()
                return (first[0],)
            made.wait()
            return (first[0],) if returned else (dc.add(first[0], x),)

        with dc.Tape():
            with pytest.raises(dc.DiffcoreError, match="another part produced"):
                dc.map_rows(part, range(2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaf_created_in_part_gets_its_gradient(self, monkeypatch, workers):
        # a leaf made inside a part is read or returned by it without being
        # produced by one of its ops, so it is an input of the joining op
        monkeypatch.setattr(dc, "POOL_WORKERS", workers)
        x = dc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        leaves = [None] * 3

        def part(k):
            leaves[k] = dc.Tensor(np.full((1, 3), k + 1.0), requires_grad=True)
            return (dc.add(x, leaves[k]), leaves[k]) if k else (x, leaves[k])

        with dc.Tape() as tape:
            y, z = dc.map_rows(part, range(3))
            out = dc.add(total(y, np.arange(18.0)), total(z, np.cos(np.arange(9.0))))
        grads = tape.gradient(out, [x, *leaves])
        weights = np.arange(18.0).reshape(6, 3)
        assert np.array_equal(grads[0], weights[0:2] + weights[2:4] + weights[4:6])
        for k, g in enumerate(grads[1:]):
            expect = np.cos(np.arange(9.0)).reshape(3, 3)[k]
            if k:
                expect = weights[2 * k : 2 * k + 2].sum(axis=0) + expect
            assert np.array_equal(g, expect.reshape(1, 3))

    def test_nested_map_rows_completes(self):
        # each outer part's pullback runs on a pool thread and pulls its
        # inner parts back there, instead of waiting for a free worker.  A
        # deadlock would also hang interpreter exit, which joins the pool's
        # threads, so the case runs in a child process with a time limit.
        _run_child(_NESTED_MAP_ROWS)

    def test_import_starts_no_thread(self):
        _run_child("import threading, routegrad.surrogate\nassert threading.active_count() == 1")


def _run_child(code: str, *paths: str) -> str:
    """Runs ``code`` in a fresh interpreter that imports this ``routegrad``.

    ``paths`` go on its import path after ``src``; returns what it printed.
    """
    src = str(Path(dc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, *paths, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_NESTED_MAP_ROWS = """
import numpy as np
from routegrad import diffcore as dc

dc.POOL_WORKERS = 2
rng = np.random.default_rng(8)
w = dc.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
x = dc.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
rows = [rng.integers(0, 5, k) for k in (3, 1, 4, 2, 5, 3)]


def term(r):
    return (dc.sigmoid(dc.relu(dc.affine(dc.index_rows(x, r), w))),)


def gradient(fn, parts):
    with dc.Tape() as tape:
        (y,) = dc.map_rows(fn, parts)
        total = dc.reshape(dc.matmul(dc.reshape(y, (1, y.size)), np.ones((y.size, 1))), ())
    return tape.gradient(total, [w, x])


nested = gradient(lambda pair: dc.map_rows(term, pair), [rows[:2], rows[2:4], rows[4:]])
flat = gradient(term, rows)
assert all(np.allclose(a, b, rtol=1e-13, atol=1e-15) for a, b in zip(nested, flat))
"""

# A child's first lines: every ctypes symbol lookup is recorded by name,
# so the child sees whether diffcore looked up mallopt
_WATCH_LOOKUPS = """
import sys
looked_up = []
sys.addaudithook(lambda event, args: looked_up.append(args[1]) if event == "ctypes.dlsym" else None)
"""

_IMPORT_THEN_POOL = _WATCH_LOOKUPS + """
import routegrad.surrogate
from routegrad import diffcore as dc

assert "mallopt" not in looked_up
dc.POOL_WORKERS = 2
dc.map_rows(lambda k: (dc.Tensor([[float(k)]]),), range(3))
assert looked_up.count("mallopt") == 1, looked_up
"""

# the exact evaluator alone, as search_n50 runs it, on a ring of 12 nodes
# with four chords
_SEARCH_STARTS_NO_POOL = _WATCH_LOOKUPS + """
import numpy as np
from routegrad import diffcore as dc, exact_routing as xr, netgraph as ng

n = 12
ring = [(i, (i + 1) % n, 1.0 + i % 3, False) for i in range(n)]
g = ng.build_graph(n, ring + [(i, (i + 5) % n, 2.5, False) for i in range(0, n, 3)])
rng = np.random.default_rng(3)
demands = rng.uniform(0.0, 1.0, g.pair_count)
for w in rng.integers(1, 21, (20, g.edge_count)).astype(float):
    xr.link_loads(g, w, demands)
    xr.exact_max_utilization(g, w, demands)
assert dc._pool is None
assert "concurrent.futures" not in sys.modules
assert "mallopt" not in looked_up, looked_up
"""

# minor page faults per pooled train_n24 step at two workers; STUBBED
# (set on the line before) leaves each pool thread its own malloc arena
_TRAIN_FAULTS = """
import os
import resource

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
from routegrad import diffcore as dc
import workloads

dc.POOL_WORKERS = 2
if STUBBED:
    dc._one_malloc_arena = lambda: None
work = workloads.TrainN24(1)  # its warm-up step starts the pool
work.step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    work.step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


class TestOneMallocArena:
    """The pool's first start caps malloc at one arena (``dc._one_malloc_arena``)."""

    _W0, _X0 = np.random.default_rng(7).normal(size=(6, 4)), np.random.default_rng(8).normal(size=(5, 4))
    _ROWS = [np.array([0, 2, 4]), np.array([1]), np.array([3, 0, 2, 1]), np.array([4, 4])]

    @staticmethod
    def _fake_mallopt(monkeypatch) -> list:
        """Replaces the C library; returns the list its ``mallopt`` records each call in.

        A call records its arguments, its thread, the pool at that moment
        and the threads started since this fake was installed.
        """
        calls, threads = [], set(threading.enumerate())

        def mallopt(param, value):
            calls.append(((param, value), threading.current_thread(), dc._pool, set(threading.enumerate()) - threads))
            return 1

        monkeypatch.setattr(dc, "_libc", lambda: types.SimpleNamespace(mallopt=mallopt))
        return calls

    def _pooled_gradients(self, monkeypatch, rows, times=1):
        """The row-map gradient at two workers on a new pool, ``times`` over."""
        monkeypatch.setattr(dc, "POOL_WORKERS", 2)
        monkeypatch.setattr(dc, "_pool", None)
        try:
            return [TestMapRows._gradient(self._W0, self._X0, rows) for _ in range(times)]
        finally:
            if dc._pool is not None:
                dc._pool.shutdown()

    def test_first_pool_start_calls_mallopt_once_before_its_threads(self, monkeypatch):
        # once for the whole process: the one-arena cap (M_ARENA_MAX), then
        # the mmap threshold (M_MMAP_THRESHOLD) at 32 MiB and the trim
        # threshold (M_TRIM_THRESHOLD) at 1 GiB, all on the calling thread
        # before the pool exists; the second gradient calls none
        calls = self._fake_mallopt(monkeypatch)
        self._pooled_gradients(monkeypatch, self._ROWS, times=2)
        assert dc._pool is not None
        me = threading.current_thread()
        assert calls == [
            ((-8, 1), me, None, set()),
            ((-3, 32 * 2**20), me, None, set()),
            ((-1, 2**30), me, None, set()),
        ]

    @pytest.mark.parametrize("workers, parts", [(1, 4), (2, 1)], ids=["one_worker", "one_job"])
    def test_inline_run_calls_no_mallopt(self, monkeypatch, workers, parts):
        calls = self._fake_mallopt(monkeypatch)
        monkeypatch.setattr(dc, "POOL_WORKERS", workers)
        monkeypatch.setattr(dc, "_pool", None)
        TestMapRows._gradient(self._W0, self._X0, self._ROWS[:parts])
        assert calls == [] and dc._pool is None

    def test_pool_runs_where_libc_lacks_mallopt(self, monkeypatch):
        monkeypatch.setattr(dc, "_libc", types.SimpleNamespace)
        monkeypatch.setattr(dc, "POOL_WORKERS", 1)
        inline = TestMapRows._gradient(self._W0, self._X0, self._ROWS)
        (pooled,) = self._pooled_gradients(monkeypatch, self._ROWS)
        assert dc._pool is not None
        for a, b in zip(inline, pooled):
            assert np.array_equal(a, b)

    def test_import_calls_no_mallopt(self):
        # the pooled map_rows after the import shows the child would see the call
        _run_child(_IMPORT_THEN_POOL)

    def test_search_starts_no_pool(self):
        # search_n50 runs only netgraph and exact_routing, so its peak
        # holds no pool threads, no concurrent.futures and no arena change
        _run_child(_SEARCH_STARTS_NO_POOL)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt(M_ARENA_MAX) is glibc's")
    def test_one_arena_cuts_train_step_page_faults(self):
        # measured on 2 CPUs, glibc 2.36: about 21K faults per step with an
        # arena per pool thread, 2.4-3.7K with one arena
        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        shipped, stubbed = (
            float(_run_child(f"STUBBED = {stub}\n" + _TRAIN_FAULTS, perfbench)) for stub in (False, True)
        )
        if stubbed < 8000:
            pytest.skip(f"an arena per pool thread faults only {stubbed:.0f} times per step here")
        assert shipped <= stubbed / 2, (shipped, stubbed)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's mmap and trim thresholds are glibc's")
    def test_warmed_train_step_reuses_its_heap(self):
        # measured on 2 CPUs, glibc 2.36: 3-8 faults per warmed step with
        # both thresholds fixed; 3.3-4.6K with glibc's dynamic ones,
        # 4.4-4.9K with the mmap threshold alone and 9.7-15K with the trim
        # threshold alone, so dropping either one fails this
        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        faults = float(_run_child("STUBBED = False\n" + _TRAIN_FAULTS, perfbench))
        assert faults <= 300, faults


class TestLayerNormalize:
    def test_constant_vector_zeroed(self):
        y = dc.layer_normalize(dc.Tensor(np.full(5, 3.7)), dc.Tensor(np.ones(5)), dc.Tensor(np.zeros(5)))
        assert np.allclose(y.data, 0.0)

    def test_plus_minus_one(self):
        y = dc.layer_normalize(dc.Tensor([1.0, -1.0]), dc.Tensor(np.ones(2)), dc.Tensor(np.zeros(2)))
        expect = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(y.data, [expect, -expect], rtol=0, atol=1e-15)

    def test_zero_gain_returns_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        y = dc.layer_normalize(dc.Tensor(x), dc.Tensor(np.zeros(4)), dc.Tensor(bias))
        assert np.allclose(y.data, np.broadcast_to(bias, (3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.layer_normalize(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.ones(4)), dc.Tensor(np.zeros(3)))

    def test_gradients(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=(3, 5)), rng.uniform(0.5, 1.5, 5), rng.normal(size=5)]
        assert_grads_match(
            lambda x, g, b: total(dc.sigmoid(dc.layer_normalize(x, g, b))), arrays
        )


def mlp_ln_case(seed, q=3, n_edges=7, n_nodes=4, width=5, hidden=6, n_out=4):
    """An edge-update block: a broadcast ``[1, E, h]`` edge term and two
    terms gathered from one ``[q, N, h]`` node block, with parameters."""
    rng = np.random.default_rng(seed)
    arrays = [
        rng.normal(size=(1, n_edges, width)),
        rng.normal(size=(q, n_nodes, width)),
        rng.normal(size=(hidden, 3 * width)),
        rng.normal(size=hidden),
        rng.normal(size=(n_out, hidden)),
        rng.normal(size=n_out),
        rng.uniform(0.5, 1.5, n_out),
        rng.normal(size=n_out),
    ]
    receivers = rng.integers(0, n_nodes, n_edges)
    senders = rng.integers(0, n_nodes, n_edges)

    def fused(edges, nodes, w1, b1, w2, b2, gain, bias):
        return dc.mlp_ln([(edges, None), (nodes, receivers), (nodes, senders)], w1, b1, w2, b2, gain, bias)

    def chain(edges, nodes, w1, b1, w2, b2, gain, bias):
        blocks = [dc.Tensor(w1.data[:, lo : lo + width]) for lo in range(0, 3 * width, width)]
        z = dc.affine(edges, blocks[0], b1)
        z = dc.add(z, dc.index_rows(dc.affine(nodes, blocks[1]), receivers))
        z = dc.add(z, dc.index_rows(dc.affine(nodes, blocks[2]), senders))
        z = dc.affine(dc.relu(z), w2, b2)
        return dc.layer_normalize(z, gain, bias)

    return arrays, fused, chain


class TestMlpLn:
    def test_forward_bitwise_equals_unfused_chain(self):
        arrays, fused, chain = mlp_ln_case(21)
        tensors = [dc.Tensor(a) for a in arrays]
        y = fused(*tensors)
        assert y.shape == (3, 7, 4)
        assert np.array_equal(y.data, chain(*tensors).data)
        # ungathered terms only: products, then the bias, as affine_sum sums them
        _, nodes, w1, b1, w2, b2, gain, bias = tensors
        agg = dc.Tensor(np.random.default_rng(22).normal(size=nodes.shape))
        w1 = dc.Tensor(w1.data[:, :10])
        y = dc.mlp_ln([(agg, None), (nodes, None)], w1, b1, w2, b2, gain, bias)
        expect = dc.layer_normalize(dc.affine(dc.relu(dc.affine_sum([agg, nodes], w1, b1)), w2, b2), gain, bias)
        assert np.array_equal(y.data, expect.data)
        # gathered terms only: b1 leads, then the gathered products in list order
        rows_a, rows_b = np.random.default_rng(26).integers(0, 4, (2, 7))
        y = dc.mlp_ln([(nodes, rows_a), (agg, rows_b)], w1, b1, w2, b2, gain, bias)
        z = dc.add(b1, dc.index_rows(dc.affine(nodes, w1.data[:, :5]), rows_a))
        z = dc.add(z, dc.index_rows(dc.affine(agg, w1.data[:, 5:]), rows_b))
        expect = dc.layer_normalize(dc.affine(dc.relu(z), w2, b2), gain, bias)
        assert y.shape == (3, 7, 4)
        assert np.array_equal(y.data, expect.data)

    def test_every_gradient_matches_fd(self):
        # both edge-term broadcast and the two gathered uses of one node
        # block reach the gradients, each taken with the rest held fixed
        arrays, fused, _ = mlp_ln_case(23)
        weights = np.cos(np.arange(3 * 7 * 4.0)).reshape(3, 7, 4)

        for i in range(len(arrays)):

            def f(t, i=i):
                args = [dc.Tensor(a) for a in arrays]
                args[i] = t
                return total(fused(*args), weights)

            err = finite_difference_check(f, arrays[i])
            assert err < 1e-6, f"input {i}: rel err {err}"

    @staticmethod
    def _segment_case(seed):
        """A node-update block: the rows of a ``[q, E, h]`` edge block summed
        into the N nodes they enter, then a ``[q, N, h]`` node term."""
        rng = np.random.default_rng(seed)
        arrays = [
            rng.normal(size=(3, 7, 5)),
            rng.normal(size=(3, 4, 5)),
            rng.normal(size=(6, 10)),
            rng.normal(size=6),
            rng.normal(size=(4, 6)),
            rng.normal(size=4),
            rng.uniform(0.5, 1.5, 4),
            rng.normal(size=4),
        ]
        # node 3 receives no edge
        receivers = np.array([0, 2, 1, 0, 2, 2, 1])

        def summed(edges, nodes, *params):
            return dc.mlp_ln([(edges, receivers, 4), (nodes, None)], *params)

        def chain(edges, nodes, *params):
            return dc.mlp_ln([(dc.segment_sum(edges, receivers, 4), None), (nodes, None)], *params)

        return arrays, summed, chain

    def test_segment_term_bitwise_equals_segment_sum(self):
        arrays, summed, chain = self._segment_case(27)
        weights = np.cos(np.arange(3 * 4 * 4.0))
        grads = []
        for op in (summed, chain):
            tensors = [dc.Tensor(a, requires_grad=True) for a in arrays]
            with dc.Tape() as tape:
                y = op(*tensors)
                out = total(y, weights)
            grads.append((y.data, *tape.gradient(out, tensors)))
        assert grads[0][0].shape == (3, 4, 4)
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_segment_term_gradients_match_fd(self):
        # the summed edge block's, the node block's and the first weights'
        arrays, summed, _ = self._segment_case(28)
        weights = np.cos(np.arange(3 * 4 * 4.0))
        for i in (0, 1, 2):

            def f(t, i=i):
                args = [dc.Tensor(a) for a in arrays]
                args[i] = t
                return total(summed(*args), weights)

            err = finite_difference_check(f, arrays[i])
            assert err < 1e-6, f"input {i}: rel err {err}"

    def test_segment_term_shape_mismatch(self):
        arrays, _, _ = self._segment_case(29)
        edges, nodes, *params = [dc.Tensor(a) for a in arrays]
        bad = [
            [(edges, [0, 1, 2], 4), (nodes, None)],
            [(dc.Tensor(np.ones(5)), [0], 4), (nodes, None)],
            [(edges, [0] * 7, 4), (nodes, None), (nodes, None)],
        ]
        for terms in bad:
            with pytest.raises(dc.ShapeMismatchError):
                dc.mlp_ln(terms, *params)
        # a bad index value fails netgraph.node_indices
        bad_values = [
            [(edges, [0, 1, 2, 0, 1, 2, 4], 4), (nodes, None)],
            [(edges, [0, 1, 2, 0, 1, 2, 0.0], 4), (nodes, None)],
        ]
        for terms in bad_values:
            with pytest.raises(GraphError):
                dc.mlp_ln(terms, *params)

    @pytest.mark.parametrize("trained", [False, True], ids=["fixed", "trained"])
    def test_tape_keeps_relu_output_only_for_second_weights(self, trained):
        # fixed parameters: the ReLU mask packed into one uint8 of
        # ceil(6 / 8) bytes per row of the 6 hidden units, and no boolean
        # mask; parameters with gradients: the ReLU output, from which the
        # mask is read, and no mask
        arrays, fused, _ = mlp_ln_case(24)
        tensors = [dc.Tensor(a, requires_grad=i < 2 or trained) for i, a in enumerate(arrays)]
        with dc.Tape() as tape:
            fused(*tensors)
        (_, _, run), = tape._ops
        kept = [c.cell_contents for c in run.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        masks = [a for a in kept if a.dtype == bool]
        packed = [a for a in kept if a.dtype == np.uint8 and a.shape == (3, 7, 1)]
        relu_out = [a for a in kept if a.dtype == np.float64 and a.shape == (3, 7, 6)]
        assert (len(masks), len(packed), len(relu_out)) == ((0, 0, 1) if trained else (0, 1, 0))

    def test_shape_mismatch(self):
        arrays, _, _ = mlp_ln_case(25)
        edges, nodes, w1, b1, w2, b2, gain, bias = [dc.Tensor(a) for a in arrays]
        bad = [
            ([], w1, b1, w2, b2, gain, bias),
            ([(edges, None), (nodes, [0])], w1, b1, w2, b2, gain, bias),
            ([(edges, None), (nodes, [0]), (nodes, [1])], w1, b2, w2, b2, gain, bias),
            ([(edges, None), (nodes, [0]), (nodes, [1])], w1, b1, w2.data.T, b2, gain, bias),
            ([(edges, None), (nodes, [0]), (nodes, [1])], w1, b1, w2, b2, b1, bias),
        ]
        for args in bad:
            with pytest.raises(dc.ShapeMismatchError):
                dc.mlp_ln(*args)
        # a bad index value fails netgraph.node_indices
        bad_values = [
            ([(edges, None), (nodes, [0]), (nodes, [4])], w1, b1, w2, b2, gain, bias),
            ([(edges, None), (nodes, [0.0]), (nodes, [1])], w1, b1, w2, b2, gain, bias),
            ([(edges, None), (nodes, [0]), (nodes, [True])], w1, b1, w2, b2, gain, bias),
        ]
        for args in bad_values:
            with pytest.raises(GraphError):
                dc.mlp_ln(*args)


def dense_relu_case(seed):
    """``[2, 5, 4]`` inputs, ``[3, 4]`` weights and a ``[3]`` bias; the
    first input row is zero and the bias' middle entry too, so some of
    the layer's outputs are exactly 0 before the ReLU."""
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(2, 5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
    x[0, 0] = 0.0
    b[1] = 0.0
    return [x, w, b]


class TestDenseRelu:
    @pytest.mark.parametrize(
        "tracked",
        list(itertools.product([False, True], repeat=3))[1:],
        ids=lambda flags: "+".join(name for name, f in zip(["x", "w", "b"], flags) if f),
    )
    def test_bitwise_equals_relu_of_affine_for_every_tracked_subset(self, tracked):
        # the forward and every gradient, to the bit (a -0.0 included), for
        # each subset of tracked inputs, and each gradient the one every
        # input tracked gives
        arrays = dense_relu_case(33)
        assert np.any(dc.affine(*arrays).data == 0.0)

        def run(op, flags):
            tensors = [dc.Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
            with dc.Tape() as tape:
                y = op(*tensors)
                out = _weighted_total(y)
            return [y.data] + tape.gradient(out, [t for t in tensors if t.requires_grad])

        def unfused(x, w, b):
            return dc.relu(dc.affine(x, w, b))

        fused = run(dc.dense_relu, tracked)
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in run(unfused, tracked)]
        every = run(dc.dense_relu, [True] * 3)
        assert [every[0].tobytes()] + [every[1 + i].tobytes() for i in np.flatnonzero(tracked)] == [
            a.tobytes() for a in fused
        ]

    def test_every_gradient_matches_fd(self):
        # away from the kink: every output before the ReLU is far from 0
        # next to the step
        rng = np.random.default_rng(34)
        arrays = [rng.normal(size=(2, 5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)]
        assert np.min(np.abs(dc.affine(*arrays).data)) > 1e-3
        weights = np.cos(np.arange(2 * 5 * 3.0))
        for i in range(3):

            def f(t, i=i):
                args = [dc.Tensor(a) for a in arrays]
                args[i] = t
                return total(dc.dense_relu(*args), weights)

            err = finite_difference_check(f, arrays[i])
            assert err < 1e-6, f"input {i}: rel err {err}"

    def test_tape_keeps_a_packed_mask(self):
        # with fixed parameters: the weights and the ReLU mask packed into
        # one uint8 of ceil(3 / 8) bytes per row of the 3 units, no boolean
        # mask and no input or output activation
        x, w, b = dense_relu_case(35)
        with dc.Tape() as tape:
            dc.dense_relu(dc.Tensor(x, requires_grad=True), w, b)
        (_, _, run), = tape._ops
        kept = [c.cell_contents for c in run.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert sorted((a.dtype.str, a.shape) for a in kept) == sorted([("|u1", (2, 5, 1)), ("<f8", (3, 4))])

    def test_shape_mismatch(self):
        x, w, b = [dc.Tensor(a) for a in dense_relu_case(36)]
        bad = [
            (x, dc.Tensor(w.data[:, :3]), b),
            (x, dc.Tensor(w.data.reshape(-1)), b),
            (x, w, dc.Tensor(b.data[:2])),
            (x, w, dc.Tensor(b.data.reshape(1, 3))),
            (dc.Tensor(x.data[..., :3]), w, b),
        ]
        for args in bad:
            with pytest.raises(dc.ShapeMismatchError):
                dc.dense_relu(*args)


class TestSigmoid:
    def test_midpoint(self):
        assert dc.sigmoid(dc.Tensor([0.0])).data.tolist() == [0.5]

    def test_saturation_no_overflow(self):
        y = dc.sigmoid(dc.Tensor([50.0, 700.0, -700.0]))
        assert y.data[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(y.data))

    def test_derivative_at_zero(self):
        (g,) = taped_gradient(lambda x: total(dc.sigmoid(x)), np.array([0.0]))
        assert g.tolist() == [0.25]


class TestSoftMaximum:
    def test_equal_elements_identity(self):
        for tau in (1.0, 0.1, 0.01):
            out = dc.soft_maximum(dc.Tensor(np.full(7, 2.5)), tau)
            assert float(out.data) == 2.5

    def test_two_element_value(self):
        out = dc.soft_maximum(dc.Tensor([0.0, 1.0]), 0.1)
        expect = softmax_temperature_reference([0.0, 1.0], 0.1)
        assert float(out.data) == pytest.approx(expect, rel=1e-12)
        assert float(out.data) == pytest.approx(0.9999546, abs=1e-7)

    def test_large_tau_approaches_mean(self):
        out = dc.soft_maximum(dc.Tensor([0.0, 1.0]), 1e6)
        assert float(out.data) == pytest.approx(0.5, abs=1e-6)

    def test_upper_bound_and_monotone_approach(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, int(rng.integers(2, 12)))
            hard = x.max()
            prev = None
            for tau in (1.0, 0.1, 0.01):
                val = float(dc.soft_maximum(dc.Tensor(x), tau).data)
                assert val <= hard + tau * math.log(x.size) + 1e-12
                if prev is not None:
                    assert abs(hard - val) <= abs(hard - prev) + 1e-12
                prev = val

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 2.0, 9)
        base = float(dc.soft_maximum(dc.Tensor(x), 0.1).data)
        for _ in range(5):
            perm = rng.permutation(9)
            assert float(dc.soft_maximum(dc.Tensor(x[perm]), 0.1).data) == pytest.approx(base, rel=1e-13)

    def test_stability_at_large_magnitudes(self):
        out = dc.soft_maximum(dc.Tensor([100.0, 200.0, 150.0]), 0.1)
        assert float(out.data) == pytest.approx(200.0, rel=1e-9)

    @pytest.mark.parametrize("shape", [(9,), (1, 80)], ids=["vector", "row"])
    def test_bitwise_equals_element_wise_chain(self, shape):
        # the descent passes a [1, E] row of utilizations
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.uniform(0.0, 2.0, shape) * rng.uniform(0.1, 10.0)
            tau = float(rng.uniform(0.01, 1.0))
            g_out = float(rng.normal())
            value, grad = value_and_gradient(lambda t: dc.soft_maximum(t, tau), x, g_out)
            ref_value, ref_grad = soft_maximum_chain(x, tau, g_out)
            assert value == ref_value and value.shape == ()
            assert np.array_equal(grad, ref_grad)

    def test_errors(self):
        with pytest.raises(dc.EmptyVectorError):
            dc.soft_maximum(dc.Tensor(np.array([])), 0.1)
        with pytest.raises(dc.NonPositiveTemperatureError):
            dc.soft_maximum(dc.Tensor([1.0]), 0.0)

    @pytest.mark.parametrize(
        "tau, error",
        [
            (True, GraphError),
            (np.True_, GraphError),
            ("0.1", GraphError),
            (None, GraphError),
            (0.1 + 0j, GraphError),
            (np.array([0.1, 0.2]), DimensionMismatchError),
        ],
        ids=["bool", "np_bool", "string", "none", "complex", "array"],
    )
    def test_temperature_that_is_not_one_real_number_rejected(self, tau, error):
        # a cast would read True as 1.0, and a comparison of a string or
        # an array with 0 raises numpy's TypeError or ValueError
        with pytest.raises(error):
            dc.soft_maximum(dc.Tensor([0.0, 1.0]), tau)

    @pytest.mark.parametrize("tau", [np.nan, -0.5, -np.inf], ids=["nan", "negative", "minus_inf"])
    def test_temperature_nan_or_not_positive_rejected(self, tau):
        with pytest.raises(dc.NonPositiveTemperatureError):
            dc.soft_maximum(dc.Tensor([0.0, 1.0]), tau)

    def test_temperature_of_any_real_type_or_infinite(self):
        # one number of any real type is the float it holds, and an
        # infinite temperature weighs every entry alike
        x = dc.Tensor([0.0, 1.0, 5.0])
        for tau in (np.array(2.0), np.float32(2.0), np.int64(2), 2):
            assert dc.soft_maximum(x, tau).item() == dc.soft_maximum(x, 2.0).item()
        assert dc.soft_maximum(x, np.inf).item() == 2.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "minus_inf", "nan"])
    def test_non_finite_entry_rejected(self, bad):
        # the max shift turns an infinity into inf - inf = NaN, and a NaN
        # entry would give NaN without a warning
        with pytest.raises(dc.DiffcoreError, match="infinite"):
            dc.soft_maximum(dc.Tensor([1.0, bad]), 0.1)


class TestBinaryCrossEntropy:
    def test_perfect_predictions(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        p = np.array([1e-9, 1.0 - 1e-9, 1.0, 0.0])
        loss = dc.binary_cross_entropy(dc.Tensor(p), labels)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-5)

    def test_uniform_prediction_is_ln2(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        loss = dc.binary_cross_entropy(dc.Tensor(np.full(5, 0.5)), labels)
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-12)
        # a soft label anywhere in [0, 1], ends included, is accepted
        loss = dc.binary_cross_entropy(dc.Tensor(np.full(3, 0.5)), np.array([0.0, 0.3, 1.0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_monotone_toward_label(self):
        labels = np.array([1.0])
        losses = [
            float(dc.binary_cross_entropy(dc.Tensor([p]), labels).data)
            for p in (0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert losses == sorted(losses, reverse=True)

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.binary_cross_entropy(dc.Tensor(np.zeros(3)), np.zeros(4))

    @pytest.mark.parametrize("bad", [2.0, -0.5, np.nan, np.inf])
    def test_labels_outside_unit_interval_rejected(self, bad):
        # a label above 1 makes the loss negative, and a NaN one makes it NaN
        with pytest.raises(dc.DiffcoreError, match="labels"):
            dc.binary_cross_entropy(dc.Tensor([0.9, 0.9, 0.9]), np.array([0.0, 1.0, bad]))

    def test_nan_probability_rejected(self):
        # the clamp passes NaN through to the loss; an infinite probability
        # is clamped, as any other outside [0, 1]
        with pytest.raises(dc.DiffcoreError, match="NaN"):
            dc.binary_cross_entropy(dc.Tensor([0.5, np.nan]), np.array([0.0, 1.0]))
        clamped = [1.0 - dc.BCE_CLAMP, dc.BCE_CLAMP]
        expect = dc.binary_cross_entropy(dc.Tensor(clamped), np.array([0.0, 1.0])).item()
        assert dc.binary_cross_entropy(dc.Tensor([np.inf, -np.inf]), np.array([0.0, 1.0])).item() == expect

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_batch_rejected(self, shape):
        # its mean would be NaN, with numpy's "Mean of empty slice" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dc.EmptyVectorError):
                dc.binary_cross_entropy(dc.Tensor(np.zeros(shape)), np.zeros(shape))

    def test_bitwise_equals_element_wise_chain(self):
        # entries at and beyond both clamps get a zero gradient
        rng = np.random.default_rng(32)
        edges = [-0.5, 0.0, 1e-9, 1e-7, 1.0 - 1e-7, 1.0, 1.5]
        for _ in range(100):
            p = rng.uniform(0.0, 1.0, (4, 10))
            p.flat[rng.choice(p.size, len(edges), replace=False)] = edges
            labels = (rng.random(p.shape) < 0.5).astype(float)
            g_out = float(rng.normal())
            value, grad = value_and_gradient(lambda t: dc.binary_cross_entropy(t, labels), p, g_out)
            ref_value, ref_grad = binary_cross_entropy_chain(p, labels, g_out)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
            assert np.all(grad[(p <= 1e-7) | (p >= 1.0 - 1e-7)] == 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(0.05, 0.95, 6)
        labels = (rng.random(6) < 0.5).astype(float)
        assert_grads_match(lambda q: dc.binary_cross_entropy(q, labels), [p])


class TestReshape:
    def test_shape_the_data_cannot_take_rejected(self):
        # the package's shape error, as every other diffcore shape check
        # raises, not numpy's ValueError
        for shape in [(4,), (2, 2), (5, -1)]:
            with pytest.raises(dc.ShapeMismatchError):
                dc.reshape(dc.Tensor(np.ones(6)), shape)
        assert dc.reshape(dc.Tensor(np.ones(6)), (3, -1)).shape == (3, 2)


class TestGatherAndSegments:
    def test_index_rows_matches_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 4))
        idx = np.array([4, 0, 0, 2, 3, 1, 4])
        y = dc.index_rows(dc.Tensor(x), idx)
        for j, i in enumerate(idx):
            assert np.array_equal(y.data[:, j, :], x[:, i, :])
        # a negative index must not wrap around, and a float or bool one
        # must not be cast to row 0, 1 or 2: each fails netgraph.node_indices
        for bad in ([-1, 0], [0, 5], [0.7, 2.2], [True, False], np.array([1.0])):
            with pytest.raises(GraphError):
                dc.index_rows(dc.Tensor(x), bad)

    def test_segment_sum_matches_loop(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 7, 3))
        idx = np.array([1, 1, 0, 4, 4, 4, 0])
        y = dc.segment_sum(dc.Tensor(x), idx, 5)
        expect = np.zeros((2, 5, 3))
        for j, i in enumerate(idx):
            expect[:, i, :] += x[:, j, :]
        assert np.allclose(y.data, expect, atol=1e-15)
        # -1 must not land in bucket 4, nor 1.5 in bucket 1
        for bad in ([1, 1, 0, 4, 4, 4, -1], [1, 1, 0, 5, 4, 4, 0], [1.5, 1, 0, 4, 4, 4, 0], [True] * 7):
            with pytest.raises(GraphError):
                dc.segment_sum(dc.Tensor(x), np.array(bad), 5)
        with pytest.raises(GraphError):
            dc.segment_sum(dc.Tensor(x[:, :3]), [0.5, 1.5, 1.2], 2)
        # an index of the wrong length is a shape error
        with pytest.raises(dc.ShapeMismatchError):
            dc.segment_sum(dc.Tensor(x), idx[:6], 5)

    def test_empty_segment_is_zero(self):
        x = np.ones((4, 2))
        y = dc.segment_sum(dc.Tensor(x), np.array([0, 0, 3, 3]), 5)
        assert np.array_equal(y.data[1], np.zeros(2))
        assert np.array_equal(y.data[2], np.zeros(2))
        assert np.array_equal(y.data[4], np.zeros(2))

    def test_empty_index_gives_zeros(self):
        y = dc.segment_sum(dc.Tensor(np.zeros((0, 3))), [], 2)
        assert np.array_equal(y.data, np.zeros((2, 3)))
        (g,) = taped_gradient(lambda x: total(dc.index_rows(x, [])), np.ones((4, 3)))
        assert np.array_equal(g, np.zeros((4, 3)))

    def test_segment_sum_permutation_invariant(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 3))
        idx = np.array([0, 1, 1, 2, 0, 2])
        perm = rng.permutation(6)
        a = dc.segment_sum(dc.Tensor(x), idx, 3)
        b = dc.segment_sum(dc.Tensor(x[perm]), idx[perm], 3)
        assert np.allclose(a.data, b.data, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        idx = np.array([2, 0, 1, 1, 2])
        arrays = [rng.normal(size=(5, 3))]
        assert_grads_match(
            lambda x: total(dc.sigmoid(dc.segment_sum(x, idx, 3))), arrays
        )
        arrays = [rng.normal(size=(4, 5))]
        assert_grads_match(
            lambda x: total(dc.sigmoid(dc.index_rows(x, idx))), arrays
        )


_MLP_PARAMS = [np.random.default_rng(40).normal(size=s) for s in [(5, 3), (5,), (3, 5), (3,), (3,), (3,)]]
# every op that takes an index array, as a function of its input and the
# index, and whether the index sums the rows into four buckets (one index
# per row) or gathers from four rows
INDEXED_OPS = {
    "index_rows": (dc.index_rows, False),
    "segment_sum": (lambda x, idx: dc.segment_sum(x, idx, 4), True),
    "mlp_ln_gathered": (lambda x, idx: dc.mlp_ln([(x, idx)], *_MLP_PARAMS), False),
    "mlp_ln_summed": (lambda x, idx: dc.mlp_ln([(x, idx, 4)], *_MLP_PARAMS), True),
}


# every op that sums rows into a bucket count, as a function of its input,
# the index and the count
SUMMED_OPS = {
    "segment_sum": dc.segment_sum,
    "mlp_ln_summed": lambda x, idx, n: dc.mlp_ln([(x, idx, n)], *_MLP_PARAMS),
}


def _indexed_input(summed: bool, idx) -> np.ndarray:
    return np.random.default_rng(41).normal(size=(2, np.size(idx) if summed else 4, 3))


@pytest.mark.parametrize("op", INDEXED_OPS)
@pytest.mark.parametrize("bad", [[0, True], [np.True_, 2]], ids=["bool", "np_bool"])
def test_bool_among_integer_indices_rejected(op, bad):
    # numpy reads both lists as int64, with the bool as row 1
    fn, summed = INDEXED_OPS[op]
    x = dc.Tensor(_indexed_input(summed, bad))
    with pytest.raises(GraphError):
        fn(x, bad)
    fn(x, [int(i) for i in bad])


@pytest.mark.parametrize("op", INDEXED_OPS)
@pytest.mark.parametrize("bad", [[[0, 1], [1, 0]], 1], ids=["two_axes", "scalar"])
def test_index_of_other_than_one_axis_rejected(op, bad):
    # a gathered term would take [2, 2] rows of a [4, 3] input, whose
    # gradient then failed to scatter back with numpy's IndexError; a
    # scalar would drop the row axis
    fn, summed = INDEXED_OPS[op]
    with pytest.raises(dc.ShapeMismatchError):
        fn(dc.Tensor(_indexed_input(summed, bad)), bad)


@pytest.mark.parametrize("op", INDEXED_OPS)
def test_input_without_rows_rejected(op):
    # index_rows and segment_sum read the rows of a one-axis input as
    # shape[-2], which numpy's IndexError reported
    fn, _ = INDEXED_OPS[op]
    with pytest.raises(dc.ShapeMismatchError):
        fn(dc.Tensor(np.ones(4)), [0, 1, 2, 3])


@pytest.mark.parametrize("op", SUMMED_OPS)
@pytest.mark.parametrize("bad", [2.5, True, "2", 0], ids=["float", "bool", "string", "zero"])
def test_bucket_count_that_is_not_a_size_rejected(op, bad):
    # a float count would reach the bucket array's shape, and a string
    # one a comparison with the indices; each fails
    # netgraph.positive_integer
    idx = [0, 1, 0, 1]
    x = dc.Tensor(_indexed_input(True, idx))
    with pytest.raises(GraphError, match="bucket count"):
        SUMMED_OPS[op](x, idx, bad)
    assert SUMMED_OPS[op](x, idx, np.int64(4)).shape[-2] == 4


def test_summed_term_without_index_rejected():
    x = dc.Tensor(_indexed_input(True, [0, 1, 2, 3]))
    with pytest.raises(GraphError):
        dc.mlp_ln([(x, None, 4)], *_MLP_PARAMS)


@pytest.mark.parametrize("op", INDEXED_OPS)
def test_editing_the_index_after_the_forward_changes_nothing(op):
    # the op keeps its own copy of the index, so the caller's array may be
    # reused between the forward and the gradient
    fn, summed = INDEXED_OPS[op]
    results = []
    for edit in (False, True):
        idx = np.array([2, 0, 1, 0])
        x = dc.Tensor(_indexed_input(summed, idx), requires_grad=True)
        with dc.Tape() as tape:
            y = fn(x, idx)
            out = total(y, np.cos(np.arange(y.size)))
        if edit:
            idx[:] = 3
        results.append((y.data.copy(), tape.gradient(out, x)))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


class TestTapeMechanics:
    def test_square_gradient(self):
        (g,) = taped_gradient(lambda x: dc.matmul(x, x), np.array([[3.0]]))
        assert g.tolist() == [[6.0]]

    def test_accumulation_when_input_used_twice(self):
        # f(x, y) = x*y + x  =>  df/dx = y + 1 (two paths into x)
        x = dc.Tensor(np.array([[2.0]]), requires_grad=True)
        y = dc.Tensor(np.array([[5.0]]), requires_grad=True)
        with dc.Tape() as tape:
            out = dc.add(dc.matmul(x, y), x)
        gx, gy = tape.gradient(out, [x, y])
        assert gx.tolist() == [[6.0]]
        assert gy.tolist() == [[2.0]]

    def test_not_scalar_output(self):
        x = dc.Tensor(np.zeros(3), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.add(x, x)
        with pytest.raises(dc.NotScalarOutputError):
            tape.gradient(y, x)

    def test_input_not_on_tape(self):
        x = dc.Tensor(np.zeros(3), requires_grad=True)
        stranger = dc.Tensor(np.zeros(3), requires_grad=True)
        with dc.Tape() as tape:
            y = total(dc.add(x, x))
        # an output the tape neither produced nor read would get zeros for
        # every input, however it depends on them
        outside = dc.soft_maximum(dc.add(x, x), 1.0)
        # the checks run before any backward, so the tape is not spent
        calls, (outs, ins, run) = [], tape._ops[-1]

        def spy(g):
            calls.append(g)
            return run(g)

        tape._ops[-1] = (outs, ins, spy)
        ops = list(tape._ops)
        with pytest.raises(dc.InputNotOnTapeError):
            tape.gradient(y, stranger)
        with pytest.raises(dc.InputNotOnTapeError):
            tape.gradient(y, [x, stranger])
        for wrt in (x, outside):
            with pytest.raises(dc.DiffcoreError, match="not computed on this tape"):
                tape.gradient(outside, wrt)
        assert calls == [] and tape._ops == ops
        assert np.array_equal(tape.gradient(y, x), np.full(3, 2.0))
        assert len(calls) == 1

    def test_untracked_input_not_on_tape(self):
        x = dc.Tensor(np.ones(3))  # requires_grad left False
        with dc.Tape() as tape:
            y = total(dc.add(x, x))
        with pytest.raises(dc.InputNotOnTapeError):
            tape.gradient(y, x)

    def test_unused_tracked_input_gets_zeros(self):
        x = dc.Tensor(np.ones(2), requires_grad=True)
        z = dc.Tensor(np.ones(2), requires_grad=True)
        with dc.Tape() as tape:
            y = total(dc.add(x, x))
            dc.add(z, 3.0)  # on tape, but not part of y
        assert np.array_equal(tape.gradient(y, z), np.zeros(2))
        # an untracked output, on no tape, depends on no tracked input
        with dc.Tape() as tape:
            dc.add(z, 3.0)
        untracked = total(dc.add(np.ones(2), 1.0))
        assert not untracked.requires_grad
        assert np.array_equal(tape.gradient(untracked, z), np.zeros(2))

    def test_no_tape_means_no_recording(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        y = total(dc.add(x, x))
        assert y.item() == 6.0

    def test_second_gradient_raises(self):
        # the first reverse pass drops every op once it has run
        x = dc.Tensor(np.ones(3), requires_grad=True)
        with dc.Tape() as tape:
            y = total(dc.add(x, x))
        assert np.array_equal(tape.gradient(y, x), np.full(3, 2.0))
        assert tape._ops == []
        with pytest.raises(dc.DiffcoreError, match="already"):
            tape.gradient(y, x)

    def test_gradient_of_output_wrt_itself(self):
        x = dc.Tensor(np.array(4.0), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.add(x, x)
        assert tape.gradient(y, y).item() == 1.0
        # a leaf the tape read is an output on it too
        with dc.Tape() as tape:
            y = dc.add(x, x)
        gx, gy = tape.gradient(x, [x, y])
        assert gx.item() == 1.0 and gy.item() == 0.0

    def test_tapes_exit_innermost_first(self):
        x = dc.Tensor(np.ones(2), requires_grad=True)
        outer = dc.Tape().__enter__()
        inner = dc.Tape().__enter__()
        try:
            # the out-of-order exit pops nothing: inner still records
            with pytest.raises(dc.DiffcoreError, match="innermost first"):
                outer.__exit__(None, None, None)
            dc.add(x, x)
            assert len(inner._ops) == 1 and outer._ops == []
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        dc.add(x, x)
        assert len(inner._ops) == 1 and outer._ops == []
        with pytest.raises(dc.DiffcoreError, match="innermost first"):
            outer.__exit__(None, None, None)

    def test_item_reads_any_size_one_tensor(self):
        # the sizes Tape.gradient accepts as a scalar output
        for shape in [(), (1,), (1, 1)]:
            value = dc.Tensor(np.full(shape, 3.5)).item()
            assert type(value) is float and value == 3.5
        for data in [np.zeros(0), np.zeros(2)]:
            with pytest.raises(ValueError):
                dc.Tensor(data).item()


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"w": np.zeros(2)}, lr=0.1)
        assert params["w"].tolist() == [1.0, 2.0]

    def test_first_step_magnitude(self):
        # hand computation: m-hat = g, v-hat = g^2 => delta = -lr * sign(g)/(1 + eps')
        params = {"w": np.array([0.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"w": np.array([0.5])}, lr=0.001)
        assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)

    def test_step_counter_increments(self):
        params = {"w": np.zeros(1)}
        state = dc.AdamState.for_params(params)
        for i in range(1, 4):
            dc.adam_step(state, params, {"w": np.ones(1)}, lr=0.01)
            assert state.step == i

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        state = dc.AdamState.for_params(params)
        with pytest.raises(dc.ShapeMismatchError):
            dc.adam_step(state, params, {"w": np.zeros(3)}, lr=0.01)

    @pytest.mark.parametrize("grads", [{"a": np.ones(2), "b": np.ones(2)}, {"a": np.ones(2)}], ids=["misshapen", "missing"])
    def test_rejected_step_writes_nothing(self, grads):
        # "a" comes first, so a check made while updating would move it
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"a": np.array([0.5, -1.0]), "b": np.array([2.0])}, lr=0.1)
        before = [state.step] + [d[k].tobytes() for d in (params, state.m, state.v) for k in params]
        with pytest.raises(dc.ShapeMismatchError):
            dc.adam_step(state, params, grads, lr=0.1)
        assert [state.step] + [d[k].tobytes() for d in (params, state.m, state.v) for k in params] == before

    @pytest.mark.parametrize(
        "grads, lr, error",
        [
            ({"a": np.ones(2), "b": np.array([np.nan])}, 0.1, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.array([-np.inf])}, 0.1, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.ones(1)}, np.nan, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.ones(1)}, np.inf, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.ones(1)}, 0.0, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.ones(1)}, -0.1, dc.DiffcoreError),
            ({"a": np.ones(2), "b": np.ones(1)}, [0.1], GraphError),
            ({"a": np.ones(2), "b": np.ones(1)}, True, GraphError),
            ({"a": np.ones(2), "b": [[1.0], [1.0, 2.0]]}, 0.1, GraphError),
            ({"a": np.ones(2), "b": ["x"]}, 0.1, GraphError),
            ({"a": np.ones(2), "b": np.array([True])}, 0.1, GraphError),
        ],
        ids=[
            "nan_gradient", "inf_gradient", "nan_lr", "inf_lr", "zero_lr", "negative_lr", "list_lr",
            "bool_lr", "ragged_list_gradient", "string_list_gradient", "bool_gradient",
        ],
    )
    def test_bad_gradient_or_rate_writes_nothing(self, grads, lr, error):
        # the bad entry is on "b", after "a", so a check made while
        # updating would already have moved "a" and its moments
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"a": np.array([0.5, -1.0]), "b": np.array([2.0])}, lr=0.1)
        before = [state.step] + [d[k].tobytes() for d in (params, state.m, state.v) for k in params]
        with pytest.raises(error):
            dc.adam_step(state, params, grads, lr=lr)
        assert [state.step] + [d[k].tobytes() for d in (params, state.m, state.v) for k in params] == before

    def test_list_gradient_steps_as_its_array(self):
        # a gradient passes netgraph.real_values, so a nested list of
        # numbers is read as the float64 array of its entries
        steps = []
        for g in ([[0.5, -1.0]], np.array([[0.5, -1.0]])):
            params = {"w": np.array([[1.0, 2.0]])}
            state = dc.AdamState.for_params(params)
            dc.adam_step(state, params, {"w": g}, lr=0.1)
            steps.append([params["w"].tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes()])
        assert steps[0] == steps[1]


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + np.eye(4)

        def f(x):
            return dc.reshape(dc.matmul(dc.reshape(x, (1, 4)), dc.matmul(dc.Tensor(A), dc.reshape(x, (4, 1)))), ())

        err = finite_difference_check(f, rng.normal(size=4))
        assert err < 1e-9

    def test_soft_maximum(self):
        rng = np.random.default_rng(16)
        err = finite_difference_check(
            lambda x: dc.soft_maximum(x, 0.1), rng.uniform(0.0, 2.0, 8)
        )
        assert err < 1e-4

    def test_entries_below_roundoff_floor_pass(self):
        # gradient entries span 1e-11 .. 1; a per-entry relative error would
        # read ~1 on the smallest one from central-difference roundoff alone
        err = finite_difference_check(
            lambda x: dc.soft_maximum(x, 0.07), np.array([0.0, 1.0, 2.0])
        )
        assert err < 1e-6

    def test_wrong_gradient_fails(self):
        # the detached second factor drops half the gradient: taped x, true 2x
        rng = np.random.default_rng(17)
        err = finite_difference_check(
            lambda t: total(t, t.data), rng.normal(size=5)
        )
        assert err >= 0.4

    def test_zero_gradient_reports_zero(self):
        err = finite_difference_check(lambda t: total(t, np.zeros(3)), np.ones(3))
        assert err == 0.0


def _row_map_parts(const):
    """Row-map parts that gather, ignore and pass through their input."""
    return [
        lambda h: dc.index_rows(h, [2]),
        lambda h: dc.Tensor(const),
        lambda h: h,
        lambda h: dc.index_rows(h, [0, 1]),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_every_primitive_gradient_matches_fd(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(3, 4))
    pos = rng.uniform(0.5, 2.0, (3, 4))
    W = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    gain = rng.uniform(0.5, 1.5, 4)
    idx = rng.integers(0, 3, 5)
    prob = rng.uniform(0.05, 0.95, (3, 4))
    labels = (rng.random((3, 4)) < 0.5).astype(float)

    cases = [
        (lambda t: total(dc.add(t, dc.add(t, t))), x),
        (lambda t: total(dc.div(1.0, t)), pos),
        (lambda t: total(dc.relu(t)), pos),
        (lambda t: total(dc.sigmoid(t)), x),
        (lambda t: total(dc.matmul(t, dc.Tensor(W.T))), x),
        (lambda t: total(dc.affine(t, dc.Tensor(W), dc.Tensor(b))), x),
        (lambda t: total(dc.layer_normalize(t, dc.Tensor(gain), dc.Tensor(np.zeros(4)))), x),
        (lambda t: total(dc.sigmoid(dc.index_rows(t, idx))), x.T),
        (lambda t: total(dc.sigmoid(dc.segment_sum(t, np.array([1, 0, 1]), 2))), x),
        # parts of 1, 2 (a constant), 3 (the input itself) and 2 rows; the
        # cosine weights tell every row apart, so a slice handed to the
        # wrong part shows
        (
            lambda t: total(
                dc.sigmoid(dc.map_rows(lambda part: (part(t),), _row_map_parts(W))[0]), np.cos(np.arange(32.0))
            ),
            x,
        ),
        (lambda t: dc.soft_maximum(dc.reshape(t, (12,)), 0.5), pos),
        (lambda t: dc.binary_cross_entropy(t, labels), prob),
    ]
    for i, (fn, point) in enumerate(cases):
        err = finite_difference_check(fn, point)
        assert err < 1e-4, f"case {i}: rel err {err}"


_RNG = np.random.default_rng(18)
_W = _RNG.normal(size=(2, 4))
_W_SUM = _RNG.normal(size=(2, 6))
_OTHER = _RNG.normal(size=(3, 2))
_C = _RNG.normal(size=(3, 4))
_POS = _RNG.uniform(0.5, 2.0, (3, 4))
_W1 = _RNG.normal(size=(5, 8))
_W2 = _RNG.normal(size=(3, 5))
_LABELS = (_RNG.random((3, 4)) < 0.5).astype(float)

# ops whose backward reads nothing of their input ``h``: every parameter and
# other operand is a constant, so the op must not keep ``h.data`` alive
UNREAD_INPUT_OPS = [
    ("relu", dc.relu),
    ("dense_relu", lambda h: dc.dense_relu(h, dc.Tensor(_W), dc.Tensor(_W[:, 0]))),
    ("sigmoid", dc.sigmoid),
    ("layer_normalize", lambda h: dc.layer_normalize(h, dc.Tensor(_POS[0]), dc.Tensor(_C[0]))),
    ("affine", lambda h: dc.affine(h, dc.Tensor(_W), dc.Tensor(_W[:, 0]))),
    ("affine_sum", lambda h: dc.affine_sum([h, dc.Tensor(_OTHER)], dc.Tensor(_W_SUM), dc.Tensor(_W[:, 1]))),
    ("index_rows", lambda h: dc.index_rows(h, [2, 0, 0, 1])),
    # h as a plain term and as a gathered one
    (
        "mlp_ln",
        lambda h: dc.mlp_ln(
            [(h, None), (h, [2, 0, 0])], dc.Tensor(_W1), dc.Tensor(_W1[:, 0]), dc.Tensor(_W2),
            dc.Tensor(_W2[:, 0]), dc.Tensor(_POS[1, :3]), dc.Tensor(_C[1, :3]),
        ),
    ),
    ("segment_sum", lambda h: dc.segment_sum(h, np.array([1, 0, 1]), 2)),
    # h passed through twice, so two row slices of one gradient reach it
    ("map_rows", lambda h: dc.map_rows(lambda part: (part(h),), [*_row_map_parts(_C[:1]), lambda h: h])[0]),
    # keeps the clamped probabilities, a new array, and not h
    ("binary_cross_entropy", lambda h: dc.binary_cross_entropy(h, _LABELS)),
    ("add", lambda h: dc.add(h, _C)),
    ("div", lambda h: dc.div(h, _POS)),
    ("matmul", lambda h: dc.matmul(h, dc.Tensor(_W.T))),
]


def _weighted_total(y: dc.Tensor) -> dc.Tensor:
    """A scalar that reads every output entry with a distinct weight."""
    return total(y, np.cos(np.arange(y.size) + 1.0))


@pytest.mark.parametrize("op", [fn for _, fn in UNREAD_INPUT_OPS], ids=[n for n, _ in UNREAD_INPUT_OPS])
def test_backward_does_not_retain_unread_input(op):
    x0 = np.random.default_rng(19).normal(size=(3, 4))
    x = dc.Tensor(x0, requires_grad=True)
    with dc.Tape() as tape:
        h = dc.add(x, x)
        freed = weakref.ref(h.data)
        y = op(h)
        del h
        gc.collect()
        assert freed() is None, "the tape keeps the op's input array alive"
        out = _weighted_total(y)
    grad = tape.gradient(out, x)
    fd = central_difference(lambda v: _weighted_total(op(dc.add(dc.Tensor(v), dc.Tensor(v)))).item(), x0, 1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize(
    "op, shapes",
    [(dc.add, [(3, 4), (4,)]), (dc.div, [(3, 4), (1, 4)]), (dc.matmul, [(2, 3, 4), (4, 5)])],
    ids=["add", "div", "matmul"],
)
@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_operand_gradient_does_not_depend_on_the_other_being_tracked(op, shapes, which):
    arrays = [np.random.default_rng(27).uniform(0.5, 2.0, s) for s in shapes]

    def gradients(tracked):
        tensors = [dc.Tensor(a, requires_grad=t) for a, t in zip(arrays, tracked)]
        with dc.Tape() as tape:
            out = _weighted_total(op(*tensors))
        return tape.gradient(out, tensors[which])

    alone = gradients([i == which for i in range(2)])
    assert np.array_equal(alone, gradients([True, True]))


@pytest.mark.parametrize("seed", range(8))
def test_mlp_ln_gradients_do_not_depend_on_which_inputs_are_tracked(seed):
    # the subsets leave some of each layer's flags unset, so each layer's
    # slice of the input flags must reach its own gradients
    arrays, fused, _ = mlp_ln_case(29)
    tracked = np.random.default_rng(seed).random(len(arrays)) < 0.5
    tracked[seed], tracked[(seed + 3) % len(arrays)] = True, False

    def gradients(flags):
        tensors = [dc.Tensor(a, requires_grad=bool(f)) for a, f in zip(arrays, flags)]
        with dc.Tape() as tape:
            out = _weighted_total(fused(*tensors))
        return tape.gradient(out, [t for t in tensors if t.requires_grad])

    every = gradients([True] * len(arrays))
    some = gradients(tracked)
    for i, g in zip(np.flatnonzero(tracked), some):
        assert np.array_equal(g, every[i]), f"input {i}"
