"""Span tracing of ``routegrad`` from outside, by wrapping its public calls.

:func:`installed` replaces each function in :data:`TARGETS` with a wrapper
that records a span (name, start, end, parent) in a :class:`Tracer`, and
puts the originals back on exit.  Spans stay in memory until
:meth:`Tracer.write`.  A span's self time is its duration minus the time
its child spans cover.

While a ``diffcore.Tape`` is open, ``tracemalloc`` runs so that the bytes
the tape retains up to its ``gradient`` call can be read off.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from routegrad import diffcore, exact_routing, netgraph, surrogate

STEP = "driver.step"

DIFFCORE_OPS = (
    "affine_sum",
    "affine",
    "layer_normalize",
    "relu",
    "sigmoid",
    "index_rows",
    "segment_sum",
    "reshape",
    "soft_maximum",
    "binary_cross_entropy",
    "adam_step",
)


def _size(x) -> int:
    return int(np.size(x.data if isinstance(x, diffcore.Tensor) else x))


def _rows_out(weights) -> int:
    return int(np.shape(weights.data if isinstance(weights, diffcore.Tensor) else weights)[0])


def _affine_flops(x, weights, bias=None) -> int:
    return 2 * _size(x) * _rows_out(weights)


def _affine_sum_flops(xs, weights, bias=None) -> int:
    return 2 * sum(_size(x) for x in xs) * _rows_out(weights)


FLOPS = {"diffcore.affine": _affine_flops, "diffcore.affine_sum": _affine_sum_flops}

# (owner, attribute, span name).  ``exact_routing`` imported
# ``validate_weights`` by name, so its own binding is the one it calls.
TARGETS = (
    [
        (exact_routing, "shortest_path_tree", "exact_routing.shortest_path_tree"),
        (exact_routing, "link_loads", "exact_routing.link_loads"),
        (exact_routing, "exact_max_utilization", "exact_routing.exact_max_utilization"),
        (exact_routing, "routing_matrix", "exact_routing.routing_matrix"),
        (exact_routing, "validate_weights", "netgraph.validate_weights"),
        (netgraph, "validate_weights", "netgraph.validate_weights"),
    ]
    + [(diffcore, op, f"diffcore.{op}") for op in DIFFCORE_OPS]
    + [
        (diffcore.Tape, "gradient", "diffcore.tape_gradient"),
        (surrogate, "forward", "surrogate.forward"),
        (surrogate, "query_indicators", "surrogate.query_indicators"),
        (surrogate.GnnModel, "tensors", "surrogate.gnnmodel_tensors"),
    ]
)


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span index, time covered by children]
        self._tape_tracing = False

    def begin(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self._open.append([len(self.spans) - 1, 0.0])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        now = perf_counter()
        opened, covered = self._open.pop()
        assert opened == index, "spans must close in the order they opened"
        span = self.spans[index]
        span[2] = now
        duration = now - span[1]
        span[4] = duration - covered
        if self._open:
            self._open[-1][1] += duration

    def tape_entered(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._tape_tracing = True

    def tape_gradient(self) -> None:
        """Counts the bytes allocated since the tape opened and still held."""
        if self._tape_tracing:
            self.counters["diffcore.tape.retained_mb"] += tracemalloc.get_traced_memory()[0] / 2**20
        self.stop_memory()

    def stop_memory(self) -> None:
        if self._tape_tracing:
            tracemalloc.stop()
            self._tape_tracing = False

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, summed self time)`` over all spans."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, _, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return {k: (c, s) for k, (c, s) in out.items()}

    def write(self, path: str) -> None:
        rows = [[n, round(s - self.origin, 7), round(e - self.origin, 7), p, round(x, 7)] for n, s, e, p, x in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "self_s"], "spans": rows}, fh)


def _wrap(fn, name: str, tracer: Tracer):
    flops = FLOPS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if flops is not None:
            tracer.counters[f"{name}.flops"] += flops(*args, **kwargs)
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def _wrap_gradient(fn, tracer: Tracer):
    @functools.wraps(fn)
    def gradient(self, output, inputs):
        tracer.tape_gradient()
        return fn(self, output, inputs)

    return gradient


def _wrap_enter(fn, tracer: Tracer):
    @functools.wraps(fn)
    def enter(self):
        tracer.tape_entered()
        return fn(self)

    return enter


@contextmanager
def installed(tracer: Tracer):
    """Routes every call in :data:`TARGETS` through ``tracer`` while active."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
    saved.append((diffcore.Tape, "__enter__", diffcore.Tape.__enter__))
    try:
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            if name == "diffcore.tape_gradient":
                fn = _wrap_gradient(fn, tracer)
            setattr(owner, attr, _wrap(fn, name, tracer))
        diffcore.Tape.__enter__ = _wrap_enter(diffcore.Tape.__enter__, tracer)
        yield tracer
    finally:
        tracer.stop_memory()
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
