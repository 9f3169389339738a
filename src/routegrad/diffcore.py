"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray; operations executed while a
:class:`Tape` is active record backward closures, and
``Tape.gradient(scalar, inputs)`` replays them in reverse.  Ops executed
with no active tape are plain numpy calls, so inference pays no autodiff
overhead.

Retention contract: a backward closure never holds an input ``Tensor``.
When an op records itself it copies each input's uid (``None`` when the
input needs no gradient) and shape into locals, and the closure keeps
those plus only the arrays its formula reads.  ReLU keeps a boolean
mask, sigmoid its output, layer normalization the standardized values
and the inverse deviations, a quotient or matrix product an operand
only when the other side needs its gradient, a dense layer its
activations only when its weights need a gradient, binary cross-entropy
the clamped probabilities and the labels, and a row map (``map_rows``)
its part tapes and their row ranges.  The fused MLP block (``mlp_ln``)
keeps what its unfused chain would: the standardized values, the
inverse deviations and a boolean ReLU mask, its inputs only when its
first weights need a gradient, and its ReLU output, in place of the
mask, only when its second weights do.  An intermediate activation is
therefore freed as soon as the forward pass drops it, and a batched-GNN
gradient with fixed parameters retains about one f64 standardized block
plus one boolean mask per processed latent element, not the whole
forward graph.  The exceptions are inputs a formula needs (``div`` keeps
its divisor, ``soft_maximum`` its argument beside the exponentials) and
views: a ``reshape`` output shares its input's buffer, so it keeps it
alive for as long as the caller holds it.  The reverse pass drops each
op, and with it what the op kept, once its backward has run, so what a
tape retains is freed as the pass unwinds, and a tape gives one
gradient.

The two objectives the weight optimizer and the surrogate's training
descend, the temperature-weighted soft maximum and binary cross-entropy,
are one op each with a hand-written backward.  Also here: the Adam
update rule.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np


class DiffcoreError(ValueError):
    """Base class for differentiable-core errors."""


class ShapeMismatchError(DiffcoreError):
    """Operand shapes are incompatible."""


class NotScalarOutputError(DiffcoreError):
    """Gradients require a scalar (size-1) output."""


class InputNotOnTapeError(DiffcoreError):
    """A gradient was requested for a tensor the tape never saw."""


class EmptyVectorError(DiffcoreError):
    """An operation requiring a non-empty tensor received an empty one."""


class NonPositiveTemperatureError(DiffcoreError):
    """The soft-maximum temperature must be strictly positive."""


_uid_counter = itertools.count()
_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A float64 ndarray participating in autodiff.

    ``requires_grad`` marks a leaf whose gradient may later be requested;
    derived tensors inherit the flag from their inputs.
    """

    __slots__ = ("data", "requires_grad", "_uid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._uid = next(_uid_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        """The value of a size-1 tensor, of any shape, as a Python float."""
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Records operations for one reverse-mode gradient computation.

    Use as a context manager; ops run inside the block are recorded (on
    the innermost active tape only).  A tape records on the one thread
    that entered it.  Its reverse pass runs on the thread that calls
    :meth:`gradient`, except that a :func:`map_rows` op pulls its part
    tapes back on the pool.  The reverse pass drops each op as it runs
    it, so a tape gives one gradient.
    """

    def __init__(self):
        # (output uids, backward): the backward takes one gradient, or
        # None, per output
        self._ops: list[tuple[tuple[int, ...], object]] = []
        self._seen: set[int] = set()
        self._pulled = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _record(self, outs, grad_inputs: list[Tensor], backward) -> None:
        uids = tuple(o._uid for o in outs)
        self._ops.append((uids, backward))
        self._seen.update(uids)
        self._seen.update(t._uid for t in grad_inputs)

    def gradient(self, output: Tensor, inputs):
        """Gradients of a recorded scalar with respect to ``inputs``.

        Args:
            output: Scalar tensor computed under this tape.
            inputs: One tensor or a sequence of tensors.

        Returns:
            One ndarray (or a list matching ``inputs``), each shaped like
            the corresponding input.  An input that was recorded but does
            not influence the output gets a zero gradient.

        Raises:
            DiffcoreError: this tape has already been pulled back; it
                freed what it recorded as it went.
            NotScalarOutputError: ``output`` is not size-1.
            InputNotOnTapeError: an input never appeared on this tape
                (typically it was created without ``requires_grad``).
        """
        if self._pulled:
            raise DiffcoreError("this tape has already given its gradient; record on a new tape")
        single = isinstance(inputs, Tensor)
        wanted = [inputs] if single else list(inputs)
        if output.size != 1:
            raise NotScalarOutputError(f"output has shape {output.shape}; expected a scalar")

        self._pulled = True
        grads = self._pullback({output._uid: np.ones_like(output.data)})
        results = []
        for t in wanted:
            if t._uid == output._uid:
                results.append(np.ones_like(t.data))
                continue
            if t._uid not in self._seen:
                raise InputNotOnTapeError(
                    "input was never recorded on this tape; create it with "
                    "requires_grad=True and use it inside the tape context"
                )
            g = grads.get(t._uid)
            results.append(np.zeros_like(t.data) if g is None else np.asarray(g))
        return results[0] if single else results

    def _pullback(self, seeds: dict) -> dict:
        """Replays the recorded ops in reverse from ``seeds``, uid -> gradient.

        Each op is popped before it runs, so the arrays it saved are freed
        as the pass unwinds.  Returns the gradients no recorded op
        consumed: those of the tensors this tape read but did not produce.
        """
        grads = dict(seeds)
        ops = self._ops
        while ops:
            uids, backward = ops.pop()
            # no local holds an output gradient or the summands, so they
            # are freed before the next op runs; a one-output op gets its
            # gradient as the only reference, so it can free it sooner
            if len(uids) == 1:
                if uids[0] in grads:
                    _add_gradients(grads, backward(grads.pop(uids[0])))
            elif any(uid in grads for uid in uids):
                _add_gradients(grads, backward(*[grads.pop(uid, None) for uid in uids]))
        return grads


def _add_gradients(grads: dict, pairs) -> None:
    for in_uid, gin in pairs:
        acc = grads.get(in_uid)
        grads[in_uid] = gin if acc is None else acc + gin


def _finish(out_data, grad_inputs: list[Tensor], make_backward) -> Tensor:
    """Wraps op output; records backward only when needed."""
    tracked = [t for t in grad_inputs if t.requires_grad]
    out = Tensor(out_data, requires_grad=bool(tracked))
    tape = _active_tape()
    if tape is not None and tracked:
        tape._record((out,), tracked, make_backward(out))
    return out


def _tracked_uid(t):
    """The uid a backward closure reports ``t``'s gradient under, or None.

    None also for an absent optional input (``bias=None``).
    """
    return t._uid if t is not None and t.requires_grad else None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sums a gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(out):
        ua, sa, ub, sb = _tracked_uid(a), a.shape, _tracked_uid(b), b.shape

        def run(g):
            pairs = []
            if ua is not None:
                pairs.append((ua, _unbroadcast(g, sa)))
            if ub is not None:
                pairs.append((ub, _unbroadcast(g, sb)))
            return pairs

        return run

    return _finish(data, [a, b], backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(out):
        ua, sa, ub, sb = _tracked_uid(a), a.shape, _tracked_uid(b), b.shape
        a_data = a.data if b.requires_grad else None
        b_data = b.data

        def run(g):
            pairs = []
            if ua is not None:
                pairs.append((ua, _unbroadcast(g / b_data, sa)))
            if ub is not None:
                pairs.append((ub, _unbroadcast(-g * a_data / (b_data * b_data), sb)))
            return pairs

        return run

    return _finish(data, [a, b], backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(out):
        ua, orig = a._uid, a.shape
        return lambda g: [(ua, g.reshape(orig))]

    return _finish(data, [a], backward)


def _row_stack(outs) -> np.ndarray:
    """``np.concatenate`` of the outputs' rows, which must agree past axis 0."""
    if any(o.ndim == 0 or o.shape[1:] != outs[0].shape[1:] for o in outs):
        raise ShapeMismatchError(f"map_rows: part shapes {[o.shape for o in outs]}")
    return np.concatenate([o.data for o in outs], axis=0)


def _as_outputs(result) -> tuple:
    """A part's result in :func:`map_rows` as a tuple of Tensors."""
    return tuple(as_tensor(r) for r in result) if isinstance(result, tuple) else (as_tensor(result),)


def map_rows(fn, parts, wrt):
    """Row concatenation of ``fn(p)`` over ``parts``, pulled back in parallel.

    Args:
        fn: Maps one part to a Tensor of at least one axis, or to a tuple
            of such Tensors of one length for every part; each output
            must agree across the parts on every axis past the first.
        parts: Non-empty sequence of arguments for ``fn``; they are not
            differentiated.
        wrt: Every tracked tensor ``fn`` reads from outside its part.

    Returns:
        The row-stacked Tensor, or, when ``fn`` returns tuples, the tuple
        of row-stacked Tensors, one per output.

    With no active tape, or when no ``wrt`` tensor requires a gradient,
    this is the concatenation and nothing more.  Otherwise each ``fn(p)``
    runs on the calling thread under a tape of its own, and one op with
    every stacked output is recorded on the active tape.  Its backward
    seeds each part tape with its row slices of all the output gradients,
    pulls the parts back on a pool of :data:`POOL_WORKERS` threads, and
    sums each ``wrt`` gradient over the parts in reverse part order, the
    order one tape over every part would add them in.  With one worker,
    or when the backward already runs on a pool thread (a nested
    ``map_rows``), the parts are pulled back inline.

    Raises:
        ShapeMismatchError: there are no parts, their output counts
            differ, or their outputs do not stack by rows.
        DiffcoreError: a part reads a tracked tensor that is not in
            ``wrt``, whose gradient would otherwise be dropped.
    """
    tape = _active_tape()
    tracked = [t for t in wrt if t.requires_grad]
    taping = tape is not None and bool(tracked)
    wanted = {t._uid for t in tracked}
    results, tapes, read = [], [], set()
    for p in parts:
        if not taping:
            results.append(fn(p))
            continue
        with Tape() as part_tape:
            results.append(fn(p))
        # the tensors the part read but did not produce
        foreign = part_tape._seen.difference(*(uids for uids, _ in part_tape._ops))
        if foreign - wanted:
            raise DiffcoreError("map_rows: a part reads a tracked tensor that is not in wrt")
        read |= foreign
        tapes.append(part_tape)
    outs = [_as_outputs(r) for r in results]
    if not outs or any(len(o) != len(outs[0]) for o in outs):
        raise ShapeMismatchError(f"map_rows: part output counts {[len(o) for o in outs]}")
    columns = list(zip(*outs))
    if tape is not None and not taping and any(o.requires_grad for o in itertools.chain(*outs)):
        raise DiffcoreError("map_rows: a part reads a tracked tensor that is not in wrt")
    stacked = tuple(
        Tensor(_row_stack(column), requires_grad=taping and any(o.requires_grad for o in column))
        for column in columns
    )
    if any(o.requires_grad for o in stacked):
        offsets = [[0, *itertools.accumulate(o.shape[0] for o in column)] for column in columns]
        # per part, in reverse: its tape and, per output of the part that
        # is tracked, the output's index, uid and row range
        slots = [
            (
                part_tape,
                [
                    (j, column[k]._uid, offsets[j][k], offsets[j][k + 1])
                    for j, column in enumerate(columns)
                    if column[k].requires_grad
                ],
            )
            for k, part_tape in reversed(list(enumerate(tapes)))
        ]

        def backward(*gs):
            jobs = []
            for part_tape, seeds in slots:
                part_seeds: dict[int, np.ndarray] = {}
                _add_gradients(part_seeds, [(u, gs[j][lo:hi]) for j, u, lo, hi in seeds if gs[j] is not None])
                if part_seeds:
                    jobs.append((part_tape, part_seeds))
            totals: dict[int, np.ndarray] = {}
            for grads in _pull_back_parts(jobs):
                _add_gradients(totals, [(u, grads[u]) for u in read if u in grads])
                del grads
            return list(totals.items())

        tape._record(stacked, [t for t in tracked if t._uid in read], backward)
    return stacked if isinstance(results[0], tuple) else stacked[0]


# Threads that pull map_rows parts back: one per CPU this process may run
# on.  The pool starts on first use, so importing the package starts none,
# and concurrent.futures (about 0.5 MB resident) is imported only then.
if hasattr(os, "sched_getaffinity"):
    POOL_WORKERS = len(os.sched_getaffinity(0))
else:
    POOL_WORKERS = os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()


def _mark_pool_thread() -> None:
    _tls.pool_thread = True


def _pull_back_parts(jobs):
    """Yields ``tape._pullback(seeds)`` for each ``(tape, seeds)`` job, in order.

    The jobs go to the pool in order, at most ``POOL_WORKERS + 1`` of
    them submitted and not yet yielded at a time: each finished part
    holds a gradient for every ``wrt`` tensor it read, and the one job
    beyond the workers is there for a worker that finishes before the
    part ahead of it, which would otherwise wait idle until that part is
    yielded.  The jobs run inline instead when there is one worker or the
    caller is itself a pool thread: a pool thread that waited on the pool
    could leave no worker free to run what it waits for.
    """
    global _pool
    if POOL_WORKERS <= 1 or len(jobs) <= 1 or getattr(_tls, "pool_thread", False):
        for part_tape, seeds in jobs:
            yield part_tape._pullback(seeds)
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                POOL_WORKERS, thread_name_prefix="diffcore-pullback", initializer=_mark_pool_thread
            )
    pending = iter(jobs)
    futures = collections.deque(
        _pool.submit(part_tape._pullback, seeds) for part_tape, seeds in itertools.islice(pending, POOL_WORKERS + 1)
    )
    try:
        while futures:
            grads = futures.popleft().result()
            for part_tape, seeds in itertools.islice(pending, 1):
                futures.append(_pool.submit(part_tape._pullback, seeds))
            yield grads
            del grads
    finally:
        # on an error, no part is left running once it reaches the caller
        for f in futures:
            f.cancel()
        wait(futures)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch-broadcast semantics (ndim >= 2)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul operands must have ndim >= 2")
    data = a.data @ b.data

    def backward(out):
        ua, sa, ub, sb = _tracked_uid(a), a.shape, _tracked_uid(b), b.shape
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None

        def run(g):
            pairs = []
            if ua is not None:
                ga = g @ b_data.swapaxes(-1, -2)
                pairs.append((ua, _unbroadcast(ga, sa)))
            if ub is not None:
                gb = a_data.swapaxes(-1, -2) @ g
                pairs.append((ub, _unbroadcast(gb, sb)))
            return pairs

        return run

    return _finish(data, [a, b], backward)


# ---------------------------------------------------------------------------
# neural-network primitives


def affine(x, weights, bias=None) -> Tensor:
    """Dense layer ``y = x @ W.T + b``: :func:`affine_sum` of the one input ``x``."""
    return affine_sum([x], weights, bias)


def _accumulate(acc: np.ndarray, y: np.ndarray, y_owned: bool) -> np.ndarray:
    """``acc + y`` for a fresh ``acc``, summed in place when the shapes allow.

    The sum is written into ``acc``, or into ``y`` when the caller owns
    it, whichever already has the result's shape.  IEEE addition commutes,
    so the values are those of ``acc + y`` either way.
    """
    shape = np.broadcast_shapes(acc.shape, y.shape)
    if acc.shape == shape:
        acc += y
        return acc
    if y_owned and y.shape == shape:
        y += acc
        return y
    return acc + y


def affine_sum(xs, weights, bias=None) -> Tensor:
    """Dense layer ``y = concat(xs, -1) @ W.T + b`` over the trailing axis.

    Args:
        xs: Inputs ``[..., n_in_i]`` whose widths tile ``n_in``; they may
            broadcast against each other over leading axes.
        weights: ``[n_out, n_in]``.
        bias: ``[n_out]`` or None.

    The concatenation is never materialized: each input multiplies its own
    column block of ``weights``, and the products and the bias are summed
    in place wherever the broadcast shape allows.  Under a tape, the
    backward closure keeps the inputs only when ``weights`` requires a
    gradient, and the weight matrix only when an input does, so with fixed
    weights an activation is freed as soon as the caller drops it.
    """
    xs = [as_tensor(x) for x in xs]
    weights = as_tensor(weights)
    bias = None if bias is None else as_tensor(bias)
    widths = [x.shape[-1] for x in xs]
    if weights.ndim != 2 or sum(widths) != weights.shape[1]:
        raise ShapeMismatchError(
            f"affine_sum: input widths {widths} do not tile weights {weights.shape}"
        )
    n_out = weights.shape[0]
    if bias is not None and bias.shape != (n_out,):
        raise ShapeMismatchError(f"affine_sum: bias shape {bias.shape} vs out dim {n_out}")
    offsets = [0, *itertools.accumulate(widths)]

    out_data = None
    for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
        w_part = weights.data[:, lo:hi]
        y = (x.data.reshape(-1, hi - lo) @ w_part.T).reshape(x.shape[:-1] + (n_out,))
        out_data = y if out_data is None else _accumulate(out_data, y, y_owned=True)
    if bias is not None:
        out_data = _accumulate(out_data, bias.data, y_owned=False)

    def backward(out):
        slots = [(_tracked_uid(x), x.shape, lo, hi) for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])]
        uw, ub = _tracked_uid(weights), _tracked_uid(bias)
        w_shape = weights.shape
        w_data = weights.data if any(x.requires_grad for x in xs) else None
        saved = [x.data for x in xs] if weights.requires_grad else None
        out_shape = out.shape

        def run(g):
            g2 = g.reshape(-1, n_out)
            pairs = []
            for ux, x_shape, lo, hi in slots:
                if ux is not None:
                    gx = (g2 @ w_data[:, lo:hi]).reshape(out_shape[:-1] + (hi - lo,))
                    pairs.append((ux, _unbroadcast(gx, x_shape)))
            if uw is not None:
                gw = np.empty(w_shape)
                for x_data, (_, _, lo, hi) in zip(saved, slots):
                    xb = np.broadcast_to(x_data, out_shape[:-1] + (hi - lo,))
                    gw[:, lo:hi] = g2.T @ xb.reshape(-1, hi - lo)
                pairs.append((uw, gw))
            if ub is not None:
                pairs.append((ub, g2.sum(axis=0)))
            return pairs

        return run

    inputs = xs + [weights] + ([bias] if bias is not None else [])
    return _finish(out_data, inputs, backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(out):
        ux, mask = x._uid, x.data > 0.0
        return lambda g: [(ux, g * mask)]

    return _finish(data, [x], backward)


def sigmoid(x) -> Tensor:
    """Numerically stable logistic function: no overflow for any finite x."""
    x = as_tensor(x)
    e = np.exp(-np.abs(x.data))
    data = np.where(x.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(out):
        ux, y = x._uid, out.data
        return lambda g: [(ux, g * y * (1.0 - y))]

    return _finish(data, [x], backward)


LAYER_NORM_EPS = 1e-5


def _standardize(x: np.ndarray, out=None):
    """``(x - mean) / sqrt(var + 1e-5)`` over the trailing axis, into ``out``.

    Returns the standardized values and the inverse deviations; pass
    ``out=x`` to standardize an array the caller owns in place.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = np.subtract(x, mu, out=out)
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xc *= istd
    return xc, istd


def _standardize_backward(g, xhat, istd, gain, want_x: bool, want_gain: bool, want_bias: bool):
    """Gradients of ``xhat * gain + bias`` for the output gradient ``g``.

    Returns ``(gx, ggain, gbias)`` with None for each one not wanted.
    ``gx`` is ``(h - m1 - xhat * m2) * istd`` with ``h = g * gain`` and
    ``m1``, ``m2`` the trailing-axis means of ``h`` and ``h * xhat``,
    evaluated in ``h`` itself and one scratch array that the gain
    gradient then reuses; the scratch is freed on return.
    """
    f = xhat.shape[-1]
    gx = scratch = ggain = gbias = None
    if want_x:
        gx = g * gain
        m1 = gx.mean(axis=-1, keepdims=True)
        scratch = gx * xhat
        m2 = scratch.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=scratch)
        gx -= m1
        gx -= scratch
        gx *= istd
    if want_gain:
        scratch = np.multiply(g, xhat, out=scratch)
        ggain = scratch.reshape(-1, f).sum(axis=0)
    if want_bias:
        gbias = g.reshape(-1, f).sum(axis=0)
    return gx, ggain, gbias


def _check_norm_params(op: str, f: int, gain: Tensor, bias: Tensor) -> None:
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeMismatchError(f"{op}: gain {gain.shape} / bias {bias.shape} vs features {f}")


def layer_normalize(x, gain, bias) -> Tensor:
    """Per-vector standardization over the trailing feature axis.

    ``y = (x - mean) / sqrt(var + 1e-5) * gain + bias`` with population
    variance, computed independently for every leading index.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    _check_norm_params("layer_normalize", x.shape[-1], gain, bias)
    xhat, istd = _standardize(x.data)
    out_data = _accumulate(xhat * gain.data, bias.data, y_owned=False)

    def backward(out):
        ux, ug, ub = _tracked_uid(x), _tracked_uid(gain), _tracked_uid(bias)
        g_data = gain.data

        def run(g):
            gx, ggain, gbias = _standardize_backward(
                g, xhat, istd, g_data, ux is not None, ug is not None, ub is not None
            )
            return [(u, gu) for u, gu in ((ux, gx), (ug, ggain), (ub, gbias)) if u is not None]

        return run

    return _finish(out_data, [x, gain, bias], backward)


# ---------------------------------------------------------------------------
# row gather / segment reduction (graph plumbing)


def _row_indices(idx, n_rows: int, op: str) -> np.ndarray:
    """``idx`` as int64, rejecting any entry outside ``[0, n_rows)``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeMismatchError(f"{op}: index outside [0, {n_rows})")
    return idx


def _scatter_add(x: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[..., i, :] = sum of x[..., j, :] over j with idx[j] == i``.

    One matrix product with the ``[n_rows, len(idx)]`` one-hot of ``idx``,
    built in ``x.dtype`` on each call: for the surrogate that is the
    node-by-link incidence, 15 KB at 24 nodes and 80 links and 72 KB at 50
    nodes and 180 links (float64).  Targets that receive no rows, and every
    target of an empty ``idx``, stay zero.  Every row is multiplied into
    every target, so a non-finite entry of ``x`` turns its column NaN in
    every other target (``0 * inf`` is NaN).
    """
    onehot = np.zeros((n_rows, idx.size), dtype=x.dtype)
    onehot[idx, np.arange(idx.size)] = 1.0
    return onehot @ x


def index_rows(x, idx) -> Tensor:
    """Row gather along axis -2: ``out[..., j, :] = x[..., idx[j], :]``."""
    x = as_tensor(x)
    idx = _row_indices(idx, x.shape[-2], "index_rows")
    data = np.take(x.data, idx, axis=-2)

    def backward(out):
        ux, n_src = x._uid, x.shape[-2]
        return lambda g: [(ux, _scatter_add(g, idx, n_src))]

    return _finish(data, [x], backward)


def segment_sum(x, idx, n_segments: int) -> Tensor:
    """Sums rows of ``x`` (axis -2) into ``n_segments`` buckets by ``idx``.

    Buckets receiving no rows are zero vectors.
    """
    x = as_tensor(x)
    idx = _row_indices(idx, n_segments, "segment_sum")
    if idx.shape != (x.shape[-2],):
        raise ShapeMismatchError(f"segment_sum: idx length {idx.shape} vs rows {x.shape[-2]}")
    data = _scatter_add(x.data, idx, n_segments)

    def backward(out):
        ux = x._uid
        return lambda g: [(ux, np.take(g, idx, axis=-2))]

    return _finish(data, [x], backward)


# ---------------------------------------------------------------------------
# fused MLP block


def mlp_ln(terms, w1, b1, w2, b2, gain, bias) -> Tensor:
    """Dense, ReLU, dense and layer norm as one op.

    ``layer_normalize(relu(z) @ w2.T + b2, gain, bias)``, where the first
    layer ``z`` is :func:`affine_sum` of the terms with ``w1`` and ``b1``.

    Args:
        terms: Non-empty list of ``(x, idx)``.  Each ``x`` ``[..., n_i]``
            multiplies its own column block of ``w1``, the blocks tiling
            the columns in list order.  With an ``idx``, the projected rows
            are gathered along axis -2 as :func:`index_rows` does; the
            terms may broadcast against each other over leading axes.
        w1: ``[n_hidden, sum n_i]``; ``b1``: ``[n_hidden]``.
        w2: ``[n_out, n_hidden]``; ``b2``, ``gain``, ``bias``: ``[n_out]``.

    The first layer sums the products of the terms without an index in
    list order, then ``b1``, then the gathered products in list order,
    and ReLU, the second bias and the standardization are applied in
    place, so the values are bit for bit those of the unfused chain.
    Under a tape the backward scatters a gathered term's gradient back to
    its rows before it projects it, and keeps what the unfused chain
    would (see the module docstring).
    """
    terms = [(as_tensor(x), idx) for x, idx in terms]
    w1, b1, w2, b2, gain, bias = (as_tensor(p) for p in (w1, b1, w2, b2, gain, bias))
    xs = [x for x, _ in terms]
    widths = [x.shape[-1] for x in xs]
    if not terms or w1.ndim != 2 or w2.ndim != 2 or sum(widths) != w1.shape[1]:
        raise ShapeMismatchError(f"mlp_ln: term widths {widths} do not tile weights {w1.shape}")
    n_hidden, n_out = w1.shape[0], w2.shape[0]
    if b1.shape != (n_hidden,) or b2.shape != (n_out,) or w2.shape[1] != n_hidden:
        raise ShapeMismatchError(
            f"mlp_ln: layers {w1.shape} + {b1.shape} and {w2.shape} + {b2.shape} do not chain"
        )
    _check_norm_params("mlp_ln", n_out, gain, bias)
    offsets = [0, *itertools.accumulate(widths)]
    slots = []
    for (x, idx), lo, hi in zip(terms, offsets[:-1], offsets[1:]):
        if idx is not None:
            if x.ndim < 2:
                raise ShapeMismatchError(f"mlp_ln: a gathered term needs rows, got shape {x.shape}")
            idx = _row_indices(idx, x.shape[-2], "mlp_ln")
        slots.append((x, idx, lo, hi))

    def product(x, idx, lo, hi):
        y = (x.data.reshape(-1, hi - lo) @ w1.data[:, lo:hi].T).reshape(x.shape[:-1] + (n_hidden,))
        return y if idx is None else np.take(y, idx, axis=-2)

    # b1 leads only when every term is gathered; a gathered product has
    # rows, so the sum is then written into it and never into b1
    addends = itertools.chain(
        (product(*s) for s in slots if s[1] is None),
        [b1.data],
        (product(*s) for s in slots if s[1] is not None),
    )
    z = next(addends)
    for y in addends:
        z = _accumulate(z, y, y_owned=y is not b1.data)
    np.maximum(z, 0.0, out=z)
    xhat = (z.reshape(-1, n_hidden) @ w2.data.T).reshape(z.shape[:-1] + (n_out,))
    xhat += b2.data
    xhat, istd = _standardize(xhat, out=xhat)
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(out):
        term_slots = [(_tracked_uid(x), x.shape, idx, lo, hi) for x, idx, lo, hi in slots]
        uw1, ub1, uw2, ub2 = (_tracked_uid(p) for p in (w1, b1, w2, b2))
        ugain, ubias = _tracked_uid(gain), _tracked_uid(bias)
        any_x = any(x.requires_grad for x in xs)
        need_first = any_x or w1.requires_grad or b1.requires_grad
        need_second = need_first or w2.requires_grad or b2.requires_grad
        w1_shape, w1_data = w1.shape, (w1.data if any_x else None)
        saved = [x.data for x in xs] if w1.requires_grad else None
        w2_data = w2.data if need_first else None
        g_data = gain.data if need_second else None
        relu_out = z if w2.requires_grad else None
        mask = z > 0.0 if need_first and relu_out is None else None
        hidden_shape = z.shape

        def run(g):
            gu, ggain, gbias = _standardize_backward(
                g, xhat, istd, g_data, need_second, ugain is not None, ubias is not None
            )
            del g
            pairs = [(u, gp) for u, gp in ((ugain, ggain), (ubias, gbias)) if u is not None]
            if gu is None:
                return pairs
            gu = gu.reshape(-1, n_out)
            if uw2 is not None:
                pairs.append((uw2, gu.T @ relu_out.reshape(-1, n_hidden)))
            if ub2 is not None:
                pairs.append((ub2, gu.sum(axis=0)))
            if not need_first:
                return pairs
            gz = (gu @ w2_data).reshape(hidden_shape)
            del gu
            gz *= mask if relu_out is None else relu_out > 0.0
            if ub1 is not None:
                pairs.append((ub1, gz.reshape(-1, n_hidden).sum(axis=0)))
            gw1 = np.empty(w1_shape) if uw1 is not None else None
            for k, (ux, x_shape, idx, lo, hi) in enumerate(term_slots):
                if ux is None and gw1 is None:
                    continue
                gt = gz if idx is None else _scatter_add(gz, idx, x_shape[-2])
                gt = _unbroadcast(gt, x_shape[:-1] + (n_hidden,)).reshape(-1, n_hidden)
                if ux is not None:
                    pairs.append((ux, (gt @ w1_data[:, lo:hi]).reshape(x_shape)))
                if gw1 is not None:
                    gw1[:, lo:hi] = gt.T @ saved[k].reshape(-1, hi - lo)
            if gw1 is not None:
                pairs.append((uw1, gw1))
            return pairs

        return run

    return _finish(out_data, xs + [w1, b1, w2, b2, gain, bias], backward)


# ---------------------------------------------------------------------------
# objectives


def soft_maximum(x, tau: float) -> Tensor:
    """Temperature-weighted smooth maximum of all elements.

    ``sum_i x_i * exp(x_i / tau) / sum_j exp(x_j / tau)``, evaluated with
    max-subtraction so large ``x / tau`` ratios cannot overflow.  Equals
    the mean for large tau and approaches the hard maximum as tau -> 0+.

    One op: with ``e`` the shifted exponentials, ``num = sum(x * e)`` and
    ``den = sum(e)``, the backward is ``gn * e + (gd + gn * x) * e / tau``
    for ``gn = g / den`` and ``gd = -g * num / den**2``, evaluated in the
    order the tape of its element-wise chain (shift, scale, exp, product,
    two sums, quotient) would, so values and gradients are bit for bit
    the chain's.
    """
    x = as_tensor(x)
    if x.size == 0:
        raise EmptyVectorError("soft_maximum of an empty tensor")
    if not tau > 0.0:
        raise NonPositiveTemperatureError(f"temperature must be positive, got {tau}")
    # shifting by the (detached) max leaves both value and gradient intact
    inv_tau = 1.0 / tau
    e = np.exp((x.data - float(x.data.max())) * inv_tau)
    num = (x.data * e).sum()
    den = e.sum()

    def backward(out):
        ux, x_data = x._uid, x.data

        def run(g):
            gn = g / den
            gd = -g * num / (den * den)
            return [(ux, gn * e + (gd + gn * x_data) * e * inv_tau)]

        return run

    return _finish(num / den, [x], backward)


BCE_CLAMP = 1e-7


def binary_cross_entropy(p, labels) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 labels.

    Probabilities are clamped to ``[1e-7, 1 - 1e-7]`` so confidently wrong
    predictions yield a large finite loss instead of infinity; the
    gradient is zero where the clamp binds.

    One op: with ``pc`` the clamped probabilities and ``gm = -g / size``
    per entry, the backward is ``-(gm * (1 - y) / (1 - pc)) + gm * y / pc``,
    evaluated in the order the tape of its element-wise chain (clamp, two
    logs, two products, sum, mean, negation) would, so values and
    gradients are bit for bit the chain's.
    """
    p = as_tensor(p)
    y = np.asarray(labels.data if isinstance(labels, Tensor) else labels, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeMismatchError(f"labels shape {y.shape} vs predictions {p.shape}")
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    pc = np.clip(p.data, lo, hi)
    term = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)

    def backward(out):
        up = p._uid

        def run(g):
            gm = np.broadcast_to(-g, pc.shape) / pc.size
            gp = -(gm * (1.0 - y) / (1.0 - pc)) + gm * y / pc
            # pc lies strictly inside the clamp exactly where p does
            gp *= (pc > lo) & (pc < hi)
            return [(up, gp)]

        return run

    return _finish(-term.mean(), [p], backward)


# ---------------------------------------------------------------------------
# Adam optimizer


@dataclass
class AdamState:
    """First/second-moment accumulators for a named parameter set."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
        )


def adam_step(
    state: AdamState,
    params: dict,
    grads: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[AdamState, dict]:
    """One Adam update with bias correction; parameters update in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"grad shape {g.shape} vs param {p.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return state, params

