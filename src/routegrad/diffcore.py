"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray; operations executed while a
:class:`Tape` is active record backward closures, and
``Tape.gradient(scalar, inputs)`` replays them in reverse.  Ops executed
with no active tape are plain numpy calls, so inference pays no autodiff
overhead.

Retention contract: a backward closure never holds an input ``Tensor``.
When an op records itself the tape keeps its input uids, and the closure
keeps only the shapes and flags its formula needs and the arrays the
formula reads.  An op that gathers or sums rows by an index array keeps
the private int64 copy :func:`netgraph.node_indices` made of it, never
the caller's array, so editing that array later cannot change a
gradient.  ReLU keeps a mask packed eight entries to a byte,
sigmoid its output, layer normalization the standardized values and the
inverse deviations, a quotient or matrix product an operand only when
the other side needs its gradient, binary cross-entropy the clamped
probabilities and the labels, and a row map (``map_rows``) its part
tapes, their row ranges and the uids it seeds and reads the part tapes'
gradients under.  The one dense kernel, behind ``affine_sum``, the
fused dense-and-ReLU layer (``dense_relu``) and both layers of the fused
MLP block (``mlp_ln``), keeps its inputs only when its weights need a
gradient and its weights only when an input does.  So ``dense_relu``
keeps what ``relu(affine(...))`` would, the kernel's operands and a ReLU
mask packed eight entries to a byte, and ``mlp_ln`` keeps what its
unfused chain would: the standardized values, the inverse deviations and
a ReLU mask packed eight entries to a byte, or the ReLU output in place
of the mask when its second weights need a gradient.  An intermediate
activation is therefore freed as soon as the forward pass drops it, and
a batched-GNN gradient with fixed parameters retains about one f64
standardized value plus one mask bit per processed latent element, not
the whole forward graph.  The
exceptions are inputs a formula needs (``div`` keeps its divisor,
``soft_maximum`` its argument beside the exponentials) and views: a
``reshape`` output shares its input's buffer, so it keeps it alive for
as long as the caller holds it.  The reverse pass drops each op, and
with it what the op kept, once its backward has run, so what a tape
retains is freed as the pass unwinds, and a tape gives one gradient.

The parts of a :func:`map_rows` run on a pool of threads, and the pool's
threads allocate from one malloc arena, the calling thread's.  With an
arena per thread, as glibc gives by default, each chunk's tape is built
in a pool thread's arena and freed there by its pullback.  glibc then
trims that arena's heap top, and the next step's forward faults the
pages back in: on two CPUs, about 21K minor faults and 0.035–0.05 s of
sys time per ``train_n24`` step, against 2.4–3.7K faults with one arena,
and a ``descent_n24`` peak that spread 297–335 MB with which thread ran
which chunk, against about 294 MB.  So the first call that starts the
pool caps the process at one arena (:func:`_one_malloc_arena`).  With one
arena, glibc's dynamic thresholds still trimmed the heap top once a
step's tape was freed, and mapped the largest blocks on their own, so a
warmed ``train_n24`` step faulted 3.3–4.6K pages back in and a
``descent_n24`` step 3.8–6.1K.  So the same call also fixes the mmap
threshold at its 64-bit maximum of 32 MiB and the trim threshold at
1 GiB, and a step reuses the heap the previous step's tape freed: 3–8
faults per ``train_n24`` step and 6–121 per ``descent_n24`` step.
The two are set together: fixing either one alone turns off the dynamic
mmap threshold and leaves the other at its 128 KiB default, and with the
trim threshold alone a ``descent_n24`` step faulted over 600K pages.  These
settings hold for the whole process, not only for the pool.

The two objectives the weight optimizer and the surrogate's training
descend, the temperature-weighted soft maximum and binary cross-entropy,
are one op each with a hand-written backward.  Also here: the Adam
update rule.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .netgraph import node_indices, positive_integer, real_values


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

    The data passes :func:`netgraph.real_values`, so a float64 array is
    held as it is, not copied.  ``requires_grad`` marks a leaf whose
    gradient may later be requested; derived tensors inherit the flag
    from their inputs.
    """

    __slots__ = ("data", "requires_grad", "_uid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = real_values(data, "tensor data")
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
    the innermost active tape only), each as its output uids, its input
    uids and a backward closure (see :func:`_finish`).  The tape alone
    pairs the gradients a backward returns with the input uids.  As it
    records an op, the tape adds the op's output uids to ``_produced`` and
    its input uids to ``_read``; ``_read - _produced`` is what its ops read
    from outside, and a :func:`map_rows` op takes that off its part tapes
    as its inputs.  :meth:`gradient` checks its output and inputs against
    the two sets before the reverse pass runs.  A tape records on the
    thread that entered it, and one thread at a time enters it: a
    :func:`map_rows` part tape may be entered on a pool thread and then
    on the calling thread.  Tapes exit innermost first.  The reverse pass runs on the thread that calls
    :meth:`gradient`, except that a :func:`map_rows` op pulls its part
    tapes back on the pool.  The reverse pass drops each op as it runs it,
    so a tape gives one gradient.
    """

    def __init__(self):
        # (output uids, input uids, backward): the backward takes one
        # gradient, or None, per output and returns one per input
        self._ops: list[tuple[tuple[int, ...], list, object]] = []
        self._produced: set[int] = set()
        self._read: set[int] = set()
        self._pulled = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise DiffcoreError("a tape exited before the tape entered inside it; tapes exit innermost first")
        stack.pop()
        return False

    def _record(self, outs, input_uids, backward) -> None:
        uids = tuple(o._uid for o in outs)
        self._ops.append((uids, input_uids, backward))
        self._produced.update(uids)
        # an input that needs no gradient is recorded as None
        self._read.update(input_uids)
        self._read.discard(None)

    def gradient(self, output: Tensor, inputs):
        """Gradients of a recorded scalar with respect to ``inputs``.

        Args:
            output: Scalar tensor computed under this tape.
            inputs: One tensor or a sequence of tensors.

        Returns:
            One ndarray (or a list matching ``inputs``), each shaped like
            the corresponding input.  An input that was recorded but does
            not influence the output gets a zero gradient, and so does
            every input of an output that needs no gradient.

        Every check runs before the reverse pass, so a call that raises
        leaves the tape as it was.

        Raises:
            DiffcoreError: this tape has already been pulled back (it
                freed what it recorded as it went), or ``output`` needs a
                gradient but this tape neither produced nor read it
                (typically it was computed with no tape, or on another).
            NotScalarOutputError: ``output`` is not size-1.
            InputNotOnTapeError: an input other than ``output`` never
                appeared on this tape (typically it was created without
                ``requires_grad``).
        """
        if self._pulled:
            raise DiffcoreError("this tape has already given its gradient; record on a new tape")
        single = isinstance(inputs, Tensor)
        wanted = [inputs] if single else list(inputs)
        if output.size != 1:
            raise NotScalarOutputError(f"output has shape {output.shape}; expected a scalar")
        seen = self._produced | self._read
        if output.requires_grad and output._uid not in seen:
            raise DiffcoreError("output was not computed on this tape; compute it inside the tape context")
        if any(t._uid != output._uid and t._uid not in seen for t in wanted):
            raise InputNotOnTapeError(
                "input was never recorded on this tape; create it with "
                "requires_grad=True and use it inside the tape context"
            )

        self._pulled = True
        grads = self._pullback({output._uid: np.ones_like(output.data)})
        results = []
        for t in wanted:
            g = np.ones_like(t.data) if t._uid == output._uid else grads.get(t._uid)
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
            outs, ins, backward = ops.pop()
            # no local holds an output gradient or the summands, so they
            # are freed before the next op runs; a one-output op gets its
            # gradient as the only reference, so it can free it sooner
            if len(outs) == 1:
                if outs[0] in grads:
                    _add_gradients(grads, ins, backward(grads.pop(outs[0])))
            elif any(uid in grads for uid in outs):
                _add_gradients(grads, ins, backward(*[grads.pop(uid, None) for uid in outs]))
        return grads


def _add_gradients(grads: dict, uids, gradients) -> None:
    """Adds each gradient into ``grads`` under the uid at its position.

    ``gradients`` holds one entry per uid, in order; a None entry adds
    nothing, and the summands of one uid are added in that order.
    """
    for uid, g in zip(uids, gradients, strict=True):
        if g is not None:
            acc = grads.get(uid)
            grads[uid] = g if acc is None else acc + g


def _finish(out_data, inputs: list, make_backward) -> Tensor:
    """Wraps an op's output; records its backward only when needed.

    The backward convention of every op: ``inputs`` lists the op's
    tensors in a fixed order, None for an absent optional input
    (``bias=None``).  Under an active tape, when some input needs a
    gradient, the tape records the input uids in that order, None for an
    input that is absent or needs none, and ``make_backward(out, want)``,
    where ``want`` flags the inputs that need a gradient.  It returns
    the backward: a function of the output gradient that returns one
    gradient per input, in input order, None where ``want`` is unset.
    Only the tape pairs those gradients with the uids.
    """
    want = [t is not None and t.requires_grad for t in inputs]
    out = Tensor(out_data, requires_grad=any(want))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._record((out,), [t._uid if w else None for t, w in zip(inputs, want)], make_backward(out, want))
    return out


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

    def backward(out, want):
        shapes = a.shape, b.shape
        return lambda g: [_unbroadcast(g, s) if w else None for s, w in zip(shapes, want)]

    return _finish(data, [a, b], backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(out, want):
        (want_a, want_b), sa, sb = want, a.shape, b.shape
        a_data = a.data if want_b else None
        b_data = b.data

        def run(g):
            return [
                _unbroadcast(g / b_data, sa) if want_a else None,
                _unbroadcast(-g * a_data / (b_data * b_data), sb) if want_b else None,
            ]

        return run

    return _finish(data, [a, b], backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError(f"reshape: cannot take shape {a.shape} to {shape}") from None

    def backward(out, want):
        orig = a.shape
        return lambda g: [g.reshape(orig)]

    return _finish(data, [a], backward)


def _row_stack(outs) -> np.ndarray:
    """``np.concatenate`` of the outputs' rows, which must agree past axis 0."""
    if any(not isinstance(o, Tensor) or o.ndim == 0 or o.shape[1:] != outs[0].shape[1:] for o in outs):
        shapes = [o.shape if isinstance(o, Tensor) else type(o).__name__ for o in outs]
        raise ShapeMismatchError(f"map_rows: part outputs {shapes} do not stack by rows")
    return np.concatenate([o.data for o in outs], axis=0)


def map_rows(fn, parts, finish=None):
    """Row concatenation of ``finish(fn(p))`` over ``parts``, run on the pool.

    Args:
        fn: Maps one part to a tuple of Tensors of at least one axis, of
            one length for every part (or, with ``finish``, to what
            ``finish`` takes); each output must agree across the parts on
            every axis past the first.
        parts: Non-empty sequence of arguments for ``fn``; they are not
            differentiated.
        finish: None, or a function from what ``fn`` returns to the
            part's tuple of Tensors.

    Returns:
        The tuple of row-stacked Tensors, one per output.

    Each ``fn(p)`` runs on a pool of :data:`POOL_WORKERS` threads, at most
    ``POOL_WORKERS + 1`` parts in flight, and each ``finish`` on the
    calling thread, in part order.  With no active tape that is all.
    Otherwise both steps of a part record on one tape of its own, which
    one thread at a time enters.  What that tape read but did not produce,
    and the tracked tensors the part returned but did not produce (the
    tensors from outside it, and leaves it created), become the inputs of
    one op, in one fixed order, with every stacked output, recorded on the
    active tape.  Its backward seeds each part tape with its row slices of
    all the output gradients, pulls the parts back on the pool, and
    returns each input's gradient summed over the parts in reverse part
    order, the order one tape over every part would add them in, or None
    for an input no part pulled a gradient back to.  With one worker, or
    on a pool thread (a nested ``map_rows``, forward or backward), the
    parts run inline on the calling thread.

    Raises:
        ShapeMismatchError: there are no parts, a part returns no tuple,
            their output counts differ, or their outputs do not stack by
            rows.
        DiffcoreError: a part reads or returns a tracked tensor another
            part produced; its gradient could not reach that part.
        Whatever ``fn`` or ``finish`` raises, once no part is running.
    """
    tape = _active_tape()
    parts = list(parts)
    tapes = [Tape() if tape is not None else None for _ in parts]
    results = []
    with contextlib.closing(_pool_map(_on_tape, [(t, fn, p) for t, p in zip(tapes, parts)])) as done:
        for part_tape, r in zip(tapes, done):
            results.append(r if finish is None else _on_tape(part_tape, finish, r))
            del r
    if not results or any(not isinstance(r, tuple) or len(r) != len(results[0]) for r in results):
        counts = [len(r) if isinstance(r, tuple) else type(r).__name__ for r in results]
        raise ShapeMismatchError(f"map_rows: part output counts {counts}; each part returns a tuple of one length")
    columns = list(zip(*results))
    stacked = tuple(
        Tensor(_row_stack(column), requires_grad=tape is not None and any(o.requires_grad for o in column))
        for column in columns
    )
    if tape is None:
        return stacked
    # every tracked tensor a part read or returned but did not produce
    # came from outside it
    read = set().union(
        *((t._read | {o._uid for o in r if o.requires_grad}) - t._produced for t, r in zip(tapes, results))
    )
    if read & set().union(*(t._produced for t in tapes)):
        raise DiffcoreError("map_rows: a part reads a tracked tensor another part produced")
    if any(o.requires_grad for o in stacked):
        read = list(read)
        offsets = [[0, *itertools.accumulate(o.shape[0] for o in column)] for column in columns]
        # per part, in reverse: its tape and, per output of the part that
        # is tracked, the output's uid, and its index and row range
        slots = []
        for k, part_tape in reversed(list(enumerate(tapes))):
            tracked = [j for j, column in enumerate(columns) if column[k].requires_grad]
            rows = [(j, offsets[j][k], offsets[j][k + 1]) for j in tracked]
            slots.append((part_tape, [columns[j][k]._uid for j in tracked], rows))

        def backward(*gs):
            jobs = []
            for part_tape, uids, rows in slots:
                seeds: dict[int, np.ndarray] = {}
                _add_gradients(seeds, uids, [None if gs[j] is None else gs[j][lo:hi] for j, lo, hi in rows])
                if seeds:
                    jobs.append((part_tape, seeds))
            totals: dict[int, np.ndarray] = {}
            for grads in _pool_map(Tape._pullback, jobs):
                _add_gradients(totals, read, [grads.get(u) for u in read])
                del grads
            return [totals.get(u) for u in read]

        tape._record(stacked, read, backward)
    return stacked


def _on_tape(part_tape, fn, arg):
    """``fn(arg)``, recorded on ``part_tape`` unless it is None."""
    if part_tape is None:
        return fn(arg)
    with part_tape:
        return fn(arg)


# Threads that run map_rows parts, forward and back: one per CPU this
# process may run on.  The pool starts on first use, so importing the
# package starts none, and concurrent.futures (about 0.5 MB resident) is
# imported only then.  Its threads allocate from the calling thread's
# malloc arena: an arena per thread re-faulted each chunk's tape every
# step (module docstring).  The one-arena cap set before the pool starts
# holds process-wide.
if hasattr(os, "sched_getaffinity"):
    POOL_WORKERS = len(os.sched_getaffinity(0))
else:
    POOL_WORKERS = os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()
# glibc's mallopt parameters: the most malloc arenas a process keeps, the
# request size from which malloc maps a block of its own, and the free
# space at the heap top past which free returns it to the system
M_ARENA_MAX = -8
M_MMAP_THRESHOLD = -3
M_TRIM_THRESHOLD = -1
# the largest mmap threshold glibc accepts on a 64-bit host, and a trim
# threshold above the free space a step leaves at the heap top (the
# descent_n24 tape alone holds about 230 MB)
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2**30


def _mark_pool_thread() -> None:
    _tls.pool_thread = True


def _libc():
    """The symbols of the running process, the C library's among them, through ctypes."""
    import ctypes

    return ctypes.CDLL(None)


def _one_malloc_arena() -> None:
    """Caps the process at one malloc arena and keeps its heap, through
    glibc's ``mallopt``.

    Every thread that has not yet allocated then allocates from the
    arena the calling thread uses, blocks up to :data:`MMAP_THRESHOLD`
    come from that arena's heap, and the heap top is returned to the
    system only past :data:`TRIM_THRESHOLD` of free space (the module
    docstring says why).  A thread's arena is fixed by its first
    allocation, so this runs before the pool's threads exist.  The
    settings hold for the whole process, not only the pool.  Where the C
    library has no ``mallopt`` (musl, macOS), this does nothing.
    """
    import ctypes

    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        # int mallopt(int param, int value)
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_ARENA_MAX, 1)
        # both thresholds together: fixing either one alone turns off
        # glibc's dynamic mmap threshold and leaves the other at its default
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _pool_map(run, jobs):
    """Yields ``run(*job)`` for each job, in order, the jobs run on the pool.

    The jobs go to the pool in order, at most ``POOL_WORKERS + 1`` of
    them submitted and not yet yielded at a time: each finished part
    holds its outputs, or a gradient for every outside tensor it read, and
    the one job beyond the workers is there for a worker that finishes
    before the part ahead of it, which would otherwise wait idle until
    that part is yielded.  The jobs run inline instead when there is one
    worker or the caller is itself a pool thread: a pool thread that
    waited on the pool could leave no worker free to run what it waits
    for.  Once an error reaches the caller, or the caller stops early, no
    job is left running.  The first call that uses the pool caps the
    process at one malloc arena, on the calling thread, before it starts
    the pool (:func:`_one_malloc_arena`); a run that stays inline leaves
    malloc as it was.
    """
    global _pool
    if POOL_WORKERS <= 1 or len(jobs) <= 1 or getattr(_tls, "pool_thread", False):
        for job in jobs:
            yield run(*job)
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    with _pool_lock:
        if _pool is None:
            _one_malloc_arena()
            _pool = ThreadPoolExecutor(POOL_WORKERS, thread_name_prefix="diffcore-pool", initializer=_mark_pool_thread)
    pending = iter(jobs)
    futures = collections.deque(_pool.submit(run, *job) for job in itertools.islice(pending, POOL_WORKERS + 1))
    try:
        while futures:
            result = futures.popleft().result()
            for job in itertools.islice(pending, 1):
                futures.append(_pool.submit(run, *job))
            yield result
            del result
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch-broadcast semantics (ndim >= 2)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul operands must have ndim >= 2")
    data = a.data @ b.data

    def backward(out, want):
        (want_a, want_b), sa, sb = want, a.shape, b.shape
        a_data = a.data if want_b else None
        b_data = b.data if want_a else None

        def run(g):
            return [
                _unbroadcast(g @ b_data.swapaxes(-1, -2), sa) if want_a else None,
                _unbroadcast(a_data.swapaxes(-1, -2) @ g, sb) if want_b else None,
            ]

        return run

    return _finish(data, [a, b], backward)


# ---------------------------------------------------------------------------
# neural-network primitives


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


def _features(op: str, shape: tuple) -> int:
    """The width of the trailing feature axis of an input of ``shape``, which must have one."""
    if not shape:
        raise ShapeMismatchError(f"{op}: the input needs a feature axis, got shape ()")
    return shape[-1]


def _check_dense(op: str, shapes: list, weights: Tensor, bias) -> None:
    """Raises unless the feature axes of inputs of ``shapes`` tile ``weights`` and ``bias`` is None or ``[n_out]``."""
    widths = [_features(op, shape) for shape in shapes]
    if not widths or weights.ndim != 2 or sum(widths) != weights.shape[1]:
        raise ShapeMismatchError(f"{op}: input widths {widths} do not tile weights {weights.shape}")
    if bias is not None and bias.shape != (weights.shape[0],):
        raise ShapeMismatchError(f"{op}: bias shape {bias.shape} vs out dim {weights.shape[0]}")


def _dense(terms, weights: np.ndarray, bias) -> np.ndarray:
    """The dense kernel: ``concat(xs, -1) @ weights.T + bias``, as a fresh array.

    Each ``(x, idx)`` term multiplies its own column block of ``weights``,
    the blocks tiling the columns in term order; with an ``idx``, the
    projected rows are then gathered along axis -2.  The products of the
    terms without an index are summed in term order, then ``bias`` (or
    None), then the gathered products in term order, in place wherever
    the broadcast shape allows.
    """
    offsets = [0, *itertools.accumulate(x.shape[-1] for x, _ in terms)]
    slots = [(x, idx, lo, hi) for (x, idx), lo, hi in zip(terms, offsets[:-1], offsets[1:])]

    def product(x, idx, lo, hi):
        y = (x.reshape(-1, hi - lo) @ weights[:, lo:hi].T).reshape(x.shape[:-1] + (weights.shape[0],))
        return y if idx is None else np.take(y, idx, axis=-2)

    # the bias leads only when every term is gathered; a gathered product
    # has rows, so the sum is then written into it and never into the bias
    addends = itertools.chain(
        (product(*s) for s in slots if s[1] is None),
        [] if bias is None else [bias],
        (product(*s) for s in slots if s[1] is not None),
    )
    out = next(addends)
    for y in addends:
        out = _accumulate(out, y, y_owned=y is not bias)
    return out


def _dense_backward(g: np.ndarray, terms, weights, xs, wanted) -> list:
    """Gradients of :func:`_dense` for its output gradient ``g``.

    ``terms`` holds each term's shape and index; ``wanted`` one flag per
    term, then one for the weights and one for the bias.  ``weights`` is
    read only for a term's gradient and ``xs``, the terms' data, only for
    the weights'.  Returns one gradient per flag, None where it is unset.
    A term's share of ``g`` is scattered back to its rows when gathered
    and summed over the axes it was broadcast along, and then projected.
    """
    n_out = g.shape[-1]
    *want_xs, want_w, want_b = wanted
    gw = np.empty((n_out, sum(shape[-1] for shape, _ in terms))) if want_w else None
    grads, lo = [], 0
    for k, ((shape, idx), want_x) in enumerate(zip(terms, want_xs)):
        hi, gx = lo + shape[-1], None
        if want_x or want_w:
            gt = g if idx is None else _scatter_add(g, idx, shape[-2])
            gt = _unbroadcast(gt, shape[:-1] + (n_out,)).reshape(-1, n_out)
            if want_x:
                # with one output unit each entry is one product, so the
                # broadcast product forms the K=1 gemm's entries, faster
                block = weights[:, lo:hi]
                gx = (gt * block if n_out == 1 else gt @ block).reshape(shape)
            if want_w:
                gw[:, lo:hi] = gt.T @ xs[k].reshape(-1, hi - lo)
        grads.append(gx)
        lo = hi
    return [*grads, gw, g.reshape(-1, n_out).sum(axis=0) if want_b else None]


def affine(x, weights, bias=None) -> Tensor:
    """Dense layer ``y = x @ W.T + b``: :func:`affine_sum` of the one input ``x``."""
    return affine_sum([x], weights, bias)


def affine_sum(xs, weights, bias=None) -> Tensor:
    """Dense layer ``y = concat(xs, -1) @ W.T + b`` over the trailing axis.

    Args:
        xs: Inputs ``[..., n_in_i]`` whose widths tile ``n_in``; they may
            broadcast against each other over leading axes.
        weights: ``[n_out, n_in]``.
        bias: ``[n_out]`` or None.

    The dense kernel (:func:`_dense`) with no input gathered: the
    products, then the bias, summed in place.
    """
    xs = [as_tensor(x) for x in xs]
    weights = as_tensor(weights)
    bias = None if bias is None else as_tensor(bias)
    _check_dense("affine_sum", [x.shape for x in xs], weights, bias)
    out_data = _dense([(x.data, None) for x in xs], weights.data, None if bias is None else bias.data)

    def backward(out, want):
        terms = [(x.shape, None) for x in xs]
        w_data = weights.data if any(want[:-2]) else None
        saved = [x.data for x in xs] if want[-2] else None
        return lambda g: _dense_backward(g, terms, w_data, saved, want)

    return _finish(out_data, [*xs, weights, bias], backward)


def _pack_mask(mask: np.ndarray) -> np.ndarray:
    """A boolean array of at least one axis, eight entries a byte along the last."""
    return np.packbits(mask, axis=-1)


def _unpack_mask(packed: np.ndarray, width: int) -> np.ndarray:
    """The boolean array, ``width`` entries along the last axis, that :func:`_pack_mask` packed."""
    return np.unpackbits(packed, axis=-1, count=width).view(bool)


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(out, want):
        shape, size = x.shape, x.size
        packed = _pack_mask((x.data > 0.0).reshape(-1))
        return lambda g: [g * _unpack_mask(packed, size).reshape(shape)]

    return _finish(data, [x], backward)


def dense_relu(x, weights, bias) -> Tensor:
    """Dense layer then ReLU, as one op: ``relu(affine(x, weights, bias))``.

    Args:
        x: ``[..., n_in]``.
        weights: ``[n_out, n_in]``; ``bias``: ``[n_out]``.

    The dense kernel (:func:`_dense`), with the ReLU run in place on its
    output, so the values and every gradient are bit for bit the unfused
    pair's.  The backward keeps the ReLU mask packed eight entries to a
    byte, as :func:`relu` does, and the kernel's operands as
    :func:`affine` does.
    """
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    _check_dense("dense_relu", [x.shape], weights, bias)
    z = _dense([(x.data, None)], weights.data, bias.data)
    np.maximum(z, 0.0, out=z)

    def backward(out, want):
        terms = [(x.shape, None)]
        w_data = weights.data if want[0] else None
        saved = [x.data] if want[1] else None
        packed = _pack_mask(z > 0.0)

        def run(g):
            # a new array: ``g`` may be another input's gradient too
            gz = g * _unpack_mask(packed, g.shape[-1])
            del g
            return _dense_backward(gz, terms, w_data, saved, want)

        return run

    return _finish(z, [x, weights, bias], backward)


def sigmoid(x) -> Tensor:
    """Numerically stable logistic function: no overflow for any finite x."""
    x = as_tensor(x)
    e = np.exp(-np.abs(x.data))
    data = np.where(x.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(out, want):
        y = out.data
        return lambda g: [g * y * (1.0 - y)]

    return _finish(data, [x], backward)


LAYER_NORM_EPS = 1e-5


def _check_norm_params(op: str, shape: tuple, gain: Tensor, bias: Tensor) -> None:
    """Raises unless ``gain`` and ``bias`` are ``[f]`` for the ``f >= 1`` features of an input of ``shape``."""
    f = _features(op, shape)
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeMismatchError(f"{op}: gain {gain.shape} / bias {bias.shape} vs features {f}")
    if f == 0:
        raise EmptyVectorError(f"{op}: a layer norm needs at least one feature")


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, out=None):
    """``(x - mean) / sqrt(var + 1e-5) * gain + bias`` over the trailing axis.

    Returns the result, the standardized values and the inverse
    deviations ``[..., 1]``.  The standardized values are written into
    ``out``; pass ``out=x`` to standardize an array the caller owns in
    place.  Two passes and no temporary: the row means are one
    matrix-vector product with ``1/f``, and the variances an ``einsum``
    contraction of the centred values with themselves, never
    ``E[x^2] - mean^2``, which cancels where the mean dwarfs the spread.
    """
    f = x.shape[-1]
    mu = x @ np.full(f, 1.0 / f)
    xhat = np.subtract(x, mu[..., None], out=out)
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / f
    istd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= istd
    y = xhat * gain
    y += bias
    return y, xhat, istd


def _layer_norm_backward(g, xhat, istd, gain, wanted) -> list:
    """Gradients of :func:`_layer_norm` for the output gradient ``g``.

    ``wanted`` flags the input, the gain and the bias; returns one
    gradient per flag, None where the flag is unset.  The input's is
    ``(h - m1 - xhat * m2) * istd`` with ``h = g * gain`` and ``m1``,
    ``m2`` the trailing-axis means of ``h`` and ``h * xhat``: ``m1`` a
    matrix-vector product with ``1/f`` and ``m2`` an ``einsum``
    contraction, so neither forms a temporary.  The result is evaluated
    in ``h`` itself and one scratch array for ``xhat * m2``, which the
    gain gradient then reuses; the scratch is freed on return.
    """
    want_x, want_gain, want_bias = wanted
    f = xhat.shape[-1]
    gx = scratch = ggain = gbias = None
    if want_x:
        gx = g * gain
        m1 = gx @ np.full(f, 1.0 / f)
        m2 = np.einsum("...i,...i->...", gx, xhat) / f
        scratch = np.multiply(xhat, m2[..., None])
        gx -= m1[..., None]
        gx -= scratch
        gx *= istd
    if want_gain:
        scratch = np.multiply(g, xhat, out=scratch)
        ggain = scratch.reshape(-1, f).sum(axis=0)
    if want_bias:
        gbias = g.reshape(-1, f).sum(axis=0)
    return [gx, ggain, gbias]


def layer_normalize(x, gain, bias) -> Tensor:
    """Per-vector standardization over the trailing feature axis.

    ``y = (x - mean) / sqrt(var + 1e-5) * gain + bias`` with population
    variance, computed independently for every leading index.  An input
    without a feature axis raises :class:`ShapeMismatchError`, and one of
    no features :class:`EmptyVectorError`.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    _check_norm_params("layer_normalize", x.shape, gain, bias)
    out_data, xhat, istd = _layer_norm(x.data, gain.data, bias.data)

    def backward(out, want):
        g_data = gain.data
        return lambda g: _layer_norm_backward(g, xhat, istd, g_data, want)

    return _finish(out_data, [x, gain, bias], backward)


# ---------------------------------------------------------------------------
# row gather / segment reduction (graph plumbing)


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


def _row_index(op: str, x: Tensor, idx, *n_segments) -> np.ndarray:
    """The one rule for the row indices of ``op``: ``idx`` as the copy it keeps.

    ``x`` has rows (at least two axes), and ``idx`` passes
    :func:`netgraph.node_indices`.  With no ``n_segments``, ``op`` gathers
    rows of ``x``, and ``idx`` is one axis of indices against them.  With
    ``n_segments``, ``op`` sums the rows of ``x`` into that many buckets:
    the count passes :func:`netgraph.positive_integer`, and ``idx`` holds
    one index per row of ``x`` against it.
    """
    if x.ndim < 2:
        raise ShapeMismatchError(f"{op}: the input needs rows, got shape {x.shape}")
    if not n_segments:
        idx = node_indices(idx, x.shape[-2], f"{op}: row indices")
        if idx.ndim != 1:
            raise ShapeMismatchError(f"{op}: row indices of shape {idx.shape}, expected one axis")
        return idx
    idx = node_indices(idx, positive_integer(*n_segments, f"{op}: the bucket count"), f"{op}: segment indices")
    if idx.shape != (x.shape[-2],):
        raise ShapeMismatchError(f"{op}: segment index length {idx.shape} vs rows {x.shape[-2]}")
    return idx


def index_rows(x, idx) -> Tensor:
    """Row gather along axis -2: ``out[..., j, :] = x[..., idx[j], :]``.

    ``x`` has at least two axes, and ``idx`` is one axis of indices that
    pass :func:`netgraph.node_indices` against the rows of ``x``.
    """
    x = as_tensor(x)
    idx = _row_index("index_rows", x, idx)
    data = np.take(x.data, idx, axis=-2)

    def backward(out, want):
        n_src = x.shape[-2]
        return lambda g: [_scatter_add(g, idx, n_src)]

    return _finish(data, [x], backward)


def segment_sum(x, idx, n_segments: int) -> Tensor:
    """Sums rows of ``x`` (axis -2) into ``n_segments`` buckets by ``idx``.

    Buckets receiving no rows are zero vectors.  ``x`` has at least two
    axes, ``n_segments`` passes :func:`netgraph.positive_integer`, and
    ``idx`` holds one index per row of ``x`` that passes
    :func:`netgraph.node_indices` against ``n_segments``.
    """
    x = as_tensor(x)
    idx = _row_index("segment_sum", x, idx, n_segments)
    data = _scatter_add(x.data, idx, n_segments)

    def backward(out, want):
        return lambda g: [np.take(g, idx, axis=-2)]

    return _finish(data, [x], backward)


# ---------------------------------------------------------------------------
# fused MLP block


def mlp_ln(terms, w1, b1, w2, b2, gain, bias) -> Tensor:
    """Dense, ReLU, dense and layer norm as one op.

    ``layer_normalize(relu(z) @ w2.T + b2, gain, bias)``, where the first
    layer ``z`` sums ``b1`` and the terms' products with ``w1``.

    Args:
        terms: Non-empty list of ``(x, idx)`` or ``(x, idx, n_segments)``.
            Each ``x`` ``[..., n_i]`` multiplies its own column block of
            ``w1``, the blocks tiling the columns in list order.  With an
            ``idx`` alone, the projected rows are gathered along axis -2
            as :func:`index_rows` does; with ``n_segments`` too, the rows
            of ``x`` are first summed into ``n_segments`` buckets as
            :func:`segment_sum` does, and a summed term is added with the
            ones that have no ``idx``.  Every ``idx`` is one axis of
            indices that pass :func:`netgraph.node_indices` against the
            rows it gathers or the buckets it sums into, every
            ``n_segments`` passes :func:`netgraph.positive_integer`, and
            the ``x`` of such a term has rows.  The terms may broadcast
            against each other over leading axes.
        w1: ``[n_hidden, sum n_i]``; ``b1``: ``[n_hidden]``.
        w2: ``[n_out, n_hidden]``, ``n_out >= 1``; ``b2``, ``gain``, ``bias``: ``[n_out]``.

    Both layers are the dense kernel (:func:`_dense`), which fixes the
    order of the first layer's sum, and ReLU and the standardization run
    in place, so the values are bit for bit the unfused chain's.
    """
    terms = [(as_tensor(x), *rest) for x, *rest in terms]
    w1, b1, w2, b2, gain, bias = (as_tensor(p) for p in (w1, b1, w2, b2, gain, bias))
    xs = [x for x, *_ in terms]
    # per term: its segment index or None, and its input to the kernel
    segments, kernel = [], []
    for x, idx, *n_segments in terms:
        if idx is not None or n_segments:
            idx = _row_index("mlp_ln", x, idx, *n_segments)
        segments.append(idx if n_segments else None)
        kernel.append((_scatter_add(x.data, idx, *n_segments), None) if n_segments else (x.data, idx))
    _check_dense("mlp_ln", [x.shape for x, _ in kernel], w1, b1)
    _check_dense("mlp_ln", [w1.shape[:1]], w2, b2)
    _check_norm_params("mlp_ln", w2.shape[:1], gain, bias)
    z = _dense(kernel, w1.data, b1.data)
    np.maximum(z, 0.0, out=z)
    h = _dense([(z, None)], w2.data, b2.data)
    out_data, xhat, istd = _layer_norm(h, gain.data, bias.data, out=h)

    def backward(out, want):
        # per layer: the flags of its input gradients, its weights' and its bias'
        want1 = want[:-4]
        want2 = [any(want1), *want[-4:-2]]
        want_norm = [any(want2), *want[-2:]]
        first = [(x.shape, idx) for x, idx in kernel]
        w1_data = w1.data if any(want1[:-2]) else None
        saved = [x for x, _ in kernel] if want1[-2] else None
        w2_data = w2.data if want2[0] else None
        g_data = gain.data if want_norm[0] else None
        relu_out = z if want2[1] else None
        packed = _pack_mask(z > 0.0) if want2[0] and relu_out is None else None
        second = [(z.shape, None)]

        def run(g):
            gh, *norm = _layer_norm_backward(g, xhat, istd, g_data, want_norm)
            del g
            gz, *dense2 = [None] * 3 if gh is None else _dense_backward(gh, second, w2_data, [relu_out], want2)
            del gh
            if gz is None:
                return [None] * len(want1) + dense2 + norm
            gz *= _unpack_mask(packed, gz.shape[-1]) if relu_out is None else relu_out > 0.0
            *gxs, gw, gb = _dense_backward(gz, first, w1_data, saved, want1)
            del gz
            # a summed term's rows each get the gradient of their bucket
            gxs = [gx if idx is None or gx is None else np.take(gx, idx, axis=-2) for gx, idx in zip(gxs, segments)]
            return [*gxs, gw, gb] + dense2 + norm

        return run

    return _finish(out_data, [*xs, w1, b1, w2, b2, gain, bias], backward)


# ---------------------------------------------------------------------------
# objectives


def soft_maximum(x, tau: float) -> Tensor:
    """Temperature-weighted smooth maximum of all elements.

    ``sum_i x_i * exp(x_i / tau) / sum_j exp(x_j / tau)``, evaluated with
    max-subtraction so large ``x / tau`` ratios cannot overflow.  Equals
    the mean for large tau and approaches the hard maximum as tau -> 0+.
    ``tau`` is one number that passes :func:`netgraph.real_values`; NaN,
    or a value at or below zero, raises
    :class:`NonPositiveTemperatureError`, and ``inf`` gives the mean.

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
    # the max shift turns an infinity into inf - inf = NaN, and a NaN
    # entry gives NaN without a warning
    if not np.all(np.isfinite(x.data)):
        raise DiffcoreError("soft_maximum of a tensor with a NaN or an infinite entry")
    tau = float(real_values(tau, "soft_maximum: temperature", ()))
    if not tau > 0.0:
        raise NonPositiveTemperatureError(f"temperature must be positive, got {tau}")
    # shifting by the (detached) max leaves both value and gradient intact
    inv_tau = 1.0 / tau
    e = np.exp((x.data - float(x.data.max())) * inv_tau)
    num = (x.data * e).sum()
    den = e.sum()

    def backward(out, want):
        x_data = x.data

        def run(g):
            gn = g / den
            gd = -g * num / (den * den)
            return [gn * e + (gd + gn * x_data) * e * inv_tau]

        return run

    return _finish(num / den, [x], backward)


BCE_CLAMP = 1e-7


def binary_cross_entropy(p, labels) -> Tensor:
    """Mean binary cross-entropy between probabilities and labels in [0, 1].

    Probabilities are clamped to ``[1e-7, 1 - 1e-7]`` so confidently wrong
    predictions yield a large finite loss instead of infinity; the
    gradient is zero where the clamp binds.  A label outside ``[0, 1]``,
    or NaN, raises :class:`DiffcoreError`: it would give a loss below zero
    or a NaN one.  So does a NaN probability, which the clamp would pass
    through to the loss; an infinite one is clamped.  An empty batch
    raises :class:`EmptyVectorError`: its mean is NaN.

    One op: with ``pc`` the clamped probabilities and ``gm = -g / size``
    per entry, the backward is ``-(gm * (1 - y) / (1 - pc)) + gm * y / pc``,
    evaluated in the order the tape of its element-wise chain (clamp, two
    logs, two products, sum, mean, negation) would, so values and
    gradients are bit for bit the chain's.
    """
    p = as_tensor(p)
    y = real_values(labels.data if isinstance(labels, Tensor) else labels, "labels")
    if y.shape != p.shape:
        raise ShapeMismatchError(f"labels shape {y.shape} vs predictions {p.shape}")
    if p.size == 0:
        raise EmptyVectorError("binary_cross_entropy of an empty batch")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise DiffcoreError("binary_cross_entropy: labels must lie in [0, 1], and none be NaN")
    if np.isnan(p.data).any():
        raise DiffcoreError("binary_cross_entropy: a probability is NaN")
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    pc = np.clip(p.data, lo, hi)
    term = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)

    def backward(out, want):
        def run(g):
            gm = np.broadcast_to(-g, pc.shape) / pc.size
            gp = -(gm * (1.0 - y) / (1.0 - pc)) + gm * y / pc
            # pc lies strictly inside the clamp exactly where p does
            gp *= (pc > lo) & (pc < hi)
            return [gp]

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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(state: AdamState, params: dict, grads: dict, lr: float) -> tuple[AdamState, dict]:
    """One Adam update with bias correction; parameters update in place.

    The moment decays are :data:`ADAM_BETA1` and :data:`ADAM_BETA2`, and
    :data:`ADAM_EPS` is added to the root of the second moment.  Every
    input is checked before anything is written, and a call that raises
    leaves ``state`` and ``params`` as they were.

    Raises:
        ShapeMismatchError: a gradient or a moment is missing, or its
            shape is not its parameter's.
        netgraph.GraphError: ``lr`` or a gradient fails
            :func:`netgraph.real_values`, or ``lr`` is not one number.
        DiffcoreError: a gradient has a NaN or an infinite entry, which
            would reach the parameter and both moments, or ``lr`` is not
            finite and positive.
    """
    lr = float(real_values(lr, "adam_step: learning rate", ()))
    if not 0.0 < lr < np.inf:
        raise DiffcoreError(f"adam_step: the learning rate must be finite and positive, got {lr}")
    checked = {}
    for name, p in params.items():
        g = real_values(grads[name], f"adam_step: gradient of {name!r}") if name in grads else None
        shapes = [None if x is None else x.shape for x in (g, state.m.get(name), state.v.get(name))]
        if shapes != [p.shape] * 3:
            raise ShapeMismatchError(f"grad and moment shapes {shapes} vs param {p.shape} for {name!r}")
        if not np.isfinite(g).all():
            raise DiffcoreError(f"adam_step: the gradient of {name!r} has a NaN or an infinite entry")
        checked[name] = g
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = checked[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return state, params

