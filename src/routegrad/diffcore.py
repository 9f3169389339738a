"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray; operations executed while a
:class:`Tape` is active record backward closures, and
``Tape.gradient(scalar, inputs)`` replays them in reverse.  Ops executed
with no active tape are plain numpy calls, so inference pays no autodiff
overhead.

Retention contract: a backward closure never holds an input ``Tensor``.
When an op records itself it copies each input's uid (``None`` when the
input needs no gradient) and shape into locals, and the closure keeps
those plus only the arrays its formula reads.  ReLU and clip keep a
boolean mask, sigmoid and exp their output, layer normalization the
standardized values and the inverse deviations, a product or quotient
an operand only when the other side needs its gradient, a dense layer
its activations only when its weights need a gradient, a column
block (``columns``) nothing but its matrix's shape, and a row
concatenation (``concat_rows``) nothing but its row offsets.  An
intermediate activation is therefore freed as soon as the forward pass
drops it, and a batched-GNN gradient with fixed parameters retains
about one f64 standardized block plus one boolean mask per processed
latent element, not the whole forward graph.  The exceptions are inputs
a formula needs (``log`` keeps its argument, ``div`` its divisor) and
views: a ``reshape`` output and a ``columns`` block share their input's
buffer, so they keep it alive for as long as the caller holds them.

Also here: the temperature-weighted soft maximum, binary cross-entropy,
the Adam update rule, and a finite-difference gradient checker.
"""

from __future__ import annotations

import itertools
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
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Records operations for one reverse-mode gradient computation.

    Use as a context manager; ops run inside the block are recorded (on
    the innermost active tape only).  A tape belongs to a single thread.
    """

    def __init__(self):
        self._ops: list[tuple[int, object]] = []
        self._seen: set[int] = set()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _record(self, out: Tensor, grad_inputs: list[Tensor], backward) -> None:
        self._ops.append((out._uid, backward))
        self._seen.add(out._uid)
        for t in grad_inputs:
            self._seen.add(t._uid)

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
            NotScalarOutputError: ``output`` is not size-1.
            InputNotOnTapeError: an input never appeared on this tape
                (typically it was created without ``requires_grad``).
        """
        single = isinstance(inputs, Tensor)
        wanted = [inputs] if single else list(inputs)
        if output.size != 1:
            raise NotScalarOutputError(f"output has shape {output.shape}; expected a scalar")

        grads: dict[int, np.ndarray] = {output._uid: np.ones_like(output.data)}
        for i in range(len(self._ops) - 1, -1, -1):
            uid, backward = self._ops[i]
            g = grads.pop(uid, None)
            if g is None:
                continue
            for in_uid, gin in backward(g):
                acc = grads.get(in_uid)
                grads[in_uid] = gin if acc is None else acc + gin

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


def _finish(out_data, grad_inputs: list[Tensor], make_backward) -> Tensor:
    """Wraps op output; records backward only when needed."""
    tracked = [t for t in grad_inputs if t.requires_grad]
    out = Tensor(out_data, requires_grad=bool(tracked))
    tape = _active_tape()
    if tape is not None and tracked:
        tape._record(out, tracked, make_backward(out))
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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(out):
        ua, sa, ub, sb = _tracked_uid(a), a.shape, _tracked_uid(b), b.shape

        def run(g):
            pairs = []
            if ua is not None:
                pairs.append((ua, _unbroadcast(g, sa)))
            if ub is not None:
                pairs.append((ub, _unbroadcast(-g, sb)))
            return pairs

        return run

    return _finish(data, [a, b], backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(out):
        ua, sa, ub, sb = _tracked_uid(a), a.shape, _tracked_uid(b), b.shape
        a_data = a.data if b.requires_grad else None
        b_data = b.data if a.requires_grad else None

        def run(g):
            pairs = []
            if ua is not None:
                pairs.append((ua, _unbroadcast(g * b_data, sa)))
            if ub is not None:
                pairs.append((ub, _unbroadcast(g * a_data, sb)))
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


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(out):
        ua = a._uid
        return lambda g: [(ua, -g)]

    return _finish(-a.data, [a], backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(out):
        ua, y = a._uid, out.data
        return lambda g: [(ua, g * y)]

    return _finish(data, [a], backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(out):
        ua, x = a._uid, a.data
        return lambda g: [(ua, g / x)]

    return _finish(data, [a], backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with straight-through gradient inside [lo, hi], zero outside."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def backward(out):
        ua, mask = a._uid, (a.data > lo) & (a.data < hi)
        return lambda g: [(ua, g * mask)]

    return _finish(data, [a], backward)


# ---------------------------------------------------------------------------
# reductions and shape ops


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(out):
        ua, shape = a._uid, a.shape

        def run(g):
            gx = g
            if axis is not None and not keepdims:
                gx = np.expand_dims(gx, axis)
            return [(ua, np.broadcast_to(gx, shape))]

        return run

    return _finish(data, [a], backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def backward(out):
        ua, shape = a._uid, a.shape

        def run(g):
            gx = g
            if axis is not None and not keepdims:
                gx = np.expand_dims(gx, axis)
            return [(ua, np.broadcast_to(gx, shape) / count)]

        return run

    return _finish(data, [a], backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(out):
        ua, orig = a._uid, a.shape
        return lambda g: [(ua, g.reshape(orig))]

    return _finish(data, [a], backward)


def columns(a, lo: int, hi: int) -> Tensor:
    """Column block ``a[:, lo:hi]`` of a matrix, as a view.

    The backward writes ``g`` into a zero array shaped like ``a`` and keeps
    nothing of ``a`` but its shape.
    """
    a = as_tensor(a)
    if a.ndim != 2 or not 0 <= lo <= hi <= a.shape[1]:
        raise ShapeMismatchError(f"columns [{lo}, {hi}) of a matrix shaped {a.shape}")

    def backward(out):
        ua, shape = a._uid, a.shape

        def run(g):
            ga = np.zeros(shape, dtype=g.dtype)
            ga[:, lo:hi] = g
            return [(ua, ga)]

        return run

    return _finish(a.data[:, lo:hi], [a], backward)


def concat_rows(parts) -> Tensor:
    """Row concatenation ``np.concatenate(parts, axis=0)``.

    The parts must agree on every axis past the first.  The backward hands
    each part its row slice of ``g`` and keeps nothing but the offsets.
    """
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.ndim == 0 or p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeMismatchError(f"concat_rows: part shapes {[p.shape for p in parts]}")
    offsets = [0, *itertools.accumulate(p.shape[0] for p in parts)]

    def backward(out):
        slots = [(_tracked_uid(p), lo, hi) for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])]
        return lambda g: [(up, g[lo:hi]) for up, lo, hi in slots if up is not None]

    return _finish(np.concatenate([p.data for p in parts], axis=0), parts, backward)


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


def layer_normalize(x, gain, bias) -> Tensor:
    """Per-vector standardization over the trailing feature axis.

    ``y = (x - mean) / sqrt(var + 1e-5) * gain + bias`` with population
    variance, computed independently for every leading index.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    f = x.shape[-1]
    if gain.shape != (f,) or bias.shape != (f,):
        raise ShapeMismatchError(
            f"layer_normalize: gain {gain.shape} / bias {bias.shape} vs features {f}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc
    xhat *= istd  # xc is a private temporary
    out_data = _accumulate(xhat * gain.data, bias.data, y_owned=False)

    def backward(out):
        ux, ug, ub = _tracked_uid(x), _tracked_uid(gain), _tracked_uid(bias)
        g_data = gain.data

        def run(g):
            # (h - m1 - xhat * m2) * istd, evaluated in the same order in h
            # and one scratch array that the gain gradient then reuses
            pairs, scratch = [], None
            if ux is not None:
                h = g * g_data
                m1 = h.mean(axis=-1, keepdims=True)
                scratch = h * xhat
                m2 = scratch.mean(axis=-1, keepdims=True)
                np.multiply(xhat, m2, out=scratch)
                h -= m1
                h -= scratch
                h *= istd
                pairs.append((ux, h))
            if ug is not None:
                scratch = np.multiply(g, xhat, out=scratch)
                pairs.append((ug, scratch.reshape(-1, f).sum(axis=0)))
            if ub is not None:
                pairs.append((ub, g.reshape(-1, f).sum(axis=0)))
            return pairs

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
# objectives


def soft_maximum(x, tau: float) -> Tensor:
    """Temperature-weighted smooth maximum of all elements.

    ``sum_i x_i * exp(x_i / tau) / sum_j exp(x_j / tau)``, evaluated with
    max-subtraction so large ``x / tau`` ratios cannot overflow.  Equals
    the mean for large tau and approaches the hard maximum as tau -> 0+.
    """
    x = as_tensor(x)
    if x.size == 0:
        raise EmptyVectorError("soft_maximum of an empty tensor")
    if not tau > 0.0:
        raise NonPositiveTemperatureError(f"temperature must be positive, got {tau}")
    # shifting by the (detached) max leaves both value and gradient intact
    shift = float(x.data.max())
    e = exp(mul(sub(x, shift), 1.0 / tau))
    return div(tensor_sum(mul(x, e)), tensor_sum(e))


BCE_CLAMP = 1e-7


def binary_cross_entropy(p, labels) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 labels.

    Probabilities are clamped to ``[1e-7, 1 - 1e-7]`` so confidently wrong
    predictions yield a large finite loss instead of infinity.
    """
    p = as_tensor(p)
    y = np.asarray(labels.data if isinstance(labels, Tensor) else labels, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeMismatchError(f"labels shape {y.shape} vs predictions {p.shape}")
    pc = clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    term = add(mul(y, log(pc)), mul(1.0 - y, log(sub(1.0, pc))))
    return neg(mean(term))


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


# ---------------------------------------------------------------------------
# verification utility


def finite_difference_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Error of the taped gradient versus central differences, relative to its scale.

    The error is measured against the largest gradient entry rather than
    entry by entry: central differences carry an absolute roundoff floor
    of about ``eps * |f| / h``, so a correct gradient with some entries
    below that floor would otherwise fail whatever the step.

    Args:
        f: Callable mapping one Tensor to a scalar Tensor.
        x: Point at which to compare, any shape.
        h: Central-difference step.

    Returns:
        ``max_i |analytic_i - fd_i| / max(max_i |analytic_i|, max_i |fd_i|)``,
        or 0.0 when both gradients are exactly zero.
    """
    x = np.asarray(x, dtype=np.float64)
    xt = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(xt)
    analytic = tape.gradient(y, xt)

    flat = x.copy()
    view = flat.ravel()
    fd = np.zeros_like(view)
    for i in range(view.size):
        orig = view[i]
        view[i] = orig + h
        fp = float(f(Tensor(flat.copy())).data)
        view[i] = orig - h
        fm = float(f(Tensor(flat.copy())).data)
        view[i] = orig
        fd[i] = (fp - fm) / (2.0 * h)
    fd = fd.reshape(x.shape)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(analytic - fd))) / scale
