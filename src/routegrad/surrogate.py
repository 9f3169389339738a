"""Differentiable shortest-path surrogate: an encode-process-decode GNN.

Given a graph, its link weights, and a batch of (source, destination)
queries, the network outputs for each query a per-link probability of
lying on the weighted shortest path.  :func:`forward` is the one batched
evaluation, for training, grading and descent alike;
:func:`predict_all_pairs` runs it over every ordered node pair, which
yields a soft routing matrix that is differentiable with respect to the
link weights, the matrix the weight optimizer descends through.
:func:`forward` walks its queries in chunks whose latent block is at
most :data:`QUERY_BLOCK_BYTES`, a size that weighs the interpreter-lock
handoff each numpy call pays on a pool thread against the thread's own
L2 cache.  The chunk layout follows from the inputs alone, never from
the host's CPU count, so every output and gradient is the same bit for
bit on any host.  Each chunk's message passing and its decoder's hidden
layer run on a ``diffcore`` pool thread; the decoder's one-unit head,
its sigmoid, runs on the calling thread, chunk by chunk in chunk order.
On a tape, each chunk records on a tape of its own, and the reverse pass
pulls the chunks back on the pool.

Architecture: node features ``[I(u=i), I(v=i)]`` and edge features
``[w_k]`` are encoded independently by 2-layer MLPs, each followed by
layer normalization.  Each of T processor blocks updates edge latents
from (edge, receiver, sender) latents, sums updated incoming-edge latents
per node, and updates node latents from (aggregate, node).  The edge
update's first layer is evaluated project-then-gather: its receiver and
sender column blocks multiply the per-node latents, and the projected
rows are gathered onto the links.  That is the same function as the
dense layer over the concatenation, with N rows instead of E in two of
its three products (Battaglia et al., 2018, "Relational inductive
biases, deep learning, and graph networks").  Every MLP block (dense,
ReLU, dense, layer norm) is one fused :func:`diffcore.mlp_ln` op: its
first-layer terms, the gathers and the node update's sum over incoming
links included, are summed in place inside it, its backward is written
by hand, and the tape holds one record per block instead of one per
element-wise step.  A shared decoder MLP with a sigmoid head reads edge
latents; its hidden layer is one fused :func:`diffcore.dense_relu` op.
During training it is applied after every block so each block learns to
refine the previous one's prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .netgraph import Graph, GraphError, node_indices, ordered_pairs, positive_integer, real_values, validate_weights

CHECKPOINT_FORMAT = "routegrad-gnn"
CHECKPOINT_VERSION = 2
NODE_FEATURES = 2
EDGE_FEATURES = 1
# Largest ``[chunk, n_e, hidden]`` latent block of one query chunk.  Each
# pool thread works on one chunk at a time, on a core with its own L2
# cache, so the budget is per chunk.  It trades two costs.  A numpy call
# on a pool thread releases the interpreter lock and must win it back
# from the other thread, and short calls pay for that handoff: on a 2-CPU
# host, descent_n24's untaped forward took 785-868 ms of summed thread
# CPU time in 46 chunks of 12 queries on two threads, 730 ms in 24 chunks
# of 23, and 619 ms in 23 chunks of 24 inline on one CPU.  A block past
# the 2 MiB L2, on the other hand, goes out to memory on every
# element-wise pass.  A sweep of descent_n24 from 46 chunks of 12
# queries to 8 of 69 stepped fastest at 24 chunks of 23, and the peak
# memory grows with the chunk beyond that.  920 KiB is 23 queries at
# descent_n24's 80 links and H=64, so its 552 queries run as 24 chunks of
# 23, and train_n24's 32 as 2 of 16.
QUERY_BLOCK_BYTES = 920 * 2**10


class CheckpointError(ValueError):
    """A model checkpoint document is malformed or inconsistent."""


@dataclass(frozen=True)
class GnnConfig:
    """Architecture hyperparameters.

    ``hidden`` and ``rounds`` pass :func:`netgraph.positive_integer` and
    are stored as ``int``.  ``share_processor=True`` reuses one block's
    parameters for all T message-passing rounds (recurrent core) instead
    of T distinct blocks.
    """

    hidden: int = 128
    rounds: int = 8
    share_processor: bool = False

    def __post_init__(self):
        # stored as int, so that a checkpoint's JSON holds ints; a
        # checkpoint's string "false" would read as True through bool()
        for name in ("hidden", "rounds"):
            object.__setattr__(self, name, positive_integer(getattr(self, name), name))
        if not isinstance(self.share_processor, bool):
            raise GraphError(f"share_processor must be a bool, not {self.share_processor!r}")

    def parameter_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in the order they are initialized.

        Each MLP is two dense layers (``_l1``, ``_l2``, weights ``[n_out,
        n_in]`` and bias) followed by a layer norm (``_ln_gain``,
        ``_ln_bias``); the decoder is two dense layers ending in one unit.
        The last round updates no node, so a block read only by the last
        round has no node MLP.
        """
        h = self.hidden
        shapes: dict[str, tuple[int, ...]] = {}

        def dense(name, n_out, n_in):
            shapes[f"{name}_w"] = (n_out, n_in)
            shapes[f"{name}_b"] = (n_out,)

        def mlp_ln(prefix, n_in):
            dense(f"{prefix}_l1", h, n_in)
            dense(f"{prefix}_l2", h, h)
            shapes[f"{prefix}_ln_gain"] = (h,)
            shapes[f"{prefix}_ln_bias"] = (h,)

        mlp_ln("enc_node", NODE_FEATURES)
        mlp_ln("enc_edge", EDGE_FEATURES)
        for t in range(1 if self.share_processor else self.rounds):
            mlp_ln(f"proc{t}_edge", 3 * h)
            if t < self.rounds - 1:
                mlp_ln(f"proc{t}_node", 2 * h)
        dense("dec_l1", h, h)
        dense("dec_l2", 1, h)
        return shapes


class GnnModel:
    """Parameter container for the surrogate network."""

    def __init__(self, config: GnnConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: GnnConfig = GnnConfig(), seed: int = 0) -> "GnnModel":
        """Fresh model with He-initialized layers and identity layer norms.

        Dense weights are drawn in :meth:`GnnConfig.parameter_shapes`
        order; the final decoder layer uses variance ``1/n_in`` instead of
        ``2/n_in``.  Biases and layer-norm biases are zero, gains one.
        """
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in config.parameter_shapes().items():
            if name.endswith("_w"):
                std = np.sqrt((1.0 if name == "dec_l2_w" else 2.0) / shape[1])
                params[name] = rng.normal(0.0, std, shape)
            elif name.endswith("_gain"):
                params[name] = np.ones(shape)
            else:
                params[name] = np.zeros(shape)
        return cls(config, params)

    def parameter_names(self) -> list[str]:
        return sorted(self.params)

    def block_prefix(self, round_index: int) -> str:
        t = 0 if self.config.share_processor else round_index
        return f"proc{t}"

    def tensors(self, requires_grad: bool = False) -> dict:
        """Parameters wrapped as Tensors.

        The tensors alias the stored arrays, so in-place optimizer updates
        are visible to subsequent forwards.
        """
        return {k: dc.Tensor(v, requires_grad=requires_grad) for k, v in self.params.items()}


def _mlp_ln(terms, mt, prefix):
    """The MLP block ``prefix`` over ``terms``, as :func:`diffcore.mlp_ln` takes them."""
    names = ("l1_w", "l1_b", "l2_w", "l2_b", "ln_gain", "ln_bias")
    return dc.mlp_ln(terms, *(mt[f"{prefix}_{name}"] for name in names))


def _decode(hidden, mt) -> dc.Tensor:
    """The decoder's one-unit head over its hidden activation ``[..., H]``:
    the edge probabilities ``[...]``."""
    p = dc.sigmoid(dc.affine(hidden, mt["dec_l2_w"], mt["dec_l2_b"]))
    return dc.reshape(p, p.shape[:-1])


def query_indicators(g: Graph, queries) -> np.ndarray:
    """Node feature block for a batch of queries: [I(u=i), I(v=i)] per node.

    Args:
        g: Graph whose nodes the queries name.
        queries: ``(source, destination)`` pairs, as an integer ``[n_q, 2]``
            array or a sequence of pairs of Python or numpy integers.

    Raises:
        GraphError: an endpoint fails :func:`netgraph.node_indices`, a
            query is not a pair, or its endpoints are equal.
    """
    n = g.node_count
    pairs = node_indices(queries, n, "query endpoints")
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise GraphError(f"queries of shape {pairs.shape} are not (source, destination) pairs")
    pairs = pairs.reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise GraphError("query endpoints must differ")
    ind = np.zeros((len(pairs), n, NODE_FEATURES))
    rows = np.arange(len(pairs))
    ind[rows, pairs[:, 0], 0] = 1.0
    ind[rows, pairs[:, 1], 1] = 1.0
    return ind


def forward(
    g: Graph,
    weights,
    indicators: np.ndarray,
    model: GnnModel,
    per_step: bool = False,
    model_tensors=None,
):
    """Batched surrogate evaluation, in query chunks.

    Args:
        g: Graph whose links are being classified.
        weights: Link weights; pass a ``requires_grad`` Tensor to obtain
            gradients with respect to them.
        indicators: Finite ``[n_q, n_v, 2]`` query features (see
            :func:`query_indicators`).
        model: Trained or fresh model.
        per_step: Also return the decoder output after every round.
        model_tensors: Pre-wrapped parameter tensors, to share across
            calls inside one tape; pass ``model.tensors(requires_grad=True)``
            to obtain gradients with respect to the parameters.

    Returns:
        ``(final, steps)``: final-round edge probabilities ``[n_q, n_e]``
        and, when ``per_step``, the list of all per-round outputs.

    The edge encoder reads the weights alone, so it runs once, and the
    queries are split into the fewest near-equal chunks whose ``[chunk,
    n_e, hidden]`` latent block is at most ``QUERY_BLOCK_BYTES``, or into
    chunks of one query when one query's block is larger.  The bound is per chunk, not per pool: chunks as large
    as a thread's L2 allows make each numpy call long enough to amortize
    its handoff between the pool threads.  The layout depends on the
    query count, the graph and the width alone, not on the pool's size,
    so the chunks' gradients are summed in the same order, and agree bit
    for bit, on any host.  :func:`diffcore.map_rows` joins the chunks:
    their message passing and their decoder's hidden layer run in parallel
    on the pool, and the decoder's one-unit head, the sigmoid and the
    reshape on the calling thread, in chunk order.  On a tape they are
    pulled back in parallel, into whatever tracked tensors the chunks read
    (the shared edge block, and the parameters when they are tracked).
    Queries do not interact, so each row is the one a single batch of
    every query gives.

    Raises:
        GraphError: ``weights`` is not ``[n_e]`` or has a value outside
            ``[W_MIN, W_MAX]`` (NaN included; see
            :func:`netgraph.validate_weights`), or ``indicators`` fails
            :func:`netgraph.real_values` or is not a finite ``[n_q, n_v,
            2]`` array.
    """
    mt = model_tensors if model_tensors is not None else model.tensors()
    w = dc.as_tensor(weights)
    validate_weights(g, w.data)
    ind = np.ascontiguousarray(real_values(indicators, "indicators"))
    if ind.ndim != 3 or ind.shape[1:] != (g.node_count, NODE_FEATURES):
        raise GraphError(f"indicators shape {ind.shape}, expected (n_q, {g.node_count}, {NODE_FEATURES})")
    if not np.all(np.isfinite(ind)):
        raise GraphError("indicators contain NaN or infinity")

    edges = _mlp_ln([(dc.reshape(w, (1, g.edge_count, 1)), None)], mt, "enc_edge")
    block = g.edge_count * model.config.hidden * ind.itemsize
    cap = max(1, QUERY_BLOCK_BYTES // max(1, block))
    chunks = max(1, -(-len(ind) // cap))
    outs = dc.map_rows(
        lambda rows: _forward_chunk(g, edges, rows, model, mt, per_step),
        np.array_split(ind, chunks),
        lambda hidden: tuple(_decode(h, mt) for h in hidden),
    )
    return outs[-1], (list(outs) if per_step else [])


def _forward_chunk(g: Graph, edges, indicators: np.ndarray, model: GnnModel, mt, per_step: bool) -> tuple:
    """The decoder's hidden activations ``[chunk, n_e, H]`` of one query
    chunk: every round's when ``per_step``, else the last round's.

    ``edges`` is the encoded ``[1, n_e, H]`` link block all chunks share.
    This runs on a pool thread, so every op here is one
    :func:`diffcore.mlp_ln`, the sum of each node's incoming edge latents
    included, or the decoder's hidden layer, one
    :func:`diffcore.dense_relu`: the benchmark's span tracer
    (``perfbench/spans.py``) keeps one stack of open spans for the
    process, so each op it traces must run on the calling thread, and it
    traces neither of these two.  The decoder's one-unit head runs in
    :func:`forward`, on the calling thread.
    """
    nodes = _mlp_ln([(dc.Tensor(indicators), None)], mt, "enc_node")
    hidden = []
    rounds = model.config.rounds
    for t in range(rounds):
        last = t == rounds - 1
        prefix = model.block_prefix(t)
        edges = _mlp_ln([(edges, None), (nodes, g.receivers), (nodes, g.senders)], mt, f"{prefix}_edge")
        # the final node update feeds nothing the decoder can see
        if not last:
            nodes = _mlp_ln([(edges, g.receivers, g.node_count), (nodes, None)], mt, f"{prefix}_node")
        if per_step or last:
            hidden.append(dc.dense_relu(edges, mt["dec_l1_w"], mt["dec_l1_b"]))
    return tuple(hidden)


def predict_all_pairs(model: GnnModel, g: Graph, weights) -> dc.Tensor:
    """Soft routing matrix: one probability row per ordered pair.

    Row i corresponds to ``ordered_pairs(n)[i]``; differentiable with
    respect to ``weights``.  This is one :func:`forward` over every pair,
    so it is evaluated in that function's query chunks.
    """
    return forward(g, weights, query_indicators(g, ordered_pairs(g.node_count)), model)[0]


# ---------------------------------------------------------------------------
# checkpoint serialization (the document is described in save_checkpoint)


def save_checkpoint(model: GnnModel, path) -> None:
    """Writes the model as a canonical JSON document.

    The version-2 document is one object with the fields ``format``
    (``"routegrad-gnn"``), ``version`` (2), ``hidden``, ``rounds``,
    ``share_processor``, ``node_feature_width`` (2), ``edge_feature_width``
    (1) and ``params``, which maps every name of
    :meth:`GnnConfig.parameter_shapes` to ``{"shape": [...], "data":
    [...]}`` with the array flattened in C order.  Version 1 also stored
    the last round's node MLP, which no forward reads; it is rejected.

    Floats are emitted as shortest round-trip decimals, keys are sorted,
    and separators are fixed, so saving the same parameters always
    produces identical bytes.

    Raises:
        CheckpointError: the document is one :func:`load_checkpoint`
            rejects (a missing, extra or misshapen parameter, or a NaN or
            an infinity, which JSON cannot represent); ``path`` is then
            not opened.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "hidden": model.config.hidden,
        "rounds": model.config.rounds,
        "share_processor": model.config.share_processor,
        "node_feature_width": NODE_FEATURES,
        "edge_feature_width": EDGE_FEATURES,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.params.items()
        },
    }
    _model_from_document(doc)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
        fh.write("\n")


def load_checkpoint(path) -> GnnModel:
    """Reads a checkpoint, validating structure, names, and shapes.

    Raises:
        CheckpointError: for any document that is not a well-formed
            checkpoint of this implementation.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"not an ASCII JSON document: {exc}") from exc
    return _model_from_document(doc)


def _model_from_document(doc) -> GnnModel:
    """The model a checkpoint document describes; the one check of a
    document, for :func:`save_checkpoint` and :func:`load_checkpoint`.

    Raises:
        CheckpointError: for any document that is not a well-formed
            checkpoint of this implementation.
    """
    try:
        if not isinstance(doc, dict):
            raise CheckpointError(f"top level is a {type(doc).__name__}, not an object")
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unknown checkpoint format {doc.get('format')!r}")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
        if doc.get("node_feature_width") != NODE_FEATURES or doc.get("edge_feature_width") != EDGE_FEATURES:
            raise CheckpointError("feature widths do not match this implementation")
        config = GnnConfig(hidden=doc["hidden"], rounds=doc["rounds"], share_processor=doc["share_processor"])
        expected = config.parameter_shapes()
        stored = doc.get("params")
        if not isinstance(stored, dict):
            raise CheckpointError("missing params table")
        if set(stored) != set(expected):
            missing = set(expected) - set(stored)
            extra = set(stored) - set(expected)
            raise CheckpointError(f"parameter names mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        params = {}
        for name, entry in stored.items():
            shape = tuple(entry["shape"])
            if shape != expected[name]:
                raise CheckpointError(f"{name}: stored shape {shape} != expected {expected[name]}")
            # flat, so that [[0.5]] is not read as a row
            arr = real_values(entry["data"], f"{name} data", (int(np.prod(shape)),)).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{name}: non-finite values")
            params[name] = arr
        return GnnModel(config, params)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
