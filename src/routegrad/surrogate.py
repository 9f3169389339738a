"""Differentiable shortest-path surrogate: an encode-process-decode GNN.

Given a graph, its link weights, and a batch of (source, destination)
queries, the network outputs for each query a per-link probability of
lying on the weighted shortest path.  :func:`forward` is the one batched
evaluation, for training, grading and descent alike;
:func:`predict_all_pairs` runs it over every ordered node pair, which
yields a soft routing matrix that is differentiable with respect to the
link weights, the matrix the weight optimizer descends through.
:func:`forward` walks its queries in chunks sized so that the latent
blocks in flight stay cache-resident (:data:`QUERY_BLOCK_BYTES`).  It
runs the chunks' message passing on :data:`diffcore.POOL_WORKERS`
threads at once and decodes each chunk on the calling thread, in chunk
order; on a tape, each chunk records on a tape of its own, and the
reverse pass pulls the chunks back on the same threads.

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
latents; during training it is applied after every block so each block
learns to refine the previous one's prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .netgraph import Graph, GraphError, node_indices, ordered_pairs, validate_weights

CHECKPOINT_FORMAT = "routegrad-gnn"
CHECKPOINT_VERSION = 2
NODE_FEATURES = 2
EDGE_FEATURES = 1
# Largest sum of the ``[chunk, n_e, hidden]`` latent blocks forward has in
# flight at once.  Forward and backward each run diffcore.POOL_WORKERS
# chunks in parallel, so a chunk's block is at most this // POOL_WORKERS.
# Each op streams blocks of that size; at 1 MiB in all they stay resident
# in a 2 MiB L2 cache between the element-wise passes instead of going out
# to memory on every pass.
QUERY_BLOCK_BYTES = 2**20


class CheckpointError(ValueError):
    """A model checkpoint document is malformed or inconsistent."""


@dataclass(frozen=True)
class GnnConfig:
    """Architecture hyperparameters.

    ``share_processor=True`` reuses one block's parameters for all T
    message-passing rounds (recurrent core) instead of T distinct blocks.
    """

    hidden: int = 128
    rounds: int = 8
    share_processor: bool = False

    def __post_init__(self):
        # a float width would give float shapes, and a checkpoint's string
        # "false" would read as True through bool()
        for name in ("hidden", "rounds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise GraphError(f"{name} must be an integer >= 1, not {value!r}")
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


def _decode(edges, mt) -> dc.Tensor:
    h = dc.relu(dc.affine(edges, mt["dec_l1_w"], mt["dec_l1_b"]))
    p = dc.sigmoid(dc.affine(h, mt["dec_l2_w"], mt["dec_l2_b"]))
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
            :func:`query_indicators`).  Disjoint graph components may
            carry independent queries in a single row.
        model: Trained or fresh model.
        per_step: Also return the decoder output after every round.
        model_tensors: Pre-wrapped parameter tensors, to share across
            calls inside one tape; pass ``model.tensors(requires_grad=True)``
            to obtain gradients with respect to the parameters.

    Returns:
        ``(final, steps)``: final-round edge probabilities ``[n_q, n_e]``
        and, when ``per_step``, the list of all per-round outputs.

    The edge encoder reads the weights alone, so it runs once, and the
    queries are split into near-equal chunks whose ``[chunk, n_e, hidden]``
    latent block is at most ``QUERY_BLOCK_BYTES // diffcore.POOL_WORKERS``.
    The chunk count is rounded up to a multiple of the pool's workers,
    so that they share the chunks evenly, but never past one chunk per
    query.  :func:`diffcore.map_rows` joins the chunks: their
    message passing runs in parallel on the pool and their decoder on the
    calling thread, in chunk order, and on a tape they are pulled back in
    parallel, into whatever tracked tensors the chunks read (the shared
    edge block, and the parameters when they are tracked).  Queries do
    not interact, so each row is the one a single batch of every query
    gives.

    Raises:
        GraphError: ``weights`` is not ``[n_e]`` or has a value outside
            ``[W_MIN, W_MAX]`` (NaN included; see
            :func:`netgraph.validate_weights`), or ``indicators`` is not a
            finite ``[n_q, n_v, 2]`` array.
    """
    mt = model_tensors if model_tensors is not None else model.tensors()
    w = dc.as_tensor(weights)
    validate_weights(g, w.data)
    ind = np.ascontiguousarray(indicators, dtype=np.float64)
    if ind.ndim != 3 or ind.shape[1:] != (g.node_count, NODE_FEATURES):
        raise GraphError(f"indicators shape {ind.shape}, expected (n_q, {g.node_count}, {NODE_FEATURES})")
    if not np.all(np.isfinite(ind)):
        raise GraphError("indicators contain NaN or infinity")

    edges = _mlp_ln([(dc.reshape(w, (1, g.edge_count, 1)), None)], mt, "enc_edge")
    workers = dc.POOL_WORKERS
    block = g.edge_count * model.config.hidden * ind.itemsize
    cap = max(1, QUERY_BLOCK_BYTES // workers // max(1, block))
    chunks = -(-len(ind) // cap)
    chunks = max(1, min(len(ind), -(-chunks // workers) * workers))
    outs = dc.map_rows(
        lambda rows: _forward_chunk(g, edges, rows, model, mt, per_step),
        np.array_split(ind, chunks),
        lambda blocks: tuple(_decode(block, mt) for block in blocks),
    )
    return outs[-1], (list(outs) if per_step else [])


def _forward_chunk(g: Graph, edges, indicators: np.ndarray, model: GnnModel, mt, per_step: bool) -> tuple:
    """The edge blocks of one query chunk the decoder reads: every round's
    when ``per_step``, else the last round's.

    ``edges`` is the encoded ``[1, n_e, H]`` link block all chunks share.
    This runs on a pool thread, so every op here is one
    :func:`diffcore.mlp_ln`, the sum of each node's incoming edge latents
    included: the benchmark's span tracer (``perfbench/spans.py``) keeps
    one stack of open spans for the process, so each op it traces must
    run on the calling thread, and it does not trace ``mlp_ln``.
    """
    nodes = _mlp_ln([(dc.Tensor(indicators), None)], mt, "enc_node")
    blocks = []
    rounds = model.config.rounds
    for t in range(rounds):
        last = t == rounds - 1
        prefix = model.block_prefix(t)
        edges = _mlp_ln([(edges, None), (nodes, g.receivers), (nodes, g.senders)], mt, f"{prefix}_edge")
        # the final node update feeds nothing the decoder can see
        if not last:
            nodes = _mlp_ln([(edges, g.receivers, g.node_count), (nodes, None)], mt, f"{prefix}_node")
        if per_step or last:
            blocks.append(edges)
    return tuple(blocks)


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
        CheckpointError: a parameter holds a NaN or an infinity, which
            JSON cannot represent; ``path`` is then not opened.
    """
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{name}: non-finite values")
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
    try:
        return _model_from_document(doc)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc


def _model_from_document(doc) -> GnnModel:
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
        data = entry["data"]
        # a cast would read "0.5" as 0.5, true as 1.0 and [[0.5]] as a row
        if not isinstance(data, list) or not all(type(x) in (int, float) for x in data):
            raise CheckpointError(f"{name}: data is not a flat list of numbers")
        arr = np.array(data, dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{name}: non-finite values")
        params[name] = arr
    return GnnModel(config, params)
