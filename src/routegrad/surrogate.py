"""Differentiable shortest-path surrogate: an encode-process-decode GNN.

Given a graph, its link weights, and a batch of (source, destination)
queries, the network outputs for each query a per-link probability of
lying on the weighted shortest path.  :func:`forward` is the one batched
evaluation; :func:`predict_all_pairs` runs it over every ordered node
pair, which yields a soft routing matrix that is differentiable with
respect to the link weights, the matrix the weight optimizer descends
through.  It walks the pairs in query chunks sized so that one latent
block stays cache-resident (:data:`QUERY_BLOCK_BYTES`); on a tape, the
reverse pass then walks the same chunks.

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
biases, deep learning, and graph networks").  A shared
decoder MLP with a sigmoid head reads edge latents; during training it is
applied after every block so each block learns to refine the previous
one's prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .netgraph import Graph, GraphError, ordered_pairs, validate_weights

CHECKPOINT_FORMAT = "routegrad-gnn"
CHECKPOINT_VERSION = 2
NODE_FEATURES = 2
EDGE_FEATURES = 1
# Largest ``[chunk, n_e, hidden]`` latent block predict_all_pairs builds.
# Each op of the forward, and of its backward on a tape, streams blocks of
# this size; at 1 MiB one stays resident in a 2 MiB L2 cache between the
# element-wise passes instead of going out to memory on every pass.
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
        if self.hidden < 1 or self.rounds < 1:
            raise GraphError("hidden width and round count must be >= 1")

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


def _mlp_ln(xs, mt, prefix):
    return _mlp_ln_tail(dc.affine_sum(xs, mt[f"{prefix}_l1_w"], mt[f"{prefix}_l1_b"]), mt, prefix)


def _mlp_ln_tail(z, mt, prefix):
    """ReLU, second dense layer and layer norm over a first-layer output."""
    z = dc.relu(z)
    z = dc.affine(z, mt[f"{prefix}_l2_w"], mt[f"{prefix}_l2_b"])
    return dc.layer_normalize(z, mt[f"{prefix}_ln_gain"], mt[f"{prefix}_ln_bias"])


def _edge_update(edges, nodes, g: Graph, mt, prefix):
    """Edge MLP over ``[edges, nodes[receivers], nodes[senders]]``.

    The first layer's receiver and sender column blocks multiply the
    ``[n_q, N, H]`` node latents, and only the projected rows are gathered
    onto the links.
    """
    w, h = mt[f"{prefix}_l1_w"], nodes.shape[-1]
    z = dc.affine(edges, dc.columns(w, 0, h), mt[f"{prefix}_l1_b"])
    z = dc.add(z, dc.index_rows(dc.affine(nodes, dc.columns(w, h, 2 * h)), g.receivers))
    z = dc.add(z, dc.index_rows(dc.affine(nodes, dc.columns(w, 2 * h, 3 * h)), g.senders))
    return _mlp_ln_tail(z, mt, prefix)


def _decode(edges, mt) -> dc.Tensor:
    h = dc.relu(dc.affine(edges, mt["dec_l1_w"], mt["dec_l1_b"]))
    p = dc.sigmoid(dc.affine(h, mt["dec_l2_w"], mt["dec_l2_b"]))
    return dc.reshape(p, p.shape[:-1])


def query_indicators(g: Graph, queries) -> np.ndarray:
    """Node feature block for a batch of queries: [I(u=i), I(v=i)] per node."""
    n = g.node_count
    ind = np.zeros((len(queries), n, NODE_FEATURES))
    for row, (u, v) in enumerate(queries):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"query ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise GraphError("query endpoints must differ")
        ind[row, u, 0] = 1.0
        ind[row, v, 1] = 1.0
    return ind


def forward(
    g: Graph,
    weights,
    indicators: np.ndarray,
    model: GnnModel,
    per_step: bool = False,
    model_tensors=None,
):
    """Batched surrogate evaluation.

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

    Raises:
        GraphError: ``weights`` is not ``[n_e]`` or has a value outside
            ``[W_MIN, W_MAX]`` (NaN included; see
            :func:`netgraph.validate_weights`), or ``indicators`` is not a
            finite ``[n_q, n_v, 2]`` array.
    """
    mt = model_tensors if model_tensors is not None else model.tensors()
    w = dc.as_tensor(weights)
    validate_weights(g, w.data)
    w_col = dc.reshape(w, (1, g.edge_count, 1))
    ind = np.ascontiguousarray(indicators, dtype=np.float64)
    if ind.ndim != 3 or ind.shape[1:] != (g.node_count, NODE_FEATURES):
        raise GraphError(f"indicators shape {ind.shape}, expected (n_q, {g.node_count}, {NODE_FEATURES})")
    if not np.all(np.isfinite(ind)):
        raise GraphError("indicators contain NaN or infinity")
    ind = dc.Tensor(ind)

    nodes = _mlp_ln([ind], mt, "enc_node")
    edges = _mlp_ln([w_col], mt, "enc_edge")
    steps: list[dc.Tensor] = []
    final = None
    rounds = model.config.rounds
    for t in range(rounds):
        last = t == rounds - 1
        prefix = model.block_prefix(t)
        edges = _edge_update(edges, nodes, g, mt, f"{prefix}_edge")
        # the final node update feeds nothing the decoder can see; the
        # aggregated block is passed inline so that it is freed as soon as
        # the layer reading it returns
        if not last:
            nodes = _mlp_ln([dc.segment_sum(edges, g.receivers, g.node_count), nodes], mt, f"{prefix}_node")
        if per_step or last:
            out = _decode(edges, mt)
            if per_step:
                steps.append(out)
            if last:
                final = out
    return final, steps


def predict_all_pairs(model: GnnModel, g: Graph, weights) -> dc.Tensor:
    """Soft routing matrix: one probability row per ordered pair.

    Row i corresponds to ``ordered_pairs(n)[i]``; differentiable with
    respect to ``weights``.  The pairs are evaluated in near-equal query
    chunks whose ``[chunk, n_e, hidden]`` latent block is at most
    :data:`QUERY_BLOCK_BYTES`, one :func:`forward` per chunk with shared
    parameter tensors, and the rows are joined by
    :func:`diffcore.concat_rows`.  Queries do not interact, so each row is
    the one a single batched forward gives; a batch that fits in one chunk
    is that forward's output as is.
    """
    ind = query_indicators(g, ordered_pairs(g.node_count))
    block = g.edge_count * model.config.hidden * ind.itemsize
    chunk = max(1, QUERY_BLOCK_BYTES // max(1, block))
    mt = model.tensors()
    parts = [
        forward(g, weights, rows, model, model_tensors=mt)[0]
        for rows in np.array_split(ind, max(1, -(-len(ind) // chunk)))
    ]
    return parts[0] if len(parts) == 1 else dc.concat_rows(parts)


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
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
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
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"not valid JSON: {exc}") from exc
    try:
        return _model_from_document(doc)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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
    config = GnnConfig(
        hidden=int(doc["hidden"]),
        rounds=int(doc["rounds"]),
        share_processor=bool(doc["share_processor"]),
    )
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
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{name}: non-finite values")
        params[name] = arr
    return GnnModel(config, params)
