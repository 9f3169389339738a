"""Directed network model and the checks on what is routed over it.

The data model is deliberately small: a validated directed graph with
per-link capacities, plus plain float64 numpy vectors for link weights,
traffic demands and path membership, each with its validator here.
Every array over source-destination pairs, demand vectors and
routing-matrix rows alike, follows one fixed enumeration,
:func:`ordered_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Floor defining "positive" link weights.  Plain gradient updates can
# otherwise drive weights to zero or below, which breaks shortest-path
# semantics.
W_MIN = 1e-3
# Ceiling on link weights (OSPF weights are at most 65535).  A simple path
# has at most n-1 links, so its cost is at most (n-1)*W_MAX, and that is at
# most W_MIN * 2**52 for n below 4.5 million: adding any valid weight to
# any path cost then raises it by at least one unit in the last place, so
# float path sums strictly increase.  Without the ceiling, 1e14 + 1e-3 ==
# 1e14 and equal-cost cycles of real links make a predecessor cycle.
W_MAX = 1e6


class GraphError(ValueError):
    """Base class for graph construction and arithmetic errors."""


class SelfLoopError(GraphError):
    """A link connects a node to itself."""


class DuplicateEdgeError(GraphError):
    """Two directed links share the same (sender, receiver) pair."""


class NonPositiveCapacityError(GraphError):
    """A link capacity is zero or negative."""


class NotStronglyConnectedError(GraphError):
    """The directed graph does not connect every ordered node pair."""


class DimensionMismatchError(GraphError):
    """A vector or matrix does not match the graph's dimensions."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed network topology with link capacities.

    Equality and hashing are by identity: two graphs built from the same
    links are different objects, and a graph can key a weak dictionary.

    Construction validates every structural invariant: integral indices
    in range, no self-loops, no duplicate directed links, strictly
    positive capacities, and strong connectivity (every ordered pair of
    nodes must be connected by some directed path, otherwise routing is
    undefined).

    Attributes:
        node_count: Number of nodes, indexed ``0 .. node_count-1``.
        receivers: int array of length ``edge_count``; head of each link.
        senders: int array of length ``edge_count``; tail of each link.
        capacities: float64 array of per-link capacities (Mbps).
        name: Free-form label used in reports.
    """

    node_count: int
    receivers: np.ndarray
    senders: np.ndarray
    capacities: np.ndarray
    name: str = ""

    def __post_init__(self):
        try:
            n = int(self.node_count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"node_count {self.node_count!r} is not an integer") from exc
        if n != self.node_count:
            raise GraphError(f"node_count {self.node_count!r} is not an integer")
        if n < 1:
            raise GraphError("graph needs at least one node")
        # private copies: the caller's arrays stay writeable, and writing
        # to them later cannot change a graph that has been validated
        receivers = _node_indices(self.receivers, "receivers")
        senders = _node_indices(self.senders, "senders")
        capacities = np.array(self.capacities, dtype=np.float64)
        if receivers.ndim != 1 or senders.shape != receivers.shape:
            raise DimensionMismatchError("receivers and senders must be equal-length 1-D arrays")
        if capacities.shape != receivers.shape:
            raise DimensionMismatchError(
                f"capacities has length {capacities.size}, expected {receivers.size}"
            )
        if receivers.size and (
            receivers.min() < 0 or receivers.max() >= n or senders.min() < 0 or senders.max() >= n
        ):
            raise GraphError("edge endpoint index out of range")
        if np.any(receivers == senders):
            k = int(np.flatnonzero(receivers == senders)[0])
            raise SelfLoopError(f"edge {k} is a self-loop at node {int(receivers[k])}")
        pairs = set()
        for k in range(receivers.size):
            key = (int(senders[k]), int(receivers[k]))
            if key in pairs:
                raise DuplicateEdgeError(f"duplicate directed link {key[0]}->{key[1]}")
            pairs.add(key)
        if np.any(capacities <= 0.0):
            k = int(np.flatnonzero(capacities <= 0.0)[0])
            raise NonPositiveCapacityError(f"edge {k} has capacity {capacities[k]}")

        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "receivers", receivers)
        object.__setattr__(self, "senders", senders)
        object.__setattr__(self, "capacities", capacities)
        receivers.setflags(write=False)
        senders.setflags(write=False)
        capacities.setflags(write=False)

        if not _strongly_connected(n, senders, receivers):
            raise NotStronglyConnectedError(
                f"graph {self.name!r} is not strongly connected"
            )

    @property
    def edge_count(self) -> int:
        return int(self.receivers.size)

    @property
    def pair_count(self) -> int:
        return self.node_count * (self.node_count - 1)


def _node_indices(values, what: str) -> np.ndarray:
    """A private int64 copy of ``values``; a fractional or non-finite entry raises."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iu":
        try:
            raw = raw.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"{what} are not node indices: {exc}") from exc
        if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise GraphError(f"{what} has an entry that is not an integer")
    return np.array(raw, dtype=np.int64)


def _strongly_connected(n, senders, receivers) -> bool:
    # BFS forward from node 0 and BFS over reversed edges; reaching every
    # node both ways is equivalent to strong connectivity.
    if n == 1:
        return True

    def reaches_all(adj_heads):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj_heads[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return bool(seen.all())

    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for k in range(senders.size):
        fwd[int(senders[k])].append(int(receivers[k]))
        rev[int(receivers[k])].append(int(senders[k]))
    return reaches_all(fwd) and reaches_all(rev)


def build_graph(
    node_count: int,
    links: Iterable[tuple[int, int, float, bool]],
    name: str = "",
) -> Graph:
    """Builds a validated :class:`Graph` from a link list.

    Args:
        node_count: Number of nodes.
        links: Iterable of ``(a, b, capacity, directed)``.  A directed
            entry becomes the single link ``a -> b``; an undirected entry
            expands into the two links ``a -> b`` and ``b -> a``, each
            carrying the full stated capacity.
        name: Label attached to the graph.

    Raises:
        SelfLoopError, DuplicateEdgeError, NonPositiveCapacityError,
        NotStronglyConnectedError: invariant violations.
    """
    senders: list[int] = []
    receivers: list[int] = []
    capacities: list[float] = []
    for a, b, cap, directed in links:
        senders.append(int(a))
        receivers.append(int(b))
        capacities.append(float(cap))
        if not directed:
            senders.append(int(b))
            receivers.append(int(a))
            capacities.append(float(cap))
    return Graph(node_count, np.array(receivers), np.array(senders), np.array(capacities), name)


def ordered_pairs(node_count: int) -> np.ndarray:
    """The fixed enumeration of ordered node pairs.

    Lexicographic over (source, destination) with source != destination;
    row i of every routing matrix and entry i of every demand vector
    refer to ``ordered_pairs(n)[i]``.

    Returns:
        int64 array of shape ``(n*(n-1), 2)``.
    """
    n = int(node_count)
    return np.argwhere(~np.eye(n, dtype=bool))


def floor_weights(weights: np.ndarray) -> np.ndarray:
    """Projects a weight vector onto the valid domain ``[W_MIN, W_MAX]``."""
    return np.clip(np.asarray(weights, dtype=np.float64), W_MIN, W_MAX)


def validate_weights(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Checks a weight vector's shape and range; returns float64 view.

    Weights must lie in ``[W_MIN, W_MAX]`` (see :data:`W_MAX` for why the
    ceiling).  NaN fails the range test: a NaN link is never relaxed, so it
    would silently act as removed.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (g.edge_count,):
        raise DimensionMismatchError(
            f"weight vector has shape {w.shape}, expected ({g.edge_count},)"
        )
    if not np.all((w >= W_MIN) & (w <= W_MAX)):
        raise GraphError(f"weights must lie in [W_MIN, W_MAX] = [{W_MIN}, {W_MAX}]")
    return w


def default_ospf_weights(g: Graph) -> np.ndarray:
    """Operator-default weights: inversely proportional to capacity.

    ``w_k = C_ref / c_k`` with ``C_ref`` the largest capacity in the
    graph, so the best-provisioned link gets weight exactly 1 and
    uniform-capacity networks get all-ones weights.  Capacities more than
    ``W_MAX`` apart give weights clipped to ``W_MAX``.
    """
    c = g.capacities
    return floor_weights(c.max() / c)


def validate_demands(g: Graph, demands: np.ndarray) -> np.ndarray:
    d = np.asarray(demands, dtype=np.float64)
    if d.shape != (g.pair_count,):
        raise DimensionMismatchError(
            f"demand vector has shape {d.shape}, expected ({g.pair_count},)"
        )
    if not np.all((d >= 0.0) & (d < np.inf)):
        raise GraphError("demands must be finite and non-negative")
    return d


def validate_path_vector(g: Graph, membership: np.ndarray, u: int, v: int) -> None:
    """Checks that a 0/1 membership vector is a simple directed path u -> v.

    Raises:
        GraphError: when the marked edges do not form one simple path.
    """
    p = np.asarray(membership)
    if p.shape != (g.edge_count,):
        raise DimensionMismatchError(
            f"path vector has shape {p.shape}, expected ({g.edge_count},)"
        )
    if u == v:
        raise GraphError("a path requires distinct endpoints")
    marked = np.flatnonzero(p)
    if not np.all((p[marked] == 1)):
        raise GraphError("path vector entries must be 0 or 1")
    if marked.size == 0:
        raise GraphError("path vector marks no edges")
    nxt = {}
    for k in marked:
        s = int(g.senders[k])
        if s in nxt:
            raise GraphError(f"node {s} has two outgoing path edges")
        nxt[s] = int(g.receivers[k])
    node = u
    visited = {u}
    for _ in range(marked.size):
        if node not in nxt:
            raise GraphError(f"path breaks at node {node}")
        node = nxt.pop(node)
        if node in visited:
            raise GraphError(f"path revisits node {node}")
        visited.add(node)
    if node != v or nxt:
        raise GraphError("marked edges do not form a single u->v path")
