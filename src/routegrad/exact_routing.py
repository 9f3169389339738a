"""Exact weighted shortest-path routing with deterministic ties.

Produces the ground truth consumed everywhere else: the all-pairs
routing matrix, whose rows are the training labels, and a fast exact
link-load evaluator used by the optimizers.  Both read one
computation, :func:`_trees`, which finds the shortest-path trees of many
sources at once with numpy min-plus rounds, each one gather over a table
of every node's in-links and one min; its distances equal those of a
heap-based Dijkstra run per source bit for bit.

Tie-breaking is part of the contract: among equal-cost alternatives the
predecessor with the lowest sender node index wins, so identical inputs
always yield identical paths regardless of platform or iteration order.
"""

from __future__ import annotations

import numpy as np

from .netgraph import Graph, GraphError, ordered_pairs, validate_demands, validate_weights


class UnreachableError(GraphError):
    """A node was unreachable; impossible on a validated graph."""


def _trees(g: Graph, w: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path trees of ``sources`` under validated weights ``w``.

    Returns ``(dist, pred)``, both ``[len(sources), n]``: row i holds the
    path costs from ``sources[i]`` and, per node, the final link of its
    chosen path (``-1`` at the source).

    The in-link table ``link[D, n]``, D the largest in-degree, lists in
    column v the links into v, the lowest sender in slot 0.  Shorter
    columns are padded with a dummy link of sender 0 and weight inf.

    Distances come from Jacobi min-plus rounds: every round relaxes every
    link from every source at once, ``D'[v] = min(D[v], min over slots j
    of fl(D[s_jv] + w_jv))``, starting from 0 at the source and inf
    elsewhere, until a round changes nothing.  A pad adds inf to a
    distance that is never -inf, so it offers inf, which never lowers a
    minimum.  Heap-based Dijkstra ends with ``dist[v] = fl(dist[p] +
    w_k)`` for the link k from p that last lowered it, and with no link
    able to lower any node further.  By induction over that tree's depth,
    round t has reached Dijkstra's value at every node within t links of
    the source, and no round goes below it, since rounding is monotone; so
    at most ``n - 1`` rounds end on Dijkstra's distances exactly.  A round
    that changes nothing has reached a fixed point, and every later round
    would repeat it, so stopping there is exact.  ``validate_weights``
    keeps every weight in ``[W_MIN, W_MAX]``, which makes every path sum
    strictly increase (``fl(d + w) > d``): the fixed point is then unique,
    and the chosen predecessors form a tree whose sender is always
    strictly closer.

    The predecessor of v is the link in the first slot of column v whose
    offer equals ``dist[v]``; slots run in sender order, so that is the
    lowest sender.  The graph is strongly connected, so every distance is
    finite by then, and a pad's inf offer never equals one: the pad is
    never chosen.
    """
    n, senders, receivers = g.node_count, g.senders, g.receivers
    # node-major: row v holds v's distance from every source, so a round
    # gathers whole rows
    cols = np.arange(sources.size)
    dist = np.full((n, sources.size), np.inf)
    dist[sources, cols] = 0.0
    if g.edge_count == 0:  # a single node
        return dist.T, np.full((sources.size, n), -1, dtype=np.int64)
    # the in-link table; its pad is the dummy link ``edge_count``
    order = np.lexsort((senders, receivers))
    in_degree = np.bincount(receivers, minlength=n)
    slot = np.arange(order.size) - np.repeat(np.cumsum(in_degree) - in_degree, in_degree)
    link = np.full((in_degree.max(), n), g.edge_count)
    link[slot, receivers[order]] = order
    s_in = np.append(senders, 0)[link]
    w_in = np.append(w, np.inf)[link][:, :, None]
    while True:
        cand = dist[s_in]  # [D, n, sources]
        cand += w_in
        new = np.minimum(dist, cand.min(axis=0))
        if np.array_equal(new, dist):
            break
        dist = new
    if np.isinf(dist).any():
        raise UnreachableError("nodes unreachable from a source; graph state is corrupt")

    # Lowest-sender tie-break: the first slot of each column that closes a
    # shortest path.  ``cand`` was computed from the final ``dist``.  No
    # link closes one at the source (``cand >= W_MIN > 0``), so it gets -1.
    pred = link[np.argmax(cand == dist, axis=0), np.arange(n)[:, None]]
    pred[sources, cols] = -1
    return dist.T, pred.T


def shortest_path_tree(g: Graph, weights: np.ndarray, src: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths under positive link weights.

    Args:
        g: Validated graph.
        weights: Positive weight per link.
        src: Source node index, a Python or numpy integer (not a bool).

    Returns:
        ``(dist, pred_edge)``: exact path costs from ``src`` and, for every
        other node, the index of the final link of its chosen path
        (``pred_edge[src] == -1``).  Among links that close an equal-cost
        path, the one with the lowest sender index is chosen.
    """
    w = validate_weights(g, weights)
    if not isinstance(src, (int, np.integer)) or isinstance(src, bool):
        raise GraphError(f"source index {src!r} is not an integer")
    if not 0 <= src < g.node_count:
        raise GraphError(f"source index {src} out of range")
    dist, pred = _trees(g, w, np.array([src]))
    return dist[0], pred[0]


def routing_matrix(g: Graph, weights: np.ndarray) -> np.ndarray:
    """All-pairs routing matrix, ``[n*(n-1), edge_count]``.

    Row i is the 0/1 link membership of the shortest path of
    ``ordered_pairs(n)[i]``, ties broken toward the lowest sender as in
    :func:`_trees`.  The predecessor links of every pair are walked back
    together, one hop per iteration.
    """
    n = g.node_count
    _, pred = _trees(g, validate_weights(g, weights), np.arange(n))
    u, v = ordered_pairs(n).T
    P = np.zeros((g.pair_count, g.edge_count))
    pair = np.arange(g.pair_count)
    while pair.size:
        k = pred[u, v]
        P[pair, k] = 1.0
        v = g.senders[k]
        walking = v != u
        pair, u, v = pair[walking], u[walking], v[walking]
    return P


def link_loads(g: Graph, weights: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Exact per-link traffic without materializing the routing matrix.

    Every source's demands are pushed down its shortest-path tree in one
    sweep over nodes in descending distance (ties: the higher index
    first), all sources moving together one rank at a time; each node
    hands its carried traffic to its predecessor link and that link's
    sender.  The flat indices of every rank's nodes, predecessor-link
    slots and senders are computed before the sweep, so each rank is three
    1-D gathers and scatters; the additions are those, and in the order,
    of a separate sweep per source.  The per-source loads are then summed
    over the sources' axis, which numpy adds row by row in source order
    for this C-contiguous block; ``test_bitwise_equal_to_heap_dijkstra``
    pins that order against a source-by-source sweep.  Matches ``demands
    @ routing_matrix`` up to summation order.
    """
    w = validate_weights(g, weights)
    d = validate_demands(g, demands)
    n, edges = g.node_count, g.edge_count
    dist, pred = _trees(g, w, np.arange(n))
    offset = np.arange(n)
    carry = np.zeros(n * n)
    carry[~np.eye(n, dtype=bool).ravel()] = d  # the off-diagonal in row-major order is ordered_pairs'
    # flat indices of every sweep step, one row per rank: the node in
    # ``carry``, its predecessor link's slot in ``per_source`` and that
    # link's sender in ``carry``; the source alone has distance 0, so it
    # comes last and is never swept
    node = np.argsort(dist, axis=1, kind="stable")[:, :0:-1].T + offset * n
    k = pred.ravel()[node]
    slot = k + offset * edges
    parent = g.senders[k] + offset * n
    per_source = np.zeros(n * edges)
    for v, s, p in zip(node, slot, parent):
        c = carry[v]
        per_source[s] = c
        carry[p] += c
    return per_source.reshape(n, edges).sum(axis=0)


def exact_max_utilization(g: Graph, weights: np.ndarray, demands: np.ndarray) -> float:
    """Maximum link utilization of the exact routing under ``weights``.

    A graph with no links (a single node) carries nothing: 0.0.
    """
    loads = link_loads(g, weights, demands)
    return float((loads / g.capacities).max()) if loads.size else 0.0
