"""Exact weighted shortest-path routing with deterministic ties.

Produces the ground truth consumed everywhere else: the all-pairs
routing matrix, whose rows are the training labels, and a fast exact
link-load evaluator used by the optimizers.  Both read one
computation, :func:`_trees`, which finds the shortest-path trees of many
sources at once with numpy min-plus rounds, each one gather over a table
of every node's in-links and one min; its distances equal those of a
heap-based Dijkstra run per source bit for bit.

``link_loads`` is incremental.  A private record per graph, dropped with
the graph, holds the in-link table, a copy of the demands and the last
two evaluations (128 kB at 50 nodes and 180 links); a call sweeps again
only the sources whose tree a changed link can enter or leave
(Ramalingam & Reps, 1996), and its loads are bitwise those of a full
evaluation.  A local search that moves one link at a time re-sweeps
about a third of the sources per candidate.

Tie-breaking is part of the contract: among equal-cost alternatives the
predecessor with the lowest sender node index wins, so identical inputs
always yield identical paths regardless of platform or iteration order.
"""

from __future__ import annotations

import threading
import weakref
from typing import NamedTuple

import numpy as np

from .netgraph import Graph, GraphError, ordered_pairs, validate_demands, validate_weights


class UnreachableError(GraphError):
    """A node was unreachable; impossible on a validated graph."""


class _State(NamedTuple):
    """One evaluation of :func:`link_loads`: the weights and, as
    ``[source, node]`` arrays, the path costs, the predecessor links
    (int32, ``-1`` at the source) and ``carry[s, v]``, the traffic s sends
    over v's predecessor link.  Never written after it is stored."""

    w: np.ndarray
    dist: np.ndarray
    pred: np.ndarray
    carry: np.ndarray


class _Record:
    """What this module keeps per graph, for as long as the graph lives.

    ``in_links`` is the in-link table of :func:`_trees` and its senders.
    ``view`` is ``(demands, states)``: a copy of the last demands
    :func:`link_loads` saw, and the two evaluations under them it used
    last.  Two suffice for a first-improvement search, whose candidates
    are one-link moves from its current point: the current point and the
    newest candidate cover every call.  ``view`` is replaced whole, never
    changed in place, so a thread that read it holds a consistent pair;
    when two threads replace it at once, one update is lost, which can
    cost a later call more sweeping but never a wrong load.
    On a benchmark instance of 50 nodes and 180 links a record takes
    128 kB: 5.6 kB of tables (in-degree at most 7), 19.6 kB of demands
    and 51.4 kB per state.
    """

    def __init__(self, g: Graph):
        n, senders, receivers = g.node_count, g.senders, g.receivers
        # the in-link table; its pad is the dummy link ``edge_count``
        order = np.lexsort((senders, receivers))
        in_degree = np.bincount(receivers, minlength=n)
        slot = np.arange(order.size) - np.repeat(np.cumsum(in_degree) - in_degree, in_degree)
        link = np.full((in_degree.max(initial=0), n), g.edge_count)
        link[slot, receivers[order]] = order
        self.in_links = link, np.append(senders, 0)[link]
        self.view: tuple = (None, ())


_records: weakref.WeakKeyDictionary[Graph, _Record] = weakref.WeakKeyDictionary()
_records_lock = threading.Lock()


def _record(g: Graph) -> _Record:
    """``g``'s record; made on first use and dropped with ``g``.

    Keyed by the graph object itself, never by ``id(g)``: an id is reused
    once its graph is freed, and a stale table would route another graph.
    """
    with _records_lock:
        rec = _records.get(g)
        if rec is None:
            rec = _records[g] = _Record(g)
    return rec


def _trees(g: Graph, w: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path trees of ``sources`` under validated weights ``w``.

    Returns ``(dist, pred)``, both ``[len(sources), n]``: row i holds the
    path costs from ``sources[i]`` and, per node, the final link of its
    chosen path (``-1`` at the source).

    The in-link table ``link[D, n]``, D the largest in-degree, lists in
    column v the links into v, the lowest sender in slot 0.  Shorter
    columns are padded with a dummy link of sender 0 and weight inf.  It
    is built once per graph, by :class:`_Record`.

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
    n = g.node_count
    # node-major: row v holds v's distance from every source, so a round
    # gathers whole rows
    cols = np.arange(sources.size)
    dist = np.full((n, sources.size), np.inf)
    dist[sources, cols] = 0.0
    if g.edge_count == 0:  # a single node
        return dist.T, np.full((sources.size, n), -1, dtype=np.int64)
    link, s_in = _record(g).in_links
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
    together, one hop per iteration.  A path has at most ``n - 1`` links,
    so a walk still going after that many hops is in a predecessor cycle,
    which raises :class:`UnreachableError`.
    """
    n = g.node_count
    _, pred = _trees(g, validate_weights(g, weights), np.arange(n))
    u, v = ordered_pairs(n).T
    P = np.zeros((g.pair_count, g.edge_count))
    pair = np.arange(g.pair_count)
    for _ in range(n - 1):
        if not pair.size:
            break
        k = pred[u, v]
        P[pair, k] = 1.0
        v = g.senders[k]
        walking = v != u
        pair, u, v = pair[walking], u[walking], v[walking]
    if pair.size:
        raise UnreachableError("predecessor links form a cycle; graph state is corrupt")
    return P


def link_loads(g: Graph, weights: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Exact per-link traffic without materializing the routing matrix.

    Every source's demands are pushed down its shortest-path tree in one
    sweep over nodes in descending distance (ties: the higher index
    first), all sources moving together one rank at a time; each node
    hands its carried traffic to its predecessor link's sender.  A node's
    final carry is what its source sends over the node's predecessor
    link, so one scatter of the carries gives the per-source loads.  They
    are summed over the sources' axis, which numpy adds row by row in
    source order for this C-contiguous block;
    ``test_bitwise_equal_to_heap_dijkstra`` pins that order against a
    source-by-source sweep.  Matches ``demands @ routing_matrix`` up to
    summation order.

    Only the sources whose tree the changed links can alter are swept
    again.  The graph's record (:class:`_Record`) keeps the last two
    evaluations; the one differing from ``weights`` in the fewest links
    is the base, and a source is affected when its demands changed, when
    an increased link k is in its tree (``pred[recv_k] == k``), or when a
    decreased link k offers no more than the distance it would lower
    (``dist[send_k] + w_k <= dist[recv_k]``).  Every other source keeps
    its base tree bit for bit.  None of its predecessor links changed
    weight: an increased one fails the first test, and a decreased one
    would offer less than the old ``dist[v]``, which fails the second.
    So each still offers exactly ``dist[v]``, and no link offers less
    than ``dist[v]``: an unchanged link offers what it did, an increased
    one no less (rounding is monotone), and a decreased one more than
    ``dist[v]`` by the second test.  The base distances are
    then still the fixed point of :func:`_trees`' rounds, which is
    unique, and the lowest slot offering ``dist[v]`` is still the
    predecessor, since every slot below it offered more than ``dist[v]``
    and still does.
    The test is ``<=``, not ``<``, because a decrease onto a tie lets a
    lower sender take over.  With the same distances, predecessors and
    demands, the sweep repeats its additions, so the carries are the
    base's too.  The first call on a graph has no base and sweeps every
    source: a full evaluation is this code with every source affected,
    so the loads are always bitwise those of one.
    """
    w = validate_weights(g, weights)
    d = validate_demands(g, demands)
    n, edges = g.node_count, g.edge_count
    rec = _record(g)
    known, states = rec.view
    # -0.0 equals 0.0 here: it can only change the sign of a zero carry,
    # and each link's sum holds the +0.0 of the source at its receiver
    new_demands = known is None or not np.array_equal(d, known)
    base = min(states, key=lambda s: np.count_nonzero(s.w != w), default=None)
    if base is None:
        affected = np.arange(n)
        dist, pred, carry = np.empty((n, n)), np.empty((n, n), dtype=np.int32), np.empty((n, n))
    else:
        changed = np.flatnonzero(w != base.w)
        up = changed[w[changed] > base.w[changed]]
        down = changed[w[changed] < base.w[changed]]
        hit = (base.pred[:, g.receivers[up]] == up).any(axis=1)
        hit |= (base.dist[:, g.senders[down]] + w[down] <= base.dist[:, g.receivers[down]]).any(axis=1)
        if new_demands:
            hit |= (d != known).reshape(n, n - 1).any(axis=1)
        affected = np.flatnonzero(hit)
        dist, pred, carry = base.dist, base.pred, base.carry
        if affected.size:
            dist, pred, carry = dist.copy(), pred.copy(), carry.copy()
    if affected.size:
        m = affected.size
        dist[affected], pred[affected] = _trees(g, w, affected)
        offset = np.arange(m)[:, None] * n
        sweep = np.zeros(m * n)
        sweep[(np.arange(n) != affected[:, None]).ravel()] = d.reshape(n, n - 1)[affected].ravel()
        # flat indices of every sweep step, one row per rank: the node and
        # its predecessor link's sender; the source alone has distance 0,
        # so it comes last and is never swept
        node = (np.argsort(dist[affected], axis=1, kind="stable")[:, :0:-1] + offset).T
        parent = g.senders[pred[affected].ravel()[node]] + offset.T
        for v, p in zip(node, parent):
            sweep[p] += sweep[v]
        carry[affected] = sweep.reshape(m, n)
    if new_demands:
        rec.view = (d.copy(), (_State(w.copy(), dist, pred, carry),))
    elif changed.size:  # a record with no demands yet has no base either
        rec.view = (known, (base, _State(w.copy(), dist, pred, carry)))
    off = np.flatnonzero(~np.eye(n, dtype=bool))
    per_source = np.zeros(n * edges)
    per_source[pred.ravel()[off] + off // n * edges] = carry.ravel()[off]
    return per_source.reshape(n, edges).sum(axis=0)


def exact_max_utilization(g: Graph, weights: np.ndarray, demands: np.ndarray) -> float:
    """Maximum link utilization of the exact routing under ``weights``.

    A graph with no links (a single node) carries nothing: 0.0.
    """
    loads = link_loads(g, weights, demands)
    return float((loads / g.capacities).max()) if loads.size else 0.0
