"""Exact weighted shortest-path routing with deterministic ties.

Produces the ground truth consumed everywhere else: the all-pairs
routing matrix, whose rows are the training labels, and a fast exact
link-load evaluator used by the optimizers.  Both read one
computation, :func:`_trees`, which finds the shortest-path trees of many
sources at once with numpy min-plus rounds, each one gather over a table
of every node's in-links and one min; its distances equal those of a
heap-based Dijkstra run per source bit for bit.

``link_loads`` is incremental.  A private record per graph, dropped with
the graph, holds what depends only on the graph or the demands (the
in-link table, a copy of the demands and their ``[n, n]`` matrix) and the
last two evaluations, 149 kB at 50 nodes and 180 links.  A call sweeps
again only the sources whose tree a changed link can enter or leave
(Ramalingam & Reps, 1996), starting their rounds from the stored
distances, and its loads are bitwise those of a full evaluation.  A
local search that moves one link at a time re-sweeps about a third of
the sources per candidate, in about 8 rounds instead of 11.  The carries
then go down those trees in blocks of distance ranks, one ordered
``np.add.at`` per block, about 25 blocks for 49 ranks at 50 nodes; every
addition comes in the rank-by-rank loop's order, so the carries are that
loop's bit for bit.

Tie-breaking is part of the contract: among equal-cost alternatives the
predecessor with the lowest sender node index wins, so identical inputs
always yield identical paths regardless of platform or iteration order.
"""

from __future__ import annotations

import threading
import weakref
from typing import NamedTuple

import numpy as np

from .netgraph import Graph, GraphError, node_indices, ordered_pairs, validate_demands, validate_weights


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

    ``in_links`` is the in-link table of :func:`_trees` and its senders,
    ``node_column`` the node indices as a column and ``row_offsets`` the
    flat offset of each row of an ``[n, n]`` array, as a column too.
    ``view`` is ``(demands, matrix, states)``: a copy of the last demands
    :func:`link_loads` saw, validated once, the same demands as an
    ``[n, n]`` matrix with a zero diagonal, and the two evaluations under
    them it used last.  Two suffice for a first-improvement search, whose
    candidates are one-link moves from its current point: the current
    point and the newest candidate cover every call.  ``view`` is
    replaced whole, never changed in place, so a thread that read it
    holds a consistent set; when two threads replace it at once, one
    update is lost, which can cost a later call more sweeping but never a
    wrong load.
    On a benchmark instance of 50 nodes and 180 links a record takes
    149 kB: 5.6 kB of tables (in-degree at most 7), 0.8 kB for the two
    columns, 19.6 kB of demands, 20 kB of demand matrix and 51.4 kB per
    state.
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
        self.node_column = np.arange(n)[:, None]
        self.row_offsets = self.node_column * n
        self.view: tuple = (None, None, ())


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


def _trees(
    g: Graph, w: np.ndarray, sources: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path trees of ``sources`` under validated weights ``w``.

    Returns ``(dist, pred)``, both ``[len(sources), n]``: row i holds the
    path costs from ``sources[i]`` and, per node, the final link of its
    chosen path (``-1`` at the source).  ``start``, also ``[len(sources),
    n]`` and left unchanged, may give upper bounds on the distances to
    start the rounds from (inf where none is known); each source's own
    entry is taken as 0 whatever it holds.

    The in-link table ``link[D, n]``, D the largest in-degree, lists in
    column v the links into v, the lowest sender in slot 0.  Shorter
    columns are padded with a dummy link of sender 0 and weight inf.  It
    is built once per graph, by :class:`_Record`.

    Distances come from Jacobi min-plus rounds: every round relaxes every
    link from every source at once, ``D'[v] = min(D[v], min over slots j
    of fl(D[s_jv] + w_jv))``, starting from 0 at the source and ``start``
    or inf elsewhere, until a round changes nothing.  A pad adds inf to a
    distance that is never -inf, so it offers inf, which never lowers a
    minimum.  Heap-based Dijkstra ends with ``dist[v] = fl(dist[p] +
    w_k)`` for the link k from p that last lowered it, and with no link
    able to lower any node further.  By induction over that tree's depth,
    round t has reached Dijkstra's value at every node within t links of
    the source, and no round goes below it, since rounding is monotone and
    the start is nowhere below it; so at most ``n - 1`` rounds end on
    Dijkstra's distances exactly, and a tighter start needs fewer.  A round
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
    never chosen.  ``np.argmin`` over the offers picks the same slots at
    the fixed point, but measured no faster.

    A round is five in-place numpy calls on buffers made once per call,
    with the weights already repeated to the full ``[D, n, sources]``
    shape.  The gather is ``np.take(..., mode="clip")``: numpy buffers
    ``take``'s ``out`` under the default ``mode="raise"``, and the table's
    indices are the graph's own nodes, so clipping never moves one.
    """
    n, m = g.node_count, sources.size
    # node-major: row v holds v's distance from every source, so a round
    # gathers whole rows
    cols = np.arange(m)
    dist = np.full((n, m), np.inf) if start is None else np.array(start.T, order="C")
    dist[sources, cols] = 0.0
    if g.edge_count == 0:  # a single node
        return dist.T, np.full((m, n), -1, dtype=np.int64)
    rec = _record(g)
    link, s_in = rec.in_links
    w_in = np.repeat(np.append(w, np.inf)[link][:, :, None], m, axis=2)
    cand, best, lower = np.empty_like(w_in), np.empty_like(dist), np.empty(dist.shape, dtype=bool)
    while True:
        # "clip" never moves an index of the graph's own table, and unlike
        # "raise" it leaves ``out`` unbuffered
        np.take(dist, s_in, axis=0, out=cand, mode="clip")  # [D, n, sources]
        cand += w_in
        np.minimum.reduce(cand, axis=0, out=best)
        if not np.less(best, dist, out=lower).any():
            break
        np.minimum(dist, best, out=dist)
    if np.isinf(dist).any():
        raise UnreachableError("nodes unreachable from a source; graph state is corrupt")

    # Lowest-sender tie-break: the first slot of each column that closes a
    # shortest path.  ``cand`` was computed from the final ``dist``.  No
    # link closes one at the source (``cand >= W_MIN > 0``), so it gets -1.
    pred = link[np.argmax(cand == dist, axis=0), rec.node_column]
    pred[sources, cols] = -1
    return dist.T, pred.T


def shortest_path_tree(g: Graph, weights: np.ndarray, src: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths under positive link weights.

    Args:
        g: Validated graph.
        weights: Positive weight per link.
        src: Source node, one index under :func:`netgraph.node_indices`.

    Returns:
        ``(dist, pred_edge)``: exact path costs from ``src`` and, for every
        other node, the index of the final link of its chosen path
        (``pred_edge[src] == -1``).  Among links that close an equal-cost
        path, the one with the lowest sender index is chosen.
    """
    w = validate_weights(g, weights)
    source = node_indices(src, g.node_count, "source index")
    if source.ndim:
        raise GraphError(f"source {src!r} is not one node index")
    dist, pred = _trees(g, w, source.reshape(1))
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
    first); each node hands its carried traffic to its predecessor link's
    sender.  All sources move together, in blocks of ranks
    (:func:`_sweep`) whose additions happen in the order of a
    source-by-source sweep, so every carry is that sweep's bit for bit.
    A node's final carry is what its source sends over the node's
    predecessor link, so one ``np.bincount`` of the carries, weighted and
    keyed by predecessor link plus one, gives the loads; bin 0 takes each
    source's own entry.  ``bincount`` adds in index order, which for
    every link is source order, as a source-by-source sweep adds;
    ``test_bitwise_equal_to_heap_dijkstra`` pins that order.  Matches
    ``demands @ routing_matrix`` up to summation order.

    The graph's record (:class:`_Record`) keeps a validated copy of the
    last demands and their ``[n, n]`` matrix, built once per demand
    vector.  Demands equal to that copy are neither validated nor laid
    out again; any others are validated before the record changes, so a
    rejected vector never becomes the copy.

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

    An affected source's rounds start from its base distances, and any
    start that bounds the new distances from above ends on the same
    trees (see :func:`_trees`).  A node whose base path has no increased
    link keeps a bound: that path costs no more under the new weights, as
    rounding is monotone, and no distance exceeds the rounded cost of a
    path.  A node whose base path crosses an increased link k lies at or
    beyond ``recv_k`` in that tree, so its base distance is at least
    ``dist[recv_k]``; each source resets to inf every node at or beyond
    the least such distance.  That is more than the subtrees below the
    increased links, but resetting exactly those cost more than the
    rounds it saved.
    """
    w = validate_weights(g, weights)
    n = g.node_count
    rec = _record(g)
    known, matrix, states = rec.view
    d = np.asarray(demands, dtype=np.float64)
    # demands equal to the stored copy passed validation when it was made.
    # -0.0 equals 0.0 here: it can only change the sign of a zero carry,
    # and ``bincount`` starts each link's sum at +0.0
    new_demands = known is None or not np.array_equal(d, known)
    if new_demands:
        d = validate_demands(g, d)
        matrix = np.zeros((n, n))
        matrix[~np.eye(n, dtype=bool)] = d
    # one comparison per stored state both picks the base and lists the
    # changed links
    base, changed = None, None
    for state in states:
        moved = np.flatnonzero(state.w != w)
        if changed is None or moved.size < changed.size:
            base, changed = state, moved
    if base is None:
        affected, start = np.arange(n), None
        dist, pred, carry = np.empty((n, n)), np.empty((n, n), dtype=np.int32), np.empty((n, n))
    else:
        rise = w[changed] > base.w[changed]
        up, down = changed[rise], changed[~rise]
        hit = (d != known).reshape(n, n - 1).any(axis=1) if new_demands else np.zeros(n, dtype=bool)
        if up.size:
            recv = g.receivers[up]
            in_tree = base.pred[:, recv] == up
            hit |= in_tree.any(axis=1)
        if down.size:
            hit |= (base.dist[:, g.senders[down]] + w[down] <= base.dist[:, g.receivers[down]]).any(axis=1)
        affected = np.flatnonzero(hit)
        # every node at or beyond an increased link of its source's tree
        # starts at inf; the others keep their base cost as an upper bound
        start = base.dist[affected]
        if up.size:
            cut = np.where(in_tree[affected], start[:, recv], np.inf).min(axis=1)
            start[start >= cut[:, None]] = np.inf
        dist, pred, carry = base.dist, base.pred, base.carry
        if affected.size:
            dist, pred, carry = dist.copy(), pred.copy(), carry.copy()
    if affected.size:
        new_dist, new_pred = _trees(g, w, affected, start)
        dist[affected], pred[affected] = new_dist, new_pred
        sweep = matrix[affected]
        _sweep(g, new_dist, new_pred, sweep)
        carry[affected] = sweep
    if new_demands:
        rec.view = (d.copy(), matrix, (_State(w.copy(), dist, pred, carry),))
    elif changed.size:  # a record with no demands yet has no base either
        rec.view = (known, matrix, (base, _State(w.copy(), dist, pred, carry)))
    # bin 0 takes each source's own entry
    return np.bincount(pred.ravel() + 1, carry.ravel(), minlength=g.edge_count + 1)[1:]


def _sweep(g: Graph, dist: np.ndarray, pred: np.ndarray, carry: np.ndarray) -> list[int]:
    """Pushes carries down shortest-path trees in blocks of ranks, in place.

    Row i of the ``[sources, n]`` arrays is one tree from :func:`_trees`
    and its nodes' carries; ``carry`` must be C-contiguous.  Per tree,
    nodes go in descending distance (ties: the higher index first), and
    each adds its carry into its predecessor link's sender; the source
    alone has distance 0, so it comes last and is never swept.  Rank r
    is the r-th node of every tree.  Returns the ranks at which the
    blocks start, followed by the number of ranks.

    The steps are ``[rank, source]`` arrays of flat indices: the node and
    its parent.  One ``np.maximum.at`` gives each (source, node) the last
    rank at which a child adds into it; a block ends just before the
    first rank whose node, in any tree, still receives a carry from a rank
    inside the block.  A block is then one gather of its nodes' carries,
    all final, and one ``np.add.at`` into their parents.  ``ufunc.at`` is
    unbuffered and adds repeated indices in index order, which is rank
    order, so every parent receives its children's carries one at a time
    in the order the rank-by-rank loop adds them, and the carries are
    that loop's bit for bit.  A one-link move on a 50-node benchmark
    instance sweeps in about 25 blocks instead of 49 ranks.
    """
    m, n = carry.shape
    offset = _record(g).row_offsets[:m].T
    node = np.argsort(dist.T, axis=0, kind="stable")[:0:-1] + offset
    parent = g.senders[pred.ravel()[node]] + offset
    flat = carry.reshape(-1)
    last = np.full(flat.size, -1)
    np.maximum.at(last, parent.ravel(), np.arange(parent.size) // m)
    bounds = [0]
    for r, k in enumerate(last[node].max(axis=1).tolist()):
        if k >= bounds[-1]:
            bounds.append(r)
    bounds.append(n - 1)
    for a, b in zip(bounds, bounds[1:]):
        np.add.at(flat, parent[a:b].ravel(), flat[node[a:b].ravel()])
    return bounds


def exact_max_utilization(g: Graph, weights: np.ndarray, demands: np.ndarray) -> float:
    """Maximum link utilization of the exact routing under ``weights``.

    A graph with no links (a single node) carries nothing: 0.0.
    """
    loads = link_loads(g, weights, demands)
    return float((loads / g.capacities).max()) if loads.size else 0.0
