"""Directed network model and the checks on what is routed over it.

The data model is deliberately small: a validated directed graph with
per-link capacities, plus plain float64 numpy vectors for link weights,
traffic demands and path membership, each with its validator here.
Every array over source-destination pairs, demand vectors and
routing-matrix rows alike, follows one fixed enumeration,
:func:`ordered_pairs`.  Every node index that comes in, a link end, a
source, a query endpoint or a path endpoint, passes one rule,
:func:`node_indices`, and so does every row index ``diffcore`` gathers
or sums by.  Every size, a node count, a latent width, a round count or
the bucket count ``diffcore`` sums rows into, passes a second,
:func:`positive_integer`.  Every real-valued input, a capacity, a
weight, a demand, a path membership, a query indicator, a ``diffcore``
tensor or label, or a checkpoint's parameter, passes the third,
:func:`real_values`.
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
    """A link capacity is not finite and positive: zero, negative, NaN or infinite."""


class NotStronglyConnectedError(GraphError):
    """The directed graph does not connect every ordered node pair."""


class DimensionMismatchError(GraphError):
    """A vector or matrix does not match the graph's dimensions."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed network topology with link capacities.

    Equality and hashing are by identity: two graphs built from the same
    links are different objects, and a graph can key a weak dictionary.

    Construction validates every structural invariant: link ends that
    pass :func:`node_indices`, no self-loops, no duplicate directed links,
    finite and strictly positive capacities, and strong connectivity
    (every ordered pair of nodes must be connected by some directed path,
    otherwise routing is undefined).

    Attributes:
        node_count: Number of nodes, indexed ``0 .. node_count-1``; it
            passes :func:`positive_integer` and is stored as an ``int``.
        receivers: int array of length ``edge_count``; head of each link.
        senders: int array of length ``edge_count``; tail of each link.
        capacities: float64 array of per-link capacities (Mbps); they
            pass :func:`real_values`.
        name: Free-form label used in reports.
    """

    node_count: int
    receivers: np.ndarray
    senders: np.ndarray
    capacities: np.ndarray
    name: str = ""

    def __post_init__(self):
        n = positive_integer(self.node_count, "node_count")
        # private copies: the caller's arrays stay writeable, and writing
        # to them later cannot change a graph that has been validated
        receivers = node_indices(self.receivers, n, "receivers")
        senders = node_indices(self.senders, n, "senders")
        if receivers.ndim != 1 or senders.shape != receivers.shape:
            raise DimensionMismatchError("receivers and senders must be equal-length 1-D arrays")
        capacities = np.array(real_values(self.capacities, "capacities", receivers.shape))
        if np.any(receivers == senders):
            k = int(np.flatnonzero(receivers == senders)[0])
            raise SelfLoopError(f"edge {k} is a self-loop at node {int(receivers[k])}")
        # a link that is not the first with its (sender, receiver) key
        repeat = np.ones(receivers.size, dtype=bool)
        repeat[np.unique(senders * n + receivers, return_index=True)[1]] = False
        if repeat.any():
            k = int(repeat.argmax())
            raise DuplicateEdgeError(f"duplicate directed link {senders[k]}->{receivers[k]}")
        # NaN fails both tests, so it is caught too
        bad = ~(np.isfinite(capacities) & (capacities > 0.0))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise NonPositiveCapacityError(
                f"edge {k} has capacity {capacities[k]}; capacities must be finite and positive"
            )
        # strongly connected exactly when node 0 reaches every node along
        # the links and against them, growing the reached set hop by hop
        for tail, head in ((senders, receivers), (receivers, senders)):
            seen = np.zeros(n, dtype=bool)
            seen[0] = True
            reached = 0
            while reached < np.count_nonzero(seen):
                reached = np.count_nonzero(seen)
                seen[head[seen[tail]]] = True
            if reached < n:
                raise NotStronglyConnectedError(f"graph {self.name!r} is not strongly connected")

        object.__setattr__(self, "node_count", n)
        for field, arr in (("receivers", receivers), ("senders", senders), ("capacities", capacities)):
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    @property
    def edge_count(self) -> int:
        return int(self.receivers.size)

    @property
    def pair_count(self) -> int:
        return self.node_count * (self.node_count - 1)


def positive_integer(value, what: str) -> int:
    """The one rule for sizes: ``value`` as a Python ``int``.

    ``value`` is a Python or numpy integer, at least 1.  A bool, a float
    (an integral one too) or anything else raises :class:`GraphError`: a
    float size would reach array shapes as a float.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise GraphError(f"{what} must be an integer >= 1, not {value!r}")
    return int(value)


def node_indices(values, n: int, what: str) -> np.ndarray:
    """The one rule for node indices: ``values`` as a private int64 array.

    ``values`` is a Python or numpy integer, an integer array, or a nested
    sequence of integers, of the shape the caller wants back.  A bool
    (Python or numpy), a float (an integral one too), a ragged or
    non-numeric entry, or an entry outside ``[0, n)`` (integers past int64
    among them) raises :class:`GraphError`: reading ``True`` as node 1 or
    truncating ``1.7`` to it would route another node without an error.
    Besides link ends, sources and query or path endpoints, ``diffcore``'s
    row indices pass this rule, ``n`` the rows gathered from or the
    segments summed into; the copy returned is the one its ops keep.
    """
    raw = _entries(values, f"{what} are not integer indices")
    if raw.dtype == object:
        # checked entry by entry: numpy reads ``[True, 1]`` as int64, and a
        # ragged entry is left as a sequence here
        integral = all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in raw.flat)
    else:
        integral = raw.dtype.kind in "iu"
    if not integral:
        raise GraphError(f"{what} are not integer indices")
    if raw.size and not (raw.min() >= 0 and raw.max() < n):
        raise GraphError(f"{what} have an entry outside [0, {n})")
    return np.array(raw, dtype=np.int64)


def real_values(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """The one rule for real-valued inputs: ``values`` as a float64 array.

    ``values`` is a Python or numpy int or float, an integer or float
    array, or a nested sequence of such numbers.  A bool (Python or
    numpy), a string, a complex number, None, a ragged entry or an int
    past the float range raises :class:`GraphError`: a cast would read
    ``True`` and ``"1"`` as 1.0 and drop a complex number's imaginary
    part.  When ``shape`` is given, any other shape raises
    :class:`DimensionMismatchError`.  A float64 array comes back as the
    same object, not a copy: ``validate_weights`` returns a view of the
    caller's weights, and a ``diffcore.Tensor`` aliases the array it
    wraps.  Anything else comes back as a new array.  Ranges are left to
    the callers.
    """
    raw = _entries(values, f"{what} has an entry that is not a real number")
    if raw.dtype == object:
        # checked entry by entry: numpy reads ``[True, 0.5]`` as float64,
        # and a ragged entry is left as a sequence here
        real = all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) for x in raw.flat)
    else:
        real = raw.dtype.kind in "iuf"
    if not real:
        raise GraphError(f"{what} has an entry that is not a real number")
    if shape is not None and raw.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {raw.shape}, expected {shape}")
    try:
        return np.asarray(raw, dtype=np.float64)
    except OverflowError:
        raise GraphError(f"{what} has an integer past the float range") from None


def _entries(values, error: str) -> np.ndarray:
    """``values`` if it is an ndarray, else an object array of its entries.

    numpy cannot lay some ragged nestings, arrays of unequal shapes among
    them, into an object array; those raise :class:`GraphError` with the
    message ``error``.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=object)
    except ValueError:
        raise GraphError(error) from None


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
    # the ends go to Graph as given, so that its one index rule sees them
    # before any conversion could hide a bool or a float
    senders, receivers, capacities = [], [], []
    for a, b, cap, directed in links:
        for s, r in [(a, b)] if directed else [(a, b), (b, a)]:
            senders.append(s)
            receivers.append(r)
            capacities.append(cap)
    return Graph(node_count, receivers, senders, capacities, name)


def ordered_pairs(node_count: int) -> np.ndarray:
    """The fixed enumeration of ordered node pairs.

    Lexicographic over (source, destination) with source != destination;
    row i of every routing matrix and entry i of every demand vector
    refer to ``ordered_pairs(n)[i]``.  ``node_count`` passes
    :func:`positive_integer`.

    Returns:
        int64 array of shape ``(n*(n-1), 2)``.
    """
    n = positive_integer(node_count, "node_count")
    return np.argwhere(~np.eye(n, dtype=bool))


def floor_weights(weights: np.ndarray) -> np.ndarray:
    """Projects a weight vector onto the valid domain ``[W_MIN, W_MAX]``.

    NaN has no nearest point in the domain, so it raises
    :class:`GraphError`, as in :func:`validate_weights`.
    """
    w = real_values(weights, "weights")
    if np.isnan(w).any():
        raise GraphError("weights must not be NaN")
    return np.clip(w, W_MIN, W_MAX)


def validate_weights(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Checks a weight vector's shape and range; returns float64 view.

    Weights must lie in ``[W_MIN, W_MAX]`` (see :data:`W_MAX` for why the
    ceiling).  NaN fails the range test: a NaN link is never relaxed, so it
    would silently act as removed.
    """
    w = real_values(weights, "weight vector", (g.edge_count,))
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
    """Checks a demand vector's shape and range; returns float64 view.

    Entry i is the traffic from ``ordered_pairs(n)[i][0]`` to
    ``ordered_pairs(n)[i][1]``, so the shape is ``(g.pair_count,)``.
    Demands must be finite and non-negative; NaN fails the test.
    """
    d = real_values(demands, "demand vector", (g.pair_count,))
    if not np.all((d >= 0.0) & (d < np.inf)):
        raise GraphError("demands must be finite and non-negative")
    return d


def validate_path_vector(g: Graph, membership: np.ndarray, u: int, v: int) -> None:
    """Checks that a 0/1 membership vector is a simple directed path u -> v.

    Raises:
        GraphError: when ``u`` or ``v`` is not one node of ``g`` (see
            :func:`node_indices`), ``membership`` fails :func:`real_values`
            or the marked edges do not form one simple path.
    """
    ends = node_indices([u, v], g.node_count, "path endpoints")
    if ends.shape != (2,):
        raise GraphError(f"path endpoints {u!r}, {v!r} are not two nodes")
    u, v = ends.tolist()
    p = real_values(membership, "path vector", (g.edge_count,))
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
