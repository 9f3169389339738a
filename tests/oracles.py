"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: exhaustive enumeration,
one-demand-at-a-time accumulation, plain-Python heap Dijkstra with one
tree sweep per source, which the all-sources evaluator must match bit
for bit, and central finite differences.  The routing oracles never call
the library's routing code; the gradient checker calls its autodiff
only for the gradient under test.
"""

from __future__ import annotations

import heapq

import numpy as np

from routegrad import diffcore as dc


def pair_index(n_nodes, u, v):
    """Row of the ordered pair (u, v), u != v, in the library's pair order."""
    return u * (n_nodes - 1) + (v if v < u else v - 1)


def enumerate_simple_paths(n_nodes, senders, receivers, u, v):
    """All simple directed paths u -> v as lists of edge indices (DFS)."""
    out = [[] for _ in range(n_nodes)]
    for k in range(len(senders)):
        out[senders[k]].append(k)
    paths = []

    def dfs(node, visited, edges):
        if node == v:
            paths.append(list(edges))
            return
        for k in out[node]:
            nxt = receivers[k]
            if nxt not in visited:
                visited.add(nxt)
                edges.append(k)
                dfs(nxt, visited, edges)
                edges.pop()
                visited.remove(nxt)

    dfs(u, {u}, [])
    return paths


def strongly_connected(n_nodes, senders, receivers):
    """Whether every node reaches every other: depth-first search from node
    0 along the links and against them."""

    def reaches_all(heads_of):
        seen = {0}
        stack = [0]
        while stack:
            for v in heads_of[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n_nodes

    fwd = [[] for _ in range(n_nodes)]
    rev = [[] for _ in range(n_nodes)]
    for s, r in zip(senders, receivers):
        fwd[s].append(r)
        rev[r].append(s)
    return reaches_all(fwd) and reaches_all(rev)


def first_duplicate_link(senders, receivers):
    """The ``(sender, receiver)`` of the first link whose pair an earlier
    link already has, or None."""
    pairs = set()
    for key in zip(senders, receivers):
        if key in pairs:
            return key
        pairs.add(key)
    return None


def min_path_cost(n_nodes, senders, receivers, weights, u, v):
    """Cheapest simple-path cost u -> v by exhaustive enumeration."""
    paths = enumerate_simple_paths(n_nodes, senders, receivers, u, v)
    assert paths, f"no path {u}->{v}"
    return min(sum(weights[k] for k in p) for p in paths)


def accumulate_loads(n_edges, path_edges_per_pair, demands):
    """Per-link load by walking each demand along its path, one at a time."""
    loads = np.zeros(n_edges)
    for d, edges in zip(demands, path_edges_per_pair):
        for k in edges:
            loads[k] += d
    return loads


def heap_shortest_path_tree(n_nodes, senders, receivers, weights, src):
    """One-source Dijkstra with a binary heap, then the tie-break pass.

    Returns ``(dist, pred)`` under the library's contract: ``pred[v]`` is
    the final link of v's path, the lowest sender winning among links that
    close an equal-cost path, and ``pred[src] == -1``.
    """
    out = [[] for _ in range(n_nodes)]
    for k in range(len(senders)):
        out[senders[k]].append(k)
    dist = np.full(n_nodes, np.inf)
    dist[src] = 0.0
    settled = np.zeros(n_nodes, dtype=bool)
    heap = [(0.0, src)]
    while heap:
        d_u, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for k in out[u]:
            v = receivers[k]
            nd = d_u + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    assert settled.all(), f"nodes unreachable from {src}"
    pred = np.full(n_nodes, -1, dtype=np.int64)
    best_sender = np.full(n_nodes, n_nodes, dtype=np.int64)
    for k in range(len(senders)):
        v, s = receivers[k], senders[k]
        if v != src and dist[s] + weights[k] == dist[v] and s < best_sender[v]:
            best_sender[v] = s
            pred[v] = k
    return dist, pred


def sweep_link_loads(n_nodes, senders, receivers, weights, demands):
    """Per-link load by one tree sweep per source, in source order.

    Each source's demands are carried from the farthest node inward
    (descending distance, the higher index first among equals); a node
    adds its carried traffic to its predecessor link and to that link's
    sender.
    """
    loads = np.zeros(len(senders))
    for u in range(n_nodes):
        dist, pred = heap_shortest_path_tree(n_nodes, senders, receivers, weights, u)
        carry = np.zeros(n_nodes)
        for v in range(n_nodes):
            if v != u:
                carry[v] = demands[pair_index(n_nodes, u, v)]
        for v in np.argsort(dist, kind="stable")[::-1]:
            if v == u:
                continue
            k = pred[v]
            loads[k] += carry[v]
            carry[senders[k]] += carry[v]
    return loads


def walked_routing_matrix(n_nodes, senders, receivers, weights):
    """Routing matrix built by walking each pair's predecessors back."""
    P = np.zeros((n_nodes * (n_nodes - 1), len(senders)))
    i = 0
    for u in range(n_nodes):
        _, pred = heap_shortest_path_tree(n_nodes, senders, receivers, weights, u)
        for v in range(n_nodes):
            if v == u:
                continue
            node = v
            while node != u:
                P[i, pred[node]] = 1.0
                node = senders[pred[node]]
            i += 1
    return P


def reference_forward(params, rounds, share_processor, senders, receivers, weights, indicators):
    """The surrogate's architecture written out in numpy, layer by layer.

    Every dense layer reads the explicit concatenation of its inputs, and
    a node's aggregate is summed link by link in a Python loop.  Returns
    ``(final, steps)``: the last round's edge probabilities ``[n_q, n_e]``
    and the decoder output after every round.
    """

    def dense(x, name):
        return x @ params[f"{name}_w"].T + params[f"{name}_b"]

    def mlp_ln(x, prefix):
        z = dense(np.maximum(dense(x, f"{prefix}_l1"), 0.0), f"{prefix}_l2")
        mu = z.mean(axis=-1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-5) * params[f"{prefix}_ln_gain"] + params[f"{prefix}_ln_bias"]

    def decode(edges):
        logit = dense(np.maximum(dense(edges, "dec_l1"), 0.0), "dec_l2")[..., 0]
        return 1.0 / (1.0 + np.exp(-logit))

    n_q, n_e = indicators.shape[0], len(senders)
    nodes = mlp_ln(indicators, "enc_node")
    edge_latent = mlp_ln(np.asarray(weights, dtype=np.float64).reshape(n_e, 1), "enc_edge")
    edges = np.broadcast_to(edge_latent, (n_q,) + edge_latent.shape)
    steps = []
    for t in range(rounds):
        prefix = "proc0" if share_processor else f"proc{t}"
        edges = mlp_ln(np.concatenate([edges, nodes[:, receivers], nodes[:, senders]], axis=-1), f"{prefix}_edge")
        steps.append(decode(edges))
        if t == rounds - 1:
            break  # the last node update reaches no decoder
        aggregate = np.zeros_like(nodes)
        for k in range(n_e):
            aggregate[:, receivers[k]] += edges[:, k]
        nodes = mlp_ln(np.concatenate([aggregate, nodes], axis=-1), f"{prefix}_node")
    return steps[-1], steps


def softmax_temperature_reference(x, tau):
    """Direct scalar evaluation of the temperature-weighted maximum."""
    x = [float(v) for v in x]
    num = sum(v * np.exp(v / tau) for v in x)
    den = sum(np.exp(v / tau) for v in x)
    return num / den


def soft_maximum_chain(x, tau, g=1.0):
    """Value and gradient of the soft maximum as an element-wise op chain gives them.

    The chain is a shift by the max, a scale by ``1 / tau``, exp, the
    product with ``x``, two sums and their quotient; a tape pulls them back
    in reverse, and ``x`` and ``e`` each receive two gradients, added in
    the order they arrive.  Every float operation below is one of the
    chain's, in its order, for the output gradient ``g``.
    """
    x = np.asarray(x, dtype=np.float64)
    inv_tau = 1.0 / tau
    e = np.exp((x - x.max()) * inv_tau)
    num, den = (x * e).sum(), e.sum()
    g = np.float64(g)
    # the quotient, then each sum broadcasts its gradient
    g_num = np.broadcast_to(g / den, x.shape)
    g_den = np.broadcast_to(-g * num / (den * den), x.shape)
    # the product: x receives g_num * e, and e receives g_num * x after g_den
    g_x = g_num * e
    g_e = g_den + g_num * x
    # exp, the scale and the shift lead to x's second gradient
    return num / den, g_x + g_e * e * inv_tau


def binary_cross_entropy_chain(p, labels, g=1.0):
    """Value and gradient of mean BCE as an element-wise op chain gives them.

    The chain clamps ``p`` to ``[1e-7, 1 - 1e-7]``, takes both logs, the
    label products, their sum, its mean and the negation; the clamped
    ``pc`` receives the ``log(1 - pc)`` branch's gradient first.  Every
    float operation below is one of the chain's, in its order, for the
    output gradient ``g``; the clamp passes the gradient strictly inside
    its bounds and stops it elsewhere.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    lo, hi = 1e-7, 1.0 - 1e-7
    pc = np.clip(p, lo, hi)
    term = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)
    gm = np.broadcast_to(-np.float64(g), p.shape) / p.size
    g_pc = -(gm * (1.0 - y) / (1.0 - pc))
    g_pc = g_pc + gm * y / pc
    return -term.mean(), g_pc * ((p > lo) & (p < hi))


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector.

    ``f`` sees ``x`` itself, one entry moved at a time; a non-contiguous
    ``x`` is first copied, since ``ravel`` would not be a view of it.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_difference_check(f, x, h=1e-5):
    """Error of the taped gradient versus central differences, relative to its scale.

    ``f`` maps one diffcore Tensor to a scalar Tensor.  The error is
    measured against the largest gradient entry rather than entry by
    entry: central differences carry an absolute roundoff floor of about
    ``eps * |f| / h``, so a correct gradient with some entries below that
    floor would otherwise fail whatever the step.

    Returns:
        ``max_i |analytic_i - fd_i| / max(max_i |analytic_i|, max_i |fd_i|)``,
        or 0.0 when both gradients are exactly zero.
    """
    x = np.array(x, dtype=np.float64)  # a copy: central_difference moves its entries
    xt = dc.Tensor(x.copy(), requires_grad=True)
    with dc.Tape() as tape:
        y = f(xt)
    analytic = tape.gradient(y, xt)
    fd = central_difference(lambda a: float(f(dc.Tensor(a.copy())).data), x, h)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(analytic - fd))) / scale
