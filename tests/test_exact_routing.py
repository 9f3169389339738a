import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from routegrad import exact_routing as xr
from routegrad import netgraph as ng

from oracles import (
    accumulate_loads,
    enumerate_simple_paths,
    heap_shortest_path_tree,
    min_path_cost,
    pair_index,
    sweep_link_loads,
    walked_routing_matrix,
)


def triangle():
    # forward edges 0->1 (w 1), 1->2 (w 1), 0->2 (w 3); dyadic high-weight
    # return edges keep the graph strongly connected without ever lying on
    # a forward shortest path
    g = ng.Graph(
        3,
        receivers=[1, 2, 2, 0, 1, 0],
        senders=[0, 1, 0, 1, 2, 2],
        capacities=np.ones(6),
    )
    return g, np.array([1.0, 1.0, 3.0, 2048.0, 2048.0, 2048.0])


def random_graph(rng, n_nodes, extra=2):
    """Small random strongly-connected graph: a ring plus random chords."""
    links = [(i, (i + 1) % n_nodes, 1.0, False) for i in range(n_nodes)]
    present = {(a, b) for a, b, _, _ in links} | {(b, a) for a, b, _, _ in links}
    tries = 0
    while extra > 0 and tries < 50:
        a, b = rng.integers(0, n_nodes, 2)
        tries += 1
        if a == b or (int(a), int(b)) in present:
            continue
        present.add((int(a), int(b)))
        links.append((int(a), int(b), 1.0, True))
        extra -= 1
    return ng.build_graph(n_nodes, links)


def dyadic_weights(rng, n, lo=2, hi=2048):
    # multiples of 2^-10 (>= 2/1024 to clear the weight floor): float
    # addition over short paths is then exact in any order
    return rng.integers(lo, hi, n).astype(np.float64) / 1024.0


class TestShortestPathTree:
    def test_triangle_distances(self):
        g, w = triangle()
        dist, pred = xr.shortest_path_tree(g, w, 0)
        assert dist.tolist() == [0.0, 1.0, 2.0]
        assert pred.tolist() == [-1, 0, 1]  # dist(2)=2 via node 1

    def test_source_distance_zero(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 5)
        w = dyadic_weights(rng, g.edge_count)
        for u in range(5):
            dist, _ = xr.shortest_path_tree(g, w, u)
            assert dist[u] == 0.0

    def test_two_node_graph(self):
        g = ng.Graph(2, receivers=[1, 0], senders=[0, 1], capacities=[1.0, 1.0])
        dist, pred = xr.shortest_path_tree(g, np.array([5.0, 7.0]), 0)
        assert dist[1] == 5.0
        assert pred[1] == 0

    @pytest.mark.parametrize("src", [1.5, np.float64(2.0), True], ids=["float", "np_float64", "bool"])
    def test_non_integer_source_rejected(self, src):
        g, w = triangle()
        with pytest.raises(ng.GraphError):
            xr.shortest_path_tree(g, w, src)

    def test_numpy_integer_source(self):
        g, w = triangle()
        dist, pred = xr.shortest_path_tree(g, w, np.int64(1))
        expect_dist, expect_pred = xr.shortest_path_tree(g, w, 1)
        assert np.array_equal(dist, expect_dist) and np.array_equal(pred, expect_pred)

    def test_costs_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            g = random_graph(rng, int(rng.integers(3, 7)), extra=int(rng.integers(0, 4)))
            w = dyadic_weights(rng, g.edge_count)
            for u in range(g.node_count):
                dist, _ = xr.shortest_path_tree(g, w, u)
                for v in range(g.node_count):
                    if u != v:
                        expect = min_path_cost(
                            g.node_count, g.senders.tolist(), g.receivers.tolist(), w, u, v
                        )
                        assert dist[v] == expect


class TestPathVector:
    """Single rows of the routing matrix: one pair's 0/1 link membership."""

    def test_triangle_path(self):
        g, w = triangle()
        assert xr.routing_matrix(g, w)[pair_index(3, 0, 2)].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_single_edge(self):
        g = ng.Graph(2, receivers=[1, 0], senders=[0, 1], capacities=[1.0, 1.0])
        assert xr.routing_matrix(g, np.array([1.0, 1.0]))[pair_index(2, 0, 1)].tolist() == [1.0, 0.0]

    def test_cost_equals_tree_distance(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6, extra=3)
        w = dyadic_weights(rng, g.edge_count)
        dist, _ = xr.shortest_path_tree(g, w, 0)
        P = xr.routing_matrix(g, w)
        for v in range(1, 6):
            assert P[pair_index(6, 0, v)] @ w == dist[v]

    def test_ring_tie_break_is_lowest_sender(self):
        # 4-node undirected ring, all weights 1: pair (0,2) has two cost-2
        # paths; the rule keeps predecessor with the lower sender index (1).
        g = ng.build_graph(4, [(i, (i + 1) % 4, 1.0, False) for i in range(4)])
        p = xr.routing_matrix(g, np.ones(g.edge_count))[pair_index(4, 0, 2)]
        ng.validate_path_vector(g, p, 0, 2)
        used = np.flatnonzero(p)
        nodes_on_path = set(g.senders[used].tolist()) | set(g.receivers[used].tolist())
        assert nodes_on_path == {0, 1, 2}

    def test_every_path_validates(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 7)), extra=2)
            P = xr.routing_matrix(g, dyadic_weights(rng, g.edge_count))
            for u in range(g.node_count):
                for v in range(g.node_count):
                    if u != v:
                        ng.validate_path_vector(g, P[pair_index(g.node_count, u, v)], u, v)


class TestRoutingMatrix:
    def test_row_count(self):
        g, w = triangle()
        assert xr.routing_matrix(g, w).shape == (6, 6)

    def test_triangle_rows(self):
        g, w = triangle()
        P = xr.routing_matrix(g, w)
        assert P[pair_index(3, 0, 2)].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert P[pair_index(3, 0, 1)].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_star_routes_through_hub(self):
        # node 0 is the hub of a 4-leaf star
        g = ng.build_graph(5, [(0, i, 1.0, False) for i in range(1, 5)])
        P = xr.routing_matrix(g, np.ones(g.edge_count))
        pairs = ng.ordered_pairs(5)
        for i, (u, v) in enumerate(pairs):
            hops = P[i].sum()
            assert hops == (1.0 if 0 in (u, v) else 2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 6, extra=3)
        w = dyadic_weights(rng, g.edge_count)
        P1 = xr.routing_matrix(g, w)
        P2 = xr.routing_matrix(g, w * 64.0)  # power-of-two scale: costs stay exact
        assert np.array_equal(P1, P2)

    def test_rows_match_path_vector(self):
        # each row against the path walked back from a heap-Dijkstra tree
        rng = np.random.default_rng(13)
        g = random_graph(rng, 5, extra=2)
        w = dyadic_weights(rng, g.edge_count)
        expect = walked_routing_matrix(5, g.senders.tolist(), g.receivers.tolist(), w)
        assert np.array_equal(xr.routing_matrix(g, w), expect)


class TestSubpathProperty:
    def test_prefix_of_chosen_path_is_chosen(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_graph(rng, 6, extra=3)
            P = xr.routing_matrix(g, dyadic_weights(rng, g.edge_count))
            for u in range(g.node_count):
                for v in range(g.node_count):
                    if v == u:
                        continue
                    row = P[pair_index(g.node_count, u, v)]
                    # the chosen path to a node m on this path uses only
                    # this path's links, so it is this path's prefix
                    for m in g.receivers[row == 1.0].tolist():
                        assert np.all(P[pair_index(g.node_count, u, m)] <= row)


class TestLinkLoads:
    def test_matches_matrix_route(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 7)), extra=2)
            w = dyadic_weights(rng, g.edge_count)
            d = rng.integers(0, 1024, g.pair_count).astype(np.float64) / 1024.0
            P = xr.routing_matrix(g, w)
            assert np.array_equal(xr.link_loads(g, w, d), d @ P)

    def test_matches_per_demand_oracle_exactly(self):
        rng = np.random.default_rng(34)
        g = random_graph(rng, 6, extra=3)
        w = dyadic_weights(rng, g.edge_count)
        d = rng.integers(0, 1024, g.pair_count).astype(np.float64) / 1024.0
        P = walked_routing_matrix(g.node_count, g.senders.tolist(), g.receivers.tolist(), w)
        expect = accumulate_loads(g.edge_count, [np.flatnonzero(row) for row in P], d)
        assert np.array_equal(xr.link_loads(g, w, d), expect)

    def test_exact_max_utilization(self):
        g, w = triangle()
        d = np.zeros(6)
        d[pair_index(3, 0, 2)] = 0.5
        assert xr.exact_max_utilization(g, w, d) == 0.5

    def test_single_node_carries_nothing(self):
        g = ng.Graph(1, receivers=[], senders=[], capacities=[])
        assert xr.link_loads(g, np.zeros(0), np.zeros(0)).shape == (0,)
        assert xr.exact_max_utilization(g, np.zeros(0), np.zeros(0)) == 0.0


def test_brute_force_optimality_on_small_graphs():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 7)), extra=int(rng.integers(0, 4)))
        w = dyadic_weights(rng, g.edge_count)
        P = xr.routing_matrix(g, w)
        for u, v in ng.ordered_pairs(g.node_count).tolist():
            p = P[pair_index(g.node_count, u, v)]
            brute = min_path_cost(g.node_count, g.senders.tolist(), g.receivers.tolist(), w, u, v)
            assert p @ w <= brute + 1e-12


def ring_with_chords(rng, n_nodes, chords):
    """Undirected ring plus random undirected chords, mixed capacities."""
    assert chords <= n_nodes * (n_nodes - 3) // 2, "more chords than node pairs off the ring"
    caps = (1.0, 2.5, 10.0)
    links = [(i, (i + 1) % n_nodes, rng.choice(caps), False) for i in range(n_nodes)]
    present = {frozenset((a, b)) for a, b, _, _ in links}
    while chords > 0:
        a, b = (int(x) for x in rng.integers(0, n_nodes, 2))
        if a != b and frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            links.append((a, b, rng.choice(caps), False))
            chords -= 1
    return ng.build_graph(n_nodes, links)


WEIGHT_SETS = {
    "uniform": lambda rng, g: rng.uniform(1.0, 20.0, g.edge_count),
    "integers": lambda rng, g: rng.integers(1, 21, g.edge_count).astype(np.float64),
    "ones": lambda rng, g: np.ones(g.edge_count),
    "ospf": lambda rng, g: ng.default_ospf_weights(g),
    "tenths": lambda rng, g: rng.choice([0.1, 0.2, 0.3], g.edge_count),  # inexact sums
    "log_uniform": lambda rng, g: np.exp(rng.uniform(np.log(ng.W_MIN), np.log(ng.W_MAX), g.edge_count)),
}


def assert_bitwise_equal_to_oracles(g, w, d):
    """All-sources trees, loads and routing matrix against the heap-Dijkstra
    oracles, bit for bit; returns the oracle's trees."""
    n_nodes = g.node_count
    graph = (n_nodes, g.senders.tolist(), g.receivers.tolist(), w)
    trees = [heap_shortest_path_tree(*graph, u) for u in range(n_nodes)]
    dist, pred = xr._trees(g, w, np.arange(n_nodes))
    assert np.array_equal(dist, np.array([t[0] for t in trees]))
    assert np.array_equal(pred, np.array([t[1] for t in trees]))
    off_source = pred[~np.eye(n_nodes, dtype=bool)]
    assert off_source.min() >= 0 and off_source.max() < g.edge_count  # never the pad link
    assert np.array_equal(xr.link_loads(g, w, d), sweep_link_loads(*graph, d))
    assert np.array_equal(xr.routing_matrix(g, w), walked_routing_matrix(*graph))
    return trees


@pytest.mark.parametrize("weights", sorted(WEIGHT_SETS))
@pytest.mark.parametrize("n_nodes", [5, 12, 24, 50])
def test_bitwise_equal_to_heap_dijkstra(n_nodes, weights):
    rng = np.random.default_rng(n_nodes)
    for _ in range(2):
        g = ring_with_chords(rng, n_nodes, chords=n_nodes * 4 // 5)
        w = WEIGHT_SETS[weights](rng, g)
        d = rng.uniform(0.0, 10.0, g.pair_count)
        trees = assert_bitwise_equal_to_oracles(g, w, d)
        for u in (0, n_nodes - 1):
            one_dist, one_pred = xr.shortest_path_tree(g, w, u)
            assert np.array_equal(one_dist, trees[u][0]) and np.array_equal(one_pred, trees[u][1])


def hub_ring(n_nodes):
    """Undirected ring plus an undirected chord from hub 0 to every other node."""
    links = [(i, (i + 1) % n_nodes, 1.0, False) for i in range(n_nodes)]
    links += [(0, v, 2.5, False) for v in range(2, n_nodes - 1)]
    return ng.build_graph(n_nodes, links)


IN_DEGREE_EXTREMES = {
    # hub in-degree n-1, every leaf 1: the table is n-1 slots deep, mostly pads
    "star": lambda n: ng.build_graph(n, [(0, v, 1.0, False) for v in range(1, n)]),
    # every in-degree 1: a table of one slot and no pads
    "directed_ring": lambda n: ng.build_graph(n, [(v, (v + 1) % n, 1.0, True) for v in range(n)]),
    # hub in-degree n-1, every other node 3 or 2
    "hub_ring": hub_ring,
}


@pytest.mark.parametrize("weights", sorted(WEIGHT_SETS))
@pytest.mark.parametrize("topology", sorted(IN_DEGREE_EXTREMES))
def test_in_link_table_at_in_degree_extremes(topology, weights):
    rng = np.random.default_rng(7)
    g = IN_DEGREE_EXTREMES[topology](12)
    assert_bitwise_equal_to_oracles(g, WEIGHT_SETS[weights](rng, g), rng.uniform(0.0, 10.0, g.pair_count))


def out_links_toward(g, P, t):
    """Per node, how many links the ``routing_matrix`` rows into ``t`` leave it by."""
    into_t = ng.ordered_pairs(g.node_count)[:, 1] == t
    return np.bincount(g.senders[P[into_t].any(axis=0)], minlength=g.node_count)


# "tenths" is left out: its sums are inexact, so the part of a path into t
# after a node need not be that node's own path into t, and the routes into
# t can leave a node by two links
@pytest.mark.parametrize("weights", sorted(set(WEIGHT_SETS) - {"tenths"}))
@pytest.mark.parametrize("n_nodes", [5, 12, 24, 50])
def test_routes_into_each_destination_form_an_in_tree(n_nodes, weights):
    # per-destination next-hop labels need this: every node but the
    # destination leaves toward it by exactly one link, the destination by none
    rng = np.random.default_rng(100 + n_nodes)
    for _ in range(5):
        g = ring_with_chords(rng, n_nodes, chords=n_nodes * 4 // 5)
        P = xr.routing_matrix(g, WEIGHT_SETS[weights](rng, g))
        for t in range(n_nodes):
            assert np.array_equal(out_links_toward(g, P, t), np.arange(n_nodes) != t), f"destination {t}"


class TestWeightCeiling:
    """Above W_MAX, 1e14 + 1e-3 == 1e14 lets the 0<->1 links close an
    equal-cost cycle: the predecessors of 0 and 1 point at each other,
    ``link_loads`` drops the traffic on 4->0 and 4->1, and walking the
    path 4->0 never ends."""

    def graph_and_weights(self):
        g = ng.build_graph(5, [(a, b, 1.0, False) for a, b in [(4, 0), (4, 1), (0, 1), (4, 2), (2, 3), (3, 4)]])
        w = np.ones(g.edge_count)
        for k, (s, r) in enumerate(zip(g.senders, g.receivers)):
            if s == 4 and r in (0, 1):
                w[k] = 1e14
            elif {int(s), int(r)} == {0, 1}:
                w[k] = 1e-3
        return g, w

    def test_rejected(self):
        g, w = self.graph_and_weights()
        with pytest.raises(ng.GraphError):
            ng.validate_weights(g, w)
        with pytest.raises(ng.GraphError):
            xr.routing_matrix(g, w)
        with pytest.raises(ng.GraphError):
            xr.link_loads(g, w, np.ones(g.pair_count))

    def test_projected_weights_route_all_traffic(self):
        g, w = self.graph_and_weights()
        w = ng.floor_weights(w)
        assert w.max() == ng.W_MAX
        d = np.ones(g.pair_count)
        paths = [np.flatnonzero(row) for row in xr.routing_matrix(g, w)]
        loads = xr.link_loads(g, w, d)
        assert np.array_equal(loads, accumulate_loads(g.edge_count, paths, d))
        into_01 = (g.senders == 4) & np.isin(g.receivers, [0, 1])
        assert loads[into_01].sum() > 0.0


def test_predecessor_cycle_raises(monkeypatch):
    g, w = triangle()
    # from source 0, node 1's predecessor is 2->1 (link 4) and node 2's is
    # 1->2 (link 1): a walk back from either never reaches 0
    pred = np.array([[-1, 4, 1], [3, -1, 1], [5, 4, -1]])
    monkeypatch.setattr(xr, "_trees", lambda g, w, sources: (np.zeros((3, 3)), pred))
    with pytest.raises(xr.UnreachableError, match="cycle"):
        xr.routing_matrix(g, w)


WALK_MOVES = ("up", "down", "tie", "two", "revert", "repeat", "new_demands", "demand_edit")


def walk_step(rng, g, w, d, history):
    """One seeded move on integer weights.  Edits the caller's buffers in
    place, except that a revert and new demands hand over fresh arrays."""
    kind = WALK_MOVES[rng.integers(len(WALK_MOVES))]
    k = rng.integers(g.edge_count)
    if kind == "up":
        w[k] += rng.integers(1, 6)
    elif kind == "down":
        w[k] = max(1.0, w[k] - rng.integers(1, 6))
    elif kind == "tie":
        # lower a link onto an equal-cost path of some source
        dist, _ = xr.shortest_path_tree(g, w, int(rng.integers(g.node_count)))
        gap = dist[g.receivers] - dist[g.senders]
        onto = np.flatnonzero((gap >= 1.0) & (gap < w))
        if onto.size:
            k = rng.choice(onto)
            w[k] = gap[k]
    elif kind == "two":
        w[rng.choice(g.edge_count, 2, replace=False)] = rng.integers(1, 21, 2)
    elif kind == "revert":
        w = history[rng.integers(len(history))].copy()
    elif kind == "new_demands":
        d = rng.uniform(0.0, 10.0, g.pair_count)
    elif kind == "demand_edit":
        d[rng.integers(g.pair_count)] = rng.uniform(0.0, 10.0)
    history.append(w.copy())
    return w, d


def assert_loads_as_full_evaluation(g, w, d):
    got = xr.link_loads(g, w, d)
    graph = (g.node_count, g.senders.tolist(), g.receivers.tolist(), w.copy())
    assert np.array_equal(got, sweep_link_loads(*graph, d))
    fresh = ng.Graph(g.node_count, g.receivers, g.senders, g.capacities)
    assert np.array_equal(got, xr.link_loads(fresh, w, d))


@pytest.mark.parametrize("n_nodes, steps", [(12, 80), (24, 40), (50, 16)])
def test_incremental_loads_bitwise_equal_along_walks(n_nodes, steps):
    """Interleaved walks on three graphs: after every call the loads are
    those of the oracle and of a full evaluation on a fresh graph."""
    rng = np.random.default_rng(n_nodes + 1000)
    walks = []
    for _ in range(3):
        g = ring_with_chords(rng, n_nodes, chords=n_nodes * 4 // 5)
        w = rng.integers(1, 21, g.edge_count).astype(np.float64)
        walks.append([g, w, rng.uniform(0.0, 10.0, g.pair_count), [w.copy()]])
    for _ in range(steps):
        for walk in walks:
            g, w, d, history = walk
            assert_loads_as_full_evaluation(g, w, d)
            walk[1], walk[2] = walk_step(rng, g, w, d, history)


FLOAT_MOVES = ("up", "down", "three", "rescale", "tie")


def float_walk_step(rng, g, w, weights):
    """One seeded move on float weights drawn from ``WEIGHT_SETS[weights]``,
    whose path sums round; edits ``w`` in place."""
    kind = FLOAT_MOVES[rng.integers(len(FLOAT_MOVES))]
    k = rng.integers(g.edge_count)
    if kind == "up":
        w[k] = min(ng.W_MAX, w[k] * rng.uniform(1.05, 3.0))
    elif kind == "down":
        w[k] = max(ng.W_MIN, w[k] * rng.uniform(0.2, 0.95))
    elif kind == "three":
        three = rng.choice(g.edge_count, 3, replace=False)
        w[three] = WEIGHT_SETS[weights](rng, g)[three]
    elif kind == "rescale":
        w[:] = np.clip(w * rng.uniform(0.8, 1.25, g.edge_count), ng.W_MIN, ng.W_MAX)
    else:
        # lower a link onto a path of equal rounded cost from some source
        dist, _ = xr.shortest_path_tree(g, w, int(rng.integers(g.node_count)))
        gap = dist[g.receivers] - dist[g.senders]
        onto = np.flatnonzero((gap >= ng.W_MIN) & (gap < w) & (dist[g.senders] + gap == dist[g.receivers]))
        if onto.size:
            k = rng.choice(onto)
            w[k] = gap[k]


@pytest.mark.parametrize("weights", ["tenths", "uniform"])
@pytest.mark.parametrize("n_nodes, steps", [(12, 40), (24, 20), (50, 8)])
def test_incremental_loads_bitwise_equal_along_float_walks(n_nodes, steps, weights):
    """As the integer walks, on weights whose path sums round: every
    distance the warm start keeps is a rounded sum, and the loads must
    still be those of the oracle and of a full evaluation, bit for bit."""
    rng = np.random.default_rng(n_nodes + 2000)
    walks = []
    for _ in range(3):
        g = ring_with_chords(rng, n_nodes, chords=n_nodes * 4 // 5)
        walks.append((g, WEIGHT_SETS[weights](rng, g), rng.uniform(0.0, 10.0, g.pair_count)))
    for _ in range(steps):
        for g, w, d in walks:
            assert_loads_as_full_evaluation(g, w, d)
            float_walk_step(rng, g, w, weights)


@pytest.mark.parametrize("weights", sorted(WEIGHT_SETS))
def test_trees_from_an_upper_bound_start_equal_a_cold_start(weights):
    """Any start that bounds the distances from above, here with random
    entries (sources included) set to inf, ends on the cold call's
    distances and predecessors bit for bit."""
    rng = np.random.default_rng(17)
    for n_nodes in (12, 50):
        g = ring_with_chords(rng, n_nodes, chords=n_nodes * 4 // 5)
        w = WEIGHT_SETS[weights](rng, g)
        sources = np.sort(rng.choice(n_nodes, n_nodes // 3, replace=False))
        dist, pred = xr._trees(g, w, sources)
        larger = np.minimum(w * rng.uniform(1.0, 3.0, g.edge_count), ng.W_MAX)
        upper, _ = xr._trees(g, larger, sources)
        upper[rng.random(upper.shape) < 0.3] = np.inf
        for start in (upper, dist):
            kept = start.copy()
            got_dist, got_pred = xr._trees(g, w, sources, start)
            assert np.array_equal(got_dist, dist) and np.array_equal(got_pred, pred)
            assert np.array_equal(start, kept)


def test_one_link_move_resweeps_only_affected_sources(monkeypatch):
    rng = np.random.default_rng(3)
    g = ring_with_chords(rng, 24, chords=19)
    w = rng.integers(1, 21, g.edge_count).astype(np.float64)
    d = rng.uniform(0.0, 10.0, g.pair_count)
    xr.link_loads(g, w, d)
    _, pred = xr._trees(g, w, np.arange(g.node_count))
    swept, started = [], []
    trees = xr._trees

    def recording_trees(g, w, sources, start=None):
        # a warm start is an upper bound on the new distances, 0 at each source
        if start is not None:
            assert np.all(start >= trees(g, w, sources)[0])
            assert np.all(start[np.arange(sources.size), sources] == 0.0)
        swept.append(sources)
        started.append(start is not None)
        return trees(g, w, sources, start)

    monkeypatch.setattr(xr, "_trees", recording_trees)

    unused = np.setdiff1d(np.arange(g.edge_count), pred)
    assert unused.size
    raised = w.copy()
    raised[unused[0]] += 1.0
    graph = (g.node_count, g.senders.tolist(), g.receivers.tolist())
    assert np.array_equal(xr.link_loads(g, raised, d), sweep_link_loads(*graph, raised, d))
    assert swept == []

    k = pred[0, 1]
    raised = w.copy()
    raised[k] += 1.0
    xr.link_loads(g, raised, d)
    assert len(swept) == 1 and np.array_equal(swept[0], np.flatnonzero((pred == k).any(axis=1)))
    assert 0 < swept[0].size < g.node_count
    assert started == [True]

    # a link lowered onto a tie, with a lower sender than the predecessor
    # it ties with, takes over that predecessor: the ``<=`` sweeps it
    dist, _ = xr._trees(g, w, np.arange(g.node_count))
    gap = dist[:, g.receivers] - dist[:, g.senders]
    lower_sender = g.senders < g.senders[pred[:, g.receivers]]
    ties = np.argwhere((gap >= 1.0) & (gap < w) & lower_sender)
    assert ties.size
    s, j = ties[0]
    lowered = w.copy()
    lowered[j] = gap[s, j]
    assert xr._trees(g, lowered, np.array([s]))[1][0, g.receivers[j]] == j
    swept.clear()
    started.clear()
    assert np.array_equal(xr.link_loads(g, lowered, d), sweep_link_loads(*graph, lowered, d))
    reached = np.flatnonzero(dist[:, g.senders[j]] + lowered[j] <= dist[:, g.receivers[j]])
    assert len(swept) == 1 and np.array_equal(swept[0], reached) and s in reached
    assert started == [True]


def test_record_released_with_its_graph():
    g, w = triangle()
    xr.link_loads(g, w, np.ones(g.pair_count))
    record = weakref.ref(xr._records[g])
    del g
    gc.collect()
    assert record() is None


def test_threads_sharing_a_graph_get_serial_results():
    rng = np.random.default_rng(5)
    g = ring_with_chords(rng, 24, chords=19)
    d = rng.uniform(0.0, 10.0, g.pair_count)
    walks = []
    for _ in range(4):  # more threads than a 2-CPU runner has cores
        w = rng.integers(1, 21, g.edge_count).astype(np.float64)
        walk = []
        for k in rng.integers(g.edge_count, size=25):
            w[k] = rng.integers(1, 21)
            walk.append(w.copy())
        walks.append(walk)
    graph = (g.node_count, g.senders.tolist(), g.receivers.tolist())
    expected = [[sweep_link_loads(*graph, w, d) for w in walk] for walk in walks]
    results = [[] for _ in walks]

    def run(i):
        for w in walks[i]:
            results[i].append(xr.link_loads(g, w, d))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(walks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, expect in zip(results, expected):
        assert len(got) == len(expect)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))
