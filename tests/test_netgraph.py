import gc
import weakref

import numpy as np
import pytest

from routegrad import exact_routing as xr
from routegrad import netgraph as ng
from routegrad import surrogate as sg

from oracles import accumulate_loads, enumerate_simple_paths, pair_index, walked_routing_matrix


def triangle():
    # directed edges 0->1, 1->2, 0->2
    return ng.build_graph(3, [(0, 1, 1.0, False), (1, 2, 1.0, False), (0, 2, 1.0, False)])


def triangle_directed():
    # forward edges 0->1, 1->2, 0->2 first; return edges keep the graph
    # strongly connected without entering any forward shortest path
    return ng.Graph(
        3,
        receivers=[1, 2, 2, 0, 1, 0],
        senders=[0, 1, 0, 1, 2, 2],
        capacities=np.ones(6),
    )


class TestBuildGraph:
    def test_undirected_links_expand(self):
        g = triangle()
        assert g.edge_count == 6
        assert np.all(g.capacities == 1.0)

    def test_directed_passthrough(self):
        g = ng.build_graph(3, [(0, 1, 1.0, True), (1, 2, 1.0, True), (2, 0, 1.0, True)])
        assert g.edge_count == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ng.NotStronglyConnectedError):
            ng.build_graph(2, [])

    def test_one_way_pair_rejected(self):
        with pytest.raises(ng.NotStronglyConnectedError):
            ng.build_graph(2, [(0, 1, 1.0, True)])

    def test_self_loop_rejected(self):
        with pytest.raises(ng.SelfLoopError):
            ng.build_graph(2, [(0, 0, 1.0, True), (0, 1, 1.0, False)])

    def test_duplicate_rejected(self):
        with pytest.raises(ng.DuplicateEdgeError):
            ng.build_graph(2, [(0, 1, 1.0, False), (0, 1, 2.0, True)])

    def test_bad_capacity_rejected(self):
        with pytest.raises(ng.NonPositiveCapacityError):
            ng.build_graph(2, [(0, 1, 0.0, False)])

    def test_caller_arrays_stay_writeable_and_apart(self):
        base = np.array([1.0, 2.0])
        receivers, senders = np.array([1, 0]), np.array([0, 1])
        g = ng.Graph(2, receivers, senders, base[:])
        for arr in (base, receivers, senders):
            assert arr.flags.writeable
        base[0], receivers[0], senders[0] = -5.0, 0, 0
        assert g.capacities.tolist() == [1.0, 2.0]
        assert g.receivers.tolist() == [1, 0] and g.senders.tolist() == [0, 1]

    def test_fractional_indices_rejected(self):
        # truncating them would build another topology without an error
        for n, receivers, senders in [
            (2, [1.7, 0.2], [0.9, 1.4]),
            (2.9, [1, 0], [0, 1]),
            (2, [1.0, np.nan], [0.0, 1.0]),
            (2, [1, 0], [0.0, np.inf]),
            (float("nan"), [1, 0], [0, 1]),
        ]:
            with pytest.raises(ng.GraphError):
                ng.Graph(n, receivers, senders, [1.0, 1.0])
        g = ng.Graph(2.0, [1.0, 0.0], np.array([0, 1], dtype=np.uint8), [1.0, 1.0])
        assert g.node_count == 2 and type(g.node_count) is int
        assert g.receivers.tolist() == [1, 0] and g.senders.dtype == np.int64

    def test_equality_and_hash_are_identity(self):
        # field-wise, numpy's array comparison made == and hash() raise
        g = ng.build_graph(2, [(0, 1, 1.0, False)])
        twin = ng.build_graph(2, [(0, 1, 1.0, False)])
        assert g == g and g != twin
        assert {g: 1}[g] == 1 and twin not in {g: 1}
        ref = weakref.ref(g)
        assert ref() is g
        del g
        gc.collect()
        assert ref() is None


class TestPairEnumeration:
    def test_count_and_order(self):
        pairs = ng.ordered_pairs(3)
        assert pairs.shape == (6, 2)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]

    def test_pair_index_consistent(self):
        for n in (1, 2, 3, 5, 50):
            pairs = ng.ordered_pairs(n)
            assert pairs.shape == (n * (n - 1), 2) and pairs.dtype == np.int64
            for i, (u, v) in enumerate(pairs.tolist()):
                assert pair_index(n, u, v) == i

    # query_indicators is the one library entry point that takes an ordered pair
    def test_same_endpoints_rejected(self):
        with pytest.raises(ng.GraphError):
            sg.query_indicators(triangle(), [(2, 2)])

    @pytest.mark.parametrize("u, v", [(5, 0), (0, 7), (-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_endpoint_outside_nodes_rejected(self, u, v):
        # unchecked, -1 would wrap to the last node and 5 index past it
        with pytest.raises(ng.GraphError):
            sg.query_indicators(triangle(), [(u, v)])


class TestDefaultWeights:
    def test_uniform_capacity(self):
        g = triangle_directed()
        assert ng.default_ospf_weights(g).tolist() == [1.0] * 6

    def test_two_capacities(self):
        g = ng.Graph(2, receivers=[1, 0], senders=[0, 1], capacities=[1.0, 2.0])
        # oracle: w = max(c)/c by hand
        assert ng.default_ospf_weights(g).tolist() == [2.0, 1.0]

    def test_three_capacities(self):
        g = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=[4.0, 2.0, 1.0])
        assert ng.default_ospf_weights(g).tolist() == [1.0, 2.0, 4.0]

    def test_invariant_to_uniform_scaling(self):
        rng = np.random.default_rng(7)
        caps = rng.uniform(1.0, 10.0, 3)
        g1 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps)
        g2 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps * 3.5)
        assert np.allclose(ng.default_ospf_weights(g1), ng.default_ospf_weights(g2))


class TestUtilization:
    """Exact link utilization, ``link_loads / capacities``, on hand-routed cases."""

    # forward weights 1, 1, 3: the shortest 0->2 path is 0->1->2
    WEIGHTS = np.array([1.0, 1.0, 3.0, 1.0, 1.0, 1.0])

    def test_zero_demand(self):
        g = triangle_directed()
        assert np.all(xr.link_loads(g, self.WEIGHTS, np.zeros(6)) == 0.0)
        assert xr.exact_max_utilization(g, self.WEIGHTS, np.zeros(6)) == 0.0

    def test_single_demand_routed_over_two_hops(self):
        g = triangle_directed()
        d = np.zeros(6)
        d[pair_index(3, 0, 2)] = 0.5
        rho = xr.link_loads(g, self.WEIGHTS, d) / g.capacities
        assert rho.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
        assert xr.exact_max_utilization(g, self.WEIGHTS, d) == 0.5

    def test_two_demands_accumulate(self):
        g = triangle_directed()
        d = np.zeros(6)
        d[pair_index(3, 0, 2)] = 0.5
        d[pair_index(3, 0, 1)] = 0.3
        rho = xr.link_loads(g, self.WEIGHTS, d) / g.capacities
        # oracle: per-path accumulation along independently walked paths
        P = walked_routing_matrix(3, g.senders.tolist(), g.receivers.tolist(), self.WEIGHTS)
        expect = accumulate_loads(6, [np.flatnonzero(row) for row in P], d) / g.capacities
        assert rho.tolist() == expect.tolist()
        assert rho.tolist() == [0.8, 0.5, 0.0, 0.0, 0.0, 0.0]

    def test_linearity_in_demands(self):
        g = triangle()
        rng = np.random.default_rng(3)
        w = rng.uniform(1.0, 20.0, 6)
        d1 = rng.random(6)
        d2 = rng.random(6)
        a, b = 0.7, 2.5
        lhs = xr.link_loads(g, w, a * d1 + b * d2)
        rhs = a * xr.link_loads(g, w, d1) + b * xr.link_loads(g, w, d2)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_capacity_scaling(self):
        rng = np.random.default_rng(5)
        caps = rng.uniform(1.0, 4.0, 3)
        g1 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps)
        g2 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps * 2.0)
        w = np.ones(3)
        d = rng.random(6)
        rho1 = xr.link_loads(g1, w, d) / g1.capacities
        assert np.allclose(xr.link_loads(g2, w, d) / g2.capacities, rho1 / 2.0)
        assert np.isclose(xr.exact_max_utilization(g2, w, d), rho1.max() / 2.0)

    def test_dimension_mismatch(self):
        g = triangle_directed()
        with pytest.raises(ng.DimensionMismatchError):
            xr.link_loads(g, self.WEIGHTS[:5], np.zeros(6))
        with pytest.raises(ng.DimensionMismatchError):
            xr.link_loads(g, self.WEIGHTS, np.zeros(5))
        with pytest.raises(ng.DimensionMismatchError):
            xr.exact_max_utilization(g, self.WEIGHTS, np.zeros(7))


class TestPathVectorValidation:
    def test_valid_path_accepted(self):
        g = triangle_directed()
        p = np.zeros(6)
        p[[0, 1]] = 1.0
        ng.validate_path_vector(g, p, 0, 2)

    def test_disconnected_marks_rejected(self):
        g = triangle()
        p = np.zeros(6)
        p[0] = 1.0
        p[3] = 1.0
        with pytest.raises(ng.GraphError):
            ng.validate_path_vector(g, p, 0, 2)

    def test_wrong_endpoint_rejected(self):
        g = triangle_directed()
        p = np.zeros(6)
        p[0] = 1.0
        with pytest.raises(ng.GraphError):
            ng.validate_path_vector(g, p, 0, 2)


@pytest.mark.parametrize(
    "vector,bad",
    [
        ("weights", 0.5 * ng.W_MIN),
        ("weights", np.nan),
        ("weights", np.inf),
        ("weights", 2.0 * ng.W_MAX),
        ("demands", -1.0),
        ("demands", np.nan),
        ("demands", np.inf),
    ],
)
def test_out_of_domain_entry_rejected(vector, bad):
    # a NaN weight is never relaxed by Dijkstra, so it must not pass as a
    # removed link; a NaN demand would turn every load it reaches into NaN
    g = triangle()
    values = np.ones(g.edge_count if vector == "weights" else g.pair_count)
    values[1] = bad
    validate = ng.validate_weights if vector == "weights" else ng.validate_demands
    with pytest.raises(ng.GraphError):
        validate(g, values)


def test_enumeration_oracle_sees_triangle_paths():
    g = triangle_directed()
    paths = enumerate_simple_paths(3, g.senders.tolist(), g.receivers.tolist(), 0, 2)
    assert [0, 1] in paths and [2] in paths
