import numpy as np
import pytest

from routegrad import netgraph as ng

from oracles import accumulate_loads, enumerate_simple_paths


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



class TestPairEnumeration:
    def test_count_and_order(self):
        pairs = ng.ordered_pairs(3)
        assert pairs.shape == (6, 2)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]

    def test_pair_index_consistent(self):
        for n in (2, 3, 5):
            pairs = ng.ordered_pairs(n)
            for i, (u, v) in enumerate(pairs):
                assert ng.pair_index(n, int(u), int(v)) == i

    def test_same_endpoints_rejected(self):
        with pytest.raises(ng.GraphError):
            ng.pair_index(4, 2, 2)


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
    def test_zero_demand(self):
        g = triangle_directed()
        P = np.zeros((6, 6))
        rho = ng.utilization(g, P, np.zeros(6))
        assert np.all(rho == 0.0)

    def test_single_demand_routed_over_two_hops(self):
        g = triangle_directed()
        # weights [1,1,3,...]: shortest 0->2 goes 0->1->2
        P = np.zeros((6, 6))
        P[ng.pair_index(3, 0, 2), [0, 1]] = 1.0
        d = np.zeros(6)
        d[ng.pair_index(3, 0, 2)] = 0.5
        rho = ng.utilization(g, P, d)
        assert rho.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]

    def test_two_demands_accumulate(self):
        g = triangle_directed()
        P = np.zeros((6, 6))
        P[ng.pair_index(3, 0, 2), [0, 1]] = 1.0
        P[ng.pair_index(3, 0, 1), 0] = 1.0
        d = np.zeros(6)
        d[ng.pair_index(3, 0, 2)] = 0.5
        d[ng.pair_index(3, 0, 1)] = 0.3
        rho = ng.utilization(g, P, d)
        # oracle: per-path accumulation
        paths = [np.flatnonzero(P[i]) for i in range(6)]
        expect = accumulate_loads(6, paths, d) / g.capacities
        assert rho.tolist() == expect.tolist()
        assert rho.tolist() == [0.8, 0.5, 0.0, 0.0, 0.0, 0.0]

    def test_linearity_in_demands(self):
        g = triangle()
        rng = np.random.default_rng(3)
        P = (rng.random((6, 6)) < 0.4).astype(float)
        d1 = rng.random(6)
        d2 = rng.random(6)
        a, b = 0.7, 2.5
        lhs = ng.utilization(g, P, a * d1 + b * d2)
        rhs = a * ng.utilization(g, P, d1) + b * ng.utilization(g, P, d2)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_capacity_scaling(self):
        rng = np.random.default_rng(5)
        caps = rng.uniform(1.0, 4.0, 3)
        g1 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps)
        g2 = ng.Graph(3, receivers=[1, 2, 0], senders=[0, 1, 2], capacities=caps * 2.0)
        P = np.zeros((6, 3))
        P[ng.pair_index(3, 0, 1), 0] = 1.0
        d = rng.random(6)
        assert np.allclose(ng.utilization(g2, P, d), ng.utilization(g1, P, d) / 2.0)

    def test_dimension_mismatch(self):
        g = triangle_directed()
        with pytest.raises(ng.DimensionMismatchError):
            ng.utilization(g, np.zeros((5, 6)), np.zeros(6))
        with pytest.raises(ng.DimensionMismatchError):
            ng.utilization(g, np.zeros((6, 6)), np.zeros(5))


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
