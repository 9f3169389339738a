import gc
import weakref

import numpy as np
import pytest

from routegrad import diffcore as dc
from routegrad import exact_routing as xr
from routegrad import netgraph as ng
from routegrad import surrogate as sg

from oracles import (
    accumulate_loads,
    enumerate_simple_paths,
    first_duplicate_link,
    pair_index,
    strongly_connected,
    walked_routing_matrix,
)


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

    @pytest.mark.parametrize("cap", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_capacity_rejected(self, cap):
        # a NaN capacity would make the max utilization NaN, and an infinite
        # one would make the inverse-capacity default weights NaN
        links = [(0, 1, 1.0, False), (1, 2, cap, False), (0, 2, 1.0, False)]
        with pytest.raises(ng.NonPositiveCapacityError, match="finite and positive"):
            ng.build_graph(3, links)

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
        # truncating them would build another topology without an error,
        # and integral floats follow the same one rule as every index
        for n, receivers, senders in [
            (2, [1.7, 0.2], [0.9, 1.4]),
            (2.9, [1, 0], [0, 1]),
            (2, [1.0, np.nan], [0.0, 1.0]),
            (2, [1, 0], [0.0, np.inf]),
            (float("nan"), [1, 0], [0, 1]),
            (2.0, [1, 0], [0, 1]),
            (2, [1.0, 0.0], [0, 1]),
            (True, [], []),
        ]:
            with pytest.raises(ng.GraphError):
                ng.Graph(n, receivers, senders, [1.0] * len(receivers))
        g = ng.Graph(np.int32(2), [1, 0], np.array([0, 1], dtype=np.uint8), [1.0, 1.0])
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


    def test_checks_match_oracles_on_random_digraphs(self):
        # the vectorized duplicate and connectivity checks against the
        # set scan and the depth-first search they replaced
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            pairs = ng.ordered_pairs(n)
            links = pairs[rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]]
            for _ in range(rng.integers(0, 3) if len(links) else 0):  # repeat a link later on
                k = rng.integers(len(links))
                links = np.insert(links, rng.integers(k + 1, len(links) + 1), links[k], axis=0)
            senders, receivers = links.T
            m = len(links)
            duplicate = first_duplicate_link(senders.tolist(), receivers.tolist())
            connected = strongly_connected(n, senders.tolist(), receivers.tolist())
            if duplicate is not None:
                with pytest.raises(ng.DuplicateEdgeError, match=f"link {duplicate[0]}->{duplicate[1]}$"):
                    ng.Graph(n, receivers, senders, np.ones(m))
            elif not connected:
                with pytest.raises(ng.NotStronglyConnectedError):
                    ng.Graph(n, receivers, senders, np.ones(m))
            else:
                assert ng.Graph(n, receivers, senders, np.ones(m)).edge_count == m


# Every entry point that takes a node index applies the one rule of
# ``netgraph.node_indices``; each call below gives ``x`` where node 1 of
# ``triangle_directed`` belongs, or, for diffcore's row indices, where row
# or bucket 1 of three belongs.
def _graph_end(x):
    ng.Graph(3, [x, 2, 2, 0, 1, 0], [0, 1, 0, 1, 2, 2], np.ones(6))


def _build_graph_end(x):
    ng.build_graph(3, [(0, x, 1.0, False), (1, 2, 1.0, False), (0, 2, 1.0, False)])


def _source(x):
    xr.shortest_path_tree(triangle_directed(), np.ones(6), x)


def _query(x):
    sg.query_indicators(triangle_directed(), [(0, x)])


def _path_end(x):
    ng.validate_path_vector(triangle_directed(), np.eye(6)[0], 0, x)


def _gathered_row(x):
    dc.index_rows(dc.Tensor(np.ones((3, 2))), [0, x, 2])


def _summed_row(x):
    dc.segment_sum(dc.Tensor(np.ones((3, 2))), [0, x, 2], 3)


_MLP_PARAMS = [np.ones(s) for s in [(4, 2), (4,), (2, 4), (2,), (2,), (2,)]]


def _mlp_gathered_row(x):
    dc.mlp_ln([(dc.Tensor(np.ones((3, 2))), [0, x, 2])], *_MLP_PARAMS)


def _mlp_summed_row(x):
    dc.mlp_ln([(dc.Tensor(np.ones((3, 2))), [0, x, 2], 3)], *_MLP_PARAMS)


NODE_ENTRY_POINTS = [
    _graph_end, _build_graph_end, _source, _query, _path_end,
    _gathered_row, _summed_row, _mlp_gathered_row, _mlp_summed_row,
]


@pytest.mark.parametrize("entry", NODE_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize(
    "x",
    [True, np.True_, 1.0, np.float64(1.0), 0.5, -1, 3, 2**70],
    ids=["bool", "np_bool", "float", "np_float64", "half", "negative", "n", "past_int64"],
)
def test_every_entry_point_rejects_the_same_indices(entry, x):
    with pytest.raises(ng.GraphError):
        entry(x)


@pytest.mark.parametrize("entry", NODE_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("x", [1, np.int32(1), np.uint8(1)], ids=["int", "np_int32", "np_uint8"])
def test_every_entry_point_accepts_integer_indices(entry, x):
    entry(x)


@pytest.mark.parametrize(
    "values",
    [
        [0, [1]], [[0, 1], [2]], [np.zeros((2, 2), int), np.zeros((2, 3), int)], ["1"], None,
        np.array([True, False]), np.array([1.0]), np.array([2**64 - 1], dtype=np.uint64),
    ],
    ids=["ragged", "ragged_rows", "unequal_arrays", "string", "none", "bool_array", "float_array", "uint64_past_int64"],
)
def test_node_indices_rejects_non_indices(values):
    with pytest.raises(ng.GraphError):
        ng.node_indices(values, 3, "nodes")


def test_node_indices_returns_a_private_int64_copy():
    values = np.array([[2, 0], [1, 2]], dtype=np.int32)
    out = ng.node_indices(values, 3, "nodes")
    assert out.dtype == np.int64 and out.tolist() == values.tolist()
    values[0, 0] = 0
    assert out[0, 0] == 2
    assert ng.node_indices(np.int64(2), 3, "node").shape == ()
    for empty in ([], np.zeros(0, dtype=object)):
        out = ng.node_indices(empty, 3, "nodes")
        assert out.dtype == np.int64 and out.shape == (0,)


# Every real-valued input applies the one rule of ``netgraph.real_values``;
# each call below gives ``x`` as one entry of that input, where 1.0 is a
# valid value, on ``triangle_directed`` where the input is over a graph.
def _capacity(x):
    ng.Graph(3, [1, 2, 2, 0, 1, 0], [0, 1, 0, 1, 2, 2], [x, 1, 1, 1, 1, 1])


def _weight(x):
    ng.validate_weights(triangle_directed(), [x, 1, 1, 1, 1, 1])


def _demand(x):
    ng.validate_demands(triangle_directed(), [x, 0, 0, 0, 0, 0])


def _floored_weight(x):
    ng.floor_weights([x, 1.0])


def _path_entry(x):
    # edge 0 is the link 0->1
    ng.validate_path_vector(triangle_directed(), [x, 0, 0, 0, 0, 0], 0, 1)


def _loads_demand(x):
    # the first call stores its demands, which a bool or complex entry
    # would equal
    g = triangle_directed()
    xr.link_loads(g, np.ones(6), np.eye(6)[0])
    xr.link_loads(g, np.ones(6), [x, 0, 0, 0, 0, 0])


_TINY_MODEL = sg.GnnModel.initialize(sg.GnnConfig(hidden=2, rounds=1), seed=0)


def _indicator(x):
    sg.forward(triangle_directed(), np.ones(6), [[[x, 0], [0, 1], [0, 0]]], _TINY_MODEL)


def _tensor_entry(x):
    dc.Tensor([x, 1.0])


def _label(x):
    dc.binary_cross_entropy(dc.Tensor([0.5, 0.5]), [x, 0.0])


def _checkpoint_data(x):
    doc = {
        "format": sg.CHECKPOINT_FORMAT, "version": sg.CHECKPOINT_VERSION,
        "node_feature_width": sg.NODE_FEATURES, "edge_feature_width": sg.EDGE_FEATURES,
        "hidden": 2, "rounds": 1, "share_processor": False,
        "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()} for k, v in _TINY_MODEL.params.items()},
    }
    doc["params"]["dec_l2_b"]["data"] = [x]
    # the one check of a document, behind both save_checkpoint and
    # load_checkpoint; JSON cannot carry a numpy scalar or a complex number
    sg._model_from_document(doc)


REAL_ENTRY_POINTS = [
    _capacity, _weight, _demand, _floored_weight, _path_entry, _loads_demand,
    _indicator, _tensor_entry, _label, _checkpoint_data,
]


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize(
    "x",
    [True, np.True_, "1.5", 1 + 0j, np.complex128(1), None, [1.0], 10**400],
    ids=["bool", "np_bool", "string", "complex", "np_complex128", "none", "ragged", "past_float"],
)
def test_every_entry_point_rejects_the_same_non_reals(entry, x):
    with pytest.raises(sg.CheckpointError if entry is _checkpoint_data else ng.GraphError):
        entry(x)


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("x", [1, np.int32(1), np.float32(1.0)], ids=["int", "np_int32", "np_float32"])
def test_every_entry_point_accepts_real_numbers(entry, x):
    entry(x)


@pytest.mark.parametrize(
    "values",
    [
        np.array([True]), np.array([1 + 0j]), np.array(["1"]), np.array([1.0, None], dtype=object),
        [[1.0], [1.0, 2.0]], [np.zeros((2, 2)), np.zeros((2, 3))], [10**400],
    ],
    ids=["bool_array", "complex_array", "string_array", "object_none", "ragged_rows", "unequal_arrays", "past_float"],
)
def test_real_values_rejects_non_reals(values):
    with pytest.raises(ng.GraphError):
        ng.real_values(values, "values")


def test_real_values_checks_the_shape():
    assert ng.real_values([[1, 2]], "values", (1, 2)).shape == (1, 2)
    with pytest.raises(ng.DimensionMismatchError, match=r"values has shape \(2,\), expected \(3,\)"):
        ng.real_values([1.0, 2.0], "values", (3,))


def test_real_values_returns_a_float64_array_as_it_is():
    # validate_weights returns a view of the caller's weights, and
    # GnnModel.tensors aliases the stored parameters, through this
    values = np.array([[1.0, 2.0]])
    assert ng.real_values(values, "values") is values
    out = ng.real_values(np.array([1, 2], dtype=np.int32), "values")
    assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
    assert ng.real_values(np.float32(0.5), "value").dtype == np.float64


# Every size applies the one rule of ``netgraph.positive_integer``; each
# entry names the size its errors name, and its call gives ``x`` as that
# size and returns the size stored.
SIZE_ENTRY_POINTS = {
    "node_count": ("node_count", lambda x: ng.Graph(x, [], [], []).node_count),
    "hidden": ("hidden", lambda x: sg.GnnConfig(hidden=x).hidden),
    "rounds": ("rounds", lambda x: sg.GnnConfig(rounds=x).rounds),
    # one node has no pair
    "ordered_pairs": ("node_count", lambda x: len(ng.ordered_pairs(x)) + 1),
}


@pytest.mark.parametrize("entry", SIZE_ENTRY_POINTS)
@pytest.mark.parametrize(
    "x",
    [0, -2, True, np.True_, 1.0, np.float64(1.0), "1", None],
    ids=["zero", "negative", "bool", "np_bool", "float", "np_float64", "string", "none"],
)
def test_every_size_rejects_the_same_values(entry, x):
    size, call = SIZE_ENTRY_POINTS[entry]
    with pytest.raises(ng.GraphError, match=f"{size} must be an integer >= 1"):
        call(x)


@pytest.mark.parametrize("entry", SIZE_ENTRY_POINTS)
@pytest.mark.parametrize("x", [1, np.int64(1), np.uint8(1)], ids=["int", "np_int64", "np_uint8"])
def test_every_size_stores_an_int(entry, x):
    out = SIZE_ENTRY_POINTS[entry][1](x)
    assert out == 1 and type(out) is int


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


class TestFloorWeights:
    def test_projects_onto_the_domain(self):
        assert ng.floor_weights([0.0, 1.0, 2 * ng.W_MAX, -np.inf, np.inf]).tolist() == [
            ng.W_MIN, 1.0, ng.W_MAX, ng.W_MIN, ng.W_MAX
        ]

    def test_nan_rejected(self):
        # NaN has no nearest point in [W_MIN, W_MAX]; clipping passes it through
        with pytest.raises(ng.GraphError):
            ng.floor_weights([np.nan, 0.0])


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
