import contextlib
import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from routegrad import diffcore as dc
from routegrad import exact_routing as er
from routegrad import netgraph as ng
from routegrad import surrogate as sg

from oracles import finite_difference_check, reference_forward


@pytest.fixture
def small_model():
    return sg.GnnModel.initialize(sg.GnnConfig(hidden=8, rounds=3), seed=5)


@pytest.fixture
def small_graph():
    rng = np.random.default_rng(2)
    links = [(i, (i + 1) % 5, 1.0, False) for i in range(5)] + [(0, 2, 1.0, False)]
    g = ng.build_graph(5, links)
    w = rng.uniform(0.2, 1.8, g.edge_count)
    return g, w


class TestQueryIndicators:
    def test_swapping_endpoints_moves_two_rows(self, small_graph):
        g, _ = small_graph
        a = sg.query_indicators(g, [(1, 3)])[0]
        b = sg.query_indicators(g, [(3, 1)])[0]
        changed = np.flatnonzero(np.any(a != b, axis=1))
        assert changed.tolist() == [1, 3]
        assert a[1].tolist() == [1.0, 0.0] and a[3].tolist() == [0.0, 1.0]

    def test_same_endpoints_rejected(self, small_graph):
        g, _ = small_graph
        for query in [(2, 2), (-1, 3), (7, 3), (3, 5)]:  # -1 must not wrap to node 4
            with pytest.raises(ng.GraphError):
                sg.query_indicators(g, [query])

    @pytest.mark.parametrize(
        "queries",
        [[(0.5, 1)], [(np.float64(1.0), 2)], [(True, 2)], np.array([[True, False]]), np.array([[0.0, 1.0]]),
         [(2**70, 1)], [(0, 1, 2)], [(0, 1), (2,)]],
        ids=["half", "integral_float", "bool", "bool_array", "float_array", "past_int64", "triple", "ragged"],
    )
    def test_non_integer_endpoints_rejected(self, small_graph, queries):
        # a bool would otherwise be read as node 0 or 1, and a float raise
        # numpy's IndexError
        g, _ = small_graph
        with pytest.raises(ng.GraphError):
            sg.query_indicators(g, queries)

    def test_matches_per_query_loop(self, small_graph):
        g, _ = small_graph
        pairs = ng.ordered_pairs(g.node_count)
        expect = np.zeros((len(pairs), g.node_count, 2))
        for row, (u, v) in enumerate(pairs):
            expect[row, u, 0] = expect[row, v, 1] = 1.0
        for queries in [pairs, pairs.astype(np.int32), [tuple(int(x) for x in q) for q in pairs], list(pairs)]:
            assert np.array_equal(sg.query_indicators(g, queries), expect)
        assert sg.query_indicators(g, []).shape == (0, g.node_count, 2)


def offset_model(config, seed):
    """A fresh model whose biases are moved off zero.

    With zero biases, the first ReLU of the node encoder sits exactly on
    its kink for every node that is neither endpoint, where a one-sided
    derivative and a central difference disagree.
    """
    model = sg.GnnModel.initialize(config, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, arr in model.params.items():
        if name.endswith("_b") or name.endswith("_ln_bias"):
            arr += rng.normal(0.0, 0.5, arr.shape)
    return model


class TestForwardInput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda ind: np.zeros((1, 6, 2)),
            lambda ind: ind[:, :3],
            lambda ind: ind[0],
            lambda ind: np.where(ind == 1.0, np.nan, ind),
        ],
        ids=["too_many_nodes", "too_few_nodes", "no_query_axis", "nan"],
    )
    def test_malformed_indicators_rejected(self, small_model, make):
        g = ng.build_graph(4, [(i, (i + 1) % 4, 1.0, False) for i in range(4)])
        ind = sg.query_indicators(g, [(0, 2)])
        with pytest.raises(ng.GraphError):
            sg.forward(g, np.ones(g.edge_count), make(ind), small_model)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, 0.0, -1.0, 2 * ng.W_MAX], ids=["nan", "inf", "zero", "negative", "above_max"]
    )
    @pytest.mark.parametrize("as_tensor", [False, True], ids=["array", "tensor"])
    def test_weight_outside_range_rejected(self, small_model, bad, as_tensor):
        # the range netgraph.validate_weights accepts; a NaN or an infinite
        # weight would otherwise turn every output NaN
        g = ng.build_graph(4, [(i, (i + 1) % 4, 1.0, False) for i in range(4)])
        w = np.ones(g.edge_count)
        w[3] = bad
        ind = sg.query_indicators(g, [(0, 2)])
        with pytest.raises(ng.GraphError):
            sg.forward(g, dc.Tensor(w, requires_grad=True) if as_tensor else w, ind, small_model)


class TestReferenceForward:
    @pytest.mark.parametrize("share", [False, True])
    def test_matches_concatenating_oracle(self, small_graph, share):
        # the edge block projects before it gathers and aggregates by a
        # one-hot product; the oracle concatenates and loops over links
        config = sg.GnnConfig(hidden=8, rounds=3, share_processor=share)
        model = offset_model(config, seed=6)
        g, w = small_graph
        ind = sg.query_indicators(g, ng.ordered_pairs(g.node_count))
        final, steps = sg.forward(g, w, ind, model, per_step=True)
        ref_final, ref_steps = reference_forward(
            model.params, config.rounds, share, g.senders, g.receivers, w, ind
        )
        assert np.max(np.abs(final.data - ref_final)) <= 1e-12
        assert len(steps) == len(ref_steps) == config.rounds
        for step, ref in zip(steps, ref_steps):
            assert np.max(np.abs(step.data - ref)) <= 1e-12


class TestParameterGradient:
    @pytest.mark.parametrize("share", [False, True])
    def test_every_reached_parameter_matches_fd(self, small_graph, share):
        # the training loss of every round, as the trainer descends it
        config = sg.GnnConfig(hidden=4, rounds=2, share_processor=share)
        model = offset_model(config, seed=8)
        g, w = small_graph
        ind = sg.query_indicators(g, [(0, 3), (4, 1), (2, 0)])
        labels = (np.random.default_rng(9).random((3, g.edge_count)) < 0.4).astype(float)
        for name in sorted(model.params):

            def loss(p, name=name):
                mt = model.tensors()
                mt[name] = p
                _, steps = sg.forward(g, w, ind, model, per_step=True, model_tensors=mt)
                total = dc.binary_cross_entropy(steps[0], labels)
                for s in steps[1:]:
                    total = dc.add(total, dc.binary_cross_entropy(s, labels))
                return total

            err = finite_difference_check(loss, model.params[name])
            assert err < 1e-4, f"{name}: rel err {err}"


def single_query(model, g, w, u, v, **kwargs):
    """``forward`` on the one query (u, v)."""
    return sg.forward(g, w, sg.query_indicators(g, [(u, v)]), model, **kwargs)


def hop_oracle(g, seeds, rounds):
    """Links whose output can depend on the features of the ``seeds`` nodes.

    Each round updates a link from its own, its sender's and its
    receiver's latents, then a node from its incoming links; the final
    round's node update is skipped.
    """
    nodes, links = set(seeds), set()
    for _ in range(rounds):
        for k, (s, r) in enumerate(zip(g.senders.tolist(), g.receivers.tolist())):
            if s in nodes or r in nodes:
                links.add(k)
        nodes |= {int(g.receivers[k]) for k in links}
    return links


class TestProcessStep:
    def test_aggregation_invariant_to_edge_order(self, small_graph):
        # one round of message passing: listing the links in another order
        # permutes the per-link outputs and nothing else
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=8, rounds=1), seed=5)
        g, w = small_graph
        perm = np.random.default_rng(0).permutation(g.edge_count)
        g2 = ng.Graph(
            g.node_count,
            receivers=g.receivers[perm],
            senders=g.senders[perm],
            capacities=g.capacities[perm],
        )
        p1, _ = single_query(model, g, w, 0, 3)
        p2, _ = single_query(model, g2, w[perm], 0, 3)
        assert np.allclose(p1.data[:, perm], p2.data, rtol=0.0, atol=1e-12)


class TestDecode:
    def test_edge_permutation_equivariance(self, small_model, small_graph):
        # the decoder reads each link's latent alone
        g, _ = small_graph
        hidden = small_model.config.hidden
        edges = np.random.default_rng(1).standard_normal((2, g.edge_count, hidden))
        perm = np.random.default_rng(1).permutation(g.edge_count)
        mt = small_model.tensors()
        probs = sg._decode(dc.Tensor(edges), mt)
        permuted = sg._decode(dc.Tensor(np.ascontiguousarray(edges[:, perm])), mt)
        assert probs.shape == (2, g.edge_count)
        assert np.array_equal(permuted.data, probs.data[:, perm])


class TestPredictPath:
    """One query through :func:`forward`."""

    def test_untrained_outputs_valid(self, small_model, small_graph):
        g, w = small_graph
        probs, steps = single_query(small_model, g, w, 0, 3, per_step=True)
        assert probs.shape == (1, g.edge_count)
        assert np.all(np.isfinite(probs.data))
        assert np.all((probs.data > 0.0) & (probs.data < 1.0))
        assert len(steps) == small_model.config.rounds

    def test_final_step_equals_probs(self, small_model, small_graph):
        # per_step returns T outputs, the last one being ``final``, and a
        # repeated call reproduces every one of them bit for bit
        g, w = small_graph
        probs, steps = single_query(small_model, g, w, 2, 0, per_step=True)
        again, steps_again = single_query(small_model, g, w, 2, 0, per_step=True)
        assert len(steps) == small_model.config.rounds
        assert np.array_equal(probs.data, steps[-1].data)
        assert np.array_equal(probs.data, again.data)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(steps, steps_again))
        final_only, no_steps = single_query(small_model, g, w, 2, 0)
        assert no_steps == [] and np.array_equal(final_only.data, probs.data)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_information_moves_one_hop_per_round(self, rounds):
        # moving the destination from node 5 to node 6 changes exactly the
        # links the hop oracle reaches from {5, 6}; the ring is one-way so
        # that aggregating at senders instead of receivers would show, and
        # w is left alone because a fresh model is nearly invariant to its
        # scale
        n = 10
        g = ng.build_graph(n, [(i, (i + 1) % n, 1.0, True) for i in range(n)])
        w = np.random.default_rng(3).uniform(0.5, 2.0, g.edge_count)
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=8, rounds=rounds), seed=4)
        a, _ = single_query(model, g, w, 0, 5)
        b, _ = single_query(model, g, w, 0, 6)
        changed = set(np.flatnonzero(a.data[0] != b.data[0]).tolist())
        assert changed == hop_oracle(g, {5, 6}, rounds)
        assert len(changed) < g.edge_count


def soft_mlu(g, d, P):
    """The descent objective: soft maximum of the utilization d·P / c."""
    rho = dc.reshape(dc.matmul(dc.Tensor(d.reshape(1, -1)), P), (g.edge_count,))
    return dc.soft_maximum(dc.div(rho, dc.Tensor(g.capacities)), 0.1)


def chorded_ring():
    """Ten nodes, a bidirectional ring and three chords: 26 links, 90 pairs."""
    n = 10
    links = [(i, (i + 1) % n, 1.0, False) for i in range(n)]
    links += [(0, 5, 1.0, False), (2, 7, 1.0, False), (3, 9, 1.0, False)]
    return ng.build_graph(n, links)


def counted_chunks(monkeypatch):
    """The list the row count of every chunk body call is appended to, in
    the order the pool starts them."""
    rows, body = [], sg._forward_chunk

    def counted(g, edges, indicators, *args):
        rows.append(len(indicators))
        return body(g, edges, indicators, *args)

    monkeypatch.setattr(sg, "_forward_chunk", counted)
    return rows


def force_chunks(monkeypatch, g, model, queries):
    """Shrinks the latent blocks so forward walks chunks of at most
    ``queries`` queries, and returns :func:`counted_chunks`' list."""
    monkeypatch.setattr(sg, "QUERY_BLOCK_BYTES", queries * g.edge_count * model.config.hidden * 8)
    return counted_chunks(monkeypatch)


@contextlib.contextmanager
def one_chunk():
    """Every forward in the block, and its pullback, runs as one chunk."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sg, "QUERY_BLOCK_BYTES", 2**62)
        yield


@contextlib.contextmanager
def pool_of(workers):
    """A pool of exactly ``workers`` threads, whatever the host's CPU count,
    started before the block and shut down after it."""
    pool = ThreadPoolExecutor(workers, initializer=dc._mark_pool_thread)
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dc, "POOL_WORKERS", workers)
            m.setattr(dc, "_pool", pool)
            yield
    finally:
        pool.shutdown()


def training_batch(g, rng):
    """Random weights, and 32 distinct queries with their Dijkstra labels."""
    w = rng.uniform(0.5, 2.0, g.edge_count)
    rows = rng.choice(g.pair_count, 32, replace=False)
    ind = sg.query_indicators(g, ng.ordered_pairs(g.node_count)[rows])
    return w, ind, er.routing_matrix(g, w)[rows]


def training_gradient(g, w, ind, labels, model):
    """Per-round outputs, loss and every parameter gradient of a training step."""
    mt = model.tensors(requires_grad=True)
    with dc.Tape() as tape:
        _, steps = sg.forward(g, w, ind, model, per_step=True, model_tensors=mt)
        loss = dc.binary_cross_entropy(steps[0], labels)
        for s in steps[1:]:
            loss = dc.add(loss, dc.binary_cross_entropy(s, labels))
        grads = tape.gradient(loss, list(mt.values()))
    return [s.data for s in steps], loss.item(), grads


class TestPredictAllPairs:
    def test_row_count(self, small_model, small_graph):
        g, w = small_graph
        P = sg.predict_all_pairs(small_model, g, w)
        assert P.shape == (g.pair_count, g.edge_count)
        assert np.all((P.data > 0.0) & (P.data < 1.0))

    def test_single_node_graph_has_no_rows(self, small_model):
        # no links and no pairs: the latent block of a query has zero bytes
        g = ng.build_graph(1, [])
        assert sg.predict_all_pairs(small_model, g, np.ones(0)).shape == (0, 0)

    def test_batched_equals_sequential(self, small_model, small_graph):
        g, w = small_graph
        P = sg.predict_all_pairs(small_model, g, w)
        for i, (u, v) in enumerate(ng.ordered_pairs(g.node_count)):
            probs, _ = single_query(small_model, g, w, int(u), int(v))
            assert np.allclose(P.data[i], probs.data[0], atol=1e-12)

    def test_gradient_wrt_weights_matches_fd(self, small_graph):
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=6, rounds=2), seed=3)
        g, w = small_graph
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 1.0, g.pair_count)

        err = finite_difference_check(lambda wt: soft_mlu(g, d, sg.predict_all_pairs(model, g, wt)), w)
        assert err < 1e-3

    def test_chunks_equal_one_forward(self, small_model, small_graph, monkeypatch):
        # every row is computed as one batched forward computes it
        g, w = small_graph
        with one_chunk():
            one = sg.forward(g, w, sg.query_indicators(g, ng.ordered_pairs(g.node_count)), small_model)[0]
        rows = force_chunks(monkeypatch, g, small_model, 3)
        P = sg.predict_all_pairs(small_model, g, w)
        assert len(rows) >= 3 and len(set(rows)) > 1 and sum(rows) == g.pair_count
        assert np.array_equal(P.data, one.data)

    def test_chunked_gradient_equals_one_batch(self, small_graph, monkeypatch):
        # the chunks' weight gradients are summed on the tape, in another
        # order than the one batch sums them over queries
        model = offset_model(sg.GnnConfig(hidden=6, rounds=2), seed=3)
        g, w = small_graph
        d = np.random.default_rng(4).uniform(0.0, 1.0, g.pair_count)

        def gradient():
            wt = dc.Tensor(w, requires_grad=True)
            with dc.Tape() as tape:
                return tape.gradient(soft_mlu(g, d, sg.predict_all_pairs(model, g, wt)), wt)

        with one_chunk():
            one = gradient()
        rows = force_chunks(monkeypatch, g, model, 3)
        chunked = gradient()
        assert len(rows) >= 3 and len(set(rows)) > 1
        assert np.max(np.abs(chunked - one)) <= 1e-9 * np.max(np.abs(one))

    def test_chunked_gradient_matches_fd(self, small_graph, monkeypatch):
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=6, rounds=2), seed=3)
        g, w = small_graph
        d = np.random.default_rng(4).uniform(0.0, 1.0, g.pair_count)
        rows = force_chunks(monkeypatch, g, model, 3)
        err = finite_difference_check(lambda wt: soft_mlu(g, d, sg.predict_all_pairs(model, g, wt)), w)
        assert len(rows) >= 3 and len(set(rows)) > 1
        assert err < 1e-3

    def test_transient_memory_stays_within_chunk_blocks(self, monkeypatch):
        # beyond what the tape retains, forward and backward hold a few
        # latent blocks of the chunks in flight at a time (about 5 blocks of
        # 8 queries here), not of the whole batch of 90 pairs; two workers
        # pull back two chunks of 4 at once
        g = chorded_ring()
        config = sg.GnnConfig(hidden=32, rounds=3)
        model = sg.GnnModel.initialize(config, seed=1)
        w = dc.Tensor(np.random.default_rng(6).uniform(0.5, 2.0, g.edge_count), requires_grad=True)
        chunk = 8
        bound = 8 * chunk * g.edge_count * config.hidden * 8

        with pool_of(2):
            rows = force_chunks(monkeypatch, g, model, chunk // 2)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                with dc.Tape() as tape:
                    P = sg.predict_all_pairs(model, g, w)
                    objective = dc.soft_maximum(dc.matmul(np.ones((1, P.shape[0])), P), 1.0)
                    retained = tracemalloc.get_traced_memory()[0] - start
                    tape.gradient(objective, w)
                transient = tracemalloc.get_traced_memory()[1] - start - retained
            finally:
                tracemalloc.stop()
        assert transient <= bound, f"transient peak is {transient / bound:.2f} of the bound"
        assert len(rows) >= 3 and max(rows) == chunk // 2

    def test_train_step_frees_its_tape_as_it_unwinds(self, monkeypatch):
        # each op drops what it saved once its backward has run, so beyond
        # what the forward retained, the backward of a training step on
        # two workers holds the parameter gradients in flight and a few
        # latent blocks; a tape that kept every op to the end peaks at
        # about 4.3 parameter sets here
        g = chorded_ring()
        config = sg.GnnConfig(hidden=32, rounds=3)
        model = sg.GnnModel.initialize(config, seed=1)
        w, ind, labels = training_batch(g, np.random.default_rng(6))
        chunk = 4
        params = sum(a.nbytes for a in model.params.values())
        bound = 2 * params + 8 * chunk * g.edge_count * config.hidden * 8

        with pool_of(2):
            rows = force_chunks(monkeypatch, g, model, chunk)
            mt = model.tensors(requires_grad=True)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                with dc.Tape() as tape:
                    _, steps = sg.forward(g, w, ind, model, per_step=True, model_tensors=mt)
                    loss = dc.binary_cross_entropy(steps[0], labels)
                    for s in steps[1:]:
                        loss = dc.add(loss, dc.binary_cross_entropy(s, labels))
                    retained = tracemalloc.get_traced_memory()[0] - start
                    tape.gradient(loss, list(mt.values()))
                transient = tracemalloc.get_traced_memory()[1] - start - retained
            finally:
                tracemalloc.stop()
        assert rows == [chunk] * 8
        assert transient <= bound, f"transient peak is {transient / bound:.2f} of the bound"

    def test_tape_retains_only_normalized_states(self):
        # with fixed parameters, backward needs per processed latent element
        # one f64 standardized value and one ReLU mask byte; T edge blocks,
        # T node blocks (the encoder and T-1 updates) and the decoder
        g = chorded_ring()
        config = sg.GnnConfig(hidden=32, rounds=3)
        model = sg.GnnModel.initialize(config, seed=1)
        w = dc.Tensor(np.random.default_rng(6).uniform(0.5, 2.0, g.edge_count), requires_grad=True)
        T, q, E, N, H = config.rounds, g.pair_count, g.edge_count, g.node_count, config.hidden
        bound = T * q * E * H * 9 + T * q * N * H * 9 + q * E * H * 9 + q * E * 8

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with dc.Tape() as tape:
                P = sg.predict_all_pairs(model, g, w)
                objective = dc.soft_maximum(dc.matmul(np.ones((1, P.shape[0])), P), 1.0)
                retained = tracemalloc.get_traced_memory()[0] - start
                tape.gradient(objective, w)
        finally:
            tracemalloc.stop()
        assert retained <= bound, f"tape retains {retained / bound:.2f} of the bound"


class TestForwardChunks:
    @pytest.mark.parametrize(
        "queries, workers, expected",
        [
            # 32 and 552 are the benchmark's batch sizes (train_n24 and
            # descent_n24), here at 12 queries a chunk at most;
            # test_shipped_layouts pins the chunks the real cap gives them
            (32, 2, [11, 11, 10]),
            (552, 2, [12] * 46),
            (3, 2, [3]),
            (1, 2, [1]),
            (32, 1, [11, 11, 10]),
        ],
    )
    def test_chunk_count_rule(self, queries, workers, expected, monkeypatch):
        # the fewest near-equal chunks of at most 12 queries, whatever the
        # pool's size: the workers are set only to show they change nothing
        g = chorded_ring()
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=4, rounds=2), seed=1)
        monkeypatch.setattr(dc, "POOL_WORKERS", workers)
        rows = force_chunks(monkeypatch, g, model, 12)
        pairs = ng.ordered_pairs(g.node_count)
        ind = sg.query_indicators(g, pairs[np.arange(queries) % len(pairs)])
        final, _ = sg.forward(g, np.ones(g.edge_count), ind, model)
        # the pool may start the chunks in any order; the rows stack in
        # chunk order, which test_chunks_equal_one_forward pins
        assert sorted(rows, reverse=True) == expected
        assert final.shape == (queries, g.edge_count)

    @pytest.mark.parametrize(
        "queries, workers, expected",
        [
            (552, 2, [23] * 24),  # descent_n24: every ordered pair
            (552, 1, [23] * 24),
            (32, 2, [16] * 2),  # train_n24: one batch
            (32, 1, [16] * 2),
            (552, 4, [23] * 24),
            (32, 4, [16] * 2),
        ],
    )
    def test_shipped_layouts(self, queries, workers, expected, monkeypatch):
        # the real QUERY_BLOCK_BYTES on a graph of the benchmark's size (24
        # nodes, 80 links) at its width H=64: at most 23 queries a chunk,
        # so a retune of the constant shows up here.  The layout depends
        # on neither the rounds nor the pool's size.
        n = 24
        links = [(i, (i + 1) % n, 1.0, False) for i in range(n)]
        links += [(i, i + 5, 1.0, False) for i in range(16)]
        g = ng.build_graph(n, links)
        assert g.edge_count == 80
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=64, rounds=1), seed=1)
        monkeypatch.setattr(dc, "POOL_WORKERS", workers)
        rows = counted_chunks(monkeypatch)
        pairs = ng.ordered_pairs(n)
        sg.forward(g, np.ones(g.edge_count), sg.query_indicators(g, pairs[:queries]), model)
        assert sorted(rows, reverse=True) == expected

    def test_per_step_parameter_gradients_equal_one_chunk(self, monkeypatch):
        # a training step on two workers: every round's output is the one
        # chunk's bit for bit, and the gradients, summed over chunks in
        # another order, agree to 1e-9
        g = chorded_ring()
        model = offset_model(sg.GnnConfig(hidden=8, rounds=3), seed=2)
        w, ind, labels = training_batch(g, np.random.default_rng(3))
        with one_chunk():
            one_steps, one_loss, one_grads = training_gradient(g, w, ind, labels, model)
        with pool_of(2):
            rows = force_chunks(monkeypatch, g, model, 3)
            steps, loss, grads = training_gradient(g, w, ind, labels, model)
        assert len(rows) == 11
        assert len(steps) == len(one_steps) == 3
        assert all(np.array_equal(a, b) for a, b in zip(steps, one_steps))
        assert loss == one_loss
        for name, a, b in zip(model.params, grads, one_grads):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), name

    @pytest.mark.parametrize(
        "workers, queries, chunks",
        [
            pytest.param(2, 8, (12, 4), id="2"),
            pytest.param(4, 8, (12, 4), id="4"),
            # chunk counts that are a multiple of neither 2 nor 4 workers
            pytest.param(2, 11, (9, 3), id="2-odd_chunks"),
            pytest.param(4, 11, (9, 3), id="4-odd_chunks"),
        ],
    )
    def test_pooled_forward_bitwise_equals_inline(self, workers, queries, chunks):
        # chunks of at most ``queries`` queries: ``chunks`` counts those
        # of the 90 pairs and of a 32-query batch, for 1, 2 and 4 workers
        # alike, so P, the weight gradient, every round's output and the
        # parameter gradients are the inline ones bit for bit.  4 workers
        # outnumber the cores of a 2-CPU host, and a short switch interval
        # interleaves the chunks as finely as it can.  The message passing
        # runs on the pool and the decoder on the calling thread.
        g = chorded_ring()
        model = offset_model(sg.GnnConfig(hidden=8, rounds=3), seed=4)
        d = np.random.default_rng(5).uniform(0.0, 1.0, g.pair_count)
        batch = training_batch(g, np.random.default_rng(6))
        block = queries * g.edge_count * model.config.hidden * 8

        def run(threads):
            body, sigmoid = sg._forward_chunk, dc.sigmoid

            def chunk(*args):
                threads.append(("chunk", threading.get_ident()))
                return body(*args)

            def decode(x):
                threads.append(("decode", threading.get_ident()))
                return sigmoid(x)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(sg, "QUERY_BLOCK_BYTES", block)
                m.setattr(sg, "_forward_chunk", chunk)
                m.setattr(dc, "sigmoid", decode)
                wt = dc.Tensor(batch[0], requires_grad=True)
                with dc.Tape() as tape:
                    P = sg.predict_all_pairs(model, g, wt)
                    grad = tape.gradient(soft_mlu(g, d, P), wt)
                return [P.data, grad, *training_gradient(g, *batch, model)[::2]]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(dc, "POOL_WORKERS", 1)
            inline = run([])
        threads = []
        interval = sys.getswitchinterval()
        with pool_of(workers):
            sys.setswitchinterval(1e-6)
            try:
                pooled = run(threads)
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(pooled[0], inline[0]) and np.array_equal(pooled[1], inline[1])
        for a, b in zip(pooled[2] + pooled[3], inline[2] + inline[3], strict=True):
            assert np.array_equal(a, b)
        me = threading.get_ident()
        pairs_chunks, batch_chunks = chunks
        ran = [t for what, t in threads if what == "chunk"]
        assert len(ran) == pairs_chunks + batch_chunks and me not in ran
        assert [t for what, t in threads if what == "decode"] == [me] * (pairs_chunks + batch_chunks * 3)

    def test_edge_encoder_runs_once_per_forward(self, monkeypatch):
        # it reads the weights alone, so every chunk shares its one block
        g = chorded_ring()
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=6, rounds=2), seed=3)
        first_layers, mlp_ln = [], dc.mlp_ln

        def counted(terms, w1, *params):
            first_layers.append(w1.data)
            return mlp_ln(terms, w1, *params)

        monkeypatch.setattr(dc, "mlp_ln", counted)
        rows = force_chunks(monkeypatch, g, model, 3)
        sg.predict_all_pairs(model, g, np.ones(g.edge_count))
        assert len(rows) >= 3
        assert sum(w1 is model.params["enc_edge_l1_w"] for w1 in first_layers) == 1
        assert sum(w1 is model.params["enc_node_l1_w"] for w1 in first_layers) == len(rows)


class TestTapeSize:
    @pytest.mark.parametrize("trained", [False, True], ids=["fixed", "trained"])
    def test_forward_records_one_op_per_block(self, trained, monkeypatch):
        # each MLP block is one fused op: per round an edge block, its
        # aggregation and a node block, plus the encoders, the decoder and
        # the one op that joins the chunks, counted over the forward's
        # tape and its chunk's
        g = chorded_ring()
        config = sg.GnnConfig(hidden=8, rounds=8)
        model = sg.GnnModel.initialize(config, seed=1)
        w = dc.Tensor(np.random.default_rng(6).uniform(0.5, 2.0, g.edge_count), requires_grad=True)
        ind = sg.query_indicators(g, [(0, 5), (3, 1)])
        records, record = [], dc.Tape._record

        def counted(tape, *args):
            records.append(tape)
            return record(tape, *args)

        monkeypatch.setattr(dc.Tape, "_record", counted)
        with one_chunk(), dc.Tape() as tape:
            sg.forward(g, w, ind, model, model_tensors=model.tensors(requires_grad=trained))
        assert len(set(records)) == 2 and tape in records
        assert len(records) <= 3 * config.rounds + 8


class TestEquivariance:
    def test_node_relabeling(self, small_graph):
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=8, rounds=3), seed=7)
        g, w = small_graph
        rng = np.random.default_rng(11)
        perm = rng.permutation(g.node_count)  # perm[old] = new
        g2 = ng.Graph(
            g.node_count,
            receivers=perm[g.receivers],
            senders=perm[g.senders],
            capacities=g.capacities,
        )
        for u, v in [(0, 3), (4, 1)]:
            p1, _ = single_query(model, g, w, u, v)
            p2, _ = single_query(model, g2, w, int(perm[u]), int(perm[v]))
            assert np.allclose(p1.data, p2.data, atol=1e-10)

    def test_edge_permutation(self, small_model, small_graph):
        # listing the links in another order permutes the columns of P
        g, w = small_graph
        perm = np.random.default_rng(1).permutation(g.edge_count)
        g2 = ng.Graph(
            g.node_count,
            receivers=g.receivers[perm],
            senders=g.senders[perm],
            capacities=g.capacities[perm],
        )
        P = sg.predict_all_pairs(small_model, g, w)
        P2 = sg.predict_all_pairs(small_model, g2, w[perm])
        assert np.allclose(P2.data, P.data[:, perm], rtol=0.0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bytes_identical(self, small_model, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        sg.save_checkpoint(small_model, p1)
        loaded = sg.load_checkpoint(p1)
        sg.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_params_exactly_preserved(self, small_model, tmp_path):
        path = tmp_path / "m.ckpt"
        sg.save_checkpoint(small_model, path)
        loaded = sg.load_checkpoint(path)
        assert loaded.config == small_model.config
        for name, arr in small_model.params.items():
            assert np.array_equal(loaded.params[name], arr)

    def test_bad_format_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.ckpt"
        # a version-1 document: today's fields plus the node MLP of the last
        # round, which no forward reads
        sg.save_checkpoint(sg.GnnModel.initialize(sg.GnnConfig(hidden=1, rounds=1)), path)
        v1 = json.loads(path.read_text())
        v1["version"] = 1
        node_mlp = {"l1_w": [1, 2], "l1_b": [1], "l2_w": [1, 1], "l2_b": [1], "ln_gain": [1], "ln_bias": [1]}
        for name, shape in node_mlp.items():
            v1["params"][f"proc0_node_{name}"] = {"shape": shape, "data": [1.0] * int(np.prod(shape))}
        for text in ['{"format":"other","version":1}\n', "[1, 2]\n", json.dumps(v1)]:
            path.write_text(text)
            with pytest.raises(sg.CheckpointError):
                sg.load_checkpoint(path)
        # not ASCII, so no document save_checkpoint writes; the decode
        # error must not escape as a UnicodeDecodeError
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(sg.CheckpointError):
            sg.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameter_not_saved(self, small_model, tmp_path, bad):
        # JSON has no token for either value, and load_checkpoint would
        # reject the file, so none is written
        params = {k: v.copy() for k, v in small_model.params.items()}
        params["dec_l2_b"][0] = bad
        path = tmp_path / "m.ckpt"
        with pytest.raises(sg.CheckpointError, match="dec_l2_b"):
            sg.save_checkpoint(sg.GnnModel(small_model.config, params), path)
        assert not path.exists()

    @pytest.mark.parametrize("fault", ["missing", "extra", "shape"])
    def test_inconsistent_parameters_not_saved(self, small_model, tmp_path, fault):
        # load_checkpoint would reject the file, so none is written
        params = {k: v.copy() for k, v in small_model.params.items()}
        if fault == "missing":
            del params["dec_l1_w"]
        elif fault == "extra":
            params["proc9_edge_l1_w"] = np.zeros((8, 24))
        else:
            params["dec_l2_w"] = np.zeros((2, 8))
        path = tmp_path / "m.ckpt"
        with pytest.raises(sg.CheckpointError):
            sg.save_checkpoint(sg.GnnModel(small_model.config, params), path)
        assert not path.exists()

    def test_numpy_integer_sizes_round_trip(self, tmp_path):
        # sizes are stored as int, so the document holds JSON integers
        config = sg.GnnConfig(hidden=np.int64(3), rounds=np.uint8(2))
        assert type(config.hidden) is int and type(config.rounds) is int
        path = tmp_path / "m.ckpt"
        sg.save_checkpoint(sg.GnnModel.initialize(config, seed=3), path)
        assert sg.load_checkpoint(path).config == sg.GnnConfig(hidden=3, rounds=2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"hidden": 2.5}, {"rounds": True}, {"rounds": "2"}, {"share_processor": "false"}],
        ids=["float_hidden", "bool_rounds", "string_rounds", "string_share"],
    )
    def test_config_rejects_non_integer_sizes(self, kwargs):
        # a float width would reach the parameter shapes as a float
        with pytest.raises(ng.GraphError):
            sg.GnnConfig(**kwargs)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("hidden"),
            lambda doc: doc.update(hidden=0),
            lambda doc: doc["params"]["dec_l2_b"].update(data=[0.0, 0.0]),
            lambda doc: doc["params"]["dec_l2_b"].update(data=["x"]),
            lambda doc: doc["params"].update(dec_l2_b=[0.0]),
            lambda doc: doc["params"].update(dec_l2_b={"data": [0.0]}),
            lambda doc: doc.update(hidden=doc["hidden"] + 0.7),
            lambda doc: doc.update(rounds=str(doc["rounds"])),
            lambda doc: doc.update(rounds=True),
            lambda doc: doc.update(share_processor="false"),
            lambda doc: doc.update(share_processor=0),
            lambda doc: doc["params"]["dec_l2_b"].update(data=["0.5"]),
            lambda doc: doc["params"]["dec_l2_b"].update(data=[True]),
            lambda doc: doc["params"]["dec_l2_b"].update(data=[[0.5]]),
            lambda doc: doc["params"]["dec_l2_b"].update(data=0.5),
            lambda doc: doc["params"]["dec_l2_b"].update(data=[10**400]),
        ],
        ids=[
            "no_hidden", "zero_hidden", "data_length", "non_numeric", "entry_not_object", "no_shape",
            "float_hidden", "string_rounds", "bool_rounds", "string_share", "int_share",
            "string_number_data", "bool_data", "nested_data", "scalar_data", "huge_int_data",
        ],
    )
    def test_malformed_document_rejected(self, small_model, tmp_path, corrupt):
        import json

        path = tmp_path / "m.ckpt"
        sg.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(sg.CheckpointError):
            sg.load_checkpoint(path)

    def test_missing_param_rejected(self, small_model, tmp_path):
        import json

        path = tmp_path / "m.ckpt"
        sg.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        del doc["params"]["dec_l1_w"]
        path.write_text(json.dumps(doc))
        with pytest.raises(sg.CheckpointError):
            sg.load_checkpoint(path)

    def test_wrong_shape_rejected(self, small_model, tmp_path):
        import json

        path = tmp_path / "m.ckpt"
        sg.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["params"]["dec_l2_b"]["shape"] = [2]
        doc["params"]["dec_l2_b"]["data"] = [0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(sg.CheckpointError):
            sg.load_checkpoint(path)

    def test_initialize_draws_are_pinned(self):
        # a change to the draw order or the init scales would move every
        # model the benchmark builds
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=4, rounds=2), seed=0)
        digest = hashlib.sha256()
        for name in sorted(model.params):
            arr = model.params[name]
            digest.update(name.encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == "72a068d27f8e11efefe03dc48d041f8e22f5b1e44858bd0e0e4868d9dc718b7d"

    def test_parameter_shapes_match_initialize(self):
        config = sg.GnnConfig(hidden=5, rounds=3, share_processor=True)
        model = sg.GnnModel.initialize(config, seed=2)
        assert {k: v.shape for k, v in model.params.items()} == config.parameter_shapes()
        # the last round updates no node, so no block read only by it has a node MLP
        assert len(sg.GnnConfig(hidden=64, rounds=8).parameter_shapes()) == 106
        assert "proc7_node_l1_w" not in sg.GnnConfig(hidden=3, rounds=8).parameter_shapes()
        for share in (False, True):
            shapes = sg.GnnConfig(hidden=3, rounds=1, share_processor=share).parameter_shapes()
            assert not [k for k in shapes if k.startswith("proc0_node_")]


class TestSharedProcessor:
    def test_option_runs_and_differs(self, small_graph):
        g, w = small_graph
        shared = sg.GnnModel.initialize(sg.GnnConfig(hidden=8, rounds=3, share_processor=True), seed=5)
        assert "proc1_edge_l1_w" not in shared.params
        probs, steps = single_query(shared, g, w, 0, 3, per_step=True)
        assert len(steps) == 3
        assert np.all(np.isfinite(probs.data))
