import hashlib
import tracemalloc

import numpy as np
import pytest

from routegrad import diffcore as dc
from routegrad import netgraph as ng
from routegrad import surrogate as sg

from oracles import central_difference, reference_forward


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

            err = dc.finite_difference_check(loss, model.params[name])
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


def force_chunks(monkeypatch, g, model, queries):
    """Shrinks the latent block so predict_all_pairs walks chunks of at most
    ``queries`` pairs, and returns the list the row count of every
    ``forward`` call it makes is appended to."""
    monkeypatch.setattr(sg, "QUERY_BLOCK_BYTES", queries * g.edge_count * model.config.hidden * 8)
    rows, forward = [], sg.forward

    def counted(g, weights, indicators, *args, **kwargs):
        rows.append(len(indicators))
        return forward(g, weights, indicators, *args, **kwargs)

    monkeypatch.setattr(sg, "forward", counted)
    return rows


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

        err = dc.finite_difference_check(lambda wt: soft_mlu(g, d, sg.predict_all_pairs(model, g, wt)), w)
        assert err < 1e-3

    def test_chunks_equal_one_forward(self, small_model, small_graph, monkeypatch):
        # every row is computed as one batched forward computes it
        g, w = small_graph
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
        ind = sg.query_indicators(g, ng.ordered_pairs(g.node_count))

        def gradient(predict):
            wt = dc.Tensor(w, requires_grad=True)
            with dc.Tape() as tape:
                return tape.gradient(soft_mlu(g, d, predict(wt)), wt)

        one = gradient(lambda wt: sg.forward(g, wt, ind, model)[0])
        rows = force_chunks(monkeypatch, g, model, 3)
        chunked = gradient(lambda wt: sg.predict_all_pairs(model, g, wt))
        assert len(rows) >= 3 and len(set(rows)) > 1
        assert np.max(np.abs(chunked - one)) <= 1e-9 * np.max(np.abs(one))

    def test_chunked_gradient_matches_fd(self, small_graph, monkeypatch):
        model = sg.GnnModel.initialize(sg.GnnConfig(hidden=6, rounds=2), seed=3)
        g, w = small_graph
        d = np.random.default_rng(4).uniform(0.0, 1.0, g.pair_count)
        rows = force_chunks(monkeypatch, g, model, 3)
        err = dc.finite_difference_check(lambda wt: soft_mlu(g, d, sg.predict_all_pairs(model, g, wt)), w)
        assert len(rows) >= 3 and len(set(rows)) > 1
        assert err < 1e-3

    def test_transient_memory_stays_within_chunk_blocks(self, monkeypatch):
        # beyond what the tape retains, forward and backward hold a few
        # latent blocks of one chunk at a time (about 6.5 here), not of the
        # whole batch of 90 pairs, which is 12 chunks
        g = chorded_ring()
        config = sg.GnnConfig(hidden=32, rounds=3)
        model = sg.GnnModel.initialize(config, seed=1)
        w = dc.Tensor(np.random.default_rng(6).uniform(0.5, 2.0, g.edge_count), requires_grad=True)
        chunk = 8
        rows = force_chunks(monkeypatch, g, model, chunk)
        bound = 8 * chunk * g.edge_count * config.hidden * 8

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with dc.Tape() as tape:
                P = sg.predict_all_pairs(model, g, w)
                objective = dc.soft_maximum(dc.tensor_sum(P, axis=0), 1.0)
                retained = tracemalloc.get_traced_memory()[0] - start
                tape.gradient(objective, w)
            transient = tracemalloc.get_traced_memory()[1] - start - retained
        finally:
            tracemalloc.stop()
        assert transient <= bound, f"transient peak is {transient / bound:.2f} of the bound"
        assert len(rows) >= 3 and max(rows) == chunk

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
                objective = dc.soft_maximum(dc.tensor_sum(P, axis=0), 1.0)
                retained = tracemalloc.get_traced_memory()[0] - start
                tape.gradient(objective, w)
        finally:
            tracemalloc.stop()
        assert retained <= bound, f"tape retains {retained / bound:.2f} of the bound"


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

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("hidden"),
            lambda doc: doc.update(hidden=0),
            lambda doc: doc["params"]["dec_l2_b"].update(data=[0.0, 0.0]),
            lambda doc: doc["params"]["dec_l2_b"].update(data=["x"]),
            lambda doc: doc["params"].update(dec_l2_b=[0.0]),
            lambda doc: doc["params"].update(dec_l2_b={"data": [0.0]}),
        ],
        ids=["no_hidden", "zero_hidden", "data_length", "non_numeric", "entry_not_object", "no_shape"],
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
