"""The three benchmark workloads, composed from ``routegrad``'s public API.

Each workload is built from a seed (the set-up the benchmark times), then
advanced one ``step()`` at a time.  A step returns the work it did and
raises :class:`CheckFailed` when one of its correctness checks fails.
``quality()`` reports the end-to-end quality figures and ``checks()`` the
post-run correctness checks.

``routegrad`` modules are always called through their module attribute
(``dc.affine_sum``, ``exact_routing.link_loads``) so the tracer in
``spans.py`` can wrap them from outside.
"""

from __future__ import annotations

import numpy as np

from routegrad import diffcore as dc
from routegrad import exact_routing, netgraph, surrogate

import instances

MODEL = surrogate.GnnConfig(hidden=64, rounds=8)


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_probabilities(p: np.ndarray, shape: tuple) -> None:
    require(p.shape == shape, f"surrogate output shape {p.shape}, expected {shape}")
    require(np.all(np.isfinite(p)), "surrogate output is not finite")
    require(np.all((p > 0.0) & (p < 1.0)), "surrogate output outside (0, 1)")


def check_routing(g: netgraph.Graph, weights: np.ndarray, demands: np.ndarray) -> None:
    """``link_loads`` equals ``demands @ routing_matrix``; every row is a path."""
    P = exact_routing.routing_matrix(g, weights)
    loads = exact_routing.link_loads(g, weights, demands)
    dense = demands @ P
    require(
        np.all(np.abs(loads - dense) <= 1e-9 * np.abs(dense).max()),
        "link_loads differs from demands @ routing_matrix beyond 1e-9 relative",
    )
    for i, (u, v) in enumerate(netgraph.ordered_pairs(g.node_count)):
        netgraph.validate_path_vector(g, P[i], int(u), int(v))


def reached_parameter_names(model: surrogate.GnnModel) -> list[str]:
    """Parameters that reach the tape in a ``surrogate.forward`` call.

    ``forward`` skips the node update of the last round, so that block's
    node MLP never runs unless an earlier round shares its parameters.
    Asking the tape or ``adam_step`` for those arrays raises.
    """
    cfg = model.config
    dead = ""
    if not cfg.share_processor or cfg.rounds == 1:
        dead = model.block_prefix(cfg.rounds - 1) + "_node_"
    return [k for k in model.parameter_names() if not (dead and k.startswith(dead))]


class Workload:
    name = ""
    quality_step = 1  # quality is read after exactly this many timed steps
    applicable = ()  # quality metrics this workload produces
    # (MiB, passes) of the host-speed kernel's array passes; see
    # hostspeed.HostSpeed.  Search streams no large arrays.
    reference_arrays = (0, 0)

    def step(self) -> int:
        raise NotImplementedError

    def snapshot(self) -> None:
        """Records the quality figures at ``quality_step`` (untimed)."""

    def quality(self) -> dict:
        return {}

    def checks(self) -> list:
        """Post-run checks: ``link_loads`` against the routing matrix on
        each instance's sampled check weights."""
        return [
            lambda g=g, w=w, d=inst.demands: check_routing(g, w, d)
            for g, inst in zip(self.graphs, self.insts)
            for w in inst.pools["check_weights"]
        ]

    def unreached_parameters(self) -> int:
        return 0

    def accept_ratio(self) -> float:
        """Accepted over evaluated moves; 0 for workloads that make none."""
        return 0.0


class LocalSearch:
    """First-improvement search over integer weights on one instance.

    Starts from the inverse-capacity default weights; a move sets one link
    to another integer weight and is kept when the exact MLU drops.
    """

    def __init__(self, inst: instances.Instance, g: netgraph.Graph):
        self.g, self.demands, self.moves = g, inst.demands, inst.pools["moves"]
        start = netgraph.default_ospf_weights(g)
        self.weights = np.clip(np.rint(start), *instances.WEIGHT_RANGE)
        self.default_mlu = exact_routing.exact_max_utilization(g, start, self.demands)
        self.current = exact_routing.exact_max_utilization(g, self.weights, self.demands)
        self.best = min(self.current, self.default_mlu)
        self.tried = 0

    def try_move(self) -> bool:
        k, value = self.moves[self.tried % len(self.moves)]
        self.tried += 1
        if value == self.weights[k]:
            value = value % instances.WEIGHT_RANGE[1] + 1
        candidate = self.weights.copy()
        candidate[k] = value
        mlu = exact_routing.exact_max_utilization(self.g, candidate, self.demands)
        require(np.isfinite(mlu) and mlu > 0.0, "candidate MLU is not a positive number")
        accepted = mlu < self.current
        if accepted:
            self.weights, self.current = candidate, mlu
            self.best = min(self.best, mlu)
        require(self.best <= self.default_mlu, "best MLU exceeds the default-weights MLU")
        return accepted


class SearchN50(Workload):
    """Fortz-Thorup-style local search on several 50-node instances.

    The searches take turns, one candidate per step, so each run's figures
    average over ``searches`` topologies and traffic matrices.
    """

    name = "search_n50"
    searches = 8
    quality_step = 800  # 100 candidates per search
    applicable = ("mlu_ratio",)

    def __init__(self, seed: int):
        pools = {"moves": ("moves", 4096), "check_weights": ("weights", 1)}
        self.insts = [
            instances.generate(s, n=50, chords=40, pools=pools)
            for s in np.random.SeedSequence(seed).spawn(self.searches)
        ]
        self.graphs = [netgraph.build_graph(i.node_count, i.links(), name=self.name) for i in self.insts]
        self.runs = [LocalSearch(i, g) for i, g in zip(self.insts, self.graphs)]
        self.evaluated = 0
        self.accepted = 0
        self.step()  # warm-up

    def step(self) -> int:
        self.accepted += self.runs[self.evaluated % self.searches].try_move()
        self.evaluated += 1
        return 1

    def snapshot(self) -> None:
        self.mlu_ratio = float(np.mean([r.best / r.default_mlu for r in self.runs]))

    def quality(self) -> dict:
        return {"mlu_ratio": self.mlu_ratio}

    def accept_ratio(self) -> float:
        return self.accepted / self.evaluated


class SurrogateWorkload(Workload):
    """Shared set-up of the two surrogate workloads: 24 nodes and a fresh model."""

    def __init__(self, seed: int, pools: dict):
        self.inst = instances.generate(seed, n=24, chords=16, pools={**pools, "check_weights": ("weights", 2)})
        self.insts = [self.inst]
        self.g = netgraph.build_graph(self.inst.node_count, self.inst.links(), name=self.name)
        self.graphs = [self.g]
        self.demands = self.inst.demands
        self.model = surrogate.GnnModel.initialize(MODEL, seed=seed)
        self.pairs = netgraph.ordered_pairs(self.g.node_count)

    def unreached_parameters(self) -> int:
        return len(self.model.params) - len(reached_parameter_names(self.model))


class DescentN24(SurrogateWorkload):
    """Gradient descent on continuous weights through the all-pairs surrogate."""

    name = "descent_n24"
    reference_arrays = (8, 4)  # all-pairs tensors of 552 x 80 x 64 floats, 22 MB each
    quality_step = 3
    applicable = ("mlu_ratio",)
    step_size = 1.0  # largest weight change per step
    temperature = 0.05  # soft-maximum temperature, relative to the current max utilization

    def __init__(self, seed: int):
        super().__init__(seed, pools={})
        self.d_row = dc.Tensor(self.demands.reshape(1, -1))
        self.weights = netgraph.default_ospf_weights(self.g)
        self.default_mlu = exact_routing.exact_max_utilization(self.g, self.weights, self.demands)
        self.best = self.default_mlu
        self.step()  # warm-up

    def step(self) -> int:
        w = dc.Tensor(self.weights, requires_grad=True)
        with dc.Tape() as tape:
            P = surrogate.predict_all_pairs(self.model, self.g, w)
            check_probabilities(P.data, (self.g.pair_count, self.g.edge_count))
            rho = dc.div(dc.matmul(self.d_row, P), self.g.capacities)
            tau = self.temperature * float(rho.data.max())
            objective = dc.soft_maximum(rho, tau)
            grad = tape.gradient(objective, w)
        require(np.all(np.isfinite(grad)), "weight gradient is not finite")
        scale = np.abs(grad).max()
        if scale > 0.0:
            self.weights = netgraph.floor_weights(self.weights - self.step_size * grad / scale)
        mlu = exact_routing.exact_max_utilization(self.g, self.weights, self.demands)
        self.best = min(self.best, mlu)
        require(self.best <= self.default_mlu, "best MLU exceeds the default-weights MLU")
        return self.g.pair_count

    def snapshot(self) -> None:
        self.mlu_ratio = self.best / self.default_mlu

    def quality(self) -> dict:
        return {"mlu_ratio": self.mlu_ratio}


class TrainN24(SurrogateWorkload):
    """Mini-batch surrogate training against Dijkstra labels."""

    name = "train_n24"
    reference_arrays = (1, 16)  # 32-query tensors of 32 x 80 x 64 floats, 1.3 MB each
    quality_step = 40
    applicable = ("final_bce", "edge_acc")
    batch = 32
    learning_rate = 3e-3

    def __init__(self, seed: int):
        super().__init__(
            seed,
            pools={
                "train_weights": ("weights", 512),
                "train_pairs": ("pairs", 512, self.batch),
                "heldout_weights": ("weights", 4),
                "heldout_pairs": ("pairs", 4, 64),
            },
        )
        self.trained = reached_parameter_names(self.model)
        self.adam = dc.AdamState.for_params({k: self.model.params[k] for k in self.trained})
        self.done = 0
        self.step()  # warm-up

    def step(self) -> int:
        i = self.done % len(self.inst.pools["train_weights"])
        w = self.inst.pools["train_weights"][i]
        rows = self.inst.pools["train_pairs"][i]
        labels = exact_routing.routing_matrix(self.g, w)[rows]
        ind = surrogate.query_indicators(self.g, self.pairs[rows])
        mt = self.model.tensors(requires_grad=True)
        with dc.Tape() as tape:
            _, steps = surrogate.forward(self.g, w, ind, self.model, per_step=True, model_tensors=mt)
            loss = dc.binary_cross_entropy(steps[0], labels)
            for s in steps[1:]:
                loss = dc.add(loss, dc.binary_cross_entropy(s, labels))
            grads = tape.gradient(loss, [mt[k] for k in self.trained])
        for s in steps:
            check_probabilities(s.data, labels.shape)
        require(np.isfinite(loss.item()), "training loss is not finite")
        require(all(np.all(np.isfinite(g)) for g in grads), "parameter gradient is not finite")
        dc.adam_step(
            self.adam,
            {k: self.model.params[k] for k in self.trained},
            dict(zip(self.trained, grads)),
            lr=self.learning_rate,
        )
        self.done += 1
        return self.batch

    def grade_heldout(self) -> tuple[float, float]:
        """Per-round BCE and edge accuracy at 0.5 on the held-out queries."""
        bce, hits, total = [], 0, 0
        for w, rows in zip(self.inst.pools["heldout_weights"], self.inst.pools["heldout_pairs"]):
            P = exact_routing.routing_matrix(self.g, w)
            for i in rows:
                netgraph.validate_path_vector(self.g, P[i], *(int(x) for x in self.pairs[i]))
            labels = P[rows]
            ind = surrogate.query_indicators(self.g, self.pairs[rows])
            final, steps = surrogate.forward(self.g, w, ind, self.model, per_step=True)
            check_probabilities(final.data, labels.shape)
            bce += [dc.binary_cross_entropy(s, labels).item() for s in steps]
            hits += int(np.sum((final.data > 0.5) == (labels > 0.5)))
            total += labels.size
        return float(np.mean(bce)), hits / total

    def snapshot(self) -> None:
        self.final_bce, self.edge_acc = self.grade_heldout()

    def quality(self) -> dict:
        return {"final_bce": self.final_bce, "edge_acc": self.edge_acc}


WORKLOADS = {cls.name: cls for cls in (SearchN50, DescentN24, TrainN24)}
