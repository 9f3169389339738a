"""Seeded input generators for the benchmark.

Everything a workload feeds to ``routegrad`` is made here from one seed:
a ring-plus-chords topology with mixed link capacities, a gravity traffic
matrix, and pools of random weight vectors and pair queries.  The program
under test only ever receives these arrays, and :func:`describe`
fingerprints them so two commits can be shown to run identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# Link capacities in Mbps.  Inverse-capacity default weights are then the
# integers 10, 4 and 1, so the integer local search starts exactly there.
CAPACITY_CLASSES = np.array([1000.0, 2500.0, 10000.0])
WEIGHT_RANGE = (1, 20)


@dataclass
class Instance:
    """One workload's generated inputs.

    Attributes:
        node_count: Number of nodes.
        ends: ``[L, 2]`` endpoints of each undirected link.
        link_capacities: ``[L]`` capacity of each undirected link (both
            directions carry it).
        demands: Gravity demand per ordered pair, in ``ordered_pairs`` order.
        pools: Further named arrays (weight samples, pair queries, moves).
    """

    node_count: int
    ends: np.ndarray
    link_capacities: np.ndarray
    demands: np.ndarray
    pools: dict = field(default_factory=dict)

    def links(self) -> list[tuple[int, int, float, bool]]:
        """Link list in the form ``netgraph.build_graph`` takes."""
        return [(int(a), int(b), float(c), False) for (a, b), c in zip(self.ends, self.link_capacities)]

    def fingerprint(self, h) -> None:
        """Feeds every generated array, with name, dtype and shape, to ``h``."""
        named = {"ends": self.ends, "link_capacities": self.link_capacities, "demands": self.demands}
        named.update(self.pools)
        for name in sorted(named):
            arr = np.ascontiguousarray(named[name])
            h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
            h.update(arr.tobytes())

    def sizes(self) -> dict:
        n = self.node_count
        return {"nodes": n, "links": 2 * len(self.ends), "pairs": n * (n - 1)}


def describe(insts: list[Instance]) -> dict:
    """Sizes of the first instance, the instance count, and a SHA-256 digest
    of every generated array (equal digests mean identical inputs)."""
    h = hashlib.sha256()
    for inst in insts:
        inst.fingerprint(h)
    return {**insts[0].sizes(), "instances": len(insts), "digest": h.hexdigest()[:16]}


def ring_chords(rng: np.random.Generator, n: int, chords: int) -> tuple[np.ndarray, np.ndarray]:
    """A ring over ``n`` nodes plus ``chords`` distinct random shortcuts.

    Returns ``(ends, capacities)`` for the undirected links; each link's
    capacity is drawn from :data:`CAPACITY_CLASSES`.
    """
    ends = [(i, (i + 1) % n) for i in range(n)]
    seen = {frozenset(e) for e in ends}
    while len(ends) < n + chords:
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            ends.append((a, b))
    capacities = rng.choice(CAPACITY_CLASSES, size=len(ends))
    return np.array(ends, dtype=np.int64), capacities


def gravity_demands(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """Gravity traffic: demand u->v proportional to mass(u) * mass(v).

    Masses are exponential, so a few nodes dominate as in real networks.
    The entries follow ``netgraph.ordered_pairs`` order and sum to ``total``.
    """
    mass = rng.exponential(1.0, n) + 0.1
    d = np.outer(mass, mass)[~np.eye(n, dtype=bool)]
    return d * (total / d.sum())


def random_weights(rng: np.random.Generator, count: int, edge_count: int) -> np.ndarray:
    """``[count, E]`` continuous weights, uniform over the search range."""
    return rng.uniform(*WEIGHT_RANGE, size=(count, edge_count))


def pair_samples(rng: np.random.Generator, count: int, n: int, per_sample: int) -> np.ndarray:
    """``[count, per_sample]`` distinct ordered-pair indices per sample."""
    return np.stack([rng.choice(n * (n - 1), per_sample, replace=False) for _ in range(count)])


def generate(seed, n: int, chords: int, pools: dict[str, tuple]) -> Instance:
    """Topology, gravity traffic and the requested pools from one seed.

    Args:
        seed: Seed (an int or a ``SeedSequence``) of the only random
            generator used.
        n: Node count.
        chords: Undirected shortcuts added to the ring.
        pools: ``name -> (kind, count[, per_sample])`` with ``kind`` one of
            ``"weights"``, ``"pairs"`` or ``"moves"`` (link index and
            integer weight for the local search).
    """
    rng = np.random.default_rng(seed)
    ends, caps = ring_chords(rng, n, chords)
    demands = gravity_demands(rng, n, total=0.05 * 2 * caps.sum())
    edge_count = 2 * len(ends)
    made = {}
    for name, (kind, count, *rest) in pools.items():
        if kind == "weights":
            made[name] = random_weights(rng, count, edge_count)
        elif kind == "pairs":
            made[name] = pair_samples(rng, count, n, rest[0])
        elif kind == "moves":
            made[name] = np.stack(
                [rng.integers(0, edge_count, count), rng.integers(WEIGHT_RANGE[0], WEIGHT_RANGE[1] + 1, count)],
                axis=1,
            )
        else:
            raise ValueError(f"unknown pool kind {kind!r}")
    return Instance(n, ends, caps, demands, made)
