"""Communication graphs for decentralized (serverless) aggregation.

The paper's cluster is a star: one reliable server hears every worker.
The decentralized model replaces the star with an arbitrary
communication graph — each node disseminates its proposal to its
neighbors and aggregates only what it hears, with a *local* Byzantine
bound over its in-neighborhood.  A :class:`Topology` is the reproducible
model of that graph: a pure function ``neighbors(node, round_index)``
over a seeded structure.

Purity contract (mirroring :class:`~repro.distributed.delays.DelaySchedule`):
after :meth:`Topology.bind` fixes the node count and any randomness,
``neighbors(v, t)`` may depend only on its arguments and bind-time
state, so every executor — whatever order it queries in — sees the same
graph.  Randomized topologies therefore derive their edges from a
*counter-based* hash of the (edge, round-block) key rather than from
shared stream state (see :func:`counter_uniform`).

All built-in graphs are undirected (``u ∈ N(v) ⟺ v ∈ N(u)``) and
self-loop free; a node's own fresh proposal always participates in its
aggregation, so the self edge is implicit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Topology",
    "CompleteTopology",
    "RingTopology",
    "KRegularTopology",
    "ErdosRenyiTopology",
    "TimeVaryingTopology",
    "counter_uniform",
]

# splitmix64 finalizer constants — a counter-based integer hash whose
# output is statistically uniform per key, computable in any order and
# fully vectorizable (no shared RNG stream state to consume).
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def counter_uniform(entropy: int, keys: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws keyed by integer counters (splitmix64).

    ``keys`` is an integer array; each entry is hashed together with the
    bound ``entropy`` through the splitmix64 finalizer, giving one
    float64 per key.  The draw is a pure function of ``(entropy, key)``
    — the counter-based discipline randomized topologies need so the
    loop and batched executors (which query edges in different orders)
    sample identical graphs.
    """
    x = np.asarray(keys).astype(np.uint64, copy=True)
    x += np.uint64(int(entropy) & _MASK64)
    x *= _SPLITMIX_GAMMA
    x ^= x >> np.uint64(30)
    x *= _SPLITMIX_M1
    x ^= x >> np.uint64(27)
    x *= _SPLITMIX_M2
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / 2.0**64


class Topology(ABC):
    """A (possibly time-varying) communication graph over ``num_nodes``.

    Instances are configured unbound (``num_nodes=None``) by the
    registry; a simulation calls :meth:`bind` with its node count and a
    dedicated RNG stream spawned from the root seed, receiving a bound
    copy whose :meth:`neighbors` is a pure function.
    """

    #: Registry name; subclasses set this as a class attribute.
    name: str = "topology"
    num_nodes: int | None = None

    @abstractmethod
    def bind(self, num_nodes: int, rng: np.random.Generator) -> "Topology":
        """Fix the node count (and any randomness) from a simulation.

        Returns a bound copy; the receiver itself stays reusable.  The
        simulation calls this once at construction time with a stream
        spawned from the root seed, so the whole graph is reproducible
        from the cell's seed alone.
        """

    @abstractmethod
    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        """Sorted ``int64`` ids adjacent to ``node`` at ``round_index``.

        Symmetric and self-loop free; pure after :meth:`bind`.
        """

    def _require_bound(self, node: int) -> int:
        """The bound node count, validating ``node`` against it."""
        if self.num_nodes is None:
            raise ConfigurationError(
                f"unbound topology {self.name!r}: pass it to a simulation "
                f"(which binds it from the root seed) or call bind() first"
            )
        if not 0 <= int(node) < self.num_nodes:
            raise ConfigurationError(
                f"node {node} outside [0, {self.num_nodes}) for topology "
                f"{self.name!r}"
            )
        return self.num_nodes

    @staticmethod
    def _check_num_nodes(num_nodes: int | None) -> int | None:
        if num_nodes is None:
            return None
        if int(num_nodes) < 1:
            raise ConfigurationError(
                f"num_nodes must be >= 1, got {num_nodes}"
            )
        return int(num_nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CompleteTopology(Topology):
    """Every node hears every other node — the server path's graph.

    The degenerate cell of the topology axis: aggregating over the full
    in-neighborhood with the global ``f`` is exactly the paper's
    parameter server, which the differential suite pins bit for bit.
    """

    name = "complete"

    def __init__(self, num_nodes: int | None = None):
        self.num_nodes = self._check_num_nodes(num_nodes)

    def bind(self, num_nodes: int, rng: np.random.Generator) -> "CompleteTopology":
        return CompleteTopology(num_nodes=num_nodes)

    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        n = self._require_bound(node)
        ids = np.arange(n, dtype=np.int64)
        return ids[ids != int(node)]


def _circulant_neighbors(
    node: int, num_nodes: int, offsets: np.ndarray
) -> np.ndarray:
    node = int(node)
    below = (node - offsets) % num_nodes
    above = (node + offsets) % num_nodes
    return np.unique(np.concatenate((below, above))).astype(np.int64)


def _check_degree(degree: int) -> int:
    degree = int(degree)
    if degree < 2 or degree % 2 != 0:
        raise ConfigurationError(
            f"degree must be an even integer >= 2 (each offset adds one "
            f"neighbor on each side), got {degree}"
        )
    return degree


class RingTopology(Topology):
    """A circulant ring: node ``v`` hears ``v ± 1, ..., v ± degree/2``.

    The canonical sparse benchmark graph — diameter ``Θ(n / degree)``,
    so consensus information needs many rounds to traverse the cluster.
    """

    name = "ring"

    def __init__(self, degree: int = 2, num_nodes: int | None = None):
        self.degree = _check_degree(degree)
        self.num_nodes = self._check_num_nodes(num_nodes)
        if self.num_nodes is not None and self.degree > self.num_nodes - 1:
            raise ConfigurationError(
                f"ring degree {self.degree} needs at least "
                f"{self.degree + 1} nodes, got {self.num_nodes}"
            )
        self._offsets = np.arange(1, self.degree // 2 + 1, dtype=np.int64)

    def bind(self, num_nodes: int, rng: np.random.Generator) -> "RingTopology":
        return RingTopology(degree=self.degree, num_nodes=num_nodes)

    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        n = self._require_bound(node)
        return _circulant_neighbors(node, n, self._offsets)


class KRegularTopology(Topology):
    """A random circulant ``degree``-regular graph.

    Bind time draws ``degree / 2`` distinct offsets uniformly from
    ``{1, ..., ⌊(n − 1) / 2⌋}`` (the range where every offset contributes
    two distinct neighbors), giving a seeded k-regular graph that keeps
    the circulant symmetry — node relabeling by rotation maps the graph
    onto itself, which the permutation property tests exploit.  Explicit
    ``offsets`` must be ``degree / 2`` distinct values from that range;
    bind then keeps them instead of drawing.
    """

    name = "k-regular"

    def __init__(
        self,
        degree: int = 4,
        num_nodes: int | None = None,
        offsets: tuple[int, ...] | None = None,
    ):
        self.degree = _check_degree(degree)
        self.num_nodes = self._check_num_nodes(num_nodes)
        self._offsets: np.ndarray | None = (
            None if offsets is None else self._check_offsets(offsets)
        )

    def _check_offsets(self, offsets) -> np.ndarray:
        values = sorted(int(o) for o in offsets)
        wanted = self.degree // 2
        if len(values) != wanted or len(set(values)) != wanted:
            raise ConfigurationError(
                f"k-regular degree {self.degree} needs exactly {wanted} "
                f"distinct offsets, got {list(offsets)}"
            )
        if values[0] < 1:
            raise ConfigurationError(
                f"k-regular offsets must be >= 1 (offset 0 is a self-loop), "
                f"got {list(offsets)}"
            )
        if self.num_nodes is not None:
            max_offset = (self.num_nodes - 1) // 2
            if values[-1] > max_offset:
                raise ConfigurationError(
                    f"k-regular offsets must lie in [1, {max_offset}] for "
                    f"{self.num_nodes} nodes (a larger offset repeats a "
                    f"smaller one's neighbors), got {list(offsets)}"
                )
        return np.asarray(values, dtype=np.int64)

    def bind(self, num_nodes: int, rng: np.random.Generator) -> "KRegularTopology":
        num_nodes = int(num_nodes)
        max_offset = (num_nodes - 1) // 2
        wanted = self.degree // 2
        if wanted > max_offset:
            raise ConfigurationError(
                f"k-regular degree {self.degree} needs at least "
                f"{2 * wanted + 1} nodes, got {num_nodes}"
            )
        if self._offsets is not None:
            offsets = self._offsets
        else:
            pool = np.arange(1, max_offset + 1, dtype=np.int64)
            offsets = rng.permutation(pool)[:wanted]
        return KRegularTopology(
            degree=self.degree,
            num_nodes=num_nodes,
            offsets=tuple(int(o) for o in offsets),
        )

    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        n = self._require_bound(node)
        if self._offsets is None:
            raise ConfigurationError(
                "unbound k-regular topology: call bind() first"
            )
        return _circulant_neighbors(node, n, self._offsets)


class ErdosRenyiTopology(Topology):
    """G(n, p): each undirected edge present independently w.p. ``edge_prob``.

    Edges are sampled counter-based — :func:`counter_uniform` keyed on
    the bound entropy and the unordered pair id ``min·n + max`` — so the
    graph is symmetric by construction, pure after bind, and a node's
    whole neighborhood resolves in one vectorized pass.
    """

    name = "erdos-renyi"

    def __init__(
        self,
        edge_prob: float = 0.5,
        num_nodes: int | None = None,
        entropy: int | None = None,
    ):
        if not 0.0 <= float(edge_prob) <= 1.0:
            raise ConfigurationError(
                f"edge_prob must be in [0, 1], got {edge_prob}"
            )
        self.edge_prob = float(edge_prob)
        self.num_nodes = self._check_num_nodes(num_nodes)
        self.entropy = None if entropy is None else int(entropy)

    def bind(
        self, num_nodes: int, rng: np.random.Generator
    ) -> "ErdosRenyiTopology":
        return ErdosRenyiTopology(
            edge_prob=self.edge_prob,
            num_nodes=num_nodes,
            entropy=int(rng.integers(0, 2**63)),
        )

    def _pair_keys(self, node: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        others = np.arange(n, dtype=np.int64)
        others = others[others != int(node)]
        lo = np.minimum(others, int(node)).astype(np.uint64)
        hi = np.maximum(others, int(node)).astype(np.uint64)
        return others, lo * np.uint64(n) + hi

    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        n = self._require_bound(node)
        if self.entropy is None:
            raise ConfigurationError(
                "unbound erdos-renyi topology: call bind() first"
            )
        others, keys = self._pair_keys(node, n)
        return others[counter_uniform(self.entropy, keys) < self.edge_prob]


class TimeVaryingTopology(ErdosRenyiTopology):
    """An Erdős–Rényi graph resampled every ``rewire_period`` rounds.

    Rounds sharing a block ``t // rewire_period`` share a graph; the
    block index is folded into the counter-based edge key, so the whole
    evolving sequence stays a pure function of the bind-time entropy.
    """

    name = "time-varying"

    def __init__(
        self,
        edge_prob: float = 0.5,
        rewire_period: int = 1,
        num_nodes: int | None = None,
        entropy: int | None = None,
    ):
        if int(rewire_period) < 1:
            raise ConfigurationError(
                f"rewire_period must be >= 1, got {rewire_period}"
            )
        super().__init__(
            edge_prob=edge_prob, num_nodes=num_nodes, entropy=entropy
        )
        self.rewire_period = int(rewire_period)

    def bind(
        self, num_nodes: int, rng: np.random.Generator
    ) -> "TimeVaryingTopology":
        return TimeVaryingTopology(
            edge_prob=self.edge_prob,
            rewire_period=self.rewire_period,
            num_nodes=num_nodes,
            entropy=int(rng.integers(0, 2**63)),
        )

    def neighbors(self, node: int, round_index: int) -> np.ndarray:
        n = self._require_bound(node)
        if self.entropy is None:
            raise ConfigurationError(
                "unbound time-varying topology: call bind() first"
            )
        block = int(round_index) // self.rewire_period
        others, keys = self._pair_keys(node, n)
        # Fold the round block into the per-edge counter so each block
        # samples a fresh graph from the same bound entropy.
        block_entropy = (self.entropy + block * int(_SPLITMIX_GAMMA)) & _MASK64
        return others[counter_uniform(block_entropy, keys) < self.edge_prob]
