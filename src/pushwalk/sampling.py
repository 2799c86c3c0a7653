"""Randomness substrate: seeded streams, geometric walks, alias tables.

All estimators draw their randomness through this module so that a single
``--seed`` makes every run reproducible. Walk lengths follow
P[L = l] = (1-alpha)^l * alpha with support {0, 1, ...} — a walk may stop
before taking any step, in which case its endpoint is its start.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "WalkConfig",
    "AliasTable",
    "build_alias",
    "sample_geometric_length",
    "random_walk_path",
    "walk_endpoints",
    "Source",
    "source_of",
]


@dataclass
class WalkConfig:
    """Teleport probability and master seed for a family of walks."""

    alpha: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")

    def stream(self, chunk_start: int = 0) -> np.random.Generator:
        """Independent generator for the walk chunk starting at this index.

        Chunks share no state, so parallel workers can each take a chunk;
        a single-threaded run uses one chunk (start 0) and is bit-for-bit
        reproducible for a fixed seed.
        """
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(chunk_start,))
        )


class AliasTable:
    """O(1) sampling from a fixed discrete distribution (Vose's method)."""

    __slots__ = ("prob", "alias", "payload", "total_weight")

    def __init__(self, items: list, weights: list[float]):
        k = len(weights)
        total = float(sum(weights))
        if k == 0 or total <= 0.0:
            raise ValueError("alias table needs at least one positive weight")
        self.payload = list(items)
        self.total_weight = total
        scaled = [w * k / total for w in weights]
        prob = [0.0] * k
        alias = [0] * k
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for i in large:
            prob[i] = 1.0
        for i in small:
            # Only reachable through floating-point residue; the slot is
            # effectively full.
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias

    def __len__(self) -> int:
        return len(self.payload)

    def sample(self, rng: np.random.Generator):
        k = len(self.prob)
        i = int(rng.integers(k))
        if rng.random() < self.prob[i]:
            return self.payload[i]
        return self.payload[self.alias[i]]

    def sample_many(self, rng: np.random.Generator, count: int) -> list:
        k = len(self.prob)
        idx = rng.integers(k, size=count)
        coin = rng.random(count)
        prob = self.prob
        alias = self.alias
        payload = self.payload
        return [
            payload[i] if coin[j] < prob[i] else payload[alias[i]]
            for j, i in enumerate(idx)
        ]


def build_alias(weighted_items) -> AliasTable:
    """Build an AliasTable from (item, weight >= 0) pairs.

    Zero-weight items are dropped (they must never be sampled); raises
    ValueError when no item has positive weight.
    """
    items = []
    weights = []
    for item, w in weighted_items:
        if w < 0.0:
            raise ValueError(f"negative weight {w!r} for item {item!r}")
        if w > 0.0:
            items.append(item)
            weights.append(float(w))
    if not items:
        raise ValueError("all weights are zero")
    return AliasTable(items, weights)


def sample_geometric_length(cfg: WalkConfig, rng: np.random.Generator) -> int:
    """One draw of L with P[L = l] = (1-alpha)^l * alpha, support {0, 1, ...}."""
    return int(rng.geometric(cfg.alpha)) - 1


class _NodeStepper:
    """Per-graph cache of neighbor arrays for fast weighted stepping."""

    __slots__ = ("neighbors", "cumweights", "uniform")

    def __init__(self, g: Graph):
        self.neighbors: list[list[int]] = []
        self.cumweights: list[list[float] | None] = []
        self.uniform: list[bool] = []
        for u in range(g.n):
            adj = g.out_adj[u]
            nbrs = [v for v, _ in adj]
            self.neighbors.append(nbrs)
            if adj and all(abs(w - adj[0][1]) < 1e-15 for _, w in adj):
                self.cumweights.append(None)  # uniform fast path
                self.uniform.append(True)
            else:
                acc, cum = 0.0, []
                for _, w in adj:
                    acc += w
                    cum.append(acc)
                self.cumweights.append(cum)
                self.uniform.append(False)

    def step(self, u: int, x: float) -> int:
        """Next node from u given a uniform variate x in [0, 1)."""
        nbrs = self.neighbors[u]
        if self.uniform[u]:
            return nbrs[int(x * len(nbrs))]
        cum = self.cumweights[u]
        return nbrs[min(bisect_right(cum, x * cum[-1]), len(nbrs) - 1)]


_stepper_cache: dict[int, tuple[Graph, _NodeStepper]] = {}


def _stepper(g: Graph) -> _NodeStepper:
    cached = _stepper_cache.get(id(g))
    if cached is not None and cached[0] is g:
        return cached[1]
    stepper = _NodeStepper(g)
    _stepper_cache[id(g)] = (g, stepper)
    if len(_stepper_cache) > 64:
        _stepper_cache.pop(next(iter(_stepper_cache)))
    return stepper


class Source:
    """Where walks start: one node, or a distribution over nodes.

    Built by ``source_of``. A node source sets ``node``; a distribution sets
    ``weights``, the caller's weights as a dense array, and ``sigma``, the
    same weights normalized to sum to 1.
    """

    __slots__ = ("n", "node", "weights", "sigma")

    def __init__(self, n: int, node=None, weights=None):
        self.n = n
        self.node = node
        self.weights = weights
        self.sigma = None if weights is None else weights / weights.sum()

    def dot(self, vec) -> float:
        """sum_v sigma[v] * vec[v] over a sparse vec; vec[node] for a node."""
        if self.node is not None:
            return vec.get(self.node, 0.0)
        sigma = self.sigma
        return float(sum(sigma[v] * x for v, x in vec.items()))

    def distribution(self) -> np.ndarray:
        """Dense normalized distribution over the n nodes."""
        if self.node is None:
            return self.sigma
        vec = np.zeros(self.n)
        vec[self.node] = 1.0
        return vec

    def picker(self):
        """An rng -> node callable drawing one walk's start."""
        if self.node is not None:
            node = self.node
            return lambda rng: node
        table = build_alias(enumerate(self.weights))
        return lambda rng: table.sample(rng)


def source_of(g: Graph, source) -> Source:
    """Validate a source given as a node id, a {node: weight} dict or a dense
    length-n array. A node id must lie in [0, n); weights must be
    nonnegative and finite with positive total mass. Raises ValueError.
    """
    if isinstance(source, Source):
        return source

    def check(node) -> int:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < g.n:
            raise ValueError(f"source node {node} out of range for graph with {g.n} nodes")
        return int(node)

    if isinstance(source, (int, np.integer)):
        return Source(g.n, node=check(source))
    if isinstance(source, dict):
        vec = np.zeros(g.n)
        for node, mass in source.items():
            vec[check(node)] = mass
    else:
        vec = np.asarray(source, dtype=float)
        if vec.shape != (g.n,):
            raise ValueError(f"source has shape {vec.shape}, expected ({g.n},)")
    total = vec.sum()
    if not vec.min() >= 0.0 or not 0.0 < total < np.inf:
        raise ValueError("source must be a nonnegative, finite vector with positive mass")
    return Source(g.n, weights=vec)


def random_walk_path(
    g: Graph,
    start: int,
    cfg: WalkConfig,
    fixed_len: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """One walk as a node sequence.

    With ``fixed_len`` the path has exactly fixed_len+1 nodes (fixed-length
    chain mode); otherwise the length is geometric per ``cfg.alpha``. A walk
    stuck at a dangling node stays there (apply the sink convention to avoid
    dangling nodes entirely).
    """
    if rng is None:
        rng = cfg.stream()
    stepper = _stepper(g)
    length = fixed_len if fixed_len is not None else sample_geometric_length(cfg, rng)
    path = [start]
    u = start
    for _ in range(length):
        if not stepper.neighbors[u]:
            path.append(u)
            continue
        u = stepper.step(u, rng.random())
        path.append(u)
    return path


def walk_endpoints(
    g: Graph,
    start,
    count: int,
    cfg: WalkConfig,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Endpoints of ``count`` geometric walks (the Monte Carlo workhorse).

    Lengths are drawn as one vectorized batch; steps then consume the stream
    walk by walk, so results are reproducible for a fixed seed and count.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    if rng is None:
        rng = cfg.stream()
    pick = source_of(g, start).picker()
    stepper = _stepper(g)
    lengths = rng.geometric(cfg.alpha, size=count) - 1
    neighbors = stepper.neighbors
    out: list[int] = []
    rand = rng.random
    step = stepper.step
    for length in lengths:
        u = pick(rng)
        for _ in range(length):
            if not neighbors[u]:
                break
            u = step(u, rand())
        out.append(u)
    return out
