"""Randomness substrate: seeded streams, geometric walks, weighted draws.

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
from .push import _check_node

__all__ = [
    "WalkConfig",
    "WeightedSampler",
    "build_sampler",
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

    def stream(self) -> np.random.Generator:
        """The generator for this seed; bit-for-bit reproducible. The fixed
        spawn key is part of which stream a seed names."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))


class WeightedSampler:
    """Draws one of ``items`` with probability proportional to its weight.

    ``cumweights[i]`` is the running weight total through item i, so a
    uniform variate x in [0, 1) picks the first item whose running total
    exceeds x * total. ``cumweights`` is None when all weights are equal;
    x then indexes the items directly.
    """

    __slots__ = ("items", "cumweights", "total")

    def __init__(self, items, cumweights, total: float):
        self.items = items
        self.cumweights = cumweights
        self.total = total

    def pick(self, x: float):
        """The item drawn by the uniform variate x in [0, 1)."""
        items = self.items
        cum = self.cumweights
        if cum is None:
            return items[int(x * len(items))]
        return items[min(bisect_right(cum, x * self.total), len(items) - 1)]

    def sample(self, rng: np.random.Generator):
        return self.pick(rng.random())

    def sample_many(self, rng: np.random.Generator, count: int) -> list:
        """``count`` draws; the same items as ``pick`` on each of
        ``rng.random(count)``."""
        x = rng.random(count)
        k = len(self.items)
        if self.cumweights is None:
            idx = (x * k).astype(np.intp)
        else:
            idx = np.searchsorted(self.cumweights, x * self.total, side="right")
            np.minimum(idx, k - 1, out=idx)
        items = self.items
        return [items[i] for i in idx]


def build_sampler(weighted_items) -> WeightedSampler:
    """Build a WeightedSampler from (item, weight >= 0) pairs.

    Zero-weight items are dropped (they must never be sampled); raises
    ValueError on a negative weight or when no item has positive weight.
    """
    items = []
    weights = []
    cum = []
    total = 0.0
    for item, w in weighted_items:
        if w < 0.0:
            raise ValueError(f"negative weight {w!r} for item {item!r}")
        if w > 0.0:
            items.append(item)
            weights.append(w)
            total += float(w)
            cum.append(total)
    if not items:
        raise ValueError("all weights are zero")
    if all(abs(w - weights[0]) < 1e-15 * total for w in weights):
        cum = None  # the direct index keeps unweighted walk steps bisect-free
    return WeightedSampler(items, cum, total)


def sample_geometric_length(cfg: WalkConfig, rng: np.random.Generator) -> int:
    """One draw of L with P[L = l] = (1-alpha)^l * alpha, support {0, 1, ...}."""
    return int(rng.geometric(cfg.alpha)) - 1


def _step_samplers(g: Graph) -> list:
    """Per-node samplers over out-neighbors (None for a dangling node),
    built on the first walk and kept on the graph."""
    if g.step_samplers is None:
        g.step_samplers = [build_sampler(adj) if adj else None for adj in g.out_adj]
    return g.step_samplers


def _dead_end(u: int) -> ValueError:
    # pushes and oracles drop the mass at such a node, so walks must not count it
    return ValueError(f"walk must step from node {u}, which has no out-edges")


class Source:
    """Where walks start: one node, or a distribution over nodes.

    Built by ``source_of``. A node source sets ``node``; a distribution sets
    ``sigma``, the caller's weights as a dense array normalized to sum to 1.
    """

    __slots__ = ("n", "node", "sigma")

    def __init__(self, n: int, node=None, weights=None):
        self.n = n
        self.node = node
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

    def starts(self, rng: np.random.Generator, count: int) -> list[int]:
        """Start nodes of ``count`` walks; a node source draws nothing."""
        if self.node is not None:
            return [self.node] * count
        nodes = np.flatnonzero(self.sigma)
        return build_sampler(zip(nodes.tolist(), self.sigma[nodes])).sample_many(rng, count)


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
    that must step from a node with no out-edges raises ValueError (apply
    the sink convention to avoid such nodes entirely). A start outside
    [0, n) raises ValueError.
    """
    _check_node(g, start)
    if rng is None:
        rng = cfg.stream()
    samplers = _step_samplers(g)
    length = fixed_len if fixed_len is not None else sample_geometric_length(cfg, rng)
    path = [start]
    u = start
    for _ in range(length):
        sampler = samplers[u]
        if sampler is None:
            raise _dead_end(u)
        u = sampler.pick(rng.random())
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
    A walk that must step from a node with no out-edges raises ValueError,
    as does a bad ``start`` (see source_of), even when ``count`` is 0.
    """
    src = source_of(g, start)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    if rng is None:
        rng = cfg.stream()
    samplers = _step_samplers(g)
    lengths = rng.geometric(cfg.alpha, size=count) - 1
    out: list[int] = []
    rand = rng.random
    for u, length in zip(src.starts(rng, count), lengths):
        for _ in range(length):
            sampler = samplers[u]
            if sampler is None:
                raise _dead_end(u)
            u = sampler.pick(rand())
        out.append(u)
    return out
