"""Randomness substrate: seeded streams, geometric walks, weighted draws.

All estimators draw their randomness through this module so that a single
``--seed`` makes every run reproducible. Walk lengths follow
P[L = l] = (1-alpha)^l * alpha with support {0, 1, ...} — a walk may stop
before taking any step, in which case its endpoint is its start.

Batches of walks step in lockstep: each step moves every live walk at once,
drawing one variate per live walk in a fixed walk order, over the graph's
out-adjacency CSR arrays and a table of per-node step keys that the first
walk builds from them. A batch's draws therefore depend only on the seed and
the walk count, and ``walk_endpoints`` returns the batch's endpoints as one
intp array whatever the start form. A single path (``random_walk_path`` from
one node, and each walk of the conditioned-path sampler, which draws its
length from one variate and only when the walk could be accepted) steps by
the same rule, read in place through memoryviews of the same arrays, by one
helper, ``_one_walk_step``. So does a batch of at most ``_SMALL_BATCH``
walks, one walk at a time but on the variates lockstep would give each
walk, so its endpoints are the lockstep ones bit for bit without
lockstep's fixed numpy cost per step.
Weighted draws (distribution starts, sampled search targets, bench pairs)
are one ``cumsum`` and one ``searchsorted`` over weights: ``weighted_draw``.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .push import _check_node

__all__ = [
    "WalkConfig",
    "weighted_draw",
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


def weighted_draw(weights, rng: np.random.Generator, count: int) -> np.ndarray:
    """Indices of ``count`` draws from a 1-D array of weights, each index
    with probability proportional to its weight.

    The draw takes ``rng.random(count)``; a variate x picks the first
    positive weight whose running total exceeds x times the total, so zero
    weights are never drawn. When all positive weights are equal, x indexes
    them directly by int(x * k). Raises ValueError on a weight that is
    negative or not finite, and when no weight is positive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be a 1-D array")
    if not np.isfinite(weights).all() or (weights < 0.0).any():
        raise ValueError("weights must be nonnegative and finite")
    live = np.flatnonzero(weights)
    if not live.size:
        raise ValueError("all weights are zero")
    w = weights[live]
    cum = np.cumsum(w)  # adds in item order, one running total
    x = rng.random(count)
    if (np.abs(w - w[0]) < 1e-15 * cum[-1]).all():
        return live[(x * live.size).astype(np.intp)]
    picks = np.searchsorted(cum, x * cum[-1], side="right")
    return live[np.minimum(picks, live.size - 1)]


def sample_geometric_length(cfg: WalkConfig, rng: np.random.Generator) -> int:
    """One draw of L with P[L = l] = (1-alpha)^l * alpha, support {0, 1, ...}."""
    return int(rng.geometric(cfg.alpha)) - 1


# Walk batches of at most this many walks step one walk at a time in Python
# (``_walk_one_by_one``); larger ones step in numpy lockstep, whose sort,
# bincount and 8 numpy calls per step cost more than a few walks' steps. On
# the 10k-node benchmark graphs, directed and undirected, a batch from one
# node took 10-15 us one at a time against 32-40 us in lockstep for 1 walk,
# 37-62 against 92-109 us for 16, 71-105 against 117-126 us for 32, and
# 95-143 against 128-131 us for 48 (best of 5, numpy 2.4, shared 2-core
# machine). Both forms draw the same variates, so the cutoff moves no walk.
_SMALL_BATCH = 32


class _WalkTable:
    """What a walk step reads besides the graph's CSR arrays, built by the
    first walk and kept on the graph.

    Node u's out-edges are entries out_ptr[u]:out_ptr[u] + deg[u] of
    ``Graph.heads``. ``uneven[u]`` says that u's out-weights are not all
    equal, which holds on no node of an unweighted graph. On a graph with
    uneven nodes, ``keys[e]`` is the tail of edge e plus the inclusive
    running out-weight of its node through e; each node's last key is
    exactly tail + 1, so the keys never decrease along the array. Otherwise
    ``keys`` is None: no step reads it.
    """

    __slots__ = ("deg", "keys", "uneven", "dead_ends", "_views")

    def __init__(self, g: Graph):
        tails, _, weights = g.edge_arrays
        deg = np.diff(g.out_ptr)
        has = deg > 0
        firsts = g.out_ptr[:-1][has]
        spread = np.maximum.reduceat(weights, firsts) - np.minimum.reduceat(weights, firsts)
        uneven = np.zeros(g.n, dtype=bool)
        uneven[has] = spread >= 1e-15 * np.add.reduceat(weights, firsts)  # weighted_draw's tolerance
        self.deg = deg
        self.uneven = uneven
        self.dead_ends = not has.all()
        self.keys = None
        if uneven.any():
            # each node's running out-weight, capped and ended at exactly 1
            # so that rounding never lets one node's keys pass the next's
            cum = np.cumsum(weights)
            within = cum - np.repeat(cum[firsts] - weights[firsts], deg[has])
            np.minimum(within, 1.0, out=within)
            within[firsts + deg[has] - 1] = 1.0
            self.keys = tails + within
        self._views = None

    def views(self, g: Graph) -> tuple:
        """(out_ptr, deg, heads, keys, uneven) for the one-walk step, built
        on its first use: memoryviews of the int arrays, whose items read as
        Python ints without a copy, ``keys`` as it is, for ``bisect_right``
        to read in place, and ``uneven`` as the set of uneven nodes. On the
        10k-node benchmark graphs a step on Python lists of the same arrays
        took 290-310 ns against 340-430 ns here, but the lists held 1.2 MB
        on the directed graph and 3.2 MB on the undirected one, 1.2 MB of it
        ``keys``, which only that graph's 2 uneven nodes read (best of 7,
        ``tracemalloc``; numpy 2.4, shared 2-core machine)."""
        if self._views is None:
            uneven = frozenset(np.flatnonzero(self.uneven).tolist())
            self._views = (memoryview(g.out_ptr), memoryview(self.deg), memoryview(g.heads),
                           self.keys, uneven)
        return self._views


def _walk_table(g: Graph) -> _WalkTable:
    if g.walk_table is None:
        g.walk_table = _WalkTable(g)
    return g.walk_table


def _dead_end(u: int) -> ValueError:
    # pushes and oracles drop the mass at such a node, so walks must not count it
    return ValueError(f"walk must step from node {u}, which has no out-edges")


def _one_walk_step(g: Graph):
    """``_lockstep``'s rule for one walk, on the table's views: the
    returned step(u, x) is the node after u under the uniform variate x in
    [0, 1). Stepping from a node with no out-edges raises ValueError."""
    ptr, deg, heads, keys, uneven = _walk_table(g).views(g)

    def step(u: int, x: float) -> int:
        d = deg[u]
        if not d:
            raise _dead_end(u)
        lo = ptr[u]
        if u in uneven:
            return heads[min(bisect_right(keys, u + x, lo, lo + d), lo + d - 1)]
        return heads[lo + int(x * d)]

    return step


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

    def starts(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Start nodes of ``count`` walks; a node source draws nothing."""
        if self.node is not None:
            return np.full(count, self.node, dtype=np.intp)
        return weighted_draw(self.sigma, rng, count)


def source_of(g: Graph, source) -> Source:
    """Validate a source given as a node id, a {node: weight} dict or a dense
    length-n array. A node id must be an int or numpy integer, not a bool,
    in [0, n); weights must be nonnegative and finite with positive total
    mass. Raises ValueError.
    """
    if isinstance(source, Source):
        return source

    def check(node) -> int:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise ValueError(f"source node {node!r} is not an integer node id")
        if not 0 <= node < g.n:
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


def _lockstep(
    g: Graph,
    u: np.ndarray,
    live: list[int],
    rng: np.random.Generator,
    trail: np.ndarray | None = None,
) -> None:
    """Step the walks standing at ``u`` in place, all at once.

    Step k moves the first live[k] walks (the caller orders them longest
    first, so the live walks are a prefix) and draws one variate x per live
    walk, in walk order. A walk at node v with d out-edges steps to edge
    ptr[v] + int(x*d) when v's out-weights are all equal; x*d rounds below d
    for every x < 1, so that index stays in v's slice. Otherwise it takes
    the first edge whose key exceeds v + x, clamped to v's last edge, since
    v + x can round up to v + 1. ``trail[k + 1]``, when given, records the
    nodes after step k. A walk that must step from a node with no out-edges
    raises ValueError.
    """
    table = _walk_table(g)
    ptr, deg, heads = g.out_ptr, table.deg, g.heads
    for k, count in enumerate(live):
        at = u[:count]
        d = deg[at]
        if table.dead_ends and not d.all():
            raise _dead_end(int(at[np.argmin(d)]))
        x = rng.random(count)
        lo = ptr[at]
        e = lo + (x * d).astype(np.intp)
        if table.keys is not None:
            w = np.flatnonzero(table.uneven[at])
            if w.size:
                hit = np.searchsorted(table.keys, at[w] + x[w], side="right")
                e[w] = np.minimum(hit, lo[w] + d[w] - 1)
        at[:] = heads[e]
        if trail is not None:
            trail[k + 1] = u


def random_walk_path(
    g: Graph,
    start,
    cfg: WalkConfig,
    fixed_len: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int] | np.ndarray:
    """One walk as a node list, or a batch of fixed-length walks as an array.

    With an integer ``start`` this returns one walk as a list of nodes: with
    ``fixed_len`` it has exactly fixed_len+1 nodes (fixed-length chain
    mode); otherwise its length is geometric per ``cfg.alpha``. Each step
    draws one variate.

    With a 1-D integer array of starts and ``fixed_len``, it returns a
    (len(starts), fixed_len+1) array whose row i is the walk from
    starts[i], all walks stepped in lockstep: step k draws one variate per
    walk, in row order, so the paths are deterministic per seed and count.

    A walk that must step from a node with no out-edges raises ValueError
    (apply the sink convention to avoid such nodes entirely). A start
    outside [0, n), a non-integer array, an array without ``fixed_len``, or
    a ``fixed_len`` that is not a nonnegative integer raises ValueError.
    """
    if fixed_len is not None and (isinstance(fixed_len, bool)  # True is an Integral too
                                  or not isinstance(fixed_len, numbers.Integral) or fixed_len < 0):
        raise ValueError(f"fixed_len must be a nonnegative integer, got {fixed_len!r}")
    if isinstance(start, np.ndarray):
        if fixed_len is None:
            raise ValueError("an array of starts needs fixed_len")
        _check_starts(g, start)
        if rng is None:
            rng = cfg.stream()
        trail = np.empty((fixed_len + 1, len(start)), dtype=np.intp)
        trail[0] = start
        _lockstep(g, trail[0].copy(), [len(start)] * fixed_len, rng, trail)
        return trail.T
    _check_node(g, start)
    if rng is None:
        rng = cfg.stream()
    length = fixed_len if fixed_len is not None else sample_geometric_length(cfg, rng)
    step = _one_walk_step(g)
    rand = rng.random
    u = int(start)
    path = [u]
    for _ in range(length):
        u = step(u, rand())
        path.append(u)
    return path


def _check_starts(g: Graph, starts: np.ndarray) -> None:
    if starts.ndim != 1 or not np.issubdtype(starts.dtype, np.integer):
        raise ValueError(f"starts must be a 1-D integer array, got {starts.dtype} "
                         f"with shape {starts.shape}")
    bad = (starts < 0) | (starts >= g.n)
    if bad.any():
        raise ValueError(f"node {starts[bad][0]} out of range for graph with {g.n} nodes")


def walk_endpoints(
    g: Graph,
    start,
    count: int,
    cfg: WalkConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Endpoints of ``count`` geometric walks (the Monte Carlo workhorse),
    as an intp array of length ``count``.

    ``start`` is a node, a distribution (a {node: weight} dict or a dense
    float array; see source_of), or a 1-D integer array of start nodes, one
    walk per entry; an array of starts needs ``count == len(start)``, and
    the endpoints are aligned with it. A node source and an array holding
    that node ``count`` times draw the same walks.

    The lengths are drawn as one batch, then the start nodes (for a
    distribution source), then every walk steps in lockstep: walks are
    ordered longest first, and step k draws one variate for each walk still
    live (a batch of at most ``_SMALL_BATCH`` walks takes the same variates
    and steps one walk at a time). Results are deterministic per seed and
    count, and come back in the order the lengths were drawn. A walk that
    must step from a node with no out-edges raises ValueError, as does a bad
    ``start`` (see source_of; an array entry outside [0, n) or an array that
    is not 1-D), even when ``count`` is 0.
    """
    src = None
    if isinstance(start, np.ndarray) and np.issubdtype(start.dtype, np.integer):
        _check_starts(g, start)
        if count != len(start):
            raise ValueError(f"count {count} does not match the {len(start)} starts")
    else:
        src = source_of(g, start)
        if count < 0:
            raise ValueError("count must be nonnegative")
    if rng is None:
        rng = cfg.stream()
    lengths = rng.geometric(cfg.alpha, size=count) - 1
    starts = np.asarray(start, dtype=np.intp) if src is None else src.starts(rng, count)
    if count <= _SMALL_BATCH:
        return _walk_one_by_one(g, starts, lengths, rng)
    # Longest first, ties in draw order: a stable sort on the narrowest
    # unsigned key, which numpy radix-sorts.
    top = lengths.max(initial=0)
    order = np.argsort((top - lengths).astype(np.min_scalar_type(top)), kind="stable")
    u = starts[order]
    live = count - np.cumsum(np.bincount(lengths, minlength=1)[:-1])
    _lockstep(g, u, live.tolist(), rng)
    ends = np.empty_like(u)
    ends[order] = u
    return ends


def _walk_one_by_one(g: Graph, starts: np.ndarray, lengths: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """``walk_endpoints``' lockstep walks, stepped one at a time by
    ``_one_walk_step``: the same longest-first stable order, and every step's
    variates from one block in ``_lockstep``'s step-major order, so each walk
    steps on the variate it gets there and lands on the same node."""
    lens = lengths.tolist()
    order = sorted(range(len(lens)), key=lens.__getitem__, reverse=True)  # stable
    at = starts[order].tolist()
    total = sum(lens)
    if total:
        step = _one_walk_step(g)
        x = iter(rng.random(total).tolist()).__next__
        live = len(at)
        for k in range(lens[order[0]]):
            while lens[order[live - 1]] <= k:
                live -= 1
            for i in range(live):
                at[i] = step(at[i], x())
    ends = np.empty(len(at), dtype=np.intp)
    ends[order] = at
    return ends
