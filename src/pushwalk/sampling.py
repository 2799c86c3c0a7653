"""Randomness substrate: seeded streams, geometric walks, weighted draws.

All estimators draw their randomness through this module so that a single
``--seed`` makes every run reproducible. Walk lengths follow
P[L = l] = (1-alpha)^l * alpha with support {0, 1, ...} — a walk may stop
before taking any step, in which case its endpoint is its start.

Batches of walks step in lockstep: each step moves every live walk at once,
drawing one variate per live walk in a fixed walk order. A batch's draws
therefore depend only on the seed and the walk count, and ``walk_endpoints``
returns the batch's endpoints as one intp array whatever the start form.

Every step reads one slot table (``_WalkTable``), built by the first walk
on a graph: a walk at node v steps on the variate x to slot int(x * c_v) of
v's c_v slots. A node whose out-weights are all equal has one slot per
out-edge, so on an unweighted graph the table is the out-CSR itself. A node
with unequal weights has a power-of-two count of slots, 64-128 per out-edge
(the factor is halved per graph while those slots total more than 4m, so a
table never holds much more than 5m entries), each holding the edge that
the key rule (a ``searchsorted`` over running out-weights) picks for every
variate in the slot. Only a slot split by an edge boundary holds -1, and
only its variates run the key rule. A weighted step thus costs what an
unweighted one costs, and lands where the key rule lands, bit for bit. On
the 10k-node undirected benchmark graph the two uneven hubs hold 32,768
slots (256 KB); at 100k nodes, 131,072 (1 MB).

A single path (``random_walk_path`` from one node, and each walk of the
conditioned-path sampler, which draws its length from one variate and only
when the walk could be accepted) steps by the same table, read in place
through memoryviews, by one helper, ``_one_walk_step``. So does a batch of
at most ``_SMALL_BATCH`` walks, one walk at a time but on the variates
lockstep would give each walk, so its endpoints are the lockstep ones bit
for bit without lockstep's fixed numpy cost per step.
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


# Slots per out-edge of a node with unequal out-weights: node v gets
# K_v = 2^ceil(log2(f * d_v)) slots, f = _SLOT_FACTOR halved while the uneven
# nodes' slots total more than _SLOT_CAP * m, so a table holds at most about
# 5m entries of 8 bytes: at f = 64, 64 * d_v to 128 * d_v slots, 0.5-1 KB per
# out-edge. On the 10k-node undirected benchmark graph only hubs 0 and 1 are
# uneven: 32,768 slots (256 KB), 360 of them split; at 100k nodes they hold
# 131,072 (0.33 m, 1 MB). The hubs split 360 slots at every f, and a split
# slot's walks pay the key rule's searchsorted. Walk-batch time there against
# the key rule's, in-process A/B on a prototype: 0.84-0.97 at f = 4,
# 0.70-0.84 at 16, 0.68-0.81 at 64, 0.67-0.79 at 256 (170k slots in all).
# Batches of 523 and 1,323 walks in separate processes, median of 8
# alternating runs: 0.80 and 0.88 at f = 4, 0.80 and 0.86 at 16, 0.85 and
# 0.82 at 64, 0.73 and 0.81 at 256, run-to-run spread about +-0.1 (numpy
# 2.4, shared 2-core machine).
_SLOT_FACTOR = 64
_SLOT_CAP = 4


class _WalkTable:
    """What a walk step reads besides the graph's CSR arrays, built by the
    first walk and kept on the graph: one slot table, the guide table of
    indexed search (Chen and Asau, 1974).

    Node v's slots are entries slot_ptr[v]:slot_ptr[v] + slot_count[v] of
    ``slot_heads``, and a walk at v steps on the variate x to
    ``slot_heads[slot_ptr[v] + int(x * slot_count[v])]``. A node whose
    out-weights are all equal has one slot per out-edge, holding the edge's
    head, so on a graph with no uneven node the three arrays are
    ``out_ptr[:-1]``, the out-degrees and ``heads`` themselves. A node with
    unequal weights has K_v slots (see ``_SLOT_FACTOR``), a power of two, so
    x * K_v is exact and slot k holds exactly the variates with
    floor(x * K_v) = k. The slot holds the head the key rule picks for every
    such x, or -1 when an edge boundary splits the slot. The key rule: the
    first edge whose key exceeds v + x, clamped to v's last edge, since
    v + x can round up to v + 1. ``keys[e]`` is the tail of edge e plus the
    inclusive running out-weight of its node through e; each node's last key
    is exactly tail + 1, so the keys never decrease along the array. The
    rule is monotone in x, so its picks at k / K_v and at the largest float
    below (k + 1) / K_v decide the slot. Only a split slot's variates run the
    key rule at step time. ``keys`` is None, and no slot is split, on a
    graph with no uneven node.
    """

    __slots__ = ("slot_ptr", "slot_count", "slot_heads", "keys", "split", "dead_ends",
                 "_views")

    def __init__(self, g: Graph):
        tails, heads, weights = g.edge_arrays
        deg = np.diff(g.out_ptr)
        has = deg > 0
        firsts = g.out_ptr[:-1][has]
        spread = np.maximum.reduceat(weights, firsts) - np.minimum.reduceat(weights, firsts)
        uneven = np.zeros(g.n, dtype=bool)
        uneven[has] = spread >= 1e-15 * np.add.reduceat(weights, firsts)  # weighted_draw's tolerance
        self.dead_ends = not has.all()
        self.slot_ptr, self.slot_count, self.slot_heads = g.out_ptr[:-1], deg, heads
        self.keys = None
        self.split = False
        self._views = None
        if uneven.any():
            # each node's running out-weight, capped and ended at exactly 1
            # so that rounding never lets one node's keys pass the next's
            cum = np.cumsum(weights)
            within = cum - np.repeat(cum[firsts] - weights[firsts], deg[has])
            np.minimum(within, 1.0, out=within)
            within[firsts + deg[has] - 1] = 1.0
            self.keys = tails + within
            self.slot_ptr, self.slot_count, self.slot_heads = _slots(g, self.keys, uneven)
            self.split = bool(self.slot_heads.min() < 0)

    def views(self, g: Graph) -> tuple:
        """(slot_ptr, slot_count, slot_heads, out_ptr, heads, keys) for the
        one-walk step, built on its first use: memoryviews of the int arrays,
        whose items read as Python ints without a copy, and ``keys`` as it
        is, for ``bisect_right`` to read in place. On the 10k-node benchmark
        graphs a step on Python lists of the same arrays took 290-310 ns
        against 340-430 ns on memoryviews, but the lists held 1.2 MB on the
        directed graph and 3.2 MB on the undirected one (best of 7,
        ``tracemalloc``; numpy 2.4, shared 2-core machine)."""
        if self._views is None:
            self._views = (memoryview(self.slot_ptr), memoryview(self.slot_count),
                           memoryview(self.slot_heads), memoryview(g.out_ptr),
                           memoryview(g.heads), self.keys)
        return self._views


def _slots(g: Graph, keys: np.ndarray, uneven: np.ndarray) -> tuple:
    """(slot_ptr, slot_count, slot_heads) of ``_WalkTable`` for a graph with
    uneven nodes. An even node's slots are its edges' heads; every slot of
    every uneven node is decided in one pass, by the key rule at the slot's
    two end variates."""
    tails, heads, _ = g.edge_arrays
    ptr = g.out_ptr
    count = np.diff(ptr)
    un = np.flatnonzero(uneven)
    size = np.left_shift(1, np.frexp(count[un] - 1)[1])  # 2^ceil(log2 d_v)
    f = _SLOT_FACTOR
    while f > 1 and f * int(size.sum()) > _SLOT_CAP * g.m:
        f //= 2
    size *= f
    count[un] = size
    slot_ptr = np.zeros(g.n, dtype=np.intp)
    np.cumsum(count[:-1], out=slot_ptr[1:])
    slots = np.empty(int(slot_ptr[-1] + count[-1]), dtype=np.intp)
    even = ~uneven[tails]
    slots[(slot_ptr[tails] - ptr[tails] + np.arange(g.m))[even]] = heads[even]
    v = np.repeat(un, size)  # each uneven slot's node, index k and count K_v
    k = np.arange(v.size) - np.repeat(np.cumsum(size) - size, size)
    kv = np.repeat(size, size)
    last = ptr[v + 1] - 1
    first = np.minimum(np.searchsorted(keys, v + k / kv, side="right"), last)
    below_next = np.nextafter((k + 1) / kv, 0.0)  # the slot's largest variate
    final = np.minimum(np.searchsorted(keys, v + below_next, side="right"), last)
    slots[slot_ptr[v] + k] = np.where(first == final, heads[first], -1)
    return slot_ptr, count, slots


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
    slot_ptr, slot_count, slot_heads, ptr, heads, keys = _walk_table(g).views(g)

    def step(u: int, x: float) -> int:
        c = slot_count[u]
        if not c:
            raise _dead_end(u)
        v = slot_heads[slot_ptr[u] + int(x * c)]
        if v >= 0:
            return v
        lo, hi = ptr[u], ptr[u + 1]  # a split slot: the key rule
        return heads[min(bisect_right(keys, u + x, lo, hi), hi - 1)]

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
    walk, in walk order. A walk at node v steps to slot int(x*c) of v's c
    slots (see ``_WalkTable``); x*c rounds below c for every x < 1, so that
    slot is v's. The walks whose slot is split take the key rule instead.
    ``trail[k + 1]``, when given, records the nodes after step k. A walk
    that must step from a node with no out-edges raises ValueError.
    """
    table = _walk_table(g)
    slot_ptr, slot_count, slot_heads = table.slot_ptr, table.slot_count, table.slot_heads
    for k, count in enumerate(live):
        at = u[:count]
        c = slot_count[at]
        if table.dead_ends and not c.all():
            raise _dead_end(int(at[np.argmin(c)]))
        x = rng.random(count)
        nxt = slot_heads[slot_ptr[at] + (x * c).astype(np.intp)]
        if table.split and count and nxt.min() < 0:
            w = np.flatnonzero(nxt < 0)
            v = at[w]
            hit = np.searchsorted(table.keys, v + x[w], side="right")
            nxt[w] = g.heads[np.minimum(hit, g.out_ptr[v + 1] - 1)]
        at[:] = nxt
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
    if fixed_len is not None:
        _check_count("fixed_len", fixed_len)
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


def _check_count(name: str, value, positive: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a nonnegative
    (or positive) integer, a numpy one too; True is an Integral but no count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < int(positive)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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
    is not 1-D), even when ``count`` is 0, and a ``count`` that is not a
    nonnegative integer (a bool is not one).
    """
    _check_count("count", count)
    src = None
    if isinstance(start, np.ndarray) and np.issubdtype(start.dtype, np.integer):
        _check_starts(g, start)
        if count != len(start):
            raise ValueError(f"count {count} does not match the {len(start)} starts")
    else:
        src = source_of(g, start)
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
