"""Local push primitives over the reverse and forward residual systems.

Three routines share one bookkeeping idea: maintain an estimate vector ``p``
and a residual vector ``r`` such that an exact identity holds at every step —

* reverse (target ``t``):  pi_s[t] = p[s] + sum_v pi_s[v] * r[v]   for all s
* forward (source ``s``):  pi_s[t] = p[t] + sum_v r[v] * pi_v[t]   for all t

Each push moves mass from ``r`` into ``p`` (scaled by alpha) and spreads the
rest one edge outward, so the identity is preserved while the residual mass
shrinks. Termination leaves every residual below a threshold, which bounds
the estimate error.

One scalar FIFO loop serves the fixed-threshold and logged reverse
pushes. Past that loop there is one dense round kernel: a round pushes
every node over the threshold at once, and chooses by the number of
in-edges those nodes have whether to gather just those edges from the
graph's in-CSR or to scan all m edges with one ``bincount``. Either way
its work is the pushed nodes' in-degrees, the FIFO loop's own unit. The
fixed-threshold push switches to rounds once its queue outgrows a fixed
fraction of m, as on popular targets whose push reaches most of the
graph. The balanced push runs in levels of rounds, each level at a
quarter of the largest residual.

The FIFO loops, forward and reverse, touch only the nodes they reach and
return ``SparseVec`` dicts. Rounds hold dense length-n vectors and return
them as ``DenseVec`` views, so a call that enters them costs a few passes
over n at least. The balanced push always does, which pays on targets
whose push reaches a large share of the graph; on a target whose push
stays small that floor is most of the cost (see ``reverse_push_balanced``).
That floor is also why the scalar FIFO and forward loops stay for single
pushes: on the 10k-node benchmark graphs (shared 2-core machine), numpy
frontier rounds in their place took 48 us per forward push against 7 us
and 65 us per sharded reverse push against 7 us (median), and an array
version of the layered fixed-horizon push ran 1.5-2x slower per sweep.
The shared-walk store, which pushes forward from every node, batches
across sources instead of within one push: ``_forward_all`` steps every
source's FIFO queue together, one queue position per numpy step, and gives
each source ``forward_push``'s dicts bit for bit. Only single-source calls
(``forward_push``, as ``estimate_ppr_undirected`` makes) stay scalar.

Both reverse pushes keep their costly results on the graph
(``Graph.kept_pushes``) and return the kept result, the same object, when
the same push is asked for again. ``reverse_push`` keys on (t, r_max,
alpha) and ``reverse_push_balanced`` on (t, alpha, delta, c,
walk_time_constant). A result is kept only when it came from the rounds
and its work exceeds m: it has cost more than one pass over the graph,
and keeping it costs its two dense arrays, 16*n bytes (160 KB at n =
10k). FIFO results are cheap and never kept. The kept bytes per graph are
bounded by ``_KEEP_BYTES``, least recently used out first. Results are
frozen and a kept result's arrays read-only, so sharing one is safe, and
pushes are deterministic, so every estimate is what a fresh push would
give. A kept result's counts are those of the push that made it. On the
pair-hot benchmark the kept pushes are 90% of the push time (see
``_KEEP_BYTES``); HubPPR (Wang et al., VLDB 2016) and FORA (Wang et al.,
KDD 2017) precompute the reverse pushes of hub targets for the same reason.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "SparseVec",
    "DenseVec",
    "PushResult",
    "reverse_push",
    "forward_push",
    "reverse_push_balanced",
]

# Queue length, as a fraction of m, past which an unlogged reverse push
# switches from the FIFO loop to whole-vector rounds. On the 10k-node
# power-law graph of `pushwalk gen` (m = 20k, r_max 0.0082), reverse pushes
# to the 200 PageRank-quantile targets of the pair-hot mix took 30 s with
# the FIFO loop alone and 0.7-1.0 s at any fraction from 1/50 to 1/5000
# (1.4 s at 1/10; at 1/2 the switch never fires).
_ROUNDS_FRONTIER = 1 / 700

# Each level of the balanced push lowers its threshold to this fraction of
# the largest residual. Over the 22 distinct balanced pair-hot targets
# (seed 1, one source each; medians of 12 repeats on a shared 2-core
# machine), push plus walk time was 42 ms at 1/2 and 1/4, 40-44 ms at 2/3
# and 3/4, and 31-32 ms at 1/3 and 1/8, which stop the hubs lower and halve
# the walk budget, a different cost/accuracy point. At the same budget, 1/4
# leaves less residual variance than 1/2: expected relative error of the
# first 200 queries' balanced estimates 0.0083 against 0.0102 (0.0086 for
# the FIFO levels at 1/2 these replace).
_LEVEL_RATIO = 1 / 4

# Gathered in-edges, as a fraction of m, past which a round scans all m
# edges with one bincount instead of gathering the frontier's in-edges for
# add.at. On the 284 rounds that the 45 distinct pair-hot targets' pushes
# run (10k-node power-law graph, m = 20k; numpy 2.4, best of 5 on a shared
# 2-core machine), the gather cost 28 us at under m/20 edges, 161 us at
# 0.30-0.35 m and 632 us at 0.95-1.0 m, the scan 126, 189 and 309 us; they
# cross near m/3. The 23 fixed-threshold targets' pushes took 20-24 ms at
# 1/4 to 1/2 against 30-33 ms when every round gathers; the 22 balanced
# ones 8-11 ms at any cutoff from 1/8 to 1.
_GATHER_SHARE = 1 / 3

# Bytes of kept push results per graph past which the least recently used
# is dropped. A kept result holds two float64 arrays of n, 16*n bytes. On
# the pair-hot benchmark (10k nodes) six (estimator, target) pairs do more
# than m work; they are 24 of every 63 queries and took 99 of the 110 ms of
# push time in one block (best of 3 per push, shared 2-core machine), and
# kept they take 0.96 MB; index-serve keeps 4 to 7 (0.64-1.1 MB). 4 MiB
# is about four times that working set (26 results at n = 10k) and under a
# tenth of the ~53 MB the pair-hot process peaks at, so a mix of many
# costly keys cannot grow a process by more than that. At n = 100k it
# holds 2 results, so there only the two most recent costly pushes stay.
_KEEP_BYTES = 4 << 20


class SparseVec(dict):
    """Sparse real vector over node ids; missing keys read as 0.0.

    Entries are removed rather than set to zero, so iteration only ever
    visits non-zeros.
    """

    def __missing__(self, key) -> float:
        return 0.0

    def add(self, key: int, delta: float) -> float:
        new = self.get(key, 0.0) + delta
        if new == 0.0:
            self.pop(key, None)
        else:
            self[key] = new
        return new

    def max_value(self) -> float:
        return max(self.values(), default=0.0)

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        """The entries at ``nodes``, 0.0 where there is none."""
        return np.array([self.get(v, 0.0) for v in nodes.tolist()])


class DenseVec(Mapping):
    """Read-only view of a dense length-n push vector as a sparse one.

    Its keys are the nonzero nodes in ascending order, found by one
    ``flatnonzero`` each time the view is iterated. The view holds nothing
    but ``array``, so a kept push result costs its arrays and no more
    however often it is iterated. Reads of single nodes,
    ``len``, ``bool``, ``max_value`` and ``values_at`` go to ``array``
    directly. Missing keys read as 0.0, as in ``SparseVec``. ``max_value``
    assumes nonnegative entries, as push vectors are.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def _nonzeros(self) -> dict[int, float]:
        nz = np.flatnonzero(self.array)
        return dict(zip(nz.tolist(), self.array[nz].tolist()))

    def get(self, node, default=0.0):
        if 0 <= node < self.array.size:
            value = self.array[node]
            if value:
                return float(value)
        return default

    def __getitem__(self, node) -> float:
        return self.get(node, 0.0)

    def __contains__(self, node) -> bool:
        return self.get(node, 0.0) != 0.0

    def __iter__(self):
        return iter(self._nonzeros())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __bool__(self) -> bool:
        return bool(self.array.any())

    def keys(self):
        return self._nonzeros().keys()

    def items(self):
        return self._nonzeros().items()

    def values(self):
        return self._nonzeros().values()

    def max_value(self) -> float:
        return float(self.array.max())

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        """The entries at ``nodes``."""
        return self.array[nodes]


@dataclass(frozen=True)
class PushResult:
    """Outcome of one push run: estimates, residuals, and work accounting.

    The vectors are ``SparseVec`` dicts after a FIFO loop and ``DenseVec``
    views of the round kernel's arrays after rounds; both read alike. A
    result may be kept on the graph and shared by later calls, so its fields
    cannot be reassigned, and a kept result's arrays are read-only. The
    counts are those of the push that built the result: a call answered
    from the keep returns them unchanged, though it pushed nothing.
    """

    estimates: SparseVec | DenseVec
    residuals: SparseVec | DenseVec
    pushes_performed: int
    achieved_rmax: float
    work_units: int = 0
    degree_sum: float = 0.0

    def residual_mass(self) -> float:
        return sum(self.residuals.values())


def reverse_push(g: Graph, t: int, r_max: float, alpha: float) -> PushResult:
    """Drain residuals toward in-neighbors until all fall to <= r_max.

    Starting from a unit residual at the target, repeatedly take any node v
    with r[v] > r_max (strictly), credit alpha*r[v] to p[v], and hand
    (1-alpha)*w(u,v)*r[v] to every in-neighbor u. On return p[s] lower-bounds
    pi_s[t] with additive error at most r_max, for every source s at once.

    The push starts as a FIFO loop and, once its queue holds more than
    m/700 nodes, finishes in whole-vector rounds that push every node with
    r > r_max at once; its vectors are then ``DenseVec`` views.
    ``pushes_performed`` counts pushed nodes and ``work_units`` their
    in-degrees, on either path. Each push settles more than alpha*r_max
    into p, so pushes < sum(p)/(alpha*r_max).

    r_max >= 1 returns immediately with p empty and r the unit vector at t.

    A result that finished in rounds after more than m units of work is
    kept on the graph under (t, r_max, alpha), at 16*n bytes, and a later
    call with the same arguments returns it, the same read-only object,
    without pushing (see the module docstring).
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, t)
    return _keeping(
        g,
        ("fixed", t, r_max, alpha),
        lambda: _fifo_reverse(g, (t,), r_max, alpha, None, g.m * _ROUNDS_FRONTIER),
    )


def _keeping(g: Graph, key: tuple, push) -> PushResult:
    """The result kept on ``g`` under ``key``, else ``push()``'s, which is
    kept if it came from the rounds and did more than m work (see the
    module docstring). A kept result's arrays are set read-only before it
    is returned, and it reports the counts of the push that made it."""
    kept = g.kept_pushes
    res = kept.get(key)
    if res is not None:
        kept.move_to_end(key)
        return res
    res = push()
    if isinstance(res.estimates, DenseVec) and res.work_units > g.m:
        res.estimates.array.flags.writeable = False
        res.residuals.array.flags.writeable = False
        kept[key] = res
        while len(kept) * 16 * g.n > _KEEP_BYTES:
            kept.popitem(last=False)
    return res


def _fifo_reverse(
    g: Graph, seeds, r_max: float, alpha: float, log, switch_at: float = math.inf
) -> PushResult:
    """The FIFO reverse push behind reverse_push, from a unit residual at
    each seed (in the given order; arguments already validated), until
    every residual is <= r_max.

    ``log``, when not None, receives (v, r[v]) for every push in push order,
    which is enough to replay the run (pathsampling's provenance ledgers).
    A queue longer than ``switch_at`` hands p and r to _rounds_reverse,
    which keeps no log, so logged runs leave it at infinity.
    """
    p = SparseVec()
    r = SparseVec(dict.fromkeys(seeds, 1.0))
    queue: deque[int] = deque(v for v, rv in r.items() if rv > r_max)
    queued = set(queue)
    in_adj = g.in_adj
    keep = 1.0 - alpha
    pushes = work = 0
    while queue:
        if len(queue) > switch_at:
            return _rounds_reverse(g, p, r, r_max, alpha, pushes, work)
        v = queue.popleft()
        queued.discard(v)
        rv = r.get(v, 0.0)
        if not rv > r_max:
            continue
        r.pop(v, None)
        for u, w in in_adj[v]:
            if r.add(u, keep * w * rv) > r_max and u not in queued:
                queue.append(u)
                queued.add(u)
        p.add(v, alpha * rv)
        pushes += 1
        work += len(in_adj[v])
        if log is not None:
            log.append((v, rv))
    return PushResult(p, r, pushes, r.max_value(), work)


def _rounds_reverse(
    g: Graph, p: SparseVec, r: SparseVec, r_max: float, alpha: float, pushes: int, work: int
) -> PushResult:
    """Finish a reverse push in whole-vector rounds (PowerPush, Wu et al.,
    SIGMOD 2021): each round pushes every node with r > r_max at once, the
    FIFO loop's own eligibility rule, so pushes < sum(p)/(alpha*r_max)
    still holds. The counts continue the FIFO's."""
    est = np.zeros(g.n)
    est[list(p)] = list(p.values())
    res = np.zeros(g.n)
    res[list(r)] = list(r.values())
    more, more_work = _rounds(g, est, res, r_max, alpha)
    return PushResult(
        DenseVec(est), DenseVec(res), pushes + more, float(res.max()), work + more_work
    )


def forward_push(g: Graph, s: int, r_max: float, alpha: float) -> PushResult:
    """Spread residual along out-edges until r[u]/d_u <= r_max everywhere.

    The degree-scaled threshold (strict >) keeps the touched region local.
    Nodes of degree zero are never pushed; their residual simply remains.
    On return p[t] approximates pi_s[t] with the residual term
    sum_v r[v]*pi_v[t] as the exact correction.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, s)
    p = SparseVec()
    r = SparseVec({s: 1.0})
    queue: deque[int] = deque()
    queued = set()

    def eligible(u: int, ru: float) -> bool:
        d = g.degree(u)
        return d > 0 and ru / d > r_max

    if eligible(s, 1.0):
        queue.append(s)
        queued.add(s)
    out_adj = g.out_adj
    keep = 1.0 - alpha
    pushes = 0
    work = 0
    degree_sum = 0.0
    while queue:
        u = queue.popleft()
        queued.discard(u)
        ru = r.get(u, 0.0)
        if not eligible(u, ru):
            continue
        r.pop(u, None)
        p.add(u, alpha * ru)
        for v, w in out_adj[u]:
            if eligible(v, r.add(v, keep * w * ru)) and v not in queued:
                queue.append(v)
                queued.add(v)
        pushes += 1
        work += len(out_adj[u])
        degree_sum += g.degree(u)
    achieved = max(
        (ru / g.degree(u) for u, ru in r.items() if g.degree(u) > 0),
        default=0.0,
    )
    return PushResult(p, r, pushes, achieved, work, degree_sum)


# One slot per touched (source row, node) in ``_forward_all``: its code
# row*n + node, its estimate and residual, the clock readings at which the
# node last entered the source's estimate and residual keys, and whether it
# is in the source's queue.
_ENTRY = np.dtype([("code", np.int64), ("est", float), ("res", float),
                   ("p_at", np.int64), ("r_at", np.int64), ("queued", bool)])


def _forward_all(g: Graph, sources: np.ndarray, r_max: float, alpha: float):
    """``forward_push`` from every node of ``sources`` at once, bit for bit
    (arguments already validated).

    Step j pops queue position j of every source whose FIFO queue is that
    long. The sources are independent and each pops one node per step, so
    this is each source's own FIFO: the same ``d > 0 and r/d > r_max`` test
    on every node a push hands mass to, the same rule of queueing a node
    only while it is not queued, and the same (1-alpha)*w*r arithmetic. A
    queued node's residual only grows until it is popped, so the scalar
    loop's test at the pop always passes and is not repeated.

    Touched entries get slots in order of first touch and are found by
    code, row*n + node, in one sorted index; a step costs its pushes' edges
    and the index's insertions. On the 10k-node index-serve benchmark graph
    all 10k pushes took 10 ms against 64 ms one call at a time at that
    workload's r_max 0.225, and 0.27 s against 0.65 s at r_max 0.01
    (medians of 5, shared 2-core machine).

    Returns (rows, nodes, values) for the estimates and for the residuals:
    source ``sources[i]``'s non-zeros are the entries of row i, in the key
    order of ``forward_push``'s dicts. That order is kept by stamping each
    entry when its node enters the dict's keys: a residual popped by a push
    and handed mass again, as on a self-loop, moves to the end.
    """
    n = g.n
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.size
    out_ptr, heads, weights = g.out_ptr, g.heads, g.weights
    # r/inf = 0 is never over r_max, which is the "d > 0" half of the test
    degrees = np.where(g.degrees > 0, g.degrees, np.inf)
    keep = 1.0 - alpha
    ent = np.zeros(2 * k + 16, _ENTRY)
    index = np.arange(k) * n + sources  # every code, sorted
    ent["code"][:k] = index
    ent["res"][:k] = 1.0
    ent["queued"][:k] = 1.0 / degrees[sources] > r_max
    used = k
    slots = np.arange(k)  # the slot of each code in the index
    queue = np.flatnonzero(ent["queued"])  # pending slots, any order
    queue_pos = np.zeros(queue.size, np.int64)  # their queue positions
    tail = ent["queued"][:k].astype(np.int64)  # each row's queue length
    clock = 1
    j = 0
    while queue.size:
        due = queue_pos == j  # one slot of each row whose queue is that long
        at = queue[due]
        queue, queue_pos = queue[~due], queue_pos[~due]
        moved = ent["res"][at]
        ent["res"][at] = 0.0
        ent["queued"][at] = False
        was = ent["est"][at]
        ent["est"][at] = was + alpha * moved
        ent["p_at"][at] = np.where(was == 0.0, j, ent["p_at"][at])
        rows, u = np.divmod(ent["code"][at], n)
        starts = out_ptr[u]
        counts = out_ptr[u + 1] - starts
        total = int(counts.sum())
        edges = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
        v = heads[edges]
        handed = keep * weights[edges] * np.repeat(moved, counts)
        erows = np.repeat(rows, counts)
        codes = erows * n + v
        pos = np.searchsorted(index, codes)
        hit = pos < index.size
        hit[hit] = index[pos[hit]] == codes[hit]
        at = np.empty(total, np.int64)
        at[hit] = slots[pos[hit]]
        if not hit.all():
            order = np.argsort(codes[~hit])
            fresh = codes[~hit][order]
            added = np.arange(used, used + fresh.size)
            at[np.flatnonzero(~hit)[order]] = added
            index = np.insert(index, pos[~hit][order], fresh)
            slots = np.insert(slots, pos[~hit][order], added)
            used += fresh.size
            if used > ent.size:
                ent = np.concatenate([ent, np.zeros(used + ent.size, _ENTRY)])
            ent["code"][added] = fresh
        was = ent["res"][at]
        ent["res"][at] = now = was + handed
        ent["r_at"][at] = np.where(was == 0.0, clock + np.arange(total), ent["r_at"][at])
        clock += total
        go = (now / degrees[v] > r_max) & ~ent["queued"][at]
        if go.any():
            ent["queued"][at[go]] = True
            grows = erows[go]  # grouped by row, in edge order within a row
            first = np.flatnonzero(np.r_[True, grows[1:] != grows[:-1]])
            runs = np.diff(np.r_[first, grows.size])
            rank = np.arange(grows.size) - np.repeat(first, runs)
            queue = np.concatenate([queue, at[go]])
            queue_pos = np.concatenate([queue_pos, tail[grows] + rank])
            tail[grows[first]] += runs
        j += 1
    ent = ent[:used]
    rows, nodes = np.divmod(ent["code"], n)

    def ordered(values, stamps):
        nz = values != 0.0
        order = np.lexsort((stamps[nz], rows[nz]))
        return rows[nz][order], nodes[nz][order], values[nz][order]

    return ordered(ent["est"], ent["p_at"]), ordered(ent["res"], ent["r_at"])


def reverse_push_balanced(
    g: Graph,
    t: int,
    alpha: float,
    delta: float,
    c: float = 7.0,
    walk_time_constant: float | None = None,
) -> PushResult:
    """Reverse push run until its cost balances the walks it would save.

    There is no fixed residual threshold. The push runs in levels: each
    takes the largest residual rv (at node v) and, unless the run stops,
    pushes down to threshold rv/4 (``_LEVEL_RATIO``) in gathered rounds. A
    round pushes every node with r > rv/4 at once, collecting their in-edges
    from ``g.in_csr``, until no residual exceeds rv/4. The run stops before
    a level once the accumulated deterministic work (in-degree per push,
    plus v's in-degree) would reach the predicted sampling cost
    c * rv / delta, scaled by ``walk_time_constant`` (cost of one walk
    relative to one work unit; defaults to alpha, i.e. about 1/alpha work
    units per walk).

    achieved_rmax is the largest residual left standing: zero when the
    residuals drain, in which case the estimates are exact.

    The dense vectors give every call a floor of a few passes over n. On
    the 10k-node ``gen --kind power-law`` graph (delta = 4/n) the push to
    the top-PageRank node takes 1.2-1.8 ms and a target of in-degree 0
    takes 26-41 us, which the FIFO loop pushes in 4-6 us; at n = 100k,
    9-13 ms and 0.13-0.21 ms (medians of 15 and 201 calls over two runs on
    a shared 2-core machine, numpy 2.4).

    A result whose work exceeds m is kept on the graph under (t, alpha,
    delta, c, walk_time_constant), with ``None`` resolved to alpha first,
    at 16*n bytes, and a later call with the same arguments returns it, the
    same read-only object, without pushing (see the module docstring). Every
    call that pushes pays the floor above.
    """
    if delta <= 0.0 or c <= 0.0:
        raise ValueError("delta and c must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if walk_time_constant is None:
        walk_time_constant = alpha
    if walk_time_constant <= 0.0:
        raise ValueError("walk_time_constant must be positive")
    _check_node(g, t)
    return _keeping(
        g,
        ("balanced", t, alpha, delta, c, walk_time_constant),
        lambda: _balanced(g, t, alpha, delta, c, walk_time_constant),
    )


def _balanced(
    g: Graph, t: int, alpha: float, delta: float, c: float, walk_time_constant: float
) -> PushResult:
    """The levels of reverse_push_balanced (arguments already validated)."""
    in_ptr = g.in_csr[0]
    est = np.zeros(g.n)
    res = np.zeros(g.n)
    res[t] = 1.0
    pushes = work = 0
    while True:
        v = int(res.argmax())
        rv = float(res[v])
        cost = walk_time_constant * (work + int(in_ptr[v + 1] - in_ptr[v]))
        if rv == 0.0 or math.isnan(cost) or cost >= c * rv / delta:
            return PushResult(DenseVec(est), DenseVec(res), pushes, rv, work)
        more, more_work = _rounds(g, est, res, rv * _LEVEL_RATIO, alpha)
        pushes += more
        work += more_work


def _rounds(
    g: Graph, est: np.ndarray, res: np.ndarray, theta: float, alpha: float
) -> tuple[int, int]:
    """Push the dense (est, res) in rounds until no residual exceeds theta.
    Returns the pushes and the work, in in-degrees, that it took."""
    pushes = work = 0
    while (frontier := np.flatnonzero(res > theta)).size:
        work += _gathered_round(g, est, res, frontier, alpha)
        pushes += frontier.size
    return pushes, work


def _gathered_round(
    g: Graph, est: np.ndarray, res: np.ndarray, frontier: np.ndarray, alpha: float
) -> int:
    """Push every node of ``frontier`` at once on the dense (est, res).

    A frontier with at most m * ``_GATHER_SHARE`` in-edges has them gathered
    from the graph's in-CSR and scattered with ``add.at``; a larger one
    scans all m edges with one ``bincount``. Returns the pushed nodes'
    in-degrees, the FIFO loop's work unit, on both paths."""
    in_ptr, in_tails, in_weights = g.in_csr
    moved = res[frontier]
    res[frontier] = 0.0
    est[frontier] += alpha * moved
    starts = in_ptr[frontier]
    counts = in_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total > g.m * _GATHER_SHARE:
        tails, heads, weights = g.edge_arrays
        handed = np.zeros(g.n)
        handed[frontier] = (1.0 - alpha) * moved
        res += np.bincount(tails, weights=weights * handed[heads], minlength=g.n)
    elif total:
        edges = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
        handed = (1.0 - alpha) * in_weights[edges] * np.repeat(moved, counts)
        np.add.at(res, in_tails[edges], handed)
    return total


def _check_node(g: Graph, v: int) -> None:
    # bool is an int subclass, but numpy reads True as a mask, not as node 1
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"node {v!r} is not an integer node id")
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range for graph with {g.n} nodes")
