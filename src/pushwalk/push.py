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
pushes. The fixed-threshold push has a second gear: whole-vector rounds
(every node over the threshold pushed at once, one ``bincount`` over the
graph's edge arrays per round) once its queue outgrows a fixed fraction of
m, as on popular targets whose push reaches most of the graph. The balanced
push runs in levels of frontier-gathered rounds, each level at a quarter of
the largest residual: a round pushes every node over the level's threshold
at once and reads only those nodes' in-edges from the graph's in-CSR, so
its work is their in-degrees, the FIFO loop's own unit.

The FIFO loops, forward and reverse, touch only the nodes they reach.
Rounds hold dense length-n vectors and scan them every round, so a call
that enters them costs a few passes over n at least. The balanced push
always does, which pays on targets whose push reaches a large share of the
graph; on a target whose push stays small that floor is most of the cost
(see ``reverse_push_balanced``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "SparseVec",
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


@dataclass
class PushResult:
    """Outcome of one push run: estimates, residuals, and work accounting."""

    estimates: SparseVec
    residuals: SparseVec
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
    r > r_max at once. ``pushes_performed`` counts pushed nodes and
    ``work_units`` scanned edges: in-degrees in the loop, m per round.
    Either way each push settles more than alpha*r_max into p, so
    pushes < sum(p)/(alpha*r_max).

    r_max >= 1 returns immediately with p empty and r the unit vector at t.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, t)
    return _fifo_reverse(g, (t,), r_max, alpha, None, g.m * _ROUNDS_FRONTIER)


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
    still holds. A round scans all m edges; the counts continue the FIFO's."""
    n = g.n
    tails, heads, weights = g.edge_arrays
    handed = (1.0 - alpha) * weights
    est = np.zeros(n)
    est[list(p)] = list(p.values())
    res = np.zeros(n)
    res[list(r)] = list(r.values())
    while True:
        pushed = res > r_max
        count = int(np.count_nonzero(pushed))
        if not count:
            break
        moved = np.where(pushed, res, 0.0)
        est += alpha * moved
        res[pushed] = 0.0
        res += np.bincount(tails, weights=handed * moved[heads], minlength=n)
        pushes += count
        work += g.m
    return PushResult(_sparse(est), _sparse(res), pushes, float(res.max()), work)


def _sparse(dense: np.ndarray) -> SparseVec:
    nz = np.flatnonzero(dense)
    return SparseVec(zip(nz.tolist(), dense[nz].tolist()))


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
    the 10k-node ``gen --kind power-law`` graph (delta = 4/n) the hub's push
    takes 2.2 ms and a target of in-degree 0 takes 52 us, which a scalar
    FIFO loop pushes in 4 us; at n = 100k, 21 ms and 0.4 ms (medians on a
    shared 2-core machine).
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
    in_ptr = g.in_csr[0]
    est = np.zeros(g.n)
    res = np.zeros(g.n)
    res[t] = 1.0
    pushes = work = 0
    while True:
        v = int(res.argmax())
        rv = float(res[v])
        if rv == 0.0:
            return PushResult(_sparse(est), SparseVec(), pushes, 0.0, work)
        cost = walk_time_constant * (work + int(in_ptr[v + 1] - in_ptr[v]))
        if math.isnan(cost) or cost >= c * rv / delta:
            return PushResult(_sparse(est), _sparse(res), pushes, rv, work)
        theta = rv * _LEVEL_RATIO
        while (frontier := np.flatnonzero(res > theta)).size:
            work += _gathered_round(g, est, res, frontier, alpha)
            pushes += frontier.size


def _gathered_round(
    g: Graph, est: np.ndarray, res: np.ndarray, frontier: np.ndarray, alpha: float
) -> int:
    """Push every node of ``frontier`` at once on the dense (est, res),
    gathering the frontier's in-edges from the graph's in-CSR. Returns the
    number of edges gathered: the pushed nodes' in-degrees, the FIFO loop's
    work unit."""
    in_ptr, in_tails, in_weights = g.in_csr
    moved = res[frontier]
    res[frontier] = 0.0
    est[frontier] += alpha * moved
    starts = in_ptr[frontier]
    counts = in_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total:
        edges = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
        tails = in_tails[edges]
        handed = (1.0 - alpha) * in_weights[edges] * np.repeat(moved, counts)
        # One scatter path for every round size: with numpy 2.4, add.at beat
        # a dense bincount(minlength=n) at 100 to 40k gathered edges, and
        # the 22 distinct balanced pair-hot targets' pushes took 12.2-12.4
        # ms with add.at alone against 12.7-12.9 ms with bincount alone.
        np.add.at(res, tails, handed)
    return total


def _check_node(g: Graph, v: int) -> None:
    if not isinstance(v, (int, np.integer)):
        raise ValueError(f"node {v!r} is not an integer node id")
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range for graph with {g.n} nodes")
