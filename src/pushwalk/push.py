"""Local push primitives over the reverse and forward residual systems.

Three routines share one bookkeeping idea: maintain an estimate vector ``p``
and a residual vector ``r`` such that an exact identity holds at every step —

* reverse (target ``t``):  pi_s[t] = p[s] + sum_v pi_s[v] * r[v]   for all s
* forward (source ``s``):  pi_s[t] = p[t] + sum_v r[v] * pi_v[t]   for all t

Each push moves mass from ``r`` into ``p`` (scaled by alpha) and spreads the
rest one edge outward, so the identity is preserved while the residual mass
shrinks. Termination leaves every residual below a threshold, which bounds
the estimate error without ever touching the whole graph.

One scalar FIFO loop serves the fixed-threshold, logged and balanced
reverse pushes; the balanced push resumes it at halving thresholds. The
fixed-threshold push has a second gear: whole-vector rounds (every node
over the threshold pushed at once, one ``bincount`` over the graph's edge
arrays per round) once its queue outgrows a fixed fraction of m, as on
popular targets whose push reaches most of the graph.
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
# the largest residual. Push plus walk time over the 22 distinct balanced
# targets of the pair-hot mix (seed 1, one source) was 250 ms at 1/2,
# 255-262 ms at 2/3 and 1/4, 350 ms at 1/3 and 450 ms at 1/8: a deeper
# level overshoots the balance point by more before the rule is checked.
_LEVEL_RATIO = 1 / 2


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
    each seed (in the given order; arguments already validated)."""
    r = SparseVec(dict.fromkeys(seeds, 1.0))
    return _resume_fifo(g, SparseVec(), r, r_max, alpha, 0, 0, log, switch_at)


def _resume_fifo(
    g: Graph, p: SparseVec, r: SparseVec, r_max: float, alpha: float, pushes: int, work: int,
    log, switch_at: float
) -> PushResult:
    """Continue a reverse push from the state (p, r, pushes, work), updating
    p and r in place, until every residual is <= r_max. The queue starts as
    the nodes over r_max in r's order.

    ``log``, when not None, receives (v, r[v]) for every push in push order,
    which is enough to replay the run (pathsampling's provenance ledgers).
    A queue longer than ``switch_at`` hands p and r to _rounds_reverse,
    which keeps no log, so logged runs leave it at infinity.
    """
    queue: deque[int] = deque(v for v, rv in r.items() if rv > r_max)
    queued = set(queue)
    in_adj = g.in_adj
    keep = 1.0 - alpha
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
    resumes the FIFO reverse push at threshold rv/2. The run stops before a
    level once the accumulated deterministic work (in-degree per push, plus
    v's in-degree) would reach the predicted sampling cost c * rv / delta,
    scaled by ``walk_time_constant`` (cost of one walk relative to one work
    unit; defaults to alpha, i.e. about 1/alpha work units per walk).

    achieved_rmax is the largest residual left standing: zero when the
    residuals drain, in which case the estimates are exact.
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
    p = SparseVec()
    r = SparseVec({t: 1.0})
    in_adj = g.in_adj
    pushes = work = 0
    while r:
        v = max(r, key=r.__getitem__)
        rv = r[v]
        cost = walk_time_constant * (work + len(in_adj[v]))
        if math.isnan(cost) or cost >= c * rv / delta:
            return PushResult(p, r, pushes, rv, work)
        done = _resume_fifo(g, p, r, rv * _LEVEL_RATIO, alpha, pushes, work, None, math.inf)
        pushes, work = done.pushes_performed, done.work_units
    return PushResult(p, r, pushes, 0.0, work)


def _check_node(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range for graph with {g.n} nodes")
