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

``Row`` is the one sparse vector the package hands out: a read-only
(nodes, data) pair of arrays, ascending by node. The FIFO loops, forward
and reverse, touch only the nodes they reach, in plain dicts, and return
them sorted into ``Row``s. Rounds hold dense length-n vectors and return
them as ``DenseVec`` views, the dense kind of ``Row``, so a call that
enters them costs a few passes over n at least. The balanced push always
does, which pays on targets whose push reaches a large share of the graph;
on a target whose push stays small that floor is most of the cost (see
``reverse_push_balanced``). A ``Table`` holds many rows as one CSR, built
by one stable sort by owner. The shared-walk store's per-node tables and
each search index are ``Table``s. The dense floor is also why the scalar
FIFO and forward loops stay for single pushes: on the
10k-node benchmark graphs (shared 2-core machine), numpy frontier rounds
in their place took 48 us per forward push against 7 us and 65 us per
sharded reverse push against 7 us (median), and an array version of the
layered fixed-horizon push ran 1.5-2x slower per sweep.
The shared-walk store, which pushes forward from every node, batches
across sources instead of within one push: ``_forward_all`` runs rounds
over every source's touched entries at once, held as one sorted array of
(source, node) codes, so its rows come out ascending by node. Only
single-source calls (``forward_push``, as ``estimate_ppr_undirected``
makes) stay scalar.

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

A kept balanced push is paid once, but the walks it leaves are paid on
every call that it answers. So once a balanced push's work exceeds m, and
stopping would keep it, its stop test divides the push cost by
``_KEPT_CALLS``, the calls the kept result is balanced against, and the
push goes on to lower levels. Where it stops still depends only on its
arguments, so every hit returns the same object and the same estimates.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import Graph

__all__ = [
    "DenseVec",
    "Row",
    "Table",
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

# Calls a kept balanced push is balanced against. Once a balanced push's
# work exceeds m, stopping would keep its result (see ``_keeping``): the
# push is paid once and its walks on every call, so the stop test divides
# the push cost by this. 16, 64, 256 and 1024 stop the two pair-hot hubs
# 1, 2, 3 and 4 levels deeper than 1 does (achieved_rmax 0.25 / 4^k). On
# the pair-hot benchmark (10k-node power-law graph, delta = 4/n, shared
# 2-core machine) the two hubs' first call took 1.5-1.9 ms at 1 (one call),
# 4.3, 6.6, 9.5 and 12 ms at 16, 64, 256 and 1024, with 4,375, 1,094, 274,
# 69 and 18 walks per call after it; at n = 100k, 12-13, 30-40, 63-66,
# 88-91 and 115-120 ms (43,750 down to 171 walks). A call answered from
# the keep took 1.3 ms at 1 and 0.28 ms at 256 (8.2 and 0.49 ms at 100k).
# A hub key serves about 1,600-1,900 calls per 10 s run. pair-hot seed-1
# queries_per_s, medians of three 10 s runs: 1635 at 1, 2057, 2193, 2373
# and 2306; mean_rel_err 0.0040 at 1, 0.0035, 0.0033, 0.0032 and 0.0031.
# 1024 gains nothing measurable over 256 and costs 30% more when the keep
# never hits, where a hub call at 256 costs about 4x one at 1 (push and
# walks: 90 against 21 ms at 100k).
_KEPT_CALLS = 256


class Row(Mapping):
    """Read-only view of a sparse vector held as a (nodes, data) pair of
    arrays: entries lo:hi of a ``Table``'s ``nodes`` and ``data``, ascending
    by node.

    That order is the order of iteration, ``keys``, ``values`` and
    ``items``, and ``get`` and ``values_at`` find nodes by binary search.
    Missing nodes, and keys that are not integers, read as 0.0. The view
    holds its table and two ints; ``len`` reads no array, and every other
    read goes through ``arrays()``. A ``get`` costs about 2 us against 0.05
    us for a dict lookup (numpy 2.4, shared 2-core machine), so a reader of
    many values reads them with one ``values_at``.
    """

    __slots__ = ("_table", "_lo", "_hi")

    def __init__(self, table: Table, lo: int, hi: int):
        self._table = table
        self._lo = lo
        self._hi = hi

    @staticmethod
    def of(nodes: np.ndarray, data: np.ndarray) -> Row:
        """The entries (nodes[i], data[i]), distinct nodes in any order, as
        a one-row view sorted by node."""
        order = nodes.argsort()
        return Row(Table((0, order.size), nodes[order], data[order]), 0, order.size)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (nodes, data) arrays of the entries, ascending by node."""
        t = self._table
        return t.nodes[self._lo:self._hi], t.data[self._lo:self._hi]

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        """The entries at ``nodes``, 0.0 where there is none."""
        own, data = self.arrays()
        if not own.size:
            return np.zeros(len(nodes))
        i = np.minimum(np.searchsorted(own, nodes), own.size - 1)
        return np.where(own[i] == nodes, data[i], 0.0)

    def max_value(self) -> float:
        return max(self.arrays()[1].tolist(), default=0.0)

    def _pairs(self) -> dict[int, float]:
        nodes, data = self.arrays()
        return dict(zip(nodes.tolist(), data.tolist()))

    def get(self, node, default=0.0):
        if not isinstance(node, (int, np.integer)):
            return default
        nodes, data = self.arrays()
        i = int(np.searchsorted(nodes, node))
        if i < nodes.size and nodes[i] == node:
            return float(data[i])
        return default

    def __getitem__(self, node) -> float:
        return self.get(node, 0.0)

    def __contains__(self, node) -> bool:
        return self.get(node, None) is not None

    def __iter__(self):
        return iter(self.arrays()[0].tolist())

    def __len__(self) -> int:
        return self._hi - self._lo

    def keys(self):
        return self._pairs().keys()

    def items(self):
        return self._pairs().items()

    def values(self):
        return self._pairs().values()


class Table:
    """Many sparse vectors as one read-only CSR: row i is entries
    ptr[i]:ptr[i+1] of ``nodes`` and ``data``, ascending by node, the one
    row order of the package. ``keys`` is None when row i belongs to owner
    i, or else lists the owners of the rows, ascending. Indexing and
    iteration give ``Row`` views, by row number. Pickles hold plain buffers
    and no numpy reference."""

    __slots__ = ("ptr", "nodes", "data", "keys")

    def __init__(self, ptr, nodes, data, keys=None):
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.nodes = np.asarray(nodes, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.keys = None if keys is None else np.asarray(keys, dtype=np.int64)
        for a in (self.ptr, self.nodes, self.data, self.keys):
            if a is not None:
                a.flags.writeable = False

    @classmethod
    def of(cls, owners: np.ndarray, nodes: np.ndarray, data: np.ndarray,
           n: int | None = None) -> Table:
        """The entries, given in any owner order, sorted by owner with one
        stable sort, so entries of one owner keep their order: every caller
        gives each owner's entries ascending by node, and every row comes
        out ascending, as ``Row`` reads it. With ``n`` there is a row for
        every owner in range(n); without, one for each owner that holds
        entries, and ``keys`` lists them."""
        order = np.argsort(owners, kind="stable")
        counts = np.bincount(owners, minlength=n or 0)
        keys = None
        if n is None:
            keys = np.flatnonzero(counts)
            counts = counts[keys]
        return cls(np.append(0, np.cumsum(counts)), nodes[order], data[order], keys)

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __getitem__(self, i) -> Row:
        i = range(len(self))[i]
        return Row(self, int(self.ptr[i]), int(self.ptr[i + 1]))

    def __iter__(self):
        bounds = self.ptr.tolist()
        return map(Row, repeat(self), bounds, bounds[1:])

    def __reduce__(self):
        keys = None if self.keys is None else array("q", self.keys.tobytes())
        return Table, (array("q", self.ptr.tobytes()), array("q", self.nodes.tobytes()),
                       array("d", self.data.tobytes()), keys)


class DenseVec(Row):
    """Read-only view of a dense length-n push vector as a sparse one.

    Its entries are the nonzero nodes in ascending order, found by one
    ``flatnonzero`` each time ``arrays()`` is called; ``Row`` builds the
    iteration, ``keys``, ``values`` and ``items`` on it. The view leaves
    ``Row``'s table slots empty and holds only ``array``, so a kept push
    result costs its arrays and no more however often it is iterated. Reads of single nodes, ``len``,
    ``bool``, ``max_value`` and ``values_at`` go to ``array`` directly.
    ``max_value`` assumes nonnegative entries, as push vectors are.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        nz = np.flatnonzero(self.array)
        return nz, self.array[nz]

    def get(self, node, default=0.0):
        if isinstance(node, (int, np.integer)) and 0 <= node < self.array.size:
            value = self.array[node]
            if value:
                return float(value)
        return default

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __bool__(self) -> bool:
        return bool(self.array.any())

    def max_value(self) -> float:
        return float(self.array.max())

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        return self.array[nodes]


@dataclass(frozen=True)
class PushResult:
    """Outcome of one push run: estimates, residuals, and work accounting.

    The vectors are ``Row``s, ascending by node: sorted from the FIFO loop's
    dicts, or ``DenseVec`` views of the round kernel's arrays. A result may
    be kept on the graph and shared by later calls, so its fields cannot be
    reassigned, and a kept result's arrays are read-only. The counts are
    those of the push that built the result: a call answered from the keep
    returns them unchanged, though it pushed nothing.
    """

    estimates: Row
    residuals: Row
    pushes_performed: int
    achieved_rmax: float
    work_units: int = 0
    degree_sum: float = 0.0

    def residual_mass(self) -> float:
        return sum(self.residuals.arrays()[1].tolist())


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

    r_max >= 1 returns immediately with p empty and r the unit vector at t;
    a NaN r_max raises ``ValueError``.

    A result that finished in rounds after more than m units of work is
    kept on the graph under (t, r_max, alpha), at 16*n bytes, and a later
    call with the same arguments returns it, the same read-only object,
    without pushing (see the module docstring).
    """
    if not r_max > 0.0:  # also NaN
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
    p: dict[int, float] = {}
    r = dict.fromkeys(seeds, 1.0)
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
            r[u] = ru = r.get(u, 0.0) + keep * w * rv
            if ru > r_max and u not in queued:
                queue.append(u)
                queued.add(u)
        p[v] = p.get(v, 0.0) + alpha * rv
        pushes += 1
        work += len(in_adj[v])
        if log is not None:
            log.append((v, rv))
    return PushResult(_row(p), _row(r), pushes, max(r.values(), default=0.0), work)


def _row(entries: dict[int, float]) -> Row:
    """A push loop's scratch dict as a ``Row``, sorted by node."""
    k = len(entries)
    return Row.of(np.fromiter(entries, np.int64, k), np.fromiter(entries.values(), np.float64, k))


def _rounds_reverse(
    g: Graph, p: dict, r: dict, r_max: float, alpha: float, pushes: int, work: int
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
    if not r_max > 0.0:  # also NaN
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, s)
    p: dict[int, float] = {}
    r = {s: 1.0}
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
        p[u] = p.get(u, 0.0) + alpha * ru
        for v, w in out_adj[u]:
            r[v] = rv = r.get(v, 0.0) + keep * w * ru
            if eligible(v, rv) and v not in queued:
                queue.append(v)
                queued.add(v)
        pushes += 1
        work += len(out_adj[u])
        degree_sum += g.degree(u)
    achieved = max(
        (ru / g.degree(u) for u, ru in r.items() if g.degree(u) > 0),
        default=0.0,
    )
    return PushResult(_row(p), _row(r), pushes, achieved, work, degree_sum)


def _forward_all(g: Graph, sources: np.ndarray, r_max: float, alpha: float):
    """A forward push from every node of ``sources`` at once, in rounds
    (arguments already validated).

    Every touched (source row, node) entry is one code row*n + node in one
    sorted array. A round pushes every entry with r/d > r_max (d > 0, as in
    ``forward_push``) at once, sums what lands on each code with
    ``np.unique`` and ``np.bincount``, and inserts the new codes. Each row
    keeps the forward identity, and on return every r[v] <= r_max*d_v.
    Rows never mix and a round pushes a row's entries in node order, so
    each row is bit for bit the push of its source alone. On the 10k-node
    index-serve benchmark graph at its r_max 0.225, all 10k pushes took
    9 ms, against 14 ms for a batch that replays each source's FIFO queue
    and 119 ms for one ``forward_push`` per node; at r_max 0.01, 0.25 s
    against 0.47 and 1.27 s (medians, shared 2-core machine, numpy 2.4).

    Returns (rows, nodes, values) for the estimates and for the residuals:
    source ``sources[i]``'s non-zeros are row i's entries, ascending by node.
    """
    n = g.n
    sources = np.asarray(sources, dtype=np.int64)
    out_ptr, heads, weights = g.out_ptr, g.heads, g.weights
    # r/inf = 0 is never over r_max, which is the "d > 0" half of the test
    degrees = np.where(g.degrees > 0, g.degrees, np.inf)
    codes = np.arange(sources.size) * n + sources  # sorted
    est = np.zeros(sources.size)
    res = np.ones(sources.size)
    while (go := np.flatnonzero(res / degrees[codes % n] > r_max)).size:
        moved = res[go]
        res[go] = 0.0
        est[go] += alpha * moved
        rows, u = np.divmod(codes[go], n)
        starts = out_ptr[u]
        counts = out_ptr[u + 1] - starts
        edges = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        handed = (1.0 - alpha) * weights[edges] * np.repeat(moved, counts)
        landed, inverse = np.unique(np.repeat(rows, counts) * n + heads[edges],
                                    return_inverse=True)
        sums = np.bincount(inverse, weights=handed)
        pos = np.searchsorted(codes, landed)
        held = codes[np.minimum(pos, codes.size - 1)] == landed
        res[pos[held]] += sums[held]
        new = ~held
        codes = np.insert(codes, pos[new], landed[new])
        res = np.insert(res, pos[new], sums[new])
        est = np.insert(est, pos[new], 0.0)
    rows, nodes = np.divmod(codes, n)

    def nonzero(values):
        nz = values != 0.0
        return rows[nz], nodes[nz], values[nz]

    return nonzero(est), nonzero(res)


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
    units per walk; inf stops before the first level). Once the
    accumulated work exceeds m, the result would be kept and serve many
    calls, so the work is divided by ``_KEPT_CALLS`` (256) before the
    comparison. The two hubs of the benchmark graph below then stop three
    levels deeper, at achieved_rmax 0.0039 against 0.25, where the
    source-free walk budget c * achieved_rmax / delta is 69 walks instead of
    4,375; a call whose source has p[s] > delta draws fewer (see
    ``bidir._walk_phase``).

    achieved_rmax is the largest residual left standing: zero when the
    residuals drain, in which case the estimates are exact.

    The dense vectors give every call a floor of a few passes over n. On
    the 10k-node ``gen --kind power-law`` graph (delta = 4/n) the push to
    the top-PageRank node takes 9-10 ms (1.2-1.8 ms when balanced against
    one call) and a target of in-degree 0 takes 26-41 us, which the FIFO
    loop pushes in 4-6 us; at n = 100k, 88-91 ms (9-13 ms) and 0.13-0.21
    ms (medians over repeated calls on a shared 2-core machine, numpy 2.4).

    A result whose work exceeds m is kept on the graph under (t, alpha,
    delta, c, walk_time_constant), with ``None`` resolved to alpha first,
    at 16*n bytes, and a later call with the same arguments returns it, the
    same read-only object, without pushing (see the module docstring). Every
    call that pushes pays the floor above; its counts include the levels
    pushed past the one-call balance point.

    delta and c must be positive and finite, and walk_time_constant
    positive; NaN raises ``ValueError``.
    """
    # `not 0 < x < inf` also rejects NaN
    if not (0.0 < delta < math.inf and 0.0 < c < math.inf):
        raise ValueError("delta and c must be positive and finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if walk_time_constant is None:
        walk_time_constant = alpha
    if not walk_time_constant > 0.0:  # inf is allowed: never push
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
        if work > g.m:  # stopping here would be kept: paid once, served many times
            cost /= _KEPT_CALLS
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
