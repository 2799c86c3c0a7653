"""Local push primitives over the reverse and forward residual systems.

Three routines share one bookkeeping idea: maintain an estimate vector ``p``
and a residual vector ``r`` such that an exact identity holds at every step —

* reverse (target ``t``):  pi_s[t] = p[s] + sum_v pi_s[v] * r[v]   for all s
* forward (source ``s``):  pi_s[t] = p[t] + sum_v r[v] * pi_v[t]   for all t

Each push moves mass from ``r`` into ``p`` (scaled by alpha) and spreads the
rest one edge outward, so the identity is preserved while the residual mass
shrinks. Termination leaves every residual below a threshold, which bounds
the estimate error.

Every push moves residual in rounds, as power iteration confined to the
nodes near its seed: a round takes every node over the threshold, in
ascending order, zeroes them all, banks alpha*r of each into p, and then
hands (1-alpha)*w*r along each one's rows in order. The fixed-threshold
reverse push drains to r_max; the balanced push runs levels, each a drain
to a quarter of the largest residual; the path samplers' push drains to
eps_r and logs each round. A push's work is the pushed nodes' in-degrees
(out-degrees forward).

Only where a round holds its vectors changes. A reverse push starts on
dicts, which touch only the nodes it reaches and collect the next
frontier as residuals cross the threshold. Once a round's in-edges pass
m * ``_DICT_SHARE`` it moves for good to dense length-n vectors, where a
round gathers the frontier's in-edges from the graph's in-CSR for
``add.at``, or past m * ``_GATHER_SHARE`` in-edges scans all m edges with
one ``bincount``. A dict round adds the gather's terms in the gather's
order, and never runs past m * ``_GATHER_SHARE`` edges, so where a push
changes form never changes its numbers. A push that ends on dicts
returns sorted ``Row``s; one that ends dense, or did more than m work,
``DenseVec`` views, the dense kind of ``Row``. The dense form costs a few
passes over n per round, which small pushes never pay. ``Row`` is the one
sparse vector the package hands out: a read-only (nodes, data) pair of
arrays, ascending by node. A ``Table`` holds many rows as one CSR, built
by one stable sort by owner. The shared-walk store's per-node tables and
each search index are ``Table``s.

Forward pushes run the same rounds over out-rows, pushing u while
r[u]/d_u > r_max and d_u > 0: ``forward_push`` on dicts for one source,
and ``_forward_all`` for every source of the shared-walk store at once,
over one sorted array of (source, node) codes, so its rows come out
ascending by node. Both sum a round's arrivals at a node from 0.0 before
adding them to r, so ``forward_push`` returns the store's row for its
source bit for bit.

Both reverse pushes keep their costly results on the graph
(``Graph.kept_pushes``) and return the kept result, the same object, when
the same push is asked for again. ``reverse_push`` keys on (t, r_max,
alpha) and ``reverse_push_balanced`` on (t, alpha, delta, c,
walk_time_constant). A result is kept only when its work exceeds m (a
push that does that much work always ends dense): it has cost more than
one pass over the graph, and keeping it costs its two dense arrays, 16*n
bytes (160 KB at n = 10k). Results of less work are cheap and never kept.
At most ``_KEEP_RESULTS`` results are kept per graph, least recently used
out first. Results are frozen and a kept result's arrays read-only, so
sharing one is safe, and pushes are deterministic, so every estimate is
what a fresh push would give. A kept result's counts are those of the push
that made it. On the pair-hot benchmark the kept pushes are 90% of the
push time (see ``_KEEP_RESULTS``); HubPPR (Wang et al., VLDB 2016) and
FORA (Wang et al., KDD 2017) precompute the reverse pushes of hub targets
for the same reason.

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

# In-edges of a round, as a fraction of m, past which a reverse push moves
# from dicts to dense vectors for good; at most _GATHER_SHARE, past which
# dense rounds bincount and so sum in another order. Over the distinct
# targets of 200 PageRank quantiles of the pair-hot mix (`pushwalk gen`
# power-law graphs, default r_max, delta = 4/n; per-target best of 9 at 10k
# and of 5 at 100k, shared 2-core machine, numpy 2.4), in ms:
#
#   share              dense  1/2000  1/1000  1/700  1/500  1/300
#   10k  (122) fixed    27.5    26.0    25.3   25.3   25.2   26.2
#              balanced 29.4    27.3    27.2   26.7   26.6   26.9
#   100k (141) fixed     349     374     342    354    360    375
#              balanced  248     242     235    279    249    262
#
# Dicts skip the dense floor on small pushes (the 68-69 fixed ones of under
# 100 work: 4.2 -> 2.0 ms at 10k, 14.0 -> 2.1 ms at 100k); past about m/500
# mid-size ones run faster dense. Sweeps repeated on this machine differ by
# up to 30%: the FIFO loop with its m/700 queue switch and the old
# 32-entry/64-edge balanced rule took 32-41 and 34-47 ms, 357-475 and
# 243-301 ms in two sweeps each.
_DICT_SHARE = 1 / 1000

# Kept push results per graph past which the least recently used is
# dropped. A kept result holds two float64 arrays of n, 16*n bytes, so 8
# hold 8*16*n bytes: 1.3 MB at n = 10k, 12.8 MB at 100k. On the pair-hot
# benchmark (10k nodes) six (estimator, target) pairs do more than m work;
# they are 24 of every 63 queries and took 99 of the 110 ms of push time in
# one block (best of 3 per push, shared 2-core machine). Over set-up plus
# 6,300 queries at seeds 1 and 2, pair-hot kept 6 keys, index-serve 2 to 5
# and diffusion-cold none, so 8 evicts nothing the benchmark keeps, at any
# n; a budget in bytes (4 MiB) held 26 results at 10k but 2 at 100k, where
# pair-hot's four hub keys then evicted each other.
_KEEP_RESULTS = 8

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

    The vectors are ``Row``s, ascending by node: sorted from a push's
    dicts, or ``DenseVec`` views of its dense arrays. A result may
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

    Starting from a unit residual at the target, push in rounds: a round
    takes every node v with r[v] > r_max (strictly), credits alpha*r[v] to
    p[v], and hands (1-alpha)*w(u,v)*r[v] to every in-neighbor u. On return
    p[s] lower-bounds pi_s[t] with additive error at most r_max, for every
    source s at once.

    The rounds run on dicts while small and on dense vectors once a round
    passes the switch rule (``_DICT_SHARE``), with the same numbers bit for
    bit either way. ``pushes_performed`` counts pushed nodes and
    ``work_units`` their in-degrees. Each push settles more than
    alpha*r_max into p, so pushes < sum(p)/(alpha*r_max).

    r_max >= 1 returns immediately with p empty and r the unit vector at t;
    a NaN r_max raises ``ValueError``.

    A result that did more than m units of work is returned as ``DenseVec``
    views and kept on the graph under (t, r_max, alpha), at 16*n bytes, and
    a later call with the same arguments returns it, the same read-only
    object, without pushing (see the module docstring).
    """
    if not r_max > 0.0:  # also NaN
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, t)
    return _keeping(g, ("fixed", t, r_max, alpha), lambda: _fixed(g, (t,), r_max, alpha))


def _keeping(g: Graph, key: tuple, push) -> PushResult:
    """The result kept on ``g`` under ``key``, else ``push()``'s, which is
    kept if it did more than m work, and so ended dense (see the module
    docstring). A kept result's arrays are set read-only before it
    is returned, and it reports the counts of the push that made it."""
    kept = g.kept_pushes
    res = kept.get(key)
    if res is not None:
        kept.move_to_end(key)
        return res
    res = push()
    if res.work_units > g.m:
        res.estimates.array.flags.writeable = False
        res.residuals.array.flags.writeable = False
        kept[key] = res
        if len(kept) > _KEEP_RESULTS:
            kept.popitem(last=False)
    return res


def _fixed(g: Graph, seeds, r_max: float, alpha: float, log=None) -> PushResult:
    """The reverse push to threshold r_max from a unit residual at each seed
    (arguments already validated): reverse_push's, and with a ``log`` the
    path samplers', which stays on dicts (see ``_Reverse.drain``)."""
    push = _Reverse(g, seeds, alpha)
    push.drain(r_max, log)
    return push.result(push.largest()[1])


class _Reverse:
    """One reverse push in rounds: its estimates and residuals, on the dicts
    (p, r) while its rounds are small and on the dense vectors (est, res)
    for good once a round passes the switch rule, and its counts."""

    __slots__ = ("g", "alpha", "p", "r", "est", "res", "pushes", "work")

    def __init__(self, g: Graph, seeds, alpha: float):
        self.g, self.alpha = g, alpha
        self.p: dict[int, float] = {}
        self.r = dict.fromkeys(seeds, 1.0)
        self.est = self.res = None
        self.pushes = self.work = 0

    def largest(self) -> tuple[int, float]:
        """The largest residual's node and value, the lowest node on ties,
        as ``argmax`` breaks them; (0, 0.0) when no residual is left."""
        if self.res is not None:
            v = int(self.res.argmax())
            return v, float(self.res[v])
        rv = max(self.r.values(), default=0.0)
        return min((u for u, x in self.r.items() if x == rv), default=0), rv

    def drain(self, theta: float, log=None) -> None:
        """Push in rounds until no residual exceeds theta.

        A dict round zeroes its whole frontier (ascending), then pushes its
        nodes in order, adding along each in-row in order, as
        ``_gathered_round``'s ``add.at`` adds the gathered edges, and
        collects the next frontier as residuals cross theta. A round whose
        in-edges pass m * ``_DICT_SHARE`` moves the push to the dense
        vectors first, which keeps dict rounds below m * ``_GATHER_SHARE``
        edges, where a dense round would sum in another order. ``log``,
        when not None, receives each round's (frontier, moved residuals),
        enough to replay the push (pathsampling's ledgers), and keeps the
        push on dicts."""
        g, p, r = self.g, self.p, self.r
        if self.res is None:
            in_adj, alpha, keep = g.in_adj, self.alpha, 1.0 - self.alpha
            frontier = sorted(u for u, x in r.items() if x > theta)
            while frontier:
                edges = sum(map(len, map(in_adj.__getitem__, frontier)))
                if log is None and edges > g.m * _DICT_SHARE:
                    self.est, self.res = _dense(g, p), _dense(g, r)
                    break
                moved = [r.pop(v) for v in frontier]
                crossed = set()
                for v, rv in zip(frontier, moved):
                    p[v] = p.get(v, 0.0) + alpha * rv
                    for u, w in in_adj[v]:
                        r[u] = ru = r.get(u, 0.0) + keep * w * rv
                        if ru > theta:
                            crossed.add(u)
                self.pushes += len(frontier)
                self.work += edges
                if log is not None:
                    log.append((frontier, moved))
                frontier = sorted(crossed)
        while self.res is not None and (frontier := np.flatnonzero(self.res > theta)).size:
            self.work += _gathered_round(g, self.est, self.res, frontier, self.alpha)
            self.pushes += frontier.size

    def result(self, achieved: float) -> PushResult:
        """The push as a ``PushResult``: dense views if it ended dense or
        did more than m work (so ``_keeping`` keeps it), else sorted
        ``Row``s of the dicts."""
        if self.res is None and self.work > self.g.m:
            self.est, self.res = _dense(self.g, self.p), _dense(self.g, self.r)
        if self.res is None:
            est, res = _row(self.p), _row(self.r)
        else:
            est, res = DenseVec(self.est), DenseVec(self.res)
        return PushResult(est, res, self.pushes, achieved, self.work)


def _row(entries: dict[int, float]) -> Row:
    """A push's scratch dict as a ``Row``, sorted by node; an entry that
    underflowed to 0.0 is no entry, as in the dense views."""
    if 0.0 in entries.values():
        entries = {u: x for u, x in entries.items() if x}
    k = len(entries)
    return Row.of(np.fromiter(entries, np.int64, k), np.fromiter(entries.values(), np.float64, k))


def forward_push(g: Graph, s: int, r_max: float, alpha: float) -> PushResult:
    """Spread residual along out-edges until r[u]/d_u <= r_max everywhere.

    The degree-scaled threshold (strict >) keeps the touched region local.
    Nodes of degree zero are never pushed; their residual simply remains.
    On return p[t] approximates pi_s[t] with the residual term
    sum_v r[v]*pi_v[t] as the exact correction.

    The push runs in rounds on dicts, as ``_forward_all`` runs them for
    many sources: a round pushes every node over the threshold, in
    ascending order, sums what lands on each node from 0.0, and then adds
    the sums to r, so the result is the shared-walk store's row for s, bit
    for bit.
    """
    if not r_max > 0.0:  # also NaN
        raise ValueError("r_max must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    _check_node(g, s)
    out_adj, degree = g.out_adj, g.degree
    keep = 1.0 - alpha
    p: dict[int, float] = {}
    r = {s: 1.0}
    frontier = [s] if degree(s) > 0 and 1.0 / degree(s) > r_max else []
    pushes = work = 0
    degree_sum = 0.0
    while frontier:
        landed: dict[int, float] = {}
        for u in frontier:
            ru = r.pop(u)
            p[u] = p.get(u, 0.0) + alpha * ru
            for v, w in out_adj[u]:
                landed[v] = landed.get(v, 0.0) + keep * w * ru
            work += len(out_adj[u])
            degree_sum += degree(u)
        pushes += len(frontier)
        frontier = []
        for v, x in landed.items():
            r[v] = rv = r.get(v, 0.0) + x
            if (d := degree(v)) > 0 and rv / d > r_max:
                frontier.append(v)
        frontier.sort()
    achieved = max((ru / degree(u) for u, ru in r.items() if degree(u) > 0), default=0.0)
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
    takes the largest residual rv (at node v, the lowest such node) and,
    unless the run stops, pushes down to threshold rv/4 (``_LEVEL_RATIO``)
    in rounds. A round pushes every node with r > rv/4 at once, along their
    in-edges, until no residual exceeds rv/4. The run stops before
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

    The rounds run on dicts, then dense, under ``reverse_push``'s switch
    rule, with the same entries and counts either way. On the 10k-node
    ``gen --kind power-law`` graph (delta = 4/n) the push to the
    top-PageRank node takes 9-10 ms (1.2-1.8 ms when balanced against one
    call); at n = 100k, 88-91 ms (9-13 ms) (best of 5 or medians over
    repeated calls on a shared 2-core machine, numpy 2.4).

    A result whose work exceeds m is kept on the graph under (t, alpha,
    delta, c, walk_time_constant), with ``None`` resolved to alpha first,
    at 16*n bytes, and a later call with the same arguments returns it, the
    same read-only object, without pushing (see the module docstring). Its
    counts include the levels pushed past the one-call balance point.

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
    """The levels of reverse_push_balanced (arguments already validated),
    each a ``_Reverse.drain`` to a quarter of the largest residual, so the
    push changes form where the fixed-threshold push does and gives the
    same numbers in either form."""
    push = _Reverse(g, (t,), alpha)
    while True:
        v, rv = push.largest()
        cost = walk_time_constant * (push.work + len(g.in_adj[v]))
        if push.work > g.m:  # stopping here would be kept: paid once, served many times
            cost /= _KEPT_CALLS
        if rv == 0.0 or math.isnan(cost) or cost >= c * rv / delta:
            return push.result(rv)
        push.drain(rv * _LEVEL_RATIO)


def _dense(g: Graph, entries: dict[int, float]) -> np.ndarray:
    """A push's scratch dict as a dense length-n vector."""
    vec = np.zeros(g.n)
    vec[list(entries)] = list(entries.values())
    return vec


def _gathered_round(
    g: Graph, est: np.ndarray, res: np.ndarray, frontier: np.ndarray, alpha: float
) -> int:
    """Push every node of ``frontier`` at once on the dense (est, res).

    A frontier with at most m * ``_GATHER_SHARE`` in-edges has them gathered
    from the graph's in-CSR and scattered with ``add.at``; a larger one
    scans all m edges with one ``bincount``. Returns the pushed nodes'
    in-degrees, the push's work unit, on both paths."""
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
    _check_id(v, g.n)


def _check_id(v: int, n: int) -> None:
    # bool is an int subclass, but numpy reads True as a mask, not as node 1
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"node {v!r} is not an integer node id")
    if not 0 <= v < n:
        raise ValueError(f"node {v} out of range for graph with {n} nodes")
