"""In-process simulation of a sharded precomputation/serving deployment.

Score vectors live in 2n coordinates, and coordinate c lives on shard
c mod k of k shards. A query's dot product decomposes into per-shard
partial sums, which the broker combines in shard-id order.
Partials are carried as exact dyadic rationals (every float is one), so the
combined result is bit-identical to the unsharded dot product no matter how
the coordinates were split.

The walk-sharing store answers the "how many walks must we precompute"
problem: instead of w walks from every node, store a few walks per node
plus each node's forward-push residuals, and synthesize a source's walk
distribution from its residual-weighted neighborhood at query time.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import push
from .graph import Graph
from .push import PushResult, _check_node, _forward_all, reverse_push
from .sampling import WalkConfig, walk_endpoints

# The store pushes through _forward_all and calls forward_push no more, but
# perfbench/spans.py wraps ``pushwalk.sharding.forward_push`` by name to
# trace pushes, so the name stays bound here.
forward_push = push.forward_push

__all__ = [
    "Shard",
    "BrokerQuery",
    "shard_vectors",
    "reassemble",
    "exact_dot",
    "broker_estimate",
    "SharedWalkParams",
    "SharedWalkStore",
    "build_shared_walk_vectors",
    "query_shared_walks",
    "storage_model",
    "storage_report",
    "StorageReport",
    "variable_delta_r_max",
]


@dataclass
class Shard:
    """One server's slice: every vector restricted to coordinates it owns."""

    shard_id: int
    k: int
    entries: dict = field(default_factory=dict)  # owner key -> {coord: value}
    owners: set = field(default_factory=set)  # every vector key, shared by all shards

    def partial_dot(self, query: "BrokerQuery") -> Fraction:
        """Exact partial sum of the query's dot product over local coords."""
        y = self.entries.get(query.target, {})
        total = Fraction(0)
        payload = {query.source: 1.0} if query.payload is None else query.payload
        for owner, weight in payload.items():
            for coord, xv in self.entries.get(owner, {}).items():
                yv = y.get(coord)
                if yv is not None:
                    total += Fraction(weight * xv * yv)
        return total


@dataclass
class BrokerQuery:
    """Either a (source, target) pair or a target plus a residual payload
    broadcast to every shard (walk-sharing mode)."""

    target: object
    source: object | None = None
    payload: dict | None = None


def shard_vectors(vectors: dict, k: int) -> list[Shard]:
    """Partition every vector's coordinates across k shards, coordinate c
    to shard c mod k. Lossless: each coordinate lands on exactly one shard
    and reassemble() rebuilds the input. All shards share one ``owners``
    set holding every vector key."""
    if k < 1:
        raise ValueError("k must be at least 1")
    owners = set(vectors)
    shards = [Shard(i, k, owners=owners) for i in range(k)]
    for owner, vec in vectors.items():
        for coord, val in vec.items():
            shards[coord % k].entries.setdefault(owner, {})[coord] = val
    return shards


def reassemble(shards: list[Shard]) -> dict:
    out: dict = {}
    for shard in sorted(shards, key=lambda s: s.shard_id):
        for owner in shard.owners:
            out.setdefault(owner, {})
        for owner, vec in shard.entries.items():
            out.setdefault(owner, {}).update(vec)
    return out


def exact_dot(x: dict, y: dict) -> float:
    """Reference dot product with exact accumulation of the float products."""
    total = Fraction(0)
    for coord, xv in x.items():
        yv = y.get(coord)
        if yv is not None:
            total += Fraction(xv * yv)
    return float(total)


def broker_estimate(query: BrokerQuery, shards: list[Shard]) -> float:
    """Sum of per-shard partials, combined in shard-id order.

    Because partials are exact rationals, the result equals the unsharded
    dot product exactly for every shard count.
    """
    keys = [query.target] if query.payload is not None else [query.target, query.source]
    for key in keys:
        if not any(key in shard.owners for shard in shards):
            raise KeyError(f"unknown vector {key!r}")
    total = Fraction(0)
    for shard in sorted(shards, key=lambda sh: sh.shard_id):
        total += shard.partial_dot(query)
    return float(total)


# ---------------------------------------------------------------------------
# Walk sharing


@dataclass
class SharedWalkParams:
    """Cost constants of the three storage ingredients.

    c1 scales walk counts, c2 reverse-residual storage, c3 forward-residual
    storage. The cube-root thresholds equalize the three terms' growth:
    r_max_r = (c2^2 d / (c1 c3))^(1/3), r_max_f = (c3^2 d / (c1 c2))^(1/3),
    and each shared node stores n_w = c1 * r_max_f * r_max_r / d walks.
    """

    c1: float = 7.0
    c2: float = 0.5
    c3: float = 10.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def r_max_r(self, delta: float) -> float:
        return (self.c2**2 * delta / (self.c1 * self.c3)) ** (1.0 / 3.0)

    def r_max_f(self, delta: float) -> float:
        return (self.c3**2 * delta / (self.c1 * self.c2)) ** (1.0 / 3.0)

    def shared_walks(self, delta: float) -> int:
        return max(1, math.ceil(self.c1 * self.r_max_f(delta) * self.r_max_r(delta) / delta))

    def full_walks(self, delta: float) -> int:
        return max(1, math.ceil(self.c1 * self.r_max_r(delta) / delta))


class _Row(Mapping):
    """Read-only view of one store row as a sparse vector: entries lo:hi of
    its table, whose ``nodes`` and ``data`` are in stored order, which is
    also the order of iteration, ``keys``, ``values`` and ``items``. Missing
    nodes read as 0.0, as in ``SparseVec``. ``len`` reads no array."""

    __slots__ = ("_table", "_lo", "_hi")

    def __init__(self, table: _Rows, lo: int, hi: int):
        self._table = table
        self._lo = lo
        self._hi = hi

    @property
    def nodes(self) -> np.ndarray:
        return self._table.nodes[self._lo:self._hi]

    @property
    def data(self) -> np.ndarray:
        return self._table.data[self._lo:self._hi]

    def _pairs(self) -> dict[int, float]:
        return dict(zip(self.nodes.tolist(), self.data.tolist()))

    def get(self, node, default=0.0):
        try:
            i = self.nodes.tolist().index(node)
        except ValueError:
            return default
        return float(self.data[i])

    def __getitem__(self, node) -> float:
        return self.get(node, 0.0)

    def __contains__(self, node) -> bool:
        return node in self.nodes.tolist()

    def __iter__(self):
        return iter(self.nodes.tolist())

    def __len__(self) -> int:
        return self._hi - self._lo

    def keys(self):
        return self._pairs().keys()

    def items(self):
        return self._pairs().items()

    def values(self):
        return self._pairs().values()


class _Rows:
    """One per-node table of the store as CSR: node v's row is entries
    ptr[v]:ptr[v+1] of ``nodes`` and ``data``. Indexing and iteration give
    ``_Row`` views. Pickles hold plain buffers and no numpy reference."""

    __slots__ = ("ptr", "nodes", "data")

    def __init__(self, ptr, nodes, data):
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.nodes = np.asarray(nodes, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)

    @classmethod
    def of(cls, n: int, owners: np.ndarray, nodes: np.ndarray, data: np.ndarray) -> _Rows:
        """Rows of n nodes from entries in any owner order; entries of one
        owner keep their order."""
        order = np.argsort(owners, kind="stable")
        ptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(owners, minlength=n), out=ptr[1:])
        return cls(ptr, nodes[order], data[order])

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __getitem__(self, v) -> _Row:
        v = range(len(self))[v]
        return _Row(self, int(self.ptr[v]), int(self.ptr[v + 1]))

    def __iter__(self):
        bounds = self.ptr.tolist()
        return map(_Row, repeat(self), bounds, bounds[1:])

    def __reduce__(self):
        return _Rows, (array("q", self.ptr.tobytes()), array("q", self.nodes.tobytes()),
                       array("d", self.data.tobytes()))


@dataclass
class SharedWalkStore:
    """Per-node stored walks plus per-node forward push results.

    ``endpoint_freqs``, ``fwd_estimates`` and ``fwd_residuals`` are CSR
    tables (``_Rows``); ``store.fwd_residuals[v]`` reads node v's row as a
    read-only mapping, in the key order that ``forward_push``'s dicts have.
    """

    alpha: float
    delta: float
    d_max: float
    params: SharedWalkParams
    r_max_f: float
    r_max_r: float
    walk_counts: list[int]
    endpoint_freqs: _Rows
    full_walk: list[bool]
    fwd_estimates: _Rows
    fwd_residuals: _Rows

    def as_coord_vectors(self, n: int) -> dict:
        """Walk vectors in 2n-coordinate form for sharding: key ("x", v),
        node v's indicator at coordinate v and its endpoint frequencies at
        n + u, in ascending coordinate order."""
        freqs = self.endpoint_freqs
        bounds = freqs.ptr.tolist()
        coords = (freqs.nodes + n).tolist()
        values = freqs.data.tolist()
        out = {}
        for v, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            vec = {v: 1.0}
            vec.update(zip(coords[lo:hi], values[lo:hi]))
            out[("x", v)] = vec
        return out


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def build_shared_walk_vectors(
    g: Graph,
    alpha: float,
    delta: float,
    d_max: float,
    params: SharedWalkParams | None = None,
    seed: int = 0,
) -> SharedWalkStore:
    """Precompute every node's walk endpoints and forward residuals.

    Nodes with degree above d_max are flagged full-walk: they store the
    complete per-node budget c1*r_max_r/delta and no push result (pushing
    forward from a hub floods the graph for no savings). Everyone else
    stores the reduced budget n_w plus a forward push at r_max_f, whose
    residuals let queries borrow the neighborhood's walks.

    Every node's walks step together as one lockstep batch (node v's walks
    are entries of one ``walk_endpoints`` call over the repeated starts), and
    node v's ``endpoint_freqs[v][u]`` is the number of its walks that ended
    at u divided by its walk count, in ascending u. The forward pushes run
    as one batch too (``push._forward_all``), bit-identical to one
    ``forward_push`` per node.

    delta and the params' c1, c2, c3 must be positive and finite, and
    d_max must not be NaN; ValueError otherwise.
    """
    _check_delta(delta)
    if math.isnan(d_max):
        raise ValueError("d_max must not be NaN")
    if params is None:
        params = SharedWalkParams()
    r_max_f = params.r_max_f(delta)
    n = g.n
    full_walk = g.degrees > d_max
    counts = np.where(full_walk, params.full_walks(delta), params.shared_walks(delta))
    starts = np.repeat(np.arange(n), counts)
    ends = walk_endpoints(g, starts, len(starts), WalkConfig(alpha=alpha, seed=seed))
    codes, hits = np.unique(starts * n + ends, return_counts=True)
    owners, nodes = np.divmod(codes, n)
    pushed = np.flatnonzero(~full_walk)
    (p_rows, p_nodes, p_vals), (r_rows, r_nodes, r_vals) = _forward_all(
        g, pushed, r_max_f, alpha
    )
    held = np.flatnonzero(full_walk)  # a unit residual at the node itself
    return SharedWalkStore(
        alpha, delta, d_max, params, r_max_f, params.r_max_r(delta),
        walk_counts=counts.tolist(),
        endpoint_freqs=_Rows.of(n, owners, nodes, hits / counts[owners]),
        full_walk=full_walk.tolist(),
        fwd_estimates=_Rows.of(n, pushed[p_rows], p_nodes, p_vals),
        fwd_residuals=_Rows.of(
            n,
            np.concatenate([pushed[r_rows], held]),
            np.concatenate([r_nodes, held]),
            np.concatenate([r_vals, np.ones(held.size)]),
        ),
    )


def query_shared_walks(
    g: Graph,
    store: SharedWalkStore,
    s: int,
    t: int,
    rev: PushResult | None = None,
) -> float:
    """Estimate pi_s[t] from the store plus one reverse push at t.

    The source's stored push supplies (p_s, r_s); each node v in the
    residual support contributes its own stored walks:
    p_s(t) + sum_v r_s(v) * (p_t[v] + mean over v's endpoints of r_t).
    A full-walk source is its own single support node with unit residual.
    A caller that already holds reverse_push(g, t, store.r_max_r,
    store.alpha) passes it as ``rev`` instead of pushing twice.
    """
    _check_node(g, s)
    _check_node(g, t)
    if rev is None:
        rev = reverse_push(g, t, store.r_max_r, store.alpha)
    value = store.fwd_estimates[s].get(t, 0.0)
    rev_p = rev.estimates
    rev_r = rev.residuals
    support = store.fwd_residuals[s]
    walks = store.endpoint_freqs
    rows = zip(support.nodes.tolist(), support.data.tolist(),
               walks.ptr[support.nodes].tolist(), walks.ptr[support.nodes + 1].tolist())
    for v, rs, lo, hi in rows:
        inner = rev_p.get(v, 0.0)
        for u, freq in zip(walks.nodes[lo:hi].tolist(), walks.data[lo:hi].tolist()):
            ru = rev_r.get(u, 0.0)
            if ru:
                inner += freq * ru
        value += rs * inner
    return value


def storage_model(
    n: int,
    delta: float,
    c1: float = SharedWalkParams.c1,
    c2: float = SharedWalkParams.c2,
    c3: float = SharedWalkParams.c3,
    r_max_r: float | None = None,
    r_max_f: float | None = None,
) -> dict:
    """Predicted total stored entries under the two-term and three-term
    models, plus their optimized closed forms. delta must be positive and
    finite, and so must c1, c2, c3; ValueError otherwise."""
    _check_delta(delta)
    params = SharedWalkParams(c1, c2, c3)
    rr = r_max_r if r_max_r is not None else params.r_max_r(delta)
    rf = r_max_f if r_max_f is not None else params.r_max_f(delta)
    unshared_rr = math.sqrt(c2 * delta / c1)  # minimizer of the 2-term form
    return {
        "unshared": n * c1 * rr / delta + n * c2 / rr,
        "unshared_optimal": 2.0 * n * math.sqrt(c1 * c2 / delta),
        "unshared_optimal_r_max_r": unshared_rr,
        "shared": n * c3 / rf + n * c1 * rr * rf / delta + n * c2 / rr,
        "shared_optimal": 3.0 * n * (c1 * c2 * c3 / delta) ** (1.0 / 3.0),
        "r_max_r": rr,
        "r_max_f": rf,
    }


@dataclass
class StorageReport:
    measured_walk_entries: int
    measured_forward_entries: int
    measured_reverse_entries: int
    fitted_c2: float
    fitted_c3: float
    model: dict


def storage_report(g: Graph, store: SharedWalkStore) -> StorageReport:
    """Measured non-zeros next to the storage model's predictions.

    c2 and c3 are fitted from the measurements themselves (mean reverse
    vector size, over the first 20 nodes as targets, times r_max_r, and
    likewise forward), then fed back into the model for the side-by-side
    comparison.
    """
    targets = range(min(g.n, 20))
    walk_entries = store.endpoint_freqs.nodes.size
    fwd_entries = store.fwd_residuals.nodes.size + store.fwd_estimates.nodes.size
    rev_entries = 0
    for t in targets:
        pr = reverse_push(g, t, store.r_max_r, store.alpha)
        rev_entries += len(pr.estimates) + len(pr.residuals)
    mean_rev = rev_entries / max(1, len(targets))
    fitted_c2 = mean_rev * store.r_max_r
    shared = ~np.asarray(store.full_walk, dtype=bool)
    if shared.any():
        sizes = np.diff(store.fwd_residuals.ptr) + np.diff(store.fwd_estimates.ptr)
        mean_fwd = int(sizes[shared].sum()) / int(shared.sum())
    else:
        mean_fwd = 0.0
    fitted_c3 = mean_fwd * store.r_max_f
    model = storage_model(
        g.n,
        store.delta,
        store.params.c1,
        max(fitted_c2, 1e-12),
        max(fitted_c3, 1e-12),
        r_max_r=store.r_max_r,
        r_max_f=store.r_max_f,
    )
    return StorageReport(
        walk_entries, fwd_entries, rev_entries, fitted_c2, fitted_c3, model
    )


def variable_delta_r_max(w: int, delta: float, global_pr_t: float) -> float:
    """Reverse threshold that spends a fixed walk budget per target:
    r_max_r = w * max(delta, pr[t]) / c1 with c1 = SharedWalkParams.c1."""
    if w < 1:
        raise ValueError("stored walk count must be at least 1")
    return w * max(delta, global_pr_t) / SharedWalkParams.c1
