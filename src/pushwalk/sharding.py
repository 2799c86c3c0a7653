"""In-process simulation of a sharded precomputation/serving deployment.

Score vectors live in 2n coordinates, and coordinate c lives on shard
c mod k of k shards. A query's dot product decomposes into per-shard
partial sums, which the broker combines in shard-id order.
Partials are carried as exact dyadic rationals (every float is one), so the
combined result is bit-identical to the unsharded dot product no matter how
the coordinates were split.

The walk-sharing store answers the "how many walks must we precompute"
problem: instead of w walks from every node, store each node's forward-push
residuals plus, at every node v, walks in proportion to the largest
residual any push leaves there (none where no push leaves any), and
synthesize a source's walk distribution from its residual-weighted
neighborhood at query time. The walks are drawn and tallied in blocks, so
the build's transient memory is one block's walks. The store holds its
three per-node tables as ``push.Table`` CSRs, with a row for every node,
ascending by node, and ``store.fwd_residuals[v]`` reads node v's row as a
read-only ``push.Row`` mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import push
from .graph import Graph, check_built_for
from .push import PushResult, Table, _check_node, _forward_all, reverse_push
from .sampling import WalkConfig, walk_endpoints

# The store pushes through _forward_all and calls forward_push no more, but
# perfbench/spans.py wraps ``pushwalk.sharding.forward_push`` by name to
# trace pushes, so the name stays bound here.
forward_push = push.forward_push

# Walks per block of the store build (see _tally_walks). On the 10k-node
# index-serve benchmark graph (390k walks) the build took 39-40 ms at 2^15
# to 2^17 walks per block, 45 ms at 2^13 and 51 ms at 2^12, and its
# resident-memory peak rose 7 MB at 2^16 against 19 MB at 2^18 and 27 MB
# in one block; at 100k nodes (4.3M walks) 0.55 s at 2^16 against 0.58 s
# at 2^14 and 0.60 s at 2^20, with the peak set by the forward pushes
# below 2^18 (best of 2-3 builds, shared 2-core machine, numpy 2.4).
_WALK_BLOCK = 1 << 16

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
    and the model's shared node stores n_w = c1 * r_max_f * r_max_r / d
    walks.
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
        """The model's uniform per-node count c1 * r_max_f * r_max_r /
        delta, rounded up. A built store sizes each node's walks by the
        residual its pushes leave there instead (see
        ``build_shared_walk_vectors``); ``sum(store.walk_counts)`` is the
        count it drew."""
        return max(1, math.ceil(self.c1 * self.r_max_f(delta) * self.r_max_r(delta) / delta))

    def full_walks(self, delta: float) -> int:
        return max(1, math.ceil(self.c1 * self.r_max_r(delta) / delta))


@dataclass
class SharedWalkStore:
    """Per-node stored walks plus per-node forward push results.

    ``graph`` is the ``Graph.identity`` the store was built for, which
    every call that takes a graph checks. ``endpoint_freqs``,
    ``fwd_estimates`` and ``fwd_residuals`` are CSR tables (``push.Table``)
    with a row for every node, ascending by node; ``store.fwd_residuals[v]``
    reads node v's row as a read-only ``Row`` mapping.
    """

    graph: tuple[int, int, str]
    alpha: float
    delta: float
    d_max: float
    params: SharedWalkParams
    r_max_f: float
    r_max_r: float
    walk_counts: list[int]
    endpoint_freqs: Table
    full_walk: list[bool]
    fwd_estimates: Table
    fwd_residuals: Table

    def as_coord_vectors(self, n: int) -> dict:
        """Walk vectors in 2n-coordinate form for sharding: key ("x", v),
        node v's indicator at coordinate v and its endpoint frequencies at
        n + u, in ascending coordinate order. ``n`` must be the node count
        of the graph the store was built for; ValueError otherwise."""
        if n != self.graph[0]:
            raise ValueError(f"the store was built for a {self.graph[0]}-node graph, not {n} nodes")
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


def _check_positive(value: float, name: str = "delta") -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def build_shared_walk_vectors(
    g: Graph,
    alpha: float,
    delta: float,
    d_max: float,
    params: SharedWalkParams | None = None,
    seed: int = 0,
) -> SharedWalkStore:
    """Precompute every node's forward residuals and the walks they read.

    Nodes with degree above d_max are flagged full-walk: they store no push
    result (pushing forward from a hub floods the graph for no savings) and
    hold a unit residual at themselves. Everyone else stores a forward push
    at r_max_f, whose residuals let queries borrow the neighborhood's walks.
    The pushes run first, as one batch (``push._forward_all``: rounds over
    every node's push at once, each row the same as that node's push alone).

    A query from s weights node v's walks by r_s(v), so v stores
    n_w(v) = ceil(c1 * r_max_r * max_s r_s(v) / delta) walks, the maximum
    taken over the stored residual table: a full-walk node, whose residual
    at itself is 1, keeps the full budget c1 * r_max_r / delta, and a node
    that holds no residual stores none (the FORA index rule). The counts
    come from the deterministic pushes alone. The walks step in lockstep,
    ``_WALK_BLOCK`` walks of whole nodes at a time from one generator, and
    node v's ``endpoint_freqs[v][u]`` is the number of its walks that ended
    at u divided by its walk count, in ascending u.

    alpha must lie in (0, 1), delta and the params' c1, c2, c3 must be
    positive and finite, and d_max must not be NaN; ValueError otherwise,
    before any push.
    """
    _check_positive(delta)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if math.isnan(d_max):
        raise ValueError("d_max must not be NaN")
    if params is None:
        params = SharedWalkParams()
    r_max_f, r_max_r = params.r_max_f(delta), params.r_max_r(delta)
    n = g.n
    full_walk = g.degrees > d_max
    pushed = np.flatnonzero(~full_walk)
    (p_rows, p_nodes, p_vals), (r_rows, r_nodes, r_vals) = _forward_all(
        g, pushed, r_max_f, alpha
    )
    held = np.flatnonzero(full_walk)  # a unit residual at the node itself
    residuals = Table.of(
        np.concatenate([pushed[r_rows], held]),
        np.concatenate([r_nodes, held]),
        np.concatenate([r_vals, np.ones(held.size)]),
        n,
    )
    peak = np.zeros(n)
    np.maximum.at(peak, residuals.nodes, residuals.data)
    counts = np.ceil(params.c1 * r_max_r * peak / delta).astype(np.int64)
    return SharedWalkStore(
        g.identity, alpha, delta, d_max, params, r_max_f, r_max_r,
        walk_counts=counts.tolist(),
        endpoint_freqs=_tally_walks(g, counts, WalkConfig(alpha=alpha, seed=seed)),
        full_walk=full_walk.tolist(),
        fwd_estimates=Table.of(pushed[p_rows], p_nodes, p_vals, n),
        fwd_residuals=residuals,
    )


def _tally_walks(g: Graph, counts: np.ndarray, cfg: WalkConfig) -> Table:
    """Walk ``counts[v]`` walks from every node v; row v of the returned
    table holds the nodes v's walks ended at, ascending, each with the
    share of v's walks that ended there.

    Nodes go in blocks of whole nodes, a new block starting at each
    multiple of ``_WALK_BLOCK`` walks; each block's walks are one
    ``walk_endpoints`` call on one shared generator, tallied with
    ``np.unique`` before the next block walks."""
    n = g.n
    rng = cfg.stream()
    first = np.cumsum(counts) - counts  # each node's first walk
    cuts = (np.flatnonzero(np.diff(first // _WALK_BLOCK)) + 1).tolist()
    sizes, nodes, freqs = [], [], []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        starts = np.repeat(np.arange(lo, hi), counts[lo:hi])
        ends = walk_endpoints(g, starts, starts.size, cfg, rng)
        codes, hits = np.unique(starts * n + ends, return_counts=True)
        owners, at = np.divmod(codes, n)
        sizes.append(np.bincount(owners - lo, minlength=hi - lo))
        nodes.append(at)
        freqs.append(hits / counts[owners])
    ptr = np.append(0, np.cumsum(np.concatenate(sizes)))
    return Table(ptr, np.concatenate(nodes), np.concatenate(freqs))


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
    store.alpha) passes it as ``rev`` instead of pushing twice. A store
    built for another graph raises ``GraphMismatchError``.

    The sampled term is the sum over the support's walks, each adding
    r_s(v) * r_t[X] / n_w(v) with X ~ pi_v. By the two push invariants its
    mean is mu = pi_s[t] - p_s(t) - sum_v r_s(v) p_t[v] <= pi_s[t], and
    each walk's share lies in [0, delta / c1], since r_t <= r_max_r and
    n_w(v) >= c1 * r_max_r * r_s(v) / delta. For any M >= mu the
    multiplicative Chernoff bound gives P(|term - mu| >= eps * M) <=
    2 exp(-eps^2 * M * c1 / (3 delta)); with M = max(pi_s[t], delta) the
    error stays within eps * max(pi_s[t], delta) except with probability
    p_fail = 2 exp(-c1 * eps^2 / 3), the contract of ``bidir._walk_phase``
    at c = c1. The theorem constant c1 = (3 / eps^2) ln(2 / p_fail) meets
    any (eps, delta, p_fail); the default c1 = 7 gives eps = 1 at p_fail
    = 2 e^(-7/3) ~ 0.19. The counts n_w(v) come from the deterministic
    pushes before any walk is drawn, so the estimate is unbiased."""
    check_built_for(store.graph, g, "the store")
    _check_node(g, s)
    _check_node(g, t)
    if rev is None:
        rev = reverse_push(g, t, store.r_max_r, store.alpha)
    value = store.fwd_estimates[s].get(t, 0.0)
    support, weights = store.fwd_residuals[s].arrays()
    walks = store.endpoint_freqs
    for rs, inner, v in zip(weights.tolist(), rev.estimates.values_at(support).tolist(),
                            support.tolist()):
        ends, freqs = walks[v].arrays()
        for freq, ru in zip(freqs.tolist(), rev.residuals.values_at(ends).tolist()):
            inner += freq * ru  # a zero product leaves inner as it was
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
    models, plus their optimized closed forms and the three-term model's
    walk count n * n_w ("walks"). delta must be positive and finite, and so
    must c1, c2, c3 and the thresholds; ValueError otherwise."""
    _check_positive(delta)
    params = SharedWalkParams(c1, c2, c3)
    rr = r_max_r if r_max_r is not None else params.r_max_r(delta)
    rf = r_max_f if r_max_f is not None else params.r_max_f(delta)
    _check_positive(rr, "r_max_r")
    _check_positive(rf, "r_max_f")
    unshared_rr = math.sqrt(c2 * delta / c1)  # minimizer of the 2-term form
    return {
        "unshared": n * c1 * rr / delta + n * c2 / rr,
        "unshared_optimal": 2.0 * n * math.sqrt(c1 * c2 / delta),
        "unshared_optimal_r_max_r": unshared_rr,
        "shared": n * c3 / rf + n * c1 * rr * rf / delta + n * c2 / rr,
        "shared_optimal": 3.0 * n * (c1 * c2 * c3 / delta) ** (1.0 / 3.0),
        "walks": n * c1 * rr * rf / delta,
        "r_max_r": rr,
        "r_max_f": rf,
    }


@dataclass
class StorageReport:
    measured_walks: int
    measured_walk_entries: int
    measured_forward_entries: int
    measured_reverse_entries: int
    fitted_c2: float
    fitted_c3: float
    model: dict


def storage_report(g: Graph, store: SharedWalkStore) -> StorageReport:
    """Measured non-zeros next to the storage model's predictions, and the
    store's measured walk count (``measured_walks``) next to the model's
    n * n_w (``model["walks"]``).

    c2 and c3 are fitted from the measurements themselves (mean reverse
    vector size, over the first 20 nodes as targets, times r_max_r, and
    likewise forward), then fed back into the model for the side-by-side
    comparison. A store built for another graph raises
    ``GraphMismatchError``.
    """
    check_built_for(store.graph, g, "the store")
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
        sum(store.walk_counts), walk_entries, fwd_entries, rev_entries,
        fitted_c2, fitted_c3, model,
    )


def variable_delta_r_max(w: int, delta: float, global_pr_t: float) -> float:
    """Reverse threshold that spends a fixed walk budget per target:
    r_max_r = w * max(delta, pr[t]) / c1 with c1 = SharedWalkParams.c1.
    w must be a finite count of at least 1, delta positive and finite, and
    pr[t] nonnegative and finite; ValueError otherwise."""
    if not 1 <= w < math.inf:
        raise ValueError("stored walk count must be at least 1 and finite")
    _check_positive(delta)
    if not 0.0 <= global_pr_t < math.inf:
        raise ValueError("pr[t] must be nonnegative and finite")
    return w * max(delta, global_pr_t) / SharedWalkParams.c1
