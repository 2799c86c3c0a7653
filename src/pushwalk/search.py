"""Personalized search over keyword-filtered target sets.

Every score here is the same dot product: concatenate a source-side vector
x_s = (source indicator, walk-endpoint frequencies) with a target-side
vector y_t = (push estimates, push residuals), both living in 2n
coordinates (node v owns coordinate v for the first block and n+v for the
second), and <x_s, y_t> is exactly the bidirectional estimate of pi_s[t].
Three query strategies differ only in how the y side is organized: one dot
product per target, a coordinate-transposed index shared by all targets, or
a two-stage sampler that draws targets with probability proportional to
their scores without ever computing them all. Both sides must be built at
the same teleport rate alpha on graphs of the same node count; scoring
raises ValueError when they differ.

The grouped index, which also serves as the target sampler, is one
coordinate-major ``push.Table`` over the sorted targets' vectors, built by
concatenating every target's (coordinate, target id, value) arrays and
sorting them once, stably, by coordinate, so each coordinate's row lists
its targets in ascending order. The table's ``keys`` are the coordinates
that some target holds; a query finds its source coordinates among them
with one ``searchsorted``. ``slots`` and ``samplers`` read the table as
coordinate -> ``Row``, each a read-only mapping from target id to value,
and saved indexes store the table's arrays as plain buffers. Loading a
saved file rebuilds only the package's own stored classes and plain arrays,
so a crafted file cannot run code.
"""

from __future__ import annotations

import pickle
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .bidir import PprParams, num_walks
from .graph import Graph, _text_file
from .push import Row, Table, _check_id, reverse_push
from .sampling import WalkConfig, source_of, walk_endpoints, weighted_draw

__all__ = [
    "ForwardVector",
    "ReverseVector",
    "GroupedIndex",
    "TargetSamplerIndex",
    "KeywordIndex",
    "IndexStorageReport",
    "build_forward_vector",
    "build_reverse_vector",
    "build_grouped_index",
    "build_target_sampler",
    "score_targets_direct",
    "score_targets_grouped",
    "sample_targets",
    "adaptive_r_max",
    "storage_accounting",
    "save_index",
    "load_index",
    "IndexFormatError",
    "KeywordFormatError",
    "DEFAULT_SEARCH_C",
    "DEFAULT_BETA",
]

DEFAULT_SEARCH_C = 20.0
DEFAULT_BETA = 0.77


def _coord_arrays(n: int, first: Row, second: Row) -> tuple[np.ndarray, np.ndarray]:
    """Two per-node blocks as 2n-layout (coords, values) arrays in ascending
    coordinate order: node v's entry in ``first`` at coordinate v and its
    entry in ``second`` at n+v. Both rows ascend, so no sort is needed."""
    (a, x), (b, y) = first.arrays(), second.arrays()
    return np.concatenate([a, b + n]), np.concatenate([x, y])


@dataclass
class ForwardVector:
    """Source half of the score: (indicator block, endpoint-frequency block)."""

    n: int
    indicator: Row
    empirical: Row
    walks: int
    alpha: float

    def coord_items(self):
        """Non-zeros as (coordinate, value), ascending coordinate order."""
        coords, values = _coord_arrays(self.n, self.indicator, self.empirical)
        return zip(coords.tolist(), values.tolist())


@dataclass
class ReverseVector:
    """Target half of the score: the push's own (estimate, residual) blocks."""

    n: int
    target: int
    estimates: Row
    residuals: Row
    r_max: float
    alpha: float

    def coord_items(self):
        coords, values = _coord_arrays(self.n, self.estimates, self.residuals)
        return zip(coords.tolist(), values.tolist())

    def nnz(self) -> int:
        return len(self.estimates) + len(self.residuals)


class _Slots(Mapping):
    """Read-only coordinate -> ``Row`` view of an index's table, over the
    coordinates it holds; ``len`` and ``values()`` cost one small object
    per coordinate, none per entry."""

    __slots__ = ("_table",)

    def __init__(self, table: Table):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self):
        return iter(self._table.keys.tolist())

    def __getitem__(self, coord) -> Row:
        keys = self._table.keys
        i = int(np.searchsorted(keys, coord))
        if i == keys.size or keys[i] != coord:
            raise KeyError(coord)
        return self._table[i]

    def values(self):
        return list(self._table)


@dataclass
class GroupedIndex:
    """The sorted targets' reverse vectors transposed by coordinate.

    ``table`` has one row per coordinate that some target's vector holds,
    ascending (its ``keys``); the row lists that coordinate's target ids,
    ascending, and their values. ``slots`` reads it as coordinate ->
    {target: value}.

    Querying walks the source vector's coordinates in ascending order and
    credits each listed target, which reproduces the per-target dot products
    addition for addition — identical floating-point results, one pass.

    The same index serves stage two of ``sample_targets``, under the names
    ``TargetSamplerIndex`` and ``samplers``: the draw at coordinate v picks
    t with probability y_t[v] / total, where total is the slot's aggregate
    sum_t y_t[v]. Together with a first stage that draws v with probability
    proportional to x_s[v] * total, the sampled target is distributed
    exactly as score(t) / sum_j score(j).
    """

    n: int
    targets: list[int]
    r_max: float
    alpha: float
    table: Table = field(repr=False)

    @property
    def slots(self) -> _Slots:
        return _Slots(self.table)

    samplers = slots

    def _shared(self, x_s: ForwardVector):
        """The source vector's coordinates that the index holds.

        Returns their rows in ``table``, the source values there, and the
        table's entries for those rows (ascending coordinate, then target)
        with the row number of each entry.
        """
        xc, xv = _coord_arrays(x_s.n, x_s.indicator, x_s.empirical)
        keys, ptr = self.table.keys, self.table.ptr
        rows = np.searchsorted(keys, xc)
        found = rows < keys.size
        found[found] = keys[rows[found]] == xc[found]
        rows, xv = rows[found], xv[found]
        lo = ptr[rows]
        counts = ptr[rows + 1] - lo
        seg = np.arange(len(rows)).repeat(counts)
        entries = np.arange(len(seg)) + (lo - counts.cumsum() + counts).repeat(counts)
        return rows, xv, entries, seg

    def reverse_vectors(self) -> dict[int, ReverseVector]:
        """The targets' reverse vectors read back from ``table`` as ``Row``
        views: the coordinates below n and those from n on, each one by-target
        ``Table`` (one stable sort, so every row stays ascending)."""
        n, table = self.n, self.table
        coords = np.repeat(table.keys, np.diff(table.ptr))
        est = coords < n
        estimates = Table.of(table.nodes[est], coords[est], table.data[est], n)
        residuals = Table.of(table.nodes[~est], coords[~est] - n, table.data[~est], n)
        return {t: ReverseVector(n, t, estimates[t], residuals[t], self.r_max, self.alpha)
                for t in self.targets}


# the target sampler is the grouped index under the name its callers use
TargetSamplerIndex = GroupedIndex


class KeywordFormatError(ValueError):
    """A keyword sidecar line that is not 'keyword<TAB>node'."""


@dataclass
class KeywordIndex:
    """keyword -> sorted list of target node ids."""

    mapping: dict[str, list[int]] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path, g: Graph | None = None) -> "KeywordIndex":
        """Parse a sidecar of 'keyword<TAB>node' lines.

        Node tokens are resolved by ``Graph.node_id`` when a graph is
        supplied (an unknown node raises KeyError), else read as integer ids.
        A malformed line or a non-UTF-8 file raises KeywordFormatError.
        """
        raw: dict[str, set[int]] = {}
        with _text_file(path, KeywordFormatError) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise KeywordFormatError(
                        f"{path}:{lineno}: expected 'keyword<TAB>node', got {line!r}"
                    )
                keyword, token = parts[0].strip(), parts[1].strip()
                try:
                    node = int(token) if g is None else g.node_id(token)
                except (KeyError, ValueError):
                    raise KeyError(f"{path}:{lineno}: unknown node {token!r}") from None
                raw.setdefault(keyword, set()).add(node)
        return cls({kw: sorted(nodes) for kw, nodes in raw.items()})


def build_forward_vector(
    g: Graph,
    s,
    w: int,
    cfg: WalkConfig,
    rng: np.random.Generator | None = None,
) -> ForwardVector:
    """Source vector from w walk endpoints plus the exact source indicator."""
    if w < 1:
        raise ValueError("walk count must be at least 1")
    s = source_of(g, s)
    if s.node is not None:
        indicator = Row.of(np.array([s.node]), np.ones(1))
    else:
        nz = np.flatnonzero(s.sigma)
        indicator = Row.of(nz, s.sigma[nz])
    # 1/w added once per walk, in walk order, as a running tally would
    nodes, hit = np.unique(walk_endpoints(g, s, w, cfg, rng=rng), return_inverse=True)
    freqs = np.bincount(hit, weights=np.full(w, 1.0 / w))
    return ForwardVector(g.n, indicator, Row.of(nodes, freqs), w, cfg.alpha)


def build_reverse_vector(g: Graph, t: int, r_max: float, alpha: float) -> ReverseVector:
    """The push's own ``Row``s, uncopied: the sorted rows of a push that
    ended on dicts, or a dense push's ``DenseVec`` views (16*n; a kept
    push's own)."""
    pr = reverse_push(g, t, r_max, alpha)
    return ReverseVector(g.n, t, pr.estimates, pr.residuals, r_max, alpha)


def build_grouped_index(
    g: Graph,
    targets: list[int],
    r_max: float,
    alpha: float,
    vectors: dict[int, ReverseVector] | None = None,
) -> GroupedIndex:
    """Transpose the sorted targets' reverse vectors by coordinate, with one
    stable sort.

    Pass explicit vectors to index precomputed (or synthetic) target sides;
    otherwise each target gets a fresh reverse push at (r_max, alpha).
    """
    ts = sorted(set(targets))
    coords, owners, values = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for t in ts:
        rv = vectors[t] if vectors is not None else reverse_push(g, t, r_max, alpha)
        c, v = _coord_arrays(g.n, rv.estimates, rv.residuals)
        coords.append(c)
        owners.append(np.full(c.size, t, dtype=np.int64))
        values.append(v)
    # ties keep ascending target order
    table = Table.of(np.concatenate(coords), np.concatenate(owners), np.concatenate(values))
    return GroupedIndex(g.n, ts, r_max, alpha, table)


build_target_sampler = build_grouped_index


def _check_sides(x_s: ForwardVector, y: ReverseVector | GroupedIndex) -> None:
    """ValueError unless the target side ``y`` was pushed at the forward
    vector's alpha, on a graph of its node count."""
    if x_s.alpha != y.alpha:
        raise ValueError(
            f"forward vector walks at alpha={x_s.alpha} but the target side "
            f"was pushed at alpha={y.alpha}"
        )
    if x_s.n != y.n:
        raise ValueError(
            f"forward vector is over {x_s.n} nodes but the target side was "
            f"built for a {y.n}-node graph"
        )


def _rank(scores: dict[int, float]) -> list[tuple[int, float]]:
    """Descending score, ties by ascending node id."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def score_targets_direct(
    g: Graph,
    s,
    targets: list[int],
    params: PprParams,
    seed: int = 0,
    forward: ForwardVector | None = None,
    vectors: dict[int, ReverseVector] | None = None,
) -> list[tuple[int, float]]:
    """One dot product per target; returns (target, score) ranked."""
    r_max = params.resolved_r_max(g)
    if forward is None:
        w = num_walks(params, r_max)
        forward = build_forward_vector(g, s, w, WalkConfig(params.alpha, seed))
    if vectors is None:
        vectors = {t: build_reverse_vector(g, t, r_max, params.alpha) for t in targets}
    xc, xv = _coord_arrays(forward.n, forward.indicator, forward.empirical)
    k = int(np.searchsorted(xc, forward.n))
    first, second = xc[:k], xc[k:] - forward.n
    ts = sorted(set(targets))
    products = np.empty((len(ts), xc.size))
    for row, t in zip(products, ts):
        rv = vectors[t]
        _check_sides(forward, rv)
        row[:k] = rv.estimates.values_at(first)
        row[k:] = rv.residuals.values_at(second)
    # a running sum per target in ascending coordinate order, as grouped adds
    scores = np.add.accumulate(products * xv, axis=1)[:, -1]
    return _rank(dict(zip(ts, scores.tolist())))


def score_targets_grouped(
    x_s: ForwardVector, z: GroupedIndex
) -> list[tuple[int, float]]:
    """All targets in one pass over the source vector's coordinates.

    Per-target sums add the same products in the same order, ascending
    coordinate, as score_targets_direct, which also adds zero products that
    leave its sums unchanged, so the two agree bit for bit.
    """
    _check_sides(x_s, z)
    _, xv, entries, seg = z._shared(x_s)
    scores = np.zeros(len(z.targets))
    positions = np.searchsorted(z.targets, z.table.nodes[entries])
    # add.at applies the products in entry order: per target, ascending coordinate.
    np.add.at(scores, positions, xv[seg] * z.table.data[entries])
    return _rank(dict(zip(z.targets, scores.tolist())))


def sample_targets(
    x_s: ForwardVector,
    idx: GroupedIndex,
    n_samples: int,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Draw targets with probability proportional to their scores.

    Stage one picks a coordinate v with weight x_s[v] times the total of
    v's slot; stage two picks a target t with weight y_t[v] from the slot's
    entries in the index table, for each coordinate stage one drew. The
    product of the two stage probabilities telescopes to score(t)/total, so
    the marginal is exact.
    Returns (target, count) ranked by descending count, ties by node id;
    the ranking is empty when no stage-one coordinate carries weight.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_sides(x_s, idx)
    if rng is None:
        rng = np.random.default_rng(seed)
    rows, xv, entries, seg = idx._shared(x_s)
    totals = np.zeros(len(rows))
    np.add.at(totals, seg, idx.table.data[entries])  # in target order, as sum() would
    weights = xv * totals
    if not weights.any():
        return []
    picked, per_row = np.unique(rows[weighted_draw(weights, rng, n_samples)],
                                return_counts=True)
    ptr, nodes, data = idx.table.ptr, idx.table.nodes, idx.table.data
    drawn = [nodes[lo:hi][weighted_draw(data[lo:hi], rng, k)]
             for lo, hi, k in zip(ptr[picked].tolist(), ptr[picked + 1].tolist(), per_row.tolist())]
    targets, counts = np.unique(np.concatenate(drawn), return_counts=True)
    order = np.argsort(-counts, kind="stable")  # ties stay ascending by node
    return list(zip(targets[order].tolist(), counts[order].tolist()))


def adaptive_r_max(
    targets: list[int],
    global_pr: np.ndarray,
    w: int,
    k: int,
    beta: float = DEFAULT_BETA,
    c: float = DEFAULT_SEARCH_C,
) -> float:
    """Residual threshold adapted to the target set's popularity.

    Under a power-law model of within-set score decay (exponent beta), the
    top-k scores are resolved by w walks when
    r_max = w * pr(T) / (c2 * |T|^(1-beta)) with c2 = k^beta * c / (1-beta).

    Raises ValueError on an empty target set, a target that is not an
    integer in [0, len(global_pr)), w or k below 1, beta outside (0, 1), or
    a c that is not positive and finite.
    """
    if not targets:
        raise ValueError("target set is empty")
    for t in targets:
        _check_id(t, len(global_pr))
    if not w >= 1:
        raise ValueError(f"walk count w must be at least 1, got {w}")
    if not k >= 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    if not 0.0 < c < np.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    pr_t = float(sum(global_pr[t] for t in targets))
    c2 = (k**beta) * c / (1.0 - beta)
    return w * pr_t / (c2 * len(targets) ** (1.0 - beta))


@dataclass
class IndexStorageReport:
    per_keyword: dict[str, int]
    total_nonzeros: int
    gamma: float
    bound: float
    within_bound: bool


def storage_accounting(
    g: Graph,
    keywords: KeywordIndex,
    vectors: dict[int, ReverseVector],
    r_max: float,
    alpha: float,
) -> IndexStorageReport:
    """Non-zeros stored per keyword against the push-work storage model.

    gamma is the mean number of keywords a stored target serves (identical
    keyword sets double gamma and storage alike). The model bound is
    gamma * m / (alpha * r_max) plus n slack for the per-target seeds.
    """
    per_keyword: dict[str, int] = {}
    incidences = 0
    distinct: set[int] = set()
    for kw, targets in keywords.mapping.items():
        per_keyword[kw] = sum(vectors[t].nnz() for t in targets)
        incidences += len(targets)
        distinct.update(targets)
    if not distinct:
        raise ValueError("keyword index is empty")
    gamma = incidences / len(distinct)
    total = sum(per_keyword.values())
    bound = gamma * g.m / (alpha * r_max) + g.n
    return IndexStorageReport(per_keyword, total, gamma, bound, total <= bound)


class IndexFormatError(ValueError):
    """A file that is not a search index or walk store this version can read."""


_INDEX_MAGIC = b"PWIX"
# 8: every push.Table row is ascending by node (7 held store rows in push
# order); search indexes record their graph's n and m and hold one index
# per keyword
_INDEX_VERSION = 8

# The globals a saved payload may name: the classes that precompute and
# precompute-search store and the plain buffers their tables pickle to.
# Neither stores a ReverseVector, so one is refused too.
_SAVED_GLOBALS = {
    "array": {"_array_reconstructor", "array"},
    "pushwalk.push": {"Table"},
    "pushwalk.search": {"GroupedIndex"},
    "pushwalk.sharding": {"SharedWalkStore", "SharedWalkParams", "Shard"},
}


class _SavedUnpickler(pickle.Unpickler):
    """Unpickles only what save_index writes: any other global, which could
    run code, raises IndexFormatError."""

    def find_class(self, module, name):
        if name not in _SAVED_GLOBALS.get(module, ()):
            raise IndexFormatError(f"refusing to load {module}.{name}")
        return super().find_class(module, name)


def save_index(path, payload: dict) -> None:
    """Persist a precomputed payload (search indexes or a shared-walk store)
    as a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(_INDEX_VERSION.to_bytes(2, "little"))
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_index(path) -> dict:
    """The payload dict save_index wrote; IndexFormatError for anything else,
    including a payload that names any global but the stored classes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _INDEX_MAGIC:
            raise IndexFormatError(f"{path} is not a search index or walk store")
        version = int.from_bytes(fh.read(2), "little")
        if version != _INDEX_VERSION:
            raise IndexFormatError(f"unsupported index version {version}")
        try:
            payload = _SavedUnpickler(fh).load()
        except Exception as exc:  # truncated or corrupt pickles raise many types
            raise IndexFormatError(f"{path}: unreadable payload ({exc!r})") from exc
    if not isinstance(payload, dict):
        raise IndexFormatError(f"{path} holds a {type(payload).__name__}, not a payload dict")
    return payload
