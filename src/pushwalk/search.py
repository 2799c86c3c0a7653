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
the same teleport rate alpha; scoring raises ValueError when they differ.

The grouped index and the target sampler hold the same transpose: one
coordinate-major CSR over the sorted targets' vectors, built by
concatenating every target's (coordinate, value) arrays and sorting them
once, stably, by coordinate, so each coordinate lists its targets in
ascending order. A query finds its source coordinates in it with one
``searchsorted``. Their ``slots`` and ``samplers`` are read-only mapping
views of it, and saved indexes store its arrays as plain buffers.
"""

from __future__ import annotations

import pickle
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .bidir import PprParams, num_walks
from .graph import Graph
from .push import DenseVec, SparseVec, reverse_push
from .sampling import WalkConfig, build_sampler, source_of, walk_endpoints

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
    "coord_vector",
    "IndexFormatError",
    "DEFAULT_SEARCH_C",
    "DEFAULT_BETA",
]

DEFAULT_SEARCH_C = 20.0
DEFAULT_BETA = 0.77


def coord_vector(n: int, first, second) -> dict[int, float]:
    """Two per-node blocks in the 2n-coordinate layout, as {coord: value}.

    Node v's entry in ``first`` goes to coordinate v and its entry in
    ``second`` to n+v; keys come out in ascending coordinate order.
    """
    out = {v: first[v] for v in sorted(first)}
    out.update((n + v, second[v]) for v in sorted(second))
    return out


@dataclass
class ForwardVector:
    """Source half of the score: (indicator block, endpoint-frequency block)."""

    n: int
    indicator: SparseVec
    empirical: SparseVec
    walks: int
    alpha: float

    def coord_items(self):
        """Non-zeros as (coordinate, value), ascending coordinate order."""
        return coord_vector(self.n, self.indicator, self.empirical).items()


@dataclass
class ReverseVector:
    """Target half of the score: (estimate block, residual block)."""

    n: int
    target: int
    estimates: SparseVec
    residuals: SparseVec
    r_max: float
    alpha: float

    def coord_value(self, coord: int) -> float:
        if coord < self.n:
            return self.estimates.get(coord, 0.0)
        return self.residuals.get(coord - self.n, 0.0)

    def coord_items(self):
        return coord_vector(self.n, self.estimates, self.residuals).items()

    def nnz(self) -> int:
        return len(self.estimates) + len(self.residuals)


class _Slot:
    """One coordinate's (target, value) pairs, ascending target, read from
    the index's arrays only when iterated."""

    __slots__ = ("_index", "_lo", "_hi")

    def __init__(self, index: _CoordIndex, lo: int, hi: int):
        self._index = index
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        return iter(self._index._pairs(self._lo, self._hi))

    def __eq__(self, other) -> bool:
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented


class _Slots(Mapping):
    """Read-only coordinate -> slot view of an index; ``len`` and
    ``values()`` cost one small object per coordinate, none per entry."""

    __slots__ = ("_index",)

    def __init__(self, index: _CoordIndex):
        self._index = index

    def __len__(self) -> int:
        return len(self._index.coords)

    def __iter__(self):
        return iter(self._index.coords.tolist())

    def __getitem__(self, coord) -> _Slot:
        z = self._index
        i = int(np.searchsorted(z.coords, coord))
        if i == len(z.coords) or z.coords[i] != coord:
            raise KeyError(coord)
        return _Slot(z, int(z.offsets[i]), int(z.offsets[i + 1]))

    def values(self):
        bounds = self._index.offsets.tolist()
        return [_Slot(self._index, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# Pickled array fields and their array.array type codes: stored files hold
# plain buffers and no numpy reference.
_ARRAY_CODES = {"coords": "q", "offsets": "q", "positions": "q", "values": "d"}


@dataclass
class _CoordIndex:
    """The sorted targets' reverse vectors transposed by coordinate, as CSR.

    ``coords`` lists the coordinates that some target's vector holds, in
    ascending order; coordinate ``coords[i]`` owns entries
    ``offsets[i]:offsets[i+1]`` of ``positions`` (each entry's target, as
    its index in ``targets``, ascending within a coordinate) and ``values``.
    """

    n: int
    targets: list[int]
    r_max: float
    alpha: float
    coords: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def _pairs(self, lo: int, hi: int) -> list[tuple[int, float]]:
        ts = self.targets
        return [
            (ts[p], v)
            for p, v in zip(self.positions[lo:hi].tolist(), self.values[lo:hi].tolist())
        ]

    def _shared(self, x_s: ForwardVector):
        """The source vector's coordinates that the index holds.

        Returns their rows in ``coords``, the source values there, and the
        index's entries for those rows (ascending coordinate, then target)
        with the row number of each entry.
        """
        x = coord_vector(x_s.n, x_s.indicator, x_s.empirical)
        xc = np.fromiter(x.keys(), np.int64, len(x))
        xv = np.fromiter(x.values(), np.float64, len(x))
        rows = np.searchsorted(self.coords, xc)
        found = rows < len(self.coords)
        found[found] = self.coords[rows[found]] == xc[found]
        rows, xv = rows[found], xv[found]
        lo = self.offsets[rows]
        counts = self.offsets[rows + 1] - lo
        seg = np.arange(len(rows)).repeat(counts)
        entries = np.arange(len(seg)) + (lo - counts.cumsum() + counts).repeat(counts)
        return rows, xv, entries, seg

    def __getstate__(self):
        state = dict(self.__dict__)
        for name, code in _ARRAY_CODES.items():
            state[name] = array(code, state[name].tobytes())
        return state

    def __setstate__(self, state):
        for name, code in _ARRAY_CODES.items():
            state[name] = np.frombuffer(state[name], dtype=code)
        self.__dict__.update(state)


@dataclass
class GroupedIndex(_CoordIndex):
    """Transpose of a set of reverse vectors; ``slots`` reads it as
    coordinate -> [(target, value)].

    Querying walks the source vector's coordinates in ascending order and
    credits each listed target, which reproduces the per-target dot products
    addition for addition — identical floating-point results, one pass.
    """

    @property
    def slots(self) -> _Slots:
        return _Slots(self)


@dataclass
class TargetSamplerIndex(_CoordIndex):
    """Per-coordinate stage-two draws over the grouped index's slots.

    ``samplers[v]`` lists coordinate v's (target, value) pairs; the draw at
    v picks t with probability y_t[v] / total, where total is the slot's
    aggregate sum_t y_t[v]. Together with a first stage that draws v with
    probability proportional to x_s[v] * total, the sampled target is
    distributed exactly as score(t) / sum_j score(j). ``sample_targets``
    builds a coordinate's sampler only when stage one draws it.
    """

    @property
    def samplers(self) -> _Slots:
        return _Slots(self)


@dataclass
class KeywordIndex:
    """keyword -> sorted list of target node ids."""

    mapping: dict[str, list[int]] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path, g: Graph | None = None) -> "KeywordIndex":
        """Parse a sidecar of 'keyword<TAB>node' lines.

        Node tokens are resolved by ``Graph.node_id`` when a graph is
        supplied (an unknown node raises KeyError), else read as integer ids.
        """
        raw: dict[str, set[int]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(
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
        indicator = SparseVec({s.node: 1.0})
    else:
        indicator = SparseVec((int(v), float(s.sigma[v])) for v in np.flatnonzero(s.sigma))
    empirical = SparseVec()
    for v in walk_endpoints(g, s, w, cfg, rng=rng):
        empirical.add(v, 1.0 / w)
    return ForwardVector(g.n, indicator, empirical, w, cfg.alpha)


def build_reverse_vector(g: Graph, t: int, r_max: float, alpha: float) -> ReverseVector:
    """The push's vectors as ``SparseVec`` blocks, so that a stored index
    holds only their nonzeros whichever push path ran."""
    pr = reverse_push(g, t, r_max, alpha)
    return ReverseVector(
        g.n, t, SparseVec(pr.estimates.items()), SparseVec(pr.residuals.items()), r_max, alpha
    )


def _block_arrays(block) -> tuple[np.ndarray, np.ndarray]:
    """A push vector's (nodes, values): a ``DenseVec``'s nonzeros, or every
    entry of a sparse mapping, as arrays."""
    if isinstance(block, DenseVec):
        nodes = np.flatnonzero(block.array)
        return nodes, block.array[nodes]
    k = len(block)
    return np.fromiter(block.keys(), np.int64, k), np.fromiter(block.values(), np.float64, k)


def _transpose(
    g: Graph,
    targets: list[int],
    r_max: float,
    alpha: float,
    vectors: dict[int, ReverseVector] | None,
    cls: type[_CoordIndex],
) -> _CoordIndex:
    """``cls`` over the sorted targets' reverse vectors (given, or pushed at
    (r_max, alpha)), transposed by coordinate with one stable sort."""
    ts = sorted(targets)
    coords, positions, values = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for i, t in enumerate(ts):
        rv = vectors[t] if vectors is not None else reverse_push(g, t, r_max, alpha)
        for block, shift in ((rv.estimates, 0), (rv.residuals, g.n)):
            nodes, vals = _block_arrays(block)
            coords.append(nodes + shift)
            positions.append(np.full(len(nodes), i, dtype=np.int64))
            values.append(vals)
    coord = np.concatenate(coords)
    order = np.argsort(coord, kind="stable")  # ties keep ascending target order
    coord = coord[order]
    starts = np.flatnonzero(np.diff(coord, prepend=-1))
    return cls(
        g.n,
        ts,
        r_max,
        alpha,
        coord[starts],
        np.append(starts, len(coord)),
        np.concatenate(positions)[order],
        np.concatenate(values)[order],
    )


def build_grouped_index(
    g: Graph,
    targets: list[int],
    r_max: float,
    alpha: float,
    vectors: dict[int, ReverseVector] | None = None,
) -> GroupedIndex:
    """Transpose the targets' reverse vectors by coordinate.

    Pass explicit vectors to index precomputed (or synthetic) target sides;
    otherwise each target gets a fresh reverse push at (r_max, alpha).
    """
    return _transpose(g, targets, r_max, alpha, vectors, GroupedIndex)


def build_target_sampler(
    g: Graph,
    targets: list[int],
    r_max: float,
    alpha: float,
    vectors: dict[int, ReverseVector] | None = None,
) -> TargetSamplerIndex:
    """Aggregate the targets' reverse vectors into per-coordinate slots.

    Pass explicit vectors to index precomputed (or synthetic) target sides;
    otherwise each target gets a fresh reverse push at (r_max, alpha).
    """
    return _transpose(g, targets, r_max, alpha, vectors, TargetSamplerIndex)


def _check_alpha(x_s: ForwardVector, alpha: float) -> None:
    if x_s.alpha != alpha:
        raise ValueError(
            f"forward vector walks at alpha={x_s.alpha} but the target side "
            f"was pushed at alpha={alpha}"
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
        vectors = {
            t: build_reverse_vector(g, t, r_max, params.alpha) for t in targets
        }
    x_items = list(forward.coord_items())
    scores: dict[int, float] = {}
    for t in sorted(targets):
        rv = vectors[t]
        _check_alpha(forward, rv.alpha)
        acc = 0.0
        for coord, xv in x_items:
            yv = rv.coord_value(coord)
            if yv:
                acc += xv * yv
        scores[t] = acc
    return _rank(scores)


def score_targets_grouped(
    x_s: ForwardVector, z: GroupedIndex
) -> list[tuple[int, float]]:
    """All targets in one pass over the source vector's coordinates.

    Per-target sums receive exactly the same additions in exactly the same
    order as score_targets_direct, so the two agree bit for bit.
    """
    _check_alpha(x_s, z.alpha)
    _, xv, entries, seg = z._shared(x_s)
    scores = np.zeros(len(z.targets))
    # add.at applies the products in entry order: per target, ascending coordinate.
    np.add.at(scores, z.positions[entries], xv[seg] * z.values[entries])
    return _rank(dict(zip(z.targets, scores.tolist())))


def sample_targets(
    x_s: ForwardVector,
    idx: TargetSamplerIndex,
    n_samples: int,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Draw targets with probability proportional to their scores.

    Stage one picks a coordinate v with weight x_s[v] times the total of
    v's slot; stage two picks a target from a sampler over that slot, built
    only for the coordinates stage one drew. The product of the two stage
    probabilities telescopes to score(t)/total, so the marginal is exact.
    Returns (target, count) ranked by descending count, ties by node id;
    the ranking is empty when no stage-one coordinate carries weight.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_alpha(x_s, idx.alpha)
    if rng is None:
        rng = np.random.default_rng(seed)
    rows, xv, entries, seg = idx._shared(x_s)
    totals = np.zeros(len(rows))
    np.add.at(totals, seg, idx.values[entries])  # in target order, as sum() would
    live = xv > 0.0
    stage1 = list(zip(rows[live].tolist(), (xv * totals)[live].tolist()))
    if sum(wt for _, wt in stage1) <= 0.0:
        return []
    picked = build_sampler(stage1).sample_many(rng, n_samples)
    counts: dict[int, int] = {}
    row_counts: dict[int, int] = {}
    for row in picked:
        row_counts[row] = row_counts.get(row, 0) + 1
    offsets = idx.offsets
    for row in sorted(row_counts):
        slot = idx._pairs(int(offsets[row]), int(offsets[row + 1]))
        for t in build_sampler(slot).sample_many(rng, row_counts[row]):
            counts[t] = counts.get(t, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked


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
    """
    if not targets:
        raise ValueError("target set is empty")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
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
_INDEX_VERSION = 6  # 6: shared-walk stores hold their per-node tables as CSR buffers


def save_index(path, payload: dict) -> None:
    """Persist a precomputed payload (search indexes or a shared-walk store)
    as a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(_INDEX_VERSION.to_bytes(2, "little"))
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_index(path) -> dict:
    """The payload dict save_index wrote; IndexFormatError for anything else."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _INDEX_MAGIC:
            raise IndexFormatError(f"{path} is not a search index or walk store")
        version = int.from_bytes(fh.read(2), "little")
        if version != _INDEX_VERSION:
            raise IndexFormatError(f"unsupported index version {version}")
        try:
            payload = pickle.load(fh)
        except Exception as exc:  # truncated or corrupt pickles raise many types
            raise IndexFormatError(f"{path}: unreadable payload ({exc!r})") from exc
    if not isinstance(payload, dict):
        raise IndexFormatError(f"{path} holds a {type(payload).__name__}, not a payload dict")
    return payload
