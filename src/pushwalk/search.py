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
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .bidir import PprParams, num_walks
from .graph import Graph
from .push import SparseVec, reverse_push
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


@dataclass
class GroupedIndex:
    """Transpose of a set of reverse vectors: coordinate -> [(target, value)].

    Querying walks the source vector's coordinates in ascending order and
    credits each listed target, which reproduces the per-target dot products
    addition for addition — identical floating-point results, one pass.
    """

    n: int
    targets: list[int]
    r_max: float
    alpha: float
    slots: dict[int, list[tuple[int, float]]] = field(default_factory=dict)


@dataclass
class TargetSamplerIndex:
    """Per-coordinate stage-two draws, stored as the grouped index's slots.

    ``samplers[v]`` lists coordinate v's (target, value) pairs; the draw at
    v picks t with probability y_t[v] / total, where total is the slot's
    aggregate sum_t y_t[v]. Together with a first stage that draws v with
    probability proportional to x_s[v] * total, the sampled target is
    distributed exactly as score(t) / sum_j score(j). ``sample_targets``
    builds a coordinate's sampler only when stage one draws it.
    """

    n: int
    targets: list[int]
    r_max: float
    alpha: float
    samplers: dict[int, list[tuple[int, float]]] = field(default_factory=dict)


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


def _slots(
    g: Graph,
    targets: list[int],
    r_max: float,
    alpha: float,
    vectors: dict[int, ReverseVector] | None = None,
) -> dict[int, list[tuple[int, float]]]:
    """coordinate -> [(target, value)] over the sorted targets' reverse
    vectors (given, or pushed at (r_max, alpha)), in target-major order."""
    slots: dict[int, list[tuple[int, float]]] = {}
    for t in targets:
        rv = vectors[t] if vectors is not None else build_reverse_vector(g, t, r_max, alpha)
        for coord, val in rv.coord_items():
            slots.setdefault(coord, []).append((t, val))
    return slots


def build_grouped_index(
    g: Graph, targets: list[int], r_max: float, alpha: float
) -> GroupedIndex:
    ts = sorted(targets)
    return GroupedIndex(g.n, ts, r_max, alpha, _slots(g, ts, r_max, alpha))


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
    ts = sorted(targets)
    return TargetSamplerIndex(g.n, ts, r_max, alpha, _slots(g, ts, r_max, alpha, vectors))


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
    scores: dict[int, float] = {t: 0.0 for t in z.targets}
    for coord, xv in x_s.coord_items():
        for t, yv in z.slots.get(coord, ()):
            scores[t] += xv * yv
    return _rank(scores)


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
    slots = idx.samplers
    stage1 = [
        (coord, xv * sum(yv for _, yv in slots[coord]))
        for coord, xv in x_s.coord_items()
        if coord in slots and xv > 0.0
    ]
    if sum(wt for _, wt in stage1) <= 0.0:
        return []
    coords = build_sampler(stage1).sample_many(rng, n_samples)
    counts: dict[int, int] = {}
    coord_counts: dict[int, int] = {}
    for coord in coords:
        coord_counts[coord] = coord_counts.get(coord, 0) + 1
    for coord in sorted(coord_counts):
        picks = build_sampler(slots[coord]).sample_many(rng, coord_counts[coord])
        for t in picks:
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
_INDEX_VERSION = 4  # 4: target-sampler indexes store slots, not samplers


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
