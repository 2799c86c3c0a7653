"""Exact sampling of walks conditioned on where they end.

A reverse push from a target set T leaves two artifacts at every touched
node: settled mass (the walk surely ends in T) and residual mass (still
undecided). If, while pushing, we also record *where each unit of mass came
from* — a provenance ledger of weighted references to the samplers of the
nodes it flowed through — then any unit of mass can later be unwound into
the exact walk suffix that produced it. Sampling a conditioned path then
needs only an ordinary forward walk for the prefix plus one descent through
the ledger for the suffix, and the resulting distribution is exactly the
geometric walk conditioned on ending in T, no matter how far the push was
run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .oracle import UnreachableTargetError
from .push import SparseVec, _check_node
from .sampling import WalkConfig, WeightedSampler, random_walk_path

__all__ = [
    "ConstantSampler",
    "ProvenanceSampler",
    "ResidualAccumulator",
    "PathSamplerState",
    "precompute_path_samplers",
    "sample_path_to_target",
    "sample_target_exact",
    "ACCEPTANCE_CAP",
]

ACCEPTANCE_CAP = 10**6


@dataclass(frozen=True)
class ConstantSampler:
    """Terminal marker: the walk ends here, at a target node."""

    target: int


class ProvenanceSampler(WeightedSampler):
    """Weighted choice over child samplers, owned by one node.

    ResidualAccumulator.snapshot freezes a live ledger into one of these at
    push time; references held by other nodes keep resolving to this exact
    version even after the owner is pushed again.
    """

    __slots__ = ("owner",)

    def __init__(self, owner, items, cumweights, total):
        super().__init__(items, cumweights, total)
        self.owner = owner


class ResidualAccumulator(ProvenanceSampler):
    """Append-only live ledger of (child sampler, weight) for one node."""

    __slots__ = ()

    def __init__(self, owner: int):
        super().__init__(owner, [], [], 0.0)

    def append(self, child, weight: float) -> None:
        self.total += weight
        self.items.append(child)
        self.cumweights.append(self.total)

    def snapshot(self) -> ProvenanceSampler:
        return ProvenanceSampler(
            self.owner, tuple(self.items), tuple(self.cumweights), self.total
        )


@dataclass
class PathSamplerState:
    """Output of the provenance-recording reverse push from a target set.

    estimates/residuals are the usual push vectors (seeded by one unit at
    every target); live[v] is v's current residual ledger, whose total
    weight tracks residuals[v] exactly; estimate_provenance[v] ledgers the
    settled mass the same way; snapshots lists the frozen sampler created
    by each push, in push order. reachable holds every node with a path
    into the target set.
    """

    targets: frozenset[int]
    eps_r: float
    alpha: float
    reachable: frozenset[int]
    estimates: SparseVec = field(default_factory=SparseVec)
    residuals: SparseVec = field(default_factory=SparseVec)
    live: dict[int, ResidualAccumulator] = field(default_factory=dict)
    estimate_provenance: dict[int, ResidualAccumulator] = field(default_factory=dict)
    snapshots: list[ProvenanceSampler] = field(default_factory=list)


def precompute_path_samplers(
    g: Graph, targets, eps_r: float, alpha: float
) -> PathSamplerState:
    """Reverse push from the whole target set, recording provenance.

    Each target starts with one unit of residual backed by its terminal
    sampler. A push on v freezes v's ledger, banks alpha*r[v] as estimate
    (ledgered under the same frozen sampler), hands (1-alpha)*w(u,v)*r[v]
    to each in-neighbor's ledger as a reference to the frozen sampler, and
    gives v a fresh empty ledger. Runs until every residual is <= eps_r.
    One breadth-first search over in-edges from the targets fills
    ``reachable``.
    """
    if eps_r <= 0.0:
        raise ValueError("eps_r must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    tset = frozenset(int(t) for t in targets)
    if not tset:
        raise ValueError("target set is empty")
    for t in tset:
        _check_node(g, t)
    reachable = set(tset)
    frontier = deque(tset)
    while frontier:
        for u, _ in g.in_adj[frontier.popleft()]:
            if u not in reachable:
                reachable.add(u)
                frontier.append(u)
    state = PathSamplerState(tset, eps_r, alpha, frozenset(reachable))
    queue: deque[int] = deque()
    queued = set()
    for t in sorted(tset):
        acc = ResidualAccumulator(t)
        acc.append(ConstantSampler(t), 1.0)
        state.live[t] = acc
        state.residuals.add(t, 1.0)
        if 1.0 > eps_r:
            queue.append(t)
            queued.add(t)
    keep = 1.0 - alpha
    while queue:
        v = queue.popleft()
        queued.discard(v)
        rv = state.residuals.get(v, 0.0)
        if not rv > eps_r:
            continue
        frozen = state.live[v].snapshot()
        state.snapshots.append(frozen)
        state.residuals.pop(v, None)
        state.live[v] = ResidualAccumulator(v)
        settled = alpha * rv
        state.estimates.add(v, settled)
        state.estimate_provenance.setdefault(v, ResidualAccumulator(v)).append(
            frozen, settled
        )
        for u, w in g.in_adj[v]:
            delta = keep * w * rv
            acc = state.live.get(u)
            if acc is None:
                acc = state.live[u] = ResidualAccumulator(u)
            acc.append(frozen, delta)
            if state.residuals.add(u, delta) > eps_r and u not in queued:
                queue.append(u)
                queued.add(u)
    return state


def _descend(current, path: list[int], rng: np.random.Generator) -> list[int]:
    """Unwind a ledger into its walk suffix.

    A drawn child either names the next node of the suffix (append and keep
    descending through its frozen ledger) or is a terminal marker, meaning
    the walk ends at the node we are already standing on.
    """
    while True:
        child = current.sample(rng)
        if isinstance(child, ConstantSampler):
            return path
        path.append(child.owner)
        current = child


def sample_path_to_target(
    g: Graph,
    s: int,
    state: PathSamplerState,
    cfg: WalkConfig,
    rng: np.random.Generator | None = None,
    return_attempts: bool = False,
    return_branch: bool = False,
):
    """One walk from s conditioned on ending in the precomputed target set.

    With probability p[s]/(p[s]+eps_r) the path is reconstructed wholly from
    s's settled-mass ledger; otherwise a fresh geometric walk is run and its
    endpoint u accepted with probability r[u]/(p[s]+eps_r), in which case
    the walk is the prefix and u's live ledger supplies the suffix. Expected
    attempts: (p[s]+eps_r)/pi_s(T), at most 1 + eps_r/pi_s(T). Raises
    UnreachableTargetError before any walk when no path leads from s into
    the target set, and RuntimeError after ACCEPTANCE_CAP rejections (the
    conditioning event is vanishingly rare from s).

    return_attempts appends the attempt count to the return value;
    return_branch appends which branch accepted ("settled" or "walk").
    """
    _check_node(g, s)
    if s not in state.reachable:
        raise UnreachableTargetError(f"no path leads from node {s} into the target set")
    if rng is None:
        rng = cfg.stream()
    p_s = state.estimates.get(s, 0.0)
    total = p_s + state.eps_r
    residuals = state.residuals
    for attempt in range(1, ACCEPTANCE_CAP + 1):
        x = rng.random() * total
        if x < p_s:
            path = _descend(state.estimate_provenance[s].sample(rng), [s], rng)
            branch = "settled"
            break
        walk = random_walk_path(g, s, cfg, rng=rng)
        u = walk[-1]
        if x - p_s < residuals.get(u, 0.0):
            path = _descend(state.live[u], walk, rng)
            branch = "walk"
            break
    else:
        raise RuntimeError(
            f"no sample accepted in {ACCEPTANCE_CAP} attempts; the target set's "
            "probability from the source is ~0"
        )
    out = (path,)
    if return_attempts:
        out += (attempt,)
    if return_branch:
        out += (branch,)
    return out if len(out) > 1 else path


def sample_target_exact(
    g: Graph,
    s: int,
    state: PathSamplerState,
    cfg: WalkConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Endpoint of one conditioned path: t with probability pi_s[t]/pi_s(T)."""
    return sample_path_to_target(g, s, state, cfg, rng=rng)[-1]
