"""Exact sampling of walks conditioned on where they end.

A reverse push from a target set T leaves settled mass (the walk surely
ends in T) and residual mass (still undecided) at every touched node.
``precompute_path_samplers`` runs the scalar FIFO kernel of
``push.reverse_push`` from all of T with a push log, and replays the log
into provenance ledgers: per node, weighted references to the frozen
ledgers its mass flowed through. A conditioned path is then an ordinary
forward walk for the prefix plus one descent through the ledgers for the
suffix, and its distribution is exactly the geometric walk conditioned on
ending in T, no matter how far the push was run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .oracle import UnreachableTargetError
from .push import SparseVec, _check_node, _fifo_reverse
from .sampling import WalkConfig, WeightedSampler, random_walk_path

__all__ = [
    "Ledger",
    "PathSamplerState",
    "precompute_path_samplers",
    "sample_path_to_target",
    "sample_target_exact",
    "ACCEPTANCE_CAP",
]

ACCEPTANCE_CAP = 10**6


class Ledger(WeightedSampler):
    """One node's weighted references to the frozen ledgers its mass came
    through; a None item means the walk ends here, at a target.

    ``freeze`` turns a live ledger into a frozen one in place at push time;
    the owner then gets a fresh live ledger, so references held by other
    nodes keep resolving to the frozen version after the owner is pushed
    again.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: int, items, cumweights, total: float):
        super().__init__(items, cumweights, total)
        self.owner = owner

    def append(self, child: Ledger | None, weight: float) -> None:
        self.total += weight
        self.items.append(child)
        self.cumweights.append(self.total)

    def freeze(self) -> Ledger:
        self.items = tuple(self.items)
        self.cumweights = tuple(self.cumweights)
        return self


@dataclass
class PathSamplerState:
    """Output of the provenance-recording reverse push from a target set.

    estimates/residuals are the push's own vectors (seeded by one unit at
    every target); live[v] is v's current residual ledger, whose total
    weight tracks residuals[v] exactly; estimate_provenance[v] ledgers the
    settled mass the same way; snapshots lists the frozen ledger created
    by each push, in push order. reachable holds every node with a path
    into the target set.
    """

    targets: frozenset[int]
    eps_r: float
    alpha: float
    reachable: frozenset[int]
    estimates: SparseVec
    residuals: SparseVec
    live: dict[int, Ledger] = field(default_factory=dict)
    estimate_provenance: dict[int, Ledger] = field(default_factory=dict)
    snapshots: list[Ledger] = field(default_factory=list)


def precompute_path_samplers(
    g: Graph, targets, eps_r: float, alpha: float
) -> PathSamplerState:
    """Reverse push from the whole target set, recording provenance.

    Each target starts with one unit of residual, backed by a None entry in
    its ledger. Replaying a push on v freezes v's ledger, ledgers the
    settled alpha*r[v] under the frozen copy, hands (1-alpha)*w(u,v)*r[v]
    to each in-neighbor's ledger as a reference to it, and gives v a fresh
    ledger. The push runs until every residual is <= eps_r. A breadth-first
    search over in-edges from the targets fills ``reachable``.
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
    seeds = sorted(tset)
    log: list[tuple[int, float]] = []
    push = _fifo_reverse(g, seeds, eps_r, alpha, log)
    state = PathSamplerState(
        tset, eps_r, alpha, frozenset(reachable), push.estimates, push.residuals
    )
    live = state.live
    for t in seeds:
        live[t] = Ledger(t, [None], [1.0], 1.0)
    keep = 1.0 - alpha
    settled_by = state.estimate_provenance
    for v, rv in log:
        frozen = live[v].freeze()
        state.snapshots.append(frozen)
        live[v] = Ledger(v, [], [], 0.0)
        settled = settled_by.get(v)
        if settled is None:
            settled = settled_by[v] = Ledger(v, [], [], 0.0)
        settled.append(frozen, alpha * rv)
        for u, w in g.in_adj[v]:
            acc = live.get(u)
            if acc is None:
                acc = live[u] = Ledger(u, [], [], 0.0)
            acc.append(frozen, keep * w * rv)
    return state


def _descend(current, path: list[int], rng: np.random.Generator) -> list[int]:
    """Unwind a ledger into its walk suffix.

    A drawn child either is the frozen ledger of the suffix's next node
    (append its owner and keep descending) or is None, meaning the walk
    ends at the node we are already standing on.
    """
    while True:
        child = current.sample(rng)
        if child is None:
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
    Raises ValueError when cfg walks at another alpha than the state's.
    """
    _check_node(g, s)
    if cfg.alpha != state.alpha:
        raise ValueError(f"walks at alpha={cfg.alpha}, path samplers at alpha={state.alpha}")
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
