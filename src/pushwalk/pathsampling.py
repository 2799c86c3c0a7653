"""Exact sampling of walks conditioned on where they end.

A reverse push from a target set T leaves settled mass (the walk surely
ends in T) and residual mass (still undecided) at every touched node.
``precompute_path_samplers`` runs the scalar FIFO kernel of
``push.reverse_push`` from all of T with a push log, and replays the log
into provenance ledgers: per node, weighted references to the frozen
ledgers its mass flowed through. A conditioned path is then an ordinary
forward walk for the prefix plus one descent through the ledgers for the
suffix, and its distribution is exactly the geometric walk conditioned on
ending in T, no matter how far the push was run. Each descent level picks
by one ``bisect_right`` over a ledger's running weight totals.

``sample_path_to_target`` takes its variates from blocks of uniforms that
it draws from the generator, and steps its walks by the one-walk rule of
``sampling``, with a stop coin per step in place of a drawn length. Its
paths are deterministic per seed, but differ from those of versions that
drew one scalar variate at a time (and a walk length per attempt).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .graph import Graph
from .oracle import UnreachableTargetError
from .push import Row, _check_node, _fifo_reverse
from .sampling import WalkConfig, _one_walk_step

__all__ = [
    "Ledger",
    "PathSamplerState",
    "precompute_path_samplers",
    "sample_path_to_target",
    "sample_target_exact",
    "ACCEPTANCE_CAP",
]

ACCEPTANCE_CAP = 10**6

# Uniform variates per draw from the generator; a call discards what is left
# of its last block. A path takes ~80 variates on the benchmark's index-serve
# queries (8 attempts of ~10). Over the 210 path queries among its first 630
# seed-1 queries (10k-node power-law graph, shared 2-core VM, median of 12
# passes) blocks of 16, 32, 64, 128 and 256 took 0.203, 0.182, 0.168, 0.169
# and 0.190 s, against 0.346 s for one scalar draw per variate.
_BLOCK = 64

# The sampler steps walks itself and calls random_walk_path no more, but
# perfbench/spans.py wraps ``pushwalk.pathsampling.random_walk_path`` by name
# to trace walks, so the name stays bound here.
random_walk_path = sampling.random_walk_path


class Ledger:
    """One node's weighted references to the frozen ledgers its mass came
    through; a None item means the walk ends here, at a target.

    ``cumweights[i]`` is the running weight total through item i, so a
    uniform variate x in [0, 1) picks the first item whose running total
    exceeds x * total. ``freeze`` turns a live ledger into a frozen one in
    place at push time; the owner then gets a fresh live ledger, so
    references held by other nodes keep resolving to the frozen version
    after the owner is pushed again.
    """

    __slots__ = ("owner", "items", "cumweights", "total")

    def __init__(self, owner: int, items, cumweights, total: float):
        self.owner = owner
        self.items = items
        self.cumweights = cumweights
        self.total = total

    def pick(self, x: float) -> Ledger | None:
        """The item drawn by the uniform variate x in [0, 1)."""
        return self.items[min(bisect_right(self.cumweights, x * self.total), len(self.items) - 1)]

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
    weight equals residuals[v] bit for bit (same sums, same order), and
    estimate_provenance[v] ledgers the settled mass the same way, so the
    sampler reads p and r from the totals. snapshots lists the frozen ledger
    created by each push, in push order. reachable holds every node with a
    path into the target set.
    """

    targets: frozenset[int]
    eps_r: float
    alpha: float
    reachable: frozenset[int]
    estimates: Row
    residuals: Row
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
    search over in-edges from the targets fills ``reachable``. Raises
    ValueError unless eps_r is positive and finite.
    """
    if not 0.0 < eps_r < math.inf:
        raise ValueError(f"eps_r must be positive and finite, got {eps_r}")
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


def _uniforms(rng: np.random.Generator):
    """Uniform variates in [0, 1), drawn from rng in blocks of _BLOCK."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def _descend(current, path: list[int], draw) -> list[int]:
    """Unwind a ledger into its walk suffix, one variate per level.

    A drawn child either is the frozen ledger of the suffix's next node
    (append its owner and keep descending) or is None, meaning the walk
    ends at the node we are already standing on.
    """
    while True:
        child = current.pick(draw())
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
    UnreachableTargetError before any draw when no path leads from s into
    the target set, and RuntimeError after ACCEPTANCE_CAP rejections (the
    conditioning event is vanishingly rare from s).

    Every variate comes from blocks of _BLOCK uniforms drawn from rng, so
    an attempt makes no scalar draw and no ``random_walk_path`` call: one
    variate picks the branch of an attempt; each walk step takes a stop coin (the
    walk goes on while it is >= alpha, so P[L = l] = (1-alpha)^l * alpha)
    and then an edge variate under ``random_walk_path``'s step rule; a
    ledger descent takes one per level. Paths are deterministic per seed,
    but differ from those of versions that drew scalar variates.

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
    draw = _uniforms(rng).__next__
    step = _one_walk_step(g)
    alpha = state.alpha
    settled = state.estimate_provenance.get(s)
    p_s = settled.total if settled is not None else 0.0
    total = p_s + state.eps_r
    live = state.live
    for attempt in range(1, ACCEPTANCE_CAP + 1):
        x = draw() * total
        if x < p_s:
            path = _descend(settled.pick(draw()), [s], draw)
            branch = "settled"
            break
        u = s
        walk = [u]
        while draw() >= alpha:
            u = step(u, draw())
            walk.append(u)
        ledger = live.get(u)
        if ledger is not None and x - p_s < ledger.total:
            path = _descend(ledger, walk, draw)
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
