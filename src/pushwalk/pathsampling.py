"""Exact sampling of walks conditioned on where they end.

A reverse push from a target set T leaves settled mass (the walk surely
ends in T) and residual mass (still undecided) at every touched node.
``precompute_path_samplers`` runs the rounds of ``push.reverse_push``
from all of T, on dicts, with a log of each round, and replays the log
into provenance ledgers: per node, weighted references to the frozen
ledgers its mass flowed through. A conditioned path is then an ordinary
forward walk for the prefix plus one descent through the ledgers for the
suffix, and its distribution is exactly the geometric walk conditioned on
ending in T, no matter how far the push was run. Each descent level picks
by one ``bisect_right`` over a ledger's running weight totals.

``sample_path_to_target`` takes its variates from blocks of uniforms that
it draws from the generator. An attempt takes one variate for its branch;
one whose branch no live ledger can accept (no ledger total exceeds the
state's largest residual r_bar) takes no more, so only
(p_s + r_bar)/pi_s(T) of the (p_s + eps_r)/pi_s(T) attempts per path go
on to a walk or a settled descent. A walk takes one variate for its
length and one per step, stepped by the one-walk rule of ``sampling``; a
descent takes one per ledger level. Its paths are deterministic per seed,
but differ from those of versions that drew a stop coin per step, drew
one scalar variate at a time, or drew a walk for every attempt.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import sampling
from .graph import Graph
from .oracle import UnreachableTargetError
from .push import Row, _check_node, _fixed
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
# of its last block. A path takes ~42 variates on the benchmark's index-serve
# queries (8.2 attempts, 6 of them walks of 4 steps). Over the 1,260 path
# queries among its first 3,780 seed-1 queries (10k-node power-law graph,
# shared 2-core VM, each query run once per block size in turn, 3 passes)
# blocks of 16, 32, 64, 128 and 256 took 0.73, 0.69, 0.67, 0.71 and 0.80 s a
# pass; in a second such sweep 48 and 96 took 0.89 and 0.91 s against 0.88 s
# for 64.
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
    sampler reads p and r from the totals. max_residual is the largest live
    ledger total, 0.0 when the push leaves no residual. snapshots lists the
    frozen ledger created by each push, in round order and ascending by
    node within a round. reachable holds every node with a path into the
    target set. n and m are the node and edge counts of the graph the push
    ran on.
    """

    targets: frozenset[int]
    eps_r: float
    alpha: float
    n: int
    m: int
    reachable: frozenset[int]
    estimates: Row
    residuals: Row
    max_residual: float = 0.0
    live: dict[int, Ledger] = field(default_factory=dict)
    estimate_provenance: dict[int, Ledger] = field(default_factory=dict)
    snapshots: list[Ledger] = field(default_factory=list)


def precompute_path_samplers(
    g: Graph, targets, eps_r: float, alpha: float
) -> PathSamplerState:
    """Reverse push from the whole target set, recording provenance.

    Each target starts with one unit of residual, backed by a None entry in
    its ledger. The push runs in rounds until every residual is <= eps_r.
    Replaying a round freezes the ledger of every node it pushed and gives
    each a fresh one; then, for each pushed v in turn, it ledgers the
    settled alpha*r[v] under v's frozen copy and hands (1-alpha)*w(u,v)*r[v]
    to each in-neighbor's ledger as a reference to it, in the push's own
    order, so every live ledger's total is its residual bit for bit. A
    breadth-first search over in-edges from the targets fills
    ``reachable``. Raises ValueError unless eps_r is positive and finite
    and every target is an integer node id of g.
    """
    if not 0.0 < eps_r < math.inf:
        raise ValueError(f"eps_r must be positive and finite, got {eps_r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    targets = list(targets)
    for t in targets:
        _check_node(g, t)
    tset = frozenset(int(t) for t in targets)
    if not tset:
        raise ValueError("target set is empty")
    reachable = set(tset)
    frontier = deque(tset)
    while frontier:
        for u, _ in g.in_adj[frontier.popleft()]:
            if u not in reachable:
                reachable.add(u)
                frontier.append(u)
    seeds = sorted(tset)
    log: list[tuple[list[int], list[float]]] = []
    push = _fixed(g, seeds, eps_r, alpha, log)
    state = PathSamplerState(
        tset, eps_r, alpha, g.n, g.m, frozenset(reachable), push.estimates, push.residuals
    )
    live = state.live
    for t in seeds:
        live[t] = Ledger(t, [None], [1.0], 1.0)
    keep = 1.0 - alpha
    settled_by = state.estimate_provenance
    for pushed, moved in log:
        # freeze the whole round first: a pushed node that is another's
        # in-neighbor takes that node's reference in its fresh ledger
        frozen = [live[v].freeze() for v in pushed]
        state.snapshots.extend(frozen)
        live.update((v, Ledger(v, [], [], 0.0)) for v in pushed)
        for v, snap, rv in zip(pushed, frozen, moved):
            settled = settled_by.get(v)
            if settled is None:
                settled = settled_by[v] = Ledger(v, [], [], 0.0)
            settled.append(snap, alpha * rv)
            for u, w in g.in_adj[v]:
                acc = live.get(u)
                if acc is None:
                    acc = live[u] = Ledger(u, [], [], 0.0)
                acc.append(snap, keep * w * rv)
    state.max_residual = max(acc.total for acc in live.values())
    return state


def _uniforms(rng: np.random.Generator):
    """Uniform variates in [0, 1), drawn from rng in blocks of _BLOCK. The
    blocks are chained in C, so a variate costs no Python frame."""
    return chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))


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
    attempts: (p[s]+eps_r)/pi_s(T), at most 1 + eps_r/pi_s(T). A walk is
    drawn only when it could be accepted: no r[u] exceeds the state's
    ``max_residual`` r_bar, so an attempt whose branch variate lands at or
    past p[s]+r_bar is counted as rejected without one. The attempts that
    go on to a walk or a settled descent average (p[s]+r_bar)/pi_s(T). Raises
    UnreachableTargetError before any draw when no path leads from s into
    the target set, and RuntimeError after ACCEPTANCE_CAP rejections (the
    conditioning event is vanishingly rare from s).

    Every variate comes from blocks of _BLOCK uniforms drawn from rng, so
    an attempt makes no scalar draw and no ``random_walk_path`` call: one
    variate picks the branch of an attempt, and is all a rejected one
    without a walk takes; a walk takes one variate U for its length
    L = floor(ln(1-U)/ln(1-alpha)), so P[L >= l] = (1-alpha)^l, and then
    one edge variate per step under ``random_walk_path``'s step rule; a
    ledger descent takes one per level. Paths are deterministic per seed,
    but differ from those of versions that drew other variates.

    return_attempts appends the attempt count to the return value;
    return_branch appends which branch accepted ("settled" or "walk").
    Raises ValueError when cfg walks at another alpha than the state's, or
    when g has other node or edge counts than the graph the state was built
    on.
    """
    _check_node(g, s)
    if (g.n, g.m) != (state.n, state.m):
        raise ValueError(f"path samplers built on a graph of {state.n} nodes and {state.m} "
                         f"edges, sampled on one of {g.n} nodes and {g.m} edges")
    if cfg.alpha != state.alpha:
        raise ValueError(f"walks at alpha={cfg.alpha}, path samplers at alpha={state.alpha}")
    if s not in state.reachable:
        raise UnreachableTargetError(f"no path leads from node {s} into the target set")
    if rng is None:
        rng = cfg.stream()
    draw = _uniforms(rng).__next__
    step = _one_walk_step(g)
    log_keep = math.log(1.0 - state.alpha)
    settled = state.estimate_provenance.get(s)
    p_s = settled.total if settled is not None else 0.0
    total = p_s + state.eps_r
    r_bar = state.max_residual
    live = state.live
    for attempt in range(1, ACCEPTANCE_CAP + 1):
        x = draw() * total
        if x < p_s:
            path = _descend(settled.pick(draw()), [s], draw)
            branch = "settled"
            break
        x -= p_s
        if x >= r_bar:
            continue  # no live ledger holds more than r_bar: every walk would be rejected
        u = s
        walk = [u]
        for _ in range(int(math.log(1.0 - draw()) / log_keep)):
            u = step(u, draw())
            walk.append(u)
        ledger = live.get(u)
        if ledger is not None and x < ledger.total:
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
