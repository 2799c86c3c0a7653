"""Bidirectional single-pair estimation: reverse push meets forward walks.

The reverse identity pi_s[t] = p[s] + sum_v pi_s[v] r[v] reads, for random V
distributed as pi_s, as an expectation: pi_s[t] = p[s] + E[r[V]]. Estimating
E[r[V]] by the empirical mean over w geometric walks gives an unbiased
estimator whose per-sample range is bounded by the push threshold r_max —
that bound is what makes far fewer walks suffice compared to plain endpoint
counting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .oracle import exact_global_pagerank
from .push import PushResult, _check_node, reverse_push, reverse_push_balanced
from .sampling import Source, WalkConfig, source_of, walk_endpoints

__all__ = [
    "PprParams",
    "PprEstimate",
    "default_r_max",
    "num_walks",
    "estimate_ppr",
    "estimate_ppr_balanced",
    "monte_carlo_ppr",
    "choose_delta_from_target",
]


@dataclass
class PprParams:
    """Accuracy knobs shared by the estimators.

    delta is the smallest score the caller wants resolved, epsilon the target
    relative error above that scale, p_fail the allowed failure probability.
    c scales the walk count; the empirically tuned default is 7, while
    use_theorem_c switches to the worst-case constant (3/eps^2)·ln(2/p_fail).
    r_max, when set, overrides the runtime-balancing default threshold.
    """

    delta: float
    alpha: float = 0.2
    epsilon: float = 0.5
    p_fail: float = 0.1
    c: float = 7.0
    r_max: float | None = None
    use_theorem_c: bool = False

    def __post_init__(self) -> None:
        # `not 0 < x < inf` also rejects NaN
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.p_fail < 1.0:
            raise ValueError("p_fail must lie strictly between 0 and 1")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.r_max is not None and not 0.0 < self.r_max < math.inf:
            raise ValueError("r_max must be positive and finite")

    def effective_c(self) -> float:
        if self.use_theorem_c:
            return (3.0 / self.epsilon**2) * math.log(2.0 / self.p_fail)
        return self.c

    def guarantee_floor(self) -> float:
        """Smallest r_max for which the accuracy guarantee is proven."""
        return 2.0 * math.e * self.delta / (self.alpha * self.epsilon)

    def resolved_r_max(self, g: Graph) -> float:
        """The r_max override when set, else default_r_max on this graph."""
        return self.r_max if self.r_max is not None else default_r_max(g, self)

    def chernoff_walks(self) -> int:
        """Walk-only budget: the union-bound count 3 ln(2/p_fail)/(eps^2 delta)."""
        c_mc = 3.0 * math.log(2.0 / self.p_fail)
        return max(1, math.ceil(c_mc / (self.epsilon**2 * self.delta)))


@dataclass
class PprEstimate:
    """What every single-pair estimator returns: the score and its cost.

    pushes counts reverse pushes (forward ones for the undirected variant);
    when the reverse push was answered from the graph's kept pushes, it
    counts those of the push that built the kept result, not pushes made by
    this call; for a kept balanced push they include the levels it pushed
    past one call's balance point (see ``push._KEPT_CALLS``). r_max_used is
    0 after a drained balanced push and inf for walk-only.
    """

    value: float
    walks_used: int
    pushes: int
    r_max_used: float


def default_r_max(g: Graph, params: PprParams) -> float:
    """Residual threshold balancing push time against walk time.

    epsilon * sqrt(davg * delta / ln(2/p_fail)) with davg = m/n; derived by
    equating the two phases' costs under the worst-case walk count.
    """
    davg = g.m / g.n
    return params.epsilon * math.sqrt(
        davg * params.delta / math.log(2.0 / params.p_fail)
    )


def num_walks(params: PprParams, r_max: float) -> int:
    """Walk budget c * r_max / delta, rounded up, never below one."""
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    return max(1, math.ceil(params.effective_c() * r_max / params.delta))


def _settle_r_max(g: Graph, params: PprParams) -> float:
    r_max = params.resolved_r_max(g)
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    floor = params.guarantee_floor()
    if r_max <= floor:
        warnings.warn(
            f"r_max={r_max:.6g} is at or below the guaranteed-accuracy floor "
            f"2e*delta/(alpha*epsilon)={floor:.6g}; estimates remain unbiased "
            "but the stated error bound is not proven in this regime",
            UserWarning,
            stacklevel=3,
        )
    return r_max


def _walk_phase(
    g: Graph,
    s: Source,
    pr: PushResult,
    r_max: float,
    params: PprParams,
    seed: int,
) -> PprEstimate:
    """Dot the push estimates with the source; if residual is left, add the
    mean residual picked up by c * r_max / max(delta, p_hat) walks from the
    source, where p_hat is that dot product.

    The push's invariant pi_s[t] = p_hat + E[r[V]], V ~ pi_s, makes each
    walk's pickup r[V] a variable in [0, r_max] with mean mu = pi_s[t] -
    p_hat <= pi_s[t]. For w such variables and any scale M >= mu, the
    multiplicative Chernoff bound gives P(|mean - mu| >= eps * M) <=
    2 exp(-w eps^2 M / (3 r_max)). The contract asks for error at most
    eps * max(pi_s[t], delta); take M = max(pi_s[t], delta), which is at
    least max(delta, p_hat) because the residuals are nonnegative. With the
    theorem constant c = (3 / eps^2) ln(2 / p_fail) and w = c * r_max /
    max(delta, p_hat), the exponent is ln(2 / p_fail) * M / max(delta,
    p_hat) >= ln(2 / p_fail), so the failure probability stays within
    p_fail, as it does at w = c * r_max / delta. A pair whose push alone
    passes delta (a hub target, s == t) thus draws fewer walks under the
    same (eps, delta, p_fail) contract.

    p_hat comes from the deterministic push, not from the walks, so the
    walk count is fixed before any walk is drawn and the estimate stays
    unbiased. For a distribution source p_hat averages p over it, which is
    still a lower bound on the averaged score.
    """
    value = s.dot(pr.estimates)
    if not pr.residuals:
        return PprEstimate(value, 0, pr.pushes_performed, r_max)
    w = max(1, math.ceil(params.effective_c() * r_max / max(params.delta, value)))
    ends = walk_endpoints(g, s, w, WalkConfig(alpha=params.alpha, seed=seed))
    picked = float(pr.residuals.values_at(ends).sum())
    return PprEstimate(value + picked / w, w, pr.pushes_performed, r_max)


def estimate_ppr(
    g: Graph,
    s,
    t: int,
    params: PprParams,
    seed: int = 0,
) -> PprEstimate:
    """Unbiased estimate of pi_s[t]: push estimate plus sampled residual mean.

    ``s`` may be a node id or a source distribution (dict or dense array);
    for a distribution the push estimate is averaged under it and each walk
    starts from an independently sampled node.
    """
    s = source_of(g, s)
    r_max = _settle_r_max(g, params)
    pr = reverse_push(g, t, r_max, params.alpha)
    return _walk_phase(g, s, pr, r_max, params, seed)


def estimate_ppr_balanced(
    g: Graph,
    s,
    t: int,
    params: PprParams,
    walk_time_constant: float | None = None,
    seed: int = 0,
) -> PprEstimate:
    """Like estimate_ppr, but the push phase picks its own stopping point.

    The walk budget is then c * achieved_rmax / max(delta, p[s]) (see
    ``_walk_phase``). When the push queue drains completely the answer is
    already exact and no walks run.
    """
    s = source_of(g, s)
    pr = reverse_push_balanced(
        g, t, params.alpha, params.delta, params.effective_c(), walk_time_constant
    )
    return _walk_phase(g, s, pr, pr.achieved_rmax, params, seed)


def monte_carlo_ppr(
    g: Graph,
    s,
    t: int,
    params: PprParams,
    walks: int | None = None,
    seed: int = 0,
) -> PprEstimate:
    """Plain endpoint-frequency estimate of pi_s[t].

    The default budget is params.chernoff_walks().
    """
    if walks is None:
        walks = params.chernoff_walks()
    if walks <= 0:
        raise ValueError("walk count must be positive")
    _check_node(g, t)
    cfg = WalkConfig(alpha=params.alpha, seed=seed)
    hits = int(np.count_nonzero(walk_endpoints(g, source_of(g, s), walks, cfg) == t))
    return PprEstimate(hits / walks, walks, 0, math.inf)


def choose_delta_from_target(g: Graph, t: int, alpha: float) -> float:
    """Score threshold tied to the target's own global importance.

    Returns max(pr[t], 1/n) where pr is the global (uniform-teleport)
    stationary vector — resolving scores much below a node's typical share
    costs more than it informs.
    """
    _check_node(g, t)
    return max(float(exact_global_pagerank(g, alpha)[t]), 1.0 / g.n)
