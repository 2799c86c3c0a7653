"""Undirected-graph estimator with the push and walk roles swapped.

On an undirected graph the chain is reversible: pi_s[t] * d_s = pi_t[s] * d_t
where d is the (strength-weighted) degree. That symmetry lets us push
forward from the source and walk from the target, which is the cheap
direction when the target is a high-degree node.
"""

from __future__ import annotations

import math

import numpy as np

from .bidir import PprEstimate, PprParams
from .graph import Graph
from .oracle import exact_ppr
from .push import _check_node, forward_push
from .sampling import WalkConfig, walk_endpoints

__all__ = [
    "check_symmetry",
    "natural_delta",
    "worst_case_r_max",
    "estimate_ppr_undirected",
    "forward_work_bound_check",
]


def _require_undirected(g: Graph) -> None:
    if not g.undirected_flag:
        raise ValueError("this estimator requires an undirected graph")


# Largest |pi_s[t]*d_s - pi_t[s]*d_t| that check_symmetry accepts.
_SYMMETRY_TOL = 1e-9


def check_symmetry(g: Graph, s: int, t: int, alpha: float) -> bool:
    """Exact-value check of pi_s[t]*d_s == pi_t[s]*d_t (test utility)."""
    _require_undirected(g)
    _check_node(g, s)
    _check_node(g, t)
    forward = exact_ppr(g, s, alpha)[t] * g.degree(s)
    backward = exact_ppr(g, t, alpha)[s] * g.degree(t)
    return abs(forward - backward) <= _SYMMETRY_TOL


def natural_delta(g: Graph, t: int) -> float:
    """Stationary share of the target: d_t over the total degree mass.

    Scores at or above this are the ones worth resolving — it is the
    probability a long walk sits at t, so anything smaller is below the
    target's own background rate. A target outside [0, n) raises ValueError.
    """
    _require_undirected(g)
    _check_node(g, t)
    total = float(g.degrees.cumsum()[-1])  # summed in node order
    if total <= 0.0:
        raise ValueError("graph has no edges")
    return g.degree(t) / total


def worst_case_r_max(params: PprParams, d_t: float) -> float:
    """Threshold balancing push and walk costs with no degree statistics:
    (epsilon / sqrt(ln(1/p_fail))) * sqrt(delta / d_t). A d_t that is
    not positive, NaN included, raises ValueError."""
    if not d_t > 0.0:
        raise ValueError("target degree must be positive")
    return (params.epsilon / math.sqrt(math.log(1.0 / params.p_fail))) * math.sqrt(
        params.delta / d_t
    )


def estimate_ppr_undirected(
    g: Graph,
    s: int,
    t: int,
    params: PprParams,
    seed: int = 0,
) -> PprEstimate:
    """Estimate pi_s[t] by pushing from s and walking from t.

    After forward_push(s, r_max) the correction term is
    sum_v r_s[v] * pi_v[t]; by reversibility pi_v[t] = pi_t[v] * d_t / d_v,
    so walks started at t estimate it with per-sample values
    X = r_s[V] * d_t / d_V, each bounded by d_t * r_max, with mean
    pi_s[t] - p_s[t]. The walk budget is ceil(3 ln(2/p_fail) * d_t * r_max
    / (epsilon^2 * max(delta, p_s[t]))): the push estimate p_s[t] is a lower
    bound on pi_s[t], so the Chernoff argument of ``bidir._walk_phase``
    holds with range d_t * r_max. A source or target outside [0, n) raises
    ValueError.
    """
    _require_undirected(g)
    _check_node(g, s)
    _check_node(g, t)
    if g.degree(s) <= 0:
        raise ValueError(f"source node {s} is isolated")
    d_t = g.degree(t)
    if d_t <= 0:
        raise ValueError(f"target node {t} is isolated")
    r_max = params.r_max if params.r_max is not None else worst_case_r_max(params, d_t)
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    pr = forward_push(g, s, r_max, params.alpha)
    value = pr.estimates.get(t, 0.0)
    if not pr.residuals:
        return PprEstimate(value, 0, pr.pushes_performed, r_max)
    c_u = 3.0 * math.log(2.0 / params.p_fail)
    w = max(
        1,
        math.ceil(c_u * d_t * r_max / (params.epsilon**2 * max(params.delta, value))),
    )
    cfg = WalkConfig(alpha=params.alpha, seed=seed)
    ends = walk_endpoints(g, t, w, cfg)
    picked = pr.residuals.values_at(ends) * d_t / g.degrees[ends]
    total = np.add.accumulate(picked)[-1]  # summed in walk order
    return PprEstimate(value + float(total) / w, w, pr.pushes_performed, r_max)


def forward_work_bound_check(g: Graph, s: int, r_max: float, alpha: float) -> bool:
    """Instrumented run verifying the push-work lemma.

    Every push fires only while r[u]/d_u > r_max, and each one removes at
    least alpha*r_max*d_u of residual mass from a total of 1 — so the sum of
    pushed-node degrees can never exceed 1/(alpha*r_max).
    """
    _require_undirected(g)
    pr = forward_push(g, s, r_max, alpha)
    return pr.degree_sum <= 1.0 / (alpha * r_max)
