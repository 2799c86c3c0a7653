"""Fixed-horizon transition probabilities via layered reverse push.

For an arbitrary chain (no teleportation), the probability of standing at t
after exactly ell steps satisfies a layered identity: with per-level
estimates p^i and residuals r^i seeded by r^0 = e_t,

    P[X_ell = t | X_0 ~ s] = <s, p^ell> + sum_{k=0..ell} <s W^k, r^{ell-k}>

for every horizon ell <= ell_max. It holds at p = 0 and after each push of
the ladder, which banks r^i[v] into p^i[v] and forwards it one level up
through in-edges, or only banks on the top level. First-passage mode also
banks at t, trading the identity for its first-arrival analogue. The
forward phase replaces the unknowable <s W^k, .> terms by sampling positions
of fixed-length paths. One reverse sweep plus one path set serves every
horizon up to ell_max at once, which is what makes diffusion sums cheap.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .push import SparseVec, _check_node
from .sampling import WalkConfig, random_walk_path, source_of

__all__ = [
    "MstpParams",
    "HeatKernelParams",
    "estimate_mstp",
    "estimate_heat_kernel",
    "estimate_truncated_hitting",
    "poisson_weights",
]


@dataclass
class MstpParams:
    """Horizon and accuracy knobs for the multi-step estimators.

    eps_r (the reverse residual threshold) defaults to sqrt(delta/c); c
    defaults to the empirically tuned 7, or the worst-case constant
    max(6e/eps^2, 1/ln 2) * ln(2*ell_max/p_fail) when use_theorem_c is set.
    """

    ell_max: int
    delta: float
    epsilon: float = 0.5
    p_fail: float = 0.1
    c: float = 7.0
    eps_r: float | None = None
    use_theorem_c: bool = False

    def __post_init__(self) -> None:
        if self.ell_max < 1:
            raise ValueError("ell_max must be at least 1")
        # `not 0 < x < inf` also rejects NaN
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.p_fail < 1.0:
            raise ValueError("p_fail must lie strictly between 0 and 1")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.eps_r is not None and not 0.0 < self.eps_r < math.inf:
            raise ValueError("eps_r must be positive and finite")

    def effective_c(self) -> float:
        if self.use_theorem_c:
            return max(6.0 * math.e / self.epsilon**2, 1.0 / math.log(2.0)) * math.log(
                2.0 * self.ell_max / self.p_fail
            )
        return self.c

    def effective_eps_r(self) -> float:
        if self.eps_r is not None:
            return self.eps_r
        return math.sqrt(self.delta / self.effective_c())

    def num_paths(self) -> int:
        return max(
            1,
            math.ceil(self.effective_c() * self.ell_max * self.effective_eps_r() / self.delta),
        )


def poisson_weights(t_param: float, ell_max: int) -> tuple[np.ndarray, float]:
    """Weights e^{-t} t^l / l! for l = 0..ell_max, plus the truncated tail."""
    if not 0.0 < t_param < math.inf:
        raise ValueError("t_param must be positive and finite")
    weights = np.empty(ell_max + 1)
    weights[0] = math.exp(-t_param)
    for ell in range(1, ell_max + 1):
        weights[ell] = weights[ell - 1] * t_param / ell
    return weights, max(0.0, 1.0 - float(weights.sum()))


@dataclass
class HeatKernelParams:
    """Poisson jump-length weighting with a tail-safe truncation.

    ell_max defaults to round(t + 10*sqrt(t)) — ten standard deviations
    above the mean jump count — and any explicit choice must leave a tail
    below 1e-9.
    """

    t_param: float
    ell_max: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.t_param < math.inf:
            raise ValueError("t_param must be positive and finite")
        if self.ell_max is None:
            self.ell_max = int(round(self.t_param + 10.0 * math.sqrt(self.t_param)))
        _, tail = poisson_weights(self.t_param, self.ell_max)
        if tail > 1e-9:
            raise ValueError(
                f"truncation at ell_max={self.ell_max} leaves a weight tail of "
                f"{tail:.3g} > 1e-9; raise ell_max"
            )


def _ladder(
    g: Graph,
    t: int,
    ell_max: int,
    eps_r: float,
    absorb_at_target: bool,
) -> tuple[list[SparseVec], list[SparseVec]]:
    """Per-level estimates p^i and residuals r^i, i = 0..ell_max, from r^0 = e_t.

    Level by level, in ascending node order, every r^i[v] > eps_r moves to
    p^i[v] and forwards w(u, v) * r^i[v] to r^{i+1}[u] for each in-neighbor
    u. Level i only feeds level i+1, so each (v, i) is pushed at most once.
    The top level banks without forwarding; with absorb_at_target, so does t
    on levels >= 1, the walk being finished once it first reaches t.
    """
    estimates = [SparseVec() for _ in range(ell_max + 1)]
    residuals = [SparseVec() for _ in range(ell_max + 1)]
    residuals[0][t] = 1.0
    in_adj = g.in_adj
    for i, level in enumerate(residuals):
        for v in sorted(k for k, rv in level.items() if rv > eps_r):
            rv = level.pop(v)
            estimates[i][v] = rv
            if i == ell_max or (absorb_at_target and v == t and i >= 1):
                continue
            nxt = residuals[i + 1]
            for u, w in in_adj[v]:
                nxt.add(u, w * rv)
    return estimates, residuals


def _forward_phase(
    g: Graph,
    s,
    t: int,
    params: MstpParams,
    seed: int,
    first_arrival: bool,
) -> np.ndarray:
    """Reverse ladder and path pickups of estimate_mstp.

    The paths come from one lockstep batch. The pickups read the residual
    levels by fancy index into a dense (ell_max+1) x (touched+1) matrix,
    whose columns are the nodes holding residual at any level plus one zero
    column, through a length-n column map: O(n + ell_max*touched) time and
    memory per call, whatever the size of the ladder. With first_arrival
    set, the ladder banks residual that reaches t, and the (path, k) pairs
    that estimate_truncated_hitting voids are masked out.
    """
    src = source_of(g, s)
    _check_node(g, t)
    ell_max = params.ell_max
    estimates, levels = _ladder(g, t, ell_max, params.effective_eps_r(), first_arrival)
    cfg = WalkConfig(alpha=0.5, seed=seed)  # alpha unused in fixed-length mode
    rng = cfg.stream()
    n_f = params.num_paths()
    paths = random_walk_path(g, src.starts(rng, n_f), cfg, fixed_len=ell_max, rng=rng)
    if first_arrival:
        hits = paths[:, 1:] == t
        first_hit = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, ell_max + 1)
    touched = list(set().union(*levels))
    col = np.full(g.n, len(touched), dtype=np.intp)  # untouched nodes read the zero column
    col[touched] = np.arange(len(touched))
    residuals = np.zeros((ell_max + 1, len(touched) + 1))
    for i, level in enumerate(levels):
        residuals[i, col[list(level)]] = list(level.values())
    cols = col[paths]
    rows = np.arange(n_f)
    out = np.zeros(ell_max)
    for ell in range(1, ell_max + 1):
        k = rng.integers(0, ell + 1, size=n_f)
        picked = residuals[ell - k, cols[rows, k]]
        if first_arrival:
            picked = picked[(k < first_hit) | ((k == first_hit) & (first_hit == ell))]
        out[ell - 1] = src.dot(estimates[ell]) + (ell + 1) * picked.sum() / n_f
    return out


def estimate_mstp(
    g: Graph,
    s,
    t: int,
    params: MstpParams,
    seed: int = 0,
) -> np.ndarray:
    """Estimates of P[X_ell = t] for every horizon ell = 1..ell_max.

    Reverse phase: drain all residuals above eps_r. Forward phase: sample
    fixed-length paths from s; for each horizon, each path contributes
    (ell+1) * r^{ell-k}[V_k] with k drawn uniformly from {0..ell} — an
    unbiased single-position probe of the (ell+1)-term residual sum.

    Returns a length-ell_max array (index 0 holds horizon 1).
    """
    return _forward_phase(g, s, t, params, seed, first_arrival=False)


def estimate_heat_kernel(
    g: Graph,
    s,
    t: int,
    hk: HeatKernelParams,
    params: MstpParams | None = None,
    seed: int = 0,
) -> float:
    """Poisson-weighted diffusion score sum_l alpha_l P[X_l = t].

    The horizon comes from hk; remaining accuracy knobs from params (its
    ell_max is overridden). The l=0 term is the source's own mass at t.
    """
    if params is None:
        params = MstpParams(ell_max=hk.ell_max, delta=1e-3)
    elif params.ell_max != hk.ell_max:
        params = dataclasses.replace(params, ell_max=hk.ell_max)
    src = source_of(g, s)
    weights, _ = poisson_weights(hk.t_param, hk.ell_max)
    per_ell = estimate_mstp(g, src, t, params, seed=seed)
    value = weights[0] * src.dot({t: 1.0})  # the source's own mass at t
    for ell in range(1, hk.ell_max + 1):
        value += weights[ell] * per_ell[ell - 1]
    return float(value)


def estimate_truncated_hitting(
    g: Graph,
    s,
    t: int,
    params: MstpParams,
    seed: int = 0,
) -> np.ndarray:
    """First-arrival probabilities: P[X_ell = t and no earlier visit].

    Time zero does not count as a visit, so with s = t this is the
    first-return distribution. The reverse phase banks residual that reaches
    t (levels >= 1) instead of forwarding it; the forward phase voids a
    path's contribution at position k once the path has already visited t
    strictly before k — and a pickup standing on t itself only counts when
    that first arrival closes the queried horizon exactly (k == ell), or at
    time zero. Validated against a dynamic-programming oracle; no
    concentration guarantee is claimed for this variant.
    """
    return _forward_phase(g, s, t, params, seed, first_arrival=True)
