"""Fixed-horizon transition probabilities via layered reverse push.

For an arbitrary chain (no teleportation), the probability of standing at t
after exactly ell steps satisfies a layered identity: with per-level
estimates p^i and residuals r^i seeded by r^0 = e_t,

    P[X_ell = t | X_0 ~ s] = <s, p^ell> + sum_{k=0..ell} <s W^k, r^{ell-k}>

for every horizon ell <= ell_max. It holds at p = 0 and after each push of
the ladder, which banks r^i[v] into p^i[v] and forwards it one level up
through in-edges, or only banks on the top level. First-passage mode also
banks at t, trading the identity for its first-arrival analogue. The
forward phase replaces the unknowable <s W^k, .> terms by reading the
residuals at every position of fixed-length paths from s. One reverse sweep
plus one path set serves every horizon up to ell_max at once, which is what
makes diffusion sums cheap. The heat kernel is one Poisson-weighted score,
so it draws only the paths that one score needs (heat_kernel_paths), not
the per-horizon budget of MstpParams.num_paths().
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import Graph
from .push import _check_node
from .sampling import WalkConfig, random_walk_path, source_of

__all__ = [
    "MstpParams",
    "HeatKernelParams",
    "estimate_mstp",
    "estimate_heat_kernel",
    "estimate_truncated_hitting",
    "heat_kernel_paths",
    "poisson_weights",
]


def _check_ell_max(ell_max) -> None:
    # bool is an Integral too, and True would run as horizon 1
    if isinstance(ell_max, bool) or not isinstance(ell_max, numbers.Integral):
        raise ValueError(f"ell_max must be an integer, got {ell_max!r}")
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")


def _theorem_c(epsilon: float, p_fail: float, events: int) -> float:
    """Worst-case path constant when `events` estimates must all hold at
    once: max(6e/eps^2, 1/ln 2) * ln(2*events/p_fail), a union bound."""
    return max(6.0 * math.e / epsilon**2, 1.0 / math.log(2.0)) * math.log(2.0 * events / p_fail)


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
        _check_ell_max(self.ell_max)
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
            return _theorem_c(self.epsilon, self.p_fail, self.ell_max)
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
    """Weights e^{-t} t^l / l! for l = 0..ell_max, plus the truncated tail.

    Each weight is exp(-t + l ln t - ln l!) in log space: the recurrence
    from e^{-t} starts subnormal for t > 708 and loses the mass.
    """
    if not 0.0 < t_param < math.inf:
        raise ValueError("t_param must be positive and finite")
    ell = np.arange(ell_max + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(ell_max + 1)])
    weights = np.exp(ell * math.log(t_param) - t_param - log_fact)
    return weights, max(0.0, 1.0 - float(weights.sum()))


# Largest Poisson weight mass a heat-kernel truncation may drop.
_TAIL_MAX = 1e-9


@dataclass
class HeatKernelParams:
    """Poisson jump-length weighting with a tail-safe truncation.

    ell_max defaults to round(t + 10*sqrt(t)) — ten standard deviations
    above the mean jump count — but at least 1, raised while the tail
    exceeds 1e-9 (t = 0.5 needs 9, not 8). An explicit choice must be an
    integer >= 1 that leaves a tail below 1e-9.
    """

    t_param: float
    ell_max: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.t_param < math.inf:
            raise ValueError("t_param must be positive and finite")
        if self.ell_max is None:
            self.ell_max = max(1, round(self.t_param + 10.0 * math.sqrt(self.t_param)))
            while poisson_weights(self.t_param, self.ell_max)[1] > _TAIL_MAX:
                self.ell_max += 1
        else:
            _check_ell_max(self.ell_max)
        _, tail = poisson_weights(self.t_param, self.ell_max)
        if tail > _TAIL_MAX:
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
) -> tuple[list[dict[int, float]], list[dict[int, float]]]:
    """Per-level estimates p^i and residuals r^i, i = 0..ell_max, from r^0 = e_t.

    Level by level, in ascending node order, every r^i[v] > eps_r moves to
    p^i[v] and forwards w(u, v) * r^i[v] to r^{i+1}[u] for each in-neighbor
    u. Level i only feeds level i+1, so each (v, i) is pushed at most once.
    The top level banks without forwarding; with absorb_at_target, so does t
    on levels >= 1, the walk being finished once it first reaches t.
    """
    estimates = [{} for _ in range(ell_max + 1)]
    residuals = [{} for _ in range(ell_max + 1)]
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
                nxt[u] = nxt.get(u, 0.0) + w * rv
    return estimates, residuals


def _forward_phase(
    g: Graph,
    s,
    t: int,
    params: MstpParams,
    seed: int,
    first_arrival: bool,
    n_f: int,
) -> np.ndarray:
    """Reverse ladder and the pickups of n_f paths, for every horizon.

    The paths come from one lockstep batch, and nothing is drawn after
    them. The residual levels go into a dense (ell_max+1) x cells matrix,
    whose columns are the nodes holding residual at any level plus one zero
    column, reached through a length-n column map. Position k of a path
    standing at node v is counted in cell k*cells + col[v], so one bincount
    gives the visit histogram, and visits @ residuals.T holds every
    sum over paths of r^i[V_k] at once; horizon ell adds up its anti-diagonal
    k + i = ell. Cost: O(n + n_f*ell_max + ell_max^2*touched) time and
    O(n + ell_max*touched) memory beyond the paths, whatever the size of
    the ladder. With first_arrival set, the ladder banks residual that
    reaches t, positions at or after a path's first visit to t read the
    zero column, and a path whose first visit is at ell adds r^0[t] at
    horizon ell.
    """
    src = source_of(g, s)
    _check_node(g, t)
    ell_max = params.ell_max
    estimates, levels = _ladder(g, t, ell_max, params.effective_eps_r(), first_arrival)
    cfg = WalkConfig(alpha=0.5, seed=seed)  # alpha unused in fixed-length mode
    rng = cfg.stream()
    paths = random_walk_path(g, src.starts(rng, n_f), cfg, fixed_len=ell_max, rng=rng)
    # built key by key (a union of plain dicts presizes the set and lists the
    # keys in another order): the column order fixes the rounding below
    touched = list(set(chain.from_iterable(levels)))
    cells = len(touched) + 1
    col = np.full(g.n, len(touched), dtype=np.intp)  # untouched nodes read the zero column
    col[touched] = np.arange(len(touched))
    residuals = np.zeros((ell_max + 1, cells))
    sizes = [len(level) for level in levels]
    nodes = np.fromiter(chain.from_iterable(levels), np.intp, sum(sizes))
    values = np.fromiter(chain.from_iterable(lv.values() for lv in levels), float, sum(sizes))
    residuals[np.repeat(np.arange(len(levels)), sizes), col[nodes]] = values
    codes = col[paths]
    if first_arrival:
        hits = paths[:, 1:] == t
        first_hit = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, ell_max + 1)
        codes[np.arange(ell_max + 1) >= first_hit[:, None]] = len(touched)
    codes += np.arange(0, (ell_max + 1) * cells, cells)  # position k's block of cells
    visits = np.bincount(codes.ravel(), minlength=(ell_max + 1) * cells)
    by_pos = visits.reshape(ell_max + 1, cells) @ residuals.T
    k = np.arange(ell_max + 1)
    # horizon ell sums the cells (k, i) of by_pos with k + i = ell
    out = np.bincount((k[:, None] + k).ravel(), weights=by_pos.ravel())[1 : ell_max + 1]
    if first_arrival:  # r^0[t] is nonzero only when eps_r >= 1 left it unpushed
        out += np.bincount(first_hit, minlength=ell_max + 2)[1:-1] * residuals[0, col[t]]
    out /= n_f
    out += [src.dot(estimates[ell]) for ell in range(1, ell_max + 1)]
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
    fixed-length paths V from s; for horizon ell, each path contributes
    sum_{k=0..ell} r^{ell-k}[V_k], whose mean over paths is the residual
    term of the layered identity, so the estimate is unbiased. It is the
    conditional expectation, given the path, of the single-position probe
    (ell+1) * r^{ell-k}[V_k] with k uniform on {0..ell}, so its variance is
    no larger. Every residual left by the ladder is at most eps_r, so each
    path's sum lies in [0, (ell+1) * eps_r], the probe's own range: the
    num_paths() budget, and with use_theorem_c its (epsilon, delta, p_fail)
    guarantee, carry over unchanged.

    Returns a length-ell_max array (index 0 holds horizon 1).
    """
    return _forward_phase(g, s, t, params, seed, False, params.num_paths())


def _heat_params(hk: HeatKernelParams, params: MstpParams | None) -> MstpParams:
    """params at hk's horizon; delta 1e-3 and the defaults when None."""
    if params is None:
        return MstpParams(ell_max=hk.ell_max, delta=1e-3)
    if params.ell_max != hk.ell_max:
        return dataclasses.replace(params, ell_max=hk.ell_max)
    return params


def heat_kernel_paths(hk: HeatKernelParams, params: MstpParams | None = None) -> int:
    """Paths estimate_heat_kernel draws: ceil(c_h * R * eps_r / delta), at least 1.

    R = sum_{l>=1} w_l (l+1) is about t+1. c_h is params.c, or under
    use_theorem_c max(6e/eps^2, 1/ln 2) * ln(2/p_fail); eps_r is
    params.effective_eps_r() at hk's ell_max. The argument is in
    estimate_heat_kernel's docstring.
    """
    params = _heat_params(hk, params)
    weights, _ = poisson_weights(hk.t_param, hk.ell_max)
    reach = float(weights[1:] @ np.arange(2, hk.ell_max + 2))
    c_h = _theorem_c(params.epsilon, params.p_fail, 1) if params.use_theorem_c else params.c
    return max(1, math.ceil(c_h * reach * params.effective_eps_r() / params.delta))


def estimate_heat_kernel(
    g: Graph,
    s,
    t: int,
    hk: HeatKernelParams,
    params: MstpParams | None = None,
    seed: int = 0,
) -> float:
    """Poisson-weighted diffusion score sum_{l=0..ell_max} w_l P[X_l = t].

    w_l = e^{-t} t^l / l!. The horizon comes from hk; remaining accuracy
    knobs from params (its ell_max is overridden). The l=0 term is the
    source's own mass at t, exact. The other terms share one ladder and one
    path set, as in estimate_mstp, but the paths are counted for the one
    score, not for every horizon:

    - Each path's weighted pickup X = sum_{l>=1} w_l sum_{k=0..l}
      r^{l-k}[V_k] lies in [0, R * eps_r], R = sum_{l>=1} w_l (l+1),
      because the ladder leaves no residual above eps_r on any level.
    - E[X] is the residual part of the score, so at most the score.
    - The multiplicative Chernoff bound on the mean of n_f draws scaled to
      [0, 1] then keeps the error within epsilon * max(score, delta),
      except with probability p_fail, once n_f >= c_h * R * eps_r / delta,
      with c_h = max(6e/eps^2, 1/ln 2) * ln(2/p_fail) (use_theorem_c).
      One score needs no union bound over the ell_max horizons, so c_h has
      ln(2/p_fail) where MstpParams.effective_c() has ln(2*ell_max/p_fail).
      Otherwise c_h is params.c.
    - eps_r stays params.effective_eps_r(), so the ladder is estimate_mstp's.
    - Truncating at ell_max drops a weight tail of at most 1e-9
      (HeatKernelParams). Each dropped P[X_l = t] is at most 1, so the
      truncated score lies at most 1e-9 below the full series.

    heat_kernel_paths gives n_f: 523 paths at t = 3, delta = 4e-4 and
    c = 7, where MstpParams.num_paths() would give 2,646.
    """
    params = _heat_params(hk, params)
    src = source_of(g, s)
    weights, _ = poisson_weights(hk.t_param, hk.ell_max)
    per_ell = _forward_phase(g, src, t, params, seed, False, heat_kernel_paths(hk, params))
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
    return _forward_phase(g, s, t, params, seed, True, params.num_paths())
