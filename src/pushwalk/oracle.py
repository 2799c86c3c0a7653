"""Exact reference computations used as ground truth in tests and benchmarks.

Everything here is deliberately simple: full power iteration or an n x n
matrix, which leave no room for the approximation bugs these oracles exist
to catch. exact_ppr, exact_mstp and exact_first_passage, which the CLI also
calls at run time, iterate over the edge list; exact_ppr_matrix is dense and
meant for desk-scale graphs.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph
from .push import _check_node
from .sampling import source_of

__all__ = [
    "ConvergenceError",
    "UnreachableTargetError",
    "transition_matrix",
    "exact_ppr",
    "exact_ppr_matrix",
    "exact_global_pagerank",
    "exact_mstp",
    "exact_first_passage",
    "exact_conditional_path_dist",
]

_TOL = 1e-12  # power-iteration error bound (see exact_ppr)
_PATH_CAP = 2_000_000  # most walks exact_conditional_path_dist enumerates


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge (signals a normalization bug)."""


class UnreachableTargetError(ValueError):
    """No walk from the source ever reaches the requested target set."""


def transition_matrix(g: Graph) -> np.ndarray:
    """Dense row-stochastic transition matrix W (dangling rows are zero)."""
    tails, heads, weights = g.edge_arrays
    W = np.zeros((g.n, g.n))
    W[tails, heads] = weights
    return W


def exact_ppr(g: Graph, source, alpha: float) -> np.ndarray:
    """Exact personalized PageRank by power iteration over the edge list.

    Iterates p <- alpha*s + (1-alpha)*p@W from p0 = s, one O(m) bincount
    per step (no n x n matrix is built), until the successive
    infinity-norm change drops below _TOL*alpha, which bounds the final
    infinity-norm error by ~_TOL = 1e-12. Raises ConvergenceError after
    ceil(log(_TOL)/log(1-alpha)) + 64 iterations — on a properly normalized
    graph with the sink convention applied that never happens.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = source_of(g, source).distribution()
    tails, heads, weights = g.edge_arrays
    max_iters = math.ceil(math.log(_TOL) / math.log(1.0 - alpha)) + 64
    p = s.copy()
    for _ in range(max_iters):
        step = np.bincount(heads, weights=p[tails] * weights, minlength=g.n)
        nxt = alpha * s + (1.0 - alpha) * step
        delta = float(np.max(np.abs(nxt - p)))
        p = nxt
        if delta < _TOL * alpha:
            return p
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations; "
        "check that the graph is normalized and has no dangling nodes"
    )


def exact_ppr_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Full PPR matrix via a single dense solve: row s is pi_s.

    pi_s solves pi = alpha*e_s + (1-alpha)*pi@W, i.e. pi = alpha*e_s@M with
    M = inv(I - (1-alpha)W). One factorization serves all sources, which the
    pair-sweep tests exploit; tests cross-check it against exact_ppr.

    Requires every row of W to be stochastic (apply the sink convention
    first); with a dangling row the matrix is still invertible but rows no
    longer sum to 1.
    """
    W = transition_matrix(g)
    A = np.eye(g.n) - (1.0 - alpha) * W
    return alpha * np.linalg.inv(A)


def exact_global_pagerank(g: Graph, alpha: float) -> np.ndarray:
    """Global PageRank: PPR from the uniform source distribution."""
    return exact_ppr(g, np.full(g.n, 1.0 / g.n), alpha)


def exact_mstp(g: Graph, source, ell: int) -> np.ndarray:
    """Exact ell-step transition distribution s @ W^ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell > 10_000:
        raise ValueError("ell > 10000 exceeds the desk-scale oracle bound")
    vec = source_of(g, source).distribution()
    tails, heads, weights = g.edge_arrays
    for _ in range(ell):
        vec = np.bincount(heads, weights=vec[tails] * weights, minlength=g.n)
    return vec


def exact_first_passage(g: Graph, source, t: int, ell_max: int) -> np.ndarray:
    """First-passage probabilities to t for lengths 1..ell_max (inclusive).

    Entry ell-1 is P[X_ell = t and X_j != t for 1 <= j < ell | X_0 ~ source]
    under the fixed-length chain W. Time-0 occupancy of t is ignored, so for
    source = t this is the first-return distribution.
    """
    _check_node(g, t)
    if ell_max < 1:
        return np.zeros(0)
    s = source_of(g, source).distribution()
    tails, heads, weights = g.edge_arrays
    # h[v] = P[first hit of t happens in exactly `steps` more steps | at v],
    # built backwards: h_1[v] = W[v, t]; h_{k}[v] = sum_{u != t} W[v,u] h_{k-1}[u].
    out = np.zeros(ell_max)
    h = np.bincount(tails, weights=weights * (heads == t), minlength=g.n)
    out[0] = float(s @ h)
    mask = np.ones(g.n)
    mask[t] = 0.0
    for ell in range(2, ell_max + 1):
        h = np.bincount(tails, weights=weights * (h * mask)[heads], minlength=g.n)
        out[ell - 1] = float(s @ h)
    return out


def exact_conditional_path_dist(
    g: Graph,
    s: int,
    targets,
    alpha: float,
    max_len: int,
) -> tuple[dict[tuple[int, ...], float], float]:
    """Exhaustive conditional path distribution for tiny graphs.

    Enumerates every walk from s of length <= max_len, keeps those ending in
    ``targets``, and divides each absolute probability
    alpha*(1-alpha)^len * prod(edge weights) by the total conditioning mass
    pi_s(targets) (computed by exact_ppr over the full horizon). Returns
    (path -> conditional probability, tail_mass) where tail_mass is the
    conditional mass of target-terminated walks longer than max_len.

    Raises UnreachableTargetError when pi_s(targets) is zero, and
    RuntimeError when the enumeration would exceed 2,000,000 paths.
    """
    target_set = set(targets)
    if not target_set:
        raise ValueError("targets must be non-empty")
    pi = exact_ppr(g, s, alpha)
    total = float(sum(pi[t] for t in target_set))
    if total < 1e-15:
        raise UnreachableTargetError(
            f"targets {sorted(target_set)} are unreachable from node {s}"
        )
    dist: dict[tuple[int, ...], float] = {}
    enumerated = 0.0
    count = 0
    # Iterative frontier expansion: prob of the walk *prefix* (edge factors
    # and (1-alpha) step factors applied), stopping mass alpha*prefix.
    frontier: list[tuple[tuple[int, ...], float]] = [((s,), 1.0)]
    for _ in range(max_len + 1):
        nxt: list[tuple[tuple[int, ...], float]] = []
        for path, prob in frontier:
            count += 1
            if count > _PATH_CAP:
                raise RuntimeError(f"path enumeration exceeded cap {_PATH_CAP}")
            if path[-1] in target_set:
                dist[path] = dist.get(path, 0.0) + alpha * prob / total
                enumerated += alpha * prob
            if len(path) <= max_len:
                for v, w in g.out_adj[path[-1]]:
                    nxt.append((path + (v,), prob * (1.0 - alpha) * w))
        frontier = nxt
    tail = 1.0 - enumerated / total
    return dist, max(tail, 0.0)
