"""Sparse reference oracle over edge arrays.

Ground truth for the benchmark's accuracy columns at workload scale. Every
routine is power iteration (or a fixed number of steps) driven by
``np.bincount`` over the normalized edge arrays, so one step costs O(m) and
nothing n x n is ever built. The package's dense oracles are used only to
cross-check these routines on small graphs (see test_perfbench.py).

The graph is parsed here from the same edge-list lines the program loads,
with the program's documented rules (first-appearance ids, summed
duplicates, symmetrized undirected input, rows normalized, dangling nodes
redirected to an absorbing sink), so a loading bug in the program shows up
as an accuracy failure instead of being shared by the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EdgeArrays:
    """Row-stochastic chain as parallel arrays: W[src[i], dst[i]] = w[i]."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    names: tuple[str, ...]

    @classmethod
    def from_lines(cls, lines, undirected: bool) -> "EdgeArrays":
        ids: dict[str, int] = {}
        raw: dict[tuple[int, int], float] = {}
        for line in lines:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            u = ids.setdefault(parts[0], len(ids))
            v = ids.setdefault(parts[1], len(ids))
            wt = float(parts[2]) if len(parts) > 2 else 1.0
            raw[(u, v)] = raw.get((u, v), 0.0) + wt
            if undirected:
                raw[(v, u)] = raw.get((v, u), 0.0) + wt
        names = [None] * len(ids)
        for name, node in ids.items():
            names[node] = name
        return cls.from_weighted(raw, len(ids), names, directed=not undirected)

    @classmethod
    def from_edges(cls, edges, n: int, undirected: bool = False) -> "EdgeArrays":
        """Same rules as ``pushwalk.from_edges`` (ids are taken as given)."""
        raw: dict[tuple[int, int], float] = {}
        for u, v, *rest in edges:
            wt = float(rest[0]) if rest else 1.0
            raw[(u, v)] = raw.get((u, v), 0.0) + wt
            if undirected:
                raw[(v, u)] = raw.get((v, u), 0.0) + wt
        return cls.from_weighted(raw, n, [str(i) for i in range(n)], not undirected)

    @classmethod
    def from_weighted(cls, raw, n: int, names, directed: bool) -> "EdgeArrays":
        keys = np.array(sorted(raw), dtype=np.int64).reshape(-1, 2)
        src, dst = keys[:, 0], keys[:, 1]
        w = np.array([raw[(int(u), int(v))] for u, v in keys], dtype=float)
        w /= np.bincount(src, weights=w, minlength=n)[src]
        dangling = np.flatnonzero(np.bincount(src, minlength=n) == 0)
        if directed and dangling.size:
            sink = n
            n += 1
            names = list(names) + ["__sink__"]
            src = np.concatenate([src, dangling, [sink]])
            dst = np.concatenate([dst, np.full(dangling.size + 1, sink)])
            w = np.concatenate([w, np.ones(dangling.size + 1)])
        return cls(n, src, dst, w, tuple(names))

    # ------------------------------------------------------------------
    def step(self, x: np.ndarray) -> np.ndarray:
        """Row vector one step forward: x @ W."""
        return np.bincount(self.dst, weights=x[self.src] * self.w, minlength=self.n)

    def pull(self, y: np.ndarray) -> np.ndarray:
        """Column vector one step back: W @ y."""
        return np.bincount(self.src, weights=self.w * y[self.dst], minlength=self.n)

    def unit(self, v: int) -> np.ndarray:
        e = np.zeros(self.n)
        e[v] = 1.0
        return e


def _iterations(alpha: float, tol: float) -> int:
    # The remaining error after k iterations is at most (1 - alpha)^k.
    return math.ceil(math.log(tol) / math.log(1.0 - alpha)) + 1


def ppr_row(ea: EdgeArrays, source: np.ndarray, alpha: float, tol: float = 1e-13):
    """pi_source over every target: p = alpha*s + (1-alpha) p W."""
    p = source.copy()
    for _ in range(_iterations(alpha, tol)):
        p = alpha * source + (1.0 - alpha) * ea.step(p)
    return p


def ppr_column(ea: EdgeArrays, targets, alpha: float, tol: float = 1e-13):
    """pi_s(T) for every source s: x = alpha*e_T + (1-alpha) W x.

    ``targets`` is one node or a collection of nodes T."""
    e = np.zeros(ea.n)
    e[targets] = 1.0
    x = e.copy()
    for _ in range(_iterations(alpha, tol)):
        x = alpha * e + (1.0 - alpha) * ea.pull(x)
    return x


def global_pagerank(ea: EdgeArrays, alpha: float) -> np.ndarray:
    return ppr_row(ea, np.full(ea.n, 1.0 / ea.n), alpha)


def horizon_rows(ea: EdgeArrays, s: int, ell_max: int) -> np.ndarray:
    """Row ell holds the exact distribution after ell steps, ell = 0..ell_max."""
    rows = np.empty((ell_max + 1, ea.n))
    rows[0] = ea.unit(s)
    for ell in range(1, ell_max + 1):
        rows[ell] = ea.step(rows[ell - 1])
    return rows


def heat_kernel(ea: EdgeArrays, s: int, t: int, t_param: float, ell_max: int) -> float:
    """sum_l e^{-t} t^l / l! * P[X_l = t | X_0 = s], truncated at ell_max."""
    weights = np.empty(ell_max + 1)
    weights[0] = math.exp(-t_param)
    for ell in range(1, ell_max + 1):
        weights[ell] = weights[ell - 1] * t_param / ell
    return float(weights @ horizon_rows(ea, s, ell_max)[:, t])


def first_arrival(ea: EdgeArrays, s: int, t: int, ell_max: int) -> np.ndarray:
    """P[X_l = t and X_j != t for 1 <= j < l], l = 1..ell_max.

    Time zero is not a visit, matching ``pushwalk.exact_first_passage``.
    """
    out = np.zeros(ell_max)
    x = ea.unit(s)
    for ell in range(1, ell_max + 1):
        x = ea.step(x)
        out[ell - 1] = x[t]
        x[t] = 0.0
    return out


def conditional_endpoint_law(ea: EdgeArrays, s: int, targets, alpha: float) -> dict:
    """Endpoint law of a walk from s conditioned on ending in the target set:
    t -> pi_s[t] / pi_s(T)."""
    pi = ppr_row(ea, ea.unit(s), alpha)
    ts = sorted(set(int(t) for t in targets))
    total = float(pi[ts].sum())
    if not total > 0.0:
        raise ValueError(f"targets unreachable from {s}")
    return {t: float(pi[t]) / total for t in ts}
