"""Shared helpers: random graph generation with controlled shape."""

import numpy as np
import pytest

import pushwalk as pw


def rand_graph(rng, n_max=50, n_min=3, directed=None, weighted=None,
               sink=True):
    """Random graph with mixed structure for invariant batteries.

    directed/weighted default to a coin flip each.  Directed graphs get the
    absorbing-sink treatment (unless sink=False) so every row is stochastic.
    """
    n = int(rng.integers(n_min, n_max + 1))
    if directed is None:
        directed = bool(rng.integers(2))
    if weighted is None:
        weighted = bool(rng.integers(2))
    density = rng.uniform(1.2, 3.0)
    n_edges = max(1, int(density * n))
    edges = []
    seen = set()
    for _ in range(n_edges):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if directed and u == v and rng.random() < 0.5:
            continue
        if (u, v) in seen:
            continue
        seen.add((u, v))
        w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
        edges.append((u, v, w))
    if not edges:
        edges = [(0, (1 % n), 1.0)]
    g = pw.from_edges(edges, n=n, undirected=not directed)
    if directed and sink:
        g = pw.apply_sink_convention(g)
    if not directed:
        # drop isolated-vertex ambiguity: connect any zero-degree node
        isolated = [v for v in range(g.n) if not g.out_adj[v]]
        if isolated:
            extra = [(v, (v + 1) % n, 1.0) for v in isolated]
            g = pw.from_edges(edges + extra, n=n, undirected=True)
    return g


def two_cycle():
    return pw.apply_sink_convention(
        pw.from_edges([(0, 1, 1.0), (1, 0, 1.0)], n=2))


def weighted_five():
    """Five nodes, every one with uneven out-weights except node 3, so walks
    on it run both step rules."""
    return pw.from_edges([
        (0, 1, 1.0), (0, 2, 3.0), (0, 3, 0.5), (1, 0, 2.0), (1, 3, 1.0),
        (2, 1, 1.0), (2, 3, 4.0), (2, 4, 2.0), (3, 0, 1.0), (3, 4, 1.0),
        (4, 0, 1.0), (4, 2, 2.5), (4, 4, 0.7),
    ], n=5)


class NoDraws:
    """Stands in for a Generator that must not be drawn from."""

    def random(self, size=None):
        raise AssertionError("drew variates for an unreachable target")


def reverse_invariant_gap(g, t, res, pim, sources):
    """max_s |pi_s[t] - (p[s] + sum_v pi_s[v] r[v])| for the given sources."""
    gap = 0.0
    for s in sources:
        recon = res.estimates.get(s, 0.0)
        for v, rv in res.residuals.items():
            recon += pim[s][v] * rv
        gap = max(gap, abs(pim[s][t] - recon))
    return gap


def forward_invariant_gap(g, s, res, pim, targets):
    """max_t |pi_s[t] - (p[t] + sum_v r[v] pi_v[t])| for the given targets."""
    gap = 0.0
    for t in targets:
        recon = res.estimates.get(t, 0.0)
        for v, rv in res.residuals.items():
            recon += rv * pim[v][t]
        gap = max(gap, abs(pim[s][t] - recon))
    return gap


@pytest.fixture
def rng():
    return np.random.default_rng(0)
