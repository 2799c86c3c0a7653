"""Weighted directed/undirected graphs with dual-direction adjacency.

The graph is the shared substrate for every estimator in this package. It
stores, for each node, both the out-adjacency and the in-adjacency (the exact
transpose), with out-edge weights normalized to sum to 1 per node so that the
weight w[u][v] is directly the transition probability of the random walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_edge_list",
    "parse_edge_lines",
    "apply_sink_convention",
    "salsa_transform",
    "SINK_NAME",
]

SINK_NAME = "__sink__"

# Tolerance for the row-stochastic invariant (checked in validate()).
_STOCHASTIC_TOL = 1e-12


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed into a valid graph."""


@dataclass
class Graph:
    """Immutable-by-convention weighted graph.

    Attributes
    ----------
    n, m:
        Node count and directed edge count (after symmetrization for
        undirected graphs; each undirected edge contributes two).
    out_adj, in_adj:
        Per-node lists of ``(neighbor, weight)``. ``out_adj[u]`` holds
        normalized transition weights summing to 1 for every non-dangling u;
        ``in_adj`` is the exact transpose (same multiset of (u, v, w)).
    undirected_flag:
        True when the graph was built symmetrically. In that case
        ``node_degree`` holds the raw incident-weight sum per node ("strength",
        equal to the neighbor count on unweighted graphs), the d_v used by the
        undirected estimators.
    names:
        Original node labels, indexed by dense NodeId.
    walk_table:
        The out-adjacency as the CSR tables that walk steps read, built
        from ``edge_arrays`` by the first walk on the graph.
    """

    n: int
    m: int
    out_adj: list[list[tuple[int, float]]]
    in_adj: list[list[tuple[int, float]]]
    undirected_flag: bool
    node_degree: list[float] | None = None
    names: list[str] = field(default_factory=list)
    walk_table: object | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def degree(self, u: int) -> float:
        """Degree used in push thresholds: strength when undirected,
        out-degree count when directed."""
        if self.undirected_flag and self.node_degree is not None:
            return self.node_degree[u]
        return float(len(self.out_adj[u]))

    def average_degree(self) -> float:
        return self.m / self.n if self.n else 0.0

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge list as (tails, heads, weights) arrays in out-adjacency
        order, built on first use: the whole-graph oracles and the
        whole-vector push rounds step with them."""
        tails = np.repeat(np.arange(self.n), [len(adj) for adj in self.out_adj])
        heads = np.fromiter((v for adj in self.out_adj for v, _ in adj), np.intp, self.m)
        weights = np.fromiter((w for adj in self.out_adj for _, w in adj), float, self.m)
        for arr in (tails, heads, weights):
            arr.flags.writeable = False  # shared by every caller
        return tails, heads, weights

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-adjacency as read-only CSR arrays (in_ptr, in_tails,
        in_weights), built on first use: node v's in-edges are entries
        in_ptr[v]:in_ptr[v+1], in ``in_adj[v]``'s order. The gathered
        reverse-push rounds read them."""
        tails, heads, weights = self.edge_arrays
        order = np.argsort(heads, kind="stable")
        in_ptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(heads, minlength=self.n), out=in_ptr[1:])
        csr = in_ptr, tails[order], weights[order]
        for arr in csr:
            arr.flags.writeable = False  # shared by every caller
        return csr

    @cached_property
    def _ids(self) -> dict[str, int]:
        """Label -> node, built on first lookup; a repeated label resolves
        to its first node."""
        return {name: v for v, name in reversed(list(enumerate(self.names)))}

    def node_id(self, token: str) -> int:
        """Node named by a label, else by an in-range integer id; KeyError
        otherwise."""
        node = self._ids.get(token)
        if node is not None:
            return node
        try:
            node = int(token)
        except ValueError:
            raise KeyError(f"unknown node {token!r}") from None
        if not 0 <= node < self.n:
            raise KeyError(f"node index {node} out of range (n={self.n})")
        return node

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the structural invariants; raises AssertionError on bugs."""
        assert self.n == len(self.out_adj) == len(self.in_adj)
        assert self.m == sum(len(a) for a in self.out_adj)
        assert self.m == sum(len(a) for a in self.in_adj)
        out_set: set[tuple[int, int, float]] = set()
        for u, adj in enumerate(self.out_adj):
            total = 0.0
            seen: set[int] = set()
            for v, w in adj:
                assert w > 0.0, f"non-positive weight on edge {u}->{v}"
                assert v not in seen, f"duplicate edge {u}->{v}"
                seen.add(v)
                total += w
                out_set.add((u, v, w))
            if adj:
                assert abs(total - 1.0) <= _STOCHASTIC_TOL * max(1, len(adj)), (
                    f"out-weights of node {u} sum to {total!r}"
                )
        in_set = {(u, v, w) for v, adj in enumerate(self.in_adj) for u, w in adj}
        assert out_set == in_set, "in_adj is not the transpose of out_adj"
        if self.undirected_flag:
            edges = {(u, v) for u, v, _ in out_set}
            assert edges == {(v, u) for u, v in edges}, "undirected graph not symmetric"

    def dangling_nodes(self) -> list[int]:
        return [u for u in range(self.n) if not self.out_adj[u]]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _build(
    raw_edges: dict[tuple[int, int], float],
    n: int,
    undirected: bool,
    names: list[str],
) -> Graph:
    """Assemble a Graph from deduplicated raw (summed) edge weights."""
    out_raw: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in raw_edges.items():
        out_raw[u].append((v, w))
    node_degree = None
    if undirected:
        node_degree = [sum(w for _, w in adj) for adj in out_raw]
    out_adj: list[list[tuple[int, float]]] = []
    m = 0
    for u in range(n):
        total = sum(w for _, w in out_raw[u])
        adj = [(v, w / total) for v, w in sorted(out_raw[u])] if total > 0 else []
        out_adj.append(adj)
        m += len(adj)
    in_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u in range(n):
        for v, w in out_adj[u]:
            in_adj[v].append((u, w))
    return Graph(
        n=n,
        m=m,
        out_adj=out_adj,
        in_adj=in_adj,
        undirected_flag=undirected,
        node_degree=node_degree,
        names=names,
    )


def parse_edge_lines(lines, undirected: bool, source: str = "<memory>") -> Graph:
    """Parse edge-list lines "u v [w]" into a normalized Graph.

    External ids are remapped to dense integers in first-appearance order
    (the mapping is retained in ``Graph.names``). Duplicate edges have their
    weights summed before normalization; undirected input materializes each
    edge in both directions before normalization.
    """
    ids: dict[str, int] = {}
    names: list[str] = []

    def intern(tok: str) -> int:
        node = ids.get(tok)
        if node is None:
            node = len(names)
            ids[tok] = node
            names.append(tok)
        return node

    raw: dict[tuple[int, int], float] = {}
    saw_edge = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"{source}:{lineno}: expected 'u v [w]', got {line.rstrip()!r}"
            )
        u, v = intern(parts[0]), intern(parts[1])
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(
                    f"{source}:{lineno}: bad weight {parts[2]!r}"
                ) from None
        else:
            w = 1.0
        if not w > 0.0 or w != w or w == float("inf"):
            raise GraphFormatError(
                f"{source}:{lineno}: weight must be positive and finite, got {w!r}"
            )
        saw_edge = True
        raw[(u, v)] = raw.get((u, v), 0.0) + w
        if undirected:
            raw[(v, u)] = raw.get((v, u), 0.0) + w
    if not saw_edge:
        raise GraphFormatError(f"{source}: no edges found (empty file?)")
    return _build(raw, len(names), undirected, names)


def load_edge_list(path: str, undirected: bool = False) -> Graph:
    """Load a whitespace-separated edge list "u v [w]" from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_lines(fh, undirected, source=path)


def from_edges(
    edges, n: int | None = None, undirected: bool = False
) -> Graph:
    """Build a Graph from an iterable of (u, v) or (u, v, w) integer tuples."""
    raw: dict[tuple[int, int], float] = {}
    max_node = -1
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        if not 0.0 < w < math.inf:
            raise GraphFormatError(
                f"weight must be positive and finite on edge {u}->{v}, got {w!r}"
            )
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative node id on edge {u}->{v}")
        max_node = max(max_node, u, v)
        raw[(u, v)] = raw.get((u, v), 0.0) + w
        if undirected:
            raw[(v, u)] = raw.get((v, u), 0.0) + w
    if n is None:
        n = max_node + 1
    elif max_node >= n:
        raise GraphFormatError(f"node id {max_node} out of range for n={n}")
    names = [str(i) for i in range(n)]
    return _build(raw, n, undirected, names)


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------

def apply_sink_convention(g: Graph) -> Graph:
    """Redirect dangling nodes to an absorbing self-looped sink.

    If ``g`` has no dangling nodes it is returned unchanged. Otherwise a sink
    node is appended with a weight-1 self-loop and every dangling node gets a
    single weight-1 out-edge to the sink. The result is directed (the added
    edges are one-way), so ``undirected_flag`` is cleared when edges had to
    be added to an undirected graph.
    """
    dangling = g.dangling_nodes()
    if not dangling:
        return g
    n = g.n + 1
    sink = g.n
    out_adj = [list(adj) for adj in g.out_adj] + [[(sink, 1.0)]]
    for u in dangling:
        out_adj[u] = [(sink, 1.0)]
    in_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u in range(n):
        for v, w in out_adj[u]:
            in_adj[v].append((u, w))
    m = sum(len(a) for a in out_adj)
    return Graph(
        n=n,
        m=m,
        out_adj=out_adj,
        in_adj=in_adj,
        undirected_flag=False,
        node_degree=None,
        names=list(g.names) + [SINK_NAME],
    )


def salsa_transform(g: Graph) -> Graph:
    """Split each node into a consumer/producer pair on an undirected graph.

    Each directed edge (u, v) becomes the undirected edge between u's
    consumer coordinate (id u) and v's producer coordinate (id n + v).
    Consumer ids are [0, n); producer ids are [n, 2n). The directed edge's
    weight is carried over as the raw symmetric weight.
    """
    n = g.n
    raw: dict[tuple[int, int], float] = {}
    for u in range(n):
        for v, w in g.out_adj[u]:
            a, b = u, n + v
            raw[(a, b)] = raw.get((a, b), 0.0) + w
            raw[(b, a)] = raw.get((b, a), 0.0) + w
    names = [f"{name}'" for name in g.names] + [f"{name}''" for name in g.names]
    return _build(raw, 2 * n, True, names)
