"""Weighted directed/undirected graphs, stored once as read-only CSR arrays.

Every estimator in this package reads the same out-adjacency: node u's
out-edges are entries out_ptr[u]:out_ptr[u+1] of ``heads`` and ``weights``,
sorted by head, with the weights normalized to sum to 1 per node so that
each is the random walk's transition probability. The rest is derived on
first use: the edge list (``edge_arrays``), the one transposition
(``in_csr``), and per-node (node, weight) rows (``out_adj``, ``in_adj``) for
the loops that step one node at a time, which iterate Python rows faster
than array slices.

Raw edges, repeats allowed, reach a Graph through one array path
(``_build``): an undirected edge's mirror goes right after the edge, a
repeated edge sums its raw weights in the order given and keeps the place
where it first appeared, and each node's weights are divided by its raw
out-weight total, summed in that order.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from contextlib import contextmanager
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


@dataclass(eq=False)
class Graph:
    """Weighted graph over nodes 0..n-1, built only by ``_assemble``.

    ``out_ptr``, ``heads`` and ``weights`` are the read-only out-CSR; their
    length m counts directed edges (each undirected edge contributes two).
    ``degrees[v]`` is the d_v of the push thresholds: the raw incident-weight
    sum ("strength", the neighbor count on unweighted graphs) when
    ``undirected_flag`` is set, else the out-degree count. ``names`` holds
    the original node labels; ``walk_table`` is what walk steps read besides
    the CSR, built by the first walk on the graph, and ``kept_pushes`` the
    costly reverse-push results that ``push`` keeps for targets that repeat.
    """

    n: int
    out_ptr: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    undirected_flag: bool
    degrees: np.ndarray
    names: list[str] = field(default_factory=list)
    walk_table: object | None = field(default=None, init=False, repr=False)
    kept_pushes: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.heads)

    def __post_init__(self) -> None:
        # forward_push reads a degree per edge: through a plain list
        # attribute a degree() call took 45 ns, through a cached_property 62
        self._degree_row = self.degrees.tolist()

    def degree(self, u: int) -> float:
        """``degrees[u]``, read from a list for the scalar loops."""
        return self._degree_row[u]

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, weights) in CSR order: the core arrays plus each
        edge's tail, for the whole-graph oracles and push rounds."""
        tails = np.repeat(np.arange(self.n), np.diff(self.out_ptr))
        return _frozen(tails)[0], self.heads, self.weights

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one transposition, as read-only CSR arrays (in_ptr, in_tails,
        in_weights): node v's in-edges are entries in_ptr[v]:in_ptr[v+1], in
        ascending tail order."""
        tails, heads, weights = self.edge_arrays
        order = np.argsort(heads, kind="stable")
        return _frozen(_ptr(heads, self.n), tails[order], weights[order])

    @cached_property
    def out_adj(self) -> list[list[tuple[int, float]]]:
        """Per-node (head, weight) lists in CSR order, for the scalar loops."""
        return _rows(self.out_ptr, self.heads, self.weights)

    @cached_property
    def in_adj(self) -> list[list[tuple[int, float]]]:
        """Per-node (tail, weight) lists in ``in_csr`` order, for the scalar
        loops."""
        return _rows(*self.in_csr)

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

    def validate(self) -> None:
        """Assert the structural invariants; raises AssertionError on bugs."""
        n, counts = self.n, np.diff(self.out_ptr)
        assert self.out_ptr.shape == (n + 1,) and self.out_ptr[0] == 0 and (counts >= 0).all()
        assert self.out_ptr[-1] == self.m == len(self.weights) and self.degrees.shape == (n,)
        tails, heads, weights = self.edge_arrays
        assert ((heads >= 0) & (heads < n)).all(), "edge head out of range"
        bad = np.flatnonzero(~(weights > 0.0))
        assert not bad.size, f"non-positive weight on edge {tails[bad[0]]}->{heads[bad[0]]}"
        bad = np.flatnonzero((tails[1:] == tails[:-1]) & (heads[1:] <= heads[:-1]))
        assert not bad.size, f"duplicate or unsorted edge {tails[bad[0]]}->{heads[bad[0] + 1]}"
        totals = np.bincount(tails, weights=weights, minlength=n)
        bad = np.flatnonzero(np.abs(totals - 1.0) > _STOCHASTIC_TOL * np.maximum(counts, 1))
        bad = bad[counts[bad] > 0]
        assert not bad.size, f"out-weights of node {bad[0]} sum to {totals[bad[0]]!r}"
        fresh = Graph.in_csr.func(self)  # the transposition, derived anew
        assert all(map(np.array_equal, self.in_csr, fresh)), "in_csr is not the transpose"
        if self.undirected_flag:
            edges = np.sort(tails * n + heads)
            assert np.array_equal(edges, np.sort(heads * n + tails)), "undirected graph not symmetric"
            assert np.array_equal(self.degrees > 0, counts > 0), "strength disagrees with edges"
        else:
            assert np.array_equal(self.degrees, counts), "degrees are not the out-degrees"


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _ptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR pointers of n rows from each entry's row."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller
    return arrays


def _rows(ptr: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> list:
    # One int object per node for all of its entries: the scalar loops key
    # dicts and sets by these ids, and a lookup with the stored object
    # itself skips the equality test. With an object per entry, as
    # ``tolist()`` alone gives, the layered push's drain ran 10-30% slower
    # (same-process A/B, 10k-node power-law graph).
    ids = list(range(len(ptr) - 1))
    pairs = list(zip(map(ids.__getitem__, nodes.tolist()), weights.tolist()))
    bounds = ptr.tolist()
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def _assemble(n: int, tails, heads, weights, names: list[str], strength=None) -> Graph:
    """The one Graph constructor. Takes each edge (tail, head) at most once,
    in any order, with its weight already normalized per tail, and sorts
    the edges into CSR rows by (tail, head). ``strength``, the raw
    incident-weight sum per node, marks the graph undirected and becomes
    its degrees; otherwise the degrees are the out-degree counts."""
    order = np.lexsort((heads, tails))
    out_ptr = _ptr(tails, n)
    degrees = np.diff(out_ptr).astype(float) if strength is None else strength
    out_ptr, heads, weights, degrees = _frozen(out_ptr, heads[order], weights[order], degrees)
    return Graph(n, out_ptr, heads, weights, strength is not None, degrees, names)


def _build(tails, heads, raw, n: int, undirected: bool, names) -> Graph:
    """Assemble a Graph from raw edge arrays that may repeat edges.

    Undirected input places each edge's mirror right after the edge. A
    repeated edge sums its raw weights in the order given, and takes the
    place where it first appears, so each node's total sums its raw
    out-weights in first-appearance order.
    """
    keys = tails * n + heads
    if undirected:
        keys, raw = np.column_stack((keys, heads * n + tails)).ravel(), np.repeat(raw, 2)
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    summed = np.bincount(inverse, weights=raw, minlength=first.size)
    order = np.argsort(first)  # the unique edges in first-appearance order
    tails, heads = np.divmod(keys[order], n)
    raw = summed[order]
    totals = np.bincount(tails, weights=raw, minlength=n)
    return _assemble(n, tails, heads, raw / totals[tails], names, totals if undirected else None)


def parse_edge_lines(lines, undirected: bool, source: str = "<memory>") -> Graph:
    """Parse edge-list lines "u v [w]" into a normalized Graph.

    External ids are remapped to dense integers in first-appearance order
    (the mapping is retained in ``Graph.names``). Duplicate edges have their
    weights summed before normalization; undirected input materializes each
    edge in both directions before normalization.
    """
    ids: dict[str, int] = {}
    tails, heads, raw = array("q"), array("q"), array("d")
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"{source}:{lineno}: expected 'u v [w]', got {line.rstrip()!r}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(f"{source}:{lineno}: bad weight {parts[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise GraphFormatError(
                    f"{source}:{lineno}: weight must be positive and finite, got {w!r}"
                )
        tails.append(ids.setdefault(parts[0], len(ids)))
        heads.append(ids.setdefault(parts[1], len(ids)))
        raw.append(w)
    if not raw:
        raise GraphFormatError(f"{source}: no edges found (empty file?)")
    return _build(np.array(tails), np.array(heads), np.array(raw), len(ids), undirected, list(ids))


@contextmanager
def _text_file(path, error: type[Exception]):
    """The text file at ``path``, open to read; ``error`` if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_edge_list(path: str, undirected: bool = False) -> Graph:
    """Load a whitespace-separated UTF-8 edge list "u v [w]" from ``path``."""
    with _text_file(path, GraphFormatError) as fh:
        return parse_edge_lines(fh, undirected, source=path)


def from_edges(edges, n: int | None = None, undirected: bool = False) -> Graph:
    """Build a Graph from an iterable of (u, v) or (u, v, w) integer tuples."""
    tails, heads, raw = array("q"), array("q"), array("d")
    max_node = -1
    for edge in edges:
        if not hasattr(edge, "__len__") or len(edge) not in (2, 3):
            raise GraphFormatError(f"edge {edge!r} is not a (u, v) or (u, v, w) tuple")
        u, v, w = edge if len(edge) == 3 else (*edge, 1.0)
        for node in (u, v):
            if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
                raise GraphFormatError(f"node id {node!r} on edge {u}->{v} is not an integer")
        try:
            positive = 0.0 < w < math.inf
        except TypeError:
            raise GraphFormatError(f"weight {w!r} on edge {u}->{v} is not a number") from None
        if not positive:
            raise GraphFormatError(
                f"weight must be positive and finite on edge {u}->{v}, got {w!r}"
            )
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative node id on edge {u}->{v}")
        max_node = max(max_node, u, v)
        if n is not None and max_node >= n:  # before an id too wide for the buffer
            raise GraphFormatError(f"node id {max_node} out of range for n={n}")
        tails.append(u)
        heads.append(v)
        raw.append(w)
    n = max_node + 1 if n is None else n
    names = [str(i) for i in range(n)]
    return _build(np.array(tails), np.array(heads), np.array(raw), n, undirected, names)


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
    dangling = np.flatnonzero(np.diff(g.out_ptr) == 0)
    if not dangling.size:
        return g
    sink = g.n
    added = np.append(dangling, sink)  # every dangling node, and the sink's self-loop
    tails, heads, weights = g.edge_arrays
    return _assemble(
        g.n + 1,
        np.concatenate([tails, added]),
        np.concatenate([heads, np.full(added.size, sink)]),
        np.concatenate([weights, np.ones(added.size)]),
        list(g.names) + [SINK_NAME],
    )


def salsa_transform(g: Graph) -> Graph:
    """Split each node into a consumer/producer pair on an undirected graph.

    Each directed edge (u, v) becomes the undirected edge between u's
    consumer coordinate (id u) and v's producer coordinate (id n + v).
    Consumer ids are [0, n); producer ids are [n, 2n). The directed edge's
    weight is carried over as the raw symmetric weight.
    """
    tails, heads, weights = g.edge_arrays
    names = [f"{name}'" for name in g.names] + [f"{name}''" for name in g.names]
    return _build(tails, heads + g.n, weights, 2 * g.n, True, names)
