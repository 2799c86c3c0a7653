"""Edge-list parsing, normalization, sink convention, bipartite transform."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pushwalk as pw
from pushwalk.cli import generate_synthetic
from pushwalk.graph import check_built_for
from conftest import rand_graph


def test_parse_two_cycle():
    g = pw.parse_edge_lines(["0 1", "1 0"], undirected=False)
    assert g.n == 2 and g.m == 2
    assert g.out_adj[0] == [(1, 1.0)]
    assert g.out_adj[1] == [(0, 1.0)]


def test_parse_normalizes_outgoing_weights():
    g = pw.parse_edge_lines(["a b 2", "a c 2"], undirected=False)
    a = g.node_id("a")
    weights = sorted(w for _, w in g.out_adj[a])
    assert weights == [0.5, 0.5]


def test_node_id_resolves_labels_before_integer_ids():
    g = pw.parse_edge_lines(["5 0", "0 7"], undirected=False)  # ids 0, 1, 2
    assert (g.node_id("5"), g.node_id("0"), g.node_id("7")) == (0, 1, 2)
    assert g.node_id("2") == 2  # no such label: read as an id
    for token in ("3", "-1", "x"):
        with pytest.raises(KeyError):
            g.node_id(token)


def test_parse_undirected_single_edge():
    g = pw.parse_edge_lines(["0 1"], undirected=True)
    assert g.n == 2 and g.m == 2
    assert g.out_adj[0] == [(1, 1.0)] and g.out_adj[1] == [(0, 1.0)]


def test_parse_skips_comments_and_blanks():
    g = pw.parse_edge_lines(["# header", "", "0 1", "  ", "1 0"],
                            undirected=False)
    assert g.n == 2 and g.m == 2


def test_parse_bad_weight_reports_line():
    with pytest.raises(pw.GraphFormatError, match=r":2: bad weight"):
        pw.parse_edge_lines(["0 1", "1 0 zero"], undirected=False)
    for w in (float("inf"), float("nan"), 0.0):
        with pytest.raises(pw.GraphFormatError, match="positive and finite"):
            pw.from_edges([(0, 1, w), (0, 2, 1.0), (1, 0), (2, 0)])
    with pytest.raises(pw.GraphFormatError, match="negative node id"):
        pw.from_edges([(0, 1), (1, -1), (-1, 0)])
    with pytest.raises(pw.GraphFormatError, match="out of range"):
        pw.from_edges([(0, 1), (1, 2)], n=2)


@pytest.mark.parametrize("line", ["0", "0 1 2 3"])
def test_parse_wrong_field_count_reports_line(line):
    with pytest.raises(pw.GraphFormatError, match=r"^g\.txt:3: expected 'u v \[w\]'"):
        pw.parse_edge_lines(["0 1", "# 1 2 3 4", line], undirected=False, source="g.txt")


def test_parse_empty_input_rejected():
    with pytest.raises(pw.GraphFormatError, match="no edges"):
        pw.parse_edge_lines(["# nothing"], undirected=False)


def test_load_edge_list_roundtrip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("x y 1\ny x 3\n")
    g = pw.load_edge_list(str(p))
    assert g.n == 2 and g.m == 2
    assert g.names[g.node_id("x")] == "x"


def test_sink_noop_when_no_dangling():
    g = pw.from_edges([(0, 1, 1.0), (1, 0, 1.0)], n=2)
    g2 = pw.apply_sink_convention(g)
    assert g2.n == 2 and g2.m == 2


def test_sink_single_isolated_node():
    g = pw.from_edges([], n=1)
    g2 = pw.apply_sink_convention(g)
    assert g2.n == 2
    sink = g2.node_id(pw.SINK_NAME)
    assert g2.out_adj[0] == [(sink, 1.0)]
    assert g2.out_adj[sink] == [(sink, 1.0)]


def test_sink_three_node_path():
    g = pw.from_edges([(0, 1, 1.0), (1, 2, 1.0)], n=3)
    g2 = pw.apply_sink_convention(g)
    assert g2.n == 4
    sink = g2.node_id(pw.SINK_NAME)
    assert g2.out_adj[2] == [(sink, 1.0)]


def test_sink_rows_are_stochastic():
    g = pw.apply_sink_convention(pw.from_edges([(0, 1, 1.0)], n=3))
    W = pw.transition_matrix(g)
    assert np.allclose(W.sum(axis=1), 1.0)


def test_bipartite_split_two_cycle():
    g = pw.from_edges([(0, 1, 1.0), (1, 0, 1.0)], n=2)
    h = pw.salsa_transform(g)
    assert h.n == 4 and h.undirected_flag
    # consumer of 0 (id 0) ties to producer of 1 (id 2+1=3) and vice versa
    assert dict(h.out_adj[0]) == {3: 1.0}
    assert dict(h.out_adj[1]) == {2: 1.0}


def test_bipartite_split_single_edge():
    g = pw.from_edges([(0, 1, 1.0)], n=2)
    h = pw.salsa_transform(g)
    assert h.n == 4
    assert dict(h.out_adj[0]) == {3: 1.0}
    connected = [v for v in range(4) if h.out_adj[v]]
    assert sorted(connected) == [0, 3]


def test_bipartite_split_empty():
    g = pw.from_edges([], n=3)
    h = pw.salsa_transform(g)
    assert h.n == 6
    assert all(not h.out_adj[v] for v in range(6))


def test_constructors_satisfy_validate():
    rng = np.random.default_rng(24)
    for _ in range(24):
        n = int(rng.integers(2, 30))
        edges = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.2, 3.0)))
                 for _ in range(int(rng.integers(1, 3 * n)))]
        lines = [f"{u} {v} {w!r}" for u, v, w in edges]
        weighted = pw.from_edges(edges, n=n)
        for g in (pw.parse_edge_lines(lines, undirected=False),
                  pw.parse_edge_lines(lines, undirected=True),
                  weighted,
                  pw.apply_sink_convention(weighted),
                  pw.salsa_transform(weighted)):
            g.validate()


def test_in_csr_is_a_read_only_copy_of_in_adj():
    rng = np.random.default_rng(11)
    for _ in range(12):
        g = rand_graph(rng, n_max=30, sink=bool(rng.integers(2)))
        in_ptr, in_tails, in_weights = g.in_csr
        assert in_ptr.shape == (g.n + 1,) and in_ptr[-1] == g.m
        assert np.diff(in_ptr).tolist() == [len(adj) for adj in g.in_adj]
        csr = sorted((int(u), v, float(w)) for v in range(g.n)
                     for u, w in zip(in_tails[in_ptr[v]:in_ptr[v + 1]],
                                     in_weights[in_ptr[v]:in_ptr[v + 1]]))
        assert csr == sorted((u, v, w) for v, adj in enumerate(g.in_adj) for u, w in adj)
        for arr in g.in_csr:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        assert g.in_csr[0] is in_ptr  # built once


def test_degree_is_strength_undirected():
    g = pw.from_edges([(0, 1, 2.0), (0, 2, 3.0)], n=3, undirected=True)
    assert g.degree(0) == pytest.approx(5.0)


def test_degree_is_out_count_directed():
    g = pw.from_edges([(0, 1, 2.0), (0, 2, 3.0)], n=3)
    assert g.degree(0) == 2.0


@pytest.mark.parametrize("edge", [(0, 1.5), (1, True), (2.7, 0), ("1", 0), (0, None),
                                  (np.float64(1.0), 0), (0, np.bool_(True))])
def test_from_edges_rejects_non_integer_node_ids(edge):
    with pytest.raises(pw.GraphFormatError, match="not an integer"):
        pw.from_edges([(0, 1), edge], n=3)


@pytest.mark.parametrize("edge, message", [
    ((0,), r"edge \(0,\) is not a \(u, v\) or \(u, v, w\) tuple"),
    ((0, 1, 1.0, 2), r"edge \(0, 1, 1\.0, 2\) is not a \(u, v\) or \(u, v, w\) tuple"),
    ((0, 1, "2"), r"weight '2' on edge 0->1 is not a number"),
    ((0, 1, None), r"weight None on edge 0->1 is not a number"),
    ((0, 2**64), r"node id 18446744073709551616 out of range for n=3"),
    (5, r"edge 5 is not a \(u, v\) or \(u, v, w\) tuple"),
], ids=["one-field", "four-fields", "string-weight", "none-weight", "wide-id", "no-length"])
def test_from_edges_rejects_malformed_edges(edge, message):
    with pytest.raises(pw.GraphFormatError, match=message):
        pw.from_edges([(0, 1), edge], n=3)


def test_from_edges_accepts_numpy_integer_ids():
    g = pw.from_edges([(np.int64(0), np.int32(1)), (1, 2), (2, 0)])
    assert g.n == 3 and g.out_adj[0] == [(1, 1.0)]


# The dict-of-tuples builders that the array path replaced, kept as the
# reference it must match bit for bit: repeated edges sum into a dict in
# input order, an undirected edge adds its mirror right after itself, and
# each node's total sums its raw out-weights in dict insertion order.

def _reference_raw(edges, undirected):
    raw = {}
    for u, v, w in edges:
        raw[(u, v)] = raw.get((u, v), 0.0) + w
        if undirected:
            raw[(v, u)] = raw.get((v, u), 0.0) + w
    return raw


def _reference_graph(raw, n, undirected, names):
    k = len(raw)
    tails = np.fromiter((u for u, _ in raw), np.intp, k)
    heads = np.fromiter((v for _, v in raw), np.intp, k)
    weights = np.fromiter(raw.values(), float, k)
    totals = np.bincount(tails, weights=weights, minlength=n)
    order = np.lexsort((heads, tails))
    out_ptr = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))]).astype(np.intp)
    degrees = totals if undirected else np.diff(out_ptr).astype(float)
    return (out_ptr, heads[order], (weights / totals[tails])[order], degrees, names, undirected)


def _reference_parse(lines, undirected):
    ids, edges = {}, []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        u, v = (ids.setdefault(tok, len(ids)) for tok in parts[:2])
        edges.append((u, v, float(parts[2]) if len(parts) == 3 else 1.0))
    return _reference_graph(_reference_raw(edges, undirected), len(ids), undirected, list(ids))


def _reference_salsa(ref):
    out_ptr, heads, weights, _, names, _ = ref
    n = len(out_ptr) - 1
    tails = np.repeat(np.arange(n), np.diff(out_ptr)).tolist()
    producers = (heads + n).tolist()
    raw = dict(zip(zip(tails + producers, producers + tails), weights.tolist() * 2))
    names = [f"{name}'" for name in names] + [f"{name}''" for name in names]
    return _reference_graph(raw, 2 * n, True, names)


def _assert_bitwise(g, ref):
    got = (g.out_ptr, g.heads, g.weights, g.degrees, g.names, g.undirected_flag)
    for field_name, a, b in zip(("out_ptr", "heads", "weights", "degrees"), got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field_name
    assert got[4:] == ref[4:]


def _random_edges(rng):
    """Edges over a few nodes with frequent repeats, reversed repeats,
    self-loops and weights whose sums depend on the order they are added."""
    n = int(rng.integers(1, 12))
    edges = []
    for _ in range(int(rng.integers(1, 40))):
        if edges and rng.random() < 0.35:
            u, v, _ = edges[int(rng.integers(len(edges)))]
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = int(rng.integers(n)), int(rng.integers(n))
        w = float(rng.choice([1.0, 0.1, 0.2, 0.3, 2.0, 1e-3, rng.uniform(0.01, 5.0)]))
        edges.append((u, v, w))
    return edges


def test_array_builders_match_the_dict_of_tuples_reference_bit_for_bit():
    rng = np.random.default_rng(26)
    labels = ["0", "1", "2", "17", "a", "b", "node-x", "\u00e9", "-3", "1.5", "Z9", "q"]
    for _ in range(300):
        edges = _random_edges(rng)
        lines = []
        for u, v, w in edges:
            sep = str(rng.choice([" ", "\t", "  ", " \t "]))
            if rng.random() < 0.15:
                lines.append(str(rng.choice(["", "   ", "# comment", "  # indented 1 2", "\t#x y z"])))
            fields = [labels[u], labels[v]] + ([repr(w)] if w != 1.0 or rng.random() < 0.3 else [])
            lines.append(str(rng.choice(["", " ", "\t"])) + sep.join(fields) + str(rng.choice(["", "\n", "  \n"])))
        for undirected in (False, True):
            ref = _reference_parse(lines, undirected)
            _assert_bitwise(pw.parse_edge_lines(lines, undirected), ref)
        tuples = [(u, v, w) if w != 1.0 or rng.random() < 0.5 else (u, v) for u, v, w in edges]
        top = max(max(u, v) for u, v, _ in edges) + 1
        for undirected in (False, True):
            n = None if rng.random() < 0.3 else top + int(rng.integers(0, 3))
            g = pw.from_edges(tuples, n=n, undirected=undirected)
            n = n or top
            ref = _reference_graph(_reference_raw(edges, undirected), n, undirected,
                                   [str(i) for i in range(n)])
            _assert_bitwise(g, ref)
            _assert_bitwise(pw.salsa_transform(g), _reference_salsa(ref))


def _tampered(g, **arrays):
    """A copy of g with some core arrays replaced."""
    return dataclasses.replace(g, **{k: np.array(v) for k, v in arrays.items()})


def test_validate_catches_each_tampered_array():
    g = pw.from_edges([(0, 1, 1.0), (0, 2, 3.0), (1, 2), (2, 0)], n=3)
    h = pw.from_edges([(0, 1), (1, 2)], n=3, undirected=True)
    g.validate()
    h.validate()
    w = g.weights.copy()
    w[0] *= 2.0
    unnormalized = _tampered(g, weights=w)
    heads = g.heads.copy()
    heads[1] = heads[0]
    repeated = _tampered(g, heads=heads)
    w = g.weights.copy()
    w[:2] = [1.0, 0.0]
    non_positive = _tampered(g, weights=w)
    broken_transpose = _tampered(g)
    in_ptr, in_tails, in_weights = g.in_csr
    broken_transpose.in_csr = (in_ptr, in_tails[::-1].copy(), in_weights)
    heads = h.heads.copy()
    heads[-1] = 0  # node 2's only edge, 2 -> 1, turns into 2 -> 0
    asymmetric = _tampered(h, heads=heads)
    for bad, message in [(unnormalized, "sum to"), (repeated, "duplicate"),
                         (non_positive, "non-positive"), (broken_transpose, "transpose"),
                         (asymmetric, "not symmetric")]:
        with pytest.raises(AssertionError, match=message):
            bad.validate()


def test_core_arrays_are_read_only_and_m_is_derived():
    g = pw.from_edges([(0, 1, 1.0), (0, 2, 3.0), (2, 0)], n=3, undirected=True)
    assert g.m == len(g.heads) == 4
    assert g.out_ptr.tolist() == [0, 2, 3, 4]
    assert g.heads.tolist() == [1, 2, 0, 0]
    assert g.weights.tolist() == [0.2, 0.8, 1.0, 1.0]
    assert g.degrees.tolist() == [5.0, 1.0, 4.0]
    for arr in (g.out_ptr, g.heads, g.weights, g.degrees, *g.edge_arrays):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_identity_tells_same_size_graphs_apart_and_not_how_they_were_loaded():
    lines = {seed: generate_synthetic("power-law", 300, seed) for seed in (4, 5)}
    four, five = (pw.parse_edge_lines(lines[seed], undirected=False) for seed in (4, 5))
    assert four.identity[:2] == five.identity[:2] == (300, 598)
    assert four.identity != five.identity
    with pytest.raises(pw.GraphMismatchError, match="digest"):
        check_built_for(four.identity, five, "the artifact")
    check_built_for(four.identity, four, "the artifact")
    # the same edges through from_edges, and in a fresh process
    again = pw.from_edges([tuple(map(int, line.split())) for line in lines[4]])
    assert again.identity == four.identity
    src = str(Path(pw.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import pushwalk as pw; "
            "from pushwalk.cli import generate_synthetic; "
            "print(pw.parse_edge_lines(generate_synthetic('power-law', 300, 4), False).identity)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == repr(four.identity)
