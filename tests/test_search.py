"""Keyword-filtered ranking: grouped identity, two-stage sampler, storage."""

import numpy as np
import pytest

import pushwalk as pw
from pushwalk.cli import generate_synthetic
from conftest import rand_graph, reference_draw, two_cycle


def _row(entries) -> pw.Row:
    """Hand-made entries, a {node: value} dict or (node, value) pairs, in any
    node order, as the ``Row`` the package would hand out."""
    d = dict(entries)
    return pw.Row.of(np.fromiter(d, np.int64, len(d)), np.fromiter(d.values(), float, len(d)))


def test_forward_vector_self_loop_is_double_indicator():
    g = pw.from_edges([(0, 0, 1.0)], n=1)
    cfg = pw.WalkConfig(alpha=0.2, seed=1)
    x = pw.build_forward_vector(g, 0, 16, cfg)
    assert dict(x.indicator) == {0: 1.0}
    assert dict(x.empirical) == {0: 1.0}  # 16 walks of 1/16, dyadic-exact


def test_forward_vector_single_walk_is_unit_mass():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=2)
    x = pw.build_forward_vector(g, 0, 1, cfg)
    assert sum(x.empirical.values()) == pytest.approx(1.0)
    assert len(x.empirical) == 1


def test_forward_vector_rejects_zero_walks():
    g = two_cycle()
    with pytest.raises(ValueError):
        pw.build_forward_vector(g, 0, 0, pw.WalkConfig(alpha=0.2, seed=3))


def test_pure_monte_carlo_reverse_vector_scores_frequency():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=4)
    x = pw.build_forward_vector(g, 0, 400, cfg)
    rv = pw.build_reverse_vector(g, 1, 1.5, 0.2)
    assert dict(rv.estimates) == {}
    assert dict(rv.residuals) == {1: 1.0}
    params = pw.PprParams(delta=0.05, alpha=0.2, r_max=1.5)
    scores = pw.score_targets_direct(g, 0, [1], params, forward=x,
                                     vectors={1: rv})
    assert scores[0] == (1, pytest.approx(x.empirical.get(1, 0.0)))


def test_grouped_equals_direct_bit_for_bit(rng):
    for trial in range(5):
        g = rand_graph(rng, n_max=25, directed=True)
        s = int(rng.integers(g.n))
        targets = sorted({int(rng.integers(g.n)) for _ in range(6)})
        r_max = float(rng.uniform(0.02, 0.3))
        params = pw.PprParams(delta=0.05, alpha=0.2, r_max=r_max)
        cfg = pw.WalkConfig(alpha=0.2, seed=50 + trial)
        x = pw.build_forward_vector(g, s, 300, cfg)
        vectors = {t: pw.build_reverse_vector(g, t, r_max, 0.2)
                   for t in targets}
        direct = pw.score_targets_direct(g, s, targets, params, forward=x,
                                         vectors=vectors)
        z = pw.build_grouped_index(g, targets, r_max, 0.2)
        grouped = pw.score_targets_grouped(x, z)
        assert grouped == direct  # identical floats, identical order
    # On those graphs every push runs in rounds, so every block above is a
    # DenseVec. Here: rows built from entries given in descending node order,
    # DenseVec targets, and a source whose endpoints were given shuffled.
    # Both scorers must add in ascending coordinate order, as the scalar loop
    # below does.
    n = 40
    vectors = {}
    for t in range(6):
        nodes = [rng.choice(n, size=int(rng.integers(3, 20)), replace=False) for _ in range(2)]
        if t % 2:
            blocks = [pw.DenseVec(np.zeros(n)) for _ in range(2)]
            for vec, nz in zip(blocks, nodes):
                vec.array[nz] = rng.random(nz.size)
        else:
            blocks = [_row((int(v), float(rng.random())) for v in sorted(nz, reverse=True))
                      for nz in nodes]
        vectors[t] = pw.ReverseVector(n, t, *blocks, 0.05, 0.2)
    ends = rng.permutation(n)[:25]
    empirical = _row(zip(ends.tolist(), rng.random(25).tolist()))
    x = pw.ForwardVector(n, _row({7: 1.0}), empirical, walks=25, alpha=0.2)
    want = {}
    for t, rv in vectors.items():
        acc = 0.0
        for coord in sorted([7] + [n + int(v) for v in ends]):
            xv = 1.0 if coord < n else x.empirical[coord - n]
            yv = rv.estimates.get(coord, 0.0) if coord < n else rv.residuals.get(coord - n, 0.0)
            acc += xv * yv
        want[t] = acc
    g = pw.from_edges([(v, (v + 1) % n, 1.0) for v in range(n)], n=n)
    params = pw.PprParams(delta=0.05, alpha=0.2, r_max=0.05)
    direct = pw.score_targets_direct(g, 7, list(vectors), params, forward=x, vectors=vectors)
    grouped = pw.score_targets_grouped(x, pw.build_grouped_index(g, list(vectors), 0.05, 0.2,
                                                                 vectors=vectors))
    assert direct == grouped == sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))


def _dict_slots(vectors):
    """The coordinate -> [(target, value)] dict an index once stored,
    built entry by entry from each target's coord_items()."""
    slots = {}
    for t in sorted(vectors):
        for coord, val in vectors[t].coord_items():
            slots.setdefault(coord, []).append((t, val))
    return slots


def _dict_draw(x, slots, n_samples, seed):
    """Reference two-stage draw over the dict form of the slots."""
    rng = np.random.default_rng(seed)
    stage1 = [(coord, xv * sum(yv for _, yv in slots[coord]))
              for coord, xv in x.coord_items() if coord in slots and xv > 0.0]
    if sum(wt for _, wt in stage1) <= 0.0:
        return []
    picks = reference_draw([wt for _, wt in stage1], rng.random(n_samples).tolist())
    coords = [stage1[i][0] for i in picks]
    counts = {}
    for coord in sorted(set(coords)):
        xs = rng.random(coords.count(coord)).tolist()
        for i in reference_draw([yv for _, yv in slots[coord]], xs):
            t = slots[coord][i][0]
            counts[t] = counts.get(t, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def test_csr_index_lists_the_dict_slots_and_draws_alike(rng):
    dense_pushes = 0
    for trial in range(8):
        g = rand_graph(rng, n_max=30, directed=bool(trial % 2))
        targets = sorted({int(rng.integers(g.n)) for _ in range(7)})
        r_max = float(rng.uniform(0.005, 0.2))
        vectors = {t: pw.build_reverse_vector(g, t, r_max, 0.2) for t in targets}
        dense_pushes += sum(isinstance(pw.reverse_push(g, t, r_max, 0.2).residuals,
                                       pw.DenseVec) for t in targets)
        want = _dict_slots(vectors)
        # Pushed afresh (DenseVec or sorted FIFO rows) and from given vectors.
        for idx in (pw.build_target_sampler(g, targets, r_max, 0.2),
                    pw.build_target_sampler(g, targets, r_max, 0.2, vectors=vectors),
                    pw.build_grouped_index(g, targets, r_max, 0.2)):
            slots = idx.samplers if isinstance(idx, pw.TargetSamplerIndex) else idx.slots
            assert list(slots) == sorted(want)
            assert {coord: list(slot.items()) for coord, slot in slots.items()} == want
            assert sum(len(slot) for slot in slots.values()) == idx.table.nodes.size
        idx = pw.build_target_sampler(g, targets, r_max, 0.2)
        for seed in range(3):
            s = int(rng.integers(g.n))
            x = pw.build_forward_vector(g, s, 200, pw.WalkConfig(0.2, 70 + seed))
            assert pw.sample_targets(x, idx, 500, seed=seed) == _dict_draw(x, want, 500, seed)
    assert dense_pushes > 0


def _hand_index(build, n, blocks):
    """``build``'s index over hand-made target vectors, given as
    {target: (estimates, residuals)} at r_max 0.5 and alpha 0.2."""
    g = pw.from_edges([(v, (v + 1) % n, 1.0) for v in range(n)], n=n)
    vectors = {t: pw.ReverseVector(n, t, _row(est), _row(res), 0.5, 0.2)
               for t, (est, res) in blocks.items()}
    return build(g, list(vectors), 0.5, 0.2, vectors=vectors)


def test_grouped_empty_support_overlap_scores_zero():
    # residual slot of node 2: coordinate 6 = [(2, 0.4), (3, 0.1)]
    z = _hand_index(pw.build_grouped_index, 4, {2: ({}, {2: 0.4}), 3: ({}, {2: 0.1})})
    x = pw.ForwardVector(n=4, indicator=_row({0: 1.0}),
                         empirical=_row({1: 1.0}), walks=1, alpha=0.2)
    scores = pw.score_targets_grouped(x, z)
    assert scores == [(2, 0.0), (3, 0.0)]


def test_grouped_single_shared_coordinate():
    # residual slot of node 1: coordinate 5 = [(2, 0.4), (3, 0.1)]
    z = _hand_index(pw.build_grouped_index, 4, {2: ({}, {1: 0.4}), 3: ({}, {1: 0.1})})
    x = pw.ForwardVector(n=4, indicator=_row({0: 1.0}),
                         empirical=_row({1: 0.5}), walks=2, alpha=0.2)
    scores = pw.score_targets_grouped(x, z)
    assert dict(scores) == {2: 0.5 * 0.4, 3: 0.5 * 0.1}


def test_all_zero_scores_rank_by_node_id():
    z = _hand_index(pw.build_grouped_index, 4, {3: ({}, {}), 1: ({}, {}), 2: ({}, {})})
    x = pw.ForwardVector(n=4, indicator=_row({0: 1.0}),
                         empirical=_row({0: 1.0}), walks=1, alpha=0.2)
    scores = pw.score_targets_grouped(x, z)
    assert [t for t, _ in scores] == [1, 2, 3]


def test_direct_single_target_matches_estimator(rng):
    g = rand_graph(rng, n_max=15, directed=True)
    t = int(rng.integers(g.n))
    params = pw.PprParams(delta=0.05, alpha=0.2, r_max=0.1)
    scores = pw.score_targets_direct(g, 0, [t], params, seed=9)
    est = pw.estimate_ppr(g, 0, t, params, seed=9)
    assert scores[0][0] == t
    assert scores[0][1] == pytest.approx(est.value, abs=1e-12)


def test_sampler_single_target_always_wins():
    g = two_cycle()
    cfg = pw.WalkConfig(alpha=0.2, seed=5)
    x = pw.build_forward_vector(g, 0, 50, cfg)
    idx = pw.build_target_sampler(g, [1], 0.3, 0.2)
    ranked = pw.sample_targets(x, idx, 500, seed=6)
    assert ranked == [(1, 500)]


def test_sampler_three_to_one_ratio():
    # residual slot of node 3: coordinate 8 = [(1, 0.3), (2, 0.1)]
    idx = _hand_index(pw.build_target_sampler, 5, {1: ({}, {3: 0.3}), 2: ({}, {3: 0.1})})
    assert sum(idx.samplers[8].values()) == pytest.approx(0.4)
    x = pw.ForwardVector(n=5, indicator=_row({0: 1.0}),
                         empirical=_row({3: 1.0}), walks=1, alpha=0.2)
    counts = dict(pw.sample_targets(x, idx, 1_000_000, seed=7))
    assert abs(counts[1] / counts[2] - 3.0) <= 0.06


def test_sampler_worked_two_stage_arithmetic():
    # Intermediate nodes (a, b, c) own residual coords (10, 11, 12).
    # Stage-one weights x*total come out (0, 0.64/3, 0.72/3), where total is
    # a coordinate sampler's aggregate target mass; node c's stage-two
    # sampler splits its targets (5/9, 2/9, 2/9).
    # coordinate 11 = [(5, 0.4), (6, 0.12), (7, 0.12)],
    # coordinate 12 = [(5, 0.4), (6, 0.16), (7, 0.16)]
    idx = _hand_index(pw.build_target_sampler, 8, {5: ({}, {3: 0.4, 4: 0.4}),
                                                   6: ({}, {3: 0.12, 4: 0.16}),
                                                   7: ({}, {3: 0.12, 4: 0.16})})
    x = pw.ForwardVector(n=8, indicator=_row({0: 1.0}),
                         empirical=_row({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}),
                         walks=3, alpha=0.2)
    stage1 = {coord: xv * sum(idx.samplers[coord].values())
              for coord, xv in x.coord_items() if coord in idx.samplers}
    assert stage1.get(10, 0.0) == 0.0
    assert stage1[11] == pytest.approx(0.64 / 3)
    assert stage1[12] == pytest.approx(0.72 / 3)
    assert list(idx.samplers[12].values()) == [0.4, 0.16, 0.16]
    picks = pw.weighted_draw(np.array([0.4, 0.16, 0.16]), np.random.default_rng(8), 200_000)
    assert abs((picks == 0).mean() - 5 / 9) < 0.005
    assert abs((picks == 1).mean() - 2 / 9) < 0.005
    # End-to-end marginal: P(t) proportional to sum_v x[v] * y_t[v], here
    # (0.8, 0.28, 0.28) / 1.36 over targets (5, 6, 7).
    counts = dict(pw.sample_targets(x, idx, 300_000, seed=9))
    tot = sum(counts.values())
    assert counts[5] / tot == pytest.approx(0.8 / 1.36, abs=0.004)
    assert counts[6] / tot == pytest.approx(0.28 / 1.36, abs=0.004)


def test_sampler_with_nothing_reachable_returns_empty_ranking():
    idx = _hand_index(pw.build_target_sampler, 4, {2: ({}, {})})
    x = pw.ForwardVector(n=4, indicator=_row({0: 1.0}),
                         empirical=_row({1: 1.0}), walks=1, alpha=0.2)
    assert pw.sample_targets(x, idx, 10, seed=1) == []
    # Two components: walks from 0 never leave {0, 1}, targets sit in {2, 3}.
    g = pw.from_edges([(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)], n=4)
    x = pw.build_forward_vector(g, 0, 50, pw.WalkConfig(alpha=0.2, seed=4))
    idx = pw.build_target_sampler(g, [2, 3], 0.01, 0.2)
    assert pw.sample_targets(x, idx, 10, seed=1) == []


def test_search_rejects_mixed_teleport_rates():
    g = two_cycle()
    x = pw.build_forward_vector(g, 0, 50, pw.WalkConfig(alpha=0.2, seed=4))
    params = pw.PprParams(delta=0.05, alpha=0.5, r_max=0.1)
    vectors = {1: pw.build_reverse_vector(g, 1, 0.1, 0.5)}
    with pytest.raises(ValueError, match="alpha"):
        pw.score_targets_grouped(x, pw.build_grouped_index(g, [1], 0.1, 0.5))
    with pytest.raises(ValueError, match="alpha"):
        pw.sample_targets(x, pw.build_target_sampler(g, [1], 0.1, 0.5), 10)
    with pytest.raises(ValueError, match="alpha"):
        pw.score_targets_direct(g, 0, [1], params, forward=x, vectors=vectors)
    # a target side built for another graph: same alpha, other node count
    other = pw.from_edges([(v, (v + 1) % 3, 1.0) for v in range(3)], n=3)
    with pytest.raises(ValueError, match="3-node graph"):
        pw.score_targets_grouped(x, pw.build_grouped_index(other, [1], 0.1, 0.2))
    with pytest.raises(ValueError, match="3-node graph"):
        pw.sample_targets(x, pw.build_target_sampler(other, [1], 0.1, 0.2), 10)
    with pytest.raises(ValueError, match="3-node graph"):
        pw.score_targets_direct(g, 0, [1], params, forward=x,
                                vectors={1: pw.build_reverse_vector(other, 1, 0.1, 0.2)})


def test_top_ranked_target_is_nearly_best(rng):
    # Ring plus weighted chords: strongly connected, so every target is
    # reachable and the oracle ranking has real separation.
    n = 20
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    for _ in range(30):
        u, v = rng.integers(n, size=2)
        if u != v:
            edges.append((int(u), int(v), float(rng.uniform(0.5, 2.0))))
    g = pw.from_edges(edges, n=n)
    pim = pw.exact_ppr_matrix(g, 0.2)
    params = pw.PprParams(delta=1 / n, alpha=0.2, r_max=0.02)
    wins = runs = 0
    for trial in range(60):
        s = int(rng.integers(n))
        targets = sorted(int(v) for v in
                         rng.choice(n, size=5, replace=False))
        cfg = pw.WalkConfig(alpha=0.2, seed=300 + trial)
        x = pw.build_forward_vector(g, s, 2000, cfg)
        scores = pw.score_targets_direct(g, s, targets, params, forward=x)
        best = max(pim[s][t] for t in targets)
        runs += 1
        wins += pim[s][scores[0][0]] >= 0.9 * best
    assert wins / runs >= 0.95


def test_adaptive_threshold_worked_example():
    gp = np.full(1000, 1e-6)
    targets = list(range(100))
    gp[targets] = 0.0001  # pi[T] = 0.01
    c2 = 3 ** 0.77 * 20.0 / 0.23
    expect = 1e4 * 0.01 / (c2 * 100 ** 0.23)
    got = pw.adaptive_r_max(targets, gp, w=10_000, k=3, beta=0.77, c=20.0)
    assert got == pytest.approx(expect, rel=1e-9)
    assert c2 == pytest.approx(202.63, abs=0.01)
    assert got == pytest.approx(0.17111, abs=0.0001)


def test_adaptive_threshold_limiting_form():
    # One target, top-1, beta -> 0: collapses to w * pi[T] / c.
    gp = np.zeros(10)
    gp[3] = 0.02
    got = pw.adaptive_r_max([3], gp, w=500, k=1, beta=1e-9, c=20.0)
    assert got == pytest.approx(500 * 0.02 / 20.0)


def test_adaptive_threshold_linear_in_walks():
    gp = np.full(50, 0.02)
    a = pw.adaptive_r_max([1, 2], gp, w=100, k=3, c=20.0)
    b = pw.adaptive_r_max([1, 2], gp, w=200, k=3, c=20.0)
    assert b == pytest.approx(2 * a)


def test_adaptive_threshold_rejects_bad_input():
    gp = np.full(10, 0.1)
    with pytest.raises(ValueError):
        pw.adaptive_r_max([], gp, w=100, k=1)
    with pytest.raises(ValueError):
        pw.adaptive_r_max([1], gp, w=100, k=1, beta=1.0)
    for bad in ({"w": 0}, {"w": -5}, {"k": 0}, {"k": -1},
                {"c": 0.0}, {"c": -1.0}, {"c": np.nan}, {"c": np.inf}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            pw.adaptive_r_max([1, 2], gp, **{"w": 100, "k": 1, **bad})


def test_adaptive_threshold_rejects_targets_outside_the_graph():
    g = pw.parse_edge_lines(generate_synthetic("power-law", 300, 0), undirected=False)
    gp = pw.exact_global_pagerank(g, 0.2)
    assert pw.adaptive_r_max([299], gp, w=100, k=1) > 0.0
    for bad in (-1, 300, 10**6):  # -1 read the last node's PageRank
        with pytest.raises(ValueError, match="out of range"):
            pw.adaptive_r_max([1, bad], gp, w=100, k=1)
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="not an integer node id"):
            pw.adaptive_r_max([bad], gp, w=100, k=1)


def test_storage_monte_carlo_mode_counts_singletons(rng):
    g = rand_graph(rng, n_max=15, directed=True)
    targets = [0, 1, 2]
    kw = pw.KeywordIndex({"science": targets})
    vectors = {t: pw.build_reverse_vector(g, t, 1.5, 0.2) for t in targets}
    report = pw.storage_accounting(g, kw, vectors, 1.5, 0.2)
    assert report.total_nonzeros == len(targets)
    assert report.within_bound


def test_storage_bound_holds_at_gamma_one(rng):
    for _ in range(3):
        g = rand_graph(rng, n_max=30, directed=True)
        targets = sorted({int(rng.integers(g.n)) for _ in range(5)})
        kw = pw.KeywordIndex({"topic": targets})
        vectors = {t: pw.build_reverse_vector(g, t, 0.05, 0.2)
                   for t in targets}
        report = pw.storage_accounting(g, kw, vectors, 0.05, 0.2)
        assert report.gamma == pytest.approx(1.0)
        assert report.within_bound


def test_storage_doubles_with_duplicated_keyword(rng):
    g = rand_graph(rng, n_max=20, directed=True)
    targets = [0, 1]
    vectors = {t: pw.build_reverse_vector(g, t, 0.1, 0.2) for t in targets}
    one = pw.storage_accounting(
        g, pw.KeywordIndex({"a": targets}), vectors, 0.1, 0.2)
    two = pw.storage_accounting(
        g, pw.KeywordIndex({"a": targets, "b": targets}), vectors, 0.1, 0.2)
    assert two.total_nonzeros == 2 * one.total_nonzeros
    assert two.gamma == pytest.approx(2 * one.gamma)


def test_keyword_sidecar_parsing(tmp_path):
    path = tmp_path / "keywords.tsv"
    path.write_text("# comment\nscience\t3\nscience\t1\nart\t2\n\n")
    kw = pw.KeywordIndex.from_file(path)
    assert kw.mapping == {"science": [1, 3], "art": [2]}


def test_keyword_sidecar_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("science 3\n")  # space, not tab
    with pytest.raises(ValueError, match="bad.tsv:1"):
        pw.KeywordIndex.from_file(path)


def test_index_sidecar_roundtrip(tmp_path):
    payload = {"targets": [1, 2, 3], "slots": {5: [(1, 0.25)]}}
    path = tmp_path / "idx.bin"
    pw.save_index(path, payload)
    assert pw.load_index(path) == payload


def test_stored_reverse_vectors_stay_sparse_through_save_and_load(tmp_path):
    lines = generate_synthetic("power-law", 3000, 0)
    g = pw.apply_sink_convention(pw.parse_edge_lines(lines, undirected=False))
    alpha, r_max = 0.2, 1e-3
    hub = int(np.argmax(pw.exact_global_pagerank(g, alpha)))
    pr = pw.reverse_push(g, hub, r_max, alpha)
    assert isinstance(pr.residuals, pw.DenseVec)  # the push ran in rounds
    rv = pw.build_reverse_vector(g, hub, r_max, alpha)
    assert rv.estimates is pr.estimates and rv.residuals is pr.residuals  # the kept push's own
    grouped = pw.build_grouped_index(g, [hub, 5], r_max, alpha)
    path = tmp_path / "idx.bin"
    pw.save_index(path, {"grouped": grouped})
    assert b"numpy" not in path.read_bytes()  # plain ints and floats only
    back = pw.load_index(path)
    assert back["grouped"].targets == grouped.targets
    for name in ("keys", "ptr", "nodes", "data"):
        assert np.array_equal(getattr(back["grouped"].table, name), getattr(grouped.table, name))
    # no file the CLI writes holds a reverse vector, so a payload naming one is refused
    pw.save_index(path, {"vectors": {hub: rv}})
    with pytest.raises(pw.IndexFormatError, match="refusing to load .*ReverseVector"):
        pw.load_index(path)


def test_index_sidecar_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a search index"):
        pw.load_index(path)
