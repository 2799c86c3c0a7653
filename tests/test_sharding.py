"""Sharded serving simulation and the walk-sharing storage model."""

import math
import tracemalloc

import numpy as np
import pytest

import pushwalk as pw
from pushwalk import cli, push, sharding
from conftest import rand_graph, two_cycle


def _rand_vectors(rng, n_owners=6, n_coords=20):
    vectors = {}
    for i in range(n_owners):
        kind = "x" if i % 2 == 0 else "y"
        coords = rng.choice(n_coords, size=rng.integers(1, 8), replace=False)
        vectors[(kind, i)] = {int(c): float(rng.random()) for c in coords}
    return vectors


def test_single_shard_holds_everything(rng):
    vectors = _rand_vectors(rng)
    shards = pw.shard_vectors(vectors, 1)
    assert len(shards) == 1
    assert shards[0].entries == vectors


def test_default_hash_sends_each_coordinate_home(rng):
    vectors = _rand_vectors(rng, n_coords=10)
    shards = pw.shard_vectors(vectors, 20)
    for shard in shards:
        for vec in shard.entries.values():
            assert all(c == shard.shard_id for c in vec)


def test_reassembly_is_lossless(rng):
    vectors = _rand_vectors(rng)
    for k in (1, 2, 3, 7):
        assert pw.reassemble(pw.shard_vectors(vectors, k)) == vectors


def test_shards_share_one_owner_set(rng):
    vectors = _rand_vectors(rng)
    vectors[("y", 99)] = {}  # an owner with no coordinates lives in owners only
    for k in (1, 3, 7):
        shards = pw.shard_vectors(vectors, k)
        assert all(shard.owners is shards[0].owners for shard in shards)
        assert shards[0].owners == set(vectors)
        assert pw.reassemble(shards) == vectors


def test_shard_vectors_rejects_bad_arguments(rng):
    vectors = _rand_vectors(rng)
    with pytest.raises(ValueError):
        pw.shard_vectors(vectors, 0)


def test_broker_matches_exact_dot_for_every_shard_count(rng):
    for _ in range(5):
        vectors = _rand_vectors(rng)
        xs = [key for key in vectors if key[0] == "x"]
        ys = [key for key in vectors if key[0] == "y"]
        query = pw.BrokerQuery(target=ys[0], source=xs[0])
        want = pw.exact_dot(vectors[xs[0]], vectors[ys[0]])
        for k in (1, 2, 3, 7, 40):
            shards = pw.shard_vectors(vectors, k)
            assert pw.broker_estimate(query, shards) == want


def test_broker_disjoint_supports_score_zero():
    vectors = {"x": {0: 0.5, 2: 0.25}, "y": {1: 0.7, 3: 0.1}}
    shards = pw.shard_vectors(vectors, 3)
    assert pw.broker_estimate(pw.BrokerQuery(target="y", source="x"), shards) == 0.0


def test_broker_unknown_owner_raises(rng):
    vectors = _rand_vectors(rng)
    shards = pw.shard_vectors(vectors, 2)
    with pytest.raises(KeyError):
        pw.broker_estimate(
            pw.BrokerQuery(target=("y", 1), source=("x", 99)), shards)
    with pytest.raises(KeyError):
        pw.broker_estimate(
            pw.BrokerQuery(target="nope", payload={("x", 0): 1.0}), shards)


def test_broker_payload_mode_weighted_combination():
    vectors = {
        ("x", 0): {0: 0.5, 3: 0.25},
        ("x", 1): {1: 0.5, 3: 0.5},
        "y": {0: 0.25, 1: 0.5, 3: 0.125},
    }
    payload = {("x", 0): 0.4, ("x", 1): 0.6}
    query = pw.BrokerQuery(target="y", payload=payload)
    want = sum(wt * pw.exact_dot(vectors[own], vectors["y"])
               for own, wt in payload.items())
    results = {k: pw.broker_estimate(query, pw.shard_vectors(vectors, k))
               for k in (1, 2, 5)}
    assert len(set(results.values())) == 1  # shard-count invariant
    assert results[1] == pytest.approx(want, rel=1e-12)


def test_fanout_source_forward_push_trace():
    # one source fanning out to ten equal neighbors: a single push settles
    # alpha at the source and parks 0.08 of residual on each neighbor
    edges = [(0, i, 1.0) for i in range(1, 11)]
    edges += [(i, i, 1.0) for i in range(1, 11)]
    g = pw.from_edges(edges, n=11)
    pr = pw.forward_push(g, 0, 0.09, 0.2)
    assert dict(pr.estimates) == pytest.approx({0: 0.2})
    assert dict(pr.residuals) == pytest.approx({i: 0.08 for i in range(1, 11)})
    assert pr.pushes_performed == 1
    # borrowing walks through those residuals: serving a 100k-walk query
    # needs 0.08 * 100k = 8k of each neighbor's walks, within a 10k store
    borrowed = {v: rs * 100_000 for v, rs in pr.residuals.items()}
    assert all(7999 < b <= 10_000 for b in borrowed.values())


def test_store_skips_push_on_high_degree_nodes():
    edges = [(0, i, 1.0) for i in range(1, 11)]
    edges += [(i, i, 1.0) for i in range(1, 11)]
    edges.append((11, 0, 1.0))  # degree-1 spoke aimed at the hub
    g = pw.from_edges(edges, n=12)
    store = pw.build_shared_walk_vectors(g, 0.2, 0.01, d_max=50.0, seed=3)
    # defaults give r_max_f ~ 0.659; the degree-10 fan-out node fails the
    # r/d > r_max test immediately, so its residual stays the indicator
    assert store.r_max_f == pytest.approx((100 * 0.01 / 3.5) ** (1 / 3))
    assert not store.full_walk[0]
    assert dict(store.fwd_residuals[0]) == {0: 1.0}
    assert dict(store.fwd_estimates[0]) == {}
    # the spoke does push (r/d = 1 > r_max_f), and its handed-over mass
    # parks on the hub, where 0.8/10 is far below the threshold
    assert dict(store.fwd_estimates[11]) == pytest.approx({11: 0.2})
    assert dict(store.fwd_residuals[11]) == pytest.approx({0: 0.8})


def test_store_flags_hubs_as_full_walk():
    g = two_cycle()
    store = pw.build_shared_walk_vectors(g, 0.2, 0.01, d_max=0.5, seed=4)
    assert store.full_walk == [True, True]
    n_full = store.params.full_walks(0.01)
    assert store.walk_counts == [n_full, n_full]
    for v in range(2):
        assert dict(store.fwd_residuals[v]) == {v: 1.0}
        assert sum(store.endpoint_freqs[v].values()) == pytest.approx(1.0)


def _residual_walk_counts(store, g):
    """n_w(v) = ceil(c1 * r_max_r * max_s r_s(v) / delta), read off the
    store's residual table."""
    peak = np.zeros(g.n)
    for row in store.fwd_residuals:
        for v, r in row.items():
            peak[v] = max(peak[v], r)
    return [math.ceil(store.params.c1 * store.r_max_r * p / store.delta) for p in peak]


def test_store_frequencies_count_each_nodes_own_walks(rng):
    g = rand_graph(rng, n_max=40, n_min=20, directed=True)
    d_max = float(np.median([g.degree(v) for v in range(g.n)]))
    store = pw.build_shared_walk_vectors(g, 0.2, 0.01, d_max=d_max, seed=7)
    assert store.walk_counts == _residual_walk_counts(store, g)
    n_full = store.params.full_walks(0.01)
    assert all(c == n_full for c, full in zip(store.walk_counts, store.full_walk) if full)
    assert 0 in store.walk_counts and len(set(store.walk_counts)) > 2
    pim = pw.exact_ppr_matrix(g, 0.2)
    for v in range(g.n):
        count = store.walk_counts[v]
        if count == 0:  # no push leaves residual at v, so no query reads its walks
            assert len(store.endpoint_freqs[v]) == 0
            continue
        assert all(pim[v][u] > 0.0 for u in store.endpoint_freqs[v])  # v's own walks
        freqs = np.array(list(store.endpoint_freqs[v].values()))
        hits = freqs * count
        assert np.all(hits >= 1.0 - 1e-9)
        assert np.abs(hits - np.round(hits)).max() < 1e-9
        assert abs(freqs.sum() - 1.0) <= 1e-12


def test_store_coordinate_form_is_shardable():
    g = two_cycle()
    store = pw.build_shared_walk_vectors(g, 0.2, 0.05, d_max=6.0, seed=5)
    vectors = store.as_coord_vectors(g.n)
    assert set(vectors) == {("x", 0), ("x", 1)}
    for v in range(2):
        vec = vectors[("x", v)]
        assert vec[v] == 1.0
        assert sum(val for c, val in vec.items() if c >= g.n) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="2-node graph, not 3 nodes"):
        store.as_coord_vectors(3)


def test_store_for_another_graph_is_refused_by_query_and_report():
    store = pw.build_shared_walk_vectors(two_cycle(), 0.2, 0.05, d_max=6.0, seed=5)
    big = pw.from_edges([(v, (v + 1) % 5, 1.0) for v in range(5)], n=5)
    # (1, 0) would read the store's rows silently; source 4 is past them
    for s in (1, 4):
        with pytest.raises(ValueError, match="2-node graph, not 5 nodes"):
            pw.query_shared_walks(big, store, s, 0)
    with pytest.raises(ValueError, match="2-node graph, not 5 nodes"):
        pw.storage_report(big, store)


def test_shared_walk_params_cube_root_thresholds():
    p = pw.SharedWalkParams()
    assert p.r_max_r(0.01) == pytest.approx((0.5**2 * 0.01 / 70.0) ** (1 / 3))
    assert p.r_max_f(0.01) == pytest.approx((10.0**2 * 0.01 / 3.5) ** (1 / 3))
    assert p.shared_walks(0.01) == math.ceil(
        7.0 * p.r_max_f(0.01) * p.r_max_r(0.01) / 0.01)
    assert p.full_walks(0.01) == math.ceil(7.0 * p.r_max_r(0.01) / 0.01)


def test_query_shared_walks_tracks_exact_value(rng):
    g = rand_graph(rng, n_max=10, directed=True)
    pim = pw.exact_ppr_matrix(g, 0.2)
    s = 0
    t = int(np.argmax(pim[s][1:])) + 1  # best-reached node other than s
    truth = pim[s][t]
    estimates = []
    for seed in range(100):
        store = pw.build_shared_walk_vectors(g, 0.2, 0.02, d_max=8.0, seed=seed)
        estimates.append(pw.query_shared_walks(g, store, s, t))
    arr = np.asarray(estimates)
    se = arr.std(ddof=1) / math.sqrt(len(arr)) + 1e-12
    assert abs(arr.mean() - truth) <= 3.0 * se + 1e-9


def test_store_for_a_graph_of_the_same_size_is_refused():
    four, five = (pw.parse_edge_lines(cli.generate_synthetic("power-law", 300, seed), False)
                  for seed in (4, 5))
    assert (four.n, four.m) == (five.n, five.m)
    store = pw.build_shared_walk_vectors(four, 0.2, 0.05, d_max=1000.0, seed=1)
    with pytest.raises(pw.GraphMismatchError, match="built for another graph"):
        pw.query_shared_walks(five, store, 2, 0)
    with pytest.raises(pw.GraphMismatchError, match="built for another graph"):
        pw.storage_report(five, store)
    assert pw.query_shared_walks(four, store, 2, 0) >= 0.0


def test_storage_model_closed_forms_at_web_scale():
    n = 41_000_000
    model = pw.storage_model(n, 1.0 / n)
    assert model["unshared_optimal"] == pytest.approx(
        2.0 * n * math.sqrt(3.5 * n))
    assert model["shared_optimal"] == pytest.approx(
        3.0 * n * (35.0 * n) ** (1 / 3))
    assert model["unshared_optimal"] == pytest.approx(9.82e11, rel=0.02)
    assert model["shared_optimal"] == pytest.approx(1.39e11, rel=0.02)
    # sharing must win by roughly the documented order of magnitude
    assert model["shared_optimal"] < model["unshared_optimal"] / 7.0


def test_storage_model_accepts_threshold_overrides():
    base = pw.storage_model(1000, 0.01)
    tweaked = pw.storage_model(1000, 0.01, r_max_r=base["r_max_r"],
                               r_max_f=base["r_max_f"])
    assert tweaked["shared"] == pytest.approx(base["shared"])
    # at the optimizing thresholds the three-term model meets its closed form
    assert base["shared"] == pytest.approx(base["shared_optimal"], rel=0.05)
    assert base["unshared"] == pytest.approx(base["unshared_optimal"], rel=0.3)
    # a NaN override once returned nan entries, a negative one a negative total
    for name, value in [("r_max_r", float("nan")), ("r_max_f", -1.0), ("r_max_r", 0.0),
                        ("r_max_f", float("inf"))]:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            pw.storage_model(1000, 0.01, **{name: value})


def test_storage_report_fits_measurements(rng):
    g = rand_graph(rng, n_max=25, n_min=15, directed=True)
    store = pw.build_shared_walk_vectors(g, 0.2, 0.05, d_max=6.0, seed=6)
    report = pw.storage_report(g, store)
    assert report.fitted_c2 > 0.0
    assert report.fitted_c3 > 0.0
    assert report.measured_walk_entries <= report.measured_walks == sum(store.walk_counts)
    model_walks = g.n * store.params.c1 * store.r_max_r * store.r_max_f / 0.05  # n * n_w
    assert report.model["walks"] == pytest.approx(model_walks)
    n_sampled = min(g.n, 20)
    measured = (report.measured_walk_entries
                + report.measured_forward_entries
                + report.measured_reverse_entries * g.n / n_sampled)
    assert measured <= 2.0 * report.model["shared"]
    assert report.model["shared"] <= 2.0 * measured


def test_variable_threshold_scales_with_popularity():
    assert pw.variable_delta_r_max(100, 0.01, 0.001) == pytest.approx(1.0 / 7.0)
    assert pw.variable_delta_r_max(100, 0.01, 0.05) == pytest.approx(5.0 / 7.0)
    assert pw.variable_delta_r_max(200, 0.01, 0.05) == pytest.approx(10.0 / 7.0)
    assert pw.variable_delta_r_max(7, 0.02, 0.0) == pytest.approx(0.02)
    # a NaN count once returned nan, and a NaN pr[t] read as 0
    for w, pr_t in [(0, 0.1), (float("nan"), 0.2), (float("inf"), 0.2), (3, float("nan")),
                    (3, -0.2), (3, float("inf"))]:
        with pytest.raises(ValueError):
            pw.variable_delta_r_max(w, 0.1, pr_t)


def _reference_store(g, alpha, delta, d_max, params, seed):
    """The store as built node by node: one forward push per node that is
    not full-walk, by the store's kernel with that node alone, then
    ceil(c1 * r_max_r * max_s r_s(v) / delta) walks from each node v as
    one ``walk_endpoints`` call and their endpoint counts. Rows are dicts."""
    n = g.n
    full = g.degrees > d_max
    est, res = [], []
    for v in range(n):
        if full[v]:
            est.append({})
            res.append({v: 1.0})
        else:
            pr = push._forward_all(g, np.array([v]), params.r_max_f(delta), alpha)
            est.append(dict(zip(pr[0][1].tolist(), pr[0][2].tolist())))
            res.append(dict(zip(pr[1][1].tolist(), pr[1][2].tolist())))
    peak = [max((row.get(u, 0.0) for row in res), default=0.0) for u in range(n)]
    counts = [math.ceil(params.c1 * params.r_max_r(delta) * p / delta) for p in peak]
    starts = np.repeat(np.arange(n), counts)
    ends = pw.walk_endpoints(g, starts, len(starts), pw.WalkConfig(alpha=alpha, seed=seed))
    codes, hits = np.unique(starts * n + ends, return_counts=True)
    freqs = [{} for _ in range(n)]
    for code, hit in zip(codes.tolist(), hits.tolist()):
        v, u = divmod(code, n)
        freqs[v][u] = hit / counts[v]
    return freqs, est, res


def _reference_query(g, ref, r_max_r, alpha, s, t):
    freqs, est, res = ref
    rev = pw.reverse_push(g, t, r_max_r, alpha)
    value = est[s].get(t, 0.0)
    for v, rs in res[s].items():
        inner = rev.estimates.get(v, 0.0)
        for u, freq in freqs[v].items():
            ru = rev.residuals.get(u, 0.0)
            if ru:
                inner += freq * ru
        value += rs * inner
    return value


def _hub_graph(rng, n=40):
    """Random directed graph plus a hub with an edge to every other node."""
    edges = [(0, v, 1.0) for v in range(1, n)]
    edges += [(int(u), int(v), float(w)) for u, v, w in zip(
        rng.integers(1, n, 3 * n), rng.integers(n, size=3 * n), rng.uniform(0.2, 3.0, 3 * n))]
    edges += [(v, v, 1.0) for v in range(1, n, 5)]
    return pw.apply_sink_convention(pw.from_edges(edges, n=n))


@pytest.mark.parametrize("seed", [0, 1])
def test_store_equals_the_node_by_node_build(seed):
    rng = np.random.default_rng(seed)
    g = _hub_graph(rng)
    params = pw.SharedWalkParams(c3=2.0)  # r_max_f ~0.105: most nodes push
    alpha, delta, d_max = 0.2, 1e-3, 10.0
    store = pw.build_shared_walk_vectors(g, alpha, delta, d_max, params=params, seed=seed)
    ref = _reference_store(g, alpha, delta, d_max, params, seed)
    assert store.full_walk[0] and sum(store.full_walk) == 1
    assert 0 < sum(store.walk_counts) <= sharding._WALK_BLOCK  # one block, as the reference
    assert 0 in store.walk_counts  # a node no push leaves residual at
    for table, rows in zip((store.endpoint_freqs, store.fwd_estimates, store.fwd_residuals), ref):
        assert len(table) == g.n
        for v in range(g.n):
            assert list(table[v].items()) == list(rows[v].items())
            assert len(table[v]) == len(rows[v]) and list(table[v]) == list(rows[v])
        assert [len(r) for r in table] == np.diff(table.ptr).tolist()
        assert table[-1] == table[g.n - 1]
        with pytest.raises(IndexError):
            table[g.n]
    assert store.fwd_residuals[0] == {0: 1.0}  # the full-walk hub's unit residual
    vectors = store.as_coord_vectors(g.n)
    want = {("x", v): {v: 1.0, **{g.n + u: f for u, f in sorted(ref[0][v].items())}}
            for v in range(g.n)}
    assert list(vectors) == list(want)
    assert all(list(vectors[key].items()) == list(want[key].items()) for key in want)
    for s in range(g.n):
        for t in range(g.n):
            assert pw.query_shared_walks(g, store, s, t) == _reference_query(
                g, ref, store.r_max_r, alpha, s, t)


@pytest.mark.parametrize("kwargs, message", [
    ({"delta": 0.0}, "delta must be positive"),
    ({"delta": -0.01}, "delta must be positive"),
    ({"delta": float("nan")}, "delta must be positive"),
    ({"delta": float("inf")}, "delta must be positive"),
    ({"d_max": float("nan")}, "d_max must not be NaN"),
])
def test_store_rejects_bad_delta_and_d_max(kwargs, message):
    args = {"alpha": 0.2, "delta": 0.05, "d_max": 6.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        pw.build_shared_walk_vectors(two_cycle(), **args)
    if "delta" in kwargs:
        with pytest.raises(ValueError, match=message):
            pw.storage_model(1000, kwargs["delta"])
        with pytest.raises(ValueError, match=message):  # a NaN delta once returned nan
            pw.variable_delta_r_max(3, kwargs["delta"], 0.1)


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_shared_walk_params_reject_non_positive_or_non_finite_constants(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        pw.SharedWalkParams(**{name: value})


@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan"), -0.5])
def test_store_checks_alpha_before_any_push(monkeypatch, alpha):
    # at alpha 0 a batched forward push settles nothing and never returns
    def no_push(*args):
        raise AssertionError("pushed before checking alpha")

    monkeypatch.setattr(sharding, "_forward_all", no_push)
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        pw.build_shared_walk_vectors(two_cycle(), alpha, 0.05, 6.0)


def _walk_test_graph():
    return pw.parse_edge_lines(cli.generate_synthetic("power-law", 300, seed=3), undirected=True)


def test_store_walks_in_blocks_of_bounded_memory(monkeypatch):
    # Memory the build allocates after its pushes: the walk blocks and the
    # tables they fill. It stays below 12 times one block's array of walks
    # plus twice the store's tables; the same build in one block peaks
    # well above that (about 8 walk-sized arrays over all 89k walks).
    g = _walk_test_graph()
    pushes = sharding._forward_all
    after_pushes = []

    def push_then_reset(*args):
        out = pushes(*args)
        tracemalloc.reset_peak()
        after_pushes.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(sharding, "_forward_all", push_then_reset)

    def build_peak(block):
        monkeypatch.setattr(sharding, "_WALK_BLOCK", block)
        tracemalloc.start()
        try:
            store = pw.build_shared_walk_vectors(g, 0.2, 2e-5, 1000.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - after_pushes[-1]
        finally:
            tracemalloc.stop()
        return store, peak

    store, peak = build_peak(2048)
    block_walks = 2048 + max(store.walk_counts)  # a block's walks, at most
    walks = sum(store.walk_counts)
    assert walks > 20 * block_walks
    tables = sum(a.nbytes for t in (store.endpoint_freqs, store.fwd_estimates,
                                    store.fwd_residuals) for a in (t.ptr, t.nodes, t.data))
    bound = 12 * 8 * block_walks + 2 * tables
    assert peak < bound
    _, whole = build_peak(walks)
    assert whole > 2 * bound


def test_store_builds_alike_at_one_seed(monkeypatch):
    monkeypatch.setattr(sharding, "_WALK_BLOCK", 512)
    g = _walk_test_graph()
    first, again, other = (pw.build_shared_walk_vectors(g, 0.2, 2e-5, 1000.0, seed=seed)
                           for seed in (4, 4, 5))
    assert sum(first.walk_counts) > 100 * 512  # over 100 blocks
    for name in ("endpoint_freqs", "fwd_estimates", "fwd_residuals"):
        a, b = getattr(first, name), getattr(again, name)
        for attr in ("ptr", "nodes", "data"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), (name, attr)
    assert first.walk_counts == again.walk_counts == other.walk_counts
    assert not np.array_equal(first.endpoint_freqs.data, other.endpoint_freqs.data)


def test_store_budget_meets_the_exact_sampled_term_variance():
    # On this graph the walks carry most of each pair's score. Over 400
    # builds the mean squared error over the exact variance of the sampled
    # term at n_w(v) = ceil(c1 r_max_r max_s r_s(v) / delta) walks,
    # sum_v r_s(v)^2 Var(r_t[X]) / n_w(v) with X ~ pi_v, is 1 (0.85-1.12
    # on five blocks of 400 seeds); with a tenth of the walks it is about 10.
    g = pw.parse_edge_lines(cli.generate_synthetic("power-law", 60, seed=4), undirected=True)
    alpha, delta, params = 0.2, 1e-3, pw.SharedWalkParams(c3=2.0)
    ppr = pw.exact_ppr_matrix(g, alpha)
    stores = [pw.build_shared_walk_vectors(g, alpha, delta, 1000.0, params=params, seed=seed)
              for seed in range(400)]
    budget = np.array(_residual_walk_counts(stores[0], g))
    for s, t in ((30, 0), (17, 0), (30, 2)):
        support, rs = stores[0].fwd_residuals[s].arrays()
        rev = pw.reverse_push(g, t, stores[0].r_max_r, alpha)
        r = np.zeros(g.n)
        nodes, values = rev.residuals.arrays()
        r[nodes] = values
        mean = ppr[support] @ r
        var = np.sum(rs**2 * (ppr[support] @ r**2 - mean**2) / budget[support])
        assert support.size >= 3 and rs @ mean > 0.7 * ppr[s][t]  # the walks carry the score
        errors = np.array([pw.query_shared_walks(g, st, s, t, rev=rev) for st in stores]) - ppr[s][t]
        assert 0.7 <= np.mean(errors**2) / var <= 1.4, (s, t)
